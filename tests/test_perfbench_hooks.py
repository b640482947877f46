"""The repository benchmark's layer hooks still resolve against the package.

``perfbench/layers.py`` times each layer by wrapping entry points it
names as strings, and ``LayerTimer._patch`` reads class attributes from
the class's own ``__dict__``.  Renaming or moving one of them (say
``identify_delta``, ``AccessIndex.read_write_overlaps_since`` or
``AccessStore.load_bucket``) crashes every traced benchmark run; these
tests catch that in the regular test suite.  They read ``perfbench/`` and
never edit it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.fuzz.prog import Program
from repro.machine.accesses import AccessType
from repro.pmc.identify import PmcSet
from repro.pmc.index import AccessIndex
from repro.profile.profiler import ProfiledAccess, TestProfile

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


def resolve(owner, attr):
    """``attr`` of ``owner`` exactly as ``LayerTimer._patch`` reads it."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def entry_owner(module_name, path):
    """The object a ``LAYERS`` path's last component lives on."""
    owner = importlib.import_module(module_name)
    for name in path.split(".")[:-1]:
        owner = getattr(owner, name)
    return owner


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for module_name, path, _ in layers.LAYERS],
    ids=[f"{module_name}:{path}" for module_name, path, _ in layers.LAYERS],
)
def test_layer_entry_point_resolves(module_name, path):
    raw = resolve(entry_owner(module_name, path), path.split(".")[-1])
    if isinstance(raw, (classmethod, staticmethod)):
        raw = raw.__func__
    assert callable(raw)


def test_extra_hooks_resolve():
    """The overlap counter and the HTTP handler hook are patched outside
    the ``LAYERS`` table."""
    import repro.service.daemon as daemon

    assert callable(resolve(AccessIndex, "read_write_overlaps_since"))
    assert callable(resolve(daemon, "_make_handler"))


def test_handler_has_the_dispatch_the_api_timer_wraps(tmp_path):
    import repro.service.daemon as daemon

    service = daemon.CampaignService(str(tmp_path / "svc"), mirror_trace=False)
    try:
        assert callable(daemon._make_handler(service)._dispatch)
    finally:
        service.stop()


def test_counter_hooks_name_wrapped_entry_points():
    """A return-value hook keyed by a path no entry point has would
    silently never fire."""
    paths = {path for _, path, _ in layers.LAYERS}
    assert set(layers.trial_hooks(layers.LayerTimer())) <= paths


def test_identify_delta_returns_new_pmcs_and_new_pairs():
    """The ``pmc.new_pairs`` hook reads ``result[1]`` of the function the
    benchmark wraps, ``repro.orchestrate.pipeline.identify_delta``."""
    identify_delta = importlib.import_module("repro.orchestrate.pipeline").identify_delta

    def profile(test_id, kind, value):
        access = ProfiledAccess(type=kind, addr=0x100, size=8, value=value, ins=kind.name)
        return TestProfile(test_id=test_id, program=Program(()), accesses=(access,), instructions=0)

    result = identify_delta(
        PmcSet(),
        AccessIndex(),
        [profile(0, AccessType.WRITE, 1), profile(1, AccessType.READ, 0)],
    )
    assert isinstance(result, tuple) and result == (1, 1)

