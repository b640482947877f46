"""Tests for persistence: program JSON and reproduction packages."""

import pytest

from repro.fuzz.prog import Call, Res, prog
from repro.kernel.kernel import boot_kernel
from repro.orchestrate.persistence import (
    ReproPackage,
    capture_package,
    program_from_obj,
    program_to_obj,
    reproduce,
)
from repro.orchestrate.pipeline import Snowboard, SnowboardConfig
from repro.sched.executor import Executor


class TestProgramSerialisation:
    def test_roundtrip(self):
        program = prog(
            Call("socket", (2,)),
            Call("connect", (Res(0), 1)),
            Call("sendmsg", (Res(0), 0xDEAD)),
        )
        assert program_from_obj(program_to_obj(program)) == program

    def test_json_safe(self):
        import json

        program = prog(Call("open", (1,)), Call("write", (Res(0), 7)))
        assert json.loads(json.dumps(program_to_obj(program))) == program_to_obj(program)


class TestReproPackage:
    def _buggy_package(self):
        kernel, snapshot = boot_kernel()
        executor = Executor(kernel, snapshot)
        writer = prog(Call("mkdir", (2,)))
        reader = prog(Call("lookup", (2,)))
        children = kernel.globals["configfs_root"] + 8

        class ForceWindow:
            def __init__(self):
                self.switched = False

            def begin_trial(self, t):
                pass

            def end_trial(self, r):
                pass

            def on_access(self, access):
                if (
                    access.thread == 0
                    and not self.switched
                    and access.is_write
                    and access.addr == children
                    and access.value != 0
                ):
                    self.switched = True
                    return True
                return False

        result = executor.run_concurrent([writer, reader], scheduler=ForceWindow())
        assert result.panicked
        package = capture_package("SB11", writer, reader, result)
        return executor, package

    def test_capture_and_reproduce(self):
        executor, package = self._buggy_package()
        replayed = reproduce(executor, package)
        assert replayed.panicked
        assert replayed.panic_message == package.expected_panic

    def test_json_roundtrip(self):
        _, package = self._buggy_package()
        restored = ReproPackage.from_json(package.to_json())
        assert restored.bug_id == package.bug_id
        assert restored.writer == package.writer
        assert restored.switch_points == package.switch_points
        assert restored.expected_panic == package.expected_panic

    def test_reproduce_on_fresh_kernel(self):
        """A package replays on a *different* kernel instance — the
        deterministic-boot property makes packages portable."""
        _, package = self._buggy_package()
        kernel, snapshot = boot_kernel()
        replayed = reproduce(Executor(kernel, snapshot), package)
        assert replayed.panicked

    def test_divergent_package_raises(self):
        executor, package = self._buggy_package()
        broken = ReproPackage(
            bug_id=package.bug_id,
            writer=package.writer,
            reader=package.reader,
            switch_points=[],  # wrong schedule: bug will not fire
            expected_panic=package.expected_panic,
        )
        with pytest.raises(AssertionError):
            reproduce(executor, broken)

    def test_save_and_load(self, tmp_path):
        _, package = self._buggy_package()
        path = tmp_path / "sb11.json"
        package.save(str(path))
        restored = ReproPackage.load(str(path))
        assert restored.bug_id == "SB11"

    def test_interrupted_save_keeps_the_old_package(self, tmp_path, monkeypatch):
        """A save cut short mid-write, as when the service daemon is
        killed while it finalizes a job, leaves the package it was
        replacing loadable."""
        import builtins

        from repro import durable

        path = str(tmp_path / "SB11.json")
        writer, reader = prog(Call("mkdir", (2,))), prog(Call("lookup", (2,)))
        old = ReproPackage("SB11", writer, reader, switch_points=[3])
        old.save(path)

        class TornWrite:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise OSError("killed mid-write")

        def torn_open(*args, **kwargs):
            return TornWrite(builtins.open(*args, **kwargs))

        monkeypatch.setattr(durable, "open", torn_open, raising=False)
        new = ReproPackage("SB11", writer, reader, switch_points=[5, 9])
        with pytest.raises(OSError):
            new.save(path)
        monkeypatch.undo()
        assert ReproPackage.load(path) == old


@pytest.fixture(scope="module")
def race_package():
    """A reproduction package for a pure data-race bug (SB09): no panic,
    no console transcript — exactly the package shape that used to
    replay vacuously because no oracle ran during ``reproduce``."""
    from repro.detect.catalog import match_observations
    from repro.detect.datarace import RaceDetector
    from repro.detect.report import observe
    from repro.sched.random_sched import RandomScheduler

    kernel, snapshot = boot_kernel()
    executor = Executor(kernel, snapshot)
    writer = prog(Call("socket", (0,)), Call("ioctl", (Res(0), 4, 0xFFEEDDCCBBAA)))
    reader = prog(Call("socket", (0,)), Call("ioctl", (Res(0), 5, 0)))
    for seed in range(200):
        scheduler = RandomScheduler(seed=seed, switch_probability=0.5)
        scheduler.begin_trial(0)
        result = executor.run_concurrent(
            [writer, reader], scheduler=scheduler, race_detector=RaceDetector()
        )
        if result.panicked or result.console:
            continue
        if "SB09" in match_observations(observe(result)):
            return executor, capture_package("SB09", writer, reader, result)
    pytest.fail("no SB09 race surfaced to package")


class TestRacePackageReplay:
    def test_pure_race_package_has_no_transcript_expectations(self, race_package):
        _, package = race_package
        assert package.expected_panic == ""
        assert package.expected_console == []

    def test_replay_on_buggy_kernel_validates_the_race(self, race_package):
        from repro.detect.report import observe

        executor, package = race_package
        replayed = reproduce(executor, package)
        # The race detector ran during replay and re-observed the bug.
        assert any(obs.kind == "race" for obs in observe(replayed))

    def test_replay_on_fresh_buggy_kernel(self, race_package):
        _, package = race_package
        kernel, snapshot = boot_kernel()
        reproduce(Executor(kernel, snapshot), package)  # must not raise

    def test_replay_on_fixed_kernel_raises(self, race_package):
        """On the patched kernel the race is gone — replay must fail
        loudly instead of vacuously passing."""
        _, package = race_package
        kernel, snapshot = boot_kernel(fixed=True)
        with pytest.raises(AssertionError, match="SB09"):
            reproduce(Executor(kernel, snapshot), package)

    def test_uncatalogued_package_without_any_oracle_raises(self):
        """No expectations, no catalog match, no observation: the replay
        proves nothing and must say so."""
        kernel, snapshot = boot_kernel()
        executor = Executor(kernel, snapshot)
        benign = prog()  # touches nothing: replay observes nothing
        package = ReproPackage(
            bug_id="custom-unfiled",
            writer=benign,
            reader=benign,
            switch_points=[],
        )
        with pytest.raises(AssertionError, match="no oracle observation"):
            reproduce(executor, package)

    def test_verify_bug_id_opt_out(self):
        """verify_bug_id=False restores the transcript-only contract for
        callers replaying deliberately perturbed packages."""
        kernel, snapshot = boot_kernel()
        executor = Executor(kernel, snapshot)
        benign = prog()
        package = ReproPackage(
            bug_id="custom-unfiled",
            writer=benign,
            reader=benign,
            switch_points=[],
        )
        reproduce(executor, package, verify_bug_id=False)  # must not raise


class TestPipelineCapturesPackages:
    def test_campaign_produces_replayable_packages(self):
        config = SnowboardConfig(seed=7, corpus_budget=120, trials_per_pmc=10)
        snowboard = Snowboard(config).prepare()
        snowboard.run_campaign("S-INS-PAIR", test_budget=25)
        assert snowboard.repro_packages  # at least one bug was packaged
        for bug_id, package in snowboard.repro_packages.items():
            replayed = reproduce(snowboard.executor, package)
            # The replay reproduces the exact failure transcript.
            assert replayed.console == package.expected_console, bug_id
