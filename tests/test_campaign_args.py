"""A campaign argument no engine accepts is rejected up front.

``run_campaign`` and ``run_rounds`` check the strategy, scheduler kind
and fleet kind before they open a journal or start a fleet, so a
rejected call raises ``ValueError`` and leaves an existing journal
byte-identical, serial or not.
"""

from __future__ import annotations

import pytest

from repro.orchestrate.pipeline import Snowboard, SnowboardConfig

BAD_ARGS = [
    pytest.param(dict(fleet="bogus", workers=2), id="fleet"),
    pytest.param(dict(scheduler_kind="bogus"), id="scheduler"),
    pytest.param(dict(scheduler_kind="bogus", workers=2), id="scheduler-fleet"),
    pytest.param(dict(strategy="S-NOPE"), id="strategy"),
]


@pytest.fixture(scope="module")
def snowboard():
    config = SnowboardConfig(seed=7, corpus_budget=60, trials_per_pmc=2)
    return Snowboard(config).prepare()


@pytest.fixture(scope="module")
def journals(snowboard, tmp_path_factory):
    """The bytes of a finished batch journal and a finished rounds one."""
    root = tmp_path_factory.mktemp("journals")
    batch, rounds = root / "batch.jsonl", root / "rounds.jsonl"
    snowboard.run_campaign(test_budget=2, checkpoint_path=str(batch))
    snowboard.run_rounds(1, 2, checkpoint_path=str(rounds))
    return {"batch": batch.read_bytes(), "rounds": rounds.read_bytes()}


@pytest.fixture()
def no_fleet(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rejected campaign started a fleet")

    monkeypatch.setattr(Snowboard, "_run_transport_fleet", refuse)


@pytest.mark.parametrize("bad", BAD_ARGS)
def test_run_campaign_rejects_before_the_journal(
    snowboard, journals, tmp_path, no_fleet, bad
):
    path = tmp_path / "batch.jsonl"
    path.write_bytes(journals["batch"])
    with pytest.raises(ValueError, match="unknown"):
        snowboard.run_campaign(test_budget=2, checkpoint_path=str(path), **bad)
    assert path.read_bytes() == journals["batch"]


@pytest.mark.parametrize("bad", BAD_ARGS)
def test_run_rounds_rejects_before_the_journal(
    snowboard, journals, tmp_path, no_fleet, bad
):
    path = tmp_path / "rounds.jsonl"
    path.write_bytes(journals["rounds"])
    with pytest.raises(ValueError, match="unknown"):
        snowboard.run_rounds(2, 3, checkpoint_path=str(path), **bad)
    assert path.read_bytes() == journals["rounds"]


def test_fleet_campaign_with_a_bad_scheduler_raises_like_serial(snowboard, no_fleet):
    with pytest.raises(ValueError, match="unknown scheduler kind"):
        snowboard.run_campaign(test_budget=3, scheduler_kind="bogus", workers=2)
