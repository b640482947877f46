"""The judging rule of the paired benchmark compare (``scripts/perf_compare.py``).

``judge`` and ``verdicts`` are pure functions over base/head samples, so
these tests feed them synthetic runs; nothing here runs the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

PERF_COMPARE_PY = Path(__file__).resolve().parents[1] / "scripts" / "perf_compare.py"


def _load_perf_compare():
    spec = importlib.util.spec_from_file_location("perf_compare", PERF_COMPARE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_compare = _load_perf_compare()

LOWER = {"name": "setup_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "exec_per_min", "better": "higher", "bound": 0.25}


def status(metric, base, head):
    return perf_compare.judge(metric, base, head)["status"]


def mirrored(values):
    """The same samples on a higher-is-better scale: 200 - v."""
    return [200 - v for v in values]


class TestJudge:
    def test_worse_beyond_bound_and_iqr_fails(self):
        assert status(LOWER, [100, 100, 101, 99, 100], [130, 131, 129, 130, 130]) == "FAIL"

    def test_worse_within_bound_is_ok(self):
        assert status(LOWER, [100, 100, 101, 99, 100], [120, 121, 119, 120, 120]) == "ok"

    def test_better_by_any_amount_is_ok(self):
        assert status(LOWER, [100, 100, 101, 99, 100], [10, 11, 9, 10, 10]) == "ok"

    def test_base_iqr_wider_than_bound_is_unresolved(self):
        # Base IQR [80, 120] is 40, wider than the 25 the bound allows:
        # a 30-point gap clears the bound but not the spread.
        base = [50, 80, 100, 120, 150]
        assert status(LOWER, base, [130] * 5) == "unresolved"
        assert status(LOWER, base, [110, 115, 120, 125, 130]) == "unresolved"

    def test_wide_base_is_ok_when_every_head_run_beats_every_base_run(self):
        assert status(LOWER, [50, 80, 100, 120, 150], [10, 20, 30, 40, 45]) == "ok"

    def test_wide_base_still_fails_beyond_both_bound_and_iqr(self):
        assert status(LOWER, [50, 80, 100, 120, 150], [200] * 5) == "FAIL"

    @pytest.mark.parametrize(
        "base, head",
        [
            ([100, 100, 101, 99, 100], [130, 131, 129, 130, 130]),
            ([100, 100, 101, 99, 100], [120, 121, 119, 120, 120]),
            ([50, 80, 100, 120, 150], [130] * 5),
            ([50, 80, 100, 120, 150], [10, 20, 30, 40, 45]),
        ],
    )
    def test_higher_is_better_mirrors_lower_is_better(self, base, head):
        # 200 - v turns a lower-is-better slowdown into a higher-is-better
        # one of the same size around a base median of 100.
        assert status(HIGHER, mirrored(base), mirrored(head)) == status(LOWER, base, head)

    def test_one_pair_has_zero_iqr_and_is_judged_by_the_bound(self):
        assert status(LOWER, [100], [130]) == "FAIL"
        assert status(LOWER, [100], [120]) == "ok"
        assert status(HIGHER, [100], [70]) == "FAIL"
        assert status(HIGHER, [100], [80]) == "ok"

    def test_row_carries_medians_quartiles_and_change(self):
        row = perf_compare.judge(LOWER, [1.0, 2.0, 3.0], [3.0, 3.0, 3.0])
        assert row["base"] == [2.0, 1.5, 2.5]
        assert row["head"] == [3.0, 3.0, 3.0]
        assert row["change"] == pytest.approx(0.5)


SPEC = {"workloads": [{"name": "batch"}], "end_to_end": [LOWER, HIGHER]}


def run(side, setup_s=1.0, exec_per_min=100.0, correct=True, attempted=10, failed=0):
    return {
        "workload": "batch", "side": side, "correct": correct,
        "attempted": attempted, "failed": failed,
        "metrics": {"setup_s": setup_s, "exec_per_min": exec_per_min},
    }


def by_metric(rows):
    return {row["metric"]: row["status"] for row in rows}


class TestVerdicts:
    def test_equal_sides_are_all_ok(self):
        rows = perf_compare.verdicts(SPEC, [run("base"), run("head")] * 3)
        assert by_metric(rows) == {
            "setup_s": "ok", "exec_per_min": "ok", "incorrect_runs": "ok", "failed_share": "ok",
        }

    def test_an_incorrect_head_run_fails(self):
        runs = [run("base"), run("head")] * 2 + [run("base"), run("head", correct=False)]
        assert by_metric(perf_compare.verdicts(SPEC, runs))["incorrect_runs"] == "FAIL"

    def test_an_incorrect_base_run_alone_does_not_fail(self):
        runs = [run("base", correct=False), run("head")]
        assert by_metric(perf_compare.verdicts(SPEC, runs))["incorrect_runs"] == "ok"

    def test_a_larger_failed_share_fails(self):
        runs = [run("base", failed=1), run("head", failed=2)]
        assert by_metric(perf_compare.verdicts(SPEC, runs))["failed_share"] == "FAIL"

    def test_an_equal_failed_share_is_ok(self):
        runs = [run("base", failed=1), run("head", failed=2, attempted=20)]
        assert by_metric(perf_compare.verdicts(SPEC, runs))["failed_share"] == "ok"

    def test_a_run_without_metrics_is_left_out_of_the_medians(self):
        crashed = {**run("head", correct=False), "metrics": {}}
        runs = [run("base"), run("head"), run("base"), crashed]
        statuses = by_metric(perf_compare.verdicts(SPEC, runs))
        assert statuses["setup_s"] == "ok" and statuses["exec_per_min"] == "ok"
        assert statuses["incorrect_runs"] == "FAIL"

    def test_a_slower_head_names_the_metric(self):
        runs = [run("base"), run("head", setup_s=2.0, exec_per_min=50.0)] * 3
        statuses = by_metric(perf_compare.verdicts(SPEC, runs))
        assert statuses["setup_s"] == "FAIL" and statuses["exec_per_min"] == "FAIL"
