"""tests/bench_pairs.py's summary arithmetic, on fixed numbers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_pairs  # noqa: E402


def _run(pair, side, p50, ops, attempted=10, failed=0):
    metrics = {"op_s.p50": {"value": p50, "unit": "s"}, "ops_per_s": {"value": ops, "unit": "1/s"}}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"workload": "w", "pair": pair, "side": side, "trace": 0, "result": result}


def test_summary_quartiles_wins_and_median_change():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.5, 2.0, 3.0]
    runs = [_run(i + 1, "parent", p, 1 / p) for i, p in enumerate(parent)]
    runs += [_run(i + 1, "change", c, 1 / c, failed=int(i == 3)) for i, c in enumerate(change)]
    better = {"op_s.p50": "lower", "ops_per_s": "higher"}
    summary = bench_pairs.summarize(runs, better, {"op_s.p50": 0.25})["w"]
    assert summary["pairs"] == 4
    assert summary["attempted"] == {"parent": 40, "change": 40}
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["correct"] == {"parent": True, "change": False}
    p50 = summary["metrics"]["op_s.p50"]
    # numpy's linear percentiles: 1, 2, 3, 4 -> 1.75, 2.5, 3.25 and 0.5, 2, 2.5, 3 -> 1.625, 2.25, 2.625
    assert p50 == {
        "unit": "s",
        "parent_q1_median_q3": [1.75, 2.5, 3.25],
        "change_q1_median_q3": [1.625, 2.25, 2.625],
        "change_better_pairs": "3/4",  # lower in pairs 1, 3 and 4
        "median_change_rel": -0.1,
        "gain_resolved": False,  # 3/4 pairs, and 0.25 is inside the parent's IQR of 1.5
        "within_bound": True,
    }
    ops = summary["metrics"]["ops_per_s"]
    # higher is better: the same three pairs win; medians 0.41667 -> 0.45 (+8%)
    assert ops["change_better_pairs"] == "3/4"
    assert ops["median_change_rel"] == 0.08
    assert ops["within_bound"] is None  # no bound given: a per-layer metric


PARENT_TEN = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]  # median 2.45, q1 2.225, q3 2.675


def _verdicts(change, better="lower", bound=0.25):
    runs = [_run(i + 1, "parent", p, 1.0) for i, p in enumerate(PARENT_TEN)]
    runs += [_run(i + 1, "change", c, 1.0) for i, c in enumerate(change)]
    p50 = bench_pairs.summarize(runs, {"op_s.p50": better}, {"op_s.p50": bound})["w"]["metrics"]["op_s.p50"]
    return p50["change_better_pairs"], p50["gain_resolved"], p50["within_bound"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_median_beyond_the_parent_iqr():
    # 1.0 lower in nine pairs and a tie in the tenth: median 2.45 -> 1.45, beyond the 0.45 IQR
    assert _verdicts([p - 1.0 for p in PARENT_TEN[:9]] + [2.9]) == ("9/10", True, True)
    # 1.0 lower in eight pairs and higher in two: 8/10 wins
    assert _verdicts([p - 1.0 for p in PARENT_TEN[:8]] + [3.0, 3.0]) == ("8/10", False, True)
    # lower in every pair, but the median moves 0.3, inside the IQR
    assert _verdicts([p - 0.3 for p in PARENT_TEN]) == ("10/10", False, True)
    # the same move counts against the change where higher is better
    assert _verdicts([p - 1.0 for p in PARENT_TEN], better="higher") == ("0/10", False, False)


def test_within_bound_is_the_median_no_worse_than_bound_times_the_parent_median():
    # 25% of 2.45 is 0.6125: a median worse by 0.6 is within, by 0.625 is not
    assert _verdicts([p + 0.6 for p in PARENT_TEN])[2] is True
    assert _verdicts([p + 0.625 for p in PARENT_TEN])[2] is False
    assert _verdicts([p + 0.1 for p in PARENT_TEN], bound=0.01)[2] is False


def test_a_run_without_a_result_counts_as_not_correct():
    runs = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 1.0, 1.0), _run(2, "parent", 1.0, 1.0)]
    runs.append({"workload": "w", "pair": 2, "side": "change", "trace": 0, "result": None})
    summary = bench_pairs.summarize(runs, {}, {})["w"]
    assert summary["pairs"] == 2 and summary["correct"] == {"parent": True, "change": False}
    assert summary["metrics"]["op_s.p50"]["change_better_pairs"] == "0/1"


def test_machine_record_adds_the_transparent_huge_page_mode(tmp_path):
    detail = {"detail": {"environment": {"nproc": 2}}}
    thp = tmp_path / "enabled"
    thp.write_text("always [madvise] never\n")
    assert bench_pairs.machine(detail, thp) == {"nproc": 2, "transparent_hugepage": "madvise"}
    assert bench_pairs.machine(detail, tmp_path / "absent") == {"nproc": 2, "transparent_hugepage": None}
