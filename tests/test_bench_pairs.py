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
    summary = bench_pairs.summarize(runs, better)["w"]
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
    }
    ops = summary["metrics"]["ops_per_s"]
    # higher is better: the same three pairs win; medians 0.41667 -> 0.45 (+8%)
    assert ops["change_better_pairs"] == "3/4"
    assert ops["median_change_rel"] == 0.08


def test_a_run_without_a_result_counts_as_not_correct():
    runs = [_run(1, "parent", 1.0, 1.0), _run(1, "change", 1.0, 1.0), _run(2, "parent", 1.0, 1.0)]
    runs.append({"workload": "w", "pair": 2, "side": "change", "trace": 0, "result": None})
    summary = bench_pairs.summarize(runs, {})["w"]
    assert summary["pairs"] == 2 and summary["correct"] == {"parent": True, "change": False}
    assert summary["metrics"]["op_s.p50"]["change_better_pairs"] == "0/1"


def test_machine_record_adds_the_transparent_huge_page_mode(tmp_path):
    detail = {"detail": {"environment": {"nproc": 2}}}
    thp = tmp_path / "enabled"
    thp.write_text("always [madvise] never\n")
    assert bench_pairs.machine(detail, thp) == {"nproc": 2, "transparent_hugepage": "madvise"}
    assert bench_pairs.machine(detail, tmp_path / "absent") == {"nproc": 2, "transparent_hugepage": None}
