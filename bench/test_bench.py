"""Tests of the benchmark itself: span arithmetic, the tail rule, and that
every output check fails on a corrupted output.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stagecal import calibration, cli, geometry  # noqa: E402


def _span(sid, parent, name, start, end, **extra):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "op": 0, **extra}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    trace = [
        _span("a", None, "bench.op", 0.0, 10.0),
        _span("b", "a", "geometry.compute_beta", 1.0, 3.0),
        _span("c", "a", "imaging.read_pfm", 2.0, 4.0),  # overlaps b
        _span("d", "a", "imaging.read_pfm", 8.0, 12.0),  # runs past the parent
        _span("e", "b", "geometry.build_panel_env", 1.5, 2.5),
    ]
    selfs = spans.self_times(trace)
    assert selfs["a"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert selfs["b"] == pytest.approx(1.0)
    assert selfs["e"] == pytest.approx(1.0)
    assert selfs["d"] == pytest.approx(4.0)


def test_layer_shares_and_unique_ratio_from_one_op():
    trace = [
        _span("a", None, "bench.op", 0.0, 0.010),
        _span("b", "a", "geometry.compute_beta", 0.0, 0.004, key="k"),
        _span("c", "a", "geometry.compute_beta", 0.004, 0.008, key="k"),
        _span("d", "b", "geometry.build_panel_env", 0.001, 0.003, bytes=100),
    ]
    m = spans.layer_metrics(spans.op_profile(trace))
    assert m["geometry.self_ms"] == pytest.approx(8.0)
    assert m["geometry.share"] == pytest.approx(0.8)
    assert m["bench.share"] == pytest.approx(0.2)
    assert m["geometry.compute_beta.calls"] == 2
    assert m["geometry.compute_beta.unique_ratio"] == 0.5
    assert m["geometry.compute_beta.ms"] == pytest.approx(8.0)
    assert m["geometry.build_panel_env.bytes"] == 100


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert run.tail(range(1, 101)) == (90, 90.0)
    value, pct = run.tail(range(15))
    assert (value, pct) == (4, pytest.approx(100 * 5 / 15))
    assert sum(1 for x in range(15) if x > value) == 10
    assert run.tail([3, 1, 2]) == (1, 0.0)


def test_wrappers_record_nested_spans_and_are_restored():
    original = geometry.build_panel_env
    tracer = spans.Tracer()
    wraps = [w for w in spans.WRAPS if w.attr in ("compute_beta", "build_panel_env")]
    with tracer.installed(wraps):
        assert geometry.build_panel_env is not original
        beta = cli.compute_beta(0.6, 64)
    assert geometry.build_panel_env is original
    assert beta == geometry.compute_beta(0.6, 64)
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["geometry.build_panel_env"]["parent"] == by_name["geometry.compute_beta"]["id"]
    assert by_name["geometry.build_panel_env"]["bytes"] == 64 * 128 * 3 * 8


def test_wrapper_counts_an_escaping_exception():
    tracer = spans.Tracer()
    wraps = [w for w in spans.WRAPS if w.module == "stagecal.cli" and w.attr == "compute_beta"]
    with tracer.installed(wraps), pytest.raises(ValueError):
        cli.compute_beta(-1.0, 64)
    assert spans.layer_metrics(spans.op_profile(tracer.spans))["geometry.errors"] == 1


@pytest.fixture(scope="module")
def solved_fixture(tmp_path_factory):
    fixture = tmp_path_factory.mktemp("bench") / "broad"
    assert cli.main(["oracle", "--seed", "5", "--scenario", "broad", "--outdir", str(fixture)]) == 0
    assert cli.main(["solve", "--config", str(fixture / "config.json")]) == 0
    return fixture


def test_fixture_checks_pass_on_true_outputs(solved_fixture):
    assert checks.fixture_op(solved_fixture, "broad", 0, 0) == []


def test_fixture_checks_fail_on_a_wrong_exit_code(solved_fixture):
    assert checks.fixture_op(solved_fixture, "broad", 0, 1)
    assert checks.fixture_op(solved_fixture, "monochromatic", 0, 0)
    assert checks.fixture_op(solved_fixture, "broad", 2, 0)


def test_fixture_checks_fail_on_a_wrong_matrix(solved_fixture, tmp_path):
    copy = tmp_path / "fixture"
    subprocess.run(["cp", "-r", str(solved_fixture), str(copy)], check=True)
    bundle = json.loads((copy / "out" / "bundle.json").read_text())
    bundle["M"][0][0] *= 1 + 1e-6
    (copy / "out" / "bundle.json").write_text(json.dumps(bundle))
    problems = checks.fixture_op(copy, "broad", 0, 0)
    assert any("SL M" in p for p in problems)
    assert any("brute_force_q" in p for p in problems)


def test_recurrence_check_fails_on_a_flipped_byte(solved_fixture, tmp_path):
    target = tmp_path / "bundle.json"
    data = bytearray((solved_fixture / "out" / "bundle.json").read_bytes())
    target.write_bytes(data)
    store = {}
    assert checks.recurring_bytes(store, ("s", "broad"), [target]) == []
    data[len(data) // 2] ^= 0x01
    target.write_bytes(data)
    assert checks.recurring_bytes(store, ("s", "broad"), [target])


def test_content_checks_fail_on_a_perturbed_pixel():
    rng = np.random.default_rng(0)
    frame = rng.random((16, 24, 3)) * 1.5
    bundle = calibration.CalibrationBundle(
        m=np.eye(3) + 0.1, q=np.eye(3) * 1.1, n=np.eye(3) * 1.2, beta=0.3,
        black_offset=np.array([0.01, 0.02, 0.03]),
    )
    sample = np.arange(frame.shape[0] * frame.shape[1])
    for mode in calibration.MODES:
        out = calibration.transform_content(frame, mode, bundle)
        assert checks.content_sample(mode, frame, out, bundle, sample) == []
        out.reshape(-1, 3)[7, 1] += 1e-9
        assert checks.content_sample(mode, frame, out, bundle, sample)
    counter = calibration.GamutCounter()
    calibration.transform_content(frame, "in_frustum", bundle, counter)
    assert 0 < counter.out_of_gamut < counter.total
    assert checks.gamut_count(counter, counter.out_of_gamut, counter.total) == []
    assert checks.gamut_count(counter, counter.out_of_gamut + 1, counter.total)


def test_capture_checks_fail_on_changed_outputs(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    noiseless = {"r": 0.04, "g": 0.03, "b": 0.02}
    report = {"errors": {"lit_m_q": {"r": 0.041, "g": 0.03, "b": 0.02}}}
    (out / "report.json").write_text(json.dumps(report))
    store = {}
    assert checks.capture_op(0, out, store, noiseless) == []
    assert checks.capture_op(0, out, store, noiseless) == []
    assert checks.capture_op(1, out, store, noiseless)
    report["errors"]["lit_m_q"]["g"] = 0.03 + 2 * checks.LIT_M_Q_TOL
    (out / "report.json").write_text(json.dumps(report))
    problems = checks.capture_op(0, out, store, noiseless)
    assert any("differs" in p for p in problems) and any("lit_m_q" in p for p in problems)


def test_benchmark_json_names_every_metric_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = spans.layer_metrics(spans.op_profile([_span("a", None, "bench.op", 0.0, 1.0)]))
    names = set(layer) | {"trace.overhead_ms", "trace.overhead_frac", "fail_frac"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in names
    }
    assert set(run.END_TO_END) & names == set()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_a_correct_result(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fixture-solve", "--seed", "3",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == expected
