import argparse
import ast
import contextlib
import errno
import importlib.util
import inspect
import io
import json
import mmap
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagecal
from stagecal.calibration import CalibrationBundle, chart_error, predict_lit_chart
from stagecal.cli import SETTINGS, _build_parser, load_config, main, run_oracle, run_solve
from stagecal.imaging import (
    ChartSamples,
    LinearImage,
    chart_image,
    extract_chart,
    read_chart_csv,
    read_pfm,
    write_pfm,
)
from stagecal.geometry import compute_beta
from stagecal.spectral import brute_force_q, make_scene, oracle_calibration
from test_geometry import linear_env_data

SCENARIO_SEEDS = {"broad": 3, "identity": 0, "monochromatic": 0, "rgb-led": 0}


@pytest.fixture(scope="session")
def fixtures(tmp_path_factory):
    """One generated fixture directory per scenario, solved once."""
    root = tmp_path_factory.mktemp("fixtures")
    out = {}
    for scenario, seed in SCENARIO_SEEDS.items():
        fixture_dir = run_oracle(seed, scenario, root / scenario)
        config = load_config(fixture_dir / "config.json")
        # the monochromatic oracle's bounce light exceeds the black-level flag
        flagged = scenario == "monochromatic"
        with pytest.warns(UserWarning, match="black level") if flagged else contextlib.nullcontext():
            bundle, report, code = run_solve(config)
        out[scenario] = {
            "dir": fixture_dir,
            "config": config,
            "bundle": bundle,
            "report": report,
            "code": code,
        }
    return out


def rebuild_srl(config):
    from stagecal.calibration import build_srl

    charts = []
    for channel in ("red", "green", "blue"):
        path, grid = config.channel_charts[channel]
        charts.append(extract_chart(LinearImage(read_pfm(path)), grid))
    return build_srl(*charts)


class TestSolve:
    def test_broad_exit_code_and_files(self, fixtures):
        fx = fixtures["broad"]
        assert fx["code"] == 0
        out = fx["config"].output_dir
        for name in (
            "bundle.json",
            "report.json",
            "targets.csv",
            "lit_m_only.csv",
            "lit_m_q.csv",
            "displayed_no_black_level.csv",
            "displayed_with_black_level.csv",
            "comparison_lit_m_q.png",
        ):
            assert (out / name).is_file()

    def test_bundle_q_matches_brute_force(self, fixtures):
        fx = fixtures["broad"]
        srl = rebuild_srl(fx["config"])
        bundle = fx["bundle"]
        targets = read_chart_csv(fx["config"].targets)
        predicted = predict_lit_chart(srl, bundle.m, targets.white(fx["config"].white_index) / 0.9, bundle.beta)
        qb = brute_force_q(predicted, targets.patches)
        assert np.linalg.norm(bundle.q - qb) / np.linalg.norm(qb) < 1e-9

    def test_report_improvement(self, fixtures):
        errors = fixtures["broad"]["report"]["errors"]
        for c in "rgb":
            assert errors["lit_m_q"][c] <= errors["lit_m_only"][c]
        assert any(errors["lit_m_q"][c] < errors["lit_m_only"][c] for c in "rgb")

    def test_black_level_improves_displayed(self, fixtures):
        errors = fixtures["broad"]["report"]["errors"]
        with_bl = sum(errors["displayed_with_black_level"].values())
        without = sum(errors["displayed_no_black_level"].values())
        assert with_bl < without

    def test_identity_scene_near_perfect(self, fixtures):
        errors = fixtures["identity"]["report"]["errors"]["lit_m_q"]
        assert all(err < 1e-6 for err in errors.values())
        # flat-chart spread is capture noise only; the anchored solve must
        # leave Q at the identity rather than fit the noise directions
        assert np.abs(fixtures["identity"]["bundle"].q - np.eye(3)).max() < 1e-6

    def test_monochromatic_soft_failure(self, fixtures):
        fx = fixtures["monochromatic"]
        assert fx["code"] == 1
        assert fx["bundle"].n is None
        assert fx["report"]["diagnostics"]["n_available"] is False
        assert fx["report"]["diagnostics"]["cond_Q"] > 1e4
        # outputs still written despite the soft failure
        assert (fx["config"].output_dir / "bundle.json").is_file()
        doc = json.loads((fx["config"].output_dir / "bundle.json").read_text())
        assert doc["N"] is None

    def test_rgb_led_q_near_identity(self, fixtures):
        q = fixtures["rgb-led"]["bundle"].q
        assert np.abs(q - np.eye(3)).max() < 0.05

    def test_report_errors_reproducible_from_csvs(self, fixtures):
        fx = fixtures["broad"]
        out = fx["config"].output_dir
        targets = read_chart_csv(out / "targets.csv")
        for variant, expect in fx["report"]["errors"].items():
            measured = read_chart_csv(out / f"{variant}.csv")
            err = chart_error(targets, measured, 18)
            assert np.array_equal(err, np.array([expect["r"], expect["g"], expect["b"]]))


class TestDeterminism:
    def test_oracle_byte_identical(self, tmp_path):
        a = run_oracle(11, "broad", tmp_path / "a")
        b = run_oracle(11, "broad", tmp_path / "b")
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_solve_byte_identical(self, fixtures, tmp_path):
        fx = fixtures["broad"]
        code1 = main(
            ["solve", "--config", str(fx["dir"] / "config.json"), "--output-dir", str(tmp_path / "r1")]
        )
        code2 = main(
            ["solve", "--config", str(fx["dir"] / "config.json"), "--output-dir", str(tmp_path / "r2")]
        )
        assert code1 == code2 == 0
        for name in ("bundle.json", "report.json", "lit_m_q.csv", "comparison_lit_m_q.png"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestExposure:
    """Scaling every capture by a power of two changes only M and N, by its inverse."""

    @pytest.mark.parametrize("scenario", ["broad", "rgb-led", "monochromatic"])
    @pytest.mark.parametrize("k", [-3, 4])
    def test_power_of_two_exposure_scales_m_and_n_only(self, fixtures, tmp_path, scenario, k):
        fx = fixtures[scenario]
        fixture_dir = shutil.copytree(fx["dir"], tmp_path / "fixture")
        for name in ("primaries", "chart_red", "chart_green", "chart_blue", "black"):
            path = fixture_dir / f"{name}.pfm"
            write_pfm(path, read_pfm(path) * np.float32(2.0**k))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(fixture_dir / "config.json"), "--output-dir", str(out)]) == fx["code"]
        base = fx["config"].output_dir
        want, got = (json.loads((d / "bundle.json").read_text()) for d in (base, out))
        assert np.array_equal(np.array(got["M"]), np.array(want["M"]) * 2.0**-k)
        if want["N"] is None:
            assert got["N"] is None
        else:
            assert np.array_equal(np.array(got["N"]), np.array(want["N"]) * 2.0**-k)
        for key in ("Q", "beta", "black_offset"):
            assert got[key] == want[key], key
        # the displayed_* charts are not equivariant: the panel clamp is in absolute units
        for name in ("lit_m_only.csv", "lit_m_q.csv"):
            assert (out / name).read_bytes() == (base / name).read_bytes(), name


class TestSimulate:
    def test_matches_solve_prediction_bit_exactly(self, fixtures, tmp_path):
        fx = fixtures["broad"]
        bundle_path = fx["config"].output_dir / "bundle.json"
        code = main(
            [
                "simulate",
                "--config", str(fx["dir"] / "config.json"),
                "--bundle", str(bundle_path),
                "--variant", "m-q",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        simulated = (tmp_path / "simulated_lit_m_q.csv").read_bytes()
        solved = (fx["config"].output_dir / "lit_m_q.csv").read_bytes()
        assert simulated == solved

    def test_identity_q_makes_variants_agree(self, fixtures, tmp_path):
        fx = fixtures["broad"]
        bundle = fx["bundle"]
        tweaked = CalibrationBundle(
            m=bundle.m, q=np.eye(3), n=bundle.n, beta=bundle.beta, black_offset=bundle.black_offset
        )
        bundle_path = tmp_path / "identity_q.json"
        bundle_path.write_text(tweaked.to_json())
        for variant in ("m-only", "m-q"):
            assert (
                main(
                    [
                        "simulate",
                        "--config", str(fx["dir"] / "config.json"),
                        "--bundle", str(bundle_path),
                        "--variant", variant,
                        "--output-dir", str(tmp_path / variant),
                    ]
                )
                == 0
            )
        a = (tmp_path / "m-only" / "simulated_lit_m_only.csv").read_text()
        b = (tmp_path / "m-q" / "simulated_lit_m_q.csv").read_text()
        assert a.splitlines()[1:] == b.splitlines()[1:]

    def test_tampered_beta_rejected(self, fixtures, tmp_path):
        fx = fixtures["broad"]
        doc = json.loads((fx["config"].output_dir / "bundle.json").read_text())
        doc["beta"] = 0.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(
            [
                "simulate",
                "--config", str(fx["dir"] / "config.json"),
                "--bundle", str(bad),
            ]
        )
        assert code == 2


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_relative_output_dir_flag_is_relative_to_the_current_directory(fixtures, tmp_path, monkeypatch, capsys,
                                                                       command):
    # a relative output_dir in the config resolves against the config's directory; the flag does not
    fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
    argv = [command, "--config", str(fixture_dir / "config.json"), "--output-dir", "results"]
    if command == "simulate":
        argv += ["--bundle", str(fixtures["broad"]["config"].output_dir / "bundle.json")]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    written = "bundle.json" if command == "solve" else "simulated_lit_m_q.csv"
    assert (tmp_path / "results" / written).is_file()
    assert not (fixture_dir / "results").exists()
    assert capsys.readouterr().out.startswith("wrote results")


class TestErrorsAndUtilities:
    def test_missing_input_exit_2(self, fixtures, tmp_path, capsys):
        # a missing file is an input error: exit 2, and no "stage" prefix
        for path, where in (
            (["primaries", "image"], "primaries"),
            (["channel_charts", "green", "image"], "channel_charts.green"),
            (["targets", "csv"], "targets"),
            (["black_level", "image"], "black_level"),
        ):
            fixture_dir = _copy_fixture_with(fixtures["broad"], tmp_path / where, path, "nope.pfm")
            assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 2
            assert _one_error_line(capsys) == f"error: {where}: input file not found: {fixture_dir / 'nope.pfm'}"

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("what", ["missing", "device"])
    @pytest.mark.parametrize("command", ["solve", "simulate", "chart-error --target", "chart-error --measured"])
    def test_path_that_is_not_a_file_exits_2_at_once(self, fixtures, tmp_path, capsys, command, what):
        # a device is no file: reading /dev/zero would never end, so it is rejected unread
        bad = str(tmp_path / "none") if what == "missing" else "/dev/zero"
        config = str(fixtures["broad"]["dir"] / "config.json")
        targets = str(fixtures["broad"]["dir"] / "targets.csv")
        argv = {
            "solve": ["solve", "--config", bad],
            "simulate": ["simulate", "--config", config, "--bundle", bad],
            "chart-error --target": ["chart-error", "--target", bad, "--measured", targets],
            "chart-error --measured": ["chart-error", "--target", targets, "--measured", bad],
        }[command]
        assert main(argv) == 2
        flag = {"solve": "--config", "simulate": "--bundle"}.get(command, command.split()[-1])
        assert _one_error_line(capsys) == f"error: {flag}: input file not found: {bad}"

    def test_module_entry_point_runs_a_command(self):
        env = {**os.environ, "PYTHONPATH": str(Path(stagecal.__file__).parents[1])}
        argv = [sys.executable, "-m", "stagecal.cli", "beta", "--resolution", "64"]
        result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert 0.30 < float(result.stdout) < 0.32

    def test_raised_q_condition_limit_gives_a_full_solve(self, fixtures, tmp_path, capsys):
        # raising the Q condition limit turns the monochromatic soft failure
        # into a (numerically dubious but permitted) full solve
        fixture_dir = _copy_fixture(fixtures["monochromatic"], tmp_path, cond_limit_q=1e30)
        code = main(["solve", "--config", str(fixture_dir / "config.json"),
                     "--output-dir", str(tmp_path / "forced")])
        assert code == 0
        # the oracle's bounce light exceeds the black-level flag: one line, no raw warning
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("warning: black level [") and line.endswith("exceeds 0.2; check the capture")
        doc = json.loads((tmp_path / "forced" / "bundle.json").read_text())
        assert doc["N"] is not None

    def test_beta_command(self, capsys):
        assert main(["beta", "--half-extent", "0.6", "--resolution", "256"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert 0.30 < value < 0.32

    def test_chart_error_command(self, fixtures, capsys):
        out = fixtures["broad"]["config"].output_dir
        code = main(
            [
                "chart-error",
                "--target", str(out / "targets.csv"),
                "--measured", str(out / "lit_m_q.csv"),
            ]
        )
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)
        expect = fixtures["broad"]["report"]["errors"]["lit_m_q"]
        assert metrics == expect

    def test_oracle_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["oracle", "--seed", "1", "--scenario", "nope", "--outdir", "/tmp/x"])

    def test_gamut_fraction_recorded(self, fixtures):
        diag = fixtures["broad"]["report"]["diagnostics"]
        assert 0.0 <= diag["out_of_gamut_fraction"] <= 1.0
        assert diag["negative_clamped_components"] >= 0
        assert diag["cond_SL"] >= 1.0 and diag["residual"] >= 0.0

    def test_report_records_both_panel_geometries(self, fixtures):
        beta_block = fixtures["broad"]["report"]["beta"]
        assert beta_block["half_extent"] == 0.6
        assert abs(beta_block["value"] - beta_block["analytic_form_factor"]) < 1e-3
        assert beta_block["exact_1m_panel_half_extent"] == 0.5
        assert abs(beta_block["exact_1m_panel_form_factor"] - 0.2394564704607735) < 1e-12


def _copy_fixture(fx, tmp_path, **changes):
    """A private copy of a fixture directory with top-level config keys replaced."""
    fixture_dir = shutil.copytree(fx["dir"], tmp_path / "fixture")
    doc = json.loads((fixture_dir / "config.json").read_text())
    doc.update(changes)
    (fixture_dir / "config.json").write_text(json.dumps(doc))
    return fixture_dir


def _copy_fixture_with(fx, tmp_path, path, value):
    """A private copy of a fixture directory with the config key at `path` (a key list) set."""
    doc = json.loads((fx["dir"] / "config.json").read_text())
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    return _copy_fixture(fx, tmp_path, **{path[0]: doc[path[0]]})


def _bad_targets_csv(fx, tmp_path):
    """The fixture's targets with the last row's patch index out of range."""
    lines = (fx["dir"] / "targets.csv").read_text().splitlines()
    lines[-1] = "24," + lines[-1].split(",", 1)[1]
    path = tmp_path / "bad_targets.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _strict_json(text: str):
    """Parse text as JSON that holds no NaN, Infinity or -Infinity."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestErrorPaths:
    def test_beta_above_one_fails_its_stage(self, fixtures, tmp_path, capsys):
        # a 1e6 half extent integrates to beta = 1 + 4e-7, which compute_beta rejects
        out = tmp_path / "out"
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, half_extent=1e6)
        argv = ["solve", "--config", str(fixture_dir / "config.json"), "--output-dir", str(out)]
        assert main(argv) == 1
        assert _one_error_line(capsys).startswith("error: stage beta: beta must be in (0, 1]")
        assert not out.exists()

    def test_simulate_malformed_targets_csv(self, fixtures, tmp_path, capsys):
        fx = fixtures["broad"]
        fixture_dir = _copy_fixture(fx, tmp_path, targets={"csv": str(_bad_targets_csv(fx, tmp_path))})
        argv = ["simulate", "--config", str(fixture_dir / "config.json"),
                "--bundle", str(fx["config"].output_dir / "bundle.json"),
                "--output-dir", str(tmp_path / "sim")]
        assert main(argv) == 1
        assert "stage targets:" in _one_error_line(capsys)

    @pytest.mark.parametrize("flag", ["--target", "--measured"])
    def test_chart_error_malformed_csv(self, fixtures, tmp_path, capsys, flag):
        good = fixtures["broad"]["dir"] / "targets.csv"
        bad = _bad_targets_csv(fixtures["broad"], tmp_path)
        target, measured = (bad, good) if flag == "--target" else (good, bad)
        argv = ["chart-error", "--target", str(target), "--measured", str(measured)]
        assert main(argv) == 1
        assert "patch index 24 outside" in _one_error_line(capsys)

    @pytest.mark.parametrize(
        "row, reason",
        [("3,0.5,0.5", "not enough values to unpack (expected 4, got 3)"),
         ("3.5,0.5,0.5,0.5", "invalid literal for int() with base 10: '3.5'"),
         ("3,nan,0.5,0.5", "r, g, b must be finite and >= 0, got (nan, 0.5, 0.5)"),
         ("3,0.5,inf,0.5", "r, g, b must be finite and >= 0, got (0.5, inf, 0.5)"),
         ("3,0.5,0.5,-1", "r, g, b must be finite and >= 0, got (0.5, 0.5, -1.0)")],
    )
    def test_chart_error_names_the_csv_file_and_line(self, fixtures, tmp_path, capsys, row, reason):
        good = fixtures["broad"]["dir"] / "targets.csv"
        lines = good.read_text().splitlines()
        lines[4] = row  # patch 3's row, line 5 of the file
        bad = tmp_path / "measured.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["chart-error", "--target", str(good), "--measured", str(bad)]
        assert main(argv) == 1
        assert _one_error_line(capsys) == f"error: stage measured: {bad}, line 5: {reason}"

    def test_chart_error_zero_white_target_fails_its_stage(self, fixtures, tmp_path, capsys):
        good = fixtures["broad"]["dir"] / "targets.csv"
        lines = good.read_text().splitlines()
        lines[19] = "18,0.0,0.5,0.5"  # the white patch, with no red
        target = tmp_path / "target.csv"
        target.write_text("\n".join(lines) + "\n")
        assert main(["chart-error", "--target", str(target), "--measured", str(good)]) == 1
        assert _one_error_line(capsys) == "error: stage chart_error: target white patch components must be > 0"

    def test_chart_error_near_the_float_maximum_is_finite(self, fixtures, tmp_path, capsys):
        good = fixtures["broad"]["dir"] / "targets.csv"
        lines = good.read_text().splitlines()
        lines[1:] = [f"{j},1e308,1e308,1e308" for j in range(24)]
        target = tmp_path / "huge.csv"
        target.write_text("\n".join(lines) + "\n")
        assert main(["chart-error", "--target", str(target), "--measured", str(good)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        metrics = _strict_json(out)
        assert all(abs(metrics[c] - 1.0) < 1e-12 for c in "rgb"), metrics

    def test_chart_error_past_the_float_range_fails_its_stage(self, fixtures, tmp_path, capsys):
        good = fixtures["broad"]["dir"] / "targets.csv"
        lines = good.read_text().splitlines()
        lines[19] = "18,5e-324,5e-324,5e-324"  # a subnormal white patch
        target = tmp_path / "target.csv"
        target.write_text("\n".join(lines) + "\n")
        assert main(["chart-error", "--target", str(target), "--measured", str(good)]) == 1
        assert _one_error_line(capsys).startswith("error: stage chart_error: chart error [inf, ")

    def test_report_error_fails_its_stage(self, fixtures, tmp_path, capsys):
        # w_avg comes from the white patch, so only the report's chart errors reject it
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, output_dir=str(tmp_path / "out"))
        path = fixture_dir / "targets.csv"
        lines = path.read_text().splitlines()
        lines[19] = "18,0.0," + lines[19].split(",", 2)[2]
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        assert _one_error_line(capsys) == "error: stage report: target white patch components must be > 0"
        assert not (tmp_path / "out").exists()

    def test_non_finite_output_fails_before_any_file_is_written(self, fixtures, tmp_path, capsys):
        # targets this large overflow the Q residual to inf, which strict JSON cannot hold
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, output_dir=str(tmp_path / "out"))
        path = fixture_dir / "targets.csv"
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:], 1):
            j, *values = line.split(",")
            lines[i] = ",".join([j] + [repr(float(v) * 1e200) for v in values])
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: stage outputs: Out of range float values"), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", list(SCENARIO_SEEDS))
    def test_json_outputs_hold_no_constant(self, fixtures, scenario):
        out = fixtures[scenario]["config"].output_dir
        for name in ("bundle.json", "report.json"):
            _strict_json((out / name).read_text())

    @pytest.mark.parametrize(
        "size, reason",
        [(b"96 32 1", "too many values to unpack (expected 2)"),
         (b"abc", "invalid literal for int() with base 10: b'abc'")],
    )
    def test_malformed_pfm_header_names_the_file(self, fixtures, tmp_path, capsys, size, reason):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
        path = fixture_dir / "primaries.pfm"
        path.write_bytes(b"PF\n" + size + b"\n-1.0\n" + b"\x00" * 12)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        assert _one_error_line(capsys) == f"error: stage primaries: {path}: malformed PFM header: {reason}"

    def test_pfm_scale_without_a_byte_order_fails_its_stage(self, fixtures, tmp_path, capsys):
        # read big-endian, the little-endian payload would be tiny legal values and solve would exit 0
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
        path = fixture_dir / "primaries.pfm"
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"\n-1.0\n", b"\n0\n", 1))
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        reason = "malformed PFM header: scale must be finite and non-zero, got 0.0"
        assert _one_error_line(capsys) == f"error: stage primaries: {path}: {reason}"

    def test_pfm_that_cannot_be_mapped_is_an_input_error(self, fixtures, tmp_path, capsys, monkeypatch):
        # a file that opens but refuses mmap, as a device file may: exit 2 like any OSError
        def refuse(*args, **kwargs):
            raise OSError(errno.ENODEV, os.strerror(errno.ENODEV))

        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
        monkeypatch.setattr(mmap, "mmap", refuse)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 2
        path = fixture_dir / "primaries.pfm"
        reason = f"cannot map PFM file: {os.strerror(errno.ENODEV)}"
        assert _one_error_line(capsys) == f"error: [Errno {errno.ENODEV}] {reason}: {str(path)!r}"

    @pytest.mark.parametrize(
        "name, stage, value, reason",
        [("primaries.pfm", "primaries", -0.5, "image has a negative component at index (3, 5, 1): -0.5"),
         ("chart_green.pfm", "channel_charts", np.nan,
          "image has a non-finite component at index (3, 5, 1): nan")],
    )
    def test_bad_capture_value_names_the_file(self, fixtures, tmp_path, capsys, name, stage, value, reason):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
        path = fixture_dir / name
        data = read_pfm(path).copy()  # read_pfm's array is read-only
        data[3, 5, 1] = value
        write_pfm(path, data)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        assert _one_error_line(capsys) == f"error: stage {stage}: {path}: {reason}"

    @pytest.mark.parametrize(
        "width, value, reason",
        [(128, -1.0, "image has a negative component at index (2, 7, 0): -1.0"),
         (64, 1.0, "lat-long map must have width = 2 * height, got 64x64")],
    )
    def test_bad_env_map_names_the_file(self, fixtures, tmp_path, capsys, width, value, reason):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path,
                                    w_avg={"mode": "env_map", "path": "env.pfm", "facing": [0.0, 0.0, 1.0]})
        data = np.ones((64, width, 3))
        data[2, 7, 0] = value
        path = fixture_dir / "env.pfm"
        write_pfm(path, data)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        assert _one_error_line(capsys) == f"error: stage w_avg: {path}: {reason}"

    def test_empty_env_map_names_the_file(self, fixtures, tmp_path, capsys):
        # a 0x0 map passes the aspect check, and its integral would divide by its zero width
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path,
                                    w_avg={"mode": "env_map", "path": "env.pfm", "facing": [0.0, 0.0, 1.0]})
        path = fixture_dir / "env.pfm"
        path.write_bytes(b"PF\n0 0\n-1\n")
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        assert _one_error_line(capsys) == f"error: stage w_avg: {path}: lat-long map must have at least one row, got 0x0"

    @pytest.mark.parametrize(
        "doc, reason",
        [([], "expected a JSON object, got []"),
         ("x", "expected a JSON object, got 'x'"),
         ({"beta": None}, "beta must be a number, got None"),
         ({"beta": "0.3"}, "beta must be a number, got '0.3'"),
         # an array element follows the same rule as beta
         ({"M": [[True, 0, 0], [0, 1, 0], [0, 0, 1]]},
          "M must be numeric, got [[True, 0, 0], [0, 1, 0], [0, 0, 1]]"),
         ({"M": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]},
          "M must be numeric, got [['1', 0, 0], [0, 1, 0], [0, 0, 1]]"),
         ({"black_offset": [0, 0, True]}, "black_offset must be numeric, got [0, 0, True]"),
         ({"black_offset": ["0", 0, 0]}, "black_offset must be numeric, got ['0', 0, 0]")],
    )
    def test_simulate_malformed_bundle_is_an_input_error(self, fixtures, tmp_path, capsys, doc, reason):
        fx = fixtures["broad"]
        if isinstance(doc, dict):  # the solved bundle with one key replaced
            doc = {**json.loads((fx["config"].output_dir / "bundle.json").read_text()), **doc}
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(fx["dir"] / "config.json"), "--bundle", str(bundle),
                "--output-dir", str(tmp_path / "sim")]
        assert main(argv) == 2
        assert _one_error_line(capsys) == f"error: invalid bundle {bundle}: {reason}"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("key", ["M", "Q", "N", "beta", "black_offset"])
    def test_simulate_bundle_missing_key_is_an_input_error(self, fixtures, tmp_path, capsys, key):
        fx = fixtures["broad"]
        doc = json.loads((fx["config"].output_dir / "bundle.json").read_text())
        del doc[key]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(fx["dir"] / "config.json"), "--bundle", str(bundle),
                "--output-dir", str(tmp_path / "sim")]
        assert main(argv) == 2
        assert _one_error_line(capsys) == f'error: invalid bundle {bundle}: missing key "{key}"'

    def test_simulate_bundle_nested_past_the_recursion_limit_is_an_input_error(self, fixtures, tmp_path, capsys):
        fx = fixtures["broad"]
        bundle = tmp_path / "bundle.json"
        bundle.write_text("[" * 200000)
        argv = ["simulate", "--config", str(fx["dir"] / "config.json"), "--bundle", str(bundle)]
        assert main(argv) == 2
        assert _one_error_line(capsys).startswith(f"error: invalid bundle {bundle}: maximum recursion depth")

    @pytest.mark.parametrize("key, value", [("M", [[10**400, 0, 0], [0, 1, 0], [0, 0, 1]]),
                                            ("beta", 10**400)])
    def test_simulate_bundle_integer_past_float_range_is_an_input_error(self, fixtures, tmp_path, capsys,
                                                                         key, value):
        fx = fixtures["broad"]
        doc = {**json.loads((fx["config"].output_dir / "bundle.json").read_text()), key: value}
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(fx["dir"] / "config.json"), "--bundle", str(bundle)]
        assert main(argv) == 2
        assert _one_error_line(capsys).startswith(f"error: invalid bundle {bundle}: {key} must be")

    def test_simulate_overflowing_q_is_a_stage_error(self, fixtures, tmp_path, capsys):
        # a finite Q that the prediction overflows: the clamped chart is not finite
        fx = fixtures["broad"]
        doc = json.loads((fx["config"].output_dir / "bundle.json").read_text())
        doc["Q"][0] = [1e308, 1e308, 1e308]
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(fx["dir"] / "config.json"), "--bundle", str(bundle),
                "--output-dir", str(tmp_path / "sim")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: stage simulate: patches has a non-finite component")
        assert not (tmp_path / "sim").exists()

    def test_oracle_negative_seed_is_an_input_error(self, tmp_path, capsys):
        assert main(["oracle", "--seed", "-1", "--outdir", str(tmp_path / "fx")]) == 2
        assert _one_error_line(capsys) == "error: oracle: seed must be >= 0, got -1"
        assert not (tmp_path / "fx").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("cond_limit_sl", 0.5), ("cond_limit_sl", 0), ("cond_limit_q", -1), ("cond_limit_q", 0.999)],
    )
    def test_condition_limit_below_one_is_a_config_error(self, fixtures, tmp_path, capsys, key, value):
        # no condition number is below 1, so such a limit fails every matrix
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, **{key: value})
        argv = ["solve", "--config", str(fixture_dir / "config.json")]
        assert main(argv) == 2
        assert _one_error_line(capsys) == f"error: config: {key} must be >= 1, got {float(value)!r}"

    def test_condition_limit_of_one_is_allowed(self, fixtures, tmp_path):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, cond_limit_sl=1, cond_limit_q=1)
        config = load_config(fixture_dir / "config.json")
        assert config.cond_limit_sl == config.cond_limit_q == 1.0

    @pytest.mark.parametrize(
        "flag, value", [("--resolution", "10"), ("--resolution", "100000"), ("--half-extent", "-1")]
    )
    def test_beta_out_of_range_fails_its_stage(self, capsys, flag, value):
        assert main(["beta", flag, value]) == 1
        assert _one_error_line(capsys).startswith("error: stage beta: ")

    @pytest.mark.parametrize(
        "value, line",
        [("inf", "error: stage beta: half_extent must be positive and finite, got inf"),
         ("nan", "error: stage beta: half_extent must be positive and finite, got nan"),
         ("1e6", "error: stage beta: beta must be in (0, 1], got 1.000100380118413 for half_extent 1000000.0"),
         # 1 / (half_extent * cos) overflows to inf, with no numpy warning before the error
         ("5e-324", "error: stage beta: beta must be in (0, 1], got 0.0 for half_extent 5e-324")],
    )
    def test_beta_half_extent_without_a_beta_in_range_fails(self, capsys, value, line):
        assert main(["beta", "--half-extent", value, "--resolution", "64"]) == 1
        assert _one_error_line(capsys) == line

    def test_beta_of_a_panel_nearly_a_hemisphere_stays_in_range(self, capsys):
        assert main(["beta", "--half-extent", "100", "--resolution", "64"]) == 0
        assert 0.999 < float(capsys.readouterr().out) <= 1.0

    def test_chart_error_white_index_out_of_range_is_a_config_error(self, fixtures, capsys):
        # the range check solve makes at load, made before any stage runs; chart-error reads no config
        targets = str(fixtures["broad"]["dir"] / "targets.csv")
        argv = ["chart-error", "--target", targets, "--measured", targets, "--white-index", "30"]
        assert main(argv) == 2
        assert _one_error_line(capsys) == "error: --white-index: white_index must be in [0, 24), got 30"

    @pytest.mark.parametrize("argv, code", [(["beta", "--resolution", "1" + "0" * 4000], 1),
                                            (["chart-error", "--target", "t.csv", "--measured", "t.csv",
                                              "--white-index", "1" + "0" * 4000], 2)],
                             ids=["resolution", "white-index"])
    def test_a_long_integer_flag_is_abbreviated_in_its_error_line(self, capsys, argv, code):
        assert main(argv) == code
        line = _one_error_line(capsys)
        assert len(line) < 200 and line.endswith("got 100000000000000000...0000000000000000000"), line

    def test_solve_beta_resolution_above_bound_fails_its_stage(self, fixtures, tmp_path, capsys):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, beta_resolution=100000)
        argv = ["solve", "--config", str(fixture_dir / "config.json"), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert _one_error_line(capsys) == "error: stage beta: resolution must be <= 4096, got 100000"

    @pytest.mark.parametrize("key, value, reason", [
        ("beta_resolution", 32, "resolution must be >= 64, got 32"),
        ("half_extent", -0.5, "half_extent must be positive and finite, got -0.5"),
    ])
    def test_a_bad_beta_setting_fails_before_any_capture_is_read(self, fixtures, tmp_path, capsys, monkeypatch,
                                                                 key, value, reason):
        def unread(path):
            pytest.fail(f"{path} was read before beta was computed")

        monkeypatch.setattr("stagecal.cli.read_pfm", unread)
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, **{key: value})
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        assert _one_error_line(capsys) == f"error: stage beta: {reason}"

    def test_pfm_header_larger_than_file_fails_its_stage(self, fixtures, tmp_path, capsys):
        # the header asks for 100000 x 100000 pixels, which must not be allocated
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
        (fixture_dir / "primaries.pfm").write_bytes(b"PF\n100000 100000\n-1\n" + b"\x00" * 4)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        line = _one_error_line(capsys)
        assert line.startswith("error: stage primaries: ") and line.endswith("truncated PFM payload")

    def test_non_numeric_config_value(self, fixtures, tmp_path, capsys):
        # a scalar is a finite JSON number, never a boolean or a string; an
        # integer setting takes no fractional part
        cases = [
            ("half_extent", "x", "a finite number"),
            ("half_extent", "0.6", "a finite number"),
            ("half_extent", float("inf"), "a finite number"),
            ("cond_limit_q", float("nan"), "a finite number"),
            ("white_index", True, "an integer"),
            ("white_index", 18.9, "an integer"),
            ("beta_resolution", "1024", "an integer"),
        ]
        for i, (key, value, noun) in enumerate(cases):
            fixture_dir = _copy_fixture(fixtures["broad"], tmp_path / str(i), **{key: value})
            assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 2, (key, value)
            assert _one_error_line(capsys) == f"error: config: {key} must be {noun}, got {value!r}"

    def test_overlong_integer_literal_is_invalid_json(self, fixtures, tmp_path, capsys):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
        config = fixture_dir / "config.json"
        config.write_text(config.read_text().replace('"white_index": 18', '"white_index": ' + "1" * 5000))
        assert main(["solve", "--config", str(config)]) == 2
        assert _one_error_line(capsys).startswith(f"error: invalid config {config}: Exceeds the limit (4300 digits)")

    def test_config_nested_past_the_recursion_limit_is_invalid_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[" * 200000)
        assert main(["solve", "--config", str(config)]) == 2
        assert _one_error_line(capsys).startswith(f"error: invalid config {config}: maximum recursion depth")

    @pytest.mark.parametrize("text, shown", [("5", "5"), ('"primaries"', "'primaries'"), ("null", "None"),
                                             ("[]", "[]")])
    def test_config_that_is_not_a_json_object_exits_2(self, tmp_path, capsys, text, shown):
        config = tmp_path / "config.json"
        config.write_text(text)
        assert main(["solve", "--config", str(config)]) == 2
        assert _one_error_line(capsys) == f"error: config: the top level must be a JSON object, got {shown}"

    def test_integral_float_is_an_integer_setting(self, fixtures, tmp_path):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path / "index", white_index=18.0)
        assert load_config(fixture_dir / "config.json").white_index == 18
        fixture_dir = _copy_fixture_with(fixtures["broad"], tmp_path / "roi", ["black_level", "roi"],
                                         [0.0, 0, 16.0, 16])
        assert load_config(fixture_dir / "config.json").black_level[1] == (0, 0, 16, 16)

    def test_warnings_printed_before_a_stage_error(self, fixtures, tmp_path, capsys, monkeypatch):
        # the black level warns, then a non-finite N fails the report stage;
        # solve_n never returns one, so this stand-in does
        monkeypatch.setattr("stagecal.cli.solve_n", lambda m, q, cond_limit: np.full((3, 3), np.nan))
        argv = ["solve", "--config", str(fixtures["monochromatic"]["dir"] / "config.json"),
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: black level [")
        assert error == "error: stage report: N has a non-finite component at index (0, 0): nan"

    def test_beta_out_of_range_fails_where_the_chart_is_predicted(self, fixtures, tmp_path, capsys,
                                                                   monkeypatch):
        # compute_beta itself rejects 1 + 4e-7, so a stand-in returns it
        monkeypatch.setattr("stagecal.cli.compute_beta", lambda half_extent, resolution: 1 + 4e-7)
        argv = ["solve", "--config", str(fixtures["broad"]["dir"] / "config.json"),
                "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert _one_error_line(capsys) == "error: stage solve_q: beta must be in (0, 1], got 1.0000004"

    @pytest.mark.parametrize("input_name", ["config-roi", "pfm-without-a-newline", "csv-without-a-newline",
                                            "csv-field", "csv-field-under-the-line-limit", "solve --config",
                                            "config input path", "simulate --bundle", "chart-error --target",
                                            "chart-error --measured", "solve --output-dir", "oracle --outdir"])
    def test_a_long_bad_input_gives_one_short_error_line(self, fixtures, tmp_path, capsys, input_name):
        fx = fixtures["broad"]
        good_csv = str(fx["dir"] / "targets.csv")
        config = str(fx["dir"] / "config.json")
        long_path = str(tmp_path / ("x" * 100_000))  # too long for the system to name a file
        long_path_argv = {
            "solve --config": ["solve", "--config", long_path],
            "simulate --bundle": ["simulate", "--config", config, "--bundle", long_path],
            "chart-error --target": ["chart-error", "--target", long_path, "--measured", good_csv],
            "chart-error --measured": ["chart-error", "--target", good_csv, "--measured", long_path],
            "solve --output-dir": ["solve", "--config", config, "--output-dir", long_path],
            "oracle --outdir": ["oracle", "--seed", "0", "--outdir", long_path],
        }
        if input_name in long_path_argv:
            argv, code = long_path_argv[input_name], 2
        elif input_name == "config input path":
            fixture_dir = _copy_fixture_with(fx, tmp_path, ["primaries", "image"], "x" * 100_000)
            argv, code = ["solve", "--config", str(fixture_dir / "config.json")], 2
        elif input_name == "config-roi":
            fixture_dir = _copy_fixture_with(fx, tmp_path, ["primaries", "rois", "red"], list(range(100_000)))
            argv, code = ["solve", "--config", str(fixture_dir / "config.json")], 2
        elif input_name == "pfm-without-a-newline":
            fixture_dir = _copy_fixture(fx, tmp_path)
            (fixture_dir / "primaries.pfm").write_bytes(b"x" * 5_000_000)
            argv, code = ["solve", "--config", str(fixture_dir / "config.json")], 1
        else:
            bad = tmp_path / "measured.csv"
            lines = Path(good_csv).read_text().splitlines()
            if input_name == "csv-without-a-newline":
                bad.write_text("x" * 3_000_000)
            else:
                field = "x" * (3_000_000 if input_name == "csv-field" else 200)
                bad.write_text("\n".join(lines[:4] + [f"3,0.5,{field},0.5"] + lines[5:]) + "\n")
            argv, code = ["chart-error", "--target", good_csv, "--measured", str(bad)], 1
        assert main(argv) == code
        line = _one_error_line(capsys)
        assert len(line.encode()) < 1024, line[:300]
        assert "..." in line or "longer than 256 characters" in line, line

    def test_w_avg_must_be_an_object(self, fixtures, tmp_path, capsys):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, w_avg="white_patch")
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 2
        assert "w_avg must be a JSON object" in _one_error_line(capsys)

    @pytest.mark.parametrize(
        "path, value, named",
        [
            (["weights"], "x", "config: weights"),
            (["weights"], [1.0] * 5, "config: weights"),
            (["weights"], [-1.0] + [1.0] * 23, "config: weights"),
            (["channel_charts", "red", "corners"], "x", "channel_charts.red: corners"),
            (["channel_charts", "red", "corners"], [[0, 0], [96, 0], [96, 64]], "channel_charts.red: corners"),
            (["w_avg"], {"mode": "white_patch", "rgb": "x"}, "w_avg: rgb"),
            (["w_avg"], {"mode": "white_patch", "rgb": [10**400, 1, 1]}, "w_avg: rgb"),
            (["w_avg"], {"mode": "env_map", "path": "env.pfm", "facing": "x"}, "w_avg: facing"),
            (["primaries", "rois", "red"], "x", "primaries.rois: red"),
            (["primaries", "rois", "green"], [0, 0, 24], "primaries.rois: green"),
            (["black_level", "roi"], "x", "black_level: roi"),
            # a region is whole pixels, by the rule an integer setting follows
            (["primaries", "rois", "red"], [0.5, 0, 24, 24], "primaries.rois: red"),
            (["primaries", "rois", "blue"], [64, 4, True, 24], "primaries.rois: blue"),
            (["black_level", "roi"], [0, -1e-300, 16, 16], "black_level: roi"),
            (["primaries"], 5, "config: primaries"),
            (["primaries", "rois"], 5, "primaries: rois"),
            (["channel_charts"], 5, "config: channel_charts"),
            (["channel_charts", "blue"], 5, "channel_charts: blue"),
            (["targets"], 5, "config: targets"),
            (["targets"], {"csv": 5}, "targets: csv"),
            (["targets"], {"image": 5, "corners": [[0, 0], [96, 0], [96, 64], [0, 64]]}, "targets: image"),
            (["channel_charts", "red", "image"], 5, "channel_charts.red: image"),
            (["primaries", "image"], 5, "primaries: image"),
            (["w_avg"], {"mode": "env_map", "path": 5, "facing": [0, 0, 1]}, "w_avg: path"),
            (["black_level", "image"], 5, "black_level: image"),
            (["output_dir"], 5, "config: output_dir"),
            (["output_dir"], None, "config: output_dir"),
            # a present key holds a valid value: null is not the default of an optional one
            (["weights"], None, "config: weights must be numeric, got"),
            (["w_avg"], None, "config: w_avg must be a JSON object, got"),
            (["black_level"], None, "config: black_level must be a JSON object, got"),
            # checks that need no image run at load, not in a stage
            (["channel_charts", "red", "corners"], [[0, 0], [96, 64], [96, 0], [0, 64]],
             "channel_charts.red: chart corners"),
            (["channel_charts", "red", "inset"], 0.6, "channel_charts.red: inset 0.6"),
            (["white_index"], 30, "config: white_index"),
            (["weights"], [1.0, 1.0] + [0.0] * 22, "config: need at least 3"),
            (["w_avg"], {"mode": "env_map", "path": "primaries.pfm", "facing": [0, 0, 2]},
             "w_avg.facing: direction must be"),
            # an array element is a number by the rule a scalar follows: not a bool, not a string
            (["channel_charts", "red", "corners"], [[0, False], [96, 0], [96, 64], [0, 64]],
             "channel_charts.red: corners"),
            (["channel_charts", "red", "corners"], [["0", 0], [96, 0], [96, 64], [0, 64]],
             "channel_charts.red: corners"),
            (["weights"], [True] + [1.0] * 23, "config: weights"),
            (["weights"], ["1"] + [1.0] * 23, "config: weights"),
            (["w_avg"], {"mode": "white_patch", "rgb": [True, 1, 1]}, "w_avg: rgb"),
            (["w_avg"], {"mode": "white_patch", "rgb": ["1", 1, 1]}, "w_avg: rgb"),
            (["w_avg"], {"mode": "env_map", "path": "primaries.pfm", "facing": [0, 0, True]}, "w_avg: facing"),
            (["w_avg"], {"mode": "env_map", "path": "primaries.pfm", "facing": [0, 0, "1"]}, "w_avg: facing"),
            # light is never negative: a chart's white and an env map cannot give such a w_avg
            (["w_avg"], {"mode": "white_patch", "rgb": [-1, 1, 1]}, "w_avg: rgb has a negative component"),
        ],
        ids=["weights-text", "weights-5", "weights-negative", "corners-text", "corners-3", "rgb-text",
             "rgb-past-float-range", "facing-text", "roi-text", "roi-3", "black-roi-text", "roi-fraction", "roi-bool",
             "black-roi-tiny", "primaries-number", "rois-number",
             "channel-charts-number", "channel-number", "targets-number", "targets-csv-number",
             "targets-image-number", "chart-image-number", "primaries-image-number", "env-path-number",
             "black-image-number", "output-dir-number", "output-dir-null", "weights-null", "w-avg-null",
             "black-level-null", "corners-not-convex",
             "inset-0.6", "white-index-30", "weights-2-positive", "facing-not-unit", "corners-bool",
             "corners-string", "weights-bool", "weights-string", "rgb-bool", "rgb-string", "facing-bool",
             "facing-string", "rgb-negative"],
    )
    def test_malformed_config_array_or_section(self, fixtures, tmp_path, capsys, path, value, named):
        fixture_dir = _copy_fixture_with(fixtures["broad"], tmp_path, path, value)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 2
        assert _one_error_line(capsys).startswith(f"error: {named} ")


    @pytest.mark.parametrize(
        "path, value, line",
        [
            (["primaries", "rois", "red"], [0, 0, 0, 5],
             "error: primaries.rois: red needs x, y >= 0 and w, h >= 1, got [0, 0, 0, 5]"),
            (["primaries", "rois", "green"], [0, 0, 5, -2],
             "error: primaries.rois: green needs x, y >= 0 and w, h >= 1, got [0, 0, 5, -2]"),
            (["primaries", "rois", "blue"], [-1, 0, 5, 5],
             "error: primaries.rois: blue needs x, y >= 0 and w, h >= 1, got [-1, 0, 5, 5]"),
            (["primaries", "rois", "red"], [0, -3, 5, 5],
             "error: primaries.rois: red needs x, y >= 0 and w, h >= 1, got [0, -3, 5, 5]"),
            (["black_level", "roi"], [0, 0, 0, 0],
             "error: black_level: roi needs x, y >= 0 and w, h >= 1, got [0, 0, 0, 0]"),
            (["channel_charts", "red", "corners"], [[-1, 0], [96, 0], [96, 64], [0, 64]],
             "error: channel_charts.red: chart corners must not have a negative coordinate"),
        ],
        ids=["roi-zero-width", "roi-negative-height", "roi-negative-x", "roi-negative-y", "black-roi-empty",
             "corner-negative"],
    )
    def test_region_wrong_without_an_image_exits_2(self, fixtures, tmp_path, capsys, path, value, line):
        # a negative origin or an empty size is wrong for any image, so load rejects it
        fixture_dir = _copy_fixture_with(fixtures["broad"], tmp_path, path, value)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 2
        assert _one_error_line(capsys) == line

    @pytest.mark.parametrize(
        "path, value, line",
        [
            (["primaries", "rois", "red"], [0, 0, 9999, 5],
             "error: stage primaries: ROI (0, 0, 9999, 5) outside image bounds"),
            (["channel_charts", "red", "corners"], [[0, 0], [960, 0], [960, 64], [0, 64]],
             "error: stage channel_charts: chart grid corner outside image bounds"),
        ],
        ids=["roi", "corners"],
    )
    def test_outside_the_image_fails_its_stage(self, fixtures, tmp_path, capsys, path, value, line):
        # a check against the image runs in its stage, not at load
        fixture_dir = _copy_fixture_with(fixtures["broad"], tmp_path, path, value)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 1
        assert _one_error_line(capsys) == line

    @pytest.mark.parametrize(
        "path, value, line",
        [
            (["cond_limit_Q"], 0.5, "error: config: unknown key 'cond_limit_Q'"),
            (["x" * 1000], 1, "error: config: unknown key 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
            (["w_avg"], {"mode": "white_patch", "facing": [0, 0, 5]}, "error: w_avg: unknown key 'facing'"),
            (["w_avg"], {"mode": "env_map", "path": "primaries.pfm", "facing": [0, 0, 1], "rgb": [1, 1, 1]},
             "error: w_avg: unknown key 'rgb'"),
            (["channel_charts", "red", "insets"], 0.2, "error: channel_charts.red: unknown key 'insets'"),
            (["black_level", "rois"], [0, 0, 4, 4], "error: black_level: unknown key 'rois'"),
            (["primaries", "rois", "alpha"], [0, 0, 4, 4], "error: primaries.rois: unknown key 'alpha'"),
            # the csv form of targets reads no chart
            (["targets", "image"], "primaries.pfm", "error: targets: unknown key 'image'"),
        ],
        ids=["top-level", "top-level-long", "w_avg-white_patch", "w_avg-env_map", "channel_charts.red",
             "black_level", "primaries.rois", "targets-csv"],
    )
    def test_a_key_the_chosen_form_does_not_read_exits_2(self, fixtures, tmp_path, capsys, path, value, line):
        fixture_dir = _copy_fixture_with(fixtures["broad"], tmp_path, path, value)
        bundle = fixtures["broad"]["config"].output_dir / "bundle.json"
        for command in (["solve"], ["simulate", "--bundle", str(bundle)]):
            assert main([*command, "--config", str(fixture_dir / "config.json")]) == 2
            assert _one_error_line(capsys) == line


@pytest.fixture(scope="module")
def mutation_bases(tmp_path_factory):
    """Two valid configs over one broad fixture: white-patch w_avg and CSV targets,
    and env-map w_avg with targets photographed; both weighted, at beta_resolution 64."""
    fixture_dir = run_oracle(2, "broad", tmp_path_factory.mktemp("mutations") / "broad")
    targets = read_chart_csv(fixture_dir / "targets.csv")
    write_pfm(fixture_dir / "env.pfm", np.broadcast_to(targets.white(18) / 0.9, (64, 128, 3)).copy())
    write_pfm(fixture_dir / "targets.pfm", chart_image(targets.patches, 16))
    white = json.loads((fixture_dir / "config.json").read_text())
    white.update(beta_resolution=64, output_dir=str(fixture_dir / "out"), weights=[1.0] * 24)
    white["w_avg"]["rgb"] = targets.white(18).tolist()
    env = json.loads(json.dumps(white))
    env["w_avg"] = {"mode": "env_map", "path": "env.pfm", "facing": [0.0, 0.0, 1.0]}
    env["targets"] = {"image": "targets.pfm", "corners": [[0, 0], [96, 0], [96, 64], [0, 64]], "inset": 0.25}
    return fixture_dir, {"white": white, "env": env}


def _nodes(doc, path=()):
    """Every key path in a config document; lists are leaves."""
    for key, value in doc.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _nodes(value, path + (key,))


_DELETE = object()
_NUMBERS = st.sampled_from([0, -1, 0.5, 3, 1e300, -1e-300, 10**30, float("nan"), float("inf")])
_SCALES = st.sampled_from([-1, 0, 0.5, 1e6, 1e300])
_WRONG_TYPES = st.sampled_from([None, True, "x", {}, []])
# not numbers, though numpy reads them as 1.0 in an array
_NOT_NUMBERS = st.sampled_from([True, "1"])


def _mutants(value):
    """One-field mutations of a config value: type, shape, sign, NaN and bounds,
    and a list element that is a bool or a numeric string."""
    common = [st.just(_DELETE), _WRONG_TYPES, _NUMBERS]
    if isinstance(value, list):
        flat = np.asarray(value, dtype=float)

        def with_element(i, x):
            out = flat.astype(object)  # holds a bool or a string as it is
            out.flat[i] = x
            return out.tolist()

        return st.one_of(
            *common,
            st.sampled_from([value[:-1], value + value[-1:], [value]]),
            st.builds(with_element, st.integers(0, flat.size - 1), st.one_of(_NUMBERS, _NOT_NUMBERS)),
            _SCALES.map(lambda k: (flat * k).tolist()),
        )
    if isinstance(value, str):
        return st.one_of(*common, st.sampled_from(["nope.pfm", "config.json", "targets.csv", "black.pfm",
                                                   "env.pfm", "env_map", "white_patch"]))
    if isinstance(value, dict):
        return st.one_of(*common, st.just({}))
    return st.one_of(*common, st.just(-value), st.just(value * 1e6))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_one_mutated_config_field_exits_0_1_or_2(mutation_bases, data):
    fixture_dir, bases = mutation_bases
    doc = json.loads(json.dumps(bases[data.draw(st.sampled_from(sorted(bases)), label="base")]))
    path = data.draw(st.sampled_from(sorted(_nodes(doc))), label="path")
    section = doc
    for key in path[:-1]:
        section = section[key]
    value = data.draw(_mutants(section[path[-1]]), label="value")
    if value is _DELETE:
        del section[path[-1]]
    else:
        section[path[-1]] = value
    config = fixture_dir / "mutated.json"
    config.write_text(json.dumps(doc))
    code = _assert_exit_contract(["solve", "--config", str(config)])
    # every config array is read at load, and an element that is not a number fails there
    if isinstance(value, list) and any(isinstance(x, (bool, str)) for x in _leaves(value)):
        assert code == 2


def _leaves(value):
    """The elements of nested lists that are not lists themselves."""
    return [x for v in value for x in _leaves(v)] if isinstance(value, list) else [value]


def _assert_exit_contract(argv) -> int:
    """Run a command and return its exit code: 0, 1 or 2, without raising, with
    stderr holding only one-line warnings and, on failure, one error line, last."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    assert code in (0, 1, 2)
    assert all(line.startswith(("warning: ", "error: ")) for line in lines), lines
    if code == 0:
        assert errors == []
    elif code == 1 and not errors:  # the soft failure: every output written, N unavailable
        assert "warning: N unavailable, in-frustum fallback N := M" in lines
    else:
        assert len(errors) == 1 and lines[-1] == errors[0], lines
    return code


@pytest.fixture(scope="module")
def byte_mutation_base(tmp_path_factory):
    """A broad fixture whose config asks for beta_resolution 64, with the bundle it solves to."""
    root = tmp_path_factory.mktemp("bytes")
    pristine = run_oracle(5, "broad", root / "pristine")
    (pristine / "scene.json").unlink()  # nothing reads it
    doc = json.loads((pristine / "config.json").read_text())
    doc["beta_resolution"] = 64
    (pristine / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    argv = ["solve", "--config", str(pristine / "config.json"), "--output-dir", str(root / "solved")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    shutil.copy(root / "solved" / "bundle.json", pristine / "bundle.json")
    return pristine, root / "work"


# The file each kind of input flips bytes in, and which part of it.
_BYTE_INPUTS = {
    "config": ("config.json", "all"),
    "chart_csv": ("targets.csv", "all"),
    "pfm_header": ("chart_green.pfm", "header"),
    "pfm_payload": ("primaries.pfm", "payload"),
    "bundle": ("bundle.json", "all"),
}
# bytes that keep a JSON, CSV or PFM header parsing more often than a random one does
_SYNTAX_BYTES = st.sampled_from(b'0123456789-+.eE,:"[]{} nN\n')


@settings(derandomize=True, max_examples=120, deadline=None)
@given(data=st.data())
def test_flipped_bytes_in_any_input_exit_0_1_or_2(byte_mutation_base, data):
    pristine, work = byte_mutation_base
    kind = data.draw(st.sampled_from(sorted(_BYTE_INPUTS)), label="input")
    name, part = _BYTE_INPUTS[kind]
    blob = bytearray((pristine / name).read_bytes())
    header = blob.index(b"\n", blob.index(b"\n", 3) + 1) + 1 if name.endswith(".pfm") else 0
    lo, hi = {"all": (0, len(blob)), "header": (0, header), "payload": (header, len(blob))}[part]
    flips = st.tuples(st.integers(lo, hi - 1), st.one_of(_SYNTAX_BYTES, st.integers(0, 255)))
    for at, byte in data.draw(st.lists(flips, min_size=1, max_size=3), label="flips"):
        blob[at] = byte
    shutil.copytree(pristine, work, dirs_exist_ok=True)
    (work / name).write_bytes(bytes(blob))
    config, out, mutated = str(work / "config.json"), str(work / "out"), str(work / name)
    if kind == "bundle":
        _assert_exit_contract(["simulate", "--config", config, "--bundle", mutated, "--output-dir", out])
        return
    _assert_exit_contract(["solve", "--config", config, "--output-dir", out])
    if kind == "chart_csv":
        _assert_exit_contract(["chart-error", "--target", str(pristine / name), "--measured", mutated])


class TestAlternateConfigRoutes:
    def test_env_map_w_avg_source(self, fixtures, tmp_path):
        from stagecal.imaging import write_pfm
        from stagecal.cli import run_solve

        fx = fixtures["broad"]
        targets = read_chart_csv(fx["dir"] / "targets.csv")
        # uniform environment whose diffuse integral reproduces the white route
        w_avg = targets.white(18) / 0.9
        env = np.broadcast_to(w_avg, (64, 128, 3)).copy()
        write_pfm(fx["dir"] / "env.pfm", env)
        doc = json.loads((fx["dir"] / "config.json").read_text())
        doc["w_avg"] = {"mode": "env_map", "path": "env.pfm", "facing": [0.0, 0.0, 1.0]}
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        # relative paths resolve against the config's own directory
        doc["primaries"]["image"] = str(fx["dir"] / "primaries.pfm")
        for name in ("red", "green", "blue"):
            doc["channel_charts"][name]["image"] = str(fx["dir"] / f"chart_{name}.pfm")
        doc["targets"]["csv"] = str(fx["dir"] / "targets.csv")
        doc["w_avg"]["path"] = str(fx["dir"] / "env.pfm")
        doc["black_level"]["image"] = str(fx["dir"] / "black.pfm")
        cfg_path.write_text(json.dumps(doc))
        bundle, report, code = run_solve(load_config(cfg_path))
        assert code == 0
        assert report["metadata"]["w_avg_mode"] == "env_map"
        # uniform-env integration agrees with the white route to ~0.2%
        ref_q = fx["bundle"].q
        assert np.abs(bundle.q - ref_q).max() < 0.01

    def test_env_map_solve_matches_the_closed_form_white(self, fixtures, tmp_path):
        # L(d) = a + b (d . u) integrates over the hemisphere facing n to a + (2/3) b (u . n)
        # (test_geometry.TestLinearEnvClosedForm); with u = +y, b = a / 2 and n = (0, 0.6, 0.8) that is
        # 1.2 a, the white route's w_avg when a = w_avg / 1.2. The texel sum is a midpoint rule, within
        # about 3 / h^2 of it relative, so Q agrees to that while M, which no w_avg reaches, is the same.
        fx = fixtures["broad"]
        config = fx["config"]
        w_avg = read_chart_csv(fx["dir"] / "targets.csv").white(config.white_index) / config.white_reflectance
        a = w_avg / 1.2
        height = 64
        env = linear_env_data(height, a, a / 2, np.array([0.0, 1.0, 0.0]))
        fixture_dir = _copy_fixture(fx, tmp_path)

        def miss(data, facing):
            """max |Q - Q_white| / max |Q_white| of the env_map solve of `data` facing `facing`."""
            write_pfm(fixture_dir / "env.pfm", data)
            doc = json.loads((fixture_dir / "config.json").read_text())
            doc["w_avg"] = {"mode": "env_map", "path": "env.pfm", "facing": facing}
            (fixture_dir / "config.json").write_text(json.dumps(doc))
            bundle, report, code = run_solve(load_config(fixture_dir / "config.json"))
            assert code == 0 and report["metadata"]["w_avg_mode"] == "env_map"
            assert bundle.m.tobytes() == fx["bundle"].m.tobytes()
            return np.abs(bundle.q - fx["bundle"].q).max() / np.abs(fx["bundle"].q).max()

        assert miss(env, [0.0, 0.6, 0.8]) < 3 / height**2
        # the map upside down, or the chart facing down as much as it faced up, integrates to 0.8 a
        assert miss(env[::-1], [0.0, 0.6, 0.8]) > 0.1
        assert miss(env, [0.0, -0.6, 0.8]) > 0.1

    def test_explicit_white_patch_rgb_drives_the_solve(self, fixtures, tmp_path):
        fx = fixtures["broad"]
        white = read_chart_csv(fx["dir"] / "targets.csv").white(fx["config"].white_index)
        # the targets' own white, given explicitly, is the default route byte for byte
        fixture_dir = _copy_fixture(fx, tmp_path, w_avg={"mode": "white_patch", "rgb": white.tolist()},
                                    output_dir="explicit")
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 0
        for name in ("bundle.json", "report.json"):
            assert (fixture_dir / "explicit" / name).read_bytes() == (fx["dir"] / "out" / name).read_bytes()
        # twice the light predicts twice the lit chart, so Q halves
        doubled = {"mode": "white_patch", "rgb": (2 * white).tolist()}
        fixture_dir = _copy_fixture_with(fx, tmp_path / "doubled", ["w_avg"], doubled)
        bundle, _, code = run_solve(load_config(fixture_dir / "config.json"))
        assert code == 0
        assert np.allclose(bundle.q, fx["bundle"].q / 2, rtol=1e-9, atol=0)
        assert not np.allclose(bundle.q, fx["bundle"].q)

    def test_targets_from_image(self, fixtures, tmp_path):
        from stagecal.cli import run_solve
        from stagecal.imaging import write_pfm

        fx = fixtures["broad"]
        targets = read_chart_csv(fx["dir"] / "targets.csv")
        write_pfm(tmp_path / "targets.pfm", chart_image(targets.patches, 16))
        doc = json.loads((fx["dir"] / "config.json").read_text())
        doc["primaries"]["image"] = str(fx["dir"] / "primaries.pfm")
        for name in ("red", "green", "blue"):
            doc["channel_charts"][name]["image"] = str(fx["dir"] / f"chart_{name}.pfm")
        doc["black_level"]["image"] = str(fx["dir"] / "black.pfm")
        doc["targets"] = {
            "image": str(tmp_path / "targets.pfm"),
            "corners": [[0, 0], [96, 0], [96, 64], [0, 64]],
            "inset": 0.25,
        }
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        bundle, report, code = run_solve(load_config(cfg_path))
        assert code == 0
        # flat patches re-extract bit-exactly through float32, so Q matches
        # the CSV-targets run up to that quantization
        assert np.abs(bundle.q - fx["bundle"].q).max() < 1e-6

    def test_solve_without_a_black_level_section(self, fixtures, tmp_path):
        # no bounce measured: nothing is subtracted, so both displayed charts are one chart
        fx = fixtures["broad"]
        doc = json.loads((fx["dir"] / "config.json").read_text())
        del doc["black_level"]
        fixture_dir = _copy_fixture(fx, tmp_path)
        doc["output_dir"] = "no_black"
        (fixture_dir / "config.json").write_text(json.dumps(doc))
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 0
        out = fixture_dir / "no_black"
        bundle = json.loads((out / "bundle.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert bundle["black_offset"] == [0.0, 0.0, 0.0]
        assert report["metadata"]["black_level_measured"] is False
        errors = report["errors"]
        assert errors["displayed_with_black_level"] == errors["displayed_no_black_level"]
        assert (out / "displayed_with_black_level.csv").read_bytes() == (
            out / "displayed_no_black_level.csv").read_bytes()
        # the lit chart reads no black level
        assert errors["lit_m_q"] == fx["report"]["errors"]["lit_m_q"]
        assert (out / "lit_m_q.csv").read_bytes() == (fx["dir"] / "out" / "lit_m_q.csv").read_bytes()

    def test_weights_from_config(self, fixtures, tmp_path):
        from stagecal.cli import run_solve

        fx = fixtures["broad"]
        doc = json.loads((fx["dir"] / "config.json").read_text())
        doc["primaries"]["image"] = str(fx["dir"] / "primaries.pfm")
        for name in ("red", "green", "blue"):
            doc["channel_charts"][name]["image"] = str(fx["dir"] / f"chart_{name}.pfm")
        doc["targets"]["csv"] = str(fx["dir"] / "targets.csv")
        doc["black_level"]["image"] = str(fx["dir"] / "black.pfm")
        weights = [0.0] * 24
        for j in (0, 7, 14, 21):
            weights[j] = 1.0
        doc["weights"] = weights
        doc["output_dir"] = str(tmp_path / "out")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        bundle, report, code = run_solve(load_config(cfg_path))
        assert code == 0
        assert np.isfinite(bundle.q).all()


def test_root_exports_exactly_the_readme_library_imports():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = set()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "stagecal":
                documented.update(alias.name for alias in node.names)
    public = {
        name for name, value in vars(stagecal).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert documented and public == documented


def test_readme_library_snippet_runs(fixtures, monkeypatch, capsys):
    """The first README python block, run on the broad oracle's calibration data."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    snippet = re.search(r"```python\n(.*?)```", readme, flags=re.S).group(1)
    scene = make_scene(SCENARIO_SEEDS["broad"], "broad")
    calib = oracle_calibration(scene, compute_beta())
    red_rgb, green_rgb, blue_rgb = calib.sl.T
    chart_red, chart_green, chart_blue = (ChartSamples(calib.srl.matrices[:, :, c]) for c in range(3))
    placeholders = {
        "red_rgb": red_rgb, "green_rgb": green_rgb, "blue_rgb": blue_rgb,
        "chart_red": chart_red, "chart_green": chart_green, "chart_blue": chart_blue,
        "target_patches": calib.targets.patches,
    }
    monkeypatch.chdir(fixtures["broad"]["dir"])  # holds primaries.pfm
    namespace = dict(placeholders)
    exec(compile(snippet, "README.md", "exec"), namespace)
    # the snippet solves what `stagecal solve` solves, to the float32 precision of its captures
    assert np.array_equal(namespace["m"], np.linalg.inv(calib.sl))
    assert np.allclose(namespace["q"], fixtures["broad"]["bundle"].q, rtol=0, atol=1e-6)
    printed = capsys.readouterr().out
    expect = chart_error(calib.targets, namespace["lit"], 18)
    assert printed == f"{expect}\n"


def test_readme_cli_block_lists_exactly_the_parser_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, flags=re.S).group(1)
    documented = {}
    for line in block.splitlines():
        if line.startswith("stagecal "):
            command = line.split()[1]
            documented[command] = set()
        documented[command].update(re.findall(r"--[a-z][a-z-]*", line))
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert documented and documented == parsed


def test_solve_runs_its_stages_in_the_readme_order(fixtures, tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"`solve` runs these stages, in this order: (.*?)\. ", readme, flags=re.S).group(1)
    documented = re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", sentence))  # less the note on black_level
    ran = []
    stage = stagecal.cli._stage

    @contextlib.contextmanager
    def recorded(name):
        ran.append(name)
        with stage(name):
            yield

    monkeypatch.setattr("stagecal.cli._stage", recorded)
    # the broad fixture has a black_level section, so every stage runs
    argv = ["solve", "--config", str(fixtures["broad"]["dir"] / "config.json"), "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    assert documented and ran == documented


def test_size_script_prints_lines_settable_values_and_flags():
    env = {**os.environ, "PYTHONPATH": str(Path(stagecal.__file__).parents[1])}
    argv = [sys.executable, str(Path(__file__).with_name("size.py"))]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    lines, code, values, flags, modules, module_values = result.stdout.splitlines()
    newlines = sum(path.read_bytes().count(b"\n") for path in Path(stagecal.__file__).parent.glob("*.py"))
    assert lines == f"src lines: {newlines}"
    assert re.fullmatch(r"code lines: \d+", code) and int(code.split()[-1]) < newlines, code
    assert re.fullmatch(r"settable values: \d+", values), values
    assert flags == "flags: solve 2, simulate 4, oracle 3, beta 2, chart-error 3"
    stems = {path.stem for path in Path(stagecal.__file__).parent.glob("*.py")}
    for total, by_module, prefix in ((code, modules, "code lines by module: "),
                                     (values, module_values, "settable values by module: ")):
        per_module = dict(item.rsplit(" ", 1) for item in by_module.removeprefix(prefix).split(", "))
        assert set(per_module) == stems, by_module
        assert sum(map(int, per_module.values())) == int(total.split()[-1]), by_module


def test_code_lines_leave_out_blank_comment_and_docstring_lines():
    spec = importlib.util.spec_from_file_location("size", Path(__file__).with_name("size.py"))
    size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(size)
    source = (
        '"""A module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """A function docstring."""\n'
        '    note = """a string\nthat is data"""\n'
        "    return (x +\n"
        "            1)\n"
    )
    # import, def, the two lines of the data string and the two of the return statement
    assert size.code_lines(source) == 6


def test_readme_config_schema_lists_exactly_the_oracle_config_keys(fixtures):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema\n\n```json\n(.*?)```", readme, flags=re.S).group(1)
    documented = set(re.findall(r'^  "(\w+)":', block, flags=re.M))
    written = json.loads((fixtures["broad"]["dir"] / "config.json").read_text())
    assert documented and documented == set(written)


def test_one_settings_table_gives_the_loaded_and_the_written_defaults(fixtures, tmp_path):
    # a config that leaves out every top-level setting loads the values the oracle writes for them
    written = json.loads((fixtures["broad"]["dir"] / "config.json").read_text())
    assert set(SETTINGS) <= set(written)
    fixture_dir = _copy_fixture(fixtures["broad"], tmp_path)
    doc = {key: value for key, value in written.items() if key not in SETTINGS}
    (fixture_dir / "config.json").write_text(json.dumps(doc))
    config = load_config(fixture_dir / "config.json")
    loaded = {key: getattr(config, key) for key in SETTINGS}
    assert loaded == {key: written[key] for key in SETTINGS}
    assert all(type(loaded[key]) is kind for key, (kind, _) in SETTINGS.items())
