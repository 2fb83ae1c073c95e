import argparse
import ast
import contextlib
import inspect
import io
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stagecal
from stagecal.calibration import CalibrationBundle, predict_lit_chart
from stagecal.cli import _build_parser, load_config, main, run_oracle, run_solve
from stagecal.imaging import (
    ChartSamples,
    LinearImage,
    chart_image,
    extract_chart,
    read_chart_csv,
    read_pfm,
    write_pfm,
)
from stagecal.spectral import brute_force_q

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
        src = config.channel_charts[channel]
        img = LinearImage(read_pfm(src.image))
        charts.append(extract_chart(img, src.grid, white_index=config.white_index))
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
        targets = read_chart_csv(fx["config"].targets, fx["config"].white_index)
        predicted = predict_lit_chart(srl, bundle.m, targets.white / 0.9, bundle.beta)
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
        from stagecal.calibration import chart_error

        fx = fixtures["broad"]
        out = fx["config"].output_dir
        targets = read_chart_csv(out / "targets.csv")
        for variant, expect in fx["report"]["errors"].items():
            measured = read_chart_csv(out / f"{variant}.csv")
            err = chart_error(targets, measured)
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

    def test_flag_overrides_file(self, fixtures, tmp_path, capsys):
        # raising the Q condition limit turns the monochromatic soft failure
        # into a (numerically dubious but permitted) full solve
        fx = fixtures["monochromatic"]
        code = main(
            [
                "solve",
                "--config", str(fx["dir"] / "config.json"),
                "--output-dir", str(tmp_path / "forced"),
                "--cond-limit-q", "1e30",
            ]
        )
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


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


class TestErrorPaths:
    def test_beta_above_one_fails_its_stage(self, fixtures, tmp_path, capsys):
        # a 1e6 half extent integrates to beta = 1 + 4e-7, which the bundle rejects
        out = tmp_path / "out"
        argv = ["solve", "--config", str(fixtures["broad"]["dir"] / "config.json"),
                "--output-dir", str(out), "--half-extent", "1e6"]
        assert main(argv) == 1
        assert _one_error_line(capsys).startswith("error: stage bundle: beta must be in (0, 1]")
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
        "flag, value", [("--resolution", "10"), ("--resolution", "100000"), ("--half-extent", "-1")]
    )
    def test_beta_out_of_range_fails_its_stage(self, capsys, flag, value):
        assert main(["beta", flag, value]) == 1
        assert _one_error_line(capsys).startswith("error: stage beta: ")

    def test_solve_beta_resolution_above_bound_fails_its_stage(self, fixtures, tmp_path, capsys):
        argv = ["solve", "--config", str(fixtures["broad"]["dir"] / "config.json"),
                "--output-dir", str(tmp_path / "out"), "--beta-resolution", "100000"]
        assert main(argv) == 1
        assert _one_error_line(capsys) == "error: stage beta: resolution must be <= 4096, got 100000"

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
        assert _one_error_line(capsys).startswith(f"error: config {config}: invalid JSON (")

    def test_integral_float_is_an_integer_setting(self, fixtures, tmp_path):
        fixture_dir = _copy_fixture(fixtures["broad"], tmp_path, white_index=18.0)
        assert load_config(fixture_dir / "config.json").white_index == 18

    def test_warnings_printed_before_a_stage_error(self, fixtures, tmp_path, capsys):
        # the black level warns, then beta = 1 + 4e-7 fails the bundle stage
        argv = ["solve", "--config", str(fixtures["monochromatic"]["dir"] / "config.json"),
                "--output-dir", str(tmp_path / "out"), "--half-extent", "1e6"]
        assert main(argv) == 1
        warning, error = capsys.readouterr().err.splitlines()
        assert warning.startswith("warning: black level [")
        assert error.startswith("error: stage bundle: beta must be in (0, 1]")

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
            (["w_avg"], {"mode": "env_map", "path": "env.pfm", "facing": "x"}, "w_avg: facing"),
            (["primaries", "rois", "red"], "x", "primaries.rois: red"),
            (["primaries", "rois", "green"], [0, 0, 24], "primaries.rois: green"),
            (["black_level", "roi"], "x", "black_level: roi"),
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
            # checks that need no image run at load, not in a stage
            (["channel_charts", "red", "corners"], [[0, 0], [96, 64], [96, 0], [0, 64]],
             "channel_charts.red: chart corners"),
            (["channel_charts", "red", "inset"], 0.6, "channel_charts.red: inset 0.6"),
            (["white_index"], 30, "config: white_index"),
            (["weights"], [1.0, 1.0] + [0.0] * 22, "config: need at least 3"),
            (["w_avg"], {"mode": "env_map", "path": "primaries.pfm", "facing": [0, 0, 2]},
             "w_avg.facing: direction must be"),
        ],
        ids=["weights-text", "weights-5", "weights-negative", "corners-text", "corners-3", "rgb-text",
             "facing-text", "roi-text", "roi-3", "black-roi-text", "primaries-number", "rois-number",
             "channel-charts-number", "channel-number", "targets-number", "targets-csv-number",
             "targets-image-number", "chart-image-number", "primaries-image-number", "env-path-number",
             "black-image-number", "output-dir-number", "output-dir-null", "corners-not-convex",
             "inset-0.6", "white-index-30", "weights-2-positive", "facing-not-unit"],
    )
    def test_malformed_config_array_or_section(self, fixtures, tmp_path, capsys, path, value, named):
        fixture_dir = _copy_fixture_with(fixtures["broad"], tmp_path, path, value)
        assert main(["solve", "--config", str(fixture_dir / "config.json")]) == 2
        assert _one_error_line(capsys).startswith(f"error: {named} ")


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


@pytest.fixture(scope="module")
def mutation_bases(tmp_path_factory):
    """Two valid configs over one broad fixture: white-patch w_avg and CSV targets,
    and env-map w_avg with targets photographed; both weighted, at beta_resolution 64."""
    fixture_dir = run_oracle(2, "broad", tmp_path_factory.mktemp("mutations") / "broad")
    targets = read_chart_csv(fixture_dir / "targets.csv")
    write_pfm(fixture_dir / "env.pfm", np.broadcast_to(targets.white / 0.9, (64, 128, 3)).copy())
    write_pfm(fixture_dir / "targets.pfm", chart_image(targets.patches, 16))
    white = json.loads((fixture_dir / "config.json").read_text())
    white.update(beta_resolution=64, output_dir=str(fixture_dir / "out"), weights=[1.0] * 24)
    white["w_avg"]["rgb"] = targets.white.tolist()
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


def _mutants(value):
    """One-field mutations of a config value: type, shape, sign, NaN and bounds."""
    common = [st.just(_DELETE), _WRONG_TYPES, _NUMBERS]
    if isinstance(value, list):
        flat = np.asarray(value, dtype=float)

        def with_element(i, x):
            out = flat.copy()
            out.flat[i] = x
            return out.tolist()

        return st.one_of(
            *common,
            st.sampled_from([value[:-1], value + value[-1:], [value]]),
            st.builds(with_element, st.integers(0, flat.size - 1), _NUMBERS),
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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", "--config", str(config)])
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


class TestAlternateConfigRoutes:
    def test_env_map_w_avg_source(self, fixtures, tmp_path):
        from stagecal.imaging import write_pfm
        from stagecal.cli import run_solve

        fx = fixtures["broad"]
        targets = read_chart_csv(fx["dir"] / "targets.csv")
        # uniform environment whose diffuse integral reproduces the white route
        w_avg = targets.white / 0.9
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


def test_readme_config_schema_lists_exactly_the_oracle_config_keys(fixtures):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema\n\n```json\n(.*?)```", readme, flags=re.S).group(1)
    documented = set(re.findall(r'^  "(\w+)":', block, flags=re.M))
    written = json.loads((fixtures["broad"]["dir"] / "config.json").read_text())
    assert documented and documented == set(written)
