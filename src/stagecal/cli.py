"""Command-line front end: solve, simulate, oracle, beta, chart-error.

The solve pipeline consumes a JSON config pointing at four calibration
captures plus a target chart record, runs every solver stage, and writes the
bundle, a machine-readable report, per-variant chart CSVs, and comparison
PNGs into the output directory. Exit codes: 0 success, 1 solver failure
(including the soft N-unavailable fallback, which still writes all outputs),
2 input/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .calibration import (
    DEFAULT_COND_LIMIT_Q,
    DEFAULT_COND_LIMIT_SL,
    CalibrationBundle,
    GamutCounter,
    build_sl,
    build_srl,
    chart_error,
    check_weights,
    clamp_chart,
    compute_black_level,
    condition_number,
    predict_lit_chart,
    q_objective,
    solve_m,
    solve_n,
    solve_q,
    transform_content,
)
from .geometry import (
    DEFAULT_BETA_RESOLUTION,
    DEFAULT_HALF_EXTENT,
    as_direction,
    compute_beta,
    panel_form_factor_analytic,
    read_env_pfm,
    w_avg_from_env,
    w_avg_from_white,
)
from .imaging import (
    CHART_COLS,
    CHART_PATCHES,
    CHART_ROWS,
    DEFAULT_INSET,
    DEFAULT_WHITE_INDEX,
    TRIM_FRACTION,
    WHITE_REFLECTANCE,
    ChartGridSpec,
    ChartSamples,
    LinearImage,
    as_array,
    chart_image,
    extract_chart,
    read_chart_csv,
    read_pfm,
    render_comparison_chart,
    sample_roi,
    write_chart_csv,
    write_pfm,
    write_png16,
)
from .spectral import SCENARIOS, make_scene, oracle_calibration, write_scene

CHANNELS = ("red", "green", "blue")

ORACLE_PATCH_PIXELS = 16
ORACLE_PRIMARY_BLOCK = 32


class ConfigError(ValueError):
    """Bad or missing configuration / input files (exit code 2)."""


class StageError(RuntimeError):
    """A solver stage failed (exit code 1)."""


@contextmanager
def _stage(name: str):
    """Run a block as one named stage: any ValueError becomes StageError."""
    try:
        yield
    except ValueError as exc:
        raise StageError(f"stage {name}: {exc}") from exc


@contextmanager
def _checked(where: str):
    """Run a load-time check: a ValueError becomes ConfigError(f"{where}: {exc}")."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class ChartSource:
    image: Path
    grid: ChartGridSpec


@dataclass
class PipelineConfig:
    """A checked config: one field per choice, holding what the stages consume."""

    primaries_image: Path
    primary_rois: dict
    channel_charts: dict          # channel -> ChartSource
    targets: Path | ChartSource   # a chart CSV, or a photographed chart
    w_avg_rgb: np.ndarray | None  # explicit white patch value, optional
    env_map: tuple | None         # (path, unit facing); None takes w_avg from white
    white_reflectance: float
    half_extent: float
    beta_resolution: int
    cond_limit_sl: float
    cond_limit_q: float
    weights: np.ndarray | None
    black_level: tuple | None     # (path, roi)
    white_index: int
    output_dir: Path


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return doc[key]


def _scalar(doc: dict, key: str, kind: type, default, where: str = "config"):
    """A finite JSON number; an integer setting takes no fractional part."""
    value = doc.get(key, default)
    # type(), not isinstance(): JSON true parses to a bool, which is an int
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if finite and (kind is float or value == int(value)):
        return kind(value)
    noun = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{where}: {key} must be {noun}, got {value!r}")


def _array(doc: dict, key: str, shape: tuple, where: str) -> np.ndarray:
    value = _require(doc, key, where)
    with _checked(where):
        return as_array(value, shape, key)


def _section(doc: dict, key: str, where: str) -> dict:
    """A required JSON-object section."""
    value = _require(doc, key, where)
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: {key} must be a JSON object, got {value!r}")
    return value


def _path(doc: dict, key: str, base: Path, where: str) -> Path:
    """An input file's path, relative to the config's directory; an absolute path replaces it."""
    value = _require(doc, key, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: {key} must be a path string, got {value!r}")
    path = base / value
    if not path.is_file():
        raise ConfigError(f"{where}: input file not found: {path}")
    return path


def _chart_source(doc: dict, base: Path, where: str) -> ChartSource:
    corners = _require(doc, "corners", where)
    with _checked(where):
        grid = ChartGridSpec(corners, inset=_scalar(doc, "inset", float, DEFAULT_INSET, where))
    return ChartSource(image=_path(doc, "image", base, where), grid=grid)


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Parse a pipeline config JSON; CLI flag overrides win over file values."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or an integer literal over 4300 digits
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    if overrides:
        doc.update({k: v for k, v in overrides.items() if v is not None})
    base = path.parent

    primaries = _section(doc, "primaries", "config")
    rois = _section(primaries, "rois", "primaries")
    for channel in CHANNELS:
        # checked only: each ROI keeps the config's own numbers, which its bounds error quotes
        _array(rois, channel, (4,), "primaries.rois")
    primaries_image = _path(primaries, "image", base, "primaries")

    charts_doc = _section(doc, "channel_charts", "config")
    channel_charts = {
        c: _chart_source(_section(charts_doc, c, "channel_charts"), base, f"channel_charts.{c}")
        for c in CHANNELS
    }

    targets_doc = _section(doc, "targets", "config")
    if "csv" in targets_doc:
        targets = _path(targets_doc, "csv", base, "targets")
    elif "image" in targets_doc:
        targets = _chart_source(targets_doc, base, "targets")
    else:
        raise ConfigError("targets: need either 'csv' or 'image'")

    w_doc = _section(doc, "w_avg", "config") if doc.get("w_avg") is not None else {"mode": "white_patch"}
    mode = w_doc.get("mode")
    env_map = w_rgb = None
    if mode == "env_map":
        with _checked("w_avg.facing"):
            facing = as_direction(_array(w_doc, "facing", (3,), "w_avg"))
        env_map = (_path(w_doc, "path", base, "w_avg"), facing)
    elif mode == "white_patch":
        if "rgb" in w_doc:
            w_rgb = _array(w_doc, "rgb", (3,), "w_avg")
    else:
        raise ConfigError(f"w_avg.mode must be 'white_patch' or 'env_map', got {mode!r}")

    weights = doc.get("weights")
    if weights is not None:
        with _checked("config"):
            weights = check_weights(weights)

    black_level = None
    if doc.get("black_level") is not None:
        black_doc = _section(doc, "black_level", "config")
        _array(black_doc, "roi", (4,), "black_level")
        black_level = (_path(black_doc, "image", base, "black_level"), tuple(black_doc["roi"]))

    white_index = _scalar(doc, "white_index", int, DEFAULT_WHITE_INDEX)
    if not 0 <= white_index < CHART_PATCHES:
        raise ConfigError(f"config: white_index must be in [0, {CHART_PATCHES}), got {white_index}")

    output_dir = doc.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"config: output_dir must be a path string, got {output_dir!r}")

    return PipelineConfig(
        primaries_image=primaries_image,
        primary_rois={c: tuple(rois[c]) for c in CHANNELS},
        channel_charts=channel_charts,
        targets=targets,
        w_avg_rgb=w_rgb,
        env_map=env_map,
        white_reflectance=_scalar(doc, "white_reflectance", float, WHITE_REFLECTANCE),
        half_extent=_scalar(doc, "half_extent", float, DEFAULT_HALF_EXTENT),
        beta_resolution=_scalar(doc, "beta_resolution", int, DEFAULT_BETA_RESOLUTION),
        cond_limit_sl=_scalar(doc, "cond_limit_sl", float, DEFAULT_COND_LIMIT_SL),
        cond_limit_q=_scalar(doc, "cond_limit_q", float, DEFAULT_COND_LIMIT_Q),
        weights=weights,
        black_level=black_level,
        white_index=white_index,
        output_dir=base / output_dir,
    )


def _sample_rois(path, *rois) -> list:
    """Trimmed-mean RGB of each ROI of one image, read here and dropped on return."""
    image = LinearImage(read_pfm(path))
    return [sample_roi(image, roi) for roi in rois]


def _extract(source: ChartSource, white_index: int) -> ChartSamples:
    return extract_chart(LinearImage(read_pfm(source.image)), source.grid, white_index=white_index)


def lit_chart_variants(srl, m, q, w_avg, beta, white_index) -> tuple[dict, int]:
    """Simulated lit chart for both correction variants, negatives clamped."""
    predicted = predict_lit_chart(srl, m, w_avg, beta)
    charts = {}
    clamped = 0
    for name, values in (("lit_m_only", predicted), ("lit_m_q", predicted @ np.asarray(q).T)):
        charts[name], n = clamp_chart(values, white_index)
        clamped += n
    return charts, clamped


def load_inputs(config: PipelineConfig):
    """Read the per-channel charts, the targets and w_avg; returns (srl, targets, w_avg)."""
    with _stage("channel_charts"):
        charts = [_extract(config.channel_charts[c], config.white_index) for c in CHANNELS]
    with _stage("build_srl"):
        srl = build_srl(*charts)
    with _stage("targets"):
        if isinstance(config.targets, ChartSource):
            targets = _extract(config.targets, config.white_index)
        else:
            targets = read_chart_csv(config.targets, config.white_index)
    with _stage("w_avg"):
        if config.env_map is not None:
            env_path, facing = config.env_map
            w_avg = w_avg_from_env(read_env_pfm(env_path), facing)
        else:
            white = config.w_avg_rgb if config.w_avg_rgb is not None else targets.white
            w_avg = w_avg_from_white(white, config.white_reflectance)
    return srl, targets, w_avg


def run_solve(config: PipelineConfig):
    """Execute every pipeline stage; returns (bundle, report, exit_code)."""
    with _stage("primaries"):
        primary_rgb = _sample_rois(config.primaries_image, *(config.primary_rois[c] for c in CHANNELS))
    with _stage("build_sl"):
        sl = build_sl(*primary_rgb)
    with _stage("solve_m"):
        m = solve_m(sl, config.cond_limit_sl)

    srl, targets, w_avg = load_inputs(config)

    with _stage("beta"):
        beta = compute_beta(config.half_extent, config.beta_resolution)
    with _stage("solve_q"):
        q = solve_q(srl, m, w_avg, targets, beta, config.weights)
    residual = q_objective(q, srl, m, w_avg, targets, beta, config.weights)
    with _stage("solve_n"):
        n = solve_n(m, q, config.cond_limit_q)

    if config.black_level is not None:
        with _stage("black_level"):
            (b_camera,) = _sample_rois(*config.black_level)
            w_camera = sl @ np.ones(3)  # camera's view of full white: sum of the primaries
            black_offset = compute_black_level(b_camera, w_camera)
    else:
        b_camera = np.zeros(3)
        black_offset = np.zeros(3)

    with _stage("bundle"):
        pipeline = CalibrationBundle(m=m, q=q, n=n, beta=beta, black_offset=black_offset)
        no_black = CalibrationBundle(m=m, q=q, n=n, beta=beta, black_offset=np.zeros(3))

    # Simulated charts for the report.
    lit_charts, clamped = lit_chart_variants(srl, m, q, w_avg, beta, config.white_index)
    counter = GamutCounter()
    displayed = {}
    for name, bundle_variant, use_counter in (
        ("displayed_no_black_level", no_black, None),
        ("displayed_with_black_level", pipeline, counter),
    ):
        panel = transform_content(targets.patches, "in_frustum", bundle_variant, use_counter)
        recorded = panel @ sl.T + b_camera
        displayed[name], extra = clamp_chart(recorded @ q.T, config.white_index)
        clamped += extra

    diagnostics = {
        "cond_SL": condition_number(sl),
        "cond_Q": condition_number(q),
        "residual": residual,
        "out_of_gamut_fraction": counter.fraction,
        "negative_clamped_components": clamped,
        "n_available": n is not None,
    }
    bundle = replace(pipeline, diagnostics=diagnostics)

    all_charts = {**lit_charts, **displayed}
    errors = {
        name: dict(zip("rgb", chart_error(targets, chart).tolist()))
        for name, chart in all_charts.items()
    }
    report = {
        "errors": errors,
        "diagnostics": diagnostics,
        "beta": {
            "value": beta,
            "half_extent": config.half_extent,
            "resolution": config.beta_resolution,
            "analytic_form_factor": panel_form_factor_analytic(config.half_extent),
            "exact_1m_panel_half_extent": 0.5,
            "exact_1m_panel_form_factor": panel_form_factor_analytic(0.5),
            "note": (
                "default half_extent 0.6 reproduces the 54-of-90-pixel cube-face "
                "panel construction; a 1m x 1m panel at 1m distance is half_extent 0.5"
            ),
        },
        "metadata": {
            "patch_statistic": "trimmed_mean",
            "trim_fraction": TRIM_FRACTION,
            "white_index": config.white_index,
            "white_reflectance": config.white_reflectance,
            "w_avg_mode": "white_patch" if config.env_map is None else "env_map",
            "black_level_measured": config.black_level is not None,
        },
    }

    _write_outputs(config, bundle, report, targets, all_charts)
    return bundle, report, 0 if n is not None else 1


def _write_chart(out: Path, name: str, targets: ChartSamples, chart: ChartSamples):
    """Write `<name>.csv` and `comparison_<name>.png`; returns both paths."""
    csv_path = out / f"{name}.csv"
    png_path = out / f"comparison_{name}.png"
    write_chart_csv(csv_path, chart)
    write_png16(png_path, render_comparison_chart(targets, chart))
    return csv_path, png_path


def _write_outputs(config, bundle, report, targets, charts) -> None:
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    (out / "bundle.json").write_text(bundle.to_json())
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    write_chart_csv(out / "targets.csv", targets)
    for name, chart in charts.items():
        _write_chart(out, name, targets, chart)


def run_oracle(seed: int, scenario: str, outdir) -> Path:
    """Generate a deterministic synthetic fixture directory for cmd solve."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scene = make_scene(seed, scenario)
    beta = compute_beta(DEFAULT_HALF_EXTENT, DEFAULT_BETA_RESOLUTION)
    calib = oracle_calibration(scene, beta)

    ps = ORACLE_PATCH_PIXELS
    block = ORACLE_PRIMARY_BLOCK
    primaries = np.zeros((block, 3 * block, 3))
    for c in range(3):
        primaries[:, c * block : (c + 1) * block] = calib.sl[:, c]
    write_pfm(outdir / "primaries.pfm", primaries)

    for c, name in enumerate(CHANNELS):
        write_pfm(outdir / f"chart_{name}.pfm", chart_image(calib.srl.matrices[:, :, c], ps))

    write_chart_csv(outdir / "targets.csv", calib.targets)

    # Bounce off the switched-off in-frustum panels: albedo times the camera's
    # view of the stage reproducing the environment.
    rng = np.random.default_rng([seed, 97])
    albedo = float(rng.uniform(0.04, 0.10))
    m = np.linalg.inv(calib.sl)
    b_camera = np.maximum(albedo * (calib.sl @ (m @ calib.w_avg)), 0.0)
    write_pfm(outdir / "black.pfm", np.broadcast_to(b_camera, (ps, ps, 3)).copy())

    write_scene(
        outdir / "scene",
        scene,
        extra_manifest={
            "seed": seed,
            "scenario": scenario,
            "beta": beta,
            "half_extent": DEFAULT_HALF_EXTENT,
            "beta_resolution": DEFAULT_BETA_RESOLUTION,
            "albedo": albedo,
        },
    )

    margin = (block - 24) // 2
    chart_h, chart_w = CHART_ROWS * ps, CHART_COLS * ps
    config = {
        "primaries": {
            "image": "primaries.pfm",
            "rois": {
                name: [c * block + margin, margin, 24, 24] for c, name in enumerate(CHANNELS)
            },
        },
        "channel_charts": {
            name: {
                "image": f"chart_{name}.pfm",
                "corners": [[0, 0], [chart_w, 0], [chart_w, chart_h], [0, chart_h]],
                "inset": DEFAULT_INSET,
            }
            for name in CHANNELS
        },
        "targets": {"csv": "targets.csv"},
        "w_avg": {"mode": "white_patch"},
        "white_reflectance": WHITE_REFLECTANCE,
        "half_extent": DEFAULT_HALF_EXTENT,
        "beta_resolution": DEFAULT_BETA_RESOLUTION,
        "cond_limit_sl": DEFAULT_COND_LIMIT_SL,
        "cond_limit_q": DEFAULT_COND_LIMIT_Q,
        "black_level": {"image": "black.pfm", "roi": [0, 0, ps, ps]},
        "white_index": DEFAULT_WHITE_INDEX,
        "output_dir": "out",
    }
    (outdir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
    return outdir


def run_simulate(config: PipelineConfig, bundle_path, variant: str, outdir=None):
    """Re-predict the lit chart from a saved bundle; writes CSV and PNG."""
    bundle_path = Path(bundle_path)
    if not bundle_path.is_file():
        raise ConfigError(f"bundle file not found: {bundle_path}")
    try:
        bundle = CalibrationBundle.from_json(bundle_path.read_text())
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid bundle {bundle_path}: {exc}") from exc

    srl, targets, w_avg = load_inputs(config)
    name = {"m-only": "lit_m_only", "m-q": "lit_m_q"}[variant]
    lit, _ = lit_chart_variants(srl, bundle.m, bundle.q, w_avg, bundle.beta, config.white_index)
    chart = lit[name]

    outdir = Path(outdir) if outdir is not None else config.output_dir
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path, png_path = _write_chart(outdir, f"simulated_{name}", targets, chart)
    return chart, csv_path, png_path


def run_chart_error(target_csv, measured_csv, white_index: int = DEFAULT_WHITE_INDEX) -> dict:
    for p in (target_csv, measured_csv):
        if not Path(p).is_file():
            raise ConfigError(f"chart CSV not found: {p}")
    with _stage("target"):
        target = read_chart_csv(target_csv, white_index)
    with _stage("measured"):
        measured = read_chart_csv(measured_csv, white_index)
    return dict(zip("rgb", chart_error(target, measured).tolist()))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stagecal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the full calibration pipeline")
    solve.add_argument("--config", required=True)
    solve.add_argument("--output-dir", default=None)
    solve.add_argument("--half-extent", type=float, default=None)
    solve.add_argument("--beta-resolution", type=int, default=None)
    solve.add_argument("--cond-limit-sl", type=float, default=None)
    solve.add_argument("--cond-limit-q", type=float, default=None)
    solve.add_argument("--white-reflectance", type=float, default=None)
    solve.add_argument("--white-index", type=int, default=None)

    simulate = sub.add_parser("simulate", help="simulate the lit chart from a saved bundle")
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--bundle", required=True)
    simulate.add_argument("--variant", choices=("m-only", "m-q"), default="m-q")
    simulate.add_argument("--output-dir", default=None)

    oracle = sub.add_parser("oracle", help="generate a synthetic calibration fixture")
    oracle.add_argument("--seed", type=int, required=True)
    oracle.add_argument("--scenario", choices=SCENARIOS, default="broad")
    oracle.add_argument("--outdir", required=True)

    beta = sub.add_parser("beta", help="print the panel scale factor")
    beta.add_argument("--half-extent", type=float, default=DEFAULT_HALF_EXTENT)
    beta.add_argument("--resolution", type=int, default=DEFAULT_BETA_RESOLUTION)

    err = sub.add_parser("chart-error", help="per-channel error between two chart CSVs")
    err.add_argument("--target", required=True)
    err.add_argument("--measured", required=True)
    err.add_argument("--white-index", type=int, default=DEFAULT_WHITE_INDEX)

    return parser


def _run(args) -> int:
    """Run one parsed command; returns its exit code."""
    if args.command == "solve":
        # every solve flag besides --config is a config key of the same name
        overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
        config = load_config(args.config, overrides)
        _, _, code = run_solve(config)
        if code != 0:
            warnings.warn("N unavailable, in-frustum fallback N := M")
        print(f"wrote {config.output_dir}")
        return code
    if args.command == "simulate":
        config = load_config(args.config)
        _, csv_path, png_path = run_simulate(config, args.bundle, args.variant, args.output_dir)
        print(f"wrote {csv_path} and {png_path}")
        return 0
    if args.command == "oracle":
        outdir = run_oracle(args.seed, args.scenario, args.outdir)
        print(f"wrote {outdir}")
        return 0
    if args.command == "beta":
        with _stage("beta"):
            beta = compute_beta(args.half_extent, args.resolution)
        print(repr(beta))
        return 0
    if args.command == "chart-error":
        metrics = run_chart_error(args.target, args.measured, args.white_index)
        print(json.dumps(metrics, indent=2, sort_keys=True))
        return 0
    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    """Run a command; its warnings, then any error, go to stderr one line each."""
    args = _build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = _run(args)
        except (ConfigError, OSError) as exc:
            code, error = 2, exc
        except StageError as exc:
            code, error = 1, exc
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
