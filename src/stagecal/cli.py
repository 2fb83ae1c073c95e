"""Command-line front end: solve, simulate, oracle, beta, chart-error.

The solve pipeline consumes a JSON config pointing at four calibration
captures plus a target chart record, runs every solver stage, and writes the
bundle, a machine-readable report, per-variant chart CSVs, and comparison
PNGs into the output directory. Exit codes: 0 success, 1 solver failure
(including the soft N-unavailable fallback, which still writes all outputs),
2 input/config error.

A missing input file is one rule for every command: `<flag or section>:
input file not found: <path>`, naming the flag (`--config`, `--bundle`,
`--target`, `--measured`) or the config section that gave the path. An error
line repeats an outside value abbreviated, and so does a path too long for
the system to name a file (`[Errno 36] File name too long: '...'`); any other
system error names its path whole.
"""

from __future__ import annotations

import argparse
import errno
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
    check_image,
    check_roi,
    check_white_index,
    extract_chart,
    is_number,
    read_chart_csv,
    read_pfm,
    render_comparison_chart,
    sample_roi,
    short_repr,
    write_chart_csv,
    write_pfm,
    write_png16,
)
from .spectral import SCENARIOS, make_scene, oracle_calibration, write_scene

CHANNELS = ("red", "green", "blue")

ORACLE_PATCH_PIXELS = 16
ORACLE_PRIMARY_BLOCK = 32

# The top-level settings, key -> (kind, default): load_config reads each one
# and the oracle's config.json lists each one, so a default is written here only.
SETTINGS = {
    "white_reflectance": (float, WHITE_REFLECTANCE),
    "half_extent": (float, DEFAULT_HALF_EXTENT),
    "beta_resolution": (int, DEFAULT_BETA_RESOLUTION),
    "cond_limit_sl": (float, DEFAULT_COND_LIMIT_SL),
    "cond_limit_q": (float, DEFAULT_COND_LIMIT_Q),
    "white_index": (int, DEFAULT_WHITE_INDEX),
}


class ConfigError(Exception):
    """Bad or missing configuration / input files (exit code 2)."""


class StageError(Exception):
    """A solver stage failed (exit code 1)."""


@contextmanager
def _errors(kind: type, where: str):
    """Run a block: a ValueError raised in it becomes kind(f"{where}: {exc}").

    Neither ConfigError nor StageError is a ValueError, so one raised in the
    block passes through unchanged.
    """
    try:
        yield
    except ValueError as exc:
        raise kind(f"{where}: {exc}") from exc


def _stage(name: str):
    """Run a block as one named stage: a ValueError becomes StageError(f"stage {name}: {exc}")."""
    return _errors(StageError, f"stage {name}")


class _Section(dict):
    """A JSON object of a config: it records each key get() is asked for, and names itself and its paths' directory.

    `where` is "config" at the top level; section(key) names a child `key`
    under it and `parent.key` below that. Relative paths resolve against
    `base`, the config's directory. load_config reads through get() only, so
    check_read finds every key it did not read.
    """

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()
        self.where, self.base = "config", Path()

    def get(self, key, *default):
        self.read.add(key)
        return super().get(key, *default)

    def require(self, key: str):
        if key not in self:
            raise ConfigError(f"{self.where}: missing required key {key!r}")
        return self.get(key)

    def expect(self, ok: bool, value, key: str, rule: str):
        """`value` itself if `ok`; else ConfigError(f"{where}: {key} must be {rule}, got ..."), value abbreviated."""
        if not ok:
            raise ConfigError(f"{self.where}: {key} must be {rule}, got {short_repr(value)}")
        return value

    def scalar(self, key: str, kind: type, default):
        value = self.get(key, default)
        noun = "an integer" if kind is int else "a finite number"
        return kind(self.expect(is_number(value, kind), value, key, noun))

    def check_key(self, key: str, check, *args, **options):
        """check(self[key], *args, key, **options), for checks such as as_array; a ValueError names `where`."""
        value = self.require(key)
        with _errors(ConfigError, self.where):
            return check(value, *args, key, **options)

    def section(self, key: str) -> _Section:
        """A required JSON-object section."""
        child = self.require(key)
        self.expect(isinstance(child, _Section), child, key, "a JSON object")
        child.where, child.base = key if self.where == "config" else f"{self.where}.{key}", self.base
        return child

    def path(self, key: str) -> Path:
        """An input file's path, relative to the config's directory; an absolute path replaces it."""
        value = self.require(key)
        return _input_file(self.base / self.expect(isinstance(value, str), value, key, "a path string"), self.where)

    def chart_source(self) -> tuple:
        """A photographed chart: (image path, ChartGridSpec)."""
        corners = self.require("corners")
        with _errors(ConfigError, self.where):
            grid = ChartGridSpec(corners, inset=self.scalar("inset", float, DEFAULT_INSET))
        return self.path("image"), grid

    def check_read(self) -> None:
        """ConfigError naming the first key of this section, or of a section read from it, that was not read."""
        for key, value in self.items():
            if key not in self.read:
                raise ConfigError(f"{self.where}: unknown key {short_repr(key)}")
            if isinstance(value, _Section):
                value.check_read()


@dataclass
class PipelineConfig:
    """A checked config: one field per choice, holding what the stages consume."""

    primaries: tuple                  # (image path, red ROI, green ROI, blue ROI)
    channel_charts: dict              # channel -> (image path, ChartGridSpec)
    targets: Path | tuple             # a chart CSV, or a photographed chart's (image path, ChartGridSpec)
    w_avg: tuple | np.ndarray | None  # an env map's (path, unit facing), a white patch RGB, or None: the targets' white
    white_reflectance: float
    half_extent: float
    beta_resolution: int
    cond_limit_sl: float
    cond_limit_q: float
    weights: np.ndarray               # all ones without a weights key
    black_level: tuple | None         # (path, roi)
    white_index: int
    output_dir: Path


def _input_file(path, where: str) -> Path:
    """`path` as a Path if it names a regular file; a device or a directory is no input file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{where}: input file not found: {path}")
    return path


def _read_json(path, flag: str, parse):
    """parse(text) of the input file `path`, given by `flag`; a ValueError reads `invalid <flag's noun> <path>: ...`."""
    path = _input_file(path, flag)
    try:
        return parse(path.read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON, an int over 4300 digits, or too deep nesting
        raise ConfigError(f"invalid {flag.removeprefix('--')} {path}: {exc}") from exc


def load_config(path) -> PipelineConfig:
    """Parse and check a pipeline config JSON: every setting comes from the file, and every key is read."""
    doc = _read_json(path, "--config", lambda text: json.loads(text, object_hook=_Section))
    if not isinstance(doc, _Section):
        raise ConfigError(f"config: the top level must be a JSON object, got {short_repr(doc)}")
    doc.base = Path(path).parent

    primaries_doc = doc.section("primaries")
    rois_doc = primaries_doc.section("rois")
    rois = [rois_doc.check_key(c, check_roi) for c in CHANNELS]
    primaries = (primaries_doc.path("image"), *rois)

    charts_doc = doc.section("channel_charts")
    channel_charts = {c: charts_doc.section(c).chart_source() for c in CHANNELS}

    targets_doc = doc.section("targets")
    if "csv" in targets_doc:
        targets = targets_doc.path("csv")
    elif "image" in targets_doc:
        targets = targets_doc.chart_source()
    else:
        raise ConfigError(f"{targets_doc.where}: need either 'csv' or 'image'")

    # a key that is present holds a valid value: a null section or array is no default
    w_doc = doc.section("w_avg") if "w_avg" in doc else {"mode": "white_patch"}
    mode = w_doc.get("mode")
    if mode == "env_map":
        with _errors(ConfigError, f"{w_doc.where}.facing"):
            facing = as_direction(w_doc.check_key("facing", as_array, (3,)))
        w_avg = (w_doc.path("path"), facing)
    elif mode == "white_patch":  # an explicit white is light, so never negative
        w_avg = w_doc.check_key("rgb", as_array, (3,), nonneg=True) if "rgb" in w_doc else None
    else:
        raise ConfigError(f"{w_doc.where}.mode must be 'white_patch' or 'env_map', got {short_repr(mode)}")

    with _errors(ConfigError, doc.where):
        weights = check_weights(as_array(doc.get("weights"), (CHART_PATCHES,), "weights") if "weights" in doc else None)

    black_level = None
    if "black_level" in doc:
        black_doc = doc.section("black_level")
        roi = black_doc.check_key("roi", check_roi)
        black_level = (black_doc.path("image"), roi)

    output_dir = doc.get("output_dir", "out")
    doc.expect(isinstance(output_dir, str), output_dir, "output_dir", "a path string")

    settings = {key: doc.scalar(key, kind, default) for key, (kind, default) in SETTINGS.items()}
    for key in ("cond_limit_sl", "cond_limit_q"):  # >= 1, as every condition number is
        doc.expect(settings[key] >= 1, settings[key], key, ">= 1")
    with _errors(ConfigError, doc.where):
        check_white_index(settings["white_index"])
    doc.check_read()  # a key the chosen form does not read, such as a misspelt one

    return PipelineConfig(
        primaries=primaries,
        channel_charts=channel_charts,
        targets=targets,
        w_avg=w_avg,
        weights=weights,
        black_level=black_level,
        output_dir=doc.base / output_dir,
        **settings,
    )


def _read_image(path) -> LinearImage:
    return check_image(LinearImage, read_pfm(path), path)


def _sample_rois(path, *rois) -> list:
    """Trimmed-mean RGB of each ROI of one image, read here and dropped on return."""
    image = _read_image(path)
    return [sample_roi(image, roi) for roi in rois]


def _extract(path, grid: ChartGridSpec) -> ChartSamples:
    return extract_chart(_read_image(path), grid)


def load_inputs(config: PipelineConfig):
    """Read the per-channel charts, the targets and w_avg; returns (srl, targets, w_avg)."""
    with _stage("channel_charts"):
        srl = build_srl(*(_extract(*config.channel_charts[c]) for c in CHANNELS))
    with _stage("targets"):
        targets = read_chart_csv(config.targets) if isinstance(config.targets, Path) else _extract(*config.targets)
    with _stage("w_avg"):
        if isinstance(config.w_avg, tuple):
            env_path, facing = config.w_avg
            w_avg = w_avg_from_env(read_env_pfm(env_path), facing)
        else:
            white = targets.white(config.white_index) if config.w_avg is None else config.w_avg
            w_avg = w_avg_from_white(white, config.white_reflectance)
    return srl, targets, w_avg


def lit_charts(predicted: np.ndarray, q: np.ndarray) -> dict:
    """The lit chart as the camera records it, unclamped: from M alone ("lit_m_only") and through Q ("lit_m_q").

    `predicted` is predict_lit_chart's (24, 3) chart; solve and simulate both
    read their lit charts from this table.
    """
    return {"lit_m_only": predicted, "lit_m_q": predicted @ q.T}


def run_solve(config: PipelineConfig):
    """Execute every pipeline stage; returns (bundle, report, exit_code)."""
    with _stage("beta"):  # settings only, so first: no capture is read yet, nor any scratch left behind
        beta = compute_beta(config.half_extent, config.beta_resolution)
    with _stage("primaries"):
        sl = build_sl(*_sample_rois(*config.primaries))
    with _stage("solve_m"):
        m = solve_m(sl, config.cond_limit_sl)

    srl, targets, w_avg = load_inputs(config)

    with _stage("solve_q"):
        predicted = predict_lit_chart(srl, m, w_avg, beta)
        q = solve_q(predicted, targets, config.weights)
        residual = q_objective(q, predicted, targets, config.weights)
    with _stage("solve_n"):
        n = solve_n(m, q, config.cond_limit_q)

    b_camera = black_offset = np.zeros(3)  # no black_level section: no bounce measured, none subtracted
    if config.black_level is not None:
        with _stage("black_level"):
            (b_camera,) = _sample_rois(*config.black_level)
            w_camera = sl @ np.ones(3)  # camera's view of full white: sum of the primaries
            black_offset = compute_black_level(b_camera, w_camera)

    with _stage("report"):
        bundle = CalibrationBundle(m=m, q=q, n=n, beta=beta, black_offset=black_offset)
        counter = GamutCounter()
        # each chart as the camera records it, before negatives are clamped
        unclamped = lit_charts(predicted, q)
        for name, variant, use_counter in (
            ("displayed_no_black_level", replace(bundle, black_offset=np.zeros(3)), None),
            ("displayed_with_black_level", bundle, counter),
        ):
            panel = transform_content(targets.patches, "in_frustum", variant, use_counter)
            unclamped[name] = (panel @ sl.T + b_camera) @ q.T
        charts, counts = zip(*map(clamp_chart, unclamped.values()))
        all_charts = dict(zip(unclamped, charts))

        diagnostics = {
            "cond_SL": condition_number(sl),
            "cond_Q": condition_number(q),
            "residual": residual,
            "out_of_gamut_fraction": counter.out_of_gamut / counter.total,
            "negative_clamped_components": sum(counts),
            "n_available": n is not None,
        }
        bundle = replace(bundle, diagnostics=diagnostics)
        errors = {
            name: dict(zip("rgb", chart_error(targets, chart, config.white_index).tolist()))
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
                "w_avg_mode": "env_map" if isinstance(config.w_avg, tuple) else "white_patch",
                "black_level_measured": config.black_level is not None,
            },
        }
    with _stage("outputs"):
        # a non-finite value in either JSON document raises ValueError here, before any write
        documents = {
            "bundle.json": bundle.to_json(),
            "report.json": json.dumps(report, indent=2, sort_keys=True, allow_nan=False),
        }
        _write_charts(config.output_dir, targets, all_charts, config.white_index)
        write_chart_csv(config.output_dir / "targets.csv", targets)
        for name, text in documents.items():
            (config.output_dir / name).write_text(text)
    return bundle, report, 0 if n is not None else 1


def _write_charts(out: Path, targets: ChartSamples, charts: dict, white_index: int) -> list:
    """Make `out`, then write each chart as `<name>.csv` and `comparison_<name>.png`; returns the paths in that order."""
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, chart in charts.items():
        paths += [out / f"{name}.csv", out / f"comparison_{name}.png"]
        write_chart_csv(paths[-2], chart)
        write_png16(paths[-1], render_comparison_chart(targets, chart, white_index))
    return paths


def run_oracle(seed: int, scenario: str, outdir) -> Path:
    """Generate a deterministic synthetic fixture directory for cmd solve."""
    if seed < 0:
        raise ConfigError(f"oracle: seed must be >= 0, got {short_repr(seed)}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    defaults = {key: default for key, (_, default) in SETTINGS.items()}
    beta = compute_beta(defaults["half_extent"], defaults["beta_resolution"])  # first: its map then meets no scratch
    scene = make_scene(seed, scenario)
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
        outdir / "scene.json",
        scene,
        provenance={
            "seed": seed,
            "scenario": scenario,
            "beta": beta,
            "half_extent": defaults["half_extent"],
            "beta_resolution": defaults["beta_resolution"],
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
        "black_level": {"image": "black.pfm", "roi": [0, 0, ps, ps]},
        "output_dir": "out",
        **defaults,
    }
    (outdir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True, allow_nan=False))
    return outdir


def run_simulate(config: PipelineConfig, bundle_path, variant: str):
    """Re-predict the lit chart from a saved bundle; writes CSV and PNG into config.output_dir."""
    bundle = _read_json(bundle_path, "--bundle", CalibrationBundle.from_json)
    srl, targets, w_avg = load_inputs(config)
    key = "lit_" + variant.replace("-", "_")
    with _stage("simulate"):
        table = lit_charts(predict_lit_chart(srl, bundle.m, w_avg, bundle.beta), bundle.q)
        chart, _ = clamp_chart(table[key])
        csv_path, png_path = _write_charts(config.output_dir, targets, {"simulated_" + key: chart}, config.white_index)
    return chart, csv_path, png_path


def run_chart_error(target_csv, measured_csv, white_index: int) -> str:
    """The per-channel chart error as a JSON object of r, g and b."""
    with _errors(ConfigError, "--white-index"):
        check_white_index(white_index)
    target_csv, measured_csv = _input_file(target_csv, "--target"), _input_file(measured_csv, "--measured")
    with _stage("target"):
        target = read_chart_csv(target_csv)
    with _stage("measured"):
        measured = read_chart_csv(measured_csv)
    with _stage("chart_error"):
        error = dict(zip("rgb", chart_error(target, measured, white_index).tolist()))
        return json.dumps(error, indent=2, sort_keys=True, allow_nan=False)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stagecal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the full calibration pipeline")
    solve.add_argument("--config", required=True)
    solve.add_argument("--output-dir", default=None)

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
    if args.command in ("solve", "simulate"):
        config = load_config(args.config)
        if args.output_dir is not None:  # relative to the current directory, not to the config's
            config = replace(config, output_dir=Path(args.output_dir))
    if args.command == "solve":
        _, _, code = run_solve(config)
        if code != 0:
            warnings.warn("N unavailable, in-frustum fallback N := M")
        print(f"wrote {config.output_dir}")
        return code
    if args.command == "simulate":
        _, csv_path, png_path = run_simulate(config, args.bundle, args.variant)
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
    # the subparsers are required, so the one command left is chart-error
    print(run_chart_error(args.target, args.measured, args.white_index))
    return 0


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
            if isinstance(exc, OSError) and exc.errno == errno.ENAMETOOLONG:  # abbreviated like any long input
                error = f"[Errno {exc.errno}] {exc.strerror}: {short_repr(exc.filename)}"
        except StageError as exc:
            code, error = 1, exc
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
