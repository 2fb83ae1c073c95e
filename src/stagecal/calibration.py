"""Solvers for the three-matrix stage color pipeline.

The pipeline uses three 3x3 transforms plus an offset:

  M  pre-corrects out-of-frustum (lighting) content so displayed primaries
     match the camera's observation of them,
  Q  post-corrects recorded footage to repair the color rendition of
     materials lit by the stage,
  N  = M Q^-1 pre-corrects in-frustum (background) content so that after Q
     the background still lands on the intended colors,

and a black-level offset removes stage light bounced off the in-frustum
panels. All solves operate on linear camera-raw RGB.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .imaging import CHART_PATCHES, DEFAULT_WHITE_INDEX, ChartSamples, as_array

DEFAULT_COND_LIMIT_SL = 1e6
DEFAULT_COND_LIMIT_Q = 1e4

BLACK_LEVEL_FLAG_THRESHOLD = 0.2

MODES = ("out_of_frustum", "in_frustum", "post")

# Pixels per transform_content tile: a tile's input and output (1.5 MiB each)
# stay in cache while the offset, both clamps and the gamut count run. Twice
# this size was slower, as OpenBLAS then splits each tile's product across
# threads.
_TILE_PIXELS = 1 << 16


def condition_number(m) -> float:
    """Ratio of largest to smallest singular value (inf if singular)."""
    s = np.linalg.svd(as_array(m, (3, 3), "matrix"), compute_uv=False)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])


@dataclass(frozen=True)
class SRLSet:
    """Per-patch camera responses to the three stage channels.

    matrices[j][:, c] is the RGB value of chart patch j photographed under
    stage channel c, at raw calibration-geometry scale (no panel-coverage
    rescaling applied).
    """

    matrices: np.ndarray  # (24, 3, 3) float64
    white_index: int = DEFAULT_WHITE_INDEX

    def __post_init__(self):
        matrices = as_array(self.matrices, (CHART_PATCHES, 3, 3), "matrices", nonneg=True)
        object.__setattr__(self, "matrices", matrices)


@dataclass(frozen=True)
class CalibrationBundle:
    """The solved pipeline: all transforms plus diagnostics."""

    m: np.ndarray
    q: np.ndarray
    n: np.ndarray | None
    beta: float
    black_offset: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "m", as_array(self.m, (3, 3), "M"))
        object.__setattr__(self, "q", as_array(self.q, (3, 3), "Q"))
        if self.n is not None:
            object.__setattr__(self, "n", as_array(self.n, (3, 3), "N"))
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        offset = as_array(self.black_offset, (3,), "black_offset", nonneg=True)
        object.__setattr__(self, "black_offset", offset)

    @property
    def n_effective(self) -> np.ndarray:
        """N when available, otherwise the fallback M."""
        return self.n if self.n is not None else self.m

    def to_json(self) -> str:
        doc = {
            "M": self.m.tolist(),
            "Q": self.q.tolist(),
            "N": None if self.n is None else self.n.tolist(),
            "beta": self.beta,
            "black_offset": self.black_offset.tolist(),
            "diagnostics": self.diagnostics,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationBundle":
        doc = json.loads(text)
        return cls(
            m=doc["M"],
            q=doc["Q"],
            n=doc["N"],
            beta=float(doc["beta"]),
            black_offset=doc["black_offset"],
            diagnostics=doc.get("diagnostics", {}),
        )


class GamutCounter:
    """Tallies pixels clamped at the display maximum by transform_content."""

    def __init__(self):
        self.total = 0
        self.out_of_gamut = 0

    @property
    def fraction(self) -> float:
        return self.out_of_gamut / self.total if self.total else 0.0


def build_sl(red, green, blue) -> np.ndarray:
    """Stack the camera's view of the three stage primaries as columns."""
    named = {"red": red, "green": green, "blue": blue}
    return np.stack([as_array(v, (3,), name, nonneg=True) for name, v in named.items()], axis=1)


def solve_m(sl, cond_limit: float = DEFAULT_COND_LIMIT_SL) -> np.ndarray:
    """Invert the primary-response matrix; the out-of-frustum pre-correction."""
    sl = as_array(sl, (3, 3), "SL")
    cond = condition_number(sl)
    if cond > cond_limit:
        raise ValueError(
            f"primary matrix condition number {cond:.3e} exceeds limit {cond_limit:.3e}"
        )
    return np.linalg.inv(sl)


def build_srl(red_chart: ChartSamples, green_chart: ChartSamples, blue_chart: ChartSamples) -> SRLSet:
    """Assemble per-patch response matrices from the three channel captures."""
    charts = (red_chart, green_chart, blue_chart)
    if len({c.white_index for c in charts}) != 1:
        raise ValueError("channel charts disagree on white_index")
    matrices = np.stack([c.patches for c in charts], axis=2)  # (24, 3, 3)
    return SRLSet(matrices, white_index=red_chart.white_index)


def predict_lit_chart(srl: SRLSet, m, w_avg, beta: float) -> np.ndarray:
    """Unclamped per-patch prediction (1/beta) * SRL_j * M * w_avg."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    m = as_array(m, (3, 3), "M")
    w_avg = as_array(w_avg, (3,), "w_avg")
    return srl.matrices @ (m @ w_avg) / beta


def simulate_lit_chart(srl: SRLSet, m, w_avg, beta: float) -> ChartSamples:
    """Simulate the chart as lit by the stage reproducing an environment.

    The stage shows the environment pre-corrected by M; each patch then
    responds with its per-channel calibration matrix, rescaled from panel
    geometry to the full sphere by 1/beta. Negative predictions are clamped
    to zero with a warning.
    """
    chart, negatives = clamp_chart(predict_lit_chart(srl, m, w_avg, beta), srl.white_index)
    if negatives:
        warnings.warn(f"{negatives} negative simulated components clamped to 0", stacklevel=2)
    return chart


def clamp_chart(values: np.ndarray, white_index: int) -> tuple[ChartSamples, int]:
    """A (24, 3) prediction with negatives clamped to 0, and how many were clamped."""
    clamped = int((values < 0).sum())
    return ChartSamples(np.maximum(values, 0.0), white_index=white_index), clamped


def check_weights(weights) -> np.ndarray:
    """24 finite, non-negative per-patch weights, at least 3 positive; None means all ones."""
    if weights is None:
        return np.ones(CHART_PATCHES)
    weights = as_array(weights, (CHART_PATCHES,), "weights", nonneg=True)
    if int((weights > 0).sum()) < 3:
        raise ValueError("need at least 3 patches with positive weight")
    return weights


# Relative singular-value cutoff for the Q solve: response-spread directions
# weaker than this fraction of the dominant one carry no usable signal
# (a spectrally flat chart plus capture noise) and are left uncorrected.
Q_SPREAD_RCOND = 1e-6

# A rank-deficient system is acceptable only if the anchored fit explains the
# targets to this relative tolerance (the flat-chart metamer case).
Q_DEGENERATE_RTOL = 1e-10


def solve_q(
    srl: SRLSet,
    m,
    w_avg,
    targets: ChartSamples,
    beta: float,
    weights=None,
) -> np.ndarray:
    """Least-squares post-correction matrix.

    Minimizes sum_j weight_j * ||(1/beta) Q SRL_j M w_avg - p_j||^2. The
    objective decouples by output channel, so each row of Q is its own
    3-unknown linear least-squares problem over the 24 predicted responses,
    solved by SVD and anchored at the identity: rows are corrections to I,
    and spread directions below Q_SPREAD_RCOND of the dominant singular
    value are left at the identity. A spectrally flat chart (all responses
    collinear) therefore returns Q = I exactly when the identity already
    fits; if a rank-deficient system cannot be fit, the capture does not
    constrain Q and ValueError is raised.
    """
    weights = check_weights(weights)
    predicted = predict_lit_chart(srl, m, w_avg, beta)
    sw = np.sqrt(weights)[:, None]
    wx = predicted * sw
    wt = targets.patches * sw
    s = np.linalg.svd(wx, compute_uv=False)
    rank = int((s > s[0] * Q_SPREAD_RCOND).sum()) if s[0] > 0 else 0

    q = np.eye(3)
    for r in range(3):
        delta, *_ = np.linalg.lstsq(wx, wt[:, r] - wx[:, r], rcond=Q_SPREAD_RCOND)
        q[r] += delta

    if rank < 3:
        fit = float(((wx @ q.T - wt) ** 2).sum())
        scale = float((wt**2).sum())
        if fit > Q_DEGENERATE_RTOL * max(scale, np.finfo(float).tiny):
            raise ValueError(
                f"predicted chart responses span rank {rank} < 3 "
                "and do not explain the targets"
            )
    return q


def q_objective(q, srl: SRLSet, m, w_avg, targets: ChartSamples, beta: float, weights=None) -> float:
    """Weighted squared-error objective that solve_q minimizes."""
    weights = check_weights(weights)
    q = as_array(q, (3, 3), "Q")
    predicted = predict_lit_chart(srl, m, w_avg, beta)
    residual = predicted @ q.T - targets.patches
    return float((weights[:, None] * residual**2).sum())


def solve_n(m, q, cond_limit: float = DEFAULT_COND_LIMIT_Q) -> np.ndarray | None:
    """In-frustum pre-correction N = M Q^-1, or None when Q resists inversion.

    A near-singular Q (monochromatic target lighting collapses the chart's
    color spread) makes Q^-1 meaningless; the pipeline then falls back to
    N := M. Unavailability is a value, not an error.
    """
    m = as_array(m, (3, 3), "M")
    q = as_array(q, (3, 3), "Q")
    if condition_number(q) > cond_limit:
        return None
    return m @ np.linalg.inv(q)


def compute_black_level(b_camera, w_camera) -> np.ndarray:
    """Offset to subtract from in-frustum content: bounce over white response.

    b_camera is the camera's view of the switched-off in-frustum panels lit
    by the rest of the stage; w_camera is its view of full white (the sum of
    the three primary captures).
    """
    b = as_array(b_camera, (3,), "b_camera", nonneg=True)
    w = as_array(w_camera, (3,), "w_camera")
    if (w <= 0).any():
        raise ValueError("w_camera components must be > 0")
    offset = b / w
    if (offset > BLACK_LEVEL_FLAG_THRESHOLD).any():
        warnings.warn(
            f"black level {offset.tolist()} exceeds {BLACK_LEVEL_FLAG_THRESHOLD}; "
            "check the capture",
            stacklevel=2,
        )
    return offset


def transform_content(pixels, mode: str, bundle: CalibrationBundle, counter: GamutCounter | None = None) -> np.ndarray:
    """Apply one pipeline stage to content pixels (any (..., 3) array).

    out_of_frustum: M . p
    in_frustum:     clamp_0(N_eff . p - black_offset), then clamped to [0, 1]
                    with pixels clamped at the top counted as out-of-gamut
    post:           Q . p

    Returns a new float64 array of the input's shape and leaves the input
    unchanged. The pixels are processed in fixed-size tiles, so a contiguous
    float64 frame needs only the output plus one tile's scratch, and the
    result is the same bit for bit whatever the tile size.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.shape[-1] != 3:
        raise ValueError(f"pixels must have a trailing RGB axis, got shape {pixels.shape}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    mat = {"out_of_frustum": bundle.m, "in_frustum": bundle.n_effective, "post": bundle.q}[mode]
    # Match pixels @ mat.T bit for bit. numpy multiplies a lone row (a (3,)
    # vector, or each pixel of a (..., 1, 3) stack) with gemv, which rounds
    # differently from gemm, so such input keeps one pixel per product and
    # the transposed view of mat. Everything else goes through gemm, where a
    # C-ordered copy of mat.T rounds the same and runs about twice as fast.
    lone_rows = pixels.ndim == 1 or pixels.shape[-2] == 1
    rows = pixels.reshape((-1, 1, 3) if lone_rows else (-1, 3))
    mat_t = mat.T if lone_rows else np.ascontiguousarray(mat.T)
    out = np.empty(rows.shape)
    clamp = mode == "in_frustum"
    if clamp:
        offset = np.tile(bundle.black_offset, min(len(rows), _TILE_PIXELS))
    over = 0
    # array_split makes the tiles equal to within a pixel, so no tile is a
    # lone row unless the whole input is
    n_tiles = max(1, -(-len(rows) // _TILE_PIXELS))
    for src, dst in zip(np.array_split(rows, n_tiles), np.array_split(out, n_tiles)):
        np.matmul(src, mat_t, out=dst)
        if clamp:
            flat = dst.reshape(-1)
            np.subtract(flat, offset[: flat.size], out=flat)
            np.maximum(flat, 0.0, out=flat)
            high = flat > 1.0
            over += np.count_nonzero(high[0::3] | high[1::3] | high[2::3])
            np.minimum(flat, 1.0, out=flat)
    if clamp and counter is not None:
        counter.total += len(rows)
        counter.out_of_gamut += int(over)
    return out.reshape(pixels.shape)


def chart_error(target: ChartSamples, measured: ChartSamples) -> np.ndarray:
    """Mean per-channel absolute error relative to the target white intensity.

    error_c = (1/24) * sum_j |measured_jc - target_jc| / target_white_c,
    computed in whatever linear space the inputs share (camera raw here).
    """
    white = target.white
    if (white <= 0).any():
        raise ValueError("target white patch components must be > 0")
    return np.abs(measured.patches - target.patches).mean(axis=0) / white
