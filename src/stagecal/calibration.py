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
import os
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .imaging import CHART_PATCHES, ChartSamples, as_array, check_beta, short_repr

DEFAULT_COND_LIMIT_SL = 1e6
DEFAULT_COND_LIMIT_Q = 1e4

BLACK_LEVEL_FLAG_THRESHOLD = 0.2

MODES = ("out_of_frustum", "in_frustum", "post")

# bundle.json's keys, key -> CalibrationBundle field: to_json writes them and
# from_json checks for them in this order.
BUNDLE_KEYS = {"M": "m", "Q": "q", "N": "n", "beta": "beta", "black_offset": "black_offset"}

# Pixels per transform_content tile for out_of_frustum and post: a tile's
# input and output are 1.5 MiB each. Twice this size was slower, as OpenBLAS
# then splits each tile's product across threads; at this size it keeps each
# product on the calling thread, and a quarter of it was 3-5 ms slower per
# 4K frame. The tiles run on up to as many threads as the process may use, one
# contiguous run of tiles per thread, and neither the output nor the count
# depends on that number.
_TILE_PIXELS = 1 << 16
# Pixels per in_frustum tile. Its clamp and gamut count make seven more
# passes over each tile, which the tile (384 KiB) and its tiled offset
# (384 KiB) at this size make in a core's L2; a 64 Ki tile and its offset
# (3 MiB) do not fit in a 2 MiB L2.
_CLAMP_PIXELS = 1 << 14


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
        object.__setattr__(self, "beta", float(check_beta(self.beta)))
        offset = as_array(self.black_offset, (3,), "black_offset", nonneg=True)
        object.__setattr__(self, "black_offset", offset)

    @property
    def n_effective(self) -> np.ndarray:
        """N when available, otherwise the fallback M."""
        return self.n if self.n is not None else self.m

    def to_json(self) -> str:
        doc = {key: getattr(self, name) for key, name in BUNDLE_KEYS.items()}
        doc["diagnostics"] = self.diagnostics
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationBundle":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {short_repr(doc)}")
        for key in BUNDLE_KEYS:
            if key not in doc:
                raise ValueError(f'missing key "{key}"')
        fields = {name: doc[key] for key, name in BUNDLE_KEYS.items()}
        return cls(**fields, diagnostics=doc.get("diagnostics", {}))


class GamutCounter:
    """Tallies pixels clamped at the display maximum by transform_content."""

    def __init__(self):
        self.total = 0
        self.out_of_gamut = 0


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
    return SRLSet(np.stack([c.patches for c in (red_chart, green_chart, blue_chart)], axis=2))


def predict_lit_chart(srl: SRLSet, m, w_avg, beta: float) -> np.ndarray:
    """The chart as lit by the stage reproducing an environment, unclamped: (24, 3).

    The stage shows the environment pre-corrected by M; each patch then
    responds with its per-channel calibration matrix, rescaled from panel
    geometry to the full sphere by 1/beta: (1/beta) * SRL_j * M * w_avg.
    """
    check_beta(beta)
    m = as_array(m, (3, 3), "M")
    w_avg = as_array(w_avg, (3,), "w_avg")
    return srl.matrices @ (m @ w_avg) / beta


def clamp_chart(values: np.ndarray) -> tuple[ChartSamples, int]:
    """A (24, 3) prediction with negatives clamped to 0, and how many were clamped."""
    return ChartSamples(np.maximum(values, 0.0)), int((values < 0).sum())


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


def solve_q(predicted, targets: ChartSamples, weights=None) -> np.ndarray:
    """Least-squares post-correction matrix.

    Minimizes sum_j weight_j * ||Q x_j - p_j||^2, x_j being row j of the
    (24, 3) `predicted` chart (predict_lit_chart's, negatives allowed) and
    p_j the target patch. The objective decouples by output channel, so each
    row of Q is its own 3-unknown linear least-squares problem over the 24
    predicted responses, solved by SVD and anchored at the identity: rows
    are corrections to I, and spread directions below Q_SPREAD_RCOND of the
    dominant singular value are left at the identity. A spectrally flat
    chart (all responses collinear) therefore returns Q = I exactly when the
    identity already fits; if a rank-deficient system cannot be fit, the
    capture does not constrain Q and ValueError is raised.
    """
    weights = check_weights(weights)
    predicted = as_array(predicted, (CHART_PATCHES, 3), "predicted")
    sw = np.sqrt(weights)[:, None]
    wx = predicted * sw
    wt = targets.patches * sw
    q = np.eye(3)
    for r in range(3):
        # the rank counts singular values above Q_SPREAD_RCOND of the largest (0 for a zero wx)
        delta, _, rank, _ = np.linalg.lstsq(wx, wt[:, r] - wx[:, r], rcond=Q_SPREAD_RCOND)
        q[r] += delta

    if rank < 3:
        fit = q_objective(q, predicted, targets, weights)
        scale = float((wt**2).sum())
        if fit > Q_DEGENERATE_RTOL * max(scale, np.finfo(float).tiny):
            raise ValueError(
                f"predicted chart responses span rank {rank} < 3 "
                "and do not explain the targets"
            )
    return q


def q_objective(q, predicted, targets: ChartSamples, weights=None) -> float:
    """Weighted squared-error objective that solve_q minimizes."""
    weights = check_weights(weights)
    q = as_array(q, (3, 3), "Q")
    predicted = as_array(predicted, (CHART_PATCHES, 3), "predicted")
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


def _transform_rows(mat_t, offset, rows, out) -> int:
    """Tile loop of transform_content over ``rows`` into ``out``.

    ``offset`` is None except for in_frustum, where it is the black offset
    tiled to at least one _CLAMP_PIXELS tile's length. Returns the count of
    pixels clamped at the top: those whose largest channel exceeds 1 after
    the offset. The channel maximum and its mask live in two buffers
    allocated once per call and sliced to each tile: a fresh temporary per
    tile is an mmap/munmap, which serialises threads running this loop side
    by side.
    """
    tile = _TILE_PIXELS if offset is None else _CLAMP_PIXELS
    # array_split makes the tiles equal to within a pixel, so no tile is a
    # lone row unless the whole input is
    n_tiles = max(1, -(-len(rows) // tile))
    if offset is not None:
        max_buf = np.empty(offset.size // 3)
        high_buf = np.empty(offset.size // 3, dtype=bool)
    over = 0
    for src, dst in zip(np.array_split(rows, n_tiles), np.array_split(out, n_tiles)):
        np.matmul(src, mat_t, out=dst)
        if offset is not None:
            flat = dst.reshape(-1)
            top, high = max_buf[: len(dst)], high_buf[: len(dst)]
            np.subtract(flat, offset[: flat.size], out=flat)
            np.maximum(flat, 0.0, out=flat)
            # fmax, not maximum: a NaN channel (0 * inf from an infinite
            # input) must not hide another channel over 1 from the count
            np.fmax(flat[0::3], flat[1::3], out=top)
            np.fmax(top, flat[2::3], out=top)
            over += np.count_nonzero(np.greater(top, 1.0, out=high))
            np.minimum(flat, 1.0, out=flat)
    return over


def transform_content(pixels, mode: str, bundle: CalibrationBundle, counter: GamutCounter | None = None) -> np.ndarray:
    """Apply one pipeline stage to content pixels (any (..., 3) array).

    out_of_frustum: M . p
    in_frustum:     clamp_0(N_eff . p - black_offset), then clamped to [0, 1]
                    with pixels clamped at the top counted as out-of-gamut
    post:           Q . p

    Returns a new float64 array of the input's shape and leaves the input
    unchanged. The pixels are processed in fixed-size tiles, 64 Ki pixels
    (_TILE_PIXELS) for out_of_frustum and post and 16 Ki (_CLAMP_PIXELS) for
    in_frustum, whose tile and tiled offset then stay in L2 across the
    clamp's passes. So a contiguous float64 frame needs only the output,
    plus for in_frustum a 384 KiB tiled offset and 144 KiB per thread for
    the gamut count. Input of more than one 64 Ki tile is split into one
    contiguous run of tiles per thread, on up to as many threads as the
    process may use (``os.sched_getaffinity``); smaller input runs on the
    calling thread. The result and the count are the same bit for bit
    whatever the tile size and the number of threads.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.shape[-1:] != (3,):
        raise ValueError(f"pixels must have a trailing RGB axis, got shape {pixels.shape}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {short_repr(mode)}")
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
    offset = np.tile(bundle.black_offset, min(len(rows), _CLAMP_PIXELS)) if clamp else None
    # No more workers than tiles, so each gets over half a tile and never a
    # lone row. The pool lives only for this call: a process forked later
    # must not inherit a pool whose threads it does not have. Without
    # sched_getaffinity (not Linux), every CPU counts as usable.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, -(-len(rows) // _TILE_PIXELS))
    if workers <= 1:
        over = _transform_rows(mat_t, offset, rows, out)
    else:
        # imported here, as the stagecal commands never run more than one
        # tile, and the import adds about 10 ms and 1 MB to their start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            run = partial(_transform_rows, mat_t, offset)
            over = sum(pool.map(run, np.array_split(rows, workers), np.array_split(out, workers)))
    if clamp and counter is not None:
        counter.total += len(rows)
        counter.out_of_gamut += int(over)
    return out.reshape(pixels.shape)


def chart_error(target: ChartSamples, measured: ChartSamples, white_index: int) -> np.ndarray:
    """Mean per-channel absolute error relative to the target white intensity.

    error_c = (1/24) * sum_j |measured_jc - target_jc| / target_white_c,
    with the white patch at `white_index`, computed in whatever linear space
    the inputs share (camera raw here). Each channel's differences are
    scaled by a power of two that brings their maximum into [0.5, 1) before
    the mean, and scaled back after it: that is exact, so the sum cannot
    overflow on finite charts and an ordinary chart keeps every bit. An
    error too large for a float raises ValueError.
    """
    white = target.white(white_index)
    if (white <= 0).any():
        raise ValueError("target white patch components must be > 0")
    diff = np.abs(measured.patches - target.patches)
    _, exponent = np.frexp(diff.max(axis=0))
    with np.errstate(over="ignore"):
        error = np.ldexp(np.ldexp(diff, -exponent).mean(axis=0), exponent) / white
    if not np.isfinite(error).all():
        raise ValueError(f"chart error {error.tolist()} exceeds the float range")
    return error
