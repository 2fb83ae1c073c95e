"""Environment maps and cosine-weighted (diffuse) integration.

A latitude-longitude map parameterizes the sphere with inclination theta in
[0, pi] down the image and azimuth across it, y-up, with the map center
facing +z (the frontal direction). The diffuse convolution of such a map
against a surface normal gives the Lambertian response; evaluated for the
frontal direction on a captured lighting environment it yields the average
frontal illumination w_avg. The panel scale factor beta is the same frontal
integral of the unit-radiance panel map, taken over the panel's lit window
only, since every texel outside that window is zero.
"""

from __future__ import annotations

import numpy as np

from .imaging import WHITE_REFLECTANCE, LinearImage, _blocks, as_array, check_beta, check_image, read_pfm, short_repr

FRONTAL = np.array([0.0, 0.0, 1.0])

DEFAULT_HALF_EXTENT = 0.6
DEFAULT_BETA_RESOLUTION = 1024
# Largest beta_resolution, where beta is within 2.3e-8 of the closed form; compute_beta then zeroes a
# (4096, 8192, 3) float64 panel map and uses only its lit window. A solve computes beta before it reads a capture,
# so at the default resolution the map comes and goes near start-up size (README, "Where the memory goes").
MAX_BETA_RESOLUTION = 4096


class EnvMap(LinearImage):
    """Latitude-longitude radiance map of at least one row; width must be twice the height."""

    def __post_init__(self):
        super().__post_init__()
        if self.height == 0:
            raise ValueError(f"lat-long map must have at least one row, got {self.width}x{self.height}")
        if self.width != 2 * self.height:
            raise ValueError(f"lat-long map must have width = 2 * height, got {self.width}x{self.height}")


def as_direction(v) -> np.ndarray:
    """Validate a unit 3-vector (|v| = 1 within 1e-9)."""
    v = as_array(v, (3,), "direction")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit length, |v| = {norm}")
    return v


# Rows of the map weighted and summed per step of diffuse_convolve: its
# temporaries are at most (_ROW_BLOCK, w) weights and a (_ROW_BLOCK, w, 3)
# float64 slice of the map, never (h, w) arrays.
_ROW_BLOCK = 64


def diffuse_convolve(env: EnvMap, n) -> np.ndarray:
    """Cosine-weighted hemispherical integral of the map for normal n.

    Returns (1/pi) * sum over texels of L * max(0, dir . n) * domega with
    domega = (2pi/width) * (pi/height) * sin(theta), so a uniform
    unit-radiance environment integrates to [1, 1, 1] up to texel
    discretization error.

    The map is summed _ROW_BLOCK rows at a time into a float64 total, each
    block against its own weights. As sin(theta) > 0, a texel of column x
    faces n when facing[x] > -cos(theta) * n[1] / sin(theta), so only the
    span of columns passing that test for some row of the block, less a
    margin of 1e-12 / sin(theta) (hundreds of times the rounding of either
    side, so no positive weight is dropped), is weighted and widened;
    the rest weigh +0.0 and adding their zero products would not change the
    total, so the sum keeps its bits. A block facing away sums an empty span.
    A float32 block is widened before its einsum; widening is exact, so a
    float32 map sums bit for bit as its float64 widening. einsum's own loop
    does the sum, not a BLAS call whose split may depend on the thread count.
    The blocks come from imaging._blocks.
    """
    n = as_direction(n)
    h, w = env.height, env.width
    theta = np.pi * (np.arange(h) + 0.5) / h
    azimuth = 2.0 * np.pi * (np.arange(w) + 0.5) / w - np.pi
    sin_t, cos_t = np.sin(theta)[:, None], np.cos(theta)[:, None]
    sin_a, cos_a = np.sin(azimuth), np.cos(azimuth)
    facing = sin_a * n[0] + cos_a * n[2]  # dir . n = sin(theta) * facing + cos(theta) * n[1]
    scale = (2.0 * np.pi / w) * (np.pi / h) / np.pi
    total = np.zeros(3)
    for r, block in _blocks(env.data, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        s = sin_t[rows]
        cols = _span(facing > (-cos_t[rows] * n[1] / s).min() - 1e-12 / s.min())
        weight = np.maximum(0.0, s * sin_a[cols] * n[0] + cos_t[rows] * n[1] + s * cos_a[cols] * n[2]) * s * scale
        total += np.einsum("yx,yxc->c", weight, block[:, cols].astype(np.float64, copy=False))
    return total


def _check_half_extent(half_extent: float) -> None:
    if not 0 < half_extent < np.inf:
        raise ValueError(f"half_extent must be positive and finite, got {half_extent}")


def _span(mask: np.ndarray) -> slice:
    """The slice from the first to the last True entry of a 1-D mask."""
    hits = np.flatnonzero(mask)
    return slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)


def _panel_window(half_extent: float, resolution: int):
    """The panel map's lit window and the factors of its coverage.

    Returns (rows, cols, f_az, t_top, theta_edges): the slices of the window,
    the azimuth coverage fraction and the theta clip bound T of each of its
    columns, and the map's theta edges. The window is the lit columns (one
    contiguous run) and the rows whose theta band meets [min T, pi - min T]
    over them; every texel outside it has coverage +0.0.
    """
    _check_half_extent(half_extent)
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {short_repr(resolution)}")
    if resolution > MAX_BETA_RESOLUTION:
        raise ValueError(f"resolution must be <= {MAX_BETA_RESOLUTION}, got {short_repr(resolution)}")
    width = 2 * resolution
    d_alpha = 2.0 * np.pi / width

    alpha_edges = d_alpha * np.arange(width + 1) - np.pi
    a_max = np.arctan(half_extent)
    lo = np.clip(alpha_edges[:-1], -a_max, a_max)
    hi = np.clip(alpha_edges[1:], -a_max, a_max)
    f_az = (hi - lo) / d_alpha  # (width,)
    cols = _span(f_az > 0)

    # theta clip bounds evaluated at each lit column's clipped midpoint
    mid = 0.5 * (lo[cols] + hi[cols])
    with np.errstate(over="ignore"):  # a subnormal half extent: arctan(inf) is pi/2 exactly
        t_top = np.arctan(1.0 / (half_extent * np.cos(mid)))

    theta_edges = (np.pi / resolution) * np.arange(resolution + 1)
    t_min = t_top.min()
    rows = _span((theta_edges[1:] > t_min) & (theta_edges[:-1] < np.pi - t_min))
    return rows, cols, f_az[cols], t_top, theta_edges


def build_panel_env(half_extent: float, resolution: int) -> EnvMap:
    """Unit-radiance map of a square panel centered 1m away on the z=1 plane.

    A direction is lit when its intersection with the panel plane satisfies
    |x| <= half_extent and |y| <= half_extent. In lat-long coordinates that
    footprint is exactly {|azimuth| <= atan(h), T(azimuth) <= theta <=
    pi - T(azimuth)} with T(a) = atan(1 / (h cos a)), so boundary texels are
    assigned their closed-form coverage fraction instead of a binary
    in/out test; the panel's vertical edges otherwise alias against the
    column grid and integration converges erratically.

    The map starts as zeros, and the coverage is computed and written only
    on _panel_window's window.
    """
    rows, cols, f_az, t_top, theta_edges = _panel_window(half_extent, resolution)
    data = np.zeros((resolution, 2 * resolution, 3))
    # Computed in place, with th_lo in the map's own window: in a fresh process
    # every new window-sized array is fresh pages, each faulted in on first
    # write, and page faults are the part of a call whose cost swings most
    # with the load on the machine.
    th_lo = np.maximum(theta_edges[:-1][rows, None], t_top[None, :], out=data[rows, cols, 0])
    f_th = np.minimum(theta_edges[1:][rows, None], (np.pi - t_top)[None, :])
    f_th -= th_lo
    np.clip(f_th, 0.0, None, out=f_th)
    f_th /= np.pi / resolution
    f_th *= f_az
    data[rows, cols] = f_th[:, :, None]
    return EnvMap(data)


def compute_beta(
    half_extent: float = DEFAULT_HALF_EXTENT,
    resolution: int = DEFAULT_BETA_RESOLUTION,
) -> float:
    """Scale factor between the calibration panel and a full even sphere.

    The frontal diffuse integral of the panel map's green coverage: the
    fraction of a full sphere's cosine-weighted illumination that the panel
    provides, i.e. its radiative form factor seen from the chart. Only the
    lit window is summed, each texel weighed by
    max(0, sin(theta) cos(azimuth)) * sin(theta) * (2pi/w) * (pi/h) / pi,
    the weight diffuse_convolve gives it for the frontal normal; the texels
    left out are zero, so the sum differs from the whole map's convolution
    only in rounding order. A value outside (0, 1], which the texel grid
    gives for a panel nearly as wide as the hemisphere, raises ValueError.
    """
    # the whole map is built through the module's build_panel_env, whose call
    # the benchmark's tracer (bench/spans.py) times inside this one
    env = build_panel_env(half_extent, resolution)
    rows, cols = _panel_window(half_extent, resolution)[:2]
    h, w = env.height, env.width
    sin_t = np.sin(np.pi * (np.arange(h)[rows] + 0.5) / h)[:, None]
    cos_a = np.cos(2.0 * np.pi * (np.arange(w)[cols] + 0.5) / w - np.pi)
    weight = sin_t * cos_a  # one window-sized array, then in place (see build_panel_env)
    np.maximum(0.0, weight, out=weight)
    weight *= sin_t
    weight *= (2.0 * np.pi / w) * (np.pi / h) / np.pi
    beta = float(np.einsum("yx,yx->", weight, env.data[rows, cols, 1]))
    return check_beta(beta, f" for half_extent {half_extent}")


def panel_form_factor_analytic(half_extent: float) -> float:
    """Closed-form form factor of the centered square panel at unit distance.

    Differential-element-to-rectangle form factor, summed over the four
    identical corner rectangles of side ratio A = B = half_extent. Serves as
    an independent cross-check on compute_beta.
    """
    _check_half_extent(half_extent)
    a = b = float(half_extent)
    ra = a / np.sqrt(1.0 + a * a)
    rb = b / np.sqrt(1.0 + b * b)
    corner = (
        ra * np.arctan(b / np.sqrt(1.0 + a * a)) + rb * np.arctan(a / np.sqrt(1.0 + b * b))
    ) / (2.0 * np.pi)
    return float(4.0 * corner)


def w_avg_from_env(env: EnvMap, facing) -> np.ndarray:
    """Diffuse integral of the environment's hemisphere facing `facing`."""
    return diffuse_convolve(env, facing)


def w_avg_from_white(white_patch, white_reflectance: float = WHITE_REFLECTANCE) -> np.ndarray:
    """Recover the frontal diffuse integral from a chart's white patch value.

    The white square of a typical chart reflects ~90% of incident light, so
    the sampled value is scaled up by 1/white_reflectance. A negative component
    raises ValueError, as no light is negative.
    """
    if not 0.0 < white_reflectance <= 1.0:
        raise ValueError(f"white_reflectance must be in (0, 1], got {white_reflectance}")
    return as_array(white_patch, (3,), "white_patch", nonneg=True) / white_reflectance


def read_env_pfm(path) -> EnvMap:
    """The PFM map at path; a value or shape the map check rejects names the file."""
    return check_image(EnvMap, read_pfm(path), path)
