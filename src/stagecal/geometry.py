"""Environment maps and cosine-weighted (diffuse) integration.

A latitude-longitude map parameterizes the sphere with inclination theta in
[0, pi] down the image and azimuth across it, y-up, with the map center
facing +z (the frontal direction). The diffuse convolution of such a map
against a surface normal gives the Lambertian response; evaluated for the
frontal direction on the unit-radiance panel map it yields the panel scale
factor beta, and evaluated on a captured lighting environment it yields the
average frontal illumination w_avg.
"""

from __future__ import annotations

import numpy as np

from .imaging import WHITE_REFLECTANCE, LinearImage, as_array, read_pfm

FRONTAL = np.array([0.0, 0.0, 1.0])

DEFAULT_HALF_EXTENT = 0.6
DEFAULT_BETA_RESOLUTION = 1024


class EnvMap(LinearImage):
    """Latitude-longitude radiance map; width must be twice the height."""

    def __post_init__(self):
        super().__post_init__()
        if self.width != 2 * self.height:
            raise ValueError(f"lat-long map must have width = 2 * height, got {self.width}x{self.height}")


def as_direction(v) -> np.ndarray:
    """Validate a unit 3-vector (|v| = 1 within 1e-9)."""
    v = as_array(v, (3,), "direction")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit length, |v| = {norm}")
    return v


def _texel_directions(height: int):
    """Texel-center directions (dx, dy, dz) and sin(theta).

    dx and dz are (h, w); dy and sin(theta) depend only on the row and are
    (h, 1), broadcasting against the others.
    """
    width = 2 * height
    theta = np.pi * (np.arange(height) + 0.5) / height
    azimuth = 2.0 * np.pi * (np.arange(width) + 0.5) / width - np.pi
    sin_t = np.sin(theta)[:, None]
    dx = sin_t * np.sin(azimuth)[None, :]
    dy = np.cos(theta)[:, None]
    dz = sin_t * np.cos(azimuth)[None, :]
    return dx, dy, dz, sin_t


def diffuse_convolve(env: EnvMap, n) -> np.ndarray:
    """Cosine-weighted hemispherical integral of the map for normal n.

    Returns (1/pi) * sum over texels of L * max(0, dir . n) * domega with
    domega = (2pi/width) * (pi/height) * sin(theta), so a uniform
    unit-radiance environment integrates to [1, 1, 1] up to texel
    discretization error.
    """
    n = as_direction(n)
    h, w = env.height, env.width
    dx, dy, dz, sin_t = _texel_directions(h)
    cos_w = np.maximum(0.0, dx * n[0] + dy * n[1] + dz * n[2])
    weight = cos_w * sin_t * ((2.0 * np.pi / w) * (np.pi / h) / np.pi)
    return np.einsum("yx,yxc->c", weight, env.data)


def build_panel_env(half_extent: float, resolution: int) -> EnvMap:
    """Unit-radiance map of a square panel centered 1m away on the z=1 plane.

    A direction is lit when its intersection with the panel plane satisfies
    |x| <= half_extent and |y| <= half_extent. In lat-long coordinates that
    footprint is exactly {|azimuth| <= atan(h), T(azimuth) <= theta <=
    pi - T(azimuth)} with T(a) = atan(1 / (h cos a)), so boundary texels are
    assigned their closed-form coverage fraction instead of a binary
    in/out test; the panel's vertical edges otherwise alias against the
    column grid and integration converges erratically.
    """
    if half_extent <= 0:
        raise ValueError(f"half_extent must be positive, got {half_extent}")
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    width = 2 * resolution
    d_alpha = 2.0 * np.pi / width
    d_theta = np.pi / resolution

    alpha_edges = d_alpha * np.arange(width + 1) - np.pi
    a_max = np.arctan(half_extent)
    lo = np.clip(alpha_edges[:-1], -a_max, a_max)
    hi = np.clip(alpha_edges[1:], -a_max, a_max)
    f_az = (hi - lo) / d_alpha  # (width,)

    # theta clip bounds evaluated at each column's clipped midpoint
    mid = 0.5 * (lo + hi)
    t_top = np.arctan(1.0 / (half_extent * np.cos(mid)))  # (width,)

    theta_edges = d_theta * np.arange(resolution + 1)
    th_lo = np.maximum(theta_edges[:-1, None], t_top[None, :])
    th_hi = np.minimum(theta_edges[1:, None], (np.pi - t_top)[None, :])
    f_th = np.clip(th_hi - th_lo, 0.0, None) / d_theta  # (resolution, width)

    coverage = f_az[None, :] * f_th
    return EnvMap(np.repeat(coverage[:, :, None], 3, axis=2))


def compute_beta(
    half_extent: float = DEFAULT_HALF_EXTENT,
    resolution: int = DEFAULT_BETA_RESOLUTION,
) -> float:
    """Scale factor between the calibration panel and a full even sphere.

    The green channel of the frontal diffuse convolution of the panel map:
    the fraction of a full sphere's cosine-weighted illumination that the
    panel provides, i.e. its radiative form factor seen from the chart.
    """
    env = build_panel_env(half_extent, resolution)
    return float(diffuse_convolve(env, FRONTAL)[1])


def panel_form_factor_analytic(half_extent: float) -> float:
    """Closed-form form factor of the centered square panel at unit distance.

    Differential-element-to-rectangle form factor, summed over the four
    identical corner rectangles of side ratio A = B = half_extent. Serves as
    an independent cross-check on compute_beta.
    """
    if half_extent <= 0:
        raise ValueError(f"half_extent must be positive, got {half_extent}")
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
    the sampled value is scaled up by 1/white_reflectance.
    """
    if not 0.0 < white_reflectance <= 1.0:
        raise ValueError(f"white_reflectance must be in (0, 1], got {white_reflectance}")
    return as_array(white_patch, (3,), "white_patch") / white_reflectance


def read_env_pfm(path) -> EnvMap:
    return EnvMap(read_pfm(path))
