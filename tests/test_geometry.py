import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagecal.geometry import (
    _ROW_BLOCK,
    FRONTAL,
    EnvMap,
    _panel_window,
    build_panel_env,
    compute_beta,
    diffuse_convolve,
    panel_form_factor_analytic,
    read_env_pfm,
    w_avg_from_env,
    w_avg_from_white,
)
from stagecal.imaging import ChartSamples, LinearImage, render_comparison_chart, write_pfm, write_png16

# differential-element-to-rectangle form factor, summed over the four corner
# rectangles (independent closed form, frozen)
ANALYTIC_BETA = {
    0.25: 0.07347763481252137,
    0.5: 0.2394564704607735,
    0.6: 0.3112771120913329,
    1.0: 0.5541264239795719,
}


def uniform_env(height, rgb):
    return EnvMap(np.broadcast_to(np.asarray(rgb, float), (height, 2 * height, 3)).copy())


class TestDiffuseConvolve:
    def test_uniform_env_integrates_to_radiance(self):
        env = uniform_env(256, [0.7, 0.7, 0.7])
        out = diffuse_convolve(env, FRONTAL)
        assert np.abs(out - 0.7).max() < 0.002 * 0.7

    def test_uniform_env_any_normal(self):
        env = uniform_env(256, [1.0, 2.0, 3.0])
        n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        out = diffuse_convolve(env, n)
        assert np.abs(out / np.array([1.0, 2.0, 3.0]) - 1.0).max() < 0.002

    def test_zero_env(self):
        out = diffuse_convolve(uniform_env(64, [0, 0, 0]), FRONTAL)
        assert np.array_equal(out, np.zeros(3))

    def test_frontal_hemisphere_only(self):
        # clamped cosine kills the back hemisphere; the front integrates to pi
        h = 512
        theta = np.pi * (np.arange(h) + 0.5) / h
        azim = 2 * np.pi * (np.arange(2 * h) + 0.5) / (2 * h) - np.pi
        dz = np.sin(theta)[:, None] * np.cos(azim)[None, :]
        data = np.repeat((dz > 0).astype(float)[:, :, None], 3, axis=2)
        out = diffuse_convolve(EnvMap(data), FRONTAL)
        assert np.abs(out - 1.0).max() < 1e-3

    def test_superposition(self):
        rng = np.random.default_rng(0)
        e1 = rng.uniform(0, 1, (64, 128, 3))
        e2 = rng.uniform(0, 1, (64, 128, 3))
        a, b = 0.3, 1.7
        n = np.array([0.0, 1.0, 0.0])
        combined = diffuse_convolve(EnvMap(a * e1 + b * e2), n)
        split = a * diffuse_convolve(EnvMap(e1), n) + b * diffuse_convolve(EnvMap(e2), n)
        assert np.abs(combined - split).max() < 1e-9

    # a float32 map sums bit for bit as its float64 widening, so keeping a
    # PFM map at file precision leaves every w_avg unchanged
    @pytest.mark.parametrize("height", [1, 2, 7, 64, 65, 300, 1024])
    @settings(derandomize=True, max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_float32_map_sums_as_its_float64_widening(self, height, seed):
        rng = np.random.default_rng(seed)
        x32 = rng.uniform(0.0, 8.0, (height, 2 * height, 3)).astype(np.float32)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        got = diffuse_convolve(EnvMap(x32), n)
        assert got.tobytes() == diffuse_convolve(EnvMap(x32.astype(np.float64)), n).tobytes()

    def test_two_calls_give_identical_bytes(self):
        env = EnvMap(np.random.default_rng(5).uniform(0.0, 8.0, (300, 600, 3)).astype(np.float32)[::-1])
        n = np.array([1.0, 2.0, 2.0]) / 3.0
        assert diffuse_convolve(env, n).tobytes() == diffuse_convolve(env, n).tobytes()

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            diffuse_convolve(uniform_env(64, [1, 1, 1]), [0, 0, 2])


def all_columns_convolve(env, n):
    """diffuse_convolve as it was before it skipped columns: every block weighs all w columns."""
    h, w = env.height, env.width
    theta = np.pi * (np.arange(h) + 0.5) / h
    azimuth = 2.0 * np.pi * (np.arange(w) + 0.5) / w - np.pi
    sin_t, cos_t = np.sin(theta)[:, None], np.cos(theta)[:, None]
    sin_a, cos_a = np.sin(azimuth), np.cos(azimuth)
    scale = (2.0 * np.pi / w) * (np.pi / h) / np.pi
    total = np.zeros(3)
    for r in range(0, h, _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        s = sin_t[rows]
        weight = np.maximum(0.0, s * sin_a * n[0] + cos_t[rows] * n[1] + s * cos_a * n[2]) * s * scale
        total += np.einsum("yx,yxc->c", weight, env.data[rows].astype(np.float64, copy=False))
    return total


# +-y face a pole, so whole row blocks face away; -z and +-x put the facing
# arc against or across the +-pi seam, so the span is the whole width
AXIS_NORMALS = [np.array(v, float) for v in np.vstack([np.eye(3), -np.eye(3)])]
unit_normals = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)


@st.composite
def env_maps(draw):
    """A 64-256 row map: random float32 or float64 radiance, or a panel map."""
    resolution = draw(st.integers(64, 256))
    kind = draw(st.sampled_from(["float32", "float64", "panel"]))
    if kind == "panel":
        return build_panel_env(draw(st.floats(0.05, 5.0)), resolution)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return EnvMap(rng.uniform(0.0, 8.0, (resolution, 2 * resolution, 3)).astype(kind))


class TestFacingColumns:
    """Columns facing away from n weigh +0.0, so leaving them out keeps every bit of the sum."""

    @pytest.mark.parametrize("n", AXIS_NORMALS, ids=["+x", "+y", "+z", "-x", "-y", "-z"])
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(env=env_maps())
    def test_axis_normals_sum_as_all_columns(self, n, env):
        assert diffuse_convolve(env, n).tobytes() == all_columns_convolve(env, n).tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(env=env_maps(), n=unit_normals)
    def test_unit_normals_sum_as_all_columns(self, env, n):
        assert diffuse_convolve(env, n).tobytes() == all_columns_convolve(env, n).tobytes()


class TestPanelEnv:
    def test_subtended_angle_matches_trigonometry(self):
        # |x| <= 0.5 at unit distance subtends a 2*atan(0.5) = 53.13 deg full angle
        env = build_panel_env(0.5, 512)
        lit = env.data[..., 1] > 0
        equator = lit[256]  # theta ~ pi/2 row
        azim = 2 * np.pi * (np.arange(1024) + 0.5) / 1024 - np.pi
        max_az = np.abs(azim[equator]).max()
        assert abs(2 * np.degrees(np.arctan(0.5)) - 53.13010235415598) < 1e-10
        assert abs(max_az - np.arctan(0.5)) < 2 * np.pi / 1024 + 1e-12

    def test_cube_face_construction(self):
        # a 54-pixel square on a 90-pixel 90 deg cube face has linear half
        # extent (54/90) * tan(45 deg) = 0.6 on the unit-distance plane
        assert abs((54 / 90) * np.tan(np.radians(45.0)) - 0.6) < 1e-12

    def test_large_half_extent_approaches_hemisphere(self):
        beta_panel = compute_beta(100.0, 256)
        assert abs(beta_panel - 1.0) < 0.01

    @pytest.mark.parametrize("resolution", [64, 256])
    @pytest.mark.parametrize("half_extent", [0.25, 0.6, 1.0, 100.0, 1e6])
    def test_matches_full_array_coverage_bit_for_bit(self, half_extent, resolution):
        # reference: the coverage formula over every texel of the map
        width = 2 * resolution
        d_alpha, d_theta = 2.0 * np.pi / width, np.pi / resolution
        alpha_edges = d_alpha * np.arange(width + 1) - np.pi
        a_max = np.arctan(half_extent)
        lo = np.clip(alpha_edges[:-1], -a_max, a_max)
        hi = np.clip(alpha_edges[1:], -a_max, a_max)
        t_top = np.arctan(1.0 / (half_extent * np.cos(0.5 * (lo + hi))))
        theta_edges = d_theta * np.arange(resolution + 1)
        th_lo = np.maximum(theta_edges[:-1, None], t_top[None, :])
        th_hi = np.minimum(theta_edges[1:, None], (np.pi - t_top)[None, :])
        coverage = ((hi - lo) / d_alpha)[None, :] * (np.clip(th_hi - th_lo, 0.0, None) / d_theta)
        expected = np.repeat(coverage[:, :, None], 3, axis=2)
        assert build_panel_env(half_extent, resolution).data.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            build_panel_env(0.0, 256)
        with pytest.raises(ValueError):
            build_panel_env(0.5, 32)
        for half_extent in (np.inf, np.nan):
            for call in (lambda: build_panel_env(half_extent, 64), lambda: panel_form_factor_analytic(half_extent)):
                with pytest.raises(ValueError, match="half_extent must be positive and finite"):
                    call()


class TestComputeBeta:
    @pytest.mark.parametrize("half_extent", [0.25, 0.5, 0.6, 1.0])
    def test_matches_analytic_form_factor(self, half_extent):
        beta = compute_beta(half_extent, 1024)
        assert abs(beta - ANALYTIC_BETA[half_extent]) < 1e-3
        # the shipped closed form agrees with the frozen constants
        assert abs(panel_form_factor_analytic(half_extent) - ANALYTIC_BETA[half_extent]) < 1e-12

    def test_monotone_and_bounded(self):
        extents = [0.25, 0.5, 0.75, 1.0, 2.0]
        betas = [compute_beta(he, 256) for he in extents]
        assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
        assert all(0.0 < b <= 1.0 for b in betas)

    # reference: the whole map's frontal convolution; summing the window
    # alone changes only the rounding order
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(half_extent=st.floats(0.05, 5.0), resolution=st.integers(64, 512))
    def test_matches_whole_map_convolution(self, half_extent, resolution):
        env = build_panel_env(half_extent, resolution)
        rows, cols = _panel_window(half_extent, resolution)[:2]
        outside = np.ones((env.height, env.width), bool)
        outside[rows, cols] = False
        # every texel left out of the window is +0.0, so no coverage is dropped
        left_out = env.data[outside]
        assert left_out.tobytes() == bytes(left_out.nbytes)
        expected = diffuse_convolve(env, FRONTAL)[1]
        np.testing.assert_allclose(compute_beta(half_extent, resolution), expected, rtol=1e-13, atol=0.0)

    def test_beta_above_one_rejected(self):
        # a panel this wide covers the frontal hemisphere, and the texel grid overshoots 1
        with pytest.raises(ValueError, match=r"beta must be in \(0, 1\], got 1\.0001"):
            compute_beta(1e6, 64)

    def test_convergence(self):
        assert abs(compute_beta(0.6, 512) - compute_beta(0.6, 1024)) < 1e-3

    @pytest.mark.parametrize("resolution", [64, 256])
    def test_matches_full_array_directions(self, resolution):
        # reference: every texel term as a full (h, w) array, no broadcasting,
        # summed in one einsum; the row blocks sum in another order, which
        # moves the last bits by under 1e-14 relative
        h, w = resolution, 2 * resolution
        theta = np.pi * (np.arange(h) + 0.5) / h
        azimuth = 2.0 * np.pi * (np.arange(w) + 0.5) / w - np.pi
        ones = np.ones((1, w))
        sin_t = np.sin(theta)[:, None]
        dirs = (sin_t * np.sin(azimuth), np.cos(theta)[:, None] * ones, sin_t * np.cos(azimuth))
        env = EnvMap(np.random.default_rng(resolution).uniform(0.0, 2.0, (h, w, 3)))
        for n in (FRONTAL, [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], np.array([1.0, 2.0, 2.0]) / 3.0):
            cos_w = np.maximum(0.0, dirs[0] * n[0] + dirs[1] * n[1] + dirs[2] * n[2])
            weight = cos_w * (sin_t * ones) * ((2.0 * np.pi / w) * (np.pi / h) / np.pi)
            expected = np.einsum("yx,yxc->c", weight, env.data)
            np.testing.assert_allclose(diffuse_convolve(env, n), expected, rtol=1e-13, atol=0.0)

    def test_full_sphere_normalization(self):
        out = diffuse_convolve(uniform_env(1024, [1, 1, 1]), FRONTAL)
        assert abs(out[1] - 1.0) < 0.002


class TestAllocationBounds:
    """Peak traced allocation against the arrays each call must hold: resolution 1024, and one comparison chart."""

    RES = 1024
    PLANE = RES * 2 * RES * 8  # one (h, w) float64 array
    MAP = 3 * PLANE  # the (h, w, 3) float64 panel map

    @staticmethod
    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_diffuse_convolve(self):
        env = uniform_env(self.RES, [1.0, 1.0, 1.0])
        assert self.peak(lambda: diffuse_convolve(env, FRONTAL)) <= 1.25 * self.PLANE

    def test_diffuse_convolve_builds_no_full_size_array(self):
        # a float32 map is widened a row block at a time, never as a whole
        env = EnvMap(np.ones((self.RES, 2 * self.RES, 3), np.float32))
        assert self.peak(lambda: diffuse_convolve(env, FRONTAL)) < 0.5 * self.PLANE

    def test_diffuse_convolve_widens_only_the_facing_columns(self):
        # a frontal call widens the half of each float32 row block that faces +z
        env = EnvMap(np.ones((self.RES, 2 * self.RES, 3), np.float32))
        assert self.peak(lambda: diffuse_convolve(env, FRONTAL)) < 0.2 * self.PLANE

    def test_build_panel_env(self):
        assert self.peak(lambda: build_panel_env(0.6, self.RES)) <= 1.25 * self.MAP

    def test_compute_beta(self):
        assert self.peak(lambda: compute_beta(0.6, self.RES)) <= 1.5 * self.MAP

    def test_panel_scratch_is_one_window_array(self):
        # coverage and weights are computed in place: beyond the map, each call
        # holds one window-sized float64 array at a time
        rows, cols = _panel_window(0.6, self.RES)[:2]
        window = (rows.stop - rows.start) * (cols.stop - cols.start) * 8
        assert self.peak(lambda: build_panel_env(0.6, self.RES)) < self.MAP + 1.5 * window
        assert self.peak(lambda: compute_beta(0.6, self.RES)) < self.MAP + 1.5 * window

    def test_comparison_png_holds_no_float_chart_image(self, tmp_path):
        # the chart's 48 colors are encoded before they are laid out, so writing
        # its PNG stays below one (192, 288, 3) float64 image
        rng = np.random.default_rng(25)
        target, measured = ChartSamples(rng.uniform(0, 1, (24, 3))), ChartSamples(rng.uniform(0, 1, (24, 3)))
        path = tmp_path / "comparison.png"

        def write():
            write_png16(path, render_comparison_chart(target, measured, 18))

        write()  # first-call allocations (imports, caches) are not the chart's
        assert self.peak(write) < 192 * 288 * 3 * 8


class TestWAvg:
    def test_uniform_env(self):
        out = w_avg_from_env(uniform_env(256, [1.0, 2.0, 3.0]), FRONTAL)
        assert np.abs(out / np.array([1.0, 2.0, 3.0]) - 1.0).max() < 0.002

    def test_panel_env_consistency_with_beta(self):
        env = build_panel_env(0.6, 256)
        out = w_avg_from_env(env, FRONTAL)
        beta = compute_beta(0.6, 256)
        assert np.abs(out - beta).max() < 1e-12

    def test_env_behind_facing_is_zero(self):
        env = build_panel_env(0.6, 128)
        out = w_avg_from_env(env, np.array([0.0, 0.0, -1.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_white_patch_scaling(self):
        assert np.allclose(w_avg_from_white([0.9, 0.9, 0.9], 0.9), [1, 1, 1], atol=1e-15)
        assert np.allclose(
            w_avg_from_white([0.45, 0.36, 0.27], 0.9), [0.5, 0.4, 0.3], atol=1e-15
        )
        assert np.array_equal(w_avg_from_white([0.3, 0.2, 0.1], 1.0), [0.3, 0.2, 0.1])

    def test_bad_reflectance(self):
        with pytest.raises(ValueError):
            w_avg_from_white([1, 1, 1], 0.0)
        with pytest.raises(ValueError):
            w_avg_from_white([1, 1, 1], -0.5)


class TestEnvMap:
    def test_aspect_enforced(self):
        with pytest.raises(ValueError, match="width"):
            EnvMap(np.zeros((64, 64, 3)))

    def test_is_a_linear_image(self):
        env = uniform_env(4, [1.0, 2.0, 3.0])
        assert isinstance(env, LinearImage)
        assert (env.height, env.width) == (4, 8)

    def test_negative_radiance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            EnvMap(np.full((4, 8, 3), -1.0))

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError, match="at least one row, got 0x0"):
            EnvMap(np.zeros((0, 0, 3), np.float32))

    def test_pfm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        env = EnvMap(rng.uniform(0, 4, (16, 32, 3)).astype(np.float32).astype(np.float64))
        path = tmp_path / "env.pfm"
        write_pfm(path, env.data)
        read = read_env_pfm(path).data
        # the map keeps read_pfm's float32; diffuse_convolve widens it exactly
        assert read.dtype == np.float32 and np.array_equal(read, env.data)

    def test_pfm_read_enforces_aspect(self, tmp_path):
        path = tmp_path / "bad.pfm"
        write_pfm(path, np.zeros((16, 16, 3)))
        with pytest.raises(ValueError, match="width"):
            read_env_pfm(path)
