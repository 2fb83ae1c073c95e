import numpy as np
import pytest

from stagecal.geometry import (
    FRONTAL,
    EnvMap,
    build_panel_env,
    compute_beta,
    diffuse_convolve,
    panel_form_factor_analytic,
    read_env_pfm,
    w_avg_from_env,
    w_avg_from_white,
)
from stagecal.imaging import LinearImage, write_pfm

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

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            diffuse_convolve(uniform_env(64, [1, 1, 1]), [0, 0, 2])


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

    def test_validation(self):
        with pytest.raises(ValueError):
            build_panel_env(0.0, 256)
        with pytest.raises(ValueError):
            build_panel_env(0.5, 32)


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

    def test_convergence(self):
        assert abs(compute_beta(0.6, 512) - compute_beta(0.6, 1024)) < 1e-3

    @pytest.mark.parametrize("resolution", [64, 256])
    def test_matches_full_array_directions_bit_for_bit(self, resolution):
        # reference: every texel term as a full (h, w) array, no broadcasting
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
            assert diffuse_convolve(env, n).tobytes() == expected.tobytes()

    def test_full_sphere_normalization(self):
        out = diffuse_convolve(uniform_env(1024, [1, 1, 1]), FRONTAL)
        assert abs(out[1] - 1.0) < 0.002


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

    def test_pfm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        env = EnvMap(rng.uniform(0, 4, (16, 32, 3)).astype(np.float32).astype(np.float64))
        path = tmp_path / "env.pfm"
        write_pfm(path, env.data)
        assert np.array_equal(read_env_pfm(path).data, env.data)

    def test_pfm_read_enforces_aspect(self, tmp_path):
        path = tmp_path / "bad.pfm"
        write_pfm(path, np.zeros((16, 16, 3)))
        with pytest.raises(ValueError, match="width"):
            read_env_pfm(path)
