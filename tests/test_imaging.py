import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from stagecal.calibration import (
    CalibrationBundle,
    SRLSet,
    build_sl,
    compute_black_level,
    condition_number,
    predict_lit_chart,
    q_objective,
    solve_m,
    solve_n,
    solve_q,
)
from stagecal.geometry import EnvMap, as_direction, w_avg_from_white
from stagecal.imaging import (
    _TILE,
    ChartGridSpec,
    ChartSamples,
    LinearImage,
    as_array,
    chart_image,
    extract_chart,
    normalize_green_white,
    read_chart_csv,
    read_pfm,
    render_comparison_chart,
    sample_roi,
    trimmed_mean,
    write_chart_csv,
    write_pfm,
    write_png16,
)
from stagecal.spectral import N_SAMPLES, OracleScene, default_camera, default_leds, integrate_response


def flat_chart_image(colors, patch=12):
    """24 flat patches in 6x4 layout plus the full-image grid spec."""
    img = chart_image(colors, patch)
    h, w = img.shape[:2]
    grid = ChartGridSpec(np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=float))
    return LinearImage(img), grid


class TestAsArray:
    def test_converts_and_matches_any_length_for_none(self):
        a = as_array([[1, 2, 3]], (None, 3), "v")
        assert a.dtype == np.float64 and a.shape == (1, 3)
        with pytest.raises(ValueError, match=re.escape("v must have shape (n, 3), got (1, 2)")):
            as_array([[1, 2]], (None, 3), "v")

    def test_type_error_becomes_value_error(self):
        with pytest.raises(ValueError, match="v must be numeric"):
            as_array({"a": 1}, (3,), "v")

    def test_first_bad_index_in_plain_ints(self):
        values = np.zeros((2, 3, 3))
        values[1, 2, 0] = values[1, 2, 2] = -np.inf
        with pytest.raises(ValueError, match=re.escape("v has a non-finite component at index (1, 2, 0): -inf")):
            as_array(values, (2, 3, 3), "v")
        values[1, 2] = [0.0, -0.5, -1.0]
        with pytest.raises(ValueError, match=re.escape("v has a negative component at index (1, 2, 1): -0.5")):
            as_array(values, (2, 3, 3), "v", nonneg=True)
        assert as_array(values, (2, 3, 3), "v") is values


def reference_check_message(a, name, nonneg):
    """The error of a whole-array check: full-size masks, non-finite first."""
    if not np.isfinite(a).all():
        bad, what = ~np.isfinite(a), "non-finite"
    elif nonneg and (a < 0).any():
        bad, what = a < 0, "negative"
    else:
        return None
    index = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), a.shape))
    return f"{name} has a {what} component at index {index}: {float(a[index])}"


class TestTiledCheck:
    """as_array tests tiles of _TILE elements; a (_TILE + 1)-element array spans two."""

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("at", [0, _TILE - 1, _TILE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_first_bad_component_matches_whole_array_check(self, bad, at, nonneg):
        values = np.linspace(0.0, 1.0, _TILE + 1)
        values[at] = bad
        expected = reference_check_message(values, "v", nonneg)
        if expected is None:  # -1 without nonneg
            assert as_array(values, (None,), "v", nonneg) is values
            return
        with pytest.raises(ValueError) as info:
            as_array(values, (None,), "v", nonneg)
        assert str(info.value) == expected

    @pytest.mark.parametrize(
        "marks",
        [{0: -1.0, _TILE: np.nan}, {_TILE - 1: -2.0, _TILE: -1.0}, {5: np.inf, _TILE - 1: np.nan}],
        ids=["negative-then-nan", "two-negatives", "inf-then-nan"],
    )
    def test_non_finite_reported_before_negative_anywhere(self, marks):
        values = np.zeros(_TILE + 1)
        for i, v in marks.items():
            values[i] = v
        with pytest.raises(ValueError) as info:
            as_array(values, (None,), "v", nonneg=True)
        assert str(info.value) == reference_check_message(values, "v", True)

    def test_index_is_in_row_major_order_for_any_memory_layout(self):
        values = np.zeros((3, _TILE)).T  # column-major memory: flat order differs from index order
        values[_TILE - 1, 0] = np.nan
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match=re.escape("at index (1, 2): nan")):
            as_array(values, (None, 3), "v")

    def test_negative_zero_empty_and_identity(self):
        zeros = np.full((_TILE + 1, 3), -0.0)
        assert as_array(zeros, (None, 3), "v", nonneg=True) is zeros
        empty = np.zeros((0, 3))
        assert as_array(empty, (None, 3), "v", nonneg=True) is empty
        values = np.random.default_rng(18).uniform(0.0, 1.0, (2 * _TILE + 1, 3))
        assert as_array(values, (None, 3), "v", nonneg=True) is values
        assert as_array(values, (None, 3), "v") is values


EYE = np.eye(3)
RGB = np.array([0.5, 0.4, 0.3])
SRL = SRLSet(np.full((24, 3, 3), 0.1))
TARGETS = ChartSamples(np.full((24, 3), 0.5))
CURVE = np.full(N_SAMPLES, 0.5)


def _bundle(**changes):
    args = {"m": EYE, "q": EYE, "n": EYE, "beta": 0.5, "black_offset": np.zeros(3), **changes}
    return CalibrationBundle(**args)


def _scene(**changes):
    args = {
        "camera": default_camera(),
        "leds": default_leds(),
        "illuminant": CURVE,
        "reflectances": np.full((24, N_SAMPLES), 0.5),
        **changes,
    }
    return OracleScene(**args)


# (call with the checked value, a valid value, the name its errors carry, checked for sign)
CHECKED_INPUTS = {
    "LinearImage": (LinearImage, np.full((2, 3, 3), 0.5), "image", True),
    "EnvMap": (EnvMap, np.full((2, 4, 3), 0.5), "image", True),
    "ChartSamples": (ChartSamples, np.full((24, 3), 0.5), "patches", True),
    "ChartGridSpec": (ChartGridSpec, np.array([[0, 0], [6, 0], [6, 4], [0, 4]], float), "corners", False),
    "SRLSet": (SRLSet, np.full((24, 3, 3), 0.1), "matrices", True),
    "bundle.m": (lambda v: _bundle(m=v), EYE, "M", False),
    "bundle.q": (lambda v: _bundle(q=v), EYE, "Q", False),
    "bundle.n": (lambda v: _bundle(n=v), EYE, "N", False),
    "bundle.black_offset": (lambda v: _bundle(black_offset=v), np.zeros(3), "black_offset", True),
    "build_sl": (lambda v: build_sl(RGB, v, RGB), RGB, "green", True),
    "condition_number": (condition_number, EYE, "matrix", False),
    "solve_m": (solve_m, EYE, "SL", False),
    "solve_n": (lambda v: solve_n(EYE, v), EYE, "Q", False),
    "predict_lit_chart": (lambda v: predict_lit_chart(SRL, EYE, v, 0.5), RGB, "w_avg", False),
    "solve_q.weights": (lambda v: solve_q(SRL, EYE, RGB, TARGETS, 0.5, v), np.ones(24), "weights", True),
    "q_objective": (lambda v: q_objective(v, SRL, EYE, RGB, TARGETS, 0.5), EYE, "Q", False),
    "compute_black_level.b_camera": (lambda v: compute_black_level(v, np.ones(3)), RGB / 10, "b_camera", True),
    "compute_black_level.w_camera": (lambda v: compute_black_level(RGB / 10, v), np.ones(3), "w_camera", False),
    "as_direction": (as_direction, np.array([0.0, 0.0, 1.0]), "direction", False),
    "w_avg_from_white": (w_avg_from_white, np.ones(3), "white_patch", False),
    "integrate_response.sensitivities": (
        lambda v: integrate_response(v, CURVE), default_camera(), "sensitivities", False
    ),
    "integrate_response.emission": (lambda v: integrate_response(default_camera(), v), CURVE, "emission", True),
    "integrate_response.reflectance": (
        lambda v: integrate_response(default_camera(), CURVE, v), CURVE, "reflectance", True
    ),
    "OracleScene.camera": (lambda v: _scene(camera=v), default_camera(), "camera", True),
    "OracleScene.leds": (lambda v: _scene(leds=v), default_leds(), "leds", True),
    "OracleScene.illuminant": (lambda v: _scene(illuminant=v), CURVE, "illuminant", True),
    "OracleScene.reflectances": (
        lambda v: _scene(reflectances=v), np.full((24, N_SAMPLES), 0.5), "reflectances", True
    ),
}


@pytest.mark.parametrize("case", CHECKED_INPUTS, ids=str)
def test_checked_inputs_reject_malformed_values(case):
    call, good, name, nonneg = CHECKED_INPUTS[case]
    call(good.copy())

    def rejects(value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} {message}"):
            call(value)

    longer = good.shape[:-1] + (good.shape[-1] + 1,)
    rejects(np.ones(longer), "must have shape")
    rejects(good[..., None], "must have shape")
    rejects("x", "must be numeric")
    # as_direction([nan, 0, 1]) and w_avg_from_white([nan, 1, 1]) among them
    bad = good.copy()
    bad.flat[0] = np.nan
    rejects(bad, re.escape(f"has a non-finite component at index {(0,) * good.ndim}: nan"))
    if nonneg:
        bad = good.copy()
        bad.flat[-1] = -1.0
        last = tuple(n - 1 for n in good.shape)
        rejects(bad, re.escape(f"has a negative component at index {last}: -1.0"))


class TestLinearImage:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LinearImage(np.full((1, 1, 3), -0.1))

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            LinearImage(np.zeros((4, 4)))


class TestExtractChart:
    def test_flat_patches_exact(self):
        rng = np.random.default_rng(0)
        colors = rng.uniform(0.0, 2.0, (24, 3))
        img, grid = flat_chart_image(colors)
        chart = extract_chart(img, grid)
        assert np.array_equal(chart.patches, colors)

    def test_outlier_robustness(self):
        # 5% of each patch replaced by 10.0; trimmed mean must shrug it off
        rng = np.random.default_rng(1)
        colors = rng.uniform(0.1, 0.9, (24, 3))
        img, grid = flat_chart_image(colors, patch=20)
        data = img.data.copy()
        for j in range(24):
            r, c = divmod(j, 6)
            ys = rng.integers(r * 20, (r + 1) * 20, 20)
            xs = rng.integers(c * 20, (c + 1) * 20, 20)
            data[ys, xs] = 10.0
        chart = extract_chart(LinearImage(data), grid)

        # independent recomputation: sort each inset region, drop 10% tails
        for j in range(24):
            r, c = divmod(j, 6)
            y0, y1 = r * 20 + 5, (r + 1) * 20 - 5
            x0, x1 = c * 20 + 5, (c + 1) * 20 - 5
            region = data[y0:y1, x0:x1].reshape(-1, 3)
            n = region.shape[0]
            k = int(n * 0.1)
            expect = np.sort(region, axis=0)[k : n - k].mean(axis=0)
            assert np.abs(chart.patches[j] - expect).max() < 1e-12
            assert np.abs(chart.patches[j] - colors[j]).max() < 1e-6

    def test_pixel_permutation_invariance(self):
        rng = np.random.default_rng(2)
        img, grid = flat_chart_image(rng.uniform(0.1, 0.9, (24, 3)), patch=16)
        data = img.data + rng.uniform(0, 0.05, img.data.shape)
        before = extract_chart(LinearImage(data), grid)
        # shuffle pixels inside patch 7's inset region
        shuffled = data.copy()
        y0, y1, x0, x1 = 20, 28, 20, 28
        block = shuffled[y0:y1, x0:x1].reshape(-1, 3)
        shuffled[y0:y1, x0:x1] = rng.permutation(block, axis=0).reshape(8, 8, 3)
        after = extract_chart(LinearImage(shuffled), grid)
        assert np.allclose(before.patches, after.patches, atol=1e-12)

    def test_corner_outside_rejected(self):
        img, _ = flat_chart_image(np.full((24, 3), 0.5))
        grid = ChartGridSpec(np.array([[-1, 0], [72, 0], [72, 48], [0, 48]], dtype=float))
        with pytest.raises(ValueError, match="outside"):
            extract_chart(img, grid)

    def test_too_few_pixels_rejected(self):
        img, _ = flat_chart_image(np.full((24, 3), 0.5))
        grid = ChartGridSpec(np.array([[0, 0], [8, 0], [8, 6], [0, 6]], dtype=float))
        with pytest.raises(ValueError, match="< 4"):
            extract_chart(img, grid)

    def test_non_convex_grid_rejected(self):
        with pytest.raises(ValueError, match="convex"):
            ChartGridSpec(np.array([[0, 0], [10, 0], [2, 2], [0, 10]], dtype=float))

    def test_inset_range(self):
        corners = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
        with pytest.raises(ValueError, match="inset"):
            ChartGridSpec(corners, inset=0.5)


class TestSampleRoi:
    def test_flat_region_exact(self):
        img = LinearImage(np.full((10, 10, 3), 0.37))
        assert np.array_equal(sample_roi(img, (2, 2, 5, 5)), np.full(3, 0.37))

    def test_out_of_bounds(self):
        img = LinearImage(np.zeros((10, 10, 3)))
        with pytest.raises(ValueError):
            sample_roi(img, (8, 8, 5, 5))


class TestTrimmedMean:
    def test_matches_plain_mean_without_outliers(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.4, 0.6, (9, 3))  # n=9 -> no samples trimmed
        assert np.allclose(trimmed_mean(values), values.mean(axis=0), atol=1e-15)


class TestNormalizeGreenWhite:
    def test_identity(self):
        chart = ChartSamples(np.random.default_rng(4).uniform(0.1, 1.0, (24, 3)))
        out = normalize_green_white(chart, chart)
        assert np.allclose(out.patches, chart.patches, atol=1e-15)

    def test_scalar_cancellation(self):
        ref = ChartSamples(np.random.default_rng(5).uniform(0.1, 1.0, (24, 3)))
        subject = ChartSamples(0.5 * ref.patches)
        out = normalize_green_white(ref, subject)
        assert np.allclose(out.patches, ref.patches, atol=1e-12)

    def test_explicit_scale(self):
        rng = np.random.default_rng(6)
        ref_p = rng.uniform(0.1, 1.0, (24, 3))
        sub_p = rng.uniform(0.1, 1.0, (24, 3))
        ref_p[18, 1] = 0.4
        sub_p[18, 1] = 0.1
        out = normalize_green_white(ChartSamples(ref_p), ChartSamples(sub_p))
        assert np.array_equal(out.patches, sub_p * 4.0)

    def test_white_green_matches_reference(self):
        rng = np.random.default_rng(7)
        ref = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        sub = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        out = normalize_green_white(ref, sub)
        assert abs(out.white[1] - ref.white[1]) < 1e-12

    def test_zero_green_rejected(self):
        good = ChartSamples(np.full((24, 3), 0.5))
        bad_p = np.full((24, 3), 0.5)
        bad_p[18, 1] = 0.0
        with pytest.raises(ValueError, match="green"):
            normalize_green_white(good, ChartSamples(bad_p))


class TestComparisonChart:
    def test_chart_image_draws_row_major_squares(self):
        patches = np.random.default_rng(15).uniform(0.0, 1.0, (24, 3))
        img = chart_image(patches, 5)
        assert img.shape == (20, 30, 3)
        for j in range(24):
            r, c = divmod(j, 6)
            cell = img[r * 5 : (r + 1) * 5, c * 5 : (c + 1) * 5]
            assert np.array_equal(cell, np.broadcast_to(patches[j], cell.shape))
        with pytest.raises(ValueError, match="patches must have shape"):
            chart_image(patches[:23], 5)

    def test_equal_inputs_uniform_cells(self):
        chart = ChartSamples(np.random.default_rng(8).uniform(0.1, 1.0, (24, 3)))
        img = render_comparison_chart(chart, chart)
        for j in range(24):
            r, c = divmod(j, 6)
            cell = img.data[r * 48 : (r + 1) * 48, c * 48 : (c + 1) * 48]
            assert np.array_equal(cell, np.broadcast_to(chart.patches[j], cell.shape))

    def test_normalization_cancels_global_scale(self):
        patches = np.random.default_rng(9).uniform(0.1, 0.5, (24, 3))
        patches[18] = 0.5  # gray white patch
        target = ChartSamples(patches)
        measured = ChartSamples(2.0 * patches)
        img = render_comparison_chart(target, measured)
        for j in range(24):
            r, c = divmod(j, 6)
            cell = img.data[r * 48 : (r + 1) * 48, c * 48 : (c + 1) * 48]
            assert np.abs(cell - target.patches[j]).max() < 1e-12

    def test_circle_centers_carry_measured(self):
        rng = np.random.default_rng(10)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        patches = rng.uniform(0.1, 1.0, (24, 3))
        patches[18, 1] = target.white[1]  # same exposure: the match scales by exactly 1
        measured = ChartSamples(patches)
        img = render_comparison_chart(target, measured)
        for j in range(24):
            r, c = divmod(j, 6)
            center = img.data[r * 48 + 24, c * 48 + 24]
            assert np.array_equal(center, measured.patches[j])

    def test_zero_green_white_drawn_unscaled(self):
        rng = np.random.default_rng(14)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        patches = rng.uniform(0.1, 1.0, (24, 3))
        patches[18, 1] = 0.0  # no exposure to match against
        img = render_comparison_chart(target, ChartSamples(patches))
        centers = img.data[24::48, 24::48].reshape(24, 3)
        assert np.array_equal(centers, patches)


class TestFileFormats:
    def test_pfm_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.uniform(0.0, 5.0, (7, 9, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "img.pfm"
        write_pfm(path, data)
        assert np.array_equal(read_pfm(path), data)

    def test_pfm_rejects_negative_dimensions(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"PF\n-2 3\n-1.0\n" + b"\x00" * 72)
        with pytest.raises(ValueError, match="negative PFM dimensions -2 x 3"):
            read_pfm(path)

    def test_pfm_header_larger_than_file_rejected_before_allocating(self, tmp_path):
        # 100000 x 100000 pixels would be a 224 GiB float64 image
        path = tmp_path / "huge.pfm"
        path.write_bytes(b"PF\n100000 100000\n-1\n" + b"\x00" * 4)
        with pytest.raises(ValueError, match="truncated PFM payload"):
            read_pfm(path)

    def test_pfm_zero_height_allocates_no_row(self, tmp_path):
        # a 10**12-pixel-wide empty image needs no payload, and no 12 TB read block
        path = tmp_path / "wide.pfm"
        path.write_bytes(b"PF\n1000000000000 0\n-1\n")
        assert read_pfm(path).shape == (0, 10**12, 3)

    def test_pfm_accepts_trailing_bytes(self, tmp_path):
        data = np.arange(6.0).reshape(1, 2, 3)
        path = tmp_path / "img.pfm"
        write_pfm(path, data)
        with open(path, "ab") as f:
            f.write(b"\x00" * 5)
        assert np.array_equal(read_pfm(path), data)

    def test_pfm_rejects_non_color(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="PFM"):
            read_pfm(path)

    def test_chart_csv_round_trip(self, tmp_path):
        chart = ChartSamples(np.random.default_rng(12).uniform(0.0, 3.0, (24, 3)))
        path = tmp_path / "chart.csv"
        write_chart_csv(path, chart)
        back = read_chart_csv(path)
        assert np.array_equal(back.patches, chart.patches)

    @staticmethod
    def _chart_csv(path, indices):
        rows = "".join(f"{i},0.5,0.5,0.5\n" for i in indices)
        path.write_text("patch_index,r,g,b\n" + rows)
        return path

    def test_chart_csv_rejects_negative_index(self, tmp_path):
        # -1 must not wrap around to patch 23
        path = self._chart_csv(tmp_path / "chart.csv", [-1, *range(23)])
        with pytest.raises(ValueError, match=r"chart\.csv, line 2: patch index -1 outside \[0, 24\)"):
            read_chart_csv(path)

    def test_chart_csv_rejects_index_past_chart(self, tmp_path):
        path = self._chart_csv(tmp_path / "chart.csv", [*range(24), 24])
        with pytest.raises(ValueError, match=r"chart\.csv, line 26: patch index 24 outside \[0, 24\)"):
            read_chart_csv(path)

    def test_chart_csv_rejects_duplicate_index(self, tmp_path):
        path = self._chart_csv(tmp_path / "chart.csv", [*range(24), 5])
        with pytest.raises(ValueError, match=r"chart\.csv, line 26: duplicate patch index 5"):
            read_chart_csv(path)

    def test_png16_payload(self, tmp_path):
        rng = np.random.default_rng(13)
        img = LinearImage(rng.uniform(0.0, 1.2, (5, 4, 3)))
        path = tmp_path / "out.png"
        write_png16(path, img)
        blob = path.read_bytes()
        assert blob[:8] == b"\x89PNG\r\n\x1a\n"
        w, h, depth, color = struct.unpack(">IIBB", blob[16:26])
        assert (w, h, depth, color) == (4, 5, 16, 2)
        expect = np.round(np.clip(img.data ** (1 / 2.4), 0, 1) * 65535).astype(np.uint16)
        assert np.array_equal(png16_pixels(path, 5, 4), expect)

    def test_png16_encodes_with_gamma_2_4(self, tmp_path):
        # scene-linear v**2.4 encodes back to v on a dense grid of 16-bit codes
        v = np.linspace(0.0, 1.0, 64).reshape(4, -1)[..., None].repeat(3, axis=-1)
        path = tmp_path / "ramp.png"
        write_png16(path, LinearImage(v**2.4))
        assert np.array_equal(png16_pixels(path, 4, 16), np.round(v * 65535))


def png16_pixels(path, height, width):
    """Decode a 16-bit RGB PNG by hand: one IDAT chunk, filter byte 0 on every row."""
    blob = path.read_bytes()
    start = blob.index(b"IDAT") + 4
    (length,) = struct.unpack(">I", blob[start - 8 : start - 4])
    rows = np.frombuffer(zlib.decompress(blob[start : start + length]), np.uint8).reshape(height, -1)
    assert (rows[:, 0] == 0).all()
    return np.frombuffer(rows[:, 1:].tobytes(), ">u2").reshape(height, width, 3).astype(np.uint16)


def pfm_bytes(width, height, dtype, payload=b""):
    scale = b"-1.0" if dtype == "<f4" else b"1.0"
    return b"PF\n%d %d\n%s\n" % (width, height, scale) + payload


def reference_read_pfm(path):
    """read_pfm as one whole-payload decode: frombuffer, flipud, astype."""
    with open(path, "rb") as f:
        f.readline()
        width, height = (int(t) for t in f.readline().split())
        scale = float(f.readline())
        raw = f.read(width * height * 12)
    data = np.frombuffer(raw, dtype="<f4" if scale < 0 else ">f4").reshape(height, width, 3)
    return np.flipud(data).astype(np.float64)


def block_rows(width):
    return max(1, _TILE // width)


# heights around one and two read blocks, for a one-pixel and a 4K-wide image
PFM_SHAPES = [
    (width, height)
    for width in (1, 3840)
    for b in [block_rows(width)]
    for height in (1, b - 1, b, b + 1, 2 * b + 1)
]


# no shrink phase: the failing draw (shape, byte order, seed) is already small
@pytest.mark.parametrize("width, height", PFM_SHAPES)
@settings(derandomize=True, max_examples=4, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(dtype=st.sampled_from(["<f4", ">f4"]), seed=st.integers(0, 2**32 - 1))
def test_streamed_read_pfm_matches_whole_payload_decode(tmp_path_factory, width, height, dtype, seed):
    # arbitrary bit patterns: NaN payloads, infinities, subnormals and -0.0 included
    bits = np.random.default_rng(seed).integers(0, 2**32, width * height * 3, dtype=np.uint32)
    path = tmp_path_factory.mktemp("pfm") / "img.pfm"
    path.write_bytes(pfm_bytes(width, height, dtype, bits.astype(dtype[0] + "u4").tobytes()))
    with np.errstate(invalid="ignore"):  # signalling NaNs become quiet in both casts
        data, ref = read_pfm(path), reference_read_pfm(path)
    assert data.dtype == np.float64 and data.shape == (height, width, 3)
    assert data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("width", [1, 3840])
@pytest.mark.parametrize(
    "cut_rows, cut_bytes",
    [(0, 0), (0, 6), ("block", 0), ("block", 6), ("block", -6)],
    ids=["empty", "inside-first-block", "block-boundary", "inside-second-block", "end-of-first-block"],
)
def test_pfm_truncated_at_any_point(tmp_path, width, cut_rows, cut_bytes):
    height = 2 * block_rows(width) + 1
    rows = block_rows(width) if cut_rows == "block" else cut_rows
    payload = np.ones(width * height * 3, dtype="<f4").tobytes()
    path = tmp_path / "cut.pfm"
    path.write_bytes(pfm_bytes(width, height, "<f4", payload[: rows * width * 12 + cut_bytes]))
    with pytest.raises(ValueError, match="truncated PFM payload"):
        read_pfm(path)
