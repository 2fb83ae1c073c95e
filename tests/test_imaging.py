import numpy as np
import pytest

from stagecal.imaging import (
    ChartExtractionError,
    ChartGridSpec,
    ChartSamples,
    LinearImage,
    decode_transfer,
    encode_transfer,
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

# direct power evaluation, frozen
HALF_TO_GAMMA_24 = 0.18946457081379978


def flat_chart_image(colors, patch=12):
    """24 flat patches in 6x4 layout plus the full-image grid spec."""
    colors = np.asarray(colors, dtype=np.float64)
    img = np.zeros((4 * patch, 6 * patch, 3))
    for j in range(24):
        r, c = divmod(j, 6)
        img[r * patch : (r + 1) * patch, c * patch : (c + 1) * patch] = colors[j]
    h, w = img.shape[:2]
    grid = ChartGridSpec(np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=float))
    return LinearImage(img), grid


class TestTransfer:
    def test_half_gray(self):
        out = decode_transfer(np.full((1, 1, 3), 0.5))
        assert np.allclose(out.data, HALF_TO_GAMMA_24, atol=1e-12)

    @pytest.mark.parametrize("gamma", [1.0, 1.8, 2.4])
    def test_fixed_points(self, gamma):
        img = np.array([[[0.0, 1.0, 0.0]]])
        out = decode_transfer(img, gamma)
        assert np.array_equal(out.data, img)

    def test_round_trip(self):
        values = np.array([0.0, 0.25, 0.5, 1.0])
        img = np.stack([values] * 3, axis=-1)[None, :, :]
        linear = decode_transfer(img)
        assert np.abs(encode_transfer(linear) - img).max() < 1e-6

    def test_round_trip_dense_grid(self):
        img = np.linspace(0.0, 1.0, 64).reshape(4, -1)[..., None].repeat(3, axis=-1)
        assert np.abs(encode_transfer(decode_transfer(img)) - img).max() < 1e-6

    def test_non_finite_rejected_with_location(self):
        img = np.zeros((2, 3, 3))
        img[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match=r"x=2, y=1"):
            decode_transfer(img)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            decode_transfer(np.full((1, 1, 3), 1.5))

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            decode_transfer(np.zeros((1, 1, 3)), gamma=0.0)


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
        chart = extract_chart(img, grid, saturation_level=None)
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
        chart = extract_chart(LinearImage(data), grid, saturation_level=None)

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
        before = extract_chart(LinearImage(data), grid, saturation_level=None)
        # shuffle pixels inside patch 7's inset region
        shuffled = data.copy()
        y0, y1, x0, x1 = 20, 28, 20, 28
        block = shuffled[y0:y1, x0:x1].reshape(-1, 3)
        shuffled[y0:y1, x0:x1] = rng.permutation(block, axis=0).reshape(8, 8, 3)
        after = extract_chart(LinearImage(shuffled), grid, saturation_level=None)
        assert np.allclose(before.patches, after.patches, atol=1e-12)

    def test_corner_outside_rejected(self):
        img, _ = flat_chart_image(np.full((24, 3), 0.5))
        grid = ChartGridSpec(np.array([[-1, 0], [72, 0], [72, 48], [0, 48]], dtype=float))
        with pytest.raises(ChartExtractionError, match="outside"):
            extract_chart(img, grid)

    def test_too_few_pixels_rejected(self):
        img, _ = flat_chart_image(np.full((24, 3), 0.5))
        grid = ChartGridSpec(np.array([[0, 0], [8, 0], [8, 6], [0, 6]], dtype=float))
        with pytest.raises(ChartExtractionError, match="< 4"):
            extract_chart(img, grid)

    def test_saturated_patch_warns(self):
        colors = np.full((24, 3), 0.5)
        colors[3] = 1.0
        img, grid = flat_chart_image(colors)
        with pytest.warns(UserWarning, match="patch 3"):
            extract_chart(img, grid, saturation_level=1.0)

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
        img = render_comparison_chart(target, measured, normalize=True)
        for j in range(24):
            r, c = divmod(j, 6)
            cell = img.data[r * 48 : (r + 1) * 48, c * 48 : (c + 1) * 48]
            assert np.abs(cell - target.patches[j]).max() < 1e-12

    def test_circle_centers_carry_measured(self):
        rng = np.random.default_rng(10)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        measured = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        img = render_comparison_chart(target, measured, normalize=False)
        for j in range(24):
            r, c = divmod(j, 6)
            center = img.data[r * 48 + 24, c * 48 + 24]
            assert np.array_equal(center, measured.patches[j])


class TestFileFormats:
    def test_pfm_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.uniform(0.0, 5.0, (7, 9, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "img.pfm"
        write_pfm(path, data)
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
        # decode the PNG by hand and compare against the expected encoding
        import struct
        import zlib

        rng = np.random.default_rng(13)
        img = LinearImage(rng.uniform(0.0, 1.2, (5, 4, 3)))
        path = tmp_path / "out.png"
        write_png16(path, img)
        blob = path.read_bytes()
        assert blob[:8] == b"\x89PNG\r\n\x1a\n"
        w, h, depth, color = struct.unpack(">IIBB", blob[16:26])
        assert (w, h, depth, color) == (4, 5, 16, 2)
        idat_start = blob.index(b"IDAT") + 4
        idat_len = struct.unpack(">I", blob[idat_start - 8 : idat_start - 4])[0]
        raw = zlib.decompress(blob[idat_start : idat_start + idat_len])
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(5, -1)
        assert (rows[:, 0] == 0).all()  # filter byte
        pixels = np.frombuffer(rows[:, 1:].tobytes(), dtype=">u2").reshape(5, 4, 3)
        expect = np.round(np.clip(encode_transfer(img), 0, 1) * 65535).astype(np.uint16)
        assert np.array_equal(pixels.astype(np.uint16), expect)
