import dataclasses
import math
import mmap
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import stagecal
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
from stagecal.geometry import FRONTAL, EnvMap, as_direction, w_avg_from_env, w_avg_from_white
from stagecal.imaging import (
    _CHUNK,
    TRIM_FRACTION,
    _bilinear_point,
    _comparison_colors,
    _encode16,
    _pixels_in_quads,
    _read_only_map,
    ChartGridSpec,
    ChartSamples,
    LinearImage,
    as_array,
    check_beta,
    check_roi,
    chart_image,
    extract_chart,
    read_chart_csv,
    read_pfm,
    render_comparison_chart,
    sample_roi,
    trimmed_mean,
    write_chart_csv,
    write_pfm,
    write_png16,
)
from stagecal.spectral import (
    N_SAMPLES,
    OracleScene,
    default_camera,
    default_leds,
    integrate_response,
    oracle_calibration,
)


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

    def test_int_too_long_to_print_is_named_by_its_bit_length(self):
        # str() of 10**5000 raises Python's int-to-string limit error
        with pytest.raises(ValueError, match=re.escape("v must be numeric, got [<16610-bit int>, 1.0]")):
            as_array([10**5000, 1.0], (2,), "v")

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
    """as_array names the first bad component in row-major order, in any memory layout and at any position.

    The class keeps the name of the tiled pass the check once took, so that its test ids stay; the
    65,537-element inputs are the ones that spanned two of that pass's tiles.
    """

    @pytest.mark.parametrize("nonneg", [False, True])
    @pytest.mark.parametrize("at", [0, 65535, 65536])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_first_bad_component_matches_whole_array_check(self, bad, at, nonneg):
        values = np.linspace(0.0, 1.0, 65537)
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
        [{0: -1.0, 65536: np.nan}, {65535: -2.0, 65536: -1.0}, {5: np.inf, 65535: np.nan}],
        ids=["negative-then-nan", "two-negatives", "inf-then-nan"],
    )
    def test_non_finite_reported_before_negative_anywhere(self, marks):
        values = np.zeros(65537)
        for i, v in marks.items():
            values[i] = v
        with pytest.raises(ValueError) as info:
            as_array(values, (None,), "v", nonneg=True)
        assert str(info.value) == reference_check_message(values, "v", True)

    def test_index_is_in_row_major_order_for_any_memory_layout(self):
        values = np.zeros((3, 65536)).T  # column-major memory: flat order differs from index order
        values[65535, 0] = np.nan
        values[1, 2] = np.nan
        with pytest.raises(ValueError, match=re.escape("at index (1, 2): nan")):
            as_array(values, (None, 3), "v")

    def test_row_flipped_view_is_checked_without_a_copy(self):
        # read_pfm returns such a view of its mapping; a copy would double the image
        x = np.ones((512, 1024, 3), np.float32)
        tracemalloc.start()
        try:
            assert LinearImage(x[::-1]).data.base is x
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 64

    @pytest.mark.parametrize("bad, what", [(np.nan, "non-finite"), (-0.5, "negative")])
    @pytest.mark.parametrize("at", [(0, 0, 0), (7, 1000, 2), (511, 3, 1)])
    def test_row_flipped_view_reports_the_same_index(self, bad, what, at):
        x = np.ones((512, 1024, 3), np.float32)
        flipped = x[::-1]
        flipped[at] = bad
        with pytest.raises(ValueError) as want:
            LinearImage(np.ascontiguousarray(flipped))
        with pytest.raises(ValueError) as got:
            LinearImage(flipped)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"image has a {what} component at index {at}:")

    def test_negative_zero_empty_and_identity(self):
        zeros = np.full((65537, 3), -0.0)
        assert as_array(zeros, (None, 3), "v", nonneg=True) is zeros
        empty = np.zeros((0, 3))
        assert as_array(empty, (None, 3), "v", nonneg=True) is empty
        values = np.random.default_rng(18).uniform(0.0, 1.0, (131073, 3))
        assert as_array(values, (None, 3), "v", nonneg=True) is values
        assert as_array(values, (None, 3), "v") is values


# bit patterns injected into a checked image: -0.0, tiny negatives, +inf, -inf, and NaNs
# with the sign bit set, quiet with a payload, and signalling
_CHECK_BITS = {
    np.float32: [0x80000000, 0x80000001, 0xBF800000, 0x7F800000, 0xFF800000, 0xFFC00000, 0x7FC00001, 0x7F800001],
    np.float64: [
        0x8000000000000000, 0x8000000000000001, 0xBFF0000000000000, 0x7FF0000000000000,
        0xFFF0000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
    ],
}
_CHECK_LAYOUTS = {
    "c-order": lambda base: base[::2, ::2].copy(),
    "row-flipped": lambda base: base[::-1],
    "strided": lambda base: base[1::2, ::2],
}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    layout=st.sampled_from(sorted(_CHECK_LAYOUTS)),
    height=st.integers(1, 6),
    width=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    inject=st.lists(st.integers(0, 7), max_size=3),
)
def test_linear_image_accepts_exactly_the_finite_non_negative_arrays(dtype, layout, height, width, seed, inject):
    rng = np.random.default_rng(seed)
    finfo = np.finfo(dtype)
    pool = np.array([0.0, finfo.smallest_subnormal, finfo.tiny / 3, finfo.tiny, finfo.max, 0.5], dtype)
    base = np.where(
        rng.random((2 * height, 2 * width, 3)) < 0.5,
        rng.choice(pool, (2 * height, 2 * width, 3)),
        rng.random((2 * height, 2 * width, 3)),
    ).astype(dtype)
    image = _CHECK_LAYOUTS[layout](base)
    bits = image.view(np.uint32 if dtype == np.float32 else np.uint64)
    for which in inject:
        bits[tuple(int(rng.integers(n)) for n in image.shape)] = _CHECK_BITS[dtype][which]
    if (np.isfinite(image) & (image >= 0)).all():
        assert LinearImage(image).data is image
        return
    with pytest.raises(ValueError) as info:
        LinearImage(image)
    assert str(info.value) == reference_check_message(image, "image", True)


EYE = np.eye(3)
RGB = np.array([0.5, 0.4, 0.3])
SRL = SRLSet(np.full((24, 3, 3), 0.1))
TARGETS = ChartSamples(np.full((24, 3), 0.5))
PREDICTED = predict_lit_chart(SRL, EYE, RGB, 0.5)
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
    "LinearImage.float32": (LinearImage, np.full((2, 3, 3), 0.5, np.float32), "image", True),
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
    "solve_q.weights": (lambda v: solve_q(PREDICTED, TARGETS, v), np.ones(24), "weights", True),
    "solve_q.predicted": (lambda v: solve_q(v, TARGETS), PREDICTED, "predicted", False),
    "q_objective": (lambda v: q_objective(v, PREDICTED, TARGETS), EYE, "Q", False),
    "q_objective.predicted": (lambda v: q_objective(EYE, v, TARGETS), PREDICTED, "predicted", False),
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
    # numpy's scalars are real numbers; a bool or a numeric string is not, bare or as an element
    leaves = np.fromiter(good.flat, object).reshape(good.shape)
    call(leaves.tolist())
    for element in (True, "1"):
        rejects(element, "must be numeric")
        leaves.flat[0] = element
        rejects(leaves.tolist(), "must be numeric")
    # as_direction([nan, 0, 1]) and w_avg_from_white([nan, 1, 1]) among them
    bad = good.copy()
    bad.flat[0] = np.nan
    rejects(bad, re.escape(f"has a non-finite component at index {(0,) * good.ndim}: nan"))
    if nonneg:
        bad = good.copy()
        bad.flat[-1] = -1.0
        last = tuple(n - 1 for n in good.shape)
        rejects(bad, re.escape(f"has a negative component at index {last}: -1.0"))


# every function that takes beta, checked by check_beta's one rule
BETA_CHECKS = {
    "check_beta": check_beta,
    "predict_lit_chart": lambda v: predict_lit_chart(SRL, EYE, RGB, v),
    "CalibrationBundle": lambda v: _bundle(beta=v),
    "oracle_calibration": lambda v: oracle_calibration(_scene(), v),
}


@pytest.mark.parametrize("value", [0.0, -1.0, 1.5, float("nan"), True], ids=str)
@pytest.mark.parametrize("case", BETA_CHECKS, ids=str)
def test_beta_outside_zero_to_one_rejected(case, value):
    call = BETA_CHECKS[case]
    call(1.0)  # the upper end is included
    # True is not a number, though Python counts it as 1
    message = "beta must be a number, got True" if value is True else f"beta must be in (0, 1], got {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


@pytest.mark.parametrize("value, shown", [(10**5000, "<16610-bit int>"), (2, "2")], ids=["10**5000", "2"])
def test_beta_int_outside_zero_to_one_named_in_the_range_message(value, shown):
    # str() of 10**5000 raises Python's int-to-string limit error
    with pytest.raises(ValueError, match=re.escape(f"beta must be in (0, 1], got {shown} for w")):
        check_beta(value, " for w")


class TestLinearImage:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            LinearImage(np.full((1, 1, 3), -0.1))

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            LinearImage(np.zeros((4, 4)))

    def test_float32_and_float64_kept_as_given(self):
        for dtype in (np.float32, np.float64):
            data = np.full((2, 3, 3), 0.5, dtype)
            assert LinearImage(data).data is data
        assert LinearImage(np.ones((1, 1, 3), np.float16)).data.dtype == np.float64
        assert LinearImage(np.ones((1, 1, 3), ">f4")).data.dtype == np.float64
        assert LinearImage([[[1, 2, 3]]]).data.dtype == np.float64


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
        grid = ChartGridSpec(np.array([[0, 0], [73, 0], [72, 48], [0, 48]], dtype=float))
        with pytest.raises(ValueError, match="outside"):
            extract_chart(img, grid)

    def test_negative_corner_rejected_without_an_image(self):
        with pytest.raises(ValueError, match="negative coordinate"):
            ChartGridSpec(np.array([[-1, 0], [72, 0], [72, 48], [0, 48]], dtype=float))

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


def reference_pixels_in_quad(image: LinearImage, quad: np.ndarray) -> np.ndarray:
    """One quad's pixels as _pixels_in_quads selects them, by four cross-product masks
    over the quad's whole bounding box."""
    x0 = max(int(np.floor(quad[:, 0].min())), 0)
    x1 = min(int(np.ceil(quad[:, 0].max())), image.width)
    y0 = max(int(np.floor(quad[:, 1].min())), 0)
    y1 = min(int(np.ceil(quad[:, 1].max())), image.height)
    if x1 <= x0 or y1 <= y0:
        return np.empty((0, 3))
    xs, ys = np.meshgrid(np.arange(x0, x1) + 0.5, np.arange(y0, y1) + 0.5, indexing="xy")
    area2 = sum(
        quad[i, 0] * quad[(i + 1) % 4, 1] - quad[(i + 1) % 4, 0] * quad[i, 1]
        for i in range(4)
    )
    sign = 1.0 if area2 >= 0 else -1.0
    inside = np.ones(xs.shape, dtype=bool)
    for i in range(4):
        ax, ay = quad[i]
        bx, by = quad[(i + 1) % 4]
        cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        inside &= sign * cross >= 0
    return image.data[y0:y1, x0:x1][inside]


# pixel coordinates on the integer and half-integer grid, where edges pass
# exactly through pixel centers, and anywhere between; the image is 20 x 16,
# so some quads reach past its bounds
QUAD_IMAGE = LinearImage(np.arange(16 * 20 * 3, dtype=np.float32).reshape(16, 20, 3))
_COORD = st.one_of(st.integers(-8, 48).map(lambda i: i / 2), st.floats(-4.0, 24.0))
_POINT = st.tuples(_COORD, _COORD)
_NUDGE = st.sampled_from([0.0, 0.5, 1e-9, 0.3])


@st.composite
def quads(draw):
    if draw(st.booleans()):
        # four free points: degenerate, non-convex and crossed quads included
        quad = np.array(draw(st.lists(_POINT, min_size=4, max_size=4)))
    else:
        # a chart patch as extract_chart maps it, whose edges may run a few
        # ulps off horizontal or vertical
        (xa, ya), (xb, yb) = draw(_POINT), draw(_POINT)
        corners = np.array([[xa, ya], [xb, ya], [xb, yb], [xa, yb]]) + np.array(
            draw(st.lists(st.tuples(_NUDGE, _NUDGE), min_size=4, max_size=4))
        )
        r, c, inset = draw(st.integers(0, 3)), draw(st.integers(0, 5)), draw(st.sampled_from([0.1, 0.25, 0.4]))
        u0, u1 = (c + inset) / 6, (c + 1 - inset) / 6
        v0, v1 = (r + inset) / 4, (r + 1 - inset) / 4
        quad = _bilinear_point(corners, np.array([u0, u1, u1, u0]), np.array([v0, v0, v1, v1]))
    # either winding
    return quad[::-1].copy() if draw(st.booleans()) else quad


@settings(derandomize=True, max_examples=300, deadline=None)
@given(stack=st.lists(quads(), min_size=1, max_size=4))
def test_pixels_in_quads_selects_what_full_box_masks_select(stack):
    got = list(_pixels_in_quads(QUAD_IMAGE, np.array(stack)))
    assert len(got) == len(stack)
    for values, quad in zip(got, stack):
        want = reference_pixels_in_quad(QUAD_IMAGE, quad)
        # the same pixels in the same row-major order: every pixel value is distinct
        assert values.shape == want.shape and values.tobytes() == want.astype(values.dtype).tobytes()


class TestSampleRoi:
    def test_flat_region_exact(self):
        img = LinearImage(np.full((10, 10, 3), 0.37))
        assert np.array_equal(sample_roi(img, (2, 2, 5, 5)), np.full(3, 0.37))

    def test_out_of_bounds(self):
        img = LinearImage(np.zeros((10, 10, 3)))
        with pytest.raises(ValueError):
            sample_roi(img, (8, 8, 5, 5))

    # config ROIs are checked by the same rule: a string, a bool or None is no
    # number, and an integer past the float range is not a finite one
    @pytest.mark.parametrize("roi", [(0.5, 0, 4, 4), (0, -1e-300, 4, 4), (0, 0, 4, np.nan), (0, 0, np.inf, 4),
                                     ("1", 0, True, 1), (10**400, 0, 1, 1), (None, 0, 1, 1)])
    def test_fractional_component_rejected(self, roi):
        img = LinearImage(np.zeros((16, 16, 3)))
        with pytest.raises(ValueError, match=r"^ROI must be 4 integers \(x, y, w, h\), got \("):
            sample_roi(img, roi)
        assert np.array_equal(sample_roi(img, (0.0, 0, 16.0, 16)), np.zeros(3))

    # a library caller's ROI of the wrong length, no sequence at all, or an
    # integer too long to print in decimal is named in the message
    @pytest.mark.parametrize("roi", [(0, 0, 1), (0, 0, 1, 1, 1), None, (10**5000, 0, 1, 1)])
    def test_roi_not_four_whole_numbers_rejected(self, roi):
        img = LinearImage(np.zeros((16, 16, 3)))
        with pytest.raises(ValueError, match=r"^ROI must be 4 integers \(x, y, w, h\), got "):
            sample_roi(img, roi)

    # a negative origin or an empty size breaks the ROI rule before any image bound is tested
    @pytest.mark.parametrize("roi", [(-1, 0, 4, 4), (0, -3, 4, 4), (0, 0, 0, 4), (0, 0, 4, -2)])
    def test_negative_origin_or_empty_size_breaks_the_roi_rule(self, roi):
        img = LinearImage(np.zeros((16, 16, 3)))
        with pytest.raises(ValueError) as info:
            sample_roi(img, roi)
        assert str(info.value) == f"ROI needs x, y >= 0 and w, h >= 1, got {roi}"

    # a library ROI and a config ROI follow one rule, check_roi's, each named by its caller
    @pytest.mark.parametrize("roi", [[0, 0, 0, 5], [0.5, 0, 4, 4], [0, 0, 4], "0004", None])
    def test_one_rule_for_library_and_config_rois(self, roi):
        with pytest.raises(ValueError) as config:
            check_roi(roi, "red")
        with pytest.raises(ValueError) as library:
            sample_roi(LinearImage(np.zeros((16, 16, 3))), roi)
        assert str(library.value).removeprefix("ROI ") == str(config.value).removeprefix("red ")

    def test_long_roi_is_abbreviated_in_its_message(self):
        with pytest.raises(ValueError) as info:
            check_roi(list(range(100_000)), "red")
        assert str(info.value) == "red must be 4 integers (x, y, w, h), got [0, 1, 2, 3, 4, 5, ...]"

    # one float32 channel row is 4e6 B (3.8 MiB); widening its 800000 kept values,
    # as the fallback does, would add 6.4e6 B (6.1 MiB), so both fields must sum
    # their kept values in selection order; the second is a capture-like 0.3 * (1 ± 2%)
    @pytest.mark.parametrize("field", ["uniform", "near-constant"])
    def test_float32_roi_takes_one_float32_row_of_scratch(self, field):
        data = np.random.default_rng(20).random((1000, 1000, 3), dtype=np.float32)
        if field == "near-constant":
            data = (0.3 * (1 + 0.04 * (data - 0.5))).astype(np.float32)
        image = LinearImage(data)
        tracemalloc.start()
        try:
            sample_roi(image, (0, 0, 1000, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestTrimmedMean:
    def test_matches_plain_mean_without_outliers(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.4, 0.6, (9, 3))  # n=9 -> no samples trimmed
        assert np.allclose(trimmed_mean(values), values.mean(axis=0), atol=1e-15)

    def test_zeros_of_any_sign_mix_average_to_positive_zero(self):
        # n = 10 trims one value from each end: all -0.0, half, one, and none
        for dtype in (np.float32, np.float64):
            values = np.zeros((10, 4, 3), dtype)
            values[:, 0, 0] = values[:5, 1, 0] = values[:1, 2, 0] = -0.0
            for column in range(4):
                mean = trimmed_mean(values[:, column])
                assert mean.tobytes() == np.zeros(3).tobytes(), (dtype, column, mean)

    def test_strided_view_matches_its_contiguous_copy(self):
        image = np.random.default_rng(4).random((40, 50, 3), dtype=np.float32)
        view = image[3:31, 7:44]
        assert not view.flags.c_contiguous
        assert trimmed_mean(view).tobytes() == trimmed_mean(view.copy()).tobytes()
        assert trimmed_mean(view).tobytes() == trimmed_mean(view.reshape(-1, 3)).tobytes()

    def test_input_left_unmodified(self):
        # a (3, n) channel-first view of the input would sort in place
        for values in (np.random.default_rng(5).random((3, 400)).T, np.random.default_rng(6).random((20, 20, 3))):
            before = values.copy()
            trimmed_mean(values)
            assert values.tobytes() == before.tobytes()

    def test_large_float32_matches_its_widening(self):
        # past the hypothesis test's n: long rows, and many distinct values per channel
        values = np.random.default_rng(7).lognormal(0.0, 2.0, (123457, 3)).astype(np.float32)
        got, want = trimmed_mean(values), trimmed_mean(values.astype(np.float64))
        assert got.tobytes() == want.tobytes()

    def test_wide_range_within_tolerance_of_an_exact_sum(self):
        # pairwise float64 summation of positive values: relative error a few
        # dozen ulps at this n, far inside 1e-14; sequential summation may reach n ulps
        values = np.random.default_rng(8).lognormal(0.0, 8.0, (100000, 3))
        n = values.shape[0]
        k = int(n * TRIM_FRACTION)
        kept = np.sort(values, axis=0)[k : n - k]
        exact = np.array([math.fsum(kept[:, c]) / (n - 2 * k) for c in range(3)])
        assert np.all(np.abs(trimmed_mean(values) - exact) <= 1e-14 * exact)


# few distinct values, so channels tie, hold constant runs and mix -0.0 with +0.0
_TRIM_VALUES = np.array([-0.0, 0.0, 1e-45, 0.1, 0.5, 2.0, 3e38], dtype=np.float32)


def trim_sample(n, seed, constant, dtype=np.float32):
    """(n, 3) values of `dtype`, half of them from _TRIM_VALUES; a channel with
    a `constant` kind other than None holds one value, zeros of either sign for 0."""
    rng = np.random.default_rng(seed)
    values = np.where(
        rng.random((n, 3)) < 0.5,
        rng.choice(_TRIM_VALUES, (n, 3)),
        rng.random((n, 3), dtype=dtype),
    ).astype(dtype)
    for channel, kind in enumerate(constant):
        if kind is not None:
            pool = _TRIM_VALUES[:2] if kind == 0 else _TRIM_VALUES[kind : kind + 1]
            values[:, channel] = rng.choice(pool, n)
    return values


_TRIM_CONSTANT = st.lists(st.sampled_from([None, 0, 1, 4]), min_size=3, max_size=3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1), constant=_TRIM_CONSTANT)
def test_float32_trimmed_mean_matches_the_widened_float64_path(n, seed, constant):
    values = trim_sample(n, seed, constant)
    got, want = trimmed_mean(values), trimmed_mean(values.astype(np.float64))
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def three_channel_trimmed_mean(values):
    """trimmed_mean widening the kept part of all three sorted rows at once, as one (3, m) array."""
    values = np.asarray(values)
    n = values.size // 3
    k = int(n * TRIM_FRACTION)
    rows = np.empty((3, n), values.dtype)
    rows.reshape(3, *values.shape[:-1])[...] = np.moveaxis(values, -1, 0)
    rows.sort(axis=1)
    kept = rows[:, k : n - k]
    first = kept[:, 0]
    return np.where(first == kept[:, -1], first, kept.astype(np.float64, copy=False).mean(axis=1)) + 0.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 400) | st.sampled_from([8191, 8192, 8193, 20011, 123457]),
    seed=st.integers(0, 2**32 - 1),
    constant=_TRIM_CONSTANT,
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_trimmed_mean_matches_the_three_channel_widening(n, seed, constant, dtype):
    values = trim_sample(n, seed, constant, dtype)
    assert trimmed_mean(values).tobytes() == three_channel_trimmed_mean(values).tobytes()


def binade_sample(n, seed, exponents):
    """(n, 3) float32 values 1 + uniform * 2**e, e drawn per value from 0 to its channel's entry of `exponents`."""
    rng = np.random.default_rng(seed)
    e = rng.integers(0, np.array(exponents) + 1, (n, 3))
    return (1 + rng.random((n, 3)) * np.exp2(e)).astype(np.float32)


def exact_sum_bound_holds(values):
    """Per channel, whether m * hi <= 2**53 * spacing(lo) for the kept values' count m, minimum lo and maximum hi."""
    n = len(values)
    k = int(n * TRIM_FRACTION)
    kept = np.sort(values, axis=0)[k : n - k]
    return (n - 2 * k) * kept[-1].astype(np.float64) <= 2.0**53 * np.spacing(kept[0]).astype(np.float64)


_STRADDLING = [(3000, 0, [0, 20, 40]), (123457, 0, [0, 20, 40])]


@pytest.mark.parametrize("n, seed, exponents", _STRADDLING)
def test_binade_examples_straddle_the_exact_sum_bound(n, seed, exponents):
    holds = exact_sum_bound_holds(binade_sample(n, seed, exponents))
    assert holds.any() and not holds.all()


# kept values in [1, 2**41), so m * hi falls on either side of 2**53 * spacing(lo)
# as the exponents and n vary; within it the sum is taken in selection order
@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(10, 3000) | st.just(123457),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(0, 40), min_size=3, max_size=3),
)
@example(*_STRADDLING[0])
@example(*_STRADDLING[1])
def test_float32_sum_in_selection_order_matches_the_sorted_widening(n, seed, exponents):
    values = binade_sample(n, seed, exponents)
    assert trimmed_mean(values).tobytes() == three_channel_trimmed_mean(values).tobytes()


def test_order_sensitive_kept_values_match_the_sorted_widening():
    # the kept values are thirteen 1.0 and three 2**53; in float64, 2**53 + 1.0 rounds back to 2**53
    column = np.array([2.0**53, 1, 1, 2.0**53, 2.0**53, 1, 1, 1, 1, 1,
                       1, 2.0**53, 1, 2.0**53, 1, 1, 1, 1, 1, 1], np.float32)
    kept = np.sort(column)[2:-2].astype(np.float64)
    assert np.cumsum(kept)[-1] != np.cumsum(kept[::-1])[-1]
    values = np.repeat(column[:, None], 3, axis=1)
    assert trimmed_mean(values).tobytes() == three_channel_trimmed_mean(values).tobytes()


def test_constant_channel_passes_through_where_the_pairwise_mean_rounds():
    value = 0.3215556345506657
    values = np.full((12345, 3), value)
    n = len(values)
    k = int(n * TRIM_FRACTION)
    assert np.full(n - 2 * k, value).mean() != value  # the pairwise mean reads ...658
    assert trimmed_mean(values).tobytes() == np.full(3, value).tobytes()


class TestChartSamples:
    def test_charts_carry_values_only(self):
        assert [f.name for f in dataclasses.fields(ChartSamples)] == ["patches"]
        assert [f.name for f in dataclasses.fields(SRLSet)] == ["matrices"]

    def test_white_reads_the_named_patch(self):
        chart = ChartSamples(np.random.default_rng(3).uniform(0.1, 1.0, (24, 3)))
        for index in (0, 18, 23):
            assert np.array_equal(chart.white(index), chart.patches[index])

    @pytest.mark.parametrize("index", [-1, 24])
    def test_white_index_outside_the_chart_rejected(self, index):
        with pytest.raises(ValueError, match=re.escape(f"white_index must be in [0, 24), got {index}")):
            ChartSamples(np.zeros((24, 3))).white(index)


def drawn_measured(target, measured, white_index):
    """The measured chart as render_comparison_chart draws it, before encoding: its color table's second row."""
    return _comparison_colors(target, measured, white_index)[1]


def chart_cell(codes, j):
    """The 48x48 cell of patch j in a comparison chart's codes."""
    r, c = divmod(j, 6)
    return codes[r * 48 : (r + 1) * 48, c * 48 : (c + 1) * 48]


class TestComparisonChart:
    """chart_image, and render_comparison_chart's exposure match on the white patch's green channel."""

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
        codes = render_comparison_chart(chart, chart, 18)
        assert codes.dtype == np.uint16 and codes.shape == (192, 288, 3)
        want = _encode16(chart.patches)
        for j in range(24):
            cell = chart_cell(codes, j)
            assert np.array_equal(cell, np.broadcast_to(want[j], cell.shape))

    def test_normalization_cancels_global_scale(self):
        patches = np.random.default_rng(9).uniform(0.1, 0.5, (24, 3))
        patches[18] = 0.5  # gray white patch
        target = ChartSamples(patches)
        measured = ChartSamples(2.0 * patches)
        colors = _comparison_colors(target, measured, 18)
        assert colors.shape == (2, 24, 3) and np.array_equal(colors[0], patches)
        assert np.abs(colors[1] - patches).max() < 1e-12

    def test_circle_centers_carry_measured(self):
        rng = np.random.default_rng(10)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        patches = rng.uniform(0.1, 1.0, (24, 3))
        patches[18, 1] = target.white(18)[1]  # same exposure: the match scales by exactly 1
        measured = ChartSamples(patches)
        assert np.array_equal(drawn_measured(target, measured, 18), patches)
        codes = render_comparison_chart(target, measured, 18)
        centers, corners = codes[24::48, 24::48].reshape(24, 3), codes[::48, ::48].reshape(24, 3)
        assert np.array_equal(centers, _encode16(patches))
        assert np.array_equal(corners, _encode16(target.patches))

    def test_zero_green_white_drawn_unscaled(self):
        rng = np.random.default_rng(14)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        patches = rng.uniform(0.1, 1.0, (24, 3))
        patches[18, 1] = 0.0  # no exposure to match against
        assert np.array_equal(drawn_measured(target, ChartSamples(patches), 18), patches)
        # only a zero green is drawn unscaled; a white index off the chart raises
        with pytest.raises(ValueError, match="white_index must be in"):
            render_comparison_chart(target, ChartSamples(patches), 24)

    def test_scalar_cancellation(self):
        ref = ChartSamples(np.random.default_rng(5).uniform(0.1, 1.0, (24, 3)))
        subject = ChartSamples(0.5 * ref.patches)
        assert np.allclose(drawn_measured(ref, subject, 18), ref.patches, atol=1e-12)

    def test_explicit_scale(self):
        rng = np.random.default_rng(6)
        ref_p = rng.uniform(0.1, 1.0, (24, 3))
        sub_p = rng.uniform(0.1, 1.0, (24, 3))
        ref_p[18, 1] = 0.4
        sub_p[18, 1] = 0.1
        drawn = drawn_measured(ChartSamples(ref_p), ChartSamples(sub_p), 18)
        assert np.array_equal(drawn, sub_p * 4.0)
        # another white index reads another patch's green
        ref_p[5, 1], sub_p[5, 1] = 0.3, 0.6
        drawn = drawn_measured(ChartSamples(ref_p), ChartSamples(sub_p), 5)
        assert np.array_equal(drawn, sub_p * 0.5)

    def test_white_green_matches_reference(self):
        rng = np.random.default_rng(7)
        ref = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        sub = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        assert abs(drawn_measured(ref, sub, 18)[18, 1] - ref.white(18)[1]) < 1e-12

    def test_overflowing_scale_fails_the_image_check(self):
        target = np.full((24, 3), 0.5)
        target[18, 1] = 1e300
        measured = np.full((24, 3), 0.5)
        measured[18, 1] = 1e-300
        # 1e300 / 1e-300 overflows to inf, which no drawn color may hold; the
        # image check of the color table alone reports it, naming the first
        # scaled measured entry, with no overflow warning ahead of it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=re.escape("image has a non-finite component at index (1, 0, 0): inf")):
                render_comparison_chart(ChartSamples(target), ChartSamples(measured), 18)
        assert caught == []


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
        # a 10**12-pixel-wide empty image needs no payload, and no 12 TB of memory
        path = tmp_path / "wide.pfm"
        path.write_bytes(b"PF\n1000000000000 0\n-1\n")
        assert read_pfm(path).shape == (0, 10**12, 3)

    def test_pfm_zero_width_reads_no_row(self, tmp_path):
        # 10**15 empty rows hold no payload; a read that visited each would never finish
        path = tmp_path / "tall.pfm"
        path.write_bytes(b"PF\n0 1000000000000000\n-1\n")
        start = time.perf_counter()
        assert read_pfm(path).shape == (10**15, 0, 3)
        assert time.perf_counter() - start < 1.0

    def test_pfm_accepts_trailing_bytes(self, tmp_path):
        data = np.arange(6.0).reshape(1, 2, 3)
        path = tmp_path / "img.pfm"
        write_pfm(path, data)
        with open(path, "ab") as f:
            f.write(b"\x00" * 5)
        assert np.array_equal(read_pfm(path), data)

    @pytest.mark.parametrize("scale", ["0", "-0", "nan", "inf", "1e400", "-inf"])
    def test_pfm_rejects_a_zero_or_non_finite_scale(self, tmp_path, scale):
        # the scale's sign is the byte order: none of these names one, and a little-endian
        # 0.5 read big-endian would be 8.8e-44, which passes the image check
        path = tmp_path / "img.pfm"
        path.write_bytes(f"PF\n1 1\n{scale}\n".encode() + np.full(3, 0.5, "<f4").tobytes())
        reason = f"scale must be finite and non-zero, got {float(scale)}"
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed PFM header: {reason}")):
            read_pfm(path)

    @pytest.mark.parametrize("line", [1, 2, 3])
    def test_pfm_header_line_past_the_limit_is_malformed(self, tmp_path, line):
        # 256 bytes, newline included, is the longest header line read; trailing spaces pad it
        header = [b"PF", b"1 1", b"-1.0"]
        header[line - 1] = header[line - 1].ljust(255)
        path = tmp_path / "img.pfm"
        path.write_bytes(b"\n".join(header) + b"\n" + np.full(3, 0.5, "<f4").tobytes())
        assert read_pfm(path).tolist() == [[[0.5, 0.5, 0.5]]]
        header[line - 1] += b" "
        path.write_bytes(b"\n".join(header) + b"\n" + np.full(3, 0.5, "<f4").tobytes())
        with pytest.raises(ValueError) as info:
            read_pfm(path)
        assert str(info.value) == f"{path}: malformed PFM header: line {line}: longer than 256 characters"

    @pytest.mark.parametrize("header, reason", [
        (b"PF\n1 " + b"9" * 100 + b"x\n-1.0\n",
         "invalid literal for int() with base 10: b'99999999999...999999999999x'"),
        (b"PF\n1 1\n-1." + b"0" * 100 + b"x\n", "could not convert string to float: b'-1.00000000...0000000000x\\n'"),
    ], ids=["size", "scale"])
    def test_pfm_unparsable_header_value_is_abbreviated(self, tmp_path, header, reason):
        path = tmp_path / "img.pfm"
        path.write_bytes(header)
        with pytest.raises(ValueError) as info:
            read_pfm(path)
        assert str(info.value) == f"{path}: malformed PFM header: {reason}"

    def test_pfm_without_a_newline_is_rejected_unread(self, tmp_path):
        # a file that is no PFM at all, such as a 5 MB blob without a newline
        path = tmp_path / "blob.pfm"
        path.write_bytes(b"x" * 5_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read_pfm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == f"{path}: malformed PFM header: line 1: longer than 256 characters"
        assert peak < 64 * 1024

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-300"])
    def test_chart_csv_rejects_a_non_finite_or_negative_value(self, tmp_path, value):
        path = self._chart_csv(tmp_path / "chart.csv", range(24))
        lines = path.read_text().splitlines()
        lines[4] = f"3,0.5,{value},0.5"
        path.write_text("\n".join(lines) + "\n")
        got = re.escape(f"got (0.5, {float(value)}, 0.5)")
        with pytest.raises(ValueError, match=rf"chart\.csv, line 5: r, g, b must be finite and >= 0, {got}$"):
            read_chart_csv(path)

    def test_chart_csv_byte_not_utf8_names_its_line(self, tmp_path):
        path = self._chart_csv(tmp_path / "chart.csv", range(24))
        path.write_bytes(path.read_bytes().replace(b"3,0.5,0.5,0.5", b"3,0.5,0.\xd3,0.5"))
        reason = re.escape("could not convert string to float: '0.\ufffd'")
        with pytest.raises(ValueError, match=rf"chart\.csv, line 5: {reason}"):
            read_chart_csv(path)

    def test_chart_csv_skips_a_blank_line(self, tmp_path):
        path = self._chart_csv(tmp_path / "chart.csv", range(24))
        path.write_text(path.read_text().replace("12,", "\n  \n12,"))
        assert np.array_equal(read_chart_csv(path).patches, np.full((24, 3), 0.5))

    def test_chart_csv_last_line_without_a_newline(self, tmp_path):
        path = self._chart_csv(tmp_path / "chart.csv", range(24))
        path.write_text(path.read_text().rstrip("\n"))
        assert np.array_equal(read_chart_csv(path).patches, np.full((24, 3), 0.5))

    @pytest.mark.parametrize("line", [1, 5, 25])
    def test_chart_csv_line_past_the_limit_names_its_line(self, tmp_path, line):
        # 256 characters, newline included, is the longest line read; trailing spaces pad it
        path = self._chart_csv(tmp_path / "chart.csv", range(24))
        lines = path.read_text().splitlines()
        lines[line - 1] = lines[line - 1].ljust(255)
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(read_chart_csv(path).patches, np.full((24, 3), 0.5))
        lines[line - 1] += " "
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"chart\.csv, line {line}: longer than 256 characters$"):
            read_chart_csv(path)

    def test_chart_csv_long_field_or_header_is_abbreviated(self, tmp_path):
        path = self._chart_csv(tmp_path / "chart.csv", range(24))
        path.write_text(path.read_text().replace("3,0.5,0.5,0.5", "3,0.5," + "9" * 100 + "x,0.5"))
        with pytest.raises(ValueError) as info:
            read_chart_csv(path)
        assert str(info.value) == f"{path}, line 5: could not convert string to float: '999999999999...999999999999x'"
        path.write_text("p" * 200 + "\n")
        with pytest.raises(ValueError) as info:
            read_chart_csv(path)
        assert str(info.value) == f"{path}: unexpected chart CSV header 'pppppppppppp...ppppppppppppp'"

    def test_chart_csv_missing_a_patch_rejected(self, tmp_path):
        path = self._chart_csv(tmp_path / "chart.csv", range(23))
        with pytest.raises(ValueError, match=r"chart\.csv: expected 24 patches, got 23$"):
            read_chart_csv(path)

    @pytest.mark.parametrize("shape", [(4, 3), (2, 2, 4), (1, 2, 3, 1)])
    def test_write_pfm_rejects_data_other_than_h_w_3(self, tmp_path, shape):
        path = tmp_path / "img.pfm"
        with pytest.raises(ValueError, match=re.escape(f"expected (h, w, 3) data, got {shape}")):
            write_pfm(path, np.zeros(shape))
        assert not path.exists()

    def test_chart_csv_keeps_negative_zero(self, tmp_path):
        # the reader keeps a value as written, the sign of a zero included
        path = self._chart_csv(tmp_path / "chart.csv", range(24))
        path.write_text(path.read_text().replace("3,0.5,0.5,0.5", "3,-0.0,0.5,0.5"))
        assert np.signbit(read_chart_csv(path).patches[3, 0])

    def test_png16_payload(self, tmp_path):
        rng = np.random.default_rng(13)
        linear = rng.uniform(0.0, 1.2, (5, 4, 3))
        path = tmp_path / "out.png"
        write_png16(path, _encode16(linear))
        blob = path.read_bytes()
        assert blob[:8] == b"\x89PNG\r\n\x1a\n"
        w, h, depth, color = struct.unpack(">IIBB", blob[16:26])
        assert (w, h, depth, color) == (4, 5, 16, 2)
        expect = np.round(np.clip(linear ** (1 / 2.4), 0, 1) * 65535).astype(np.uint16)
        assert np.array_equal(png16_pixels(path, 5, 4), expect)

    def test_png16_encodes_with_gamma_2_4(self, tmp_path):
        # scene-linear v**2.4 encodes back to v on a dense grid of 16-bit codes
        v = np.linspace(0.0, 1.0, 64).reshape(4, -1)[..., None].repeat(3, axis=-1)
        path = tmp_path / "ramp.png"
        write_png16(path, _encode16(v**2.4))
        assert np.array_equal(png16_pixels(path, 4, 16), np.round(v * 65535))

    @pytest.mark.parametrize(
        "codes, got",
        [
            (np.zeros((2, 3, 3)), "float64 of shape (2, 3, 3)"),
            (np.zeros((2, 3, 3), np.float32), "float32 of shape (2, 3, 3)"),
            (np.zeros((2, 3, 3), ">u2"), ">u2 of shape (2, 3, 3)"),
            (np.zeros((2, 3), np.uint16), "uint16 of shape (2, 3)"),
            (np.zeros((2, 3, 4), np.uint16), "uint16 of shape (2, 3, 4)"),
            ([[[0, 0, 0]]], "[[[0, 0, 0]]]"),
        ],
    )
    def test_png16_takes_only_h_w_3_uint16_codes(self, tmp_path, codes, got):
        path = tmp_path / "out.png"
        with pytest.raises(ValueError, match=re.escape(f"expected (h, w, 3) uint16 codes, got {got}")):
            write_png16(path, codes)
        assert not path.exists()


def png16_pixels(path, height, width):
    """Decode a 16-bit RGB PNG by hand: one IDAT chunk, filter byte 0 on every row."""
    rows = np.frombuffer(idat_payload(path), np.uint8).reshape(height, -1)
    assert (rows[:, 0] == 0).all()
    return np.frombuffer(rows[:, 1:].tobytes(), ">u2").reshape(height, width, 3).astype(np.uint16)


def gathered_comparison_chart(target, measured, white_index):
    """render_comparison_chart before encoding, as two full linear chart images and a boolean gather of the circles."""
    ref_g, sub_g = target.white(white_index)[1], measured.white(white_index)[1]
    scale = ref_g / sub_g if ref_g > 0 and sub_g > 0 else 1.0
    img = chart_image(target.patches, 48)
    yy, xx = np.mgrid[0:48, 0:48]
    inside = np.tile((xx + 0.5 - 24) ** 2 + (yy + 0.5 - 24) ** 2 <= (48 * 0.33) ** 2, (4, 6))
    # not chart_image, which rejects the non-finite values an overflowing scale draws
    img[inside] = (measured.patches * scale).reshape(4, 6, 3).repeat(48, axis=0).repeat(48, axis=1)[inside]
    return img


def joined_png16_rows(codes):
    """write_png16's IDAT payload as the join of one filter byte and one row of big-endian samples per row."""
    return b"".join(b"\x00" + row.astype(">u2").tobytes() for row in codes)


def idat_payload(path):
    """The decompressed payload of a PNG's one IDAT chunk."""
    blob = path.read_bytes()
    start = blob.index(b"IDAT") + 4
    (length,) = struct.unpack(">I", blob[start - 8 : start - 4])
    return zlib.decompress(blob[start : start + length])


_CHART_VALUES = st.sampled_from([0.0, 1e-300, 0.18, 0.9, 1.0, 3.5, 1e5]) | st.floats(0.0, 2.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    target=hnp.arrays(np.float64, (24, 3), elements=_CHART_VALUES),
    measured=hnp.arrays(np.float64, (24, 3), elements=_CHART_VALUES),
    white_index=st.sampled_from([18, 5]),
)
def test_chart_and_png_match_the_gathered_and_joined_encodings(tmp_path_factory, target, measured, white_index):
    target, measured = ChartSamples(target), ChartSamples(measured)
    with np.errstate(over="ignore", invalid="ignore"):
        drawn = gathered_comparison_chart(target, measured, white_index)
    if not np.isfinite(drawn).all():  # a scaled measured value past the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^image has a non-finite component at index \(1, "):
                render_comparison_chart(target, measured, white_index)
        return
    # encoding the 48 colors and laying them out gives the codes of encoding every drawn pixel
    codes = render_comparison_chart(target, measured, white_index)
    want = _encode16(drawn)
    assert codes.dtype == np.uint16 and codes.shape == want.shape == (192, 288, 3)
    assert codes.tobytes() == want.tobytes()
    path = tmp_path_factory.mktemp("png") / "chart.png"
    write_png16(path, codes)
    assert idat_payload(path) == joined_png16_rows(codes)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    data=hnp.arrays(np.float64, (3, 5, 3), elements=_CHART_VALUES),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_encode16_is_the_gamma_2_4_code_at_the_input_precision(data, dtype):
    data = np.minimum(data, 2.0).astype(dtype)  # past 1.0 every value encodes as 65535
    want = np.round(np.clip(data ** (1 / 2.4), 0.0, 1.0) * 65535.0).astype(np.uint16)
    codes = _encode16(data)
    assert codes.dtype == np.uint16 and codes.tobytes() == want.tobytes()
    # element by element: any slice encodes as the same slice of the whole
    assert _encode16(data[1:, 2:]).tobytes() == codes[1:, 2:].tobytes()


def pfm_bytes(width, height, dtype, payload=b""):
    scale = b"-1.0" if dtype == "<f4" else b"1.0"
    return b"PF\n%d %d\n%s\n" % (width, height, scale) + payload


def reference_read_pfm(path):
    """read_pfm as one whole-payload decode: frombuffer, flipud, native float32."""
    with open(path, "rb") as f:
        f.readline()
        width, height = (int(t) for t in f.readline().split())
        scale = float(f.readline())
        raw = f.read(width * height * 12)
    data = np.frombuffer(raw, dtype="<f4" if scale < 0 else ">f4").reshape(height, width, 3)
    return np.flipud(data).astype(np.float32)


# (width, height) pairs for a mapped read: one pixel, one-pixel columns up to past one
# check chunk, odd widths whose rows straddle pages, and 4K width
MAPPED_PFM_SHAPES = [
    (1, 1), (1, 65535), (1, 65536), (1, 65537), (1, 131073), (3, 5), (7, 343), (341, 3), (3839, 17),
    (3840, 1), (3840, 16), (3840, 17), (3840, 18), (3840, 35),
]


# The test keeps the name of the row-block reader that the mapped read replaced, so that its
# ids stay. Every shape reads both byte orders; no shrink phase: a failing seed is already small.
@pytest.mark.parametrize("width, height", MAPPED_PFM_SHAPES)
@settings(derandomize=True, max_examples=2, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(dtype=st.sampled_from(["<f4", ">f4"]), seed=st.integers(0, 2**32 - 1))
@example(dtype="<f4", seed=0)
@example(dtype=">f4", seed=1)
def test_streamed_read_pfm_matches_whole_payload_decode(tmp_path_factory, width, height, dtype, seed):
    # arbitrary bit patterns: NaN payloads, infinities, subnormals and -0.0 included
    bits = np.random.default_rng(seed).integers(0, 2**32, width * height * 3, dtype=np.uint32)
    path = tmp_path_factory.mktemp("pfm") / "img.pfm"
    path.write_bytes(pfm_bytes(width, height, dtype, bits.astype(dtype[0] + "u4").tobytes()))
    # a byte swap keeps every bit, signalling NaN payloads included
    data, ref = read_pfm(path), reference_read_pfm(path)
    assert data.dtype == np.float32 and data.dtype.isnative and data.shape == (height, width, 3)
    assert data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", ["<f4", ">f4"])
def test_read_pfm_payload_at_any_alignment(tmp_path, dtype):
    # the mapped view is unaligned unless the header's length is a multiple of 4
    sign = "-" if dtype == "<f4" else ""
    bits = np.random.default_rng(19).integers(0, 2**32, 5 * 3 * 3, dtype=np.uint32)
    offsets = set()
    for zeros in range(1, 5):
        header = f"PF\n5 3\n{sign}1.{'0' * zeros}\n".encode()
        path = tmp_path / f"img{zeros}.pfm"
        path.write_bytes(header + bits.astype(dtype[0] + "u4").tobytes())
        offsets.add(len(header) % 4)
        data = read_pfm(path)
        assert data.dtype == np.float32 and data.dtype.isnative
        assert data.tobytes() == reference_read_pfm(path).tobytes()
    assert offsets == {0, 1, 2, 3}


@pytest.mark.parametrize("dtype", ["<f4", ">f4"])
def test_writing_into_read_pfm_result_leaves_the_file(tmp_path, dtype):
    path = tmp_path / "img.pfm"
    path.write_bytes(pfm_bytes(4, 3, dtype, np.arange(36, dtype=dtype).tobytes()))
    before = path.read_bytes()
    data = read_pfm(path)
    with pytest.raises(ValueError, match="read-only"):
        data[...] = 7.0
    assert path.read_bytes() == before
    assert np.array_equal(read_pfm(path), np.flipud(np.arange(36.0).reshape(3, 4, 3)))


def write_capture(path, dtype="<f4", width=3840, height=None):
    """A random float32 capture of `width`, by default of a height whose payload spans three check chunks and
    part of a fourth."""
    height = height or 3 * _CHUNK // (3 * width) + 7
    values = np.random.default_rng(21).random((height, width, 3), dtype=np.float32)
    path.write_bytes(pfm_bytes(width, height, dtype, np.flipud(values).astype(dtype).tobytes()))
    return values


def write_constant_capture(path, width, height):
    """A native-order capture of 0.5 everywhere, written a row at a time."""
    with open(path, "wb") as f:
        f.write(pfm_bytes(width, height, "<f4"))
        row = np.full(width * 3, 0.5, "<f4").tobytes()
        for _ in range(height):
            f.write(row)


def forked_peak_rise(path, setup, call) -> int:
    """Bytes by which ru_maxrss rises over the statement `call`, run after `setup` in a child forked from a
    fresh process, both with the capture's path as `path`."""
    # measured in a fork: a spawned process's peak starts at the test process's,
    # a forked one's at its own size
    script = (
        "import os, resource, sys\n"
        "from stagecal.geometry import FRONTAL, EnvMap, w_avg_from_env\n"
        "from stagecal.imaging import ChartGridSpec, LinearImage, extract_chart, read_pfm, sample_roi\n"
        "path = sys.argv[1]\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        f"    {setup}\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"    {call}\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, flush=True)\n"
        "    os._exit(0)\n"
        "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(stagecal.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return int(result.stdout) * 1024  # KiB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB and madvise releases pages on Linux")
@pytest.mark.parametrize("negative_zero", [False, True], ids=["constant", "negative-zero"])
def test_checked_capture_is_not_kept_resident(tmp_path, negative_zero):
    width, height = 4096, 1024  # a 48 MiB payload
    path = tmp_path / "big.pfm"
    write_constant_capture(path, width, height)
    if negative_zero:  # a component whose bit pattern fails, in the payload's middle, though the capture passes
        with open(path, "r+b") as f:
            f.seek(len(pfm_bytes(width, height, "<f4")) + width * height * 6)
            f.write(np.array(-0.0, "<f4").tobytes())
    assert forked_peak_rise(path, "pass", "LinearImage(read_pfm(path))") < width * height * 12 / 2


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB and madvise releases pages on Linux")
@pytest.mark.parametrize(
    "width, height, setup, call, rows",
    [
        (4096, 1024, "image = LinearImage(read_pfm(path))", "sample_roi(image, (100, 12, 200, 1000))", 1000),
        (4096, 1024, "image = LinearImage(read_pfm(path))",
         "extract_chart(image, ChartGridSpec([[0, 0], [4096, 0], [4096, 1024], [0, 1024]], inset=0.05))", 1024),
        (2896, 1448, "env = EnvMap(read_pfm(path))", "w_avg_from_env(env, FRONTAL)", 1448),
    ],
    ids=["roi", "chart", "env map"],
)
def test_a_consumer_keeps_few_of_the_capture_rows_it_reads_resident(tmp_path, width, height, setup, call, rows):
    # payloads of 48 MiB; each consumer reads parts of `rows` whole capture rows, and holding them would
    # raise the peak by about their size
    path = tmp_path / "big.pfm"
    write_constant_capture(path, width, height)
    assert forked_peak_rise(path, setup, call) < rows * width * 12 / 2


@pytest.mark.parametrize("memory", ["copy-on-write file map", "private anonymous map", "array"])
def test_check_keeps_what_was_written_to_writable_memory(tmp_path, memory):
    # releasing these pages would bring back the file's bytes or zeros, in the check or in a consumer
    path = tmp_path / "img.pfm"
    values = write_capture(path)
    if memory == "copy-on-write file map":
        with open(path, "rb") as f:
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
        data = np.frombuffer(mapped, "<f4", values.size, path.stat().st_size - values.nbytes)
    elif memory == "private anonymous map":
        private = mmap.mmap(-1, values.nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        data = np.frombuffer(private, np.float32)
    else:
        data = np.empty(values.size, np.float32)
    data[...] = 0.25
    height, width = values.shape[:2]
    image = LinearImage(data.reshape(values.shape))
    assert (sample_roi(image, (17, 100, 900, 150)) == 0.25).all()
    corners = np.array([[0.0, 0.0], [width, 0.0], [width, height], [0.0, height]])
    assert (extract_chart(image, ChartGridSpec(corners)).patches == 0.25).all()
    side = math.isqrt(data.size // 6)  # the same memory read as a 2:1 environment map
    w_avg_from_env(EnvMap(data[: 6 * side * side].reshape(side, 2 * side, 3)), FRONTAL)
    assert (data == 0.25).all()


def test_sampling_a_released_capture_matches_an_in_memory_copy(tmp_path):
    # a read-only map (native order), a copy-on-write map (swapped) and an array give the bits of a float64
    # copy, each consumer run twice: the second time over the pages that the first released
    values = write_capture(tmp_path / "img.pfm")
    write_capture(tmp_path / "img-swapped.pfm", ">f4")
    env_values = write_capture(tmp_path / "env.pfm", width=1280, height=640)
    write_capture(tmp_path / "env-swapped.pfm", ">f4", width=1280, height=640)
    height = values.shape[0]
    grid = ChartGridSpec(np.array([[100.0, 20.0], [3700.0, 35.0], [3650.0, height - 10.0], [130.0, height - 30.0]]))

    def results(image, env):
        return [
            extract_chart(image, grid).patches.tobytes(),
            *(sample_roi(image, roi).tobytes() for roi in [(0, 0, 3840, height), (17, 100, 900, 150)]),
            *(w_avg_from_env(env, facing).tobytes() for facing in (FRONTAL, [0.6, 0.0, 0.8])),
        ]

    expected = results(LinearImage(values.astype(np.float64)), EnvMap(env_values.astype(np.float64)))
    mapped = {"": True, "-swapped": False}
    memories = [(LinearImage(read_pfm(tmp_path / f"img{s}.pfm")), EnvMap(read_pfm(tmp_path / f"env{s}.pfm")))
                for s in mapped]
    for (image, env), read_only in zip(memories, mapped.values()):
        assert (_read_only_map(image.data) is not None) == (_read_only_map(env.data) is not None) == read_only
    for image, env in [*memories, (LinearImage(values), EnvMap(env_values))]:
        assert results(image, env) == expected
        assert results(image, env) == expected


@pytest.mark.parametrize("dtype", ["<f4", ">f4"], ids=["native-released", "swapped"])
@pytest.mark.parametrize("bad", [np.nan, -0.5], ids=["nan", "negative"])
@pytest.mark.parametrize("at", ["chunk-end", "chunk-start", "last"])
def test_check_names_a_bad_component_past_the_first_chunk_of_a_mapped_capture(tmp_path, dtype, bad, at):
    # the check has released every chunk before the failing one, and reads the capture again to name it
    path = tmp_path / "img.pfm"
    values = write_capture(path, dtype)
    k = {"chunk-end": _CHUNK - 1, "chunk-start": _CHUNK, "last": values.size - 1}[at]  # in the payload's order
    height, width = values.shape[:2]
    with open(path, "r+b") as f:
        f.seek(len(pfm_bytes(width, height, dtype)) + 4 * k)
        f.write(np.array(bad, dtype).tobytes())
    payload = np.flipud(values).copy()  # rows bottom to top, as the file holds them
    payload.reshape(-1)[k] = bad
    data = read_pfm(path)
    assert (_read_only_map(data) is not None) == (dtype == "<f4")
    with pytest.raises(ValueError) as info:
        LinearImage(data)
    assert str(info.value) == reference_check_message(np.flipud(payload), "image", True)


def test_big_endian_capture_keeps_its_swapped_values_through_the_check(tmp_path):
    path = tmp_path / "img.pfm"
    values = write_capture(path, ">f4")
    image = LinearImage(read_pfm(path))
    assert image.data.dtype.isnative and image.data.tobytes() == values.tobytes()


def test_tall_narrow_pfm_reads_and_checks_quickly(tmp_path):
    # 1 x 4 * 10**6 pixels, 48 MB: no per-row work in the read or in the check
    height = 4 * 10**6
    path = tmp_path / "tall.pfm"
    path.write_bytes(pfm_bytes(1, height, "<f4", np.ones(height * 3, "<f4").tobytes()))
    start = time.perf_counter()
    image = LinearImage(read_pfm(path))
    assert time.perf_counter() - start < 0.25
    assert image.data.shape == (height, 1, 3)


@pytest.mark.parametrize("width", [1, 3840])
@pytest.mark.parametrize(
    "cut_rows, cut_bytes",
    [(0, 0), (0, 6), ("block", 0), ("block", 6), ("block", -6)],
    ids=["empty", "inside-first-block", "block-boundary", "inside-second-block", "end-of-first-block"],
)
def test_pfm_truncated_at_any_point(tmp_path, width, cut_rows, cut_bytes):
    # a "block" is 65,536 pixels of whole rows, as the row-block reader that the mapped read replaced took them
    block = {1: 65536, 3840: 17}[width]
    height = 2 * block + 1
    rows = block if cut_rows == "block" else cut_rows
    payload = np.ones(width * height * 3, dtype="<f4").tobytes()
    path = tmp_path / "cut.pfm"
    path.write_bytes(pfm_bytes(width, height, "<f4", payload[: rows * width * 12 + cut_bytes]))
    with pytest.raises(ValueError, match="truncated PFM payload"):
        read_pfm(path)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    patches=hnp.arrays(
        np.float64, (24, 3), elements=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    )
)
def test_chart_csv_round_trip_is_exact(tmp_path_factory, patches):
    path = tmp_path_factory.mktemp("csv") / "chart.csv"
    write_chart_csv(path, ChartSamples(patches))
    back = read_chart_csv(path).patches
    assert back.dtype == np.float64 and back.tobytes() == patches.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    data=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5).map(lambda s: (*s, 3)),
        elements=st.floats(-1e38, 1e38, allow_nan=False),
    )
)
def test_pfm_round_trip_is_the_float32_rounding(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pfm") / "img.pfm"
    write_pfm(path, data)
    back = read_pfm(path)
    assert back.shape == data.shape and back.tobytes() == data.astype(np.float32).tobytes()
