import os
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from stagecal.calibration import (
    _CLAMP_PIXELS,
    _TILE_PIXELS,
    Q_SPREAD_RCOND,
    CalibrationBundle,
    GamutCounter,
    SRLSet,
    build_sl,
    build_srl,
    chart_error,
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
from stagecal.imaging import ChartSamples
from stagecal.spectral import brute_force_q, make_scene, oracle_calibration

# non-negative, like a camera's view of three primaries, with cond(SL) < 100
well_conditioned_sl = (
    st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9)
    .map(lambda v: np.reshape(v, (3, 3)) + np.eye(3))
    .filter(lambda sl: condition_number(sl) < 100)
)


@st.composite
def q_systems(draw):
    """A full-rank solve_q system: (predicted, targets, weights)."""
    m = np.linalg.inv(draw(well_conditioned_sl))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    srl = SRLSet(rng.uniform(0.0, 0.8, (24, 3, 3)))
    w_avg = rng.uniform(0.2, 1.0, 3)
    targets = ChartSamples(rng.uniform(0.01, 1.0, (24, 3)))
    weights = rng.uniform(0.0, 2.0, 24) if draw(st.booleans()) else None
    return predict_lit_chart(srl, m, w_avg, draw(st.floats(0.05, 1.0))), targets, weights


class TestBuildSL:
    def test_identity_from_unit_responses(self):
        assert np.array_equal(build_sl([1, 0, 0], [0, 1, 0], [0, 0, 1]), np.eye(3))

    def test_columns_in_order(self):
        red, green, blue = [0.8, 0.1, 0.05], [0.2, 0.9, 0.1], [0.02, 0.1, 0.95]
        sl = build_sl(red, green, blue)
        assert np.array_equal(sl[:, 0], red)
        assert np.array_equal(sl[:, 1], green)
        assert np.array_equal(sl[:, 2], blue)

    def test_permuted_arguments_permute_columns(self):
        red, green, blue = [0.8, 0.1, 0.05], [0.2, 0.9, 0.1], [0.02, 0.1, 0.95]
        sl = build_sl(red, green, blue)
        permuted = build_sl(blue, red, green)
        assert np.array_equal(permuted, sl[:, [2, 0, 1]])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_sl([1, 0, -0.1], [0, 1, 0], [0, 0, 1])


class TestSolveM:
    def test_identity(self):
        assert np.array_equal(solve_m(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        m = solve_m(np.diag([2.0, 4.0, 5.0]))
        assert np.allclose(m, np.diag([0.5, 0.25, 0.2]), atol=1e-15)

    def test_multiply_back_random(self, random_sl):
        rng = np.random.default_rng(0)
        for _ in range(100):
            sl = random_sl(rng)
            m = solve_m(sl)
            assert np.abs(m @ sl - np.eye(3)).max() < 1e-10
            assert np.abs(sl @ m - np.eye(3)).max() < 1e-10

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(sl=well_conditioned_sl)
    def test_inverts_any_well_conditioned_sl(self, sl):
        assert np.abs(sl @ solve_m(sl) - np.eye(3)).max() < 1e-10

    def test_ill_conditioned_reports_cond(self):
        sl = np.diag([1.0, 1.0, 1e-9])
        with pytest.raises(ValueError, match="1e\\+09|e\\+09"):
            solve_m(sl)


class TestBuildSRL:
    def test_all_zero(self):
        zero = ChartSamples(np.zeros((24, 3)))
        srl = build_srl(zero, zero, zero)
        assert np.array_equal(srl.matrices, np.zeros((24, 3, 3)))

    def test_scaled_identity_construction(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(0.1, 1.0, 24)
        charts = []
        for c in range(3):
            patches = np.zeros((24, 3))
            patches[:, c] = r
            charts.append(ChartSamples(patches))
        srl = build_srl(*charts)
        for j in range(24):
            assert np.allclose(srl.matrices[j], r[j] * np.eye(3), atol=1e-15)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            SRLSet(np.full((24, 3, 3), -0.5))


def flat_metamer_fixture(rng, beta=0.311):
    """SRL_j = beta * r_j * SL with targets r_j * w_avg: a perfect stage."""
    sl = rng.uniform(0.05, 0.5, (3, 3)) + np.diag(rng.uniform(0.5, 1.5, 3))
    r = np.linspace(0.9, 0.03, 24)
    srl = SRLSet(beta * r[:, None, None] * sl)
    w_avg = rng.uniform(0.3, 1.0, 3)
    targets = ChartSamples(r[:, None] * w_avg)
    return sl, srl, w_avg, targets


class TestSimulateLitChart:
    def test_metamer_cancellation(self):
        rng = np.random.default_rng(2)
        sl, srl, w_avg, targets = flat_metamer_fixture(rng)
        chart, clamped = clamp_chart(predict_lit_chart(srl, solve_m(sl), w_avg, 0.311))
        assert clamped == 0
        assert np.abs(chart.patches - targets.patches).max() < 1e-12

    def test_zero_w_avg(self):
        rng = np.random.default_rng(3)
        sl, srl, _, _ = flat_metamer_fixture(rng)
        chart, clamped = clamp_chart(predict_lit_chart(srl, solve_m(sl), np.zeros(3), 0.311))
        assert np.array_equal(chart.patches, np.zeros((24, 3))) and clamped == 0

    def test_bad_beta(self):
        rng = np.random.default_rng(4)
        sl, srl, w_avg, _ = flat_metamer_fixture(rng)
        with pytest.raises(ValueError, match="beta"):
            predict_lit_chart(srl, solve_m(sl), w_avg, 0.0)

    def test_negative_predictions_clamped_and_counted(self):
        srl = SRLSet(np.ones((24, 3, 3)))
        m = np.eye(3)
        w_avg = np.array([1.0, -2.0, 0.5])  # every predicted component is (1 - 2 + 0.5) / 0.5 = -1
        predicted = predict_lit_chart(srl, m, w_avg, 0.5)
        chart, clamped = clamp_chart(predicted)
        assert clamped == 72
        assert np.array_equal(chart.patches, np.zeros((24, 3)))
        # the prediction itself is left as it was
        assert (predicted < 0).all()

    def test_linear_in_w_avg(self):
        rng = np.random.default_rng(5)
        sl, srl, w_avg, _ = flat_metamer_fixture(rng)
        m = solve_m(sl)
        w2 = rng.uniform(0.1, 1.0, 3)
        lhs = predict_lit_chart(srl, m, 0.4 * w_avg + 1.3 * w2, 0.311)
        rhs = 0.4 * predict_lit_chart(srl, m, w_avg, 0.311) + 1.3 * predict_lit_chart(
            srl, m, w2, 0.311
        )
        assert np.abs(lhs - rhs).max() < 1e-9


class TestSolveQ:
    def test_identity_on_perfect_prediction(self, random_q_fixture):
        rng = np.random.default_rng(6)
        sl, m, srl, w_avg, _, beta = random_q_fixture(rng)
        predicted = predict_lit_chart(srl, m, w_avg, beta)
        targets = ChartSamples(np.maximum(predicted, 0.0))
        assert (predicted >= 0).all()  # fixture stays physical
        q = solve_q(predicted, targets)
        assert np.abs(q - np.eye(3)).max() < 1e-9
        assert q_objective(q, predicted, targets) < 1e-18

    def test_three_patch_exact_solve(self, random_q_fixture):
        rng = np.random.default_rng(7)
        sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
        weights = np.zeros(24)
        weights[[0, 5, 11]] = 1.0
        predicted = predict_lit_chart(srl, m, w_avg, beta)
        assert np.linalg.matrix_rank(predicted[[0, 5, 11]]) == 3
        q = solve_q(predicted, targets, weights)
        # nine equations, nine unknowns: the selected patches match exactly
        assert np.abs(predicted[[0, 5, 11]] @ q.T - targets.patches[[0, 5, 11]]).max() < 1e-9

    def test_matches_brute_force(self, random_q_fixture):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
            predicted = predict_lit_chart(srl, m, w_avg, beta)
            q = solve_q(predicted, targets)
            qb = brute_force_q(predicted, targets.patches)
            assert np.linalg.norm(q - qb) / np.linalg.norm(qb) < 1e-9

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(system=q_systems())
    def test_agrees_with_brute_force_on_any_full_rank_system(self, system):
        predicted, targets, weights = system
        q = solve_q(predicted, targets, weights)
        qb = brute_force_q(predicted, targets.patches, weights)
        assert np.linalg.norm(q - qb) / np.linalg.norm(qb) < 1e-9

    def test_gradient_vanishes_at_solution(self, random_q_fixture):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
            predicted = predict_lit_chart(srl, m, w_avg, beta)
            q = solve_q(predicted, targets)
            for r in range(3):
                for c in range(3):
                    h = 1e-6 * max(abs(q[r, c]), 1.0)
                    qp, qm = q.copy(), q.copy()
                    qp[r, c] += h
                    qm[r, c] -= h
                    grad = (
                        q_objective(qp, predicted, targets) - q_objective(qm, predicted, targets)
                    ) / (2 * h)
                    assert abs(grad) < 1e-6

    def test_never_worse_than_identity(self, random_q_fixture):
        rng = np.random.default_rng(10)
        for _ in range(50):
            sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
            predicted = predict_lit_chart(srl, m, w_avg, beta)
            q = solve_q(predicted, targets)
            identity = q_objective(np.eye(3), predicted, targets)
            assert q_objective(q, predicted, targets) <= identity * (1 + 1e-12)

    def test_flat_metamer_returns_identity(self):
        rng = np.random.default_rng(11)
        sl, srl, w_avg, targets = flat_metamer_fixture(rng)
        predicted = predict_lit_chart(srl, solve_m(sl), w_avg, 0.311)
        q = solve_q(predicted, targets)
        assert np.abs(q - np.eye(3)).max() < 1e-9
        assert q_objective(q, predicted, targets) < 1e-18

    def test_degenerate_inconsistent_raises(self):
        rng = np.random.default_rng(12)
        sl, srl, w_avg, _ = flat_metamer_fixture(rng)  # rank-1 predictions
        predicted = predict_lit_chart(srl, solve_m(sl), w_avg, 0.311)
        targets = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))  # unexplainable
        with pytest.raises(ValueError, match="rank"):
            solve_q(predicted, targets)

    @pytest.mark.parametrize("scenario, seed", [("broad", 3), ("rgb-led", 0), ("monochromatic", 0), ("identity", 0)])
    def test_patch_order_moves_q_by_rounding_only(self, scenario, seed):
        # the chart's order is a labelling: permuting predicted rows, targets and
        # weights together may move Q only by rounding, here bounded by 4 ulps of
        # max|Q| per unit of the design's condition over the singular values kept
        calib = oracle_calibration(make_scene(seed, scenario), 0.311)
        predicted = predict_lit_chart(calib.srl, solve_m(calib.sl), calib.w_avg, 0.311)
        targets = calib.targets.patches
        rng = np.random.default_rng(16)
        weights = rng.uniform(0.5, 2.0, 24)
        q = solve_q(predicted, calib.targets, weights)
        s = np.linalg.svd(predicted * np.sqrt(weights)[:, None], compute_uv=False)
        kept = s[s > s[0] * Q_SPREAD_RCOND]
        bound = 4 * (kept[0] / kept[-1]) * np.spacing(np.abs(q).max())
        for _ in range(20):
            order = rng.permutation(24)
            moved = solve_q(predicted[order], ChartSamples(targets[order]), weights[order])
            assert np.abs(moved - q).max() <= bound

    def test_weight_validation(self, random_q_fixture):
        rng = np.random.default_rng(13)
        sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
        predicted = predict_lit_chart(srl, m, w_avg, beta)
        weights = np.zeros(24)
        weights[[1, 2]] = 1.0  # only two constrained patches
        with pytest.raises(ValueError, match="3 patches"):
            solve_q(predicted, targets, weights)
        with pytest.raises(ValueError):
            solve_q(predicted, targets, np.full(24, -1.0))


class TestSolveN:
    def test_q_identity_gives_m(self):
        m = np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.2], [0.1, 0.0, 1.0]])
        assert np.array_equal(solve_n(m, np.eye(3)), m)

    def test_diagonal(self):
        n = solve_n(np.eye(3), np.diag([2.0, 1.0, 1.0]))
        assert np.allclose(n, np.diag([0.5, 1.0, 1.0]), atol=1e-15)

    def test_ill_conditioned_unavailable(self):
        q = np.diag([1.0, 1.0, 1e-5])  # cond 1e5 > default limit 1e4
        assert solve_n(np.eye(3), q) is None

    def test_singular_q_has_infinite_condition_and_no_n(self):
        q = np.diag([1.0, 1.0, 0.0])
        assert condition_number(q) == float("inf")
        assert solve_n(np.eye(3), q) is None

    def test_identities_on_random_fixtures(self, random_sl):
        rng = np.random.default_rng(14)
        for _ in range(100):
            sl = random_sl(rng)
            m = solve_m(sl)
            q = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
            n = solve_n(m, q)
            if n is None:
                continue
            assert np.abs(q @ sl @ n - np.eye(3)).max() < 1e-8
            assert np.abs(n - m @ np.linalg.inv(q)).max() < 1e-10


class TestBlackLevel:
    def test_zero_bounce(self):
        assert np.array_equal(compute_black_level([0, 0, 0], [1, 1, 1]), np.zeros(3))

    def test_componentwise_division(self):
        offset = compute_black_level([0.02, 0.03, 0.04], [0.8, 0.9, 1.0])
        expect = np.array([0.02, 0.03, 0.04]) / np.array([0.8, 0.9, 1.0])
        assert np.array_equal(offset, expect)
        assert np.abs(offset - [0.025, 0.03333333333333333, 0.04]).max() < 1e-15

    def test_pathological_flagged(self):
        with pytest.warns(UserWarning, match="black level"):
            offset = compute_black_level([0.8, 0.9, 1.0], [0.8, 0.9, 1.0])
        assert np.array_equal(offset, np.ones(3))

    def test_bad_white(self):
        with pytest.raises(ValueError, match="w_camera"):
            compute_black_level([0.1, 0.1, 0.1], [1.0, 0.0, 1.0])

    def test_negative_bounce(self):
        with pytest.raises(ValueError, match="b_camera"):
            compute_black_level([-0.1, 0.1, 0.1], [1.0, 1.0, 1.0])


def simple_bundle(m=None, q=None, n=None, beta=0.311, offset=(0.0, 0.0, 0.0)):
    return CalibrationBundle(
        m=np.eye(3) if m is None else m,
        q=np.eye(3) if q is None else q,
        n=n,
        beta=beta,
        black_offset=np.asarray(offset, float),
    )


class TestTransformContent:
    def test_post_identity(self):
        bundle = simple_bundle()
        p = np.array([0.2, 0.5, 0.7])
        assert np.array_equal(transform_content(p, "post", bundle), p)

    def test_out_of_frustum(self):
        bundle = simple_bundle(m=np.diag([2.0, 1.0, 1.0]))
        out = transform_content(np.array([0.3, 0.3, 0.3]), "out_of_frustum", bundle)
        assert np.allclose(out, [0.6, 0.3, 0.3], atol=1e-15)

    def test_in_frustum_clamps_and_counts(self):
        bundle = simple_bundle(n=np.eye(3), offset=(0.1, 0.1, 0.1))
        counter = GamutCounter()
        out = transform_content(np.array([0.05, 0.5, 1.0]), "in_frustum", bundle, counter)
        assert np.allclose(out, [0.0, 0.4, 0.9], atol=1e-15)
        assert counter.out_of_gamut == 0

        out = transform_content(np.array([0.05, 0.5, 1.5]), "in_frustum", bundle, counter)
        assert np.allclose(out, [0.0, 0.4, 1.0], atol=1e-15)
        assert counter.out_of_gamut == 1
        assert counter.total == 2

    def test_in_frustum_falls_back_to_m(self):
        bundle = simple_bundle(m=np.diag([0.5, 0.5, 0.5]), n=None)
        out = transform_content(np.array([1.0, 1.0, 1.0]), "in_frustum", bundle)
        assert np.allclose(out, [0.5, 0.5, 0.5], atol=1e-15)

    def test_baseline_reduction(self):
        # Q = I, N = M, offset = 0 collapses the pipeline to {M., M., identity}
        m = np.array([[0.9, 0.05, 0.0], [0.0, 0.8, 0.1], [0.05, 0.0, 0.85]])
        bundle = simple_bundle(m=m, q=np.eye(3), n=m)
        p = np.array([0.4, 0.5, 0.6])
        assert np.allclose(transform_content(p, "out_of_frustum", bundle), m @ p, atol=1e-15)
        assert np.allclose(transform_content(p, "in_frustum", bundle), m @ p, atol=1e-15)
        assert np.array_equal(transform_content(p, "post", bundle), p)

    def test_vectorized_image(self):
        bundle = simple_bundle(n=np.eye(3), offset=(0.1, 0.1, 0.1))
        counter = GamutCounter()
        pixels = np.array([[[0.05, 0.5, 1.5], [0.2, 0.2, 0.2]]])
        out = transform_content(pixels, "in_frustum", bundle, counter)
        assert out.shape == (1, 2, 3)
        assert counter.total == 2
        assert counter.out_of_gamut == 1

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            transform_content(np.zeros(3), "sideways", simple_bundle())

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (5, 2), ()])
    def test_trailing_axis_other_than_rgb_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"trailing RGB axis, got shape {shape}")):
            transform_content(np.zeros(shape), "post", simple_bundle())


def reference_transform(pixels, mode, bundle, counter=None):
    """transform_content as first written: whole-array numpy, no tiles."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if mode == "out_of_frustum":
        return pixels @ bundle.m.T
    if mode == "post":
        return pixels @ bundle.q.T
    out = pixels @ bundle.n_effective.T - bundle.black_offset
    out = np.maximum(out, 0.0)
    over = (out > 1.0).any(axis=-1)
    if counter is not None:
        counter.total += int(np.size(over))
        counter.out_of_gamut += int(np.count_nonzero(over))
    return np.minimum(out, 1.0)


# the empty input, a lone pixel, small inputs, both sides of an in_frustum
# tile boundary and of one and two tile boundaries, and tiles of unequal
# size spread over several threads
PIXEL_COUNTS = (
    0, 1, 2, 5, _CLAMP_PIXELS - 1, _CLAMP_PIXELS, _CLAMP_PIXELS + 1,
    _TILE_PIXELS - 1, _TILE_PIXELS, _TILE_PIXELS + 1, 2 * _TILE_PIXELS + 1, 4 * _TILE_PIXELS + 3,
)


def lay_out(values, layout):
    """The (P, 3) pixels of ``values``, in order, in one of several array layouts."""
    count = len(values)
    if layout == "vector":
        return values.reshape(3)
    if layout == "image":
        rows = next(k for k in (3, 2, 1) if count % k == 0)
        return values.reshape(rows, count // rows, 3)
    if layout == "stack":  # (P, 1, 3): numpy multiplies each pixel on its own
        return values.reshape(count, 1, 3)
    if layout == "transposed":
        return np.ascontiguousarray(values.T).T
    if layout == "strided":
        return np.repeat(values, 2, axis=0)[::2]
    if layout == "channel_strided":
        return np.repeat(values, 2, axis=1)[:, ::2]
    return values


@st.composite
def content_pixels(draw, count):
    layouts = ["rows", "image", "stack", "transposed", "strided", "channel_strided"]
    layout = draw(st.sampled_from(layouts + ["vector"] * (count == 1)))
    dtype = np.dtype(draw(st.sampled_from(["float64", "float32", "int64", "int8", "uint16"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype.kind == "f":
        values = rng.uniform(-0.25, 1.5, (count, 3)).astype(dtype)
    else:
        values = rng.integers(0 if dtype.kind == "u" else -2, 3, (count, 3)).astype(dtype)
    return lay_out(values, layout)


matrix3 = st.lists(st.floats(-0.4, 0.4), min_size=9, max_size=9).map(
    lambda v: np.eye(3) + np.reshape(v, (3, 3))
)
bundles = st.builds(
    simple_bundle,
    m=matrix3,
    q=matrix3,
    n=st.none() | matrix3,
    offset=st.lists(st.floats(0.0, 0.3), min_size=3, max_size=3),
)


# no shrink phase: the failing draw (layout, dtype, seed, bundle) is already
# small, and re-running inputs of up to 2 tiles to shrink it takes minutes
@pytest.mark.parametrize("count", PIXEL_COUNTS)
@settings(derandomize=True, max_examples=12, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(data=st.data(), bundle=bundles)
def test_transform_content_matches_whole_array_reference(count, data, bundle):
    pixels = data.draw(content_pixels(count))
    before = pixels.copy()
    for mode in ("out_of_frustum", "in_frustum", "post"):
        counter, ref_counter = GamutCounter(), GamutCounter()
        out = transform_content(pixels, mode, bundle, counter)
        ref = reference_transform(pixels, mode, bundle, ref_counter)
        assert out.dtype == np.float64 and out.shape == pixels.shape
        assert out.tobytes() == ref.tobytes()
        assert (counter.total, counter.out_of_gamut) == (ref_counter.total, ref_counter.out_of_gamut)
        assert type(counter.total) is int and type(counter.out_of_gamut) is int
        assert not np.shares_memory(out, pixels)
    assert pixels.dtype == before.dtype and np.array_equal(pixels, before)


def many_tile_case(seed=17):
    """Pixels over four tiles, some pushed past the display maximum, and a bundle."""
    rng = np.random.default_rng(seed)
    pixels = rng.uniform(-0.25, 1.5, (4 * _TILE_PIXELS + 3, 3))
    n = np.eye(3) + rng.uniform(-0.4, 0.4, (3, 3))
    return pixels, simple_bundle(m=n.T, q=n @ n, n=n, offset=(0.05, 0.0, 0.1))


@pytest.mark.parametrize("cpus", [1, 3, 4, None])
def test_transform_content_does_not_depend_on_the_thread_count(cpus, monkeypatch):
    if cpus is None:  # a platform without sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pixels, bundle = many_tile_case()
    for mode in ("out_of_frustum", "in_frustum", "post"):
        counter, ref_counter = GamutCounter(), GamutCounter()
        out = transform_content(pixels, mode, bundle, counter)
        assert out.tobytes() == reference_transform(pixels, mode, bundle, ref_counter).tobytes()
        assert (counter.total, counter.out_of_gamut) == (ref_counter.total, ref_counter.out_of_gamut)
        assert mode != "in_frustum" or 0 < counter.out_of_gamut < counter.total


def test_transform_content_from_two_threads_at_once(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pixels, bundle = many_tile_case()
    ref_counter = GamutCounter()
    ref = reference_transform(pixels, "in_frustum", bundle, ref_counter).tobytes()
    results = [None, None]

    def run(i):
        counter = GamutCounter()
        out = transform_content(pixels, "in_frustum", bundle, counter)
        results[i] = (out.tobytes(), counter.total, counter.out_of_gamut)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert results == [(ref, ref_counter.total, ref_counter.out_of_gamut)] * 2


def test_transform_content_in_a_forked_child(monkeypatch):
    # each call's thread pool is gone when it returns, so a child forked
    # afterwards starts its own
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pixels, bundle = many_tile_case()
    transform_content(pixels, "in_frustum", bundle)
    second = pixels[::-1] * 0.5
    expected = transform_content(second, "post", bundle).tobytes()
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork while any OS thread runs, BLAS's included
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if transform_content(second, "post", bundle).tobytes() == expected else 3
        finally:
            os._exit(status)
    deadline = time.monotonic() + 60
    while (reaped := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if reaped[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("forked child did not finish transform_content within 60 s")
    assert os.waitstatus_to_exitcode(reaped[1]) == 0


def test_in_frustum_clamp_gives_positive_zero(monkeypatch):
    # With a zero pixel and an all-negative N, every product in N.p is -0.0.
    # A BLAS that sums from the first product gives -0.0, and N.p - 0 stays
    # -0.0. OpenBLAS starts each sum at +0.0, so a stand-in matmul gives the
    # -0.0 here. The maximum-then-minimum clamp turns it into +0.0, as the
    # reference does; np.clip would keep -0.0.
    real_matmul = np.matmul

    def matmul_from_first_product(a, b, out):
        real_matmul(a, b, out=out)
        out[out == 0] = -0.0
        return out

    pixels = np.zeros((6, 3))
    n = -np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    bundle = simple_bundle(m=np.eye(3), n=n)
    expected = reference_transform(pixels, "in_frustum", bundle).tobytes()
    monkeypatch.setattr(np, "matmul", matmul_from_first_product)
    assert np.signbit(matmul_from_first_product(pixels, n.T, np.empty((6, 3)))).all()
    out = transform_content(pixels, "in_frustum", bundle)
    assert out.tobytes() == expected
    assert not np.signbit(out).any()


def test_in_frustum_scratch_is_under_a_mebibyte_beyond_the_output(monkeypatch):
    # on 2 threads: a 384 KiB tiled offset and 144 KiB per thread for the
    # channel maximum and its mask; a 64 Ki-pixel offset alone is 1.5 MiB
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pixels, bundle = many_tile_case()
    tracemalloc.start()
    try:
        transform_content(pixels, "in_frustum", bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - pixels.nbytes < 1 << 20  # the float64 output is as large as the input


def test_non_finite_and_signed_zero_pixels_match_the_reference():
    # N = I multiplies each channel by 0 in the others, so an infinite
    # channel puts a NaN beside a channel over 1 (as 0 * inf is NaN): the
    # pixel must still count as clamped, as (out > 1).any() counts it
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, 2.0])
    values = np.stack(np.meshgrid(specials, specials, specials, indexing="ij"), axis=-1).reshape(-1, 3)
    bundle = simple_bundle(n=np.eye(3), offset=(0.0, 0.25, 0.0))
    cases = [lay_out(values, layout) for layout in ("rows", "image", "stack", "transposed", "strided",
                                                    "channel_strided")]
    cases += [lay_out(value[None], "vector") for value in values]
    with np.errstate(invalid="ignore"):  # numpy warns on the 0 * inf products
        for pixels in cases:
            for mode in ("out_of_frustum", "in_frustum", "post"):
                counter, ref_counter = GamutCounter(), GamutCounter()
                out = transform_content(pixels, mode, bundle, counter)
                assert out.tobytes() == reference_transform(pixels, mode, bundle, ref_counter).tobytes()
                assert (counter.total, counter.out_of_gamut) == (ref_counter.total, ref_counter.out_of_gamut)
        in_frustum = GamutCounter()
        transform_content(values, "in_frustum", bundle, in_frustum)
    # clamped: the 4**3 - 3**3 finite pixels with a 2.0, and the 3 * 4**2
    # with one +inf beside two finite channels, which N turns into NaNs
    assert (in_frustum.total, in_frustum.out_of_gamut) == (7**3, 37 + 48)


class TestChartError:
    def test_zero_for_equal(self):
        chart = ChartSamples(np.random.default_rng(15).uniform(0.1, 1.0, (24, 3)))
        assert np.array_equal(chart_error(chart, chart, 18), np.zeros(3))

    def test_single_patch_white_offset(self):
        rng = np.random.default_rng(16)
        target = ChartSamples(rng.uniform(0.2, 1.0, (24, 3)))
        measured = target.patches.copy()
        measured[4, 0] += target.white(18)[0]  # off by the white intensity, red only
        err = chart_error(target, ChartSamples(measured), 18)
        assert abs(err[0] - 1 / 24) < 1e-12
        assert err[1] == 0.0 and err[2] == 0.0

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(17)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        measured = ChartSamples(np.abs(target.patches + rng.normal(0, 0.05, (24, 3))))
        err = chart_error(target, measured, 18)
        # second, loop-based implementation
        for c in range(3):
            total = 0.0
            for j in range(24):
                total += abs(measured.patches[j, c] - target.patches[j, c])
            expect = total / 24 / target.white(18)[c]
            assert abs(err[c] - expect) < 1e-12

    def test_white_index_picks_the_normalising_patch(self):
        rng = np.random.default_rng(19)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        measured = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        at_18, at_0 = chart_error(target, measured, 18), chart_error(target, measured, 0)
        assert np.allclose(at_0, at_18 * target.white(18) / target.white(0), rtol=1e-14, atol=0)

    def test_zero_white_rejected(self):
        patches = np.full((24, 3), 0.5)
        patches[18] = 0.0
        with pytest.raises(ValueError, match="white"):
            chart_error(ChartSamples(patches), ChartSamples(np.full((24, 3), 0.5)), 18)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-300, 1e-30, 1e-3, 1.0, 1e30, 1e300]))
    def test_power_of_two_scaling_keeps_every_bit(self, seed, scale):
        rng = np.random.default_rng(seed)
        target = rng.uniform(0.01, 1.0, (24, 3)) * scale
        measured = np.abs(target * (1 + rng.normal(0, 0.05, (24, 3))))
        direct = np.abs(measured - target).mean(axis=0) / target[18]
        got = chart_error(ChartSamples(target), ChartSamples(measured), 18)
        assert got.tobytes() == direct.tobytes()

    def test_chart_near_the_float_maximum_does_not_overflow(self):
        # summing 24 differences of about 1e308 overflows; the scaled sum does not
        # (pytest turns any overflow warning into an error)
        measured = np.random.default_rng(20).uniform(0.1, 1.0, (24, 3))
        err = chart_error(ChartSamples(np.full((24, 3), 1e308)), ChartSamples(measured), 18)
        assert np.allclose(err, 1.0, rtol=1e-12, atol=0)

    def test_error_past_the_float_range_rejected(self):
        # a subnormal white patch turns ordinary differences into an infinite error
        target = np.random.default_rng(21).uniform(0.1, 1.0, (24, 3))
        target[18] = 5e-324
        with pytest.raises(ValueError, match=r"chart error \[inf, inf, inf\] exceeds the float range"):
            chart_error(ChartSamples(target), ChartSamples(target + 0.5), 18)


class TestBundle:
    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(18)
        bundle = CalibrationBundle(
            m=rng.standard_normal((3, 3)),
            q=rng.standard_normal((3, 3)),
            n=rng.standard_normal((3, 3)),
            beta=0.311,
            black_offset=np.array([0.01, 0.02, 0.03]),
            diagnostics={"cond_SL": 1.5, "n_available": True},
        )
        back = CalibrationBundle.from_json(bundle.to_json())
        assert np.array_equal(back.m, bundle.m)
        assert np.array_equal(back.q, bundle.q)
        assert np.array_equal(back.n, bundle.n)
        assert back.beta == bundle.beta
        assert np.array_equal(back.black_offset, bundle.black_offset)
        assert back.diagnostics == bundle.diagnostics

    def test_none_n_serializes(self):
        bundle = simple_bundle(n=None)
        back = CalibrationBundle.from_json(bundle.to_json())
        assert back.n is None
        assert np.array_equal(back.n_effective, bundle.m)

    def test_beta_validation(self):
        with pytest.raises(ValueError, match="beta"):
            simple_bundle(beta=0.0)
        with pytest.raises(ValueError, match="beta"):
            simple_bundle(beta=1.5)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="black_offset"):
            simple_bundle(offset=(-0.1, 0.0, 0.0))
