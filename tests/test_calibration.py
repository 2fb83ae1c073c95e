import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from stagecal.calibration import (
    _TILE_PIXELS,
    CalibrationBundle,
    GamutCounter,
    SRLSet,
    build_sl,
    build_srl,
    chart_error,
    compute_black_level,
    condition_number,
    predict_lit_chart,
    q_objective,
    simulate_lit_chart,
    solve_m,
    solve_n,
    solve_q,
    transform_content,
)
from stagecal.imaging import ChartSamples
from stagecal.spectral import brute_force_q

# non-negative, like a camera's view of three primaries, with cond(SL) < 100
well_conditioned_sl = (
    st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9)
    .map(lambda v: np.reshape(v, (3, 3)) + np.eye(3))
    .filter(lambda sl: condition_number(sl) < 100)
)


@st.composite
def q_systems(draw):
    """A full-rank solve_q system: (srl, m, w_avg, targets, beta, weights)."""
    m = np.linalg.inv(draw(well_conditioned_sl))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    srl = SRLSet(rng.uniform(0.0, 0.8, (24, 3, 3)))
    w_avg = rng.uniform(0.2, 1.0, 3)
    targets = ChartSamples(rng.uniform(0.01, 1.0, (24, 3)))
    weights = rng.uniform(0.0, 2.0, 24) if draw(st.booleans()) else None
    return srl, m, w_avg, targets, draw(st.floats(0.05, 1.0)), weights


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

    def test_mismatched_white_index(self):
        a = ChartSamples(np.zeros((24, 3)), white_index=18)
        b = ChartSamples(np.zeros((24, 3)), white_index=19)
        with pytest.raises(ValueError, match="white_index"):
            build_srl(a, a, b)

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
        chart = simulate_lit_chart(srl, solve_m(sl), w_avg, 0.311)
        assert np.abs(chart.patches - targets.patches).max() < 1e-12

    def test_zero_w_avg(self):
        rng = np.random.default_rng(3)
        sl, srl, _, _ = flat_metamer_fixture(rng)
        chart = simulate_lit_chart(srl, solve_m(sl), np.zeros(3), 0.311)
        assert np.array_equal(chart.patches, np.zeros((24, 3)))

    def test_bad_beta(self):
        rng = np.random.default_rng(4)
        sl, srl, w_avg, _ = flat_metamer_fixture(rng)
        with pytest.raises(ValueError, match="beta"):
            simulate_lit_chart(srl, solve_m(sl), w_avg, 0.0)

    def test_negative_predictions_clamped_with_warning(self):
        srl = SRLSet(np.ones((24, 3, 3)))
        m = np.eye(3)
        w_avg = np.array([1.0, -2.0, 0.5])  # drives predictions negative
        with pytest.warns(UserWarning, match="clamped"):
            chart = simulate_lit_chart(srl, m, w_avg, 0.5)
        assert (chart.patches >= 0).all()

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
        q = solve_q(srl, m, w_avg, targets, beta)
        assert np.abs(q - np.eye(3)).max() < 1e-9
        assert q_objective(q, srl, m, w_avg, targets, beta) < 1e-18

    def test_three_patch_exact_solve(self, random_q_fixture):
        rng = np.random.default_rng(7)
        sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
        weights = np.zeros(24)
        weights[[0, 5, 11]] = 1.0
        predicted = predict_lit_chart(srl, m, w_avg, beta)
        assert np.linalg.matrix_rank(predicted[[0, 5, 11]]) == 3
        q = solve_q(srl, m, w_avg, targets, beta, weights)
        # nine equations, nine unknowns: the selected patches match exactly
        assert np.abs(predicted[[0, 5, 11]] @ q.T - targets.patches[[0, 5, 11]]).max() < 1e-9

    def test_matches_brute_force(self, random_q_fixture):
        rng = np.random.default_rng(8)
        for _ in range(100):
            sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
            predicted = predict_lit_chart(srl, m, w_avg, beta)
            q = solve_q(srl, m, w_avg, targets, beta)
            qb = brute_force_q(predicted, targets.patches)
            assert np.linalg.norm(q - qb) / np.linalg.norm(qb) < 1e-9

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(system=q_systems())
    def test_agrees_with_brute_force_on_any_full_rank_system(self, system):
        srl, m, w_avg, targets, beta, weights = system
        q = solve_q(srl, m, w_avg, targets, beta, weights)
        qb = brute_force_q(predict_lit_chart(srl, m, w_avg, beta), targets.patches, weights)
        assert np.linalg.norm(q - qb) / np.linalg.norm(qb) < 1e-9

    def test_gradient_vanishes_at_solution(self, random_q_fixture):
        rng = np.random.default_rng(9)
        for _ in range(20):
            sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
            q = solve_q(srl, m, w_avg, targets, beta)
            for r in range(3):
                for c in range(3):
                    h = 1e-6 * max(abs(q[r, c]), 1.0)
                    qp, qm = q.copy(), q.copy()
                    qp[r, c] += h
                    qm[r, c] -= h
                    grad = (
                        q_objective(qp, srl, m, w_avg, targets, beta)
                        - q_objective(qm, srl, m, w_avg, targets, beta)
                    ) / (2 * h)
                    assert abs(grad) < 1e-6

    def test_never_worse_than_identity(self, random_q_fixture):
        rng = np.random.default_rng(10)
        for _ in range(50):
            sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
            q = solve_q(srl, m, w_avg, targets, beta)
            assert q_objective(q, srl, m, w_avg, targets, beta) <= q_objective(
                np.eye(3), srl, m, w_avg, targets, beta
            ) * (1 + 1e-12)

    def test_flat_metamer_returns_identity(self):
        rng = np.random.default_rng(11)
        sl, srl, w_avg, targets = flat_metamer_fixture(rng)
        m = solve_m(sl)
        q = solve_q(srl, m, w_avg, targets, 0.311)
        assert np.abs(q - np.eye(3)).max() < 1e-9
        assert q_objective(q, srl, m, w_avg, targets, 0.311) < 1e-18

    def test_degenerate_inconsistent_raises(self):
        rng = np.random.default_rng(12)
        sl, srl, w_avg, _ = flat_metamer_fixture(rng)  # rank-1 predictions
        m = solve_m(sl)
        targets = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))  # unexplainable
        with pytest.raises(ValueError, match="rank"):
            solve_q(srl, m, w_avg, targets, 0.311)

    def test_weight_validation(self, random_q_fixture):
        rng = np.random.default_rng(13)
        sl, m, srl, w_avg, targets, beta = random_q_fixture(rng)
        weights = np.zeros(24)
        weights[[1, 2]] = 1.0  # only two constrained patches
        with pytest.raises(ValueError, match="3 patches"):
            solve_q(srl, m, w_avg, targets, beta, weights)
        with pytest.raises(ValueError):
            solve_q(srl, m, w_avg, targets, beta, np.full(24, -1.0))


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
        assert counter.fraction == 0.5

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


# the empty input, a lone pixel, small inputs, and both sides of one and two
# tile boundaries
PIXEL_COUNTS = (0, 1, 2, 5, _TILE_PIXELS - 1, _TILE_PIXELS, _TILE_PIXELS + 1, 2 * _TILE_PIXELS + 1)


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


class TestChartError:
    def test_zero_for_equal(self):
        chart = ChartSamples(np.random.default_rng(15).uniform(0.1, 1.0, (24, 3)))
        assert np.array_equal(chart_error(chart, chart), np.zeros(3))

    def test_single_patch_white_offset(self):
        rng = np.random.default_rng(16)
        target = ChartSamples(rng.uniform(0.2, 1.0, (24, 3)))
        measured = target.patches.copy()
        measured[4, 0] += target.white[0]  # off by the white intensity, red only
        err = chart_error(target, ChartSamples(measured))
        assert abs(err[0] - 1 / 24) < 1e-12
        assert err[1] == 0.0 and err[2] == 0.0

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(17)
        target = ChartSamples(rng.uniform(0.1, 1.0, (24, 3)))
        measured = ChartSamples(np.abs(target.patches + rng.normal(0, 0.05, (24, 3))))
        err = chart_error(target, measured)
        # second, loop-based implementation
        for c in range(3):
            total = 0.0
            for j in range(24):
                total += abs(measured.patches[j, c] - target.patches[j, c])
            expect = total / 24 / target.white[c]
            assert abs(err[c] - expect) < 1e-12

    def test_zero_white_rejected(self):
        patches = np.full((24, 3), 0.5)
        patches[18] = 0.0
        with pytest.raises(ValueError, match="white"):
            chart_error(ChartSamples(patches), ChartSamples(np.full((24, 3), 0.5)))


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
