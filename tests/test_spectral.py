import json

import numpy as np
import pytest

from stagecal.calibration import (
    chart_error,
    condition_number,
    predict_lit_chart,
    q_objective,
    simulate_lit_chart,
    solve_m,
    solve_n,
    solve_q,
)
from stagecal.imaging import ChartSamples
from stagecal.spectral import (
    DELTA_LAMBDA,
    N_SAMPLES,
    NEUTRAL_REFLECTANCES,
    SCENARIOS,
    WAVELENGTHS,
    OracleScene,
    brute_force_q,
    default_camera,
    default_leds,
    integrate_response,
    make_gaussian_band,
    make_scene,
    oracle_calibration,
    write_scene,
)

BETA = 0.311


class TestGaussianBand:
    def test_zero_peak(self):
        assert np.array_equal(make_gaussian_band(550, 30, peak=0.0), np.zeros(N_SAMPLES))

    def test_fwhm_definition(self):
        band = make_gaussian_band(550, 30, peak=0.8)
        i550 = int(np.where(WAVELENGTHS == 550)[0][0])
        assert band[i550] == 0.8
        # 550 +/- 15 nm sit on the grid and carry exactly half the peak
        for wl in (535, 565):
            i = int(np.where(WAVELENGTHS == wl)[0][0])
            assert abs(band[i] - 0.4) < 1e-12

    def test_off_grid_center_peaks_at_nearest_sample(self):
        band = make_gaussian_band(551.2, 20)
        assert band.max() == band[int(np.argmin(np.abs(WAVELENGTHS - 551.2)))] == 1.0

    def test_sum_of_bands(self):
        a = make_gaussian_band(450, 40, 0.5)
        b = make_gaussian_band(650, 25, 0.7)
        assert np.array_equal(a + b, b + a)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_gaussian_band(900, 30)
        with pytest.raises(ValueError):
            make_gaussian_band(550, 0.0)

    def test_band_that_underflows_at_its_nearest_sample_raises(self):
        # 1.2 nm from the nearest sample is 240 sigma at a 0.01 nm FWHM
        with pytest.raises(ValueError, match="underflows at its nearest grid sample"):
            make_gaussian_band(551.2, 0.01)


class TestIntegrateResponse:
    def test_zero_emission(self):
        s = default_camera()
        assert np.array_equal(integrate_response(s, np.zeros(N_SAMPLES)), np.zeros(3))

    def test_single_sample(self):
        # delta-like sensitivity at one grid point: response = L * R * dlambda
        s = np.zeros((3, N_SAMPLES))
        i = 40
        s[1, i] = 1.0
        emission = np.zeros(N_SAMPLES)
        emission[i] = 2.0
        reflect = np.full(N_SAMPLES, 0.5)
        out = integrate_response(s, emission, reflect)
        assert out[1] == 2.0 * 0.5 * DELTA_LAMBDA == 5.0
        assert out[0] == out[2] == 0.0

    def test_linear_in_emission(self):
        rng = np.random.default_rng(0)
        s = default_camera()
        l1, l2 = rng.uniform(0, 1, (2, N_SAMPLES))
        r = rng.uniform(0, 1, N_SAMPLES)
        a, b = 0.7, 2.3
        lhs = integrate_response(s, a * l1 + b * l2, r)
        rhs = a * integrate_response(s, l1, r) + b * integrate_response(s, l2, r)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestOracleScene:
    def test_reflectance_bounds(self):
        bad = np.full((24, N_SAMPLES), 1.5)
        with pytest.raises(ValueError, match="0, 1"):
            OracleScene(default_camera(), default_leds(), np.ones(N_SAMPLES), bad)

    def test_zero_curve_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            OracleScene(
                np.zeros((3, N_SAMPLES)),
                default_leds(),
                np.ones(N_SAMPLES),
                np.full((24, N_SAMPLES), 0.5),
            )

    def test_make_scene_deterministic(self):
        a = make_scene(42, "broad")
        b = make_scene(42, "broad")
        assert np.array_equal(a.illuminant, b.illuminant)
        assert np.array_equal(a.reflectances, b.reflectances)

    def test_neutral_row_flat(self):
        scene = make_scene(0, "broad")
        for i, value in enumerate(NEUTRAL_REFLECTANCES):
            row = scene.reflectances[18 + i]
            assert np.array_equal(row, np.full(N_SAMPLES, value))

    def test_round_trip(self, tmp_path):
        # the manifest names every curve file, and each parses back to the exact curve
        scene = make_scene(3, "rgb-led")
        write_scene(tmp_path, scene, extra_manifest={"seed": 3})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["wavelength_nm"] == [380.0, 780.0, DELTA_LAMBDA]

        def curve(name):
            header, *rows = (tmp_path / name).read_text().splitlines()
            assert header == "wavelength_nm,value"
            values = np.array([[float(v) for v in row.split(",")] for row in rows])
            assert np.array_equal(values[:, 0], WAVELENGTHS)
            return values[:, 1]

        files = manifest["files"]
        assert np.array_equal(np.stack([curve(n) for n in files["camera"]]), scene.camera)
        assert np.array_equal(np.stack([curve(n) for n in files["leds"]]), scene.leds)
        assert np.array_equal(curve(files["illuminant"]), scene.illuminant)
        assert np.array_equal(np.stack([curve(n) for n in files["reflectances"]]), scene.reflectances)


class TestOracleCalibration:
    def test_sl_matches_construction(self):
        # every batched measurement equals its own integrate_response call bit for bit
        for scenario in SCENARIOS:
            scene = make_scene(1, scenario)
            calib = oracle_calibration(scene, BETA)
            for c in range(3):
                expect = integrate_response(scene.camera, scene.leds[c])
                assert np.array_equal(calib.sl[:, c], expect)
            for j, refl in enumerate(scene.reflectances):
                for c in range(3):
                    expect = BETA * integrate_response(scene.camera, scene.leds[c], refl)
                    assert np.array_equal(calib.srl.matrices[j][:, c], expect)
                expect = integrate_response(scene.camera, scene.illuminant, refl)
                assert np.array_equal(calib.targets.patches[j], expect)
            white = np.full(N_SAMPLES, 0.9)
            expect = integrate_response(scene.camera, scene.illuminant, white) / 0.9
            assert np.array_equal(calib.w_avg, expect)
        # rebuilding from the per-primary "photograph" values is lossless
        from stagecal.calibration import build_sl

        rebuilt = build_sl(calib.sl[:, 0], calib.sl[:, 1], calib.sl[:, 2])
        assert np.array_equal(rebuilt, calib.sl)

    def test_srl_matches_chart_captures(self):
        # chart photographs carry the SRL columns; assembling them back
        # reproduces the oracle matrices exactly
        from stagecal.calibration import build_srl

        scene = make_scene(9, "broad")
        calib = oracle_calibration(scene, BETA)
        charts = [
            ChartSamples(calib.srl.matrices[:, :, c], white_index=18) for c in range(3)
        ]
        rebuilt = build_srl(*charts)
        assert np.array_equal(rebuilt.matrices, calib.srl.matrices)

    def test_flat_reflectance_srl_structure(self):
        scene = make_scene(2, "broad")
        calib = oracle_calibration(scene, BETA)
        # neutral row patches are flat: SRL_j = beta * r_j * SL there
        for i, r in enumerate(NEUTRAL_REFLECTANCES):
            j = 18 + i
            assert np.abs(calib.srl.matrices[j] - BETA * r * calib.sl).max() < 1e-12

    def test_w_avg_equals_white_target_scaled(self):
        scene = make_scene(4, "broad")
        calib = oracle_calibration(scene, BETA)
        assert np.array_equal(calib.w_avg, calib.targets.white / 0.9)

    def test_led_span_illuminant_yields_identity_q(self):
        # stage's own channels as the environment, flat chart: metameric match
        rng = np.random.default_rng(5)
        camera = default_camera()
        leds = make_scene(0, "broad").leds
        drive = rng.uniform(0.3, 1.0, 3)
        illuminant = drive @ leds
        flats = np.concatenate([rng.uniform(0.05, 0.9, 18), np.array(NEUTRAL_REFLECTANCES)])
        scene = OracleScene(camera, leds, illuminant, np.repeat(flats[:, None], N_SAMPLES, axis=1))
        calib = oracle_calibration(scene, BETA)
        m = solve_m(calib.sl)
        q = solve_q(calib.srl, m, calib.w_avg, calib.targets, BETA)
        assert np.abs(q - np.eye(3)).max() < 1e-9

    def test_monochromatic_scenario_kills_n(self):
        scene = make_scene(6, "monochromatic")
        calib = oracle_calibration(scene, BETA)
        m = solve_m(calib.sl)
        q = solve_q(calib.srl, m, calib.w_avg, calib.targets, BETA)
        assert condition_number(q) > 1e4
        assert solve_n(m, q) is None

    @pytest.mark.parametrize("scenario", ["broad", "rgb-led", "monochromatic"])
    def test_correction_never_increases_summed_error(self, scenario):
        for seed in range(10):
            scene = make_scene(seed, scenario)
            calib = oracle_calibration(scene, BETA)
            m = solve_m(calib.sl)
            q = solve_q(calib.srl, m, calib.w_avg, calib.targets, BETA)
            predicted = predict_lit_chart(calib.srl, m, calib.w_avg, BETA)
            base = chart_error(calib.targets, ChartSamples(np.maximum(predicted, 0)))
            corrected = chart_error(
                calib.targets, ChartSamples(np.maximum(predicted @ q.T, 0))
            )
            assert corrected.sum() <= base.sum()

    def test_broad_scenario_improves_per_channel(self):
        scene = make_scene(0, "broad")
        calib = oracle_calibration(scene, BETA)
        m = solve_m(calib.sl)
        q = solve_q(calib.srl, m, calib.w_avg, calib.targets, BETA)
        predicted = predict_lit_chart(calib.srl, m, calib.w_avg, BETA)
        base = chart_error(calib.targets, ChartSamples(np.maximum(predicted, 0)))
        corrected = chart_error(calib.targets, ChartSamples(np.maximum(predicted @ q.T, 0)))
        assert np.all(corrected <= base)
        assert np.any(corrected < base)

    def test_simulation_matches_direct_spectral_integration(self):
        # the stage reproducing the environment emits sum_c (M w_avg)_c led_c
        # over the full sphere; simulating through the calibration data must
        # agree with integrating that emission against each patch directly
        scene = make_scene(7, "broad")
        calib = oracle_calibration(scene, BETA)
        m = solve_m(calib.sl)
        chart = simulate_lit_chart(calib.srl, m, calib.w_avg, BETA)
        drive = m @ calib.w_avg
        stage_emission = drive @ scene.leds
        for j in range(24):
            direct = integrate_response(scene.camera, stage_emission, scene.reflectances[j])
            assert np.abs(chart.patches[j] - direct).max() < 1e-9

    def test_beta_validation(self):
        with pytest.raises(ValueError, match="beta"):
            oracle_calibration(make_scene(0, "broad"), 0.0)


class TestBruteForceQ:
    def test_identity_when_equal(self):
        chart = ChartSamples(np.random.default_rng(8).uniform(0.1, 1.0, (24, 3)))
        q = brute_force_q(chart.patches, chart.patches)
        assert np.abs(q - np.eye(3)).max() < 1e-12

    def test_three_patch_diagonal(self):
        predicted = np.zeros((24, 3))
        targets = np.zeros((24, 3))
        scales = (2.0, 4.0, 8.0)
        for c, a in enumerate(scales):
            predicted[c, c] = a
            targets[c, c] = 1.0
        weights = np.zeros(24)
        weights[:3] = 1.0
        q = brute_force_q(predicted, targets, weights)
        assert np.allclose(q, np.diag([0.5, 0.25, 0.125]), atol=1e-12)

    def test_rank_deficient_rejected(self):
        flat = np.tile(np.array([0.5, 0.4, 0.3]), (24, 1))
        with pytest.raises(ValueError, match="rank"):
            brute_force_q(flat, flat)

    def test_agrees_with_solver_on_scenes(self):
        for seed in range(10):
            scene = make_scene(seed, "broad")
            calib = oracle_calibration(scene, BETA)
            m = solve_m(calib.sl)
            q = solve_q(calib.srl, m, calib.w_avg, calib.targets, BETA)
            predicted = predict_lit_chart(calib.srl, m, calib.w_avg, BETA)
            qb = brute_force_q(predicted, calib.targets.patches)
            assert np.linalg.norm(q - qb) / np.linalg.norm(qb) < 1e-9
            # and the solution is a true stationary point of the objective
            f0 = q_objective(q, calib.srl, m, calib.w_avg, calib.targets, BETA)
            fb = q_objective(qb, calib.srl, m, calib.w_avg, calib.targets, BETA)
            assert f0 <= fb * (1 + 1e-9) + 1e-15
