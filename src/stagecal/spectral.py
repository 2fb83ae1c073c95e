"""Synthetic spectral ground truth for exercising the calibration pipeline.

The world multiplies camera sensitivity, light emission, and material
reflectance wavelength by wavelength before the camera integrates; this
module does the same on a fixed 380-780 nm grid to manufacture calibration
data (primary responses, per-channel chart captures, target chart, frontal
tint) whose correct pipeline outputs are known, plus an independent
stacked-system solver to check the production least-squares path against.
`write_scene` stores a scene's curves as CSV for inspection; nothing in the
package reads them back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import SRLSet
from .imaging import CHART_PATCHES, DEFAULT_WHITE_INDEX, WHITE_REFLECTANCE, ChartSamples, as_array

WAVELENGTHS = np.arange(380.0, 781.0, 5.0)  # 81 samples
N_SAMPLES = len(WAVELENGTHS)
DELTA_LAMBDA = 5.0

# Fixed synthetic stage: narrow-band panel LEDs, broad camera sensitivities.
LED_BANDS = ((630.0, 20.0), (525.0, 20.0), (465.0, 20.0))
CAMERA_BANDS = ((600.0, 70.0), (540.0, 70.0), (460.0, 70.0))

# Neutral (bottom) chart row reflectances, white first.
NEUTRAL_REFLECTANCES = (WHITE_REFLECTANCE, 0.59, 0.36, 0.2, 0.09, 0.03)

SCENARIOS = ("broad", "rgb-led", "monochromatic", "identity")

SODIUM_LINE_NM = 589.0


def make_gaussian_band(center: float, fwhm: float, peak: float = 1.0) -> np.ndarray:
    """Gaussian sampled on the grid, peaking at the grid point nearest center."""
    if not WAVELENGTHS[0] <= center <= WAVELENGTHS[-1]:
        raise ValueError(f"center {center} nm outside the {WAVELENGTHS[0]}-{WAVELENGTHS[-1]} grid")
    if fwhm <= 0:
        raise ValueError(f"fwhm must be positive, got {fwhm}")
    sigma = fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))
    g = np.exp(-0.5 * ((WAVELENGTHS - center) / sigma) ** 2)
    nearest = int(np.argmin(np.abs(WAVELENGTHS - center)))
    if g[nearest] == 0.0:
        raise ValueError(f"fwhm {fwhm} nm too narrow: the band underflows at its nearest grid sample")
    return peak * g / g[nearest]


def _integrate(camera: np.ndarray, emission, reflectance) -> np.ndarray:
    """Unchecked camera response, broadcast over leading axes: (..., 81) light -> (..., 3).

    Each response is the 81-sample sum of one contiguous row, so a batch
    gives every element the same bits as a single call.
    """
    return (camera * (emission * reflectance)[..., None, :]).sum(axis=-1) * DELTA_LAMBDA


def integrate_response(sensitivities, emission, reflectance=None) -> np.ndarray:
    """Camera RGB response: sum_lambda S_c * L * R * delta_lambda."""
    s = as_array(sensitivities, (3, N_SAMPLES), "sensitivities")
    emission = as_array(emission, (N_SAMPLES,), "emission", nonneg=True)
    if reflectance is None:
        reflectance = np.ones(N_SAMPLES)
    reflectance = as_array(reflectance, (N_SAMPLES,), "reflectance", nonneg=True)
    return _integrate(s, emission, reflectance)


@dataclass(frozen=True)
class OracleScene:
    """Complete spectral description of a stage, camera, chart, and target light."""

    camera: np.ndarray        # (3, 81) sensitivities
    leds: np.ndarray          # (3, 81) stage channel emissions
    illuminant: np.ndarray    # (81,) target environment emission
    reflectances: np.ndarray  # (24, 81) chart patches, white at DEFAULT_WHITE_INDEX

    def __post_init__(self):
        camera = as_array(self.camera, (3, N_SAMPLES), "camera", nonneg=True)
        leds = as_array(self.leds, (3, N_SAMPLES), "leds", nonneg=True)
        illuminant = as_array(self.illuminant, (N_SAMPLES,), "illuminant", nonneg=True)
        refl = as_array(self.reflectances, (CHART_PATCHES, N_SAMPLES), "reflectances", nonneg=True)
        for name, curves in (("camera", camera), ("led", leds)):
            if (curves.sum(axis=1) == 0).any():
                raise ValueError(f"{name} curve is identically zero")
        if (refl > 1).any():
            raise ValueError("reflectances must lie in [0, 1]")
        object.__setattr__(self, "camera", camera)
        object.__setattr__(self, "leds", leds)
        object.__setattr__(self, "illuminant", illuminant)
        object.__setattr__(self, "reflectances", refl)


def default_camera() -> np.ndarray:
    return np.stack([make_gaussian_band(c, f) for c, f in CAMERA_BANDS])


def default_leds() -> np.ndarray:
    return np.stack([make_gaussian_band(c, f) for c, f in LED_BANDS])


def _chart_reflectances(rng: np.random.Generator) -> np.ndarray:
    """18 smooth chromatic patches (2-3 Gaussian lobes) plus the neutral row."""
    rows = []
    for _ in range(CHART_PATCHES - len(NEUTRAL_REFLECTANCES)):
        lobes = 2 + int(rng.integers(0, 2))
        curve = np.zeros(N_SAMPLES)
        for _ in range(lobes):
            curve = curve + make_gaussian_band(
                rng.uniform(400.0, 700.0), rng.uniform(60.0, 160.0), rng.uniform(0.1, 0.8)
            )
        rows.append(np.clip(curve, 0.0, 0.95))
    for value in NEUTRAL_REFLECTANCES:
        rows.append(np.full(N_SAMPLES, value))
    return np.stack(rows)


def _scenario_illuminant(rng: np.random.Generator, scenario: str) -> np.ndarray:
    if scenario == "broad":
        x = (WAVELENGTHS - WAVELENGTHS[0]) / (WAVELENGTHS[-1] - WAVELENGTHS[0])
        curve = 0.6 + 0.9 * x - 0.7 * x * x + 0.2 * np.sin(3.0 * x)
        curve = curve + 0.15 * rng.uniform(-1.0, 1.0) * np.cos(2.0 * x)
        return np.clip(curve, 0.0, None)
    if scenario == "rgb-led":
        # Similar but not identical to the stage LEDs, so Q stays near identity.
        curve = np.zeros(N_SAMPLES)
        for center, fwhm in LED_BANDS:
            curve = curve + make_gaussian_band(
                center + rng.uniform(-2.0, 2.0),
                fwhm * rng.uniform(0.9, 1.15),
                rng.uniform(0.6, 1.0),
            )
        return curve
    if scenario == "monochromatic":
        curve = np.zeros(N_SAMPLES)
        curve[int(np.argmin(np.abs(WAVELENGTHS - SODIUM_LINE_NM)))] = 1.0
        return curve
    raise ValueError(f"unknown scenario {scenario!r}; expected one of {SCENARIOS}")


def _normalize_led_levels(camera: np.ndarray, leds: np.ndarray) -> np.ndarray:
    """Scale each channel's drive so its camera response peaks at 0.9."""
    return leds * (0.9 / _integrate(camera, leds, 1.0).max(axis=1))[:, None]


def make_scene(seed: int, scenario: str = "broad") -> OracleScene:
    """Deterministic synthetic scene; the scenario picks the illuminant class."""
    rng = np.random.default_rng(seed)
    camera = default_camera()
    if scenario == "identity":
        # Stage channels spectrally identical to the camera bands, an
        # illuminant inside their span, and spectrally flat patches: the
        # stage can reproduce this world exactly.
        leds = _normalize_led_levels(camera, camera.copy())
        flats = np.concatenate([rng.uniform(0.05, 0.85, CHART_PATCHES - len(NEUTRAL_REFLECTANCES)),
                                np.array(NEUTRAL_REFLECTANCES)])
        reflectances = np.repeat(flats[:, None], N_SAMPLES, axis=1)
        illuminant = leds.sum(axis=0)
    else:
        leds = _normalize_led_levels(camera, default_leds())
        reflectances = _chart_reflectances(rng)
        illuminant = _scenario_illuminant(rng, scenario)
    # Scale so the camera's green response to the illuminant is 1.
    green = integrate_response(camera, illuminant)[1]
    return OracleScene(camera, leds, illuminant / green, reflectances)


@dataclass(frozen=True)
class OracleCalibration:
    """Spectrally integrated calibration data for a scene."""

    sl: np.ndarray          # (3, 3)
    srl: SRLSet
    targets: ChartSamples
    w_avg: np.ndarray       # (3,)


def oracle_calibration(scene: OracleScene, beta: float) -> OracleCalibration:
    """Integrate the scene into the four calibration measurements.

    The per-channel chart captures carry the beta factor because the physical
    calibration panel covers only that fraction of the chart's hemisphere.
    The scene's curves were checked when it was built, so they are
    integrated here unchecked, one batch per measurement.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    camera, leds, reflectances = scene.camera, scene.leds, scene.reflectances
    # integrals come out channel-major; SL and each SRL_j hold channels as columns
    sl = np.ascontiguousarray(_integrate(camera, leds, 1.0).T)
    srl = beta * _integrate(camera, leds, reflectances[:, None, :])  # (patch, channel, rgb)
    targets = _integrate(camera, scene.illuminant, reflectances)
    w_avg = _integrate(camera, scene.illuminant, WHITE_REFLECTANCE) / WHITE_REFLECTANCE
    return OracleCalibration(
        sl=sl,
        srl=SRLSet(np.ascontiguousarray(srl.transpose(0, 2, 1)), white_index=DEFAULT_WHITE_INDEX),
        targets=ChartSamples(targets, white_index=DEFAULT_WHITE_INDEX),
        w_avg=w_avg,
    )


def brute_force_q(predicted, targets, weights=None) -> np.ndarray:
    """Reference solver: pseudo-inverse of the full stacked 72x9 system.

    Independent of the production per-row solve; used to cross-check it.
    Takes (24, 3) arrays; unclamped predictions may carry negative components.
    """
    predicted = as_array(predicted, (CHART_PATCHES, 3), "predicted")
    targets = as_array(targets, (CHART_PATCHES, 3), "targets")
    if weights is None:
        weights = np.ones(CHART_PATCHES)
    weights = np.asarray(weights, dtype=np.float64)
    design = np.zeros((3 * CHART_PATCHES, 9))
    rhs = np.zeros(3 * CHART_PATCHES)
    for j in range(CHART_PATCHES):
        sw = np.sqrt(weights[j])
        for r in range(3):
            design[3 * j + r, 3 * r : 3 * r + 3] = sw * predicted[j]
            rhs[3 * j + r] = sw * targets[j, r]
    if np.linalg.matrix_rank(design) < 9:
        raise ValueError("design matrix rank < 9; system is degenerate")
    return (np.linalg.pinv(design) @ rhs).reshape(3, 3)


# --- scene serialization ----------------------------------------------------

_CURVE_FILES = {
    "camera": ("camera_red.csv", "camera_green.csv", "camera_blue.csv"),
    "leds": ("led_red.csv", "led_green.csv", "led_blue.csv"),
}


def _write_curve(path: Path, values: np.ndarray) -> None:
    with open(path, "w", newline="") as f:
        f.write("wavelength_nm,value\n")
        for wl, v in zip(WAVELENGTHS, values):
            f.write(f"{float(wl)!r},{float(v)!r}\n")


def write_scene(directory, scene: OracleScene, extra_manifest: dict) -> None:
    """Store a scene as one CSV per curve plus a manifest holding `extra_manifest`'s keys."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, object] = {}
    for group, names in _CURVE_FILES.items():
        curves = getattr(scene, group)
        for i, name in enumerate(names):
            _write_curve(directory / name, curves[i])
        files[group] = list(names)
    _write_curve(directory / "illuminant.csv", scene.illuminant)
    files["illuminant"] = "illuminant.csv"
    refl_names = [f"reflectance_{j:02d}.csv" for j in range(CHART_PATCHES)]
    for name, curve in zip(refl_names, scene.reflectances):
        _write_curve(directory / name, curve)
    files["reflectances"] = refl_names
    manifest = {"files": files, "wavelength_nm": [WAVELENGTHS[0], WAVELENGTHS[-1], DELTA_LAMBDA]}
    manifest.update(extra_manifest)
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
