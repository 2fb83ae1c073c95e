"""Output checks for every op; each returns a list of problems, empty when correct.

They run outside the timed region. Reference values come from the fixture
files (read by the benchmark's own PFM/CSV readers), from stagecal's
reference functions ``panel_form_factor_analytic`` and ``brute_force_q``, and
from a per-pixel loop written here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from stagecal.geometry import panel_form_factor_analytic
from stagecal.spectral import brute_force_q

import fixtures

BETA_TOL = 1e-3     # |beta - analytic form factor| at resolution 1024, as the acceptance gate
SLM_TOL = 1e-10     # max |SL M - I|
Q_RTOL = 1e-9       # ||Q - Q_brute|| / ||Q_brute||, when the design matrix is full rank
RANK_RTOL = 1e-6    # full rank: every singular value of the predictions >= RANK_RTOL * largest
PIXEL_TOL = 1e-12   # max |transform - per-pixel reference| on a content sample
LIT_M_Q_TOL = 5e-3  # |lit_m_q chart error, noisy capture - noiseless fixture|, per channel

EXPECTED_SOLVE_EXIT = {"monochromatic": 1}  # N unavailable by design; 0 otherwise


def fixture_op(fixture: Path, scenario: str, oracle_exit: int, solve_exit: int) -> list[str]:
    """Checks on one ``stagecal oracle`` + ``stagecal solve`` of a fixture."""
    expected = EXPECTED_SOLVE_EXIT.get(scenario, 0)
    if oracle_exit != 0:
        return [f"oracle exited {oracle_exit}, expected 0"]
    if solve_exit != expected:
        return [f"solve on {scenario} exited {solve_exit}, expected {expected}"]
    try:
        bundle = json.loads((fixture / "out" / "bundle.json").read_text())
        config = json.loads((fixture / "config.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    beta = bundle["beta"]
    if not 0.0 < beta <= 1.0:
        problems.append(f"beta {beta} outside (0, 1]")
    analytic = panel_form_factor_analytic(config["half_extent"])
    if not abs(beta - analytic) <= BETA_TOL:
        problems.append(f"beta {beta} differs from analytic {analytic} by more than {BETA_TOL}")

    values = fixtures.oracle_values(fixture)
    m, q = np.array(bundle["M"]), np.array(bundle["Q"])
    slm = np.abs(values["sl"] @ m - np.eye(3)).max()
    if not slm <= SLM_TOL:
        problems.append(f"max |SL M - I| = {slm:.3e} > {SLM_TOL}")

    targets = values["targets"]
    w_avg = targets[config["white_index"]] / config["white_reflectance"]
    srl = np.stack([values["charts"][c] for c in fixtures.CHANNELS], axis=2)
    predicted = srl @ (m @ w_avg) / beta
    # The stacked design matrix repeats `predicted` once per output channel.
    s = np.linalg.svd(predicted, compute_uv=False)
    if s[-1] >= RANK_RTOL * s[0]:
        q_ref = brute_force_q(predicted, targets)
        rel = np.linalg.norm(q - q_ref) / np.linalg.norm(q_ref)
        if not rel <= Q_RTOL:
            problems.append(f"Q differs from brute_force_q by {rel:.3e} (relative) > {Q_RTOL}")

    cond_q = np.linalg.cond(q)
    if (bundle["N"] is None) != (cond_q > config["cond_limit_q"]):
        problems.append(f"N is {'null' if bundle['N'] is None else 'set'} with cond(Q) = {cond_q:.3e}")
    return problems


def recurring_bytes(store: dict, key, files: list[Path]) -> list[str]:
    """Outputs of a recurring input must repeat byte for byte."""
    try:
        current = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    except OSError as exc:
        return [f"unreadable output: {exc}"]
    first = store.setdefault(key, current)
    return [
        f"{name} differs from the first run of {key}"
        for name in sorted(set(first) | set(current))
        if first.get(name) != current.get(name)
    ]


def content_sample(mode: str, frame: np.ndarray, out: np.ndarray, bundle, sample) -> list[str]:
    """Compare sampled output pixels with a per-pixel clamp(N p - b), M p or Q p."""
    if out.shape != frame.shape:
        return [f"{mode}: output shape {out.shape}, expected {frame.shape}"]
    matrix = {"out_of_frustum": bundle.m, "post": bundle.q, "in_frustum": bundle.n_effective}[mode]
    rows = matrix.tolist()
    offset = bundle.black_offset.tolist()
    pixels, results = frame.reshape(-1, 3), out.reshape(-1, 3)
    worst = 0.0
    for k in sample:
        p = pixels[k].tolist()
        ref = [row[0] * p[0] + row[1] * p[1] + row[2] * p[2] for row in rows]
        if mode == "in_frustum":
            ref = [min(max(v - b, 0.0), 1.0) for v, b in zip(ref, offset)]
        worst = max(worst, *(abs(a - b) for a, b in zip(ref, results[k].tolist())))
    if not worst <= PIXEL_TOL:
        return [f"{mode}: sampled pixel differs from reference by {worst:.3e} > {PIXEL_TOL}"]
    return []


def gamut_count(counter, reference: int, pixels: int) -> list[str]:
    if counter.total != pixels or counter.out_of_gamut != reference:
        return [f"gamut count {counter.out_of_gamut}/{counter.total}, expected {reference}/{pixels}"]
    return []


def capture_op(exit_code: int, out: Path, store: dict, noiseless: dict) -> list[str]:
    """Checks on one camera-resolution solve: same bytes every time, and
    the lit_m_q chart error close to the noiseless fixture's."""
    if exit_code != 0:
        return [f"solve exited {exit_code}, expected 0"]
    problems = recurring_bytes(store, "capture", sorted(out.iterdir()))
    try:
        errors = json.loads((out / "report.json").read_text())["errors"]["lit_m_q"]
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"unreadable report: {exc}"]
    for channel, ref in noiseless.items():
        if not abs(errors[channel] - ref) <= LIT_M_Q_TOL:
            problems.append(
                f"lit_m_q error {channel} = {errors[channel]:.5f}, noiseless {ref:.5f}, tolerance {LIT_M_Q_TOL}"
            )
    return problems
