"""Color calibration toolkit for RGB LED virtual-production stages.

Computes the multi-matrix color pipeline of an LED volume (out-of-frustum
pre-correction M, in-frustum pre-correction N, footage post-correction Q,
panel scale factor beta, and a black-level offset) from four calibration
captures plus a target color chart, and can verify the whole pipeline
against a built-in spectral simulation.

The names below are the ones the README's "Library use" section documents;
everything else is importable from its submodule.
"""

from .calibration import (
    CalibrationBundle,
    GamutCounter,
    build_sl,
    build_srl,
    chart_error,
    clamp_chart,
    predict_lit_chart,
    solve_m,
    solve_n,
    solve_q,
    transform_content,
)
from .geometry import compute_beta, w_avg_from_white
from .imaging import ChartSamples, LinearImage, read_pfm

__version__ = "0.1.0"
