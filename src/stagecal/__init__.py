"""Color calibration toolkit for RGB LED virtual-production stages.

Computes the multi-matrix color pipeline of an LED volume (out-of-frustum
pre-correction M, in-frustum pre-correction N, footage post-correction Q,
panel scale factor beta, and a black-level offset) from four calibration
captures plus a target color chart, and can verify the whole pipeline
against a built-in spectral simulation.
"""

from .calibration import (
    CalibrationBundle,
    CalibrationError,
    DegenerateLightingError,
    GamutCounter,
    IllConditionedError,
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
from .geometry import (
    FRONTAL,
    EnvMap,
    build_panel_env,
    compute_beta,
    diffuse_convolve,
    panel_form_factor_analytic,
    w_avg_from_env,
    w_avg_from_white,
)
from .imaging import (
    ChartGridSpec,
    ChartSamples,
    LinearImage,
    encode_transfer,
    extract_chart,
    normalize_green_white,
    read_chart_csv,
    read_pfm,
    render_comparison_chart,
    write_chart_csv,
    write_pfm,
    write_png16,
)
from .spectral import (
    OracleScene,
    brute_force_q,
    integrate_response,
    make_gaussian_band,
    make_scene,
    oracle_calibration,
)

__version__ = "0.1.0"
