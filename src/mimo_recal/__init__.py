"""Simulation library for nonlinear reciprocity mismatch in TDD massive MIMO.

Closed-form SINDR/rate analysis under Bussgang-linearised amplifier
nonlinearity, Monte-Carlo cross-checks, and an over-the-air multi-power
calibration pipeline (polynomial mismatch fitting + SLP max-min coefficient
solver).  See the README for the CLI and the acceptance suite.
"""

from .numerics import (
    MismatchDistribution,
    bussgang_lambda,
    bussgang_mu,
    draw_complex_gain,
    sinc,
)
from .hardware import (
    BussgangPair,
    HardwareMismatch,
    HpaModel,
    SystemHardware,
    a_sat_for_ibo,
    bussgang_decompose,
    draw_system_hardware,
    sspa_apply,
)
from .channel import draw_channels, draw_ue_pathloss
from .precoding import beta_zf_closed, transmit_block
from .analysis import (
    RateDecomposition,
    SindrBreakdown,
    avg_rate_decomposition,
    estimate_sindr_mc,
    rate_from_sindr,
    sindr_large_ibo,
    sindr_zf_closed_all,
    sinr_linear_mismatch,
)
from .calibration import (
    CALIBRATION_METHODS,
    CalibrationError,
    CalibrationResult,
    PilotPlan,
    PolyMismatch,
    TrainingSet,
    TrueMismatch,
    calibrate,
    calibration_phases,
    calibration_stack,
    draw_inter_antenna_channel,
    estimate_poly_coeffs_anchored,
    linear_calibration,
    measured_level_shapes,
    psi_vector,
    simulate_ota_training,
    slp_solve,
)

__version__ = "0.1.0"
