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
    erfc,
    erfcx,
    exp_integral_ei,
    exp_integral_ei_scaled,
)
from .hardware import (
    BussgangPair,
    HardwareMismatch,
    HpaModel,
    SystemHardware,
    a_sat_for_ibo,
    bussgang_decompose,
    draw_system_hardware,
    ibo_db,
    sigma_from_ibo,
    sspa_apply,
)
from .channel import CellGeometry, ChannelRealization, draw_channel, draw_ue_pathloss, uplink_channel
from .precoding import (
    DownlinkOutcome,
    Precoder,
    apply_calibration,
    beta_zf_closed,
    beta_zf_empirical,
    transmit_downlink,
    zf_precoder,
)
from .analysis import (
    RateDecomposition,
    SindrBreakdown,
    avg_rate_decomposition,
    estimate_sindr_mc,
    rate_from_sindr,
    sindr_large_ibo,
    sindr_zf_closed,
    sindr_zf_closed_all,
    sinr_linear_mismatch,
)
from .calibration import (
    CalibrationError,
    CalibrationResult,
    PilotPlan,
    PolyMismatch,
    TrainingSet,
    TrueMismatch,
    assemble_psi_matrix,
    calibrate,
    calibration_phases,
    draw_inter_antenna_channel,
    estimate_poly_coeffs,
    estimate_poly_coeffs_anchored,
    estimate_poly_coeffs_from_records,
    linear_calibration,
    measured_level_shapes,
    orth_poly_psi,
    psi_vector,
    simulate_ota_training,
    slp_solve,
    training_overhead,
)

__version__ = "0.1.0"
