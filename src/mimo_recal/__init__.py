"""Simulation library for nonlinear reciprocity mismatch in TDD massive MIMO.

Closed-form SINDR/rate analysis under Bussgang-linearised amplifier
nonlinearity, Monte-Carlo cross-checks, and an over-the-air multi-power
calibration pipeline (polynomial mismatch fitting + SLP max-min coefficient
solver).  See the README for the CLI and the acceptance suite.
"""

from .numerics import *
from .hardware import *
from .analysis import *
from .calibration import *

__version__ = "0.1.0"
