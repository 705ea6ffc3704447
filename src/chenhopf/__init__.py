"""Zero-Hopf bifurcation analysis of the hyperchaotic Chen system.

Closed-form first-order averaging cross-checked by quadrature, and direct
numerical certification of the two bifurcating periodic orbits by Newton
shooting with Floquet analysis.
"""

__version__ = "0.1.0"

from .chen import (
    ChenParams,
    ConditionReport,
    RegimeConfig,
    RegimeError,
    canonical_config,
    check_zero_hopf_conditions,
    random_admissible_config,
)
from .averaging import AveragedZero, StabilityVerdict
from .integrators import IntegrationError, Trajectory
from .numerics import NewtonReport, QuarticSpectrum
from .orbits import BranchRow, BranchStudy, PeriodicOrbit, ShootingError

__all__ = [
    "__version__",
    "ChenParams",
    "ConditionReport",
    "RegimeConfig",
    "RegimeError",
    "canonical_config",
    "check_zero_hopf_conditions",
    "random_admissible_config",
    "AveragedZero",
    "StabilityVerdict",
    "IntegrationError",
    "Trajectory",
    "NewtonReport",
    "QuarticSpectrum",
    "BranchRow",
    "BranchStudy",
    "PeriodicOrbit",
    "ShootingError",
]
