"""Finite-temperature adiabaticity diagnostics for driven spin-1/2 chains.

Two independent routes to the same physics: exact enumeration or dense
diagonalization of the 2**N Hilbert space, and closed-form 2x2
transfer-matrix expressions for the drive fluctuation deltaV, the fidelity
susceptibility chi_F, and the threshold driving rate.  The package
cross-checks the two routes to machine precision and exercises the
mixed-state quantum-speed-limit fidelity bounds along unitary thermal-state
evolution.
"""

__version__ = "0.1.0"

from .dynamics import BoundTrace, evolve
from .models import SpinChainModel, build_h0, build_v, flip_terms
from .operators import DensityMatrix, HermitianOperator, SpectralDecomposition, eigh
from .qsl import bound_strong, bound_weak, qsl_radius_constant_rate
from .susceptibility import (
    LowTempCoefficients,
    ThresholdReport,
    chi_f_thermal,
    dense_sums,
    flip_sums,
    high_temp_coefficient,
    low_temp_coefficients,
    threshold_report,
)
from .thermal import escort_state, gibbs_state, quasi_gibbs_at, thermal_overlap

__all__ = [
    "BoundTrace",
    "DensityMatrix",
    "HermitianOperator",
    "LowTempCoefficients",
    "SpectralDecomposition",
    "SpinChainModel",
    "ThresholdReport",
    "bound_strong",
    "bound_weak",
    "build_h0",
    "build_v",
    "chi_f_thermal",
    "dense_sums",
    "eigh",
    "escort_state",
    "evolve",
    "flip_sums",
    "flip_terms",
    "gibbs_state",
    "high_temp_coefficient",
    "low_temp_coefficients",
    "qsl_radius_constant_rate",
    "quasi_gibbs_at",
    "thermal_overlap",
    "threshold_report",
]
