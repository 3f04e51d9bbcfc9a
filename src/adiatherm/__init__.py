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

from .dynamics import BoundTrace, MeanFreePath, adiabatic_mean_free_path, evolve
from .models import SpinChainModel, build_h0, build_v, flip_terms, hamiltonian_at
from .operators import (
    DensityMatrix,
    HermitianOperator,
    SpectralDecomposition,
    build_pauli_string,
    commutator_hs_norm,
    eigh,
    hs_angle,
    hs_fidelity,
)
from .qsl import (
    QslRadius,
    bound_strong,
    bound_weak,
    delta_v,
    qsl_radius_constant_rate,
    qsl_radius_general,
    wy_skew_info,
)
from .susceptibility import (
    LowTempCoefficients,
    ThresholdReport,
    chi_f_ground,
    chi_f_thermal,
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
    "MeanFreePath",
    "QslRadius",
    "SpectralDecomposition",
    "SpinChainModel",
    "ThresholdReport",
    "adiabatic_mean_free_path",
    "bound_strong",
    "bound_weak",
    "build_h0",
    "build_pauli_string",
    "build_v",
    "chi_f_ground",
    "chi_f_thermal",
    "commutator_hs_norm",
    "delta_v",
    "eigh",
    "escort_state",
    "evolve",
    "flip_sums",
    "flip_terms",
    "gibbs_state",
    "hamiltonian_at",
    "high_temp_coefficient",
    "hs_angle",
    "hs_fidelity",
    "low_temp_coefficients",
    "qsl_radius_constant_rate",
    "qsl_radius_general",
    "quasi_gibbs_at",
    "thermal_overlap",
    "threshold_report",
    "wy_skew_info",
]
