import adiatherm

PUBLIC_API = [
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


def test_public_names_are_pinned():
    # a change to the public API shows up as a change to this list
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert adiatherm.__all__ == PUBLIC_API


def test_every_public_name_resolves():
    for name in adiatherm.__all__:
        assert getattr(adiatherm, name) is not None, name
