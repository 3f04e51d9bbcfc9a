"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure).  AC10 is a strict expected failure: its mixed-field deltaV
sub-check pins a 1e-3 tolerance at beta J = 0.01, but the first-order
high-temperature law carries an O(beta) correction with coefficient ~0.79
at B = 0.7 J, so the measured deviation is ~7.9e-3 by exact arithmetic.
The law itself is verified by convergence order in
test_susceptibility.TestHighTempCoefficient.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from adiatherm import acceptance
from adiatherm import closed_forms as cf


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


def test_criterion_13_matches_an_mpmath_reference():
    # an independent 50-digit route: mpmath's tanh, coth, sqrt and e (the test extra)
    import mpmath as mp

    n, beta = 6, 3.0
    with mp.workdps(50):
        t = mp.tanh(2 * mp.mpf(beta))
        f_hp = mp.coth(2 * mp.mpf(beta)) * mp.sqrt((1 + t**n) / (1 + t ** (n - 2)))
        q = mp.e ** (-4 * mp.mpf(beta))
        series = 1 + q + (n - mp.mpf(1) / 2) * q**2 + (n - mp.mpf(1) / 2) * q**3
        diff, tol = abs(f_hp - series), 10 * n**3 * q**4
        impl_rel = abs(mp.mpf(cf.f_n_tfic(n, beta, 1.0)) / f_hp - 1)
    remainder, impl = acceptance.criterion_13().checks
    assert (remainder.measured.hex(), remainder.tolerance.hex()) == (
        float(diff).hex(),
        float(tol).hex(),
    )
    assert impl.measured.hex() == float(impl_rel).hex()
    assert (remainder.ok, impl.ok) == (diff <= tol, impl_rel <= 1e-13)


def test_run_all_loads_no_mpmath():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # AC06 and AC07 import nothing the others do not, and take most of the time
    ids = [cid for cid in acceptance.ALL_CRITERIA if cid not in ("AC06", "AC07")]
    code = (
        "import sys; from adiatherm import acceptance; "
        f"acceptance.run_all({ids!r}); print('mpmath' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


SYNTHETIC_RESULT = acceptance.CriterionResult(
    "AC99",
    "synthetic",
    False,
    0.25,
    [
        acceptance.Check("nan", math.nan, 1.0),
        acceptance.Check("zero tolerance", 0.5, 0.0),
        acceptance.Check("explicit", -1.0, 1.0, False),
        acceptance.Check("runtime_s", 0.25, 30.0, True),
    ],
)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(acceptance.criterion_04, id="AC04"),
        pytest.param(acceptance.criterion_13, id="AC13"),
        pytest.param(lambda: SYNTHETIC_RESULT, id="synthetic"),
        pytest.param(lambda: acceptance.CriterionResult("AC98", "no checks", True, 0.0), id="empty"),
    ],
)
def test_as_dict_equals_dataclasses_asdict(make):
    result = make()
    # the same keys in the same order, and nan != nan, so compare the JSON text
    assert json.dumps(result.as_dict()) == json.dumps(dataclasses.asdict(result))
