"""Workload inputs and per-operation correctness gates.

A workload is a list of steps; each step is one ``adiatherm`` CLI call
(argv without ``--out``) plus the operations it is expected to perform.
Inputs come only from the seed: the program sees nothing but the
generated command lines.  This module needs only the standard library, so
the runner can describe workloads without importing the package.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field

# Gate tolerances: the acceptance tolerances of the routes each step runs.
REL_ERR_DELTA_V_TOL = {"tfic": 1e-9, "qxyc": 1e-9, "mfic": 1e-8}
REL_ERR_CHI_F_TOL = 1e-8
BOUND_TOL = 1e-9  # AC06 (theta <= R, |F - C| <= g, g <= sin R) and AC07 drifts

BETA_RANGE = (0.1, 3.0)
B_RANGE = (0.3, 1.3)
DYNAMICS_LAMBDA_MAX = 0.2
DYNAMICS_RECORDS = 200
# (kind, N, beta, gamma, B).  Fixed: the number of step halvings depends
# steeply on (beta, Gamma), so a seeded grid would make run time a lottery.
# N=5 keeps one pass near 3 s, so a 35 s run holds about ten passes.
DYNAMICS_GRID = (
    ("tfic", 5, 0.5, 0.5, None),
    ("qxyc", 5, 0.5, 0.5, None),
    ("mfic", 5, 0.5, 0.5, 0.7),
    ("tfic", 5, 5.0, 2.0, None),
)
GRID_KINDS = ("tfic", "qxyc", "mfic")
GRID_SITES = range(4, 9)
GRID_BETAS = 24
THRESHOLD_N10_BETAS = 1  # one 7 s pass, so a 35 s run holds four or five passes
# AC06 and AC07 are the 235 s bound suite; `dynamics` is their scaled twin.
GRID_CRITERIA = tuple(f"AC{i:02d}" for i in range(1, 14) if i not in (6, 7))
EXPECTED_FAILING_CRITERIA = frozenset({"AC10"})  # strict xfail in the test suite

WORKLOADS = ("threshold-n10", "dynamics", "grid-small")


@dataclass(frozen=True)
class Step:
    """One CLI call; ``ops`` is the number of operations it performs."""

    command: str
    argv: tuple
    ops: int
    params: dict = field(default_factory=dict)

    def cli_args(self, out_path):
        return [self.command, *self.argv, "--out", str(out_path)]


def _grid(values):
    return ",".join(repr(float(x)) for x in values)


def _beta_grid(rng, count):
    lo, hi = (math.log(x) for x in BETA_RANGE)
    return sorted(math.exp(rng.uniform(lo, hi)) for _ in range(count))


def threshold_step(kind, n_sites, betas, b=None):
    argv = ["--model", kind, "--n-sites", str(n_sites), "--beta", _grid(betas), "--jobs", "1"]
    if b is not None:
        argv += ["--B", repr(float(b))]
    return Step("threshold", tuple(argv), len(betas), {"kind": kind, "betas": tuple(betas)})


def dynamics_step(kind, n_sites, beta, gamma, b=None, lambda_max=DYNAMICS_LAMBDA_MAX,
                  n_records=DYNAMICS_RECORDS):
    argv = [
        "--model", kind, "--n-sites", str(n_sites), "--beta", repr(float(beta)),
        "--gamma", repr(float(gamma)), "--lambda-max", repr(float(lambda_max)),
        "--n-records", str(n_records), "--jobs", "1",
    ]
    if b is not None:
        argv += ["--B", repr(float(b))]
    return Step("dynamics", tuple(argv), 1, {"n_records": n_records})


def verify_step(criteria):
    return Step("verify", ("--criteria", ",".join(criteria)), len(criteria),
                {"criteria": tuple(criteria)})


def make_steps(workload, seed):
    """The workload body: every step, generated from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "threshold-n10":
        b = rng.uniform(*B_RANGE)
        return [
            threshold_step("tfic", 10, _beta_grid(rng, THRESHOLD_N10_BETAS)),
            threshold_step("mfic", 10, _beta_grid(rng, THRESHOLD_N10_BETAS), b),
        ]
    if workload == "dynamics":
        return [dynamics_step(*point) for point in DYNAMICS_GRID]
    if workload == "grid-small":
        b = rng.uniform(*B_RANGE)
        betas = _beta_grid(rng, GRID_BETAS)
        steps = [
            threshold_step(kind, n, betas, b if kind == "mfic" else None)
            for kind in GRID_KINDS
            for n in GRID_SITES
        ]
        return steps + [verify_step(GRID_CRITERIA)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_step(workload):
    """The workload's smallest input: same subcommand, N=4, one operation."""
    if workload == "dynamics":
        return dynamics_step("tfic", 4, 0.5, 0.5, lambda_max=0.02, n_records=20)
    return threshold_step("tfic", 4, [1.0])


# -- correctness gates --------------------------------------------------------


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return (rows[0], rows[1:]) if rows else ([], [])


def _float(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_threshold(step, path, columns):
    """Failures among the step's rows (every row fails on a bad file)."""
    header, rows = _read_csv(path)
    if header != list(columns) or len(rows) != step.ops:
        return [f"threshold {step.argv}: header or row count differs"] * step.ops
    col = {name: i for i, name in enumerate(header)}
    dv_tol = REL_ERR_DELTA_V_TOL[step.params["kind"]]
    failures = []
    for row, beta in zip(rows, step.params["betas"]):
        rel_dv = _float(row[col["rel_err_delta_v"]])
        rel_chi = _float(row[col["rel_err_chi_f"]])
        if _float(row[col["beta"]]) != beta:
            failures.append(f"beta {row[col['beta']]} != {beta!r}")
        elif not rel_dv <= dv_tol or not rel_chi <= REL_ERR_CHI_F_TOL:
            failures.append(f"{step.params['kind']} beta={beta!r}: rel_err {rel_dv}, {rel_chi}")
        elif beta > 0 and row[col["reason"]]:
            failures.append(f"{step.params['kind']} beta={beta!r}: reason {row[col['reason']]!r}")
    return failures


def bound_trace_excess(trace):
    """Worst margin of each AC06/AC07 check on one returned BoundTrace."""
    import numpy as np

    return {
        "theta<=R": float(np.max(trace.hs_angle - trace.qsl_radius)),
        "|F-C|<=g": float(
            np.max(np.abs(trace.adiabatic_fidelity - trace.thermal_overlap) - trace.bound_strong)
        ),
        "g<=sinR": float(np.max(trace.bound_strong - trace.bound_weak)),
        "purity": float(np.max(np.abs(trace.purity - trace.purity[0]))),
        "trace": float(np.max(trace.trace_defect)),
    }


def check_dynamics(step, path, columns, trace):
    header, rows = _read_csv(path)
    if header != list(columns) or len(rows) != step.params["n_records"]:
        return [f"dynamics {step.argv}: header or record count differs"]
    if trace is None:
        return [f"dynamics {step.argv}: no BoundTrace returned"]
    bad = {k: v for k, v in bound_trace_excess(trace).items() if not v <= BOUND_TOL}
    return [f"dynamics {step.argv}: {bad}"] if bad else []


def check_verify(step, path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    passed = {c["id"]: c["passed"] for c in report["criteria"]}
    failures = []
    for cid in step.params["criteria"]:
        expected = cid not in EXPECTED_FAILING_CRITERIA
        if passed.get(cid) is not expected:
            failures.append(f"{cid}: passed={passed.get(cid)}, expected {expected}")
    return failures


def gate_tolerances():
    return {
        "rel_err_delta_v": REL_ERR_DELTA_V_TOL,
        "rel_err_chi_f": REL_ERR_CHI_F_TOL,
        "bound_and_conservation": BOUND_TOL,
        "expected_failing_criteria": sorted(EXPECTED_FAILING_CRITERIA),
    }
