"""Command-line front end: spectrum | threshold | dynamics | verify.

Every run option is declared once, in OPTIONS: its config key, its
RunConfig attribute, its flag, its parser, its default and its help.  The
config file (flat key=value lines with dotted sections, e.g.
``model.kind = tfic``), the flags that override it and the config echo in
every output all read that table.  All outputs are deterministic
(17-significant-digit floats, fixed row order), so CSV files diff cleanly
across runs and serve as regression baselines.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import closed_forms as cf
from .acceptance import ALL_CRITERIA, run_all
from .dynamics import evolve
from .models import SpinChainModel, build_h0, build_v, require_finite
from .operators import HermitianOperator, eigh
from .susceptibility import threshold_report

UNITS_NOTE = "energies in units of J; beta in 1/J; lambda and f_N dimensionless"
UNDEFINED_AT_BETA_ZERO = "undefined at infinite temperature"

THRESHOLD_COLUMNS = [
    "beta",
    "delta_v_ed",
    "delta_v_closed",
    "chi_f_ed",
    "chi_f_closed",
    "gamma_th",
    "gamma_n",
    "f_n_ed",
    "f_n_closed",
    "f_inf",
    "rel_err_delta_v",
    "rel_err_chi_f",
    "reason",
]
DYNAMICS_COLUMNS = ["lambda", "F", "C", "R", "theta", "bound_weak", "bound_strong", "purity"]
SPECTRUM_COLUMNS = ["lambda", "index", "energy"]


def parse_grid(text):
    """Parse 'a,b,c', 'start:stop:count' (linear) or 'start:stop:count:log'."""
    text = str(text).strip()
    if not text:
        return []
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) == 4 and parts[3] == "log":
            return [float(x) for x in np.geomspace(float(parts[0]), float(parts[1]), int(parts[2]))]
        if len(parts) == 3:
            return [float(x) for x in np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))]
        raise ValueError(f"bad grid spec {text!r}; want start:stop:count[:log]")
    return [float(tok) for tok in text.split(",") if tok.strip()]


@dataclass(frozen=True)
class Option:
    """One run option: config key, RunConfig attribute, flag, parser, default, help.

    The default is config-file text, parsed like any other value; None
    leaves the attribute unset.
    """

    key: str
    attr: str
    flag: str
    parse: Callable
    default: str | None
    help: str
    choices: tuple | None = None


OPTIONS = (
    Option("model.kind", "kind", "--model", str, "tfic", "tfic | qxyc | mfic"),
    Option("model.n_sites", "n_sites", "--n-sites", int, "6", "ring size N"),
    Option("model.J", "J", "--J", float, "1.0", "Ising coupling J > 0, the energy unit"),
    Option("model.B", "B", "--B", float, None, "longitudinal field of mfic"),
    Option("sweep.beta_grid", "beta_grid", "--beta", parse_grid, "1.0",
           "beta grid: list or start:stop:count[:log]"),
    Option("sweep.gamma_grid", "gamma_grid", "--gamma", parse_grid, "2.0",
           "drive-rate grid, same syntax as --beta"),
    Option("sweep.lambda_grid", "lambda_grid", "--lambda-grid", parse_grid, "",
           "lambda values for the spectrum command"),
    Option("sweep.lambda_max", "lambda_max", "--lambda-max", float, "0.12",
           "end of the dynamics ramp"),
    Option("sweep.n_records", "n_records", "--n-records", int, "60",
           "records along the dynamics ramp"),
    Option("alpha", "alpha", "--alpha", float, "1.0", "threshold prefactor alpha > 0"),
    Option("output.path", "out", "--out", str, None, "output file"),
    Option("output.format", "fmt", "--format", str, "csv", "csv | json", ("csv", "json")),
    Option("jobs", "jobs", "--jobs", int, "1", "worker processes for threshold rows"),
)
_BY_KEY = {opt.key.lower(): opt for opt in OPTIONS}


class RunConfig:
    """The settings of one run: one attribute per OPTIONS entry."""

    def __init__(self):
        for opt in OPTIONS:
            setattr(self, opt.attr, None if opt.default is None else opt.parse(opt.default))

    def model(self) -> SpinChainModel:
        return SpinChainModel(self.kind, self.n_sites, self.J, self.B)

    def echo_items(self):
        """(key, value) pairs of the config echo, sorted by key.

        Grids are joined with commas, and an unset value is "" in the CSV
        and the JSON echo alike.
        """
        items = []
        for opt in OPTIONS:
            if opt.key == "output.path":  # a table does not depend on where it is written
                continue
            value = getattr(self, opt.attr)
            if isinstance(value, list):
                value = ",".join(_fmt(x) for x in value)
            items.append((opt.key, "" if value is None else value))
        return sorted(items)


def load_config(path) -> RunConfig:
    """RunConfig from a key = value file; keys are case-insensitive.

    'none' unsets a key whose default is unset (model.B, output.path) and
    is an error for any other key.
    """
    cfg = RunConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key not in _BY_KEY:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            opt = _BY_KEY[key]
            if value.lower() != "none":
                setattr(cfg, opt.attr, opt.parse(value))
            elif opt.default is None:
                setattr(cfg, opt.attr, None)
            else:
                raise ValueError(f"{path}:{lineno}: {opt.key} cannot be none")
    return cfg


def _fmt(x):
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def _meta_lines(config: RunConfig):
    lines = [f"# adiatherm {__version__}", f"# units: {UNITS_NOTE}"]
    lines += [f"# config: {k} = {_fmt(v)}" for k, v in config.echo_items()]
    return lines


def write_table(path, config, columns, rows, fmt):
    if fmt == "csv":
        text = "\n".join(
            _meta_lines(config)
            + [",".join(columns)]
            + [",".join(_fmt(cell) for cell in row) for row in rows]
        )
        payload = text + "\n"
    elif fmt == "json":
        cols = {name: [] for name in columns}
        for row in rows:
            for name, cell in zip(columns, row):
                cols[name].append(None if (isinstance(cell, float) and math.isnan(cell)) else cell)
        payload = json.dumps(
            {
                "tool": "adiatherm",
                "version": __version__,
                "units": UNITS_NOTE,
                "config": dict(config.echo_items()),
                "columns": cols,
            },
            indent=2,
            sort_keys=True,
        ) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc


def cmd_spectrum(config: RunConfig) -> int:
    model = config.model()
    h0, v = build_h0(model).mat, build_v(model).mat
    rows = []
    for lam in [0.0] + list(config.lambda_grid):
        require_finite("lambda", lam)
        # 0.0 * V adds only signed zeros, so lambda = 0 gives H0 exactly
        h = HermitianOperator(model.n_sites, h0 + lam * v)
        for idx, energy in enumerate(eigh(h).eigenvalues):
            rows.append((lam, idx, energy))
    write_table(config.out or "spectrum.csv", config, SPECTRUM_COLUMNS, rows, config.fmt)
    return 0


def _threshold_row(payload):
    kind, n_sites, j, b, beta, alpha = payload
    model = SpinChainModel(kind, n_sites, j, b)
    report = threshold_report(model, beta, alpha)
    closed = {"delta": math.nan, "chi": math.nan, "f_n": math.nan, "f_inf": math.nan}
    reason = ""
    try:
        if kind in ("tfic", "qxyc"):
            closed["delta"] = cf.delta_v_tfic_closed(n_sites, beta, j)
            closed["chi"] = cf.chi_f_tfic_closed(n_sites, beta, j)
            if beta > 0:
                closed["f_n"] = cf.f_n_tfic(n_sites, beta, j)
                closed["f_inf"] = 1.0 / math.tanh(2.0 * beta * j)
        else:
            closed["delta"] = cf.delta_v_mfic_closed(n_sites, beta, j, b)
            closed["chi"] = cf.chi_f_mfic_closed(n_sites, beta, j, b)
            if beta > 0:
                closed["f_n"] = cf.f_mfic(n_sites, beta, j, b)
                closed["f_inf"] = cf.f_mfic(None, beta, j, b)
    except ValueError as exc:
        reason = str(exc)
    if report.undefined_at_infinite_temperature:
        reason = UNDEFINED_AT_BETA_ZERO
    rel_dv = rel_chi = math.nan
    if beta > 0 and not math.isnan(closed["delta"]) and closed["delta"] > 0:
        rel_dv = abs(report.delta_v / closed["delta"] - 1.0)
        rel_chi = abs(report.chi_f / closed["chi"] - 1.0)
    return (
        beta,
        report.delta_v,
        closed["delta"],
        report.chi_f,
        closed["chi"],
        report.gamma_th,
        report.gamma_n,
        report.f_n,
        closed["f_n"],
        closed["f_inf"],
        rel_dv,
        rel_chi,
        reason,
    )


def cmd_threshold(config: RunConfig) -> int:
    model = config.model()  # validates the model block up front
    if config.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {config.jobs}")
    payloads = [
        (model.kind, model.n_sites, model.J, model.B, beta, config.alpha)
        for beta in config.beta_grid
    ]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_threshold_row, payloads))
    else:
        rows = [_threshold_row(p) for p in payloads]
    write_table(config.out or "threshold.csv", config, THRESHOLD_COLUMNS, rows, config.fmt)
    return 0


def _dynamics_paths(base, combos):
    """Output path of each (beta, gamma) point; two points may not share one."""
    if len(combos) == 1:
        return [base]
    stem, dot, ext = base.rpartition(".")
    stem = stem if dot else base
    ext = ext if dot else "csv"
    owner = {}
    for beta, gamma in combos:
        path = f"{stem}_beta{beta:g}_gamma{gamma:g}.{ext}"
        if path in owner:
            raise ValueError(
                f"grid points (beta={owner[path][0]}, gamma={owner[path][1]}) and "
                f"(beta={beta}, gamma={gamma}) would both write {path}"
            )
        owner[path] = (beta, gamma)
    return list(owner)


def cmd_dynamics(config: RunConfig) -> int:
    model = config.model()
    combos = [(beta, gamma) for beta in config.beta_grid for gamma in config.gamma_grid]
    paths = _dynamics_paths(config.out or "dynamics.csv", combos)
    for (beta, gamma), path in zip(combos, paths):
        trace = evolve(model, beta, gamma, config.lambda_max, config.n_records)
        write_table(path, config, DYNAMICS_COLUMNS, list(trace.rows()), config.fmt)
    return 0


def cmd_verify(config: RunConfig, criteria=None) -> int:
    config_ok, config_error = True, None
    try:
        config.model()
    except ValueError as exc:
        config_ok, config_error = False, str(exc)
    print(f"config: {'PASS' if config_ok else 'FAIL'}" + (f" — {config_error}" if config_error else ""))
    results = run_all(criteria)
    for res in results:
        worst = max((c.measured / c.tolerance if c.tolerance else 0.0) for c in res.checks)
        print(
            f"{res.id}: {'PASS' if res.passed else 'FAIL'} — {res.label} "
            f"({len(res.checks)} checks, worst margin {worst:.3g}, {res.elapsed_s:.1f}s)"
        )
    passed = config_ok and all(r.passed for r in results)
    report = {
        "tool": "adiatherm",
        "version": __version__,
        "config_ok": config_ok,
        "config_error": config_error,
        "criteria": [r.as_dict() for r in results],
        "passed": passed,
    }
    out = config.out or "verify_report.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(("PASS" if passed else "FAIL") + f" — report written to {out}")
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adiatherm",
        description="Finite-temperature adiabaticity diagnostics for driven spin-1/2 chains",
    )
    parser.add_argument("--version", action="version", version=f"adiatherm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    for opt in OPTIONS:
        # grids stay text here, so a bad spec reports parse_grid's own message
        common.add_argument(
            opt.flag,
            dest=opt.attr,
            type=None if opt.parse is parse_grid else opt.parse,
            choices=opt.choices,
            help=f"{opt.help} (config key {opt.key})",
        )
    for name, help_text in (
        ("spectrum", "eigenvalues of H0 and H_lambda at requested lambda values"),
        ("threshold", "deltaV, chi_F, Gamma_th and f_N per beta, ED and closed-form routes"),
        ("dynamics", "evolve the Gibbs state and record the fidelity-bound trace"),
        ("verify", "run the acceptance suite and write a JSON report"),
    ):
        sp = sub.add_parser(name, parents=[common], help=help_text)
        if name == "verify":
            sp.add_argument(
                "--criteria",
                help=f"comma-separated subset of {','.join(sorted(ALL_CRITERIA))}",
            )
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for opt in OPTIONS:
        value = getattr(args, opt.attr)
        if value is not None:  # argparse parsed all but the grids; a second parse is a no-op
            setattr(cfg, opt.attr, opt.parse(value))
    if not cfg.beta_grid or not cfg.gamma_grid:
        raise ValueError("beta and gamma grids must be non-empty")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "threshold":
            return cmd_threshold(cfg)
        if args.command == "dynamics":
            return cmd_dynamics(cfg)
        criteria = args.criteria.split(",") if getattr(args, "criteria", None) else None
        return cmd_verify(cfg, criteria)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
