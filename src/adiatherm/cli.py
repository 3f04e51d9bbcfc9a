"""Command-line front end: spectrum | threshold | dynamics | verify.

Every run option is declared once, in OPTIONS: its config key, its
RunConfig attribute, its flag, its parser, its default and its help.  The
config file (flat key=value lines with dotted sections, e.g.
``model.kind = tfic``), the flags that override it and the config echo in
every output all read that table.  One parser takes the command and every
flag, and one function (_set) parses and checks every option value, from a
flag or a config line alike.  All outputs are deterministic
(17-significant-digit floats, fixed row order), so CSV files diff cleanly
across runs and serve as regression baselines.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import closed_forms as cf
from .acceptance import ALL_CRITERIA, run_all
from .dynamics import evolve, require_evolve_args
from .models import SpinChainModel, require_finite, symmetry_sectors
from .susceptibility import threshold_sweep
from .thermal import BlockEigensolver

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
        if len(parts) not in (3, 4) or parts[3:] not in ([], ["log"]):
            raise ValueError(f"bad grid spec {text!r}; want start:stop:count[:log]")
        try:
            count = int(parts[2])
        except ValueError:
            raise ValueError(f"grid count must be an integer, got {parts[2]!r}") from None
        space = np.geomspace if parts[3:] else np.linspace
        return [float(x) for x in space(float(parts[0]), float(parts[1]), count)]
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
    Option("model.kind", "kind", "--model", str.lower, "tfic", "tfic | qxyc | mfic"),
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


def _set(cfg: RunConfig, opt: Option, text, where):
    """Parse text, check opt's choices, set it; errors name where (flag or file:line: key)."""
    try:
        value = opt.parse(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{where} must be one of {', '.join(opt.choices)}, got {text!r}")
    setattr(cfg, opt.attr, value)


def load_config(path) -> RunConfig:
    """RunConfig from a key = value file; keys are case-insensitive.

    'none' unsets a key whose default is unset (model.B, output.path) and
    is an error for any other key.  Every other value goes through _set, as
    a flag's does; every error names the file, the line and the key.
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
            where = f"{path}:{lineno}: {opt.key}"
            if value.lower() != "none":
                _set(cfg, opt, value, where)
            elif opt.default is None:
                setattr(cfg, opt.attr, None)
            else:
                raise ValueError(f"{where} cannot be none")
    return cfg


def _fmt(x):
    if type(x) is float:  # every dynamics cell
        return "" if math.isnan(x) else format(x, ".17g")
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


def write_table(path, config, columns, rows, fmt, counters=None):
    """Write rows under the config echo as csv or json.

    counters (name -> int) are the run's deterministic counters: "# counter:"
    lines after the config echo of a CSV, and a "counters" object in JSON.
    """
    counters = counters or {}
    if fmt == "csv":
        text = "\n".join(
            _meta_lines(config)
            + [f"# counter: {name} = {value}" for name, value in counters.items()]
            + [",".join(columns)]
            + [",".join(_fmt(cell) for cell in row) for row in rows]
        )
        payload = text + "\n"
    elif fmt == "json":
        cols = {name: [row[i] for row in rows] for i, name in enumerate(columns)}
        payload = _json_text(
            {
                "tool": "adiatherm",
                "version": __version__,
                "units": UNITS_NOTE,
                "config": dict(config.echo_items()),
                **({"counters": counters} if counters else {}),
                "columns": cols,
            }
        )
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    _write_text(path, payload)


def _json_text(obj):
    """obj as indented, key-sorted JSON text, with every nan or +-inf float as null."""

    def strict(x):
        if isinstance(x, float):
            return x if math.isfinite(x) else None
        if isinstance(x, dict):
            return {key: strict(value) for key, value in x.items()}
        if isinstance(x, (list, tuple)):
            return [strict(value) for value in x]
        return x

    return json.dumps(strict(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_text(path, payload):
    """Write payload to path, naming the path in the error when that fails."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    except OSError as exc:
        raise OSError(f"cannot write output file {path}: {exc}") from exc


def cmd_spectrum(config: RunConfig) -> int:
    model = config.model()
    lambdas = [0.0] + list(config.lambda_grid)
    for lam in lambdas:
        require_finite("lambda", lam)
    rows = []
    # 0.0 * V adds only signed zeros to the diagonal sector blocks of H0, so
    # lambda = 0 gives H0's classical energies exactly; the stable sort keeps
    # equal energies (0 and -0 too) in the solver's block order; a partner's
    # eigenvalues are repeated for its reflection twin
    sectors = symmetry_sectors(model)
    solver = BlockEigensolver(sectors.blocks, sectors.multiplicity)
    values = np.concatenate([pairs.values for pairs in solver.eigenpairs(lambdas)])
    spectra = np.repeat(values, solver.multiplicity, axis=1)
    for lam, energies in zip(lambdas, spectra):
        for idx, energy in enumerate(np.sort(energies, kind="stable")):
            rows.append((lam, idx, energy))
    write_table(config.out or "spectrum.csv", config, SPECTRUM_COLUMNS, rows, config.fmt)
    return 0


def _closed_forms(model: SpinChainModel, beta, undefined):
    """The closed-form deltaV, chi_F, f_N and f of a threshold row at beta;
    f_N and f stay nan on a row that threshold_sweep flags undefined.

    An mfic row takes all four from one transfer-matrix record
    (closed_forms.mfic_threshold_forms).  Raises ValueError where the
    closed forms do not apply.
    """
    n_sites, j = model.n_sites, model.J
    if model.kind == "mfic":
        delta, chi, f_n, f_inf = cf.mfic_threshold_forms(n_sites, beta, j, model.B)
        return (delta, chi, math.nan, math.nan) if undefined else (delta, chi, f_n, f_inf)
    delta, chi = cf.delta_v_tfic_closed(n_sites, beta, j), cf.chi_f_tfic_closed(n_sites, beta, j)
    if undefined:
        return delta, chi, math.nan, math.nan
    return delta, chi, cf.f_n_tfic(n_sites, beta, j), cf.f_n_tfic(None, beta, j)


def _threshold_row(model: SpinChainModel, report):
    """One CSV row: the flip route's report at one beta beside the closed forms.

    A row that threshold_sweep flags undefined leaves f_n_closed, f_inf and
    rel_err_* empty.
    """
    beta, undefined = report.beta, report.undefined_at_infinite_temperature
    closed = (math.nan,) * 4
    reason = UNDEFINED_AT_BETA_ZERO if undefined else ""
    try:
        closed = _closed_forms(model, beta, undefined)
    except ValueError as exc:
        reason = reason or str(exc)
    delta, chi, f_n, f_inf = closed
    rel_dv = rel_chi = math.nan
    if not undefined and delta > 0:
        rel_dv = abs(report.delta_v / delta - 1.0)
        rel_chi = abs(report.chi_f / chi - 1.0)
    return (
        beta,
        report.delta_v,
        delta,
        report.chi_f,
        chi,
        report.gamma_th,
        report.gamma_n,
        report.f_n,
        f_n,
        f_inf,
        rel_dv,
        rel_chi,
        reason,
    )


def _threshold_rows(model: SpinChainModel, betas, alpha):
    """The rows of one contiguous beta slice, from one threshold_sweep."""
    return [_threshold_row(model, report) for report in threshold_sweep(model, betas, alpha)]


def cmd_threshold(config: RunConfig) -> int:
    model = config.model()  # validates the model block up front
    betas = config.beta_grid
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # one task per contiguous beta slice, so each slice is prepared once;
        # pool.map returns the slices, and so the rows, in grid order
        n = min(config.jobs, len(betas))
        edges = [len(betas) * k // n for k in range(n + 1)]
        slices = [betas[lo:hi] for lo, hi in zip(edges, edges[1:])]
        with ProcessPoolExecutor(max_workers=n) as pool:
            parts = pool.map(_threshold_rows, [model] * n, slices, [config.alpha] * n)
            rows = [row for part in parts for row in part]
    else:
        rows = _threshold_rows(model, betas, config.alpha)
    write_table(config.out or "threshold.csv", config, THRESHOLD_COLUMNS, rows, config.fmt)
    return 0


def _dynamics_paths(base, combos):
    """Output path of each (beta, gamma) point; two points may not share one."""
    if len(combos) == 1:
        return [base]
    stem, ext = os.path.splitext(base)
    ext = ext or ".csv"
    owner = {}
    for beta, gamma in combos:
        path = f"{stem}_beta{beta:g}_gamma{gamma:g}{ext}"
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
    for beta, gamma in combos:  # every point is checked before the first file is written
        require_evolve_args(beta, gamma, config.lambda_max, config.n_records)
    for (beta, gamma), path in zip(combos, paths):
        trace = evolve(model, beta, gamma, config.lambda_max, config.n_records)
        write_table(
            path, config, DYNAMICS_COLUMNS, list(trace.rows()), config.fmt, trace.counters()
        )
    return 0


def _margin(check) -> float:
    """measured / tolerance of one check for verify's worst margin.

    A nan measured value gives nan, and a failed check gives at least 1:
    against a zero tolerance a failed check gives inf and a passing one 0.
    """
    if math.isnan(check.measured):
        return math.nan
    if check.tolerance == 0.0:
        ratio = 0.0 if check.ok else math.inf
    else:
        ratio = check.measured / check.tolerance
    return ratio if check.ok else max(ratio, 1.0)


def cmd_verify(config: RunConfig, criteria=None) -> int:
    config_ok, config_error = True, None
    try:
        config.model()
    except ValueError as exc:
        config_ok, config_error = False, str(exc)
    results = run_all(criteria)  # checks every id before it runs one
    print(f"config: {'PASS' if config_ok else 'FAIL'}" + (f" — {config_error}" if config_error else ""))
    for res in results:
        # the wall-clock runtime_s check says nothing about accuracy
        margins = [_margin(c) for c in res.checks if c.name != "runtime_s"]
        worst = math.nan if any(map(math.isnan, margins)) else max(margins)
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
    _write_text(out, _json_text(report))
    print(("PASS" if passed else "FAIL") + f" — report written to {out}")
    return 0 if passed else 1


@functools.cache  # parsing never changes the parser, so one serves every call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="adiatherm",
        description="Finite-temperature adiabaticity diagnostics for driven spin-1/2 chains",
    )
    parser.add_argument("--version", action="version", version=f"adiatherm {__version__}")
    commands = {
        "spectrum": "eigenvalues of H0 and H_lambda at requested lambda values",
        "threshold": "deltaV, chi_F, Gamma_th and f_N per beta, ED and closed-form routes",
        "dynamics": "evolve the Gibbs state and record the fidelity-bound trace",
        "verify": "run the acceptance suite and write a JSON report",
    }
    parser.add_argument("command", choices=commands,
                        help="; ".join(f"{name}: {text}" for name, text in commands.items()))
    parser.add_argument("--config", help="flat key=value config file")
    for opt in OPTIONS:  # every value stays text here; _set parses it
        parser.add_argument(opt.flag, dest=opt.attr, help=f"{opt.help} (config key {opt.key})")
    parser.add_argument("--criteria", help="verify only: comma-separated subset of "
                        + ",".join(sorted(ALL_CRITERIA)))
    return parser


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    for opt in OPTIONS:
        text = getattr(args, opt.attr)
        if text is not None:
            _set(cfg, opt, text, opt.flag)
    if not cfg.beta_grid or not cfg.gamma_grid:
        raise ValueError("beta and gamma grids must be non-empty")
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.criteria is not None and args.command != "verify":
            raise ValueError("--criteria applies only to verify")
        cfg = _config_from_args(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg)
        if args.command == "threshold":
            return cmd_threshold(cfg)
        if args.command == "dynamics":
            return cmd_dynamics(cfg)
        return cmd_verify(cfg, args.criteria.split(",") if args.criteria else None)
    # RuntimeError: evolve's step halving or the sweep's step doubling did not converge
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
