"""Outside-in layer tracing by rebinding names.

Every traced function is replaced, in every ``adiatherm`` module that holds
a reference to it, by a wrapper that records a span (name, start, end,
parent span, operation id).  Spans stay in memory until the run ends.
``restore()`` puts every original object back.  Nothing in the package is
edited; a later change may add spans inside the program instead.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "adiatherm" or name.startswith("adiatherm."))
    ]


class Tracer:
    """Collects spans from rebound functions; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self._stack = []
        self._op = None
        self._next_op = 0
        self._bindings = []  # (owner, attribute or key, original)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name, fn, starts_op=False):
        """A wrapper around fn recording one span per call.

        starts_op: an outermost call opens a new operation id.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            opened = starts_op and self._op is None
            if opened:
                self._op = self._next_op
                self._next_op += 1
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self._op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter()
                stack.pop()
                if opened:
                    self._op = None
            return result

        return traced

    @staticmethod
    def _get(owner, key):
        return owner[key] if isinstance(owner, dict) else getattr(owner, key)

    @staticmethod
    def _set(owner, key, value):
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def rebind_everywhere(self, original, name, **options):
        """Replace every reference to original held by a package module.

        Covers module globals and the values of module-level dicts (such as
        a registry of criteria); a shared dict is rebound once.
        """
        wrapper = self.wrap(name, original, **options)
        owners = []
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if value is original:
                    owners.append((mod, key))
                elif isinstance(value, dict) and not key.startswith("__"):
                    owners += [(value, k) for k, v in value.items() if v is original]
        if not owners:
            raise LookupError(f"{name}: no module binds {original!r}")
        for owner, key in owners:
            if self._get(owner, key) is original:  # a dict reached twice
                self._bindings.append((owner, key, original))
                self._set(owner, key, wrapper)
        return wrapper

    def rebind(self, owner, key, name, **options):
        """Replace one attribute (or dict entry) of owner."""
        original = self._get(owner, key)
        wrapper = self.wrap(name, original, **options)
        self._bindings.append((owner, key, original))
        self._set(owner, key, wrapper)
        return wrapper

    def restore(self):
        """Put every original back, newest binding first."""
        while self._bindings:
            owner, key, original = self._bindings.pop()
            self._set(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results --------------------------------------------------------------

    def layer_totals(self):
        """name -> {'calls', 's', 'self_s'} over spans not nested in their own name.

        Self time is a span's duration minus the time its child spans cover
        (children never overlap: the program is single-threaded here).
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if self._inside(parent, name):
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return totals

    def _inside(self, parent, name):
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path):
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def public_functions(module):
    """Functions defined in module whose names do not start with '_'."""
    return [
        fn
        for key, fn in sorted(vars(module).items())
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not key.startswith("_")
    ]


def install_layers(tracer):
    """Rebind the public function of every layer; the package must be imported."""
    import numpy

    import adiatherm
    from adiatherm import _kernels, acceptance, cli, closed_forms, qsl, thermal

    for fn in (adiatherm.models.build_h0, adiatherm.models.build_v, adiatherm.operators.eigh):
        tracer.rebind_everywhere(fn, f"{fn.__module__.split('.')[-1]}.{fn.__name__}")
    tracer.rebind(numpy.linalg, "eigh", "numpy.eigh")
    for key in ("threshold_report", "delta_v_thermal", "chi_f_thermal", "ground_delta_v",
                "ground_chi_f"):
        fn = getattr(adiatherm.susceptibility, key)
        tracer.rebind_everywhere(fn, f"susceptibility.{key}")
    for key in ("chi_pair_sum", "pair_weight_sum", "match_columns", "greedy_match"):
        tracer.rebind_everywhere(getattr(_kernels, key), f"kernels.{key}")
    tracer.rebind(thermal.EigenbasisContinuation, "advance", "thermal.advance")
    tracer.rebind(thermal.EigenbasisContinuation, "__init__", "thermal.march")
    tracer.rebind_everywhere(adiatherm.dynamics.evolve, "dynamics.evolve", starts_op=True)
    for group, module in (("qsl", qsl), ("closed_forms", closed_forms)):
        for fn in public_functions(module):
            tracer.rebind_everywhere(fn, group)
    tracer.rebind(cli, "_threshold_row", "cli.threshold_row", starts_op=True)
    tracer.rebind(cli, "write_table", "cli.write_table")
    for cid, fn in sorted(acceptance.ALL_CRITERIA.items()):
        tracer.rebind_everywhere(fn, f"acceptance.{cid}", starts_op=True)
