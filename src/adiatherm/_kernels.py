"""Pair-class sums and column-matching kernels, in numpy.

The pair sums give deltaV and chi_F of both exact routes: the one
reduction of susceptibility (_class_sums) sums a (B, K) stack of squared
weight differences, one row per beta of a grid, against the K pair classes
of the flip route or of the dense oracle.  A row is summed by add.reduce
along a C-contiguous axis, the order of a one-vector call, so its sum does
not depend on the stack it came in.  The package no longer calls the column
matching (match_columns, greedy_match): the eigenbasis continuation
transports whole levels by projector mass.  It stays as a tested
maximal-overlap assignment whose names perfbench's tracer reports.
Summation and scan orders are fixed, so results are deterministic.
"""

from __future__ import annotations

import numpy as np


def backend_name():
    """The kernel backend; numpy is the only one."""
    return "numpy"


def pair_weight_sum(dw2, weight):
    """sum_k dw2[k] weight[k] over the pair classes k: a float for one (K,)
    vector of squared weight differences, the (B,) row sums of a (B, K) stack."""
    sums = np.add.reduce(dw2 * weight, axis=-1)
    return float(sums) if dw2.ndim == 1 else sums


def chi_pair_sum(dw2, chi_weight, coupled):
    """Degeneracy-excluded pair sum behind the fidelity susceptibility:
    sum over the classes k with coupled[k] of dw2[k] chi_weight, where
    chi_weight holds weight / gap^2 of the coupled classes in order.  A
    float for one (K,) vector, the (B,) row sums of a (B, K) stack."""
    sums = np.add.reduce(dw2.compress(coupled, axis=-1) * chi_weight, axis=-1)
    return float(sums) if dw2.ndim == 1 else sums


def _greedy_sweep(order_rows, order_cols, d):
    """Assign entries in descending-overlap order, skipping used rows/columns.

    Equivalent to repeatedly taking the global argmax of the remaining
    overlap matrix, at O(d^2 log d) instead of O(d^3).
    """
    perm = np.full(d, -1, dtype=np.int64)
    row_used = np.zeros(d, dtype=bool)
    col_used = np.zeros(d, dtype=bool)
    assigned = 0
    for i, j in zip(order_rows, order_cols):
        if not row_used[i] and not col_used[j]:
            perm[j] = i
            row_used[i] = True
            col_used[j] = True
            assigned += 1
            if assigned == d:
                break
    return perm


def greedy_match(absolute_overlap):
    """Greedy maximal-overlap assignment on |<new_i|old_j>|.

    Processes entries in descending order, skipping used rows and columns
    (identical to repeated global argmax); ties broken by flat index, so the
    result is deterministic.  Returns perm with perm[j] = new-column index
    assigned to old label j.
    """
    a = np.ascontiguousarray(absolute_overlap, dtype=np.float64)
    d = a.shape[0]
    # stable descending order; secondary key = flat index keeps determinism
    order = np.argsort(-a, axis=None, kind="stable")
    rows = (order // d).astype(np.int64)
    cols = (order % d).astype(np.int64)
    return _greedy_sweep(rows, cols, d)


def count_ambiguous_labels(absolute_overlap, ambiguity_tol=1e-6):
    """Number of old labels whose top two overlap candidates sit within tol."""
    a = np.asarray(absolute_overlap, dtype=np.float64)
    d = a.shape[0]
    if d < 2:
        return 0
    top2 = np.partition(a, d - 2, axis=0)[d - 2 :, :]
    return int(np.sum(top2[1, :] - top2[0, :] < ambiguity_tol))


def match_columns(absolute_overlap, ambiguity_tol=1e-6):
    """Assign new eigenvector columns to old labels by maximal overlap.

    Returns (perm, n_ambiguous).  Fast path: when every old label has a
    clear best new column (margin > ambiguity_tol) and those choices are all
    distinct, the column-argmax assignment coincides with the greedy one and
    is returned directly; otherwise the full greedy sweep runs.
    """
    a = np.asarray(absolute_overlap, dtype=np.float64)
    d = a.shape[0]
    n_ambiguous = count_ambiguous_labels(a, ambiguity_tol)
    best_rows = np.argmax(a, axis=0)
    if n_ambiguous == 0 and np.unique(best_rows).size == d:
        return best_rows.astype(np.int64), 0
    return greedy_match(a), n_ambiguous
