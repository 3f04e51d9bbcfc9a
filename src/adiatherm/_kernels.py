"""Dense pair-sum and column-matching kernels, in numpy.

The pair sums back the operator-level chi_f_thermal / delta_v_thermal, the
dense oracle of the flip-sum route.  The package no longer calls the
column matching (match_columns, greedy_match): the eigenbasis continuation
transports whole levels by projector mass.  It stays as a tested
maximal-overlap assignment whose names perfbench's tracer reports.
Summation and scan orders are fixed, so results are deterministic.
"""

from __future__ import annotations

import numpy as np

_ROW_BLOCK = 256


def backend_name():
    """The kernel backend; numpy is the only one."""
    return "numpy"


def chi_pair_sum(energies, weights, v2, tol):
    """Degeneracy-excluded spectral pair sum behind the fidelity susceptibility:
    sum_{m != n, |E_m - E_n| > tol} (w_m - w_n)^2 V2[m, n] / (E_m - E_n)^2.

    Row-blocked to bound temporaries at 2**12 dimensions.
    """
    energies = np.ascontiguousarray(energies, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    v2 = np.ascontiguousarray(v2, dtype=np.float64)
    n = energies.shape[0]
    total = 0.0
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, min(start + _ROW_BLOCK, n))
        de = energies[rows, None] - energies[None, :]
        dw = weights[rows, None] - weights[None, :]
        keep = np.abs(de) > tol
        contrib = np.zeros_like(de)
        np.divide(dw * dw * v2[rows, :], de * de, out=contrib, where=keep)
        total += float(contrib.sum())
    return total


def pair_weight_sum(weights, v2):
    """Plain weighted pair sum sum_{m,n} (w_m - w_n)^2 V2[m, n], row-blocked."""
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    v2 = np.ascontiguousarray(v2, dtype=np.float64)
    n = weights.shape[0]
    total = 0.0
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, min(start + _ROW_BLOCK, n))
        dw = weights[rows, None] - weights[None, :]
        total += float(np.sum(dw * dw * v2[rows, :]))
    return total


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
