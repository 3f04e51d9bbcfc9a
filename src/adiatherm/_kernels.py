"""Dense pair-sum and column-matching kernels, in numpy.

The pair sums give deltaV and chi_F of susceptibility.dense_sums_sweep,
the dense oracle of the flip-sum route.  They take the whole d x d pair
array at once: the oracle runs at d <= 256, where that is a few megabytes,
so they carry no row blocking.  A call takes one weight vector or a (B, d)
stack of them, one row per beta of a grid: chi_pair_sum forms its
degeneracy-masked V2 / dE^2 kernel once per call, and every row is summed
by the operations of a one-vector call, so its sum does not depend on the
stack it came in.  The package no longer calls the column
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


def chi_pair_sum(energies, weights, v2, tol):
    """Degeneracy-excluded spectral pair sum behind the fidelity susceptibility:
    sum_{m != n, |E_m - E_n| > tol} (w_m - w_n)^2 V2[m, n] / (E_m - E_n)^2.

    weights is one (d,) vector, which gives a float, or a (B, d) stack, which
    gives the (B,) sums of its rows.  The masked kernel V2 / (E_m - E_n)^2 is
    formed once per call and every row is summed with it as _pair_sums does.
    """
    energies = np.asarray(energies, dtype=np.float64)
    de = energies[:, None] - energies[None, :]
    kernel = np.zeros_like(de)
    np.divide(v2, de * de, out=kernel, where=np.abs(de) > tol)
    return _pair_sums(weights, kernel)


def pair_weight_sum(weights, v2):
    """Plain weighted pair sum sum_{m,n} (w_m - w_n)^2 V2[m, n], for one
    (d,) weight vector (a float) or each row of a (B, d) stack (a (B,) array)."""
    return _pair_sums(weights, v2)


def _pair_sums(weights, kernel):
    """sum_{m,n} (w_m - w_n)^2 kernel[m, n] of a weight vector, or of each
    row of a stack of them, every row by the same operations as a vector."""
    weights = np.asarray(weights, dtype=np.float64)
    sums = []
    for w in np.atleast_2d(weights):
        dw = w[:, None] - w[None, :]
        sums.append(float(np.sum(dw * dw * kernel)))
    return sums[0] if weights.ndim == 1 else np.array(sums)


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
