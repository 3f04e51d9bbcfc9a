"""Brute-force oracles, deliberately independent of the package internals.

Everything here enumerates spin configurations with itertools or builds
operators with explicit numpy kron chains, so agreement with the package is
a genuine two-route check rather than a reflection.
"""

import math
from itertools import product

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_chain(mats):
    out = np.array([[1.0 + 0.0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def site_op(op, site, n):
    """op acting on 1-based site of an n-site chain."""
    mats = [I2] * n
    mats[site - 1] = op
    return kron_chain(mats)


def dense_h0(kind, n, j=1.0, b=0.0):
    d = 2**n
    h = np.zeros((d, d), dtype=complex)
    for site in range(1, n + 1):
        nxt = site % n + 1
        h -= j * site_op(SZ, site, n) @ site_op(SZ, nxt, n)
    if kind == "mfic":
        for site in range(1, n + 1):
            h += b * site_op(SZ, site, n)
    return h


def dense_v(kind, n, j=1.0):
    d = 2**n
    v = np.zeros((d, d), dtype=complex)
    if kind in ("tfic", "mfic"):
        for site in range(1, n + 1):
            v -= j * site_op(SX, site, n)
    else:
        for site in range(1, n + 1):
            nxt = site % n + 1
            v -= j * site_op(SX, site, n) @ site_op(SX, nxt, n)
            v += j * site_op(SZ, site, n) @ site_op(SZ, nxt, n)
    return v


def ring_config_energies(n, j=1.0, b=0.0):
    """Classical energies -J sum s_i s_{i+1} + B sum s_i over all 2^n configs."""
    energies = []
    for spins in product((1, -1), repeat=n):
        bond = sum(spins[i] * spins[(i + 1) % n] for i in range(n))
        energies.append(-j * bond + b * sum(spins))
    return np.array(sorted(energies))


def ring_partition_function(n, beta, j=1.0, b=0.0):
    total = 0.0
    for spins in product((1, -1), repeat=n):
        bond = sum(spins[i] * spins[(i + 1) % n] for i in range(n))
        total += np.exp(-beta * (-j * bond + b * sum(spins)))
    return total


def brute_chi_f(h0, v, beta, tol):
    """Spectral double sum for chi_F with degenerate pairs excluded."""
    evals, evecs = np.linalg.eigh(h0)
    shifted = evals - evals.min()
    w = np.exp(-beta * shifted)
    z2 = np.sum(np.exp(-2.0 * beta * shifted))
    vmn = evecs.conj().T @ v @ evecs
    total = 0.0
    d = len(evals)
    for m in range(d):
        for k in range(d):
            de = shifted[m] - shifted[k]
            if m == k or abs(de) <= tol:
                continue
            total += (w[m] - w[k]) ** 2 * abs(vmn[m, k]) ** 2 / de**2
    return 2.0 * total / z2


def wy_skew_info(rho, h):
    """Wigner-Yanase skew information Tr(rho H^2) - Tr(rho^{1/2} H rho^{1/2} H).

    Vanishes iff the state commutes with H; reduces to the variance of H for
    pure states.  Equals ||[rho^{1/2}, H]||_HS^2 / 2.
    """
    # rho^{1/2} with eigenvalue dust (negative, or positive below the rank
    # tolerance dim * eps * max) clipped to exactly zero: the square root
    # would otherwise amplify O(eps) dust into O(sqrt(eps)) noise
    evals, evecs = np.linalg.eigh(rho)
    floor = rho.shape[0] * np.finfo(float).eps * max(float(evals[-1]), 0.0)
    sqrt_rho = (evecs * np.sqrt(np.where(evals < floor, 0.0, evals))) @ evecs.conj().T
    t1 = np.real(np.vdot(rho, h @ h))
    t2 = np.real(np.sum((sqrt_rho @ h @ sqrt_rho).T * h))
    return max(float(t1 - t2), 0.0)


def delta_v(rho0, v):
    """Drive fluctuation sqrt(2 I_WY(escort, V)) of the escort rho0^2 / Tr(rho0^2)."""
    sq = rho0 @ rho0
    return math.sqrt(2.0 * wy_skew_info(sq / np.real(np.trace(sq)), v))


def exp_minus_i(a):
    """exp(-iA) of a stack of real symmetric matrices A, from their eigendecomposition."""
    evals, evecs = np.linalg.eigh(a)
    return (evecs * np.exp(-1j * evals)[..., None, :]) @ evecs.swapaxes(-1, -2)


def random_density_matrix(dim, rng, rank=None):
    """Haar-ish random mixed state from a Ginibre factor."""
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
