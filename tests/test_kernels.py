import numpy as np
import pytest

from adiatherm._kernels import (
    _greedy_sweep,
    backend_name,
    chi_pair_sum,
    count_ambiguous_labels,
    greedy_match,
    match_columns,
    pair_weight_sum,
)


def random_case(d, rng):
    energies = np.sort(rng.integers(-4, 5, size=d).astype(float))
    weights = np.exp(-0.7 * (energies - energies.min()))
    v2 = np.abs(rng.standard_normal((d, d))) ** 2
    v2 = (v2 + v2.T) / 2.0
    return energies, weights, v2


def as_classes(energies, weights, v2, tol=1e-9):
    """Every ordered pair (m, n) as a class: its squared weight difference
    and |V_mn|^2, then the chi_F weights |V_mn|^2 / (E_m - E_n)^2 of the
    classes whose gap exceeds tol, and the mask of those classes."""
    m, n = np.indices(v2.shape).reshape(2, -1)
    gap = np.abs(energies[m] - energies[n])
    coupled = gap > tol
    weight = v2[m, n]
    return (weights[m] - weights[n]) ** 2, weight, weight[coupled] / gap[coupled] ** 2, coupled


class TestChiPairSum:
    def test_backends_agree(self):
        # the class-form kernel against a plain double loop
        rng = np.random.default_rng(13)
        energies, weights, v2 = random_case(48, rng)
        loop = sum(
            (weights[m] - weights[n]) ** 2 * v2[m, n] / (energies[m] - energies[n]) ** 2
            for m in range(48)
            for n in range(48)
            if abs(energies[m] - energies[n]) > 1e-9
        )
        dw2, _, chi_weight, coupled = as_classes(energies, weights, v2)
        assert chi_pair_sum(dw2, chi_weight, coupled) == pytest.approx(loop, rel=1e-12)

    def test_excludes_degenerate_pairs(self):
        energies = np.array([0.0, 0.0, 1.0])
        weights = np.exp(-energies)
        dw2, _, chi_weight, coupled = as_classes(energies, weights, np.ones((3, 3)))
        got = chi_pair_sum(dw2, chi_weight, coupled)
        expected = 4 * (weights[0] - weights[2]) ** 2  # 4 ordered pairs across the gap
        assert got == pytest.approx(expected, rel=1e-14)

    def test_pair_weight_sum_backends_agree(self):
        # the class-form kernel against a plain double loop
        rng = np.random.default_rng(5)
        energies, weights, v2 = random_case(32, rng)
        loop = sum(
            (weights[m] - weights[n]) ** 2 * v2[m, n] for m in range(32) for n in range(32)
        )
        dw2, weight, _, _ = as_classes(energies, weights, v2)
        assert pair_weight_sum(dw2, weight) == pytest.approx(loop, rel=1e-12)


class TestStackedWeights:
    """A (B, K) stack of squared weight differences gives each row's sum
    exactly as one vector does."""

    @pytest.mark.parametrize("d", [1, 2, 17, 48])
    def test_rows_bitwise_equal_to_vector_calls(self, d):
        rng = np.random.default_rng(40 + d)
        energies, _, v2 = random_case(d, rng)
        betas = np.array([0.0, 1e-3, 0.3, 1.0, 3.0, 40.0])
        rows = [as_classes(energies, np.exp(-b * (energies - energies.min())), v2) for b in betas]
        stack = np.array([row[0] for row in rows])
        _, weight, chi_weight, coupled = rows[0]
        chi = chi_pair_sum(stack, chi_weight, coupled)
        plain = pair_weight_sum(stack, weight)
        assert chi.shape == plain.shape == betas.shape
        for row, c, p in zip(stack, chi, plain):
            assert float(c).hex() == chi_pair_sum(row, chi_weight, coupled).hex()
            assert float(p).hex() == pair_weight_sum(row, weight).hex()

    def test_vector_gives_a_float(self):
        dw2, weight, chi_weight, coupled = as_classes(*random_case(6, np.random.default_rng(2)))
        assert type(chi_pair_sum(dw2, chi_weight, coupled)) is float
        assert type(pair_weight_sum(dw2, weight)) is float

    def test_empty_stack(self):
        _, weight, chi_weight, coupled = as_classes(*random_case(5, np.random.default_rng(4)))
        assert chi_pair_sum(np.empty((0, 25)), chi_weight, coupled).shape == (0,)
        assert pair_weight_sum(np.empty((0, 25)), weight).shape == (0,)


class TestMatching:
    def test_identity_overlap(self):
        perm, n_amb = match_columns(np.eye(5))
        assert np.array_equal(perm, np.arange(5))
        assert n_amb == 0

    def test_permuted_overlap(self):
        target = np.array([2, 0, 1])
        overlap = np.zeros((3, 3))
        for j, i in enumerate(target):
            overlap[i, j] = 0.99
        perm, n_amb = match_columns(overlap)
        assert np.array_equal(perm, target)
        assert n_amb == 0

    def test_equal_mixture_counts_ambiguous(self):
        s = 1.0 / np.sqrt(2.0)
        overlap = np.array([[s, s], [s, s]])
        perm, n_amb = match_columns(overlap)
        assert sorted(perm) == [0, 1]
        assert n_amb == 2

    def test_greedy_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(size=(7, 7))
            perm = greedy_match(a)
            # reference: repeated global argmax with row/col elimination
            work = a.copy()
            expected = np.full(7, -1)
            for _pick in range(7):
                i, j = np.unravel_index(np.argmax(work), work.shape)
                expected[j] = i
                work[i, :] = -1.0
                work[:, j] = -1.0
            assert np.array_equal(perm, expected)

    def test_fast_path_agrees_with_greedy(self):
        rng = np.random.default_rng(8)
        base = np.eye(9) * 0.98 + rng.uniform(0, 1e-3, size=(9, 9))
        perm_fast, _ = match_columns(base)
        assert np.array_equal(perm_fast, greedy_match(base))

    def test_ambiguity_counter(self):
        overlap = np.array([[0.9, 0.1], [0.9 - 5e-7, 0.95]])
        assert count_ambiguous_labels(overlap, 1e-6) == 1

    def test_numpy_sweep_direct(self):
        order = np.argsort(-np.eye(3), axis=None, kind="stable")
        rows, cols = (order // 3).astype(np.int64), (order % 3).astype(np.int64)
        assert np.array_equal(_greedy_sweep(rows, cols, 3), np.arange(3))


class TestBackendSelection:
    def test_backend_reported(self):
        assert backend_name() == "numpy"
