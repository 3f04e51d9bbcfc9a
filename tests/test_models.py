import math
import tracemalloc
import types

import numpy as np
import pytest

from adiatherm import models
from adiatherm.dynamics import evolve
from adiatherm.models import (
    SpinChainModel,
    build_h0,
    build_v,
    classical_energies,
    flip_terms,
    require_dense_fits,
    require_sectors_fit,
    stack_slices,
    symmetry_sectors,
)
from adiatherm.operators import hs_norm
from adiatherm.susceptibility import (
    flip_sums,
    flip_sums_sweep,
    high_temp_coefficient,
    low_temp_coefficients,
    threshold_report,
)

import oracle


class TestModelInvariants:
    def test_rejects_small_chain(self):
        with pytest.raises(ValueError, match="n_sites"):
            SpinChainModel("tfic", 1)

    @pytest.mark.parametrize("n_sites", [3.5, 4.0, "4", None])
    def test_rejects_non_integral_size(self, n_sites):
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            SpinChainModel("tfic", n_sites)

    def test_accepts_numpy_integer_size(self):
        model = SpinChainModel("tfic", np.int64(4))
        assert model.n_sites == 4 and type(model.n_sites) is int
        assert threshold_report(model, 1.0).delta_v > 0

    def test_rejects_non_positive_coupling(self):
        with pytest.raises(ValueError, match="J"):
            SpinChainModel("tfic", 4, J=-1.0)

    def test_mfic_requires_field(self):
        with pytest.raises(ValueError, match="field"):
            SpinChainModel("mfic", 4)

    def test_field_ignored_outside_mfic(self):
        model = SpinChainModel("tfic", 4, B=0.3)
        assert model.B is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SpinChainModel("xyz", 4)

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("J", {"J": math.nan}),
            ("J", {"J": math.inf}),
            ("B", {"B": math.nan}),
            ("B", {"B": math.inf}),
            ("B", {"B": -math.inf}),
        ],
    )
    def test_rejects_non_finite_couplings(self, name, kwargs):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SpinChainModel("mfic", 4, **{"B": 0.7, **kwargs})


class TestDenseMemoryGuard:
    def test_refuses_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        for name in ("arange", "zeros", "empty", "diag"):
            monkeypatch.setattr(np, name, no_allocation)
        model = SpinChainModel("tfic", 40)
        for build in (build_h0, build_v):
            with pytest.raises(ValueError, match=r"N=40 .* GB \(14 complex"):
                build(model)


class TestFlipMemoryGuard:
    def test_refuses_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        for name in ("arange", "zeros", "empty", "diag"):
            monkeypatch.setattr(np, name, no_allocation)
        model = SpinChainModel("mfic", 40, B=0.7)
        for route in (
            lambda m: flip_sums(m, 1.0),
            lambda m: threshold_report(m, 1.0),
            low_temp_coefficients,
            high_temp_coefficient,
        ):
            with pytest.raises(ValueError, match=r"N=40 .* flip route: .* at most N=30 sites"):
                route(model)

    def test_refuses_one_site_past_the_limit(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated an array")

        for name in ("arange", "zeros", "empty"):
            monkeypatch.setattr(np, name, no_allocation)
        with pytest.raises(ValueError, match=r"N=31 is too large .* at most N=30 sites"):
            flip_sums(SpinChainModel("tfic", 31), 1.0)


class TestH0:
    def test_two_site_ring_double_counts_bond(self):
        # N=2 ring: E = -2 J s1 s2, so {-2J, +2J, +2J, -2J} over the basis
        model = SpinChainModel("tfic", 2, J=1.0)
        diag = np.real(np.diag(build_h0(model).mat))
        assert np.allclose(diag, [-2.0, 2.0, 2.0, -2.0])

    def test_mfic_two_site_ground_energy(self):
        model = SpinChainModel("mfic", 2, J=1.0, B=1.0)
        energies = np.sort(np.real(np.diag(build_h0(model).mat)))
        # all-down configuration: -2J - 2B
        assert energies[0] == pytest.approx(-4.0)
        assert np.allclose(energies, sorted([-2 + 2, 2.0, 2.0, -2 - 2]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ferromagnetic_ground_twofold(self, n):
        model = SpinChainModel("tfic", n, J=1.0)
        energies = np.sort(classical_energies(model))
        assert energies[0] == pytest.approx(-n)
        assert energies[1] == pytest.approx(-n)
        assert energies[2] > -n

    def test_exactly_diagonal(self):
        for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7)):
            h0 = build_h0(SpinChainModel(kind, 4, B=b)).mat
            off = h0 - np.diag(np.diag(h0))
            assert np.abs(off).max() == 0.0

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_matches_pauli_string_oracle(self, kind, b):
        model = SpinChainModel(kind, 4, B=b)
        assert np.allclose(build_h0(model).mat, oracle.dense_h0(kind, 4, b=b or 0.0), atol=1e-14)

    def test_spectrum_matches_enumeration(self):
        # the oracle also scales exact integer sums, -j * bond + b * sum(spins),
        # so the two agree exactly
        for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7), ("mfic", 1.3)):
            for n in (2, 3, 5, 8, 12):
                for j in (1.0, 0.7):
                    energies = np.sort(classical_energies(SpinChainModel(kind, n, J=j, B=b)))
                    expected = oracle.ring_config_energies(n, j=j, b=b or 0.0)
                    assert np.array_equal(energies, expected), (kind, b, n, j)


class TestDrive:
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_traceless(self, kind, b):
        v = build_v(SpinChainModel(kind, 3, B=b))
        assert np.trace(v.mat) == 0.0

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_chain_matrices_are_real(self, kind, b):
        model = SpinChainModel(kind, 4, B=b)
        assert build_h0(model).mat.dtype == np.float64
        assert build_v(model).mat.dtype == np.float64

    def test_tfic_two_site_hs_norm(self):
        # V = -J(X1 + X2): 2 sites x 4 unit entries each -> ||V||^2 = 8 J^2
        v = build_v(SpinChainModel("tfic", 2, J=1.0))
        assert hs_norm(v.mat) ** 2 == pytest.approx(8.0)

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_matches_kron_oracle(self, kind, b):
        model = SpinChainModel(kind, 4, B=b)
        assert np.allclose(build_v(model).mat, oracle.dense_v(kind, 4), atol=1e-14)

    @pytest.mark.parametrize("j", [1.0, 0.7])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_bitwise_equal_to_kron_oracle(self, kind, b, n, j):
        model = SpinChainModel(kind, n, J=j, B=b)
        assert np.array_equal(build_v(model).mat, oracle.dense_v(kind, n, j=j))

    @pytest.mark.parametrize("n", [3, 4, 6])
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_drive_does_not_commute_with_h0(self, kind, b, n):
        model = SpinChainModel(kind, n, B=b)
        h0, v = build_h0(model).mat, build_v(model).mat
        assert np.abs(h0 @ v - v @ h0).max() > 0.1

    def test_qxyc_two_site_exception(self):
        # the doubled bonds of the 2-ring make the XX - ZZ drive commute
        # with H0; cross-model statements therefore start at N = 3
        model = SpinChainModel("qxyc", 2)
        h0, v = build_h0(model).mat, build_v(model).mat
        assert np.abs(h0 @ v - v @ h0).max() <= 1e-12

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_translation_symmetry(self, kind, b):
        # every sector column of momentum 2 pi m / 5 is an eigenvector of
        # T + T^-1 (T the cyclic one-site shift), and H0 and V commute with
        # T, so they have no entry between sectors
        model = SpinChainModel(kind, 5, B=b)
        sectors = symmetry_sectors(model)
        shift = np.array([(s >> 1) | ((s & 1) << 4) for s in range(32)])
        in_sectors = np.zeros((32, 32), dtype=bool)
        for (m, _, _), _, lo, hi in sector_columns(sectors):
            cols = sectors.basis[:, lo:hi]
            shifted = np.zeros_like(cols)
            shifted[shift] = cols
            both_ways = shifted + cols[shift]
            assert np.abs(both_ways - 2.0 * math.cos(2.0 * math.pi * m / 5) * cols).max() <= 1e-14
            in_sectors[lo:hi, lo:hi] = True
        q = sectors.basis
        for op in (build_h0(model).mat, build_v(model).mat):
            assert np.abs((q.T @ op @ q)[~in_sectors]).max() <= 1e-14


def sector_columns(sectors):
    """(label, block, lo, hi) for the columns lo:hi of sectors.basis of each
    sector: a partner's, then its reflection twin's, under the twin's label
    (m, -1, x) and with the partner's block."""
    lo = 0
    for (m, p, x), block, count in zip(sectors.labels, sectors.blocks, sectors.multiplicity):
        for label in ((m, p, x), (m, -p, x))[:count]:
            yield label, block, lo, lo + block[0].shape[0]
            lo += block[0].shape[0]


def ring_permutations(n_sites):
    """T, P and prod X of the ring as d x d permutation matrices, from bit
    operations on the basis indices: T|s> = |T s>, P reverses the bits and
    prod X flips them all."""
    d = 2**n_sites
    idx = np.arange(d)
    translated = (idx >> 1) | ((idx & 1) << (n_sites - 1))
    reflected = np.array([int(format(s, f"0{n_sites}b")[::-1], 2) for s in idx])
    mats = []
    for image in (translated, reflected, idx ^ (d - 1)):
        mat = np.zeros((d, d))
        mat[image, idx] = 1.0
        mats.append(mat)
    return mats


def sector_projector(n_sites, label, flips):
    """The projector onto label (m, p, x): momenta +-2 pi m / N, reflection
    parity p and, when flips, prod X parity x."""
    t, p_mat, x_mat = ring_permutations(n_sites)
    m, p, x = label
    d = 2**n_sites
    count = 1.0 if m == 0 or 2 * m == n_sites else 2.0
    momentum, power = np.zeros((d, d)), np.eye(d)
    for j in range(n_sites):
        momentum += count / n_sites * math.cos(2.0 * math.pi * m * j / n_sites) * power
        power = t @ power
    projector = momentum @ (np.eye(d) + p * p_mat) / 2.0
    if flips:
        projector = projector @ (np.eye(d) + x * x_mat) / 2.0
    return projector


SECTOR_CASES = [(kind, b, n) for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7))
                for n in range(2, 9)]


class TestSymmetrySectors:
    @pytest.mark.parametrize("kind,b,n_sites", SECTOR_CASES)
    def test_blocks_match_the_dense_operators(self, kind, b, n_sites):
        # a twin's columns carry its partner's block
        model = SpinChainModel(kind, n_sites, B=b)
        sectors = symmetry_sectors(model)
        d = model.dim
        q = sectors.basis
        assert sum(c * size for c, size in zip(sectors.multiplicity, sectors.sizes)) == d
        assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-14
        # each column lies on states of one classical energy: H0 is diagonal
        energies = classical_energies(model)
        for _, (h0, _), lo, hi in sector_columns(sectors):
            assert np.array_equal(h0, np.diag(np.diag(h0)))
            for col, energy in zip(q.T[lo:hi], np.diag(h0)):
                assert np.all(energies[col != 0.0] == energy)
        # V has no entry between blocks, and its blocks are the oracle's
        v_sector = q.T @ oracle.dense_v(kind, n_sites).real @ q
        in_blocks = np.zeros((d, d), dtype=bool)
        for _, (_, v), lo, hi in sector_columns(sectors):
            in_blocks[lo:hi, lo:hi] = True
            assert np.abs(v_sector[lo:hi, lo:hi] - v).max() <= 1e-13
        assert np.abs(v_sector[~in_blocks]).max(initial=0.0) <= 1e-13

    @pytest.mark.parametrize("kind,b,n_sites", SECTOR_CASES)
    def test_every_column_lies_in_its_sector_projector(self, kind, b, n_sites):
        # twins (m, -1, x) included, whose columns are J images, not eigh's
        sectors = symmetry_sectors(SpinChainModel(kind, n_sites, B=b))
        for label, _, lo, hi in sector_columns(sectors):
            cols = sectors.basis[:, lo:hi]
            projector = sector_projector(n_sites, label, kind != "mfic")
            assert np.abs(projector @ cols - cols).max() <= 1e-12

    @pytest.mark.parametrize("kind,b,n_sites", SECTOR_CASES)
    def test_prod_x_splits_only_the_zero_field_chains(self, kind, b, n_sites):
        labels = symmetry_sectors(SpinChainModel(kind, n_sites, B=b)).labels
        assert len(set(labels)) == len(labels)
        parities = {x for _, _, x in labels}
        assert parities == ({None} if kind == "mfic" else {1, -1})

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_blocks_come_in_order_of_size(self, kind, b):
        for n_sites in (4, 5, 6):
            sizes = symmetry_sectors(SpinChainModel(kind, n_sites, B=b)).sizes
            assert all(x <= y for x, y in zip(sizes, sizes[1:]))

    @pytest.mark.parametrize("kind,b,n_blocks,sizes", [
        ("tfic", None, 6, {3, 4}), ("qxyc", None, 6, {3, 4}), ("mfic", 0.7, 3, {6, 8}),
    ])
    def test_five_site_blocks(self, kind, b, n_blocks, sizes):
        # the twins of m = 1, 2 have no blocks: 10 sectors of tfic and qxyc, 5 of mfic
        sectors = symmetry_sectors(SpinChainModel(kind, 5, B=b))
        assert len(sectors.blocks) == n_blocks and set(sectors.sizes) == sizes
        assert len(sectors.labels) == len(sectors.multiplicity) == n_blocks


TWIN_CASES = [(kind, b, n) for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7),
                                            ("mfic", 1.3)) for n in range(2, 11)]


class TestReflectionTwins:
    @pytest.mark.parametrize("kind,b,n_sites", TWIN_CASES)
    def test_twins_are_orthogonal_copies_of_their_partners(self, kind, b, n_sites):
        # at 0 < k < pi, J = (T - T^-1) / (2 sin k) carries the partner
        # (m, +1, x) onto its twin (m, -1, x), whose columns follow the
        # partner's and which has no label or block of its own
        model = SpinChainModel(kind, n_sites, B=b)
        sectors = symmetry_sectors(model)
        assert len(sectors.labels) == len(sectors.blocks) == len(sectors.multiplicity)
        assert sum(c * size for c, size in zip(sectors.multiplicity, sectors.sizes)) == 2**n_sites
        for (m, p, _), count in zip(sectors.labels, sectors.multiplicity):
            assert count == (2 if 0 < 2 * m < n_sites else 1)
            assert p == 1 or count == 1

        v = build_v(model).mat
        columns = {label: sectors.basis[:, lo:hi] for label, _, lo, hi in sector_columns(sectors)}
        shifted = models._translate(np.arange(2**n_sites), n_sites)
        for (m, _, x), (_, v_p), count in zip(sectors.labels, sectors.blocks, sectors.multiplicity):
            if count == 1:
                continue
            q_p, q_t = columns[(m, 1, x)], columns[(m, -1, x)]
            forward = np.zeros_like(q_p)
            forward[shifted] = q_p  # T: |s> -> |T s>
            j_q = (forward - q_p[shifted]) / (2.0 * math.sin(2.0 * math.pi * m / n_sites))
            assert np.abs(j_q - q_t).max() <= 1e-12
            assert np.abs(j_q.T @ j_q - np.eye(q_p.shape[1])).max() <= 1e-12
            # the twin's own V block is the partner's
            assert np.abs(q_t.T @ v @ q_t - v_p).max() <= 1e-12


class TestFlipTerms:
    @pytest.mark.parametrize("kind,b", [("tfic", None), ("mfic", 0.7)])
    def test_single_site_flips(self, kind, b):
        terms = flip_terms(SpinChainModel(kind, 5, J=0.5, B=b))
        assert sorted(mask for mask, _ in terms) == [1, 2, 4, 8, 16]
        assert all(amplitude == -0.5 for _, amplitude in terms)

    def test_qxyc_adjacent_pair_flips(self):
        terms = flip_terms(SpinChainModel("qxyc", 4))
        assert sorted(mask for mask, _ in terms) == [0b0011, 0b0110, 0b1001, 0b1100]
        assert all(amplitude == -1.0 for _, amplitude in terms)

    def test_qxyc_two_site_bonds_merge(self):
        # both bonds of the 2-ring flip sites 1 and 2: |V_mn|^2 = 4 J^2
        assert flip_terms(SpinChainModel("qxyc", 2, J=0.5)) == ((0b11, -1.0),)


ORBIT_CASES = [(kind, b, j, n) for kind, b in (("tfic", None), ("qxyc", None), ("mfic", 0.7),
                                               ("mfic", 1.3))
               for j in (1.0, 0.7) for n in range(2, 13)]


class TestFlipOrbits:
    @pytest.mark.parametrize("kind,b,j,n_sites", ORBIT_CASES)
    def test_one_pass_per_translation_orbit_covers_every_mask(self, kind, b, j, n_sites):
        # flip_sums_sweep's one pass per orbit rests on E(T s) == E(s) bit for bit
        model = SpinChainModel(kind, n_sites, J=j, B=b)
        energies = classical_energies(model)
        translated = energies[models._translate(np.arange(model.dim), n_sites)]
        assert translated.tobytes() == energies.tobytes()

        terms = flip_terms(model)
        representative, weight = models._flip_orbits(model)
        rotations = [representative]
        for _ in range(n_sites - 1):
            rotations.append(models._translate(rotations[-1], n_sites))
        assert representative == min(rotations)
        # the one orbit holds every mask
        assert sorted(set(rotations)) == sorted(mask for mask, _ in terms)
        total = sum(amplitude * amplitude for _, amplitude in terms)
        assert weight == pytest.approx(total, rel=1e-15)

    @pytest.mark.parametrize("j", [1.0, 0.7])
    def test_two_site_orbits(self, j):
        # tfic's two single flips are one orbit; qxyc's two bonds one merged mask
        _, weight = models._flip_orbits(SpinChainModel("tfic", 2, J=j))
        assert weight == 2 * (j * j)
        assert models._flip_orbits(SpinChainModel("qxyc", 2, J=j)) == (0b11, 4 * (j * j))


class TestStackSlices:
    @pytest.mark.parametrize("count", [1, 2, 7, 1000])
    @pytest.mark.parametrize(
        "item_bytes", [1, 8, 3 * 8 * 256, models._STACK_BYTES - 1, models._STACK_BYTES,
                       models._STACK_BYTES + 1, 5 * models._STACK_BYTES]
    )
    def test_slices_cover_the_range_within_the_budget(self, count, item_bytes):
        slices = list(stack_slices(count, item_bytes))
        assert [i for at in slices for i in range(count)[at]] == list(range(count))
        assert all(at.step is None and at.start < at.stop <= count for at in slices)
        for at in slices:
            items = at.stop - at.start
            assert items * item_bytes <= models._STACK_BYTES or items == 1
        # as many items a slice as fit, so no more slices than needed
        per_slice = max(1, models._STACK_BYTES // item_bytes)
        assert len(slices) == -(-count // per_slice)

    def test_no_items_no_slices(self):
        assert list(stack_slices(0, 8)) == []

    def test_a_generator(self):
        # a loop of a thousand one-item slices must not hold them all at once
        assert isinstance(stack_slices(1000, models._STACK_BYTES), types.GeneratorType)


class TestMemoryGuards:
    def test_thirteen_sites_fit_the_sectors_but_not_the_dense_route(self, monkeypatch):
        # at 8 GB of physical memory: 2 real 16384x16384 arrays take 4.3 GB
        # (N = 14) and 2 of 32768x32768 17 GB (N = 15), 14 complex 8192x8192
        # ones 15 GB; only the guards run, so nothing is allocated
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8 * 2**30 // 4096}
        monkeypatch.setattr(models.os, "sysconf", pages.__getitem__)
        model = SpinChainModel("tfic", 13)
        require_sectors_fit(model)
        require_sectors_fit(SpinChainModel("tfic", 14))
        with pytest.raises(ValueError, match="too large for the dense route"):
            require_dense_fits(model)
        with pytest.raises(ValueError, match="too large for the sector route"):
            require_sectors_fit(SpinChainModel("tfic", 15))

    def test_evolve_record_peak_within_its_budget(self):
        # the records x 2^N arrays dominate at many records: the two marches'
        # column labels, compared in row chunks, fit the guard's budget
        model, n_records = SpinChainModel("tfic", 6), 5000
        tracemalloc.start()
        try:
            evolve(model, 1.0, 1.0, 0.1, n_records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= models._RECORD_ARRAYS * n_records * model.dim * 8

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_flip_sweep_peak_within_its_budget(self, kind, b):
        # the count passes hold chunks of the states and the beta loop
        # chunks of the classes, so no array spans the 2^20 states, which
        # at 8 bytes a state would take 64 stack budgets
        model, betas = SpinChainModel(kind, 20, B=b), np.geomspace(1e-3, 40.0, 24)
        tracemalloc.start()
        try:
            flip_sums_sweep(model, betas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * models._STACK_BYTES

    @pytest.mark.parametrize("kind,b", [("tfic", None), ("qxyc", None), ("mfic", 0.7)])
    def test_sector_peak_within_its_budget(self, kind, b):
        # one call holds the basis, one block's V temporaries and the
        # blocks: under two d x d arrays at N = 10, within the guard's budget
        model = SpinChainModel(kind, 10, B=b)
        tracemalloc.start()
        try:
            symmetry_sectors(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= models._SECTOR_ARRAYS * 8 * 4**model.n_sites
        assert peak < 2 * 8 * 4**model.n_sites
