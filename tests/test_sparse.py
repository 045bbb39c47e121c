"""Storage, extraction and the sparse and dense solvers."""
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from scipy.linalg import cho_solve_banded, cholesky_banded

import mptop.sparse
from mptop import build_problem1, build_problem2, evaluate, optimize
from mptop.fem import DesignField, Filter, Grid, assemble
from mptop.sparse import (
    BLOCKED_BAND,
    BLOCKED_SOLVE_COLUMNS,
    BandStorageError,
    CostLedger,
    DenseCholesky,
    IndexSet,
    SingularMatrixError,
    SymmetricSparse,
    _flops_banded_factor,
    _flops_banded_solve,
    _solve_by_blocks,
    band_storage,
    extract,
    factorize,
    principal,
)

CHAIN3 = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


def clamped_plane_stress(nelx, nely, seed=0):
    """Plane-stress K of a random-density grid, left edge clamped (SPD)."""
    grid = Grid(nelx, nely, physics="plane-stress")
    x = np.random.default_rng(seed).uniform(0.3, 1.0, grid.n_elems)
    K = assemble(grid, DesignField(grid, x, Filter(grid, 1.5)))
    left = grid.node(np.arange(nely + 1), 0)
    free = IndexSet(np.concatenate([2 * left, 2 * left + 1]),
                    grid.n_dofs).complement()
    return principal(K, free)


def _to_banded_lower(row, col, data, n, k):
    """Reference band fill, by masked fancy indexing: LAPACK lower storage
    ab[i - j, j] = A[i, j] for i >= j."""
    ab = np.zeros((k + 1, n))
    mask = row >= col
    ab[row[mask] - col[mask], col[mask]] = data[mask]
    return ab


def _transposed_band(ab):
    """The band of M^T in LAPACK upper storage, for ``ab`` the lower
    storage of M, and the other way round: ab[d, j] <-> up[k - d, j + d]."""
    k, n = ab.shape[0] - 1, ab.shape[1]
    out = np.zeros_like(ab)
    for d in range(k + 1):
        out[k - d, d:] = ab[d, :n - d]
    return out


def _reference_storage(K):
    """Reference fill of ``K``'s band storage, by dense slicing: its lower
    band, (k + 1) x n."""
    A = K.toarray()
    row, col = np.nonzero(np.tril(A))
    return _to_banded_lower(row, col, A[row, col], K.n, K.bandwidth)


def _fresh_python(code):
    """What ``code`` prints, run in a new interpreter on this mptop."""
    src = Path(mptop.sparse.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=60).stdout.strip()


def random_spd_banded(n, band, rng):
    """Diagonally dominant symmetric band matrix (SPD by Gershgorin)."""
    diags = [rng.uniform(-1.0, 1.0, n - d) for d in range(1, band + 1)]
    mat = sp.diags(diags, offsets=range(1, band + 1), shape=(n, n))
    mat = mat + mat.T
    rowsum = np.asarray(abs(mat).sum(axis=1)).ravel()
    mat = mat + sp.diags(rowsum + rng.uniform(0.5, 1.5, n))
    return SymmetricSparse(mat.tocsr())


class TestIndexSet:
    def test_sorted_unique(self):
        s = IndexSet([3, 1, 3, 0], n=5)
        assert s.ids.tolist() == [0, 1, 3]
        assert len(s) == 3
        assert 3 in s and 2 not in s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            IndexSet([0, 5], n=5)
        with pytest.raises(ValueError):
            IndexSet([-1], n=5)

    def test_set_algebra(self):
        a = IndexSet([0, 1, 2], 6)
        b = IndexSet([2, 3], 6)
        assert a.intersect(b).ids.tolist() == [2]
        assert a.union(b).ids.tolist() == [0, 1, 2, 3]
        assert a.minus(b).ids.tolist() == [0, 1]
        assert b.complement().ids.tolist() == [0, 1, 4, 5]

    def test_equal_sets_hash_equal(self):
        a = IndexSet([4, 1, 7], 10)
        assert a == IndexSet([1, 4, 7], 10)
        assert hash(a) == hash(IndexSet([1, 4, 7], 10))
        assert len({a, IndexSet([7, 4, 1], 10), IndexSet([1, 4], 10)}) == 2
        assert a != IndexSet([1, 4, 7], 11)

    def test_positions_in(self):
        sup = IndexSet([1, 4, 7, 9], 10)
        sub = IndexSet([4, 9], 10)
        assert sub.positions_in(sup).tolist() == [1, 3]
        with pytest.raises(ValueError):
            IndexSet([2], 10).positions_in(sup)


class TestExtract:
    def test_identity_block(self):
        K = SymmetricSparse(np.eye(3))
        blk = extract(K, IndexSet([0, 2], 3), IndexSet([0, 2], 3))
        np.testing.assert_array_equal(blk.toarray(), np.eye(2))

    def test_hand_read_entries(self):
        # row 1 of the 3-DOF chain at columns {0, 2} reads [-1, -1]
        K = SymmetricSparse(CHAIN3)
        blk = extract(K, IndexSet([1], 3), IndexSet([0, 2], 3))
        np.testing.assert_array_equal(blk.toarray(), [[-1.0, -1.0]])

    def test_empty_rows(self):
        K = SymmetricSparse(CHAIN3)
        blk = extract(K, IndexSet([], 3), IndexSet([0, 1], 3))
        assert blk.shape == (0, 2)

    def test_transpose_pairs(self):
        rng = np.random.default_rng(0)
        K = random_spd_banded(30, 4, rng)
        r = IndexSet(rng.choice(30, 7, replace=False), 30)
        c = IndexSet(rng.choice(30, 11, replace=False), 30)
        a = extract(K, r, c).toarray()
        b = extract(K, c, r).toarray()
        np.testing.assert_array_equal(a.T, b)

    def test_wrong_dimension(self):
        K = SymmetricSparse(CHAIN3)
        with pytest.raises(ValueError):
            extract(K, IndexSet([0], 4), IndexSet([0], 3))


class TestBlockMaps:
    def test_gather_matches_fancy_indexing(self):
        rng = np.random.default_rng(21)
        grid = Grid(6, 5, physics="plane-stress")
        x = rng.uniform(0.2, 1.0, grid.n_elems)
        K = assemble(grid, DesignField(grid, x, Filter(grid, 1.5)))
        for _ in range(25):
            r = IndexSet(rng.choice(K.n, rng.integers(0, K.n + 1),
                                    replace=False), K.n)
            c = IndexSet(rng.choice(K.n, rng.integers(0, K.n + 1),
                                    replace=False), K.n)
            ref = K.mat[r.ids][:, c.ids]
            for _ in range(2):      # the second call reads the kept map
                blk = extract(K, r, c)
                assert blk.shape == ref.shape
                assert blk.has_sorted_indices
                np.testing.assert_array_equal(blk.toarray(), ref.toarray())

    def test_maps_are_kept_per_pattern_by_content(self):
        grid = Grid(4, 3, physics="plane-stress")
        flt = Filter(grid, 1.5)
        K1 = assemble(grid, DesignField(grid, np.full(12, 0.4), flt))
        K2 = assemble(grid, DesignField(grid, np.full(12, 0.9), flt))
        assert K1.pattern is K2.pattern
        idx = IndexSet(np.arange(5, K1.n), K1.n)
        cols = IndexSet(np.arange(5), K1.n)
        first = K1.pattern.block(idx, cols)
        again = IndexSet(idx.ids.copy(), K1.n)     # equal, not identical
        assert K2.pattern.block(again, cols) is first
        # a principal block keeps its band map in the parent's pattern; its
        # CSR, read here, is the block's own
        band = K1.pattern.band(idx)
        assert K2.pattern.band(again) is band
        np.testing.assert_array_equal(principal(K2, again).toarray(),
                                      K2.toarray()[5:, 5:])
        assert K2.pattern.band(idx) is band
        assert (idx, idx) not in K2.pattern._blocks

    def test_pattern_keeps_band_maps_only(self):
        # after an elementary run, the pattern keeps one band map per free
        # set, at most 8 bytes per lower entry, and no principal block's CSR
        p = build_problem1(30, 30, m=14, seed=4)
        optimize(p, pipeline="elementary", max_iters=2)
        pattern = assemble(p.grid, p.design(p.x0)).pattern
        frees = {aset.free for aset in p.sets}
        assert set(pattern._bands) == frees
        for idx, band in pattern._bands.items():
            kept = [a.nbytes for a in vars(band).values()
                    if isinstance(a, np.ndarray)]
            assert len(kept) == 2 and sum(kept) <= 8 * band.lower.size
            assert band.n == len(idx)
            assert (idx, idx) not in pattern._blocks

    @pytest.mark.parametrize("nelx, nely, narrow", [(40, 40, False),
                                                    (5, 60, True)])
    def test_slot_fill_matches_reference_band(self, nelx, nely, narrow):
        K = clamped_plane_stress(nelx, nely, seed=4)
        band = K.pattern.band()
        assert (K.bandwidth < BLOCKED_BAND) == narrow
        assert band.bandwidth == K.bandwidth
        np.testing.assert_array_equal(band.fill(K.mat.data),
                                      _reference_storage(K))

    @pytest.mark.parametrize("nelx, nely, narrow", [(40, 40, False),
                                                    (5, 60, True)])
    def test_lower_factor_matches_upper(self, nelx, nely, narrow):
        # L from the lower storage is U^T from LAPACK's upper storage of
        # the same band
        K = clamped_plane_stress(nelx, nely, seed=4)
        assert (K.bandwidth < BLOCKED_BAND) == narrow
        ref = cholesky_banded(_transposed_band(_reference_storage(K)),
                              lower=False)
        got = _transposed_band(factorize(K)._cb)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("pipeline", ["condensed", "elementary"])
    def test_ordering_found_once_per_block(self, monkeypatch, pipeline):
        calls = []

        class CountingBand(mptop.sparse.Band):
            def __init__(self, pattern, idx=None):
                calls.append(idx)
                super().__init__(pattern, idx)
        monkeypatch.setattr(mptop.sparse, "Band", CountingBand)
        p = build_problem2(4, 30, 2, [[0.5, 2.0], [1.0, -1.0]])
        res = optimize(p, pipeline=pipeline, max_iters=3, tol=0.0,
                       keep_ledgers=True)
        blocks = (1 if pipeline == "condensed"
                  else len({aset.free for aset in p.sets}))
        factorized = sum(led.count(op="factorize", matrix="sparse")
                         for led in res.ledgers)
        assert factorized == 3 * blocks
        assert len(calls) == blocks


class TestSymmetricSparse:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricSparse([[1.0, 2.0], [0.0, 1.0]])

    def test_bandwidth(self):
        K = SymmetricSparse(CHAIN3)
        assert K.bandwidth == 1
        assert SymmetricSparse(np.eye(4)).bandwidth == 0

    def test_principal_block_matches_constructor(self):
        # the trusted path must store exactly what the checking one stores
        grid = Grid(7, 5, physics="plane-stress")
        x = np.random.default_rng(11).uniform(0.2, 1.0, grid.n_elems)
        K = assemble(grid, DesignField(grid, x, Filter(grid, 1.5)))
        idx = IndexSet(np.arange(3, K.n, 2), K.n)
        checked = SymmetricSparse(extract(K, idx, idx))
        trusted = principal(K, idx)
        assert trusted.n == checked.n == len(idx)
        assert trusted.bandwidth == checked.bandwidth
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(trusted.mat, attr),
                                          getattr(checked.mat, attr))


class TestFactorize:
    def test_identity_solve(self):
        K = SymmetricSparse(np.eye(4))
        f = factorize(K)
        B = np.arange(8.0).reshape(4, 2)
        np.testing.assert_allclose(f.solve(B), B, atol=1e-14)

    def test_two_by_two_hand_elimination(self):
        # [[2,-1],[-1,2]] x = [1,0]: eliminate row 0 -> 1.5 x1 = 0.5 -> x = [2/3, 1/3]
        K = SymmetricSparse([[2.0, -1.0], [-1.0, 2.0]])
        x = factorize(K).solve(np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_singular_direct(self):
        K = SymmetricSparse([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            factorize(K)

    def test_zero_rhs(self):
        rng = np.random.default_rng(1)
        K = random_spd_banded(12, 3, rng)
        X = factorize(K).solve(np.zeros((12, 3)))
        np.testing.assert_array_equal(X, 0.0)

    def test_explicit_inverse_columns(self):
        # inverse of [[2,-1],[-1,2]] is (1/3) [[2,1],[1,2]]
        K = SymmetricSparse([[2.0, -1.0], [-1.0, 2.0]])
        X = factorize(K).solve(np.eye(2))
        np.testing.assert_allclose(X, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0,
                                   rtol=1e-14)

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            K = random_spd_banded(10, 3, rng)
            B = rng.normal(size=(10, 4))
            X = factorize(K).solve(B)
            resid = np.abs(K.mat @ X - B).max()
            assert resid <= 1e-10 * np.abs(B).max()

    def test_dimension_mismatch(self):
        K = SymmetricSparse(CHAIN3)
        with pytest.raises(ValueError):
            factorize(K).solve(np.zeros(4))

    def test_reuse_counters(self):
        ledger = CostLedger()
        rng = np.random.default_rng(3)
        K = random_spd_banded(20, 4, rng)
        f = factorize(K, ledger=ledger)
        for _ in range(5):
            f.solve(rng.normal(size=(20, 2)), ledger=ledger)
        assert ledger.count(op="factorize", matrix="sparse") == 1
        assert ledger.count(op="solve", matrix="sparse") == 5
        assert ledger.rhs_total(matrix="sparse") == 10


class TestOrdering:
    def test_orientation_does_not_set_the_band(self):
        # nodes along the short side: 21 per line, neighbours 22 apart
        x = np.full(20 * 400, 0.5)
        for physics, short_band in (("conduction", 22), ("plane-stress", 45)):
            tall, wide = (assemble(g, DesignField(g, x, Filter(g, 1.5)))
                          for g in (Grid(20, 400, physics),
                                    Grid(400, 20, physics)))
            assert tall.bandwidth == wide.bandwidth == short_band
            # nodes numbered along the short side: dropping the first
            # short_band DOFs clamps a short edge, leaving the band as it is
            for K in (tall, wide):
                K = principal(K, IndexSet(np.arange(short_band, K.n), K.n))
                assert factorize(K).bandwidth == K.bandwidth == short_band

    def test_square_grid_keeps_natural_order(self):
        for size, natural in ((24, 53), (40, 85)):
            K = clamped_plane_stress(size, size)
            assert K.bandwidth == natural
            assert factorize(K).bandwidth == natural

    def test_padded_solves_match_spsolve(self):
        # a narrow band, stored and factored at its own width
        K = clamped_plane_stress(5, 60, seed=3)
        f = factorize(K)
        assert f.bandwidth == K.bandwidth < BLOCKED_BAND
        rng = np.random.default_rng(12)
        A = K.mat.tocsc()
        b = rng.normal(size=K.n)
        ref = spl.spsolve(A, b)
        assert np.abs(f.solve(b) - ref).max() <= 1e-10 * np.abs(ref).max()
        B = rng.normal(size=(K.n, 4))
        ref = spl.spsolve(A, B)
        assert np.abs(f.solve(B) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_ledger_counts_the_factorized_band(self):
        K = clamped_plane_stress(4, 50)
        ledger = CostLedger()
        f = factorize(K, ledger=ledger)
        f.solve(np.ones((K.n, 3)), ledger=ledger)
        assert f.bandwidth == K.bandwidth < BLOCKED_BAND
        assert ledger.flops_total(op="factorize") == \
            _flops_banded_factor(K.n, K.bandwidth)
        assert ledger.flops_total(op="solve") == \
            _flops_banded_solve(K.n, K.bandwidth, 3)

    def test_band_allocation_failure_is_named(self, monkeypatch):
        K = clamped_plane_stress(3, 30)
        k = factorize(K).bandwidth

        def no_memory(*args):
            raise MemoryError
        monkeypatch.setattr(mptop.sparse.Band, "fill", no_memory)
        with pytest.raises(BandStorageError) as err:
            factorize(K)
        assert isinstance(err.value, MemoryError)
        msg = str(err.value)
        assert f"n={K.n}" in msg
        assert f"bandwidth {k}" in msg
        assert f"{K.pattern.band().size * 8} bytes" in msg


class TestBlockedSolve:
    """Level-3 block solves on the pbtrf factor against LAPACK's pbtrs."""

    COLUMNS = (BLOCKED_SOLVE_COLUMNS - 1, BLOCKED_SOLVE_COLUMNS,
               BLOCKED_SOLVE_COLUMNS + 1)

    @staticmethod
    def factor(band, n, seed=0):
        K = random_spd_banded(n, band, np.random.default_rng(seed))
        f = factorize(K)
        assert f.bandwidth == band
        return f

    @staticmethod
    def pbtrs(f, K, B):
        """LAPACK's pbtrs on the whole band's pbtrf factor, in K's order."""
        coo = K.mat.tocoo()
        ab = _to_banded_lower(coo.row, coo.col, coo.data, K.n, f.bandwidth)
        return cho_solve_banded((cholesky_banded(ab, lower=True), True), B)

    @staticmethod
    def spy_tbtrs(monkeypatch):
        """The columns of each call of the few-column kernel, in order."""
        calls = []
        tbtrs = mptop.sparse._tbtrs
        monkeypatch.setattr(mptop.sparse, "_tbtrs",
                            lambda ab, Y, forward: calls.append(Y.shape[1])
                            or tbtrs(ab, Y, forward))
        return calls

    @pytest.mark.parametrize("band, n", [
        (40, 195), (40, 221), (20, 30),     # k = 20: pbtrs at these columns
        (101, 303), (101, 340), (125, 375), (125, 400)])
    def test_matches_pbtrs(self, band, n, monkeypatch):
        # n a multiple of k, and not one; the band sweeps forward and back
        # by dtbtrs at few columns
        K = random_spd_banded(n, band, np.random.default_rng(0))
        f = factorize(K)
        calls = self.spy_tbtrs(monkeypatch)
        rng = np.random.default_rng(band)
        for q in self.COLUMNS:
            B = rng.normal(size=(f.n, q))
            kept = B.copy()
            ref = self.pbtrs(f, K, B)
            got = f.solve(B)
            assert np.array_equal(B, kept)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert calls == [q for q in self.COLUMNS
                         if not _solve_by_blocks(band, q) for _ in range(2)]

    @pytest.mark.parametrize("band", [0, 13])
    def test_narrow_bands_take_pbtrs(self, band, monkeypatch):
        # k = 0 (a diagonal) never reaches the blocks' divmod(n, k); at
        # k = 13, pbtrs until columns x k reach the wide-band crossover
        rng = np.random.default_rng(band)
        K = (SymmetricSparse(sp.diags(rng.uniform(0.5, 1.5, 300)))
             if band == 0 else random_spd_banded(300, band, rng))
        f = factorize(K)
        assert f.bandwidth == band
        calls = self.spy_tbtrs(monkeypatch)
        wide = -(-BLOCKED_SOLVE_COLUMNS * BLOCKED_BAND // 13)   # 28
        columns = (BLOCKED_SOLVE_COLUMNS, wide - 1, wide)
        for q in columns:
            B = rng.normal(size=(f.n, q))
            ref = self.pbtrs(f, K, B)
            got = f.solve(B)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        # every width takes tbtrs on the diagonal, all but `wide` at k = 13,
        # each swept forward and back
        assert calls == [q for q in [BLOCKED_SOLVE_COLUMNS, wide - 1]
                         + [wide] * (band == 0) for _ in range(2)]

    def test_vector_and_empty_rhs(self):
        f = self.factor(101, 250)
        b = np.random.default_rng(1).normal(size=f.n)
        x = f.solve(b)
        assert x.shape == (f.n,)
        assert np.allclose(f.solve(np.tile(b[:, None],
                                           BLOCKED_SOLVE_COLUMNS))[:, 3], x,
                           rtol=1e-13, atol=0.0)
        assert f.solve(np.zeros((f.n, 0))).shape == (f.n, 0)

    @pytest.mark.parametrize("q", [1, 12])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_raises(self, q, bad):
        f = self.factor(40, 200)
        assert _solve_by_blocks(40, q) == (q == 12)
        B = np.ones((f.n, q))
        B[17, q - 1] = bad
        with pytest.raises(ValueError):
            f.solve(B)

    @pytest.mark.parametrize("path", ["tbtrs", "blocks", "dense"])
    def test_inf_rhs_raises_on_every_path(self, path, monkeypatch):
        # the right-hand side is checked once, before any kernel runs
        if path == "dense":
            f, q = DenseCholesky(CHAIN3), 2
        else:
            f = self.factor(101, 350)
            q = BLOCKED_SOLVE_COLUMNS if path == "blocks" else 1
            assert _solve_by_blocks(101, q) == (path == "blocks")
        for name in ("_dpotrs", "_tbtrs", "_solve_band_blocks"):
            monkeypatch.setattr(mptop.sparse, name, None)
        B = np.ones((f.n, q))
        B[1, q - 1] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            f.solve(B)

    @pytest.mark.parametrize("dense", [False, True])
    def test_nan_matrix_raises(self, dense):
        K = clamped_plane_stress(5, 20)
        data = K.mat.data.copy()
        data[7] = np.nan
        K = SymmetricSparse.trusted(K.pattern, data)
        with pytest.raises(ValueError, match="infs or NaNs"):
            DenseCholesky(K.toarray()) if dense else factorize(K)

    def test_reads_the_factor_in_place(self):
        import tracemalloc

        f = self.factor(101, 3000)
        B = np.ones((f.n, BLOCKED_SOLVE_COLUMNS))
        tracemalloc.start()
        try:
            f.solve(B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the solution and per-block temporaries, no copy of the band
        assert peak < B.nbytes + f._cb.nbytes // 4

    def test_one_ledger_event_per_call(self):
        f = self.factor(101, 350)
        ledger = CostLedger()
        q = BLOCKED_SOLVE_COLUMNS + 5
        f.solve(np.ones((f.n, q)), ledger=ledger)
        assert ledger.count(op="solve", matrix="sparse") == 1
        assert ledger.rhs_total(matrix="sparse") == q
        assert ledger.flops_total(op="solve") == \
            _flops_banded_solve(f.n, 101, q) == 4.0 * f.n * 101 * q


class TestSplit:
    """Each band factors whole and solves in k-row blocks, on the calling
    thread: against dense solves, in lent storage, from two callers at
    once, at a bad pivot, and with no thread started."""

    # (n, k): a whole number of blocks; a partial last block, at half-widths
    # below and above BLOCKED_BAND; n below 3k; k = 1
    SHAPES = [(50, 20), (120, 40), (303, 40), (301, 41), (331, 101), (9, 1)]

    @pytest.mark.parametrize("columns", [1, 4, 9, 10, 33])
    @pytest.mark.parametrize("n, k", SHAPES)
    def test_matches_dense_solve(self, n, k, columns):
        K = random_spd_banded(n, k, np.random.default_rng(n + k))
        assert K.bandwidth == k
        B = np.random.default_rng(columns).normal(size=(n, columns))
        ref = np.linalg.solve(K.toarray(), B)
        got = factorize(K).solve(B)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n, k", SHAPES)
    def test_lent_storage_gives_the_same_bits(self, n, k):
        K = random_spd_banded(n, k, np.random.default_rng(1))
        lent = np.full(K.pattern.band().size + 7, np.nan)
        B = np.random.default_rng(2).normal(size=(n, 12))
        assert np.array_equal(factorize(K, storage=lent).solve(B),
                              factorize(K).solve(B))

    @pytest.mark.parametrize("make, problem", [
        (lambda size: np.zeros(size, np.float32), "dtype float32"),
        (lambda size: np.zeros(size, np.int64), "dtype int64"),
        (lambda size: np.zeros(2 * size)[::2], r"has strides \(16,\):"),
        (lambda size: np.zeros(size - 1), "has 1559 elements"),
    ], ids=["float32", "int64", "stride-2", "short"])
    def test_malformed_storage_is_refused(self, make, problem, monkeypatch):
        # LAPACK reads lent storage through its data pointer as doubles: any
        # other buffer is refused, naming the problem, before a kernel runs
        p = build_problem1(10, 10, m=4)
        K = principal(assemble(p.grid, p.design(p.x0)), p.sets[0].free)
        size = K._band.size
        assert size == 1560
        ok = band_storage([K])
        expected = factorize(K).solve(np.ones(K.n))
        assert np.array_equal(factorize(K, storage=ok).solve(np.ones(K.n)),
                              expected)

        def no_kernel(ab):
            raise AssertionError("a kernel ran on malformed storage")

        monkeypatch.setattr(mptop.sparse, "_pbtrf", no_kernel)
        with pytest.raises(ValueError, match=problem):
            factorize(K, storage=make(size))

    def test_two_threads_give_the_bits_of_calls_in_turn(self):
        # two callers factorize and solve different blocks at once: the
        # elementary helper's case
        import threading

        mats = [random_spd_banded(900, 101, np.random.default_rng(5)),
                random_spd_banded(700, 45, np.random.default_rng(6))]
        rhs = [np.random.default_rng(7).normal(size=(K.n, q))
               for K, q in zip(mats, (16, 3))]

        def run(K, B):
            return factorize(K).solve(B)
        expected = [run(K, B) for K, B in zip(mats, rhs)]
        got, errors = [[] for _ in mats], []

        def work(i):
            try:
                for _ in range(15):
                    got[i].append(run(mats[i], rhs[i]))
            except Exception as exc:    # noqa: BLE001 - reported below
                errors.append(exc)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(i,))
                       for i in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        for runs, ref in zip(got, expected):
            assert len(runs) == 15
            assert all(np.array_equal(x, ref) for x in runs)

    @pytest.mark.parametrize("row", [37, 95, 177])
    def test_non_positive_pivot_names_its_row(self, row):
        K = random_spd_banded(200, 20, np.random.default_rng(8))
        A = K.toarray()
        A[row, row] = -1.0
        with pytest.raises(SingularMatrixError,
                           match=f"row {row} of the block"):
            factorize(SymmetricSparse(A))

    def test_import_starts_no_thread(self):
        assert _fresh_python("import threading, mptop; "
                             "print(threading.active_count())") == "1"

    def test_factor_and_solve_start_no_thread(self):
        # a tridiagonal band solved by tbtrs and, at 400 columns, by blocks
        assert _fresh_python(
            "import threading, numpy as np, scipy.sparse as sp, mptop; "
            "K = mptop.sparse.SymmetricSparse(sp.diags("
            "[-1.0, 4.0, -1.0], [-1, 0, 1], shape=(400, 400))); "
            "f = mptop.sparse.factorize(K); "
            "[f.solve(np.ones((400, q))) for q in (1, 400)]; "
            "print(threading.active_count())") == "1"


class TestBlasThreads:
    """Every factorization and solve runs on one OpenBLAS thread, and the
    caller's thread count is back after each call."""

    @staticmethod
    def counts():
        return [get() for get, _ in mptop.sparse._openblas_threads()]

    @staticmethod
    @contextmanager
    def caller_threads(count):
        """Run the block with scipy's OpenBLAS at ``count`` threads, then put
        back the counts found before; yields the counts set."""
        libs = mptop.sparse._openblas_threads()
        saved = [get() for get, _ in libs]
        try:
            for _, put in libs:
                put(count)
            yield [count] * len(libs)
        finally:
            for (_, put), old in zip(libs, saved):
                put(old)

    def watch(self, monkeypatch, *kernels):
        """The thread counts seen by each call of the named kernels of
        mptop.sparse, appended in call order."""
        inside = []
        for name in kernels:
            def spy(*args, real=getattr(mptop.sparse, name), **kwargs):
                inside.append(self.counts())
                return real(*args, **kwargs)
            monkeypatch.setattr(mptop.sparse, name, spy)
        return inside

    def test_scipy_openblas_is_found(self):
        if not sys.platform.startswith("linux"):
            pytest.skip("the lookup reads /proc/self/maps")
        assert len(mptop.sparse._openblas_threads()) >= 1

    @pytest.mark.parametrize("matrix, raises", [
        ([[2.0, -1.0], [-1.0, 2.0]], None),
        ([[1.0, 1.0], [1.0, 1.0]], SingularMatrixError)])
    def test_count_restored(self, matrix, raises, monkeypatch):
        K = SymmetricSparse(matrix)
        inside = self.watch(monkeypatch, "_pbtrf")
        with self.caller_threads(2) as before:
            if raises is None:
                factorize(K)
            else:
                with pytest.raises(raises):
                    factorize(K)
            assert self.counts() == before
        assert inside == [[1] * len(before)]

    # a factorization runs its kernel once, a solve twice, forward and back
    @pytest.mark.parametrize("kernel, band, columns, calls", [
        ("_pbtrf", 65, 0, 1),
        ("_pbtrf", 101, 0, 1),
        ("_tbtrs", 101, 4, 2),
        ("_solve_band_blocks", 101, BLOCKED_SOLVE_COLUMNS, 2),
    ], ids=["factor-65", "factor-101", "tbtrs", "blocks"])
    def test_kernel_runs_on_one_thread(self, kernel, band, columns, calls,
                                       monkeypatch):
        K = random_spd_banded(400, band, np.random.default_rng(7))
        inside = self.watch(monkeypatch, kernel)
        with self.caller_threads(2) as before:
            f = factorize(K)
            assert self.counts() == before
            if columns:
                f.solve(np.ones((K.n, columns)))
                assert self.counts() == before
        assert f.bandwidth == band
        assert inside == [[1] * len(before)] * calls

    def test_dense_cholesky_runs_on_one_thread(self, monkeypatch):
        inside = self.watch(monkeypatch, "_dpotrf", "_dpotrs")
        with self.caller_threads(2) as before:
            f = DenseCholesky(CHAIN3)
            assert self.counts() == before
            f.solve(np.ones(3))
            assert self.counts() == before
            with pytest.raises(SingularMatrixError):
                DenseCholesky(np.ones((2, 2)))
            assert self.counts() == before
        assert inside == [[1] * len(before)] * 3

    def test_concurrent_factorizations_restore_the_count(self, monkeypatch):
        import threading

        mats = [clamped_plane_stress(5, 60, seed=3),
                random_spd_banded(400, 101, np.random.default_rng(3))]
        assert mats[0].bandwidth < BLOCKED_BAND < mats[1].bandwidth
        inside = self.watch(monkeypatch, "_pbtrf", "_tbtrs")
        errors = []

        def work(K):
            try:
                for _ in range(25):
                    factorize(K).solve(np.ones(K.n))
            except Exception as exc:    # noqa: BLE001 - reported below
                errors.append(exc)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with self.caller_threads(2) as before:
                workers = [threading.Thread(target=work, args=(mats[i % 2],))
                           for i in range(6)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
                assert self.counts() == before
        finally:
            sys.setswitchinterval(old)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        # per round one factorization and its two one-column sweeps
        assert inside == [[1] * len(before)] * (6 * 25 * 3)

    @pytest.mark.parametrize("build", [
        lambda: build_problem1(70, 70, m=4),
        lambda: build_problem2(20, 60, 2, [[0.5, 2.0], [1.0, -1.0]]),
    ], ids=["p1-band-71", "p2-band-45"])
    def test_results_do_not_depend_on_the_callers_count(self, build):
        p = build()
        x = np.random.default_rng(5).uniform(0.3, 0.9, p.grid.n_elems)
        runs = []
        for count in (1, 2):
            with self.caller_threads(count):
                runs.append([evaluate(p, x, pipeline=pipe)
                             for pipe in ("condensed", "elementary")])
        for a, b in zip(*runs):
            for name in ("objective", "constraints", "d_objective",
                         "d_constraints"):
                assert np.asarray(getattr(a, name)).tobytes() \
                    == np.asarray(getattr(b, name)).tobytes(), name

    def test_helper_factorizes_on_one_thread(self, monkeypatch):
        # the elementary pipeline's helper thread enters the same scope: its
        # factorizations, like the caller's solves, run on one OpenBLAS
        # thread, and the caller's count is back after the evaluation
        import threading

        seen = []
        for name in ("_pbtrf", "_tbtrs", "_solve_band_blocks"):
            def spy(*args, name=name, real=getattr(mptop.sparse, name)):
                seen.append((name, threading.current_thread().name,
                             self.counts()))
                return real(*args)
            monkeypatch.setattr(mptop.sparse, name, spy)
        p = build_problem1(30, 30, m=14)     # 13 columns at k = 32: blocks
        with self.caller_threads(2) as before:
            evaluate(p, p.x0, pipeline="elementary")
            assert self.counts() == before
        helper = [name for name, thread, _ in seen
                  if thread.startswith("mptop-elementary")]
        # the first set factorizes on the calling thread, which solves all;
        # each later set on the helper
        assert helper == ["_pbtrf"] * (len(p.sets) - 1)
        assert all(counts == [1] * len(before) for _, _, counts in seen)

    def test_no_library_found(self, monkeypatch):
        monkeypatch.setattr(mptop.sparse, "_openblas_threads", lambda: ())
        K = clamped_plane_stress(5, 60, seed=3)
        assert K.bandwidth < BLOCKED_BAND
        b = np.ones(K.n)
        np.testing.assert_allclose(K.mat @ factorize(K).solve(b), b,
                                   rtol=0.0, atol=1e-9)

    def test_lookup_closes_its_files(self, monkeypatch):
        import builtins

        opened = []
        real_open = builtins.open

        def tracking_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return fh
        monkeypatch.setattr(builtins, "open", tracking_open)
        found = mptop.sparse._openblas_threads.__wrapped__()
        assert found == () or callable(found[0][0])
        assert opened or not sys.platform.startswith("linux")
        assert all(fh.closed for fh in opened)


class TestGilFree:
    """The band kernels release the GIL, so Python threads run meanwhile."""

    def test_counter_advances_during_a_factorization(self, monkeypatch):
        # A counter thread's ticks in the middle half of the band
        # factorization, against its ticks in the middle half of a control:
        # scipy's f2py cholesky_banded, which holds the GIL, factoring a copy
        # of the same band right before, in the same one-thread BLAS scope.
        # Both are measured the same way, so a neighbour process that takes a
        # core slows both alike, and the GIL hand-overs at each call's start
        # and end, which a loaded machine can stretch to milliseconds, fall
        # outside the windows counted
        import threading
        import time

        K = random_spd_banded(1200, 450, np.random.default_rng(11))
        factorize(K)    # builds the layout, warms LAPACK
        ticks, stop, spans = [], threading.Event(), []
        pbtrf = mptop.sparse._pbtrf

        def timed(kernel, ab):
            t0 = time.perf_counter()
            out = kernel(ab)
            spans.append((t0, time.perf_counter()))
            return out

        def f2py_pbtrf(ab):
            cholesky_banded(ab, overwrite_ab=True, lower=True,
                            check_finite=False)

        def timed_pbtrf(ab):
            timed(f2py_pbtrf, ab.copy(order="F"))
            return timed(pbtrf, ab)
        monkeypatch.setattr(mptop.sparse, "_pbtrf", timed_pbtrf)

        def counter():
            while not stop.is_set():
                ticks.append(time.perf_counter())
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        worker = threading.Thread(target=counter)
        try:
            worker.start()
            time.sleep(0.02)
            factorize(K)
        finally:
            stop.set()
            worker.join(timeout=10)
            sys.setswitchinterval(old)
        assert not worker.is_alive()
        rates = []
        for t0, t1 in spans:
            lo, hi = t0 + (t1 - t0) / 4, t1 - (t1 - t0) / 4
            n = np.searchsorted(ticks, hi) - np.searchsorted(ticks, lo)
            rates.append(n / (hi - lo))
        control, during = rates
        assert during > 10 * control, (during, control)


class TestDenseCholesky:
    def test_solve_and_counters(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        A = A @ A.T + 6 * np.eye(6)
        ledger = CostLedger()
        f = DenseCholesky(A, ledger=ledger)
        B = rng.normal(size=(6, 2))
        X = f.solve(B, ledger=ledger)
        np.testing.assert_allclose(A @ X, B, atol=1e-10)
        assert ledger.count(op="factorize", matrix="dense") == 1
        assert ledger.count(op="solve", matrix="dense") == 1

    def test_singular(self):
        # the second pivot is 1 - 1 = 0: named by its row, as a band's are
        with pytest.raises(SingularMatrixError, match="row 1"):
            DenseCholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_not_square(self):
        with pytest.raises(ValueError, match="square"):
            DenseCholesky(np.ones((2, 3)))


class TestLedgerPhases:
    def test_events_record_the_band(self):
        # sparse events carry the half-bandwidth factored or solved against
        K = clamped_plane_stress(4, 50)
        ledger = CostLedger()
        f = factorize(K, ledger=ledger)
        f.solve(np.ones((K.n, 3)), ledger=ledger)
        DenseCholesky(CHAIN3, ledger=ledger).solve(np.ones(3), ledger=ledger)
        assert [(e.matrix, e.op, e.bandwidth) for e in ledger.events] == [
            ("sparse", "factorize", K.bandwidth),
            ("sparse", "solve", K.bandwidth),
            ("dense", "factorize", None), ("dense", "solve", None)]

    def test_phase_is_a_solve_argument(self):
        # a solve records the phase it is called with, "response" by
        # default; a factorization always records "response"
        ledger = CostLedger()
        f = factorize(SymmetricSparse(np.eye(3)), ledger=ledger)
        f.solve(np.ones(3), ledger=ledger, phase="adjoint")
        f.solve(np.ones(3), ledger=ledger)
        d = DenseCholesky(CHAIN3, ledger=ledger)
        d.solve(np.ones((3, 2)), ledger=ledger, phase="adjoint")
        assert [(e.matrix, e.op, e.phase) for e in ledger.events] == [
            ("sparse", "factorize", "response"),
            ("sparse", "solve", "adjoint"), ("sparse", "solve", "response"),
            ("dense", "factorize", "response"), ("dense", "solve", "adjoint")]
        assert ledger.count(op="solve", phase="adjoint") == 2
        assert ledger.rhs_total(phase="adjoint") == 3
        assert ledger.rhs_total(phase="response") == 1


def test_import_leaves_out_the_graph_module():
    # the grid numbers its DOFs in banded order: no graph reordering loads
    out = _fresh_python("import sys, mptop; "
                        "print('scipy.sparse.csgraph' in sys.modules)")
    assert out == "False"
