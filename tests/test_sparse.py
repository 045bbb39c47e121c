"""Storage, extraction and the two solve backends."""
import numpy as np
import pytest
import scipy.sparse as sp

from mptop.sparse import (
    CostLedger,
    DenseCholesky,
    IndexSet,
    IterativeSolveError,
    SingularMatrixError,
    SymmetricSparse,
    extract,
    factorize,
)

CHAIN3 = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])


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

    def test_positions_in(self):
        sup = IndexSet([1, 4, 7, 9], 10)
        sub = IndexSet([4, 9], 10)
        assert sub.positions_in(sup).tolist() == [1, 3]
        with pytest.raises(ValueError):
            IndexSet([2], 10).positions_in(sup)


class TestExtract:
    def test_identity_block(self):
        K = SymmetricSparse.from_dense(np.eye(3))
        blk = extract(K, IndexSet([0, 2], 3), IndexSet([0, 2], 3))
        np.testing.assert_array_equal(blk.toarray(), np.eye(2))

    def test_hand_read_entries(self):
        # row 1 of the 3-DOF chain at columns {0, 2} reads [-1, -1]
        K = SymmetricSparse.from_dense(CHAIN3)
        blk = extract(K, IndexSet([1], 3), IndexSet([0, 2], 3))
        np.testing.assert_array_equal(blk.toarray(), [[-1.0, -1.0]])

    def test_empty_rows(self):
        K = SymmetricSparse.from_dense(CHAIN3)
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
        K = SymmetricSparse.from_dense(CHAIN3)
        with pytest.raises(ValueError):
            extract(K, IndexSet([0], 4), IndexSet([0], 3))


class TestSymmetricSparse:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymmetricSparse.from_dense([[1.0, 2.0], [0.0, 1.0]])

    def test_bandwidth(self):
        K = SymmetricSparse.from_dense(CHAIN3)
        assert K.bandwidth == 1
        assert SymmetricSparse.from_dense(np.eye(4)).bandwidth == 0


class TestFactorize:
    def test_identity_solve(self):
        K = SymmetricSparse.from_dense(np.eye(4))
        f = factorize(K)
        B = np.arange(8.0).reshape(4, 2)
        np.testing.assert_allclose(f.solve(B), B, atol=1e-14)

    def test_two_by_two_hand_elimination(self):
        # [[2,-1],[-1,2]] x = [1,0]: eliminate row 0 -> 1.5 x1 = 0.5 -> x = [2/3, 1/3]
        K = SymmetricSparse.from_dense([[2.0, -1.0], [-1.0, 2.0]])
        x = factorize(K).solve(np.array([1.0, 0.0]))
        np.testing.assert_allclose(x, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_singular_direct(self):
        K = SymmetricSparse.from_dense([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            factorize(K, "direct")

    def test_singular_cg(self):
        K = SymmetricSparse.from_dense([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises((SingularMatrixError, IterativeSolveError)):
            factorize(K, "cg").solve(np.array([1.0, -1.0]))

    def test_zero_rhs(self):
        rng = np.random.default_rng(1)
        K = random_spd_banded(12, 3, rng)
        X = factorize(K).solve(np.zeros((12, 3)))
        np.testing.assert_array_equal(X, 0.0)

    def test_explicit_inverse_columns(self):
        # inverse of [[2,-1],[-1,2]] is (1/3) [[2,1],[1,2]]
        K = SymmetricSparse.from_dense([[2.0, -1.0], [-1.0, 2.0]])
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
        K = SymmetricSparse.from_dense(CHAIN3)
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
        assert f.solve_calls == 5 and f.rhs_solved == 10


class TestBackendEquivalence:
    @pytest.mark.parametrize("n,band", [(40, 3), (160, 6), (500, 8)])
    def test_direct_vs_cg(self, n, band):
        rng = np.random.default_rng(n)
        K = random_spd_banded(n, band, rng)
        B = rng.normal(size=(n, 3))
        Xd = factorize(K, "direct").solve(B)
        Xi = factorize(K, "cg", tol=1e-10).solve(B)
        err = np.abs(Xd - Xi).max() / np.abs(Xd).max()
        assert err <= 1e-7

    def test_cg_residual_tolerance(self):
        rng = np.random.default_rng(9)
        K = random_spd_banded(120, 5, rng)
        b = rng.normal(size=120)
        x = factorize(K, "cg", tol=1e-10).solve(b)
        assert np.linalg.norm(K.mat @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_ichol_breakdown_falls_back_to_jacobi(self):
        # SPD but not an M-matrix: zero-fill incomplete Cholesky hits a
        # non-positive pivot, and the diagonal preconditioner takes over
        K = SymmetricSparse.from_dense(
            [[3.0, -2.0, 0.0, 2.0], [-2.0, 3.0, -2.0, 0.0],
             [0.0, -2.0, 3.0, -2.0], [2.0, 0.0, -2.0, 3.0]])
        f = factorize(K, "cg", tol=1e-12)
        assert f._pc[0] == "jacobi"
        b = np.array([1.0, 2.0, -1.0, 0.5])
        x = f.solve(b)
        np.testing.assert_allclose(K.mat @ x, b, atol=1e-10)

    def test_cg_iteration_cap(self):
        # 5-point Laplacian on a 12x12 grid has fill, so IC(0) is not exact
        g = 12
        lap1 = sp.diags([2.0 * np.ones(g), -np.ones(g - 1), -np.ones(g - 1)],
                        [0, 1, -1])
        K = SymmetricSparse(
            (sp.kron(sp.identity(g), lap1) + sp.kron(lap1, sp.identity(g))
             + 0.01 * sp.identity(g * g)).tocsr())
        rng = np.random.default_rng(10)
        with pytest.raises(IterativeSolveError) as err:
            factorize(K, "cg", tol=1e-12, maxiter=2).solve(rng.normal(size=g * g))
        assert "residual" in str(err.value)


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
        with pytest.raises(SingularMatrixError):
            DenseCholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestLedgerPhases:
    def test_phase_context(self):
        ledger = CostLedger()
        K = SymmetricSparse.from_dense(np.eye(3))
        f = factorize(K, ledger=ledger)
        with ledger.phase("adjoint"):
            f.solve(np.ones(3), ledger=ledger)
        f.solve(np.ones(3), ledger=ledger)
        assert ledger.count(op="solve", phase="adjoint") == 1
        assert ledger.count(op="solve", phase="response") == 1
