"""Symmetric sparse matrices, submatrix selection and linear-solution backends.

Two backends are provided behind one :class:`Factorization` interface:

* ``direct`` — banded Cholesky (LAPACK ``pbtrf``/``pbtrs``); no fill-reducing
  reordering is applied, so the factorization cost tracks the bandwidth.
* ``cg`` — preconditioned conjugate gradients with a zero-fill incomplete
  Cholesky preconditioner (diagonal Jacobi fallback on breakdown).

Dense blocks arising from condensed systems always use a dense Cholesky
(:class:`DenseCholesky`) regardless of the backend chosen for the large
sparse systems.

All factorizations and solves can report into a :class:`CostLedger`, which
records one event per factorization / multi-RHS solve with its dimension,
right-hand-side count, an operation-count estimate and wall time.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, cholesky_banded, cho_solve_banded


class SingularMatrixError(RuntimeError):
    """Raised when a matrix expected to be SPD has a non-positive pivot."""


class IterativeSolveError(RuntimeError):
    """Raised when CG fails to reach the target residual within the cap."""


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

class IndexSet:
    """Sorted set of unique DOF indices in ``[0, n)``.

    Used both for boundary-condition bookkeeping and as a cheap stand-in for
    selection matrices: extracting rows/columns of a sparse matrix with two
    IndexSets realizes the product S_rows^T K S_cols.
    """

    __slots__ = ("ids", "n")

    def __init__(self, indices, n: int):
        ids = np.unique(np.asarray(indices, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise ValueError(
                f"index out of range: valid span is [0, {n}), got "
                f"[{ids[0]}, {ids[-1]}]"
            )
        self.ids = ids
        self.n = int(n)

    def __len__(self):
        return int(self.ids.size)

    def __iter__(self):
        return iter(self.ids)

    def __contains__(self, i):
        pos = np.searchsorted(self.ids, i)
        return pos < self.ids.size and self.ids[pos] == i

    def __eq__(self, other):
        return (
            isinstance(other, IndexSet)
            and self.n == other.n
            and np.array_equal(self.ids, other.ids)
        )

    def __repr__(self):
        return f"IndexSet({self.ids.tolist()}, n={self.n})"

    def complement(self) -> "IndexSet":
        mask = np.ones(self.n, dtype=bool)
        mask[self.ids] = False
        return IndexSet(np.nonzero(mask)[0], self.n)

    def intersect(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(np.intersect1d(self.ids, other.ids), self.n)

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(np.union1d(self.ids, other.ids), self.n)

    def minus(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(np.setdiff1d(self.ids, other.ids), self.n)

    def positions_in(self, other: "IndexSet") -> np.ndarray:
        """Positions of this set's members inside ``other`` (must be a superset)."""
        pos = np.searchsorted(other.ids, self.ids)
        if pos.size and (pos.max(initial=0) >= other.ids.size
                         or not np.array_equal(other.ids[pos], self.ids)):
            raise ValueError("IndexSet is not contained in the other set")
        return pos


# ---------------------------------------------------------------------------
# cost accounting
# ---------------------------------------------------------------------------

@dataclass
class CostEvent:
    op: str        # 'factorize' | 'solve'
    matrix: str    # 'sparse' | 'dense'
    dim: int
    nrhs: int
    flops: float
    phase: str
    seconds: float


@dataclass
class CostLedger:
    """Per-run record of factorization and solve events.

    ``phase`` labels let callers separate response evaluation from adjoint
    work; use the :meth:`phase` context manager around a code region.
    """

    events: list = field(default_factory=list)
    _phase: str = "response"

    class _Phase:
        def __init__(self, ledger, name):
            self.ledger, self.name = ledger, name

        def __enter__(self):
            self.prev = self.ledger._phase
            self.ledger._phase = self.name
            return self.ledger

        def __exit__(self, *exc):
            self.ledger._phase = self.prev
            return False

    def phase(self, name: str):
        return CostLedger._Phase(self, name)

    def record(self, op, matrix, dim, nrhs, flops, seconds):
        self.events.append(
            CostEvent(op, matrix, int(dim), int(nrhs), float(flops),
                      self._phase, float(seconds))
        )

    # -- aggregate views ----------------------------------------------------
    def count(self, op=None, matrix=None, phase=None) -> int:
        return sum(1 for e in self.events if self._match(e, op, matrix, phase))

    def rhs_total(self, op="solve", matrix=None, phase=None) -> int:
        return sum(e.nrhs for e in self.events if self._match(e, op, matrix, phase))

    def flops_total(self, op=None, matrix=None, phase=None) -> float:
        return sum(e.flops for e in self.events if self._match(e, op, matrix, phase))

    def seconds_total(self, op=None, matrix=None, phase=None) -> float:
        return sum(e.seconds for e in self.events if self._match(e, op, matrix, phase))

    @staticmethod
    def _match(e, op, matrix, phase):
        return ((op is None or e.op == op)
                and (matrix is None or e.matrix == matrix)
                and (phase is None or e.phase == phase))


# ---------------------------------------------------------------------------
# symmetric sparse storage
# ---------------------------------------------------------------------------

class SymmetricSparse:
    """Symmetric sparse matrix in CSR form with a cached bandwidth.

    The constructor symmetrizes numerically (averaging with the transpose) so
    that stored entries satisfy ``K[i, j] == K[j, i]`` exactly; assembly-order
    roundoff would otherwise break the symmetry tests downstream.
    """

    def __init__(self, matrix, bandwidth: int | None = None):
        mat = sp.csr_matrix(matrix)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if mat.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        skew = abs(mat - mat.T)
        scale = max(abs(mat).max(), 1.0)
        if skew.nnz and skew.max() > 1e-10 * scale:
            raise ValueError("matrix is not symmetric")
        mat = (mat + mat.T) * 0.5
        mat.sum_duplicates()
        self.mat = sp.csr_matrix(mat)
        self.n = mat.shape[0]
        self._bandwidth = bandwidth

    @classmethod
    def from_dense(cls, arr) -> "SymmetricSparse":
        return cls(sp.csr_matrix(np.asarray(arr, dtype=float)))

    @property
    def bandwidth(self) -> int:
        if self._bandwidth is None:
            coo = self.mat.tocoo()
            self._bandwidth = int(np.abs(coo.row - coo.col).max(initial=0))
        return self._bandwidth

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    def matvec(self, x):
        return self.mat @ x


def extract(K: SymmetricSparse, rows: IndexSet, cols: IndexSet) -> sp.csr_matrix:
    """Block of ``K`` at the given row/column index sets (CSR, |rows| x |cols|)."""
    if rows.n != K.n or cols.n != K.n:
        raise ValueError("index sets sized for a different matrix dimension")
    return sp.csr_matrix(K.mat[rows.ids][:, cols.ids])


# ---------------------------------------------------------------------------
# operation-count estimates used for the ledgers
# ---------------------------------------------------------------------------

def _flops_banded_factor(n, k):
    return n * (k * k + 3.0 * k)


def _flops_banded_solve(n, k, nrhs):
    return 4.0 * n * k * nrhs


def _flops_dense_factor(n):
    return n ** 3 / 3.0


def _flops_dense_solve(n, nrhs):
    return 2.0 * n * n * nrhs


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

def _to_banded_upper(mat: sp.csr_matrix, k: int) -> np.ndarray:
    """LAPACK upper-banded storage: ab[k + i - j, j] = A[i, j] for i <= j."""
    n = mat.shape[0]
    ab = np.zeros((k + 1, n))
    coo = mat.tocoo()
    mask = coo.row <= coo.col
    ab[k + coo.row[mask] - coo.col[mask], coo.col[mask]] = coo.data[mask]
    return ab


def _ichol0(lower: sp.csc_matrix):
    """Zero-fill incomplete Cholesky of the lower triangle, in CSC order.

    Returns the factor L (csc) or None if a pivot goes non-positive.
    """
    L = lower.copy()
    L.sort_indices()
    n = L.shape[0]
    indptr, indices, data = L.indptr, L.indices, L.data
    col_of = [dict() for _ in range(n)]
    for j in range(n):
        for p in range(indptr[j], indptr[j + 1]):
            col_of[j][indices[p]] = p
    for j in range(n):
        p0, p1 = indptr[j], indptr[j + 1]
        if p1 == p0 or indices[p0] != j:
            return None
        diag = data[p0]
        if diag <= 0.0:
            return None
        d = np.sqrt(diag)
        data[p0] = d
        data[p0 + 1:p1] /= d
        for p in range(p0 + 1, p1):
            i = indices[p]
            lij = data[p]
            tgt = col_of[i]
            for q in range(p, p1):
                r = indices[q]
                hit = tgt.get(r)
                if hit is not None:
                    data[hit] -= data[q] * lij
    return L


class Factorization:
    """Reusable handle for solving against one SPD matrix.

    The matrix is processed exactly once at construction; any number of
    right-hand sides can then be solved without re-factorizing. Instances are
    immutable apart from their counters and safe to share.
    """

    def __init__(self, K: SymmetricSparse, backend: str = "direct",
                 tol: float = 1e-10, maxiter: int | None = None,
                 ledger: CostLedger | None = None):
        if backend == "iterative":
            backend = "cg"
        if backend not in ("direct", "cg"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.n = K.n
        self.solve_calls = 0
        self.rhs_solved = 0
        self.flops = 0.0
        t0 = time.perf_counter()
        if backend == "direct":
            kbw = K.bandwidth
            ab = _to_banded_upper(K.mat, kbw)
            try:
                self._cb = cholesky_banded(ab, lower=False)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"non-positive pivot in banded Cholesky (n={K.n}): {exc}"
                ) from exc
            self._bw = kbw
            fl = _flops_banded_factor(K.n, kbw)
        else:
            self._mat = K.mat
            self.tol = tol
            self.maxiter = maxiter if maxiter is not None else int(10 * np.sqrt(K.n) + 100)
            lower = sp.tril(K.mat).tocsc()
            L = _ichol0(lower)
            if L is not None:
                self._pc = ("ichol", L, sp.csr_matrix(L.T))
            else:
                diag = K.mat.diagonal()
                if np.any(diag <= 0):
                    raise SingularMatrixError("non-positive diagonal; matrix not SPD")
                self._pc = ("jacobi", 1.0 / diag, None)
            fl = 2.0 * K.mat.nnz
        dt = time.perf_counter() - t0
        self.flops += fl
        if ledger is not None:
            ledger.record("factorize", "sparse", K.n, 0, fl, dt)

    # -- preconditioner -----------------------------------------------------
    def _apply_pc(self, r):
        kind, a, b = self._pc
        if kind == "jacobi":
            return a * r
        y = sp.linalg.spsolve_triangular(a, r, lower=True)
        return sp.linalg.spsolve_triangular(b, y, lower=False)

    def _solve_cg_column(self, b):
        n = self.n
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(n), 0
        x = np.zeros(n)
        r = b.copy()
        z = self._apply_pc(r)
        p = z.copy()
        rz = r @ z
        for it in range(1, self.maxiter + 1):
            Ap = self._mat @ p
            pAp = p @ Ap
            if pAp <= 0.0:
                raise SingularMatrixError(
                    "CG breakdown: matrix is not positive definite")
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            if np.linalg.norm(r) <= self.tol * bnorm:
                return x, it
            z = self._apply_pc(r)
            rz_new = r @ z
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise IterativeSolveError(
            f"CG did not converge in {self.maxiter} iterations "
            f"(relative residual {np.linalg.norm(r) / bnorm:.3e}, target {self.tol:.1e})"
        )

    def solve(self, B, ledger: CostLedger | None = None) -> np.ndarray:
        """Solve K X = B for a vector or a matrix of right-hand sides."""
        B = np.asarray(B, dtype=float)
        single = B.ndim == 1
        Bm = B[:, None] if single else B
        if Bm.shape[0] != self.n:
            raise ValueError(f"rhs has {Bm.shape[0]} rows, expected {self.n}")
        t0 = time.perf_counter()
        if self.backend == "direct":
            if self.n == 0 or Bm.shape[1] == 0:
                X = np.zeros_like(Bm)
            else:
                X = cho_solve_banded((self._cb, False), Bm)
            fl = _flops_banded_solve(self.n, self._bw, Bm.shape[1])
        else:
            X = np.empty_like(Bm)
            iters = 0
            for c in range(Bm.shape[1]):
                X[:, c], nit = self._solve_cg_column(Bm[:, c])
                iters += nit
            fl = iters * (2.0 * self._mat.nnz + 10.0 * self.n)
        dt = time.perf_counter() - t0
        self.solve_calls += 1
        self.rhs_solved += Bm.shape[1]
        self.flops += fl
        if ledger is not None:
            ledger.record("solve", "sparse", self.n, Bm.shape[1], fl, dt)
        return X[:, 0] if single else X


def factorize(K: SymmetricSparse, backend: str = "direct",
              ledger: CostLedger | None = None, **kw) -> Factorization:
    return Factorization(K, backend=backend, ledger=ledger, **kw)


class DenseCholesky:
    """Dense Cholesky for the (small, dense) condensed systems."""

    def __init__(self, A: np.ndarray, ledger: CostLedger | None = None):
        A = np.asarray(A, dtype=float)
        self.n = A.shape[0]
        t0 = time.perf_counter()
        if self.n:
            try:
                self._cf = cho_factor(A, lower=False)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"dense Cholesky failed (n={self.n}): {exc}") from exc
        dt = time.perf_counter() - t0
        self.solve_calls = 0
        self.rhs_solved = 0
        if ledger is not None:
            ledger.record("factorize", "dense", self.n, 0,
                          _flops_dense_factor(self.n), dt)

    def solve(self, B, ledger: CostLedger | None = None) -> np.ndarray:
        B = np.asarray(B, dtype=float)
        single = B.ndim == 1
        Bm = B[:, None] if single else B
        if Bm.shape[0] != self.n:
            raise ValueError(f"rhs has {Bm.shape[0]} rows, expected {self.n}")
        t0 = time.perf_counter()
        X = cho_solve(self._cf, Bm) if self.n and Bm.shape[1] else np.zeros_like(Bm)
        dt = time.perf_counter() - t0
        self.solve_calls += 1
        self.rhs_solved += Bm.shape[1]
        if ledger is not None:
            ledger.record("solve", "dense", self.n, Bm.shape[1],
                          _flops_dense_solve(self.n, Bm.shape[1]), dt)
        return X[:, 0] if single else X
