"""Symmetric sparse matrices, submatrix selection and the linear solvers.

Large sparse SPD systems are solved by one :class:`Factorization`: banded
Cholesky (LAPACK ``pbtrf``/``pbtrs``) in the better of two orders, the
natural one or reverse Cuthill–McKee (Cuthill & McKee 1969) when that gives
a strictly smaller bandwidth. The permutation stays inside the handle, so
callers pass and receive vectors in natural order, and the cost tracks the
smaller bandwidth, whatever the grid's orientation. A band too large to
allocate raises :class:`BandStorageError` with its size. There is no
CG solver: with an ichol0 preconditioner it condensed the three benchmark
problems 48-232x slower than this one, so its cost is only a predicted
curve in :mod:`mptop.perfmodel`.

Dense blocks arising from condensed systems use a dense Cholesky
(:class:`DenseCholesky`).

Every handle solves through one shared path, which can report into a
:class:`CostLedger`: one event per factorization / multi-RHS solve with its
dimension, right-hand-side count, an operation-count estimate and wall time.
A handle of an empty block solves trivially and records nothing.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, cholesky_banded, cho_solve_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee


class SingularMatrixError(RuntimeError):
    """Raised when a matrix expected to be SPD has a non-positive pivot."""


class BandStorageError(MemoryError):
    """Raised when the banded-Cholesky storage of a matrix cannot be allocated."""


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

    @contextmanager
    def phase(self, name: str):
        prev, self._phase = self._phase, name
        try:
            yield self
        finally:
            self._phase = prev

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

    @classmethod
    def principal(cls, block: sp.csr_matrix) -> "SymmetricSparse":
        """Wrap ``extract(K, idx, idx)`` of an existing SymmetricSparse ``K``.

        Such a block is exactly symmetric already, so the constructor's check
        and averaging are skipped; external input goes through the constructor.
        """
        self = cls.__new__(cls)
        self.mat = block
        self.n = block.shape[0]
        self._bandwidth = None
        return self

    @property
    def bandwidth(self) -> int:
        if self._bandwidth is None:
            coo = self.mat.tocoo()
            self._bandwidth = int(np.abs(coo.row - coo.col).max(initial=0))
        return self._bandwidth

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()


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

def _to_banded_upper(row, col, data, n: int, k: int) -> np.ndarray:
    """LAPACK upper-banded storage of the n x n matrix with entries
    ``A[row, col] = data``: ab[k + i - j, j] = A[i, j] for i <= j."""
    ab = np.zeros((k + 1, n))
    mask = row <= col
    ab[k + row[mask] - col[mask], col[mask]] = data[mask]
    return ab


def _narrower_order(K: SymmetricSparse, coo: sp.coo_matrix):
    """``(row, col, bandwidth, perm)`` of ``K``'s entries ``coo`` in the
    narrower of two orders.

    Reverse Cuthill–McKee is taken only when its bandwidth is strictly
    smaller than the natural one (on square grids it is about twice as
    wide); ``row``/``col`` are then its positions and ``perm`` maps them back
    to natural order. Otherwise they are ``coo``'s own and ``perm`` is None.
    """
    perm = reverse_cuthill_mckee(K.mat, symmetric_mode=True)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(K.n, dtype=perm.dtype)
    row, col = inv[coo.row], inv[coo.col]
    k_rcm = int(np.abs(row - col).max(initial=0))
    if k_rcm < K.bandwidth:
        return row, col, k_rcm, perm
    return coo.row, coo.col, K.bandwidth, None


class _Solver:
    """The one solve path shared by every factorization handle.

    A subclass sets ``matrix`` (its ledger label) and supplies two steps:
    ``_factor(A) -> flops``, run once at construction, and
    ``_kernel(B) -> (X, flops)`` for a block with rows and columns. This class
    checks the right-hand side rows, short-cuts empty blocks, times both steps
    and records one ledger event per factorization and per solve call. A
    handle of an empty (0 x 0) block does no work and records nothing.
    """

    def __init__(self, A, n: int, ledger: CostLedger | None):
        self.n = n
        if n:
            t0 = time.perf_counter()
            self._record(ledger, "factorize", 0, self._factor(A), t0)

    def _record(self, ledger, op, nrhs, flops, t0):
        if ledger is not None:
            ledger.record(op, self.matrix, self.n, nrhs, flops,
                          time.perf_counter() - t0)

    def solve(self, B, ledger: CostLedger | None = None) -> np.ndarray:
        """Solve A X = B for a vector or a matrix of right-hand sides."""
        B = np.asarray(B, dtype=float)
        Bm = B[:, None] if B.ndim == 1 else B
        if Bm.shape[0] != self.n:
            raise ValueError(f"rhs has {Bm.shape[0]} rows, expected {self.n}")
        if self.n == 0:
            return np.zeros_like(B)
        t0 = time.perf_counter()
        X, fl = self._kernel(Bm) if Bm.shape[1] else (np.zeros_like(Bm), 0.0)
        self._record(ledger, "solve", Bm.shape[1], fl, t0)
        return X[:, 0] if B.ndim == 1 else X


class Factorization(_Solver):
    """Reusable handle for solving against one sparse SPD matrix.

    The matrix is factorized exactly once at construction; any number of
    right-hand sides can then be solved without re-factorizing. Instances are
    immutable and safe to share. ``bandwidth`` is the half-bandwidth
    factorized, in the order chosen (None for an empty block).
    """

    matrix = "sparse"

    def __init__(self, K: SymmetricSparse, *, ledger: CostLedger | None = None):
        self.bandwidth = None
        super().__init__(K, K.n, ledger)

    def _factor(self, K):
        coo = K.mat.tocoo()
        row, col, kbw, self._perm = _narrower_order(K, coo)
        try:
            ab = _to_banded_upper(row, col, coo.data, K.n, kbw)
        except MemoryError as exc:
            raise BandStorageError(
                f"cannot allocate banded storage for n={K.n}, bandwidth "
                f"{kbw}: {(kbw + 1) * K.n * 8} bytes") from exc
        try:
            self._cb = cholesky_banded(ab, lower=False)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"non-positive pivot in banded Cholesky (n={K.n}): {exc}"
            ) from exc
        self.bandwidth = kbw
        return _flops_banded_factor(K.n, kbw)

    def _kernel(self, B):
        fl = _flops_banded_solve(self.n, self.bandwidth, B.shape[1])
        if self._perm is None:
            return cho_solve_banded((self._cb, False), B), fl
        X = np.empty_like(B)
        X[self._perm] = cho_solve_banded((self._cb, False), B[self._perm])
        return X, fl


def factorize(K: SymmetricSparse, *,
              ledger: CostLedger | None = None) -> Factorization:
    return Factorization(K, ledger=ledger)


class DenseCholesky(_Solver):
    """Dense Cholesky for the (small, dense) condensed systems."""

    matrix = "dense"

    def __init__(self, A: np.ndarray, ledger: CostLedger | None = None):
        A = np.asarray(A, dtype=float)
        super().__init__(A, A.shape[0], ledger)

    def _factor(self, A):
        try:
            self._cf = cho_factor(A, lower=False)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"dense Cholesky failed (n={self.n}): {exc}") from exc
        return _flops_dense_factor(self.n)

    def _kernel(self, B):
        return cho_solve(self._cf, B), _flops_dense_solve(self.n, B.shape[1])
