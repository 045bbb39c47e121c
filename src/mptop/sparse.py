"""Symmetric sparse matrices, submatrix selection and the linear solvers.

Work that depends on a matrix's structure only is done once per structure,
George & Liu's analyse step: a :class:`Pattern` holds the CSR structure and
keeps, built on first use, the map of every block extracted from it and
the band map of every principal block factorized. Per matrix, extraction
is then one gather of values, and so is filling a band.

Large sparse SPD systems are solved by one :class:`Factorization`: banded
Cholesky ``A = L L^T`` (LAPACK ``pbtrf``) in the matrix's own order, on
the calling thread. A :class:`~mptop.fem.Grid` numbers its DOFs along its
shorter side, so that order already has a band of the grid's short side,
whatever its orientation, and every block taken from it inherits the band.
Each band is stored at its own half-bandwidth in LAPACK's lower storage, on
which OpenBLAS's ``pbtrf`` runs ~30 % faster than on the upper at
k >= 100, and factored in place. A band too large to allocate raises
:class:`BandStorageError`. A solve sweeps forward, then back: few
right-hand sides by LAPACK's ``tbtrs``, which reads the factor once per
column; from :data:`BLOCKED_SOLVE_COLUMNS` columns on, a wide enough band
block by block on the factor in place, one BLAS-3 ``trmm`` and ``trsm`` per
k x k block and direction (Golub & Van Loan, *Matrix Computations*,
section 4.3: a band of half-width k is block bidiagonal at block size k),
on right-hand sides padded to a multiple of 8 columns. These kernels
release the GIL, so another thread can factorize or solve beside them.
There is no CG solver: with an ichol0 preconditioner it condensed the three
benchmark problems 48-232x slower than this one, so its cost is only a
predicted curve in :mod:`mptop.perfmodel`.

Dense blocks arising from condensed systems use a dense Cholesky
(:class:`DenseCholesky`, LAPACK ``potrf`` / ``potrs``). Every LAPACK and
BLAS kernel, dense or banded, is called through one ctypes route to the
pointers scipy's Cython modules export, which releases the GIL. Every
handle factors and solves through one shared path. It checks the matrix
values once and each right-hand side once for infs and NaNs (the LAPACK
calls skip their own scans), runs each kernel on one OpenBLAS thread (on
two cores no kernel here gains from a second) and restores the caller's
count after. It can report into a :class:`CostLedger`: one event per
factorization / multi-RHS solve with its dimension (and a sparse handle's
half-bandwidth), right-hand-side count, an operation-count estimate and
wall time. An empty block solves trivially and records nothing.
"""
from __future__ import annotations

import ctypes
import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_blas, cython_lapack


class SingularMatrixError(RuntimeError):
    """Raised when a matrix expected to be SPD has a non-positive pivot."""


class BandStorageError(MemoryError):
    """Raised when the banded-Cholesky storage of a matrix cannot be allocated."""

    def __init__(self, n: int, bandwidth: int):
        super().__init__(f"cannot allocate banded storage for n={n}, bandwidth "
                         f"{bandwidth}: {(bandwidth + 1) * n * 8} bytes")


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------

class IndexSet:
    """Sorted set of unique DOF indices in ``[0, n)``.

    Used both for boundary-condition bookkeeping and as a cheap stand-in for
    selection matrices: extracting rows/columns of a sparse matrix with two
    IndexSets realizes the product S_rows^T K S_cols.
    """

    __slots__ = ("ids", "n", "_hash")

    def __init__(self, indices, n: int):
        ids = np.unique(np.asarray(indices, dtype=np.int64))
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise ValueError(
                f"index out of range: valid span is [0, {n}), got "
                f"[{ids[0]}, {ids[-1]}]"
            )
        self.ids = ids
        self.n = int(n)
        self._hash = None

    def __len__(self):
        return int(self.ids.size)

    def __contains__(self, i):
        pos = np.searchsorted(self.ids, i)
        return pos < self.ids.size and self.ids[pos] == i

    def __eq__(self, other):
        return (
            isinstance(other, IndexSet)
            and self.n == other.n
            and np.array_equal(self.ids, other.ids)
        )

    def __hash__(self):
        # the members are fixed at construction, so the hash is computed once
        if self._hash is None:
            self._hash = hash((self.n, self.ids.tobytes()))
        return self._hash

    def __repr__(self):
        return f"IndexSet({self.ids.tolist()}, n={self.n})"

    @classmethod
    def _sorted(cls, ids: np.ndarray, n: int) -> "IndexSet":
        """Wrap ``ids``, already sorted, unique and in ``[0, n)``, as they
        are: the set operations below produce such arrays."""
        self = cls.__new__(cls)
        self.ids = ids.astype(np.int64, copy=False)
        self.n = n
        self._hash = None
        return self

    def complement(self) -> "IndexSet":
        mask = np.ones(self.n, dtype=bool)
        mask[self.ids] = False
        return IndexSet._sorted(np.flatnonzero(mask), self.n)

    def intersect(self, other: "IndexSet") -> "IndexSet":
        return IndexSet._sorted(
            np.intersect1d(self.ids, other.ids, assume_unique=True), self.n)

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet._sorted(np.union1d(self.ids, other.ids), self.n)

    def minus(self, other: "IndexSet") -> "IndexSet":
        return IndexSet._sorted(
            np.setdiff1d(self.ids, other.ids, assume_unique=True), self.n)

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
    bandwidth: int | None = None   # half-bandwidth of a sparse handle


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

    def record(self, op, matrix, dim, nrhs, flops, seconds, bandwidth=None):
        self.events.append(
            CostEvent(op, matrix, int(dim), int(nrhs), float(flops),
                      self._phase, float(seconds), bandwidth)
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
# symbolic analysis and symmetric sparse storage
# ---------------------------------------------------------------------------

def _index_array(a, bound: int) -> np.ndarray:
    """``a`` as int32 when ``bound`` fits in it, int64 otherwise."""
    return np.asarray(a, dtype=np.int32 if bound < 2 ** 31 else np.int64)


class Pattern:
    """The symbolic half of a sparse matrix: its CSR structure, and what
    follows from the structure alone, each built on first use and kept.

    That is the pattern of every block extracted and the positions of its
    entries in this pattern's values (:meth:`block`), and for a square
    pattern the band map of each principal block factorized
    (:meth:`band`). Values live beside it, one array aligned with
    ``indices`` per matrix, so every matrix of one structure (every
    iteration's K of one grid) shares one pattern and its maps.
    """

    def __init__(self, indptr, indices, shape):
        bound = max(len(indices), *shape)
        self.indptr = _index_array(indptr, bound)
        self.indices = _index_array(indices, bound)
        self.shape = (int(shape[0]), int(shape[1]))
        self._blocks = {}
        self._bands = {}

    def block(self, rows: IndexSet, cols: IndexSet):
        """``(pattern, positions)`` of the block at ``rows`` x ``cols``: its
        own CSR structure, and where its entries sit among this pattern's."""
        key = (rows, cols)
        if key not in self._blocks:
            self._blocks[key] = self._select(rows.ids, cols.ids)
        return self._blocks[key]

    def _select(self, rows, cols):
        # positions of the selected rows' entries, then of those among them
        # in selected columns, renumbered to the block's columns
        starts = self.indptr[rows].astype(np.int64)
        counts = self.indptr[rows + 1] - starts
        ends = np.cumsum(counts)
        pos = np.arange(ends[-1] if ends.size else 0) + np.repeat(
            starts - ends + counts, counts)
        where = np.full(self.shape[1], -1, dtype=np.int64)
        where[cols] = np.arange(cols.size)
        col = where[self.indices[pos]]
        keep = col >= 0
        row = np.repeat(np.arange(rows.size), counts)[keep]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=rows.size), out=indptr[1:])
        sub = Pattern(indptr, col[keep], (rows.size, cols.size))
        return sub, _index_array(pos[keep], len(self.indices))

    def band(self, idx: IndexSet | None = None) -> "Band":
        """The :class:`Band` of the principal block at ``idx`` (or all)."""
        if idx not in self._bands:
            self._bands[idx] = Band(self, idx)
        return self._bands[idx]


class SymmetricSparse:
    """Symmetric sparse matrix: a :class:`Pattern` and the values of its
    entries, with ``mat`` their CSR matrix.

    The constructor checks external input and symmetrizes it numerically
    (averaging with the transpose), so that stored entries satisfy
    ``K[i, j] == K[j, i]`` exactly. Values symmetric by construction, an
    assembled K, are wrapped by :meth:`trusted` without the check.
    """

    def __init__(self, matrix):
        mat = sp.csr_matrix(matrix)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if mat.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        skew = abs(mat - mat.T)
        scale = max(abs(mat).max(), 1.0)
        if skew.nnz and skew.max() > 1e-10 * scale:
            raise ValueError("matrix is not symmetric")
        mat = sp.csr_matrix((mat + mat.T) * 0.5)
        mat.sum_duplicates()
        self._wrap(Pattern(mat.indptr, mat.indices, mat.shape), mat.data)

    @classmethod
    def trusted(cls, pattern: Pattern, data: np.ndarray) -> "SymmetricSparse":
        """The matrix with ``data`` on ``pattern``, taken as symmetric."""
        self = cls.__new__(cls)
        self._wrap(pattern, data)
        return self

    def _wrap(self, pattern, data):
        self.pattern = pattern
        self.n = pattern.shape[0]
        self.mat = sp.csr_matrix((data, pattern.indices, pattern.indptr),
                                 shape=pattern.shape)

    @property
    def bandwidth(self) -> int:
        return self._band.bandwidth

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()

    @functools.cached_property
    def _band(self) -> "Band":
        return self.pattern.band()

    def _band_values(self) -> np.ndarray:
        # every value is checked: a trusted upper triangle may differ
        return np.asarray_chkfinite(self.mat.data)


class _Principal(SymmetricSparse):
    """Principal block of ``K`` at ``idx``, factorized from ``K``'s values
    and band map; its own ``pattern`` and ``mat`` are built if read."""

    def __init__(self, K: SymmetricSparse, idx: IndexSet):
        self.n, self._parent, self._idx = len(idx), K, idx
        self._band = K.pattern.band(idx)

    def __getattr__(self, name):
        if name not in ("pattern", "mat"):
            raise AttributeError(name)
        sub, pos = self._parent.pattern._select(self._idx.ids, self._idx.ids)
        self._wrap(sub, self._parent.mat.data[pos])
        return getattr(self, name)

    def _band_values(self) -> np.ndarray:
        return self._parent.mat.data


def extract(K: SymmetricSparse, rows: IndexSet, cols: IndexSet) -> sp.csr_matrix:
    """Block of ``K`` at the given row/column index sets (CSR, |rows| x |cols|)."""
    if rows.n != K.n or cols.n != K.n:
        raise ValueError("index sets sized for a different matrix dimension")
    sub, pos = K.pattern.block(rows, cols)
    return sp.csr_matrix((K.mat.data[pos], sub.indices, sub.indptr),
                         shape=sub.shape)


def principal(K: SymmetricSparse, idx: IndexSet) -> SymmetricSparse:
    """Principal block of ``K`` at ``idx``; a factorization reads only the
    band map ``K.pattern`` keeps for ``idx``, and ``K``'s values."""
    if idx.n != K.n:
        raise ValueError("index set sized for a different matrix dimension")
    return _Principal(K, idx)


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

# Right-hand-side columns from which a banded solve runs block by block at
# level 3 (_solve_band_blocks) instead of LAPACK's pbtrs, which reads the
# whole factor once per column. A band narrower than BLOCKED_BAND needs more
# columns: the blocks are k x k, so the loop makes 4n/k BLAS calls whose
# fixed cost grows as k shrinks, and blocks are used when
# columns x k >= BLOCKED_SOLVE_COLUMNS x BLOCKED_BAND.
# Measured crossover on the lower factor, n = 15238, 2-vCPU x86-64 VM,
# OpenBLAS 0.3.31 at one thread: ~8 columns at k = 101; ~10 at k = 41-65;
# ~11 at k = 30; ~16 at k = 22; ~30 at k = 13. The rule: 10, 10, 12, 17, 28.
BLOCKED_BAND = 36
BLOCKED_SOLVE_COLUMNS = 10


def _solve_by_blocks(k: int, columns: int) -> bool:
    """Whether ``columns`` right-hand sides against a band of half-width
    ``k`` are solved by :func:`_solve_band_blocks` (never for k = 0)."""
    return (columns >= BLOCKED_SOLVE_COLUMNS
            and columns * k >= BLOCKED_SOLVE_COLUMNS * BLOCKED_BAND)


@functools.cache
def _openblas_threads() -> tuple:
    """``(get, set)`` thread-count functions of each OpenBLAS that scipy's
    LAPACK can run on, found once among the libraries this process has
    mapped (Linux ``/proc/self/maps``); empty where there is none.

    scipy's LAPACK passes 32-bit integers, so its OpenBLAS exports the
    unsuffixed thread functions; numpy's vendored 64-bit-integer build
    exports only ``64_``-suffixed names and is left alone.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads", None)
            put = getattr(lib, f"{prefix}_set_num_threads", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


class _OneBlasThread:
    """Context manager: run the block on one OpenBLAS thread, then restore
    each library's thread count, also when the block raises.

    The count is process-wide, so entries from several threads share one
    switch: the first saves the counts and sets one thread, the last
    restores them. A BLAS call that another thread makes meanwhile, outside
    this scope, runs on one thread too; none can leave the count at one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if not self._depth:
                self._saved = [(put, get()) for get, put in _openblas_threads()]
                for put, _ in self._saved:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if not self._depth:
                for put, count in self._saved:
                    put(count)


_one_blas_thread = _OneBlasThread()


# scipy's f2py LAPACK and BLAS wrappers hold the GIL for the whole call. The
# same Fortran routines are exported as C function pointers by scipy's Cython
# modules; called through ctypes, which releases the GIL, a band kernel runs
# beside the caller's Python work. Every argument is passed by address.
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _routine(module, name: str, nargs: int):
    capsule = module.__pyx_capi__[name]
    address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(address)


_dpbtrf = _routine(cython_lapack, "dpbtrf", 6)
_dtbtrs = _routine(cython_lapack, "dtbtrs", 11)
_dpotrf = _routine(cython_lapack, "dpotrf", 5)
_dpotrs = _routine(cython_lapack, "dpotrs", 8)
_dtrsm = _routine(cython_blas, "dtrsm", 11)
_dtrmm = _routine(cython_blas, "dtrmm", 11)
_dcopy = _routine(cython_blas, "dcopy", 5)
_daxpy = _routine(cython_blas, "daxpy", 6)

_FLAGS = ctypes.create_string_buffer(b"LNRTU")
_L, _N, _R, _T, _U = (ctypes.addressof(_FLAGS) + i for i in range(5))
_SCALARS = (ctypes.c_double * 2)(1.0, -1.0)
_ONE, _MINUS_ONE = ctypes.addressof(_SCALARS), ctypes.addressof(_SCALARS) + 8
_BY_ADDRESS = {int: ctypes.c_int, float: ctypes.c_double,
               str: lambda flag: ctypes.c_char(flag.encode())}


def _int_args(*values):
    """C ints holding ``values`` (keep them while the call runs), and each
    one's address."""
    ints = (ctypes.c_int * len(values))(*values)
    base = ctypes.addressof(ints)
    return ints, [base + 4 * i for i in range(len(values))]


def _call(routine, *args):
    """Call ``routine`` with every argument by address (an array at its
    first element); returns the last one's value after, LAPACK's ``info``."""
    held = [a if isinstance(a, np.ndarray) else _BY_ADDRESS[type(a)](a)
            for a in args]
    routine(*[a.ctypes.data if isinstance(a, np.ndarray)
              else ctypes.addressof(a) for a in held])
    return held[-1].value


def _pbtrf(ab: np.ndarray) -> int:
    """LAPACK ``dpbtrf`` in place on the lower band ``ab`` ((k + 1) x n,
    float64, Fortran order); returns its ``info``."""
    return _call(_dpbtrf, "L", ab.shape[1], ab.shape[0] - 1, ab,
                 ab.shape[0], 0)


def _tbtrs(ab: np.ndarray, Y: np.ndarray, forward: bool) -> None:
    """LAPACK ``dtbtrs`` in place on the Fortran-ordered view ``Y`` for the
    lower ``dpbtrf`` factor ``ab``: ``L Y = B`` forward, ``L^T X = Y`` back."""
    _call(_dtbtrs, "L", "N" if forward else "T", "N", ab.shape[1],
          ab.shape[0] - 1, Y.shape[1], ab, ab.shape[0], Y,
          Y.strides[1] // 8, 0)


class Band:
    """Banded-Cholesky layout of the principal block at ``idx`` (or all) of
    a square symmetric pattern, in the block's own order.

    ``bandwidth`` is the half-bandwidth k stored, the block's own. ``slots``
    place the block's lower entries, at ``lower`` among the pattern's
    values, in LAPACK's lower storage ``ab[i - j, j] = A[i, j]`` (i >= j) of
    ``size`` = (k + 1) n doubles, laid out column-major as LAPACK reads it:
    flat ``i + j * k``.
    """

    def __init__(self, pattern: Pattern, idx: IndexSet | None = None):
        ids = np.arange(pattern.shape[0]) if idx is None else idx.ids
        where = np.full(pattern.shape[0], -1, dtype=np.int64)
        where[ids] = np.arange(ids.size)
        row = np.repeat(where, np.diff(pattern.indptr))
        col = where[pattern.indices]
        lower = np.flatnonzero((col >= 0) & (row >= col))
        row, col = row[lower], col[lower]
        n = self.n = ids.size
        k = self.bandwidth = int((row - col).max(initial=0))
        self.size = (k + 1) * n
        self.lower = _index_array(lower, len(pattern.indices))
        self.slots = _index_array(row + col * k, self.size)

    def fill(self, data: np.ndarray, out: np.ndarray | None = None):
        """The block's (k + 1) x n band, in ``out``'s head or a new array,
        Fortran-ordered for LAPACK, zero off the block's entries (also past
        its last row), gathered from the pattern's values ``data``, which
        are checked for infs and NaNs there."""
        ab = np.empty(self.size) if out is None else out[:self.size]
        ab[:] = 0.0
        ab[self.slots] = np.asarray_chkfinite(data[self.lower])
        return ab.reshape((self.bandwidth + 1, self.n), order="F")


def band_storage(blocks) -> np.ndarray:
    """A buffer, as :func:`factorize`'s ``storage``, for any of ``blocks``."""
    big = max(blocks, key=lambda K: K._band.size)
    try:
        return np.empty(big._band.size)
    except MemoryError as exc:
        raise BandStorageError(big.n, big.bandwidth) from exc


class _Solver:
    """The one solve path shared by every factorization handle.

    A subclass sets ``matrix`` (its ledger label) and supplies two steps:
    ``_factor(A) -> flops``, run once at construction on finite values, and
    ``_kernel(B) -> (X, flops)`` for a block with rows and columns. This
    class runs both steps on one OpenBLAS thread, checks the right-hand
    side's rows and values, short-cuts empty blocks, times both steps and
    records one ledger event per factorization and per solve call, with
    ``bandwidth``. A handle of an empty (0 x 0) block does no work and
    records nothing.
    """

    bandwidth = None

    def __init__(self, A, n: int, ledger: CostLedger | None):
        self.n = n
        if n:
            t0 = time.perf_counter()
            with _one_blas_thread:
                self._record(ledger, "factorize", 0, self._factor(A), t0)

    def _record(self, ledger, op, nrhs, flops, t0):
        if ledger is not None:
            ledger.record(op, self.matrix, self.n, nrhs, flops,
                          time.perf_counter() - t0, self.bandwidth)

    def solve(self, B, ledger: CostLedger | None = None) -> np.ndarray:
        """Solve A X = B for a vector or a matrix of right-hand sides."""
        B = np.asarray_chkfinite(B, dtype=float)
        Bm = B[:, None] if B.ndim == 1 else B
        if Bm.ndim != 2 or Bm.shape[0] != self.n:
            raise ValueError(f"rhs has {Bm.shape[0]} rows, expected {self.n}")
        if self.n == 0:
            return B
        t0 = time.perf_counter()
        with _one_blas_thread:
            X, fl = self._kernel(Bm) if Bm.shape[1] else (Bm, 0.0)
        self._record(ledger, "solve", Bm.shape[1], fl, t0)
        return X[:, 0] if B.ndim == 1 else X


class Factorization(_Solver):
    """Reusable handle for solving against one sparse SPD matrix.

    The matrix is factorized exactly once at construction; any number of
    right-hand sides can then be solved without re-factorizing. A handle in
    its own band is immutable and safe to share, one in a lent ``storage``
    only until that is refilled. ``bandwidth`` is the half-bandwidth
    stored and factorized, :class:`Band`'s (None for an empty block).
    """

    matrix = "sparse"

    def __init__(self, K: SymmetricSparse, *, ledger: CostLedger | None = None,
                 storage: np.ndarray | None = None):
        self._storage = storage
        super().__init__(K, K.n, ledger)

    def _factor(self, K):
        band, n = K._band, K.n
        try:
            ab = band.fill(K._band_values(), self._storage)
        except MemoryError as exc:
            raise BandStorageError(n, band.bandwidth) from exc
        info = _pbtrf(ab)
        if info:
            raise SingularMatrixError(
                f"non-positive pivot in banded Cholesky (n={n}): row "
                f"{info - 1} of the block")
        self._cb = ab
        self.bandwidth = band.bandwidth
        return _flops_banded_factor(n, band.bandwidth)

    def _kernel(self, B):
        (n, k), columns = (self.n, self.bandwidth), B.shape[1]
        if _solve_by_blocks(k, columns):
            # row-major, padded with zero columns to a multiple of 8
            # (OpenBLAS's BLAS-3 kernels run faster on aligned widths: n =
            # 9999, k = 101, 31 columns 8.8 ms, 32 columns 6.2 ms, one
            # thread, 2-vCPU VM), and k scratch rows below
            X = np.zeros((n + k, -(-columns // 8) * 8))
            X[:n, :columns] = B
            sweep = _solve_band_blocks
        else:
            X, sweep = np.array(B, order="F"), _tbtrs
        for forward in (True, False):
            sweep(self._cb, X, forward)
        return X[:n, :columns], _flops_banded_solve(n, k, columns)


def _solve_band_blocks(cb: np.ndarray, buf: np.ndarray,
                       forward: bool) -> None:
    """Solve ``L Y = B`` (``forward``) or ``L^T X = Y`` in place for the
    ``pbtrf`` factor ``cb``, every column in each BLAS-3 call, allocating no
    array.

    ``buf`` is row-major (n + k) x q: ``B`` in its first n rows, k scratch
    rows below. In the lower band storage (``cb`` is (k + 1) x n, Fortran
    order), ``L[i, j]`` sits at flat offset ``i + j * k``, so the k x k
    blocks are Fortran matrices of leading dimension k in place: the diagonal
    block ``L[s:s+k, s:s+k]`` at ``s * (k + 1)`` (lower triangle valid) and
    the coupling block below it at ``s * (k + 1) + k`` (upper triangle
    valid). Each row block of ``X^T`` is a contiguous Fortran q x k operand,
    so the calls take the right side: ``Y^T L^T = B^T`` forward and
    ``X^T L = Y^T`` backward, per block one ``trmm`` of the coupling block on
    a scratch copy of the neighbouring block, subtracted, and one ``trsm`` on
    the diagonal block. A last block of r < k rows couples through the full
    coupling block: its rows past n are zero in the band (:meth:`Band.fill`;
    LAPACK never writes them), so whatever the scratch columns past r hold
    is multiplied by zero. The factor is read once for all columns, where
    ``tbtrs`` reads it once per column.
    """
    k, n = cb.shape[0] - 1, cb.shape[1]
    q = buf.shape[1]
    full, r = divmod(n, k)
    ints, (pq, pk, pr, inc, pkq, prq) = _int_args(q, k, r, 1, k * q, r * q)
    sizes = [(pk, pkq)] * full + [(pr, prq)] * bool(r)   # rows, entries
    L, Z = cb.ctypes.data, buf.ctypes.data
    scratch, block, step = Z + 8 * n * q, 8 * k * q, 8 * k * (k + 1)

    def couple(trans, coupling, source, source_size, target, target_size):
        _dcopy(source_size, source, inc, scratch, inc)
        _dtrmm(_R, _U, trans, _N, pq, pk, _ONE, coupling, pk, scratch, pq)
        _daxpy(target_size, _MINUS_ONE, scratch, inc, target, inc)

    for i in range(len(sizes)) if forward else reversed(range(len(sizes))):
        z, d = Z + i * block, L + i * step
        if forward and i:
            couple(_T, d - step + 8 * k, z - block, pkq, z, sizes[i][1])
        elif not forward and i + 1 < len(sizes):
            couple(_N, d + 8 * k, z + block, sizes[i + 1][1], z, pkq)
        _dtrsm(_R, _L, _T if forward else _N, _N, pq, sizes[i][0], _ONE, d,
               pk, z, pq)


def factorize(K: SymmetricSparse, *, ledger: CostLedger | None = None,
              storage: np.ndarray | None = None) -> Factorization:
    return Factorization(K, ledger=ledger, storage=storage)


class DenseCholesky(_Solver):
    """Dense Cholesky ``A = U^T U`` for the (small, dense) condensed systems:
    LAPACK ``potrf`` / ``potrs`` in upper storage on a Fortran copy of ``A``."""

    matrix = "dense"

    def __init__(self, A: np.ndarray, ledger: CostLedger | None = None):
        A = np.asarray_chkfinite(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix must be square, got shape {A.shape}")
        super().__init__(A, A.shape[0], ledger)

    def _factor(self, A):
        self._u = np.array(A, order="F")
        info = _call(_dpotrf, "U", self.n, self._u, self.n, 0)
        if info:
            raise SingularMatrixError(f"non-positive pivot in dense Cholesky "
                                      f"(n={self.n}): row {info - 1}")
        return _flops_dense_factor(self.n)

    def _kernel(self, B):
        X = np.array(B, order="F")
        _call(_dpotrs, "U", self.n, X.shape[1], self._u, self.n, X, self.n, 0)
        return X, _flops_dense_solve(self.n, X.shape[1])
