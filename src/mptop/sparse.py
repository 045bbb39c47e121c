"""Symmetric sparse matrices, submatrix selection and the linear solvers.

Work that depends on a matrix's structure only is done once per structure,
George & Liu's analyse step: a :class:`Pattern` holds the CSR structure and
keeps, built on first use, the map of every block extracted from it and
the band map of every principal block factorized. Per matrix, extraction
is then one gather of values, and so is filling a band.

Large sparse SPD systems are solved by one :class:`Factorization`: banded
Cholesky ``A = L L^T`` in the matrix's own order. A
:class:`~mptop.fem.Grid` numbers its DOFs along its shorter side, so that
order already has a band of the grid's short side, whatever its
orientation, and every block taken from it inherits the band. A band of
half-width k splits at its middle k rows, which separate the rows before
them from those after (George's nested dissection, one level): its two
halves factor (LAPACK ``pbtrf``) at once, one on the calling thread and one
on a single band worker thread, then the k x k separator densely. Each half is stored at the band's half-bandwidth
in LAPACK's lower storage, on which OpenBLAS's ``pbtrf`` runs ~30 % faster
than on the upper at k >= 100, and factored in place. A band too large to
allocate raises :class:`BandStorageError`. A solve sweeps both halves
forward at once, solves the separator, and sweeps both back: few
right-hand sides by LAPACK's ``tbtrs``, which reads a factor once per
column; from :data:`BLOCKED_SOLVE_COLUMNS` columns on, a wide enough band
block by block on the factor in place, one BLAS-3 ``trmm`` and ``trsm`` per
k x k block (Golub & Van Loan, *Matrix Computations*, section 4.3: a band
of half-width k is block bidiagonal at block size k), on right-hand sides
padded to a multiple of 8 columns, both halves at once only from
:data:`PAIRED_BLOCKS_BAND` on. These kernels release the GIL.
There is no CG solver: with an ichol0 preconditioner it condensed the three
benchmark problems 48-232x slower than this one, so its cost is only a
predicted curve in :mod:`mptop.perfmodel`.

Dense blocks arising from condensed systems use a dense Cholesky
(:class:`DenseCholesky`, LAPACK ``potrf`` / ``potrs``). Every LAPACK and
BLAS kernel, dense or banded, is called through one ctypes route to the
pointers scipy's Cython modules export, which releases the GIL. Every
handle factors and solves through one shared path. It checks the matrix
values once and each right-hand side once for infs and NaNs (the LAPACK
calls skip their own scans), runs each kernel on one OpenBLAS thread (a
second core goes to the other half, not to a second OpenBLAS thread) and
restores the caller's count after. It can report into a
:class:`CostLedger`: one event per factorization / multi-RHS solve with its
dimension (and a sparse handle's half-bandwidth), right-hand-side count, an
operation-count estimate and wall time. An empty block solves trivially
and records nothing.
"""
from __future__ import annotations

import ctypes
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_blas, cython_lapack


class SingularMatrixError(RuntimeError):
    """Raised when a matrix expected to be SPD has a non-positive pivot."""


class BandStorageError(MemoryError):
    """Raised when the banded-Cholesky storage of a matrix cannot be allocated."""

    def __init__(self, n: int, bandwidth: int, size: int):
        super().__init__(f"cannot allocate banded storage for n={n}, bandwidth "
                         f"{bandwidth}: {size * 8} bytes")


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
# Half-width from which the two halves' block solves run at once; below it
# the GIL hand-offs between their 4n/k short BLAS calls cost more than the
# second core gives. At once / in turn, n = 1e4, 2-vCPU VM: 16 columns
# 1.04-1.05 at k = 60, 0.91 at k = 65; 32 columns 0.97 at k = 50.
PAIRED_BLOCKS_BAND = 65


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
    restores them; ``depth`` counts the threads inside. A BLAS call that
    another thread makes meanwhile, outside this scope, runs on one thread
    too; none can leave the count at one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if not self.depth:
                self._saved = [(put, get()) for get, put in _openblas_threads()]
                for put, _ in self._saved:
                    put(1)
            self.depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self.depth -= 1
            if not self.depth:
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
_dsyrk = _routine(cython_blas, "dsyrk", 10)
_dgemm = _routine(cython_blas, "dgemm", 13)
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


def _factor_half(ab: np.ndarray, coupling: np.ndarray) -> int:
    """``dpbtrf`` on one half's band ``ab``, then ``L_last^-1 coupling`` in
    place (its last rows x the separator); returns ``pbtrf``'s ``info``."""
    info = _pbtrf(ab)
    (k, m), sep = (ab.shape[0] - 1, ab.shape[1]), coupling.shape[1]
    if sep and not info:
        # the last diagonal block in place, as in _solve_band_blocks
        last = ab.reshape(-1, order="F")[(m - sep) * (k + 1):]
        _call(_dtrsm, "L", "L", "N", "N", sep, sep, 1.0, last, k, coupling,
              coupling.strides[1] // 8)
    return info


# The one thread that runs a band's bottom half beside the calling thread's
# top half. The executor starts it on the first submit: importing this
# module starts none.
_band_worker = ThreadPoolExecutor(1, thread_name_prefix="mptop-band")


def _pair(jobs, at_once: bool) -> list:
    """Each of one or two ``jobs``' results: the second's on the band worker
    beside the first here when ``at_once`` and no other thread is in a band
    kernel (else both cores are busy already), else in turn here. Both
    have ended when this returns or raises; an error of either is raised."""
    if len(jobs) < 2 or not at_once or _one_blas_thread.depth > 1:
        return [job() for job in jobs]
    second = _band_worker.submit(jobs[1])
    try:
        return [jobs[0](), second.result()]
    finally:
        wait([second])


class Band:
    """Banded-Cholesky layout of the principal block at ``idx`` (or all) of
    a square symmetric pattern, in the block's own order.

    ``bandwidth`` is the half-bandwidth k, the block's own. For n >= 3k >= 3
    the ``sep`` = k rows from ``split`` = (n - k) // 2 on separate the rows
    before them from those after; else ``split`` = n and ``sep`` = 0.
    ``slots`` place the lower entries, at ``lower`` among the pattern's
    values, in ``size`` doubles: each half's band in LAPACK's lower storage
    ``ab[i - j, j] = A[i, j]`` (i >= j), flat ``i + j * k``, the bottom's
    rows reversed so that those next to the separator are its last; then a
    Fortran (3 sep) x sep block: the separator's couplings to the top's and
    the bottom's last sep rows, and its own lower triangle.
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
        s, sep = self.split, self.sep = (((n - k) // 2, k) if 0 < 3 * k <= n
                                         else (n, 0))
        # the bottom half's rows reversed and numbered on from the top's
        qr, qc = (np.where(v < s, v, n - 1 + s - v) for v in (row, col))
        band = np.maximum(qr, qc) + np.minimum(qr, qc) * k
        # an entry in a separator row or column (no half couples the other
        # one): x is its other row, sigma its separator column
        dense = (row >= s) & (col < s + sep)
        x, sigma = (np.where(col >= s, row, col),
                    np.where(col >= s, col, row) - s)
        u = np.select([x < s, x >= s + sep],
                      [x - s + sep, s + 3 * sep - 1 - x], x - s + 2 * sep)
        base = (k + 1) * (n - sep)
        self.size = base + 3 * sep * sep
        self.lower = _index_array(lower, len(pattern.indices))
        self.slots = _index_array(
            np.where(dense, base + u + 3 * sep * sigma, band), self.size)

    def fill(self, data: np.ndarray, out: np.ndarray | None = None):
        """The block's flat storage, in ``out``'s head or a new array, zero
        off the block's entries (also past each half's last row), gathered
        from the pattern's values ``data``, which are checked for infs and
        NaNs there."""
        ab = np.empty(self.size) if out is None else out[:self.size]
        ab[:] = 0.0
        ab[self.slots] = np.asarray_chkfinite(data[self.lower])
        return ab


def band_storage(blocks) -> np.ndarray:
    """A buffer, as :func:`factorize`'s ``storage``, for any of ``blocks``."""
    big = max(blocks, key=lambda K: K._band.size)
    try:
        return np.empty(big._band.size)
    except MemoryError as exc:
        raise BandStorageError(big.n, big.bandwidth, big._band.size) from exc


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

    Each half's coupling to the separator becomes ``X = L_last^-1 A_last``,
    and the separator ``S = A_sep - X_top^T X_top - X_bottom^T X_bottom``.
    """

    matrix = "sparse"

    def __init__(self, K: SymmetricSparse, *, ledger: CostLedger | None = None,
                 storage: np.ndarray | None = None):
        self._storage = storage
        super().__init__(K, K.n, ledger)

    def _factor(self, K):
        band = self._band = K._band
        k, s, sep, n = band.bandwidth, band.split, band.sep, K.n
        try:
            flat = band.fill(K._band_values(), self._storage)
        except MemoryError as exc:
            raise BandStorageError(n, k, band.size) from exc
        bands = flat[:(k + 1) * (n - sep)].reshape((k + 1, -1), order="F")
        self._halves = [bands[:, :s], bands[:, s:]][:1 + bool(sep)]
        dense = flat[bands.size:].reshape((3 * sep, sep), order="F")
        self._coupling, self._schur = dense[:2 * sep], dense[2 * sep:]
        infos = _pair([functools.partial(_factor_half, ab,
                                         dense[i * sep:(i + 1) * sep])
                       for i, ab in enumerate(self._halves)], True)
        if sep and not any(infos):
            _call(_dsyrk, "L", "T", sep, 2 * sep, -1.0, dense, 3 * sep, 1.0,
                  self._schur, 3 * sep)
            infos.append(_call(_dpotrf, "L", sep, self._schur, 3 * sep, 0))
        # a pivot's row in the block's order: the bottom half runs backwards
        for part, info, first, step in zip(
                ("top half", "bottom half", "separator"), infos,
                (0, n - 1, s), (1, -1, 1)):
            if info:
                raise SingularMatrixError(
                    f"non-positive pivot in banded Cholesky (n={n}): {part}, "
                    f"row {first + step * (info - 1)} of the block")
        self.bandwidth = k
        return _flops_banded_factor(n, k)

    def _kernel(self, B):
        (n, k), columns = (self.n, self.bandwidth), B.shape[1]
        s, sep = self._band.split, self._band.sep
        m = n - s - sep
        blocks = _solve_by_blocks(k, columns)
        # the top half in place in X, the bottom half reversed in Y, each
        # with k scratch rows; Fortran for dtbtrs, row-major for blocks and
        # padded to a multiple of 8 columns (OpenBLAS's BLAS-3 kernels run
        # faster on aligned widths: n = 9999, k = 101, 31 columns 8.8 ms, 32
        # columns 6.2 ms, one thread, 2-vCPU VM)
        width, order = ((-(-columns // 8) * 8, "C") if blocks
                        else (columns, "F"))
        X = np.zeros((n + k, width), order=order)
        Y = np.zeros((m + k, width), order=order)
        X[:s, :columns], Y[:m, :columns] = B[:s], B[s + sep:][::-1]
        parts = X[:s + k], Y
        sweep = _solve_band_blocks if blocks else _tbtrs
        at_once = not blocks or k >= PAIRED_BLOCKS_BAND
        Z = np.array(B[s:s + sep], order="F")
        for forward in (True, False):
            _pair([functools.partial(sweep, ab, part, forward)
                   for ab, part in zip(self._halves, parts)], at_once)
            if forward and sep:
                # the separator's rows against S, then the halves' last rows
                # corrected by the couplings; the padded columns stay zero
                tails = X[s - sep:s, :columns], Y[m - sep:m, :columns]
                W = np.asfortranarray(np.concatenate(tails))
                _call(_dgemm, "T", "N", sep, columns, 2 * sep, -1.0,
                      self._coupling, 3 * sep, W, 2 * sep, 1.0, Z, sep)
                _call(_dpotrs, "L", sep, columns, self._schur, 3 * sep, Z,
                      sep, 0)
                _call(_dgemm, "N", "N", 2 * sep, columns, sep, -1.0,
                      self._coupling, 3 * sep, Z, sep, 1.0, W, 2 * sep)
                tails[0][:], tails[1][:] = W[:sep], W[sep:]
        X[s:s + sep, :columns] = Z
        X[s + sep:n, :columns] = Y[:m][::-1, :columns]
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
