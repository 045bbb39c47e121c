"""Design gradients for both pipelines, plus a finite-difference verifier.

Every gradient here reduces to sums of element-level contractions
``left^T (dK/dx_e) right``, chained through the density filter once at the
end; the full derivative of the system matrix is never formed. Both
pipelines' state gradients read the same (states, solved adjoint stack)
pairs of :mod:`mptop.analysis`'s solve functions, which solve every
adjoint stack right after its set's states, and only contract. The
elementary pipeline contracts full-length adjoints and states with
:func:`~mptop.fem.contract_dk_raw`, one set at a time as its solve stream
yields them.

The condensed pipeline has one route. Its kernel, :func:`_contract_reduced`,
sums ``W[r] * L_e^T k_e R_e`` per element over full-length bases L and R,
in the cheaper of two orders for its shapes. Both bases start from E, the
expansion of reduced vectors through the coupling solutions retained from
the condensation; the field B of the secondary sources joins R as extra
columns. The reduced matrix contracts with ``(E, E, W)``. Every other
response, the state responses of ``evaluate`` and the dependency cases of
:func:`sens_case` alike, has left fields ``E a (+ X)`` and right fields
``B - E u`` for reduced adjoints a and primary states u
(:func:`_state_gradient`). Gradients of the reduced matrix and loads need
no solve, state gradients only small dense adjoint solves. Responses that
read secondary states or reactions are the exception: their one large
adjoint solve against the retained factorization is X, made by
:func:`sens_case`.

The kernel's products run on numpy's own threaded OpenBLAS, whose workers
spin after a call; that slows no solver, as those run on one thread (a
k = 101 banded Cholesky right after a numpy product: 20.5 against 20.0 ms,
36 against 21 at two threads). The solvers' BLAS-3 calls live in
:mod:`mptop.sparse`'s block solve, through scipy's BLAS ``trmm``/``trsm`` on
the band factor in place: numpy's ``@`` has no triangular product, so on
those blocks it needs a masked copy per block, which at n = 4e4, k = 201 and
32 columns cost 52 ms against 13 ms for the ``trmm`` calls in place.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import check_stack, solve_stack
from .condensation import ReducedModel
from .fem import ELEMENT_CHUNK, DesignField, Grid, contract_dk_raw
from .sparse import CostLedger


# ---------------------------------------------------------------------------
# operators retained from the condensation
# ---------------------------------------------------------------------------

def _primary_basis(model: ReducedModel) -> np.ndarray:
    """E (n x m): identity on the primary rows, minus the retained coupling
    solutions on the secondary-free rows, zero on the secondary-prescribed."""
    plan, m = model.plan, model.m
    source = np.zeros((plan.f_sec + m + 1, m))      # [-S; I; 0]
    np.negative(model.static_modes, out=source[:plan.f_sec])
    source[plan.f_sec:-1] = np.eye(m)
    row = np.full(plan.n, len(source) - 1)
    row[plan.sec_free.ids] = np.arange(plan.f_sec)
    row[plan.primary.ids] = plan.f_sec + np.arange(m)
    return source[row]


def load_field(model: ReducedModel):
    """Full-length field of the secondary sources (None when there are none)."""
    plan = model.plan
    has_v = model.load_states is not None
    has_u = plan.p_sec > 0 and np.any(model.sec_values)
    if not has_v and not has_u:
        return None
    out = np.zeros((plan.n, plan.total_cases))
    if has_v:
        out[plan.sec_free.ids, :] = model.load_states
    if has_u:
        out[plan.sec_prescribed.ids, :] -= model.sec_values
    return out


def _chain_rows(design: DesignField, raw: np.ndarray) -> np.ndarray:
    """Filter chain of a (rows, n_elems) stack, row-major (MMA roundoff follows)."""
    return np.ascontiguousarray(design.flt.chain(raw.T).T)


def _contract_reduced(grid: Grid, design: DesignField, L: np.ndarray,
                      R: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Row r, element e: sum(W[r] * L_e^T dk_e R_e) w.r.t. the filtered
    field; ``L`` (n, a) and ``R`` (n, b) full-length bases, ``W`` (rows, a, b).

    The order with fewer multiply-adds per element runs. Per row: the field
    G = R W[r]^T (n, a), read against L by :func:`contract_dk_raw`. Or once:
    each element's M_e = L_e^T k_e R_e, read for every row by one GEMM.
    """
    rows, a, b = W.shape
    k = len(grid.ke)
    out = np.empty((rows, grid.n_elems))
    per_row = grid.n_dofs / grid.n_elems * a * b + k * (k + 1) * a
    if rows * per_row < k * a * (k + b) + rows * a * b:
        for r, w in enumerate(W):
            out[r] = contract_dk_raw(grid, design, L, R @ w.T)
        return out
    flat = W.reshape(rows, a * b)
    for e0 in range(0, grid.n_elems, ELEMENT_CHUNK):
        dofs = grid.edof[e0:e0 + ELEMENT_CHUNK]
        Le = L[dofs]                                     # (chunk, k, a)
        Re = Le if R is L else R[dofs]
        M = Le.transpose(0, 2, 1) @ grid.ke @ Re
        out[:, e0:e0 + len(dofs)] = flat @ M.reshape(len(dofs), a * b).T
    return design.dscales * out


def _state_gradient(grid: Grid, design: DesignField, model: ReducedModel,
                    A: np.ndarray, U: np.ndarray, cols,
                    X: np.ndarray | None = None) -> np.ndarray:
    """Row r: sum over columns c of (E a_c + X_c)^T dK (B_c - E u_c), chained.

    ``A`` (rows, m, q) holds reduced adjoints, ``U`` (m, q) primary states,
    ``cols`` the q load-field columns B, and ``X`` (n, q) a full-length left
    term shared by the rows, or None. The fields stay on the bases
    L = [E | X] and R = [E | B] with weights W[r] = [a; I] [-u; I]^T.
    """
    E = _primary_basis(model)
    B = load_field(model)
    q = U.shape[1]
    L, alpha = E, A
    if X is not None:
        L = np.hstack([E, X])
        alpha = np.concatenate(
            [A, np.broadcast_to(np.eye(q), (len(A), q, q))], axis=1)
    R, beta = E, -U
    if B is not None:
        R = np.hstack([E, B[:, cols]])
        beta = np.vstack([beta, np.eye(q)])
    W = alpha @ beta.T
    return _chain_rows(design, _contract_reduced(grid, design, L, R, W))


# ---------------------------------------------------------------------------
# pipeline gradients for state-dependent responses
# ---------------------------------------------------------------------------

def sens_elementary(grid: Grid, design: DesignField, stream) -> np.ndarray:
    """Gradients of several responses, full-system route: (rows, n_elems).

    ``stream`` yields each set's states and solved adjoint stack in set
    order, as :func:`~mptop.analysis.solve_elementary` does: (rows, free,
    cases) on the set's free DOFs and zero where a response ignores the
    set. A None stack stands for one self-adjoint response, whose adjoint is
    the set's state on its free DOFs: the state's full field itself,
    gathered once as both sides, when the set prescribes zeros. Each set is
    contracted as it arrives and then dropped; nothing is solved here.
    """
    acc = None
    for i, (state, stack) in enumerate(stream):
        if acc is None:
            acc = np.zeros((1 if stack is None else len(stack), grid.n_elems))
        if stack is not None:
            stack = check_stack(stack, i, (len(acc), len(state.free),
                                           state.u_full.shape[1]))
        for r, lam in _left_fields(state, stack):
            acc[r] -= contract_dk_raw(grid, design, lam, state.u_full)
    return _chain_rows(design, acc)


def _left_fields(state, stack):
    """(row, full-length left field) of each response that reads the set."""
    if stack is None:
        if not state.u_presc.any():
            yield 0, state.u_full
            return
        stack = state.u_free[None]
    for r in np.flatnonzero(stack.any(axis=(1, 2))):
        lam = np.zeros_like(state.u_full)
        lam[state.free] = stack[r]
        yield r, lam


def sens_condensed_state(grid: Grid, design: DesignField, model: ReducedModel,
                         solved) -> np.ndarray:
    """Gradients of several responses of the reduced free states, condensed
    route: (rows, n_elems).

    ``solved`` holds each set's states and solved adjoint stack in set
    order, as :func:`~mptop.analysis.solve_condensed` returns them: (rows,
    free, cases) on the set's free primary DOFs and zero where a response
    ignores the set. A None stack stands for one self-adjoint response,
    whose adjoint is the set's full state: the left field ``E u - B``, with
    B the field of the secondary sources. Nothing is solved here.
    """
    plan = model.plan
    B = load_field(model)
    A = X = None
    U = []
    for i, (state, stack) in enumerate(solved):
        cols = plan.case_slices[i]
        if stack is None:
            stack = state.u_free[None]
            if B is not None:
                X = np.zeros_like(B) if X is None else X
                X[:, cols] = -B[:, cols]
        if A is None:
            A = np.zeros((len(stack), plan.m, plan.total_cases))
        A[:, state.free, cols] = check_stack(
            stack, i, (len(A), len(state.free), state.u_full.shape[1]))
        U.append(state.u_full)
    return _state_gradient(grid, design, model, A, np.hstack(U),
                           slice(None), X)


# ---------------------------------------------------------------------------
# reduced-model quantity gradients (the six dependency cases)
# ---------------------------------------------------------------------------

@dataclass
class SensitivityBundle:
    """Design gradient plus the input-space partial derivatives of a response."""

    dg_dx: np.ndarray
    dg_dsec_loads: np.ndarray | None = None    # secondary applied loads
    dg_dsec_values: np.ndarray | None = None   # secondary prescribed values
    dg_dfree_loads: np.ndarray | None = None   # loads on free primary DOFs
    dg_dpresc_values: np.ndarray | None = None  # prescribed primary values


CASES = ("reduced-matrix", "reduced-load", "primary-state", "primary-reaction",
         "secondary-state", "secondary-reaction")


def sens_case(case: str, grid: Grid, design: DesignField, model: ReducedModel,
              partial, sol=None, set_index: int | None = 0,
              ledger: CostLedger | None = None) -> SensitivityBundle:
    """Full sensitivity bundle for one response dependency.

    ``partial`` is dg/d(quantity); set-specific state cases also need the
    set's states, read from ``sol``, the pairs
    :func:`~mptop.analysis.solve_condensed` returns, and solve against the
    set's dense factor in ``model.set_factors``; nothing is factorized. The
    reduced-load case takes every case when ``set_index`` is None. Every
    case but the reduced matrix is one reduced adjoint ``a`` plus a
    full-length term ``X``, the large adjoint of the secondary cases: the
    design gradient is :func:`_state_gradient`'s, and the input-space
    partials are read off the full adjoint ``E a + X``.
    """
    if case == "reduced-matrix":
        # zero solves: both contraction sides are the retained coupling
        # solutions
        W = np.asarray(partial, dtype=float)
        if W.shape != (model.m, model.m):
            raise ValueError("partial must be m x m")
        E = _primary_basis(model)
        return SensitivityBundle(design.flt.chain(
            _contract_reduced(grid, design, E, E, W[None])[0]))
    if case not in CASES:
        raise ValueError(f"unknown dependency case {case!r}")

    plan = model.plan
    partial = np.atleast_2d(np.asarray(partial, dtype=float).T).T
    q = partial.shape[1]
    cols = slice(None) if set_index is None else plan.case_slices[set_index]
    a = np.zeros((plan.m, q))
    X = np.zeros((plan.n, q))
    lam_hat = d_presc = None

    if case == "reduced-load":
        a[:] = partial
        u = np.zeros((plan.m, q))
    else:
        fpos = plan.free_primary_pos[set_index]
        ppos = plan.presc_primary_pos[set_index]
        kt = model.reduced_matrix
        ktpf = kt[np.ix_(ppos, fpos)]
        u = sol[set_index][0].u_full
        if case == "primary-state":
            rhs, extra = partial, 0.0
        elif case == "primary-reaction":
            rhs, extra = ktpf.T @ partial, kt[np.ix_(ppos, ppos)] @ partial
            a[ppos, :] = -partial
        else:
            if case == "secondary-state":
                large, direct = partial, 0.0
            else:   # secondary-reaction
                large = np.asarray(model.k_fp @ partial)
                direct = model.k_pm.T @ partial
                X[plan.sec_prescribed.ids, :] = -partial
            X[plan.sec_free.ids, :] = model.kff_fact.solve(
                large, ledger=ledger, phase="adjoint")
            ctq = model.static_modes.T @ large - direct
            rhs, extra = -ctq[fpos], -ctq[ppos]
        lam_hat = solve_stack(model.set_factors[set_index], rhs[None],
                              ledger)[0]
        d_presc = extra - ktpf @ lam_hat
        a[fpos, :] = lam_hat

    dgdx = _state_gradient(grid, design, model, a[None], u, cols, X)[0]
    x_presc = X[plan.sec_prescribed.ids]
    d_loads = X[plan.sec_free.ids] - model.static_modes @ a
    d_values = -(model.k_pm @ a + model.k_fp.T @ d_loads + model.k_pp @ x_presc)
    return SensitivityBundle(dgdx, d_loads, d_values, lam_hat, d_presc)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

class UnresolvedGradientError(ValueError):
    """Raised by :func:`fd_verify` when it can resolve no gradient component."""


def fd_verify(func, x, grad, eps: float = 1e-6,
              floor: float = 1e-3) -> float:
    """Max relative error of ``grad`` against central differences of ``func``.

    Components the differences cannot resolve are skipped: those at or below
    ``floor`` times the largest ``|grad|``, and those within 1e4 times their
    roundoff ``ulp(|f(x)|) / eps``, which alone would read above 1e-4, the
    bound of ``mptop verify`` (a 4 x 40 mechanism has constraints near 1
    with components of 2e-5 and less). Raises
    :class:`UnresolvedGradientError` when every component is skipped.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    roundoff = np.spacing(abs(func(x))) / eps
    skip = max(floor * np.abs(grad).max(initial=0.0), 1e4 * roundoff)
    read = np.flatnonzero(np.abs(grad) > skip)
    if not read.size:
        raise UnresolvedGradientError(
            f"no gradient component above {skip:.3e}, the central-difference "
            f"resolution at eps = {eps:g}")
    worst = 0.0
    for k in read:
        step = np.zeros_like(x)
        step[k] = eps
        fd = (func(x + step) - func(x - step)) / (2.0 * eps)
        worst = max(worst, abs(fd - grad[k]) / abs(grad[k]))
    return worst
