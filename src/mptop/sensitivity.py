"""Design gradients for both pipelines, plus a finite-difference verifier.

Every gradient here reduces to sums of element-level contractions
``left^T (dK/dx_e) right``, directly or through the reduced derivatives below,
chained through the density filter once at the end; the full derivative of
the system matrix is never formed.

For the condensed pipeline the expansion operator (primary states to full
states via the retained coupling solutions) and the secondary load field are
reused from the condensation, so gradients of the reduced matrix need no
linear solve at all, and state gradients need only small dense adjoint
solves. Responses that read secondary states or secondary reactions are the
exception: they cost one extra large solve against the retained
factorization plus one small solve.

Condensed gradients of many responses share one contraction: their partials
``W = dg/dK~`` (m x m) and ``F = dg/df~`` (m x cases) meet each element's
reduced derivatives ``E_e^T k_e E_e`` and ``E_e^T k_e B_e``, chunk by chunk.
State responses pass ``W = -A U^T`` and ``F = A``. Their products are einsums,
not BLAS calls: a threaded BLAS call leaves OpenBLAS's workers spinning, and
on two cores that doubled the next banded Cholesky (p1 99x99: 18 -> 40 ms).
"""
from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .condensation import ReducedModel
from .fem import ELEMENT_CHUNK, DesignField, Grid, contract_dk_raw
from .sparse import CostLedger

ZERO_COLUMN_NORM = 1e-14


# ---------------------------------------------------------------------------
# operators retained from the condensation
# ---------------------------------------------------------------------------

def expand_primary(model: ReducedModel, y: np.ndarray) -> np.ndarray:
    """Map reduced vectors to full-length fields (primary rows verbatim,
    secondary-free rows through the retained coupling solutions)."""
    y = np.atleast_2d(np.asarray(y, dtype=float).T).T
    plan = model.plan
    out = np.zeros((plan.n, y.shape[1]))
    out[plan.primary.ids, :] = y
    if plan.f_sec:
        out[plan.sec_free.ids, :] = -(model.static_modes @ y)
    return out


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


def prescribed_coupling(model: ReducedModel, y: np.ndarray) -> np.ndarray:
    """Sensitivity route from reduced quantities onto the secondary prescribed
    values: rows live on the secondary prescribed DOFs."""
    y = np.atleast_2d(np.asarray(y, dtype=float).T).T
    out = -(model.k_pm @ y)
    if model.plan.f_sec:
        out += model.k_fp.T @ (model.static_modes @ y)
    return np.asarray(out)


def prescribed_coupling_t(model: ReducedModel, z: np.ndarray) -> np.ndarray:
    """Transpose of :func:`prescribed_coupling`: secondary-prescribed rows in,
    reduced rows out."""
    z = np.atleast_2d(np.asarray(z, dtype=float).T).T
    out = -(model.k_pm.T @ z)
    if model.plan.f_sec:
        out += model.static_modes.T @ (model.k_fp @ z)
    return np.asarray(out)


def state_mismatch(model: ReducedModel, set_index: int,
                   u_primary: np.ndarray) -> np.ndarray:
    """Right-hand contraction field for state responses of one analysis set:
    secondary-source field minus the expanded primary state."""
    b = load_field(model)
    d = -expand_primary(model, u_primary)
    if b is not None:
        d += b[:, model.plan.case_slices[set_index]]
    return d


# ---------------------------------------------------------------------------
# adjoint bookkeeping
# ---------------------------------------------------------------------------

def _solve_adjoint(fact, rhs, ledger):
    """Solve for the nonzero right-hand-side columns only."""
    rhs = np.atleast_2d(np.asarray(rhs, dtype=float).T).T
    lam = np.zeros_like(rhs)
    live = np.linalg.norm(rhs, axis=0) > ZERO_COLUMN_NORM
    if np.any(live):
        with _adjoint_phase(ledger):
            lam[:, live] = fact.solve(rhs[:, live], ledger=ledger)
    return lam


def _adjoint_phase(ledger):
    return ledger.phase("adjoint") if ledger is not None else nullcontext()


def _resolve_adjoint(spec, fact, ledger):
    """An adjoint spec is ('rhs', stack) to be solved, all rows in one call,
    or ('lam', stack); a stack holds one (free, cases) block per response."""
    kind, mat = spec
    mat = np.asarray(mat, dtype=float)
    rows, _, _ = mat.shape          # (rows, free, cases)
    if kind == "lam":
        return mat
    if kind == "rhs":   # every response's columns side by side
        return np.stack(np.hsplit(_solve_adjoint(fact, np.hstack(mat), ledger),
                                  rows))
    raise ValueError(f"unknown adjoint spec {kind!r}")


def _chain_rows(design: DesignField, raw: np.ndarray) -> np.ndarray:
    """Filter chain of a (rows, n_elems) stack, row-major (MMA roundoff follows)."""
    return np.ascontiguousarray(design.flt.chain(raw.T).T)


def _contract_reduced(grid: Grid, design: DesignField, model: ReducedModel,
                      W: np.ndarray, F: np.ndarray | None = None) -> np.ndarray:
    """Row r, element e: sum(W[r] * E_e^T dk_e E_e) + sum(F[r] * E_e^T dk_e B_e)
    w.r.t. the filtered field; ``W`` (rows, m, m), ``F`` (rows, m, cases) or
    None. E is expand_primary(model, I) without its product."""
    E = np.zeros((model.plan.n, model.m))
    E[model.plan.primary.ids, :] = np.eye(model.m)
    E[model.plan.sec_free.ids, :] = -model.static_modes
    B = None if F is None else load_field(model)
    out = np.empty((len(W), grid.n_elems))
    for e0 in range(0, grid.n_elems, ELEMENT_CHUNK):
        dofs = grid.edof[e0:e0 + ELEMENT_CHUNK]
        Ee = E[dofs]                                     # (chunk, k, m)
        EtK = Ee.transpose(0, 2, 1) @ grid.ke
        out[:, e0:e0 + len(dofs)] = np.einsum("rij,eij->re", W, EtK @ Ee)
        if B is not None:
            out[:, e0:e0 + len(dofs)] += np.einsum("rij,eij->re", F, EtK @ B[dofs])
    return design.dscales * out


# ---------------------------------------------------------------------------
# pipeline gradients for state-dependent responses
# ---------------------------------------------------------------------------

def sens_elementary(grid: Grid, design: DesignField, sol, sets, adjoints,
                    ledger: CostLedger | None = None) -> np.ndarray:
    """Gradients of several responses, full-system route: (rows, n_elems).

    ``adjoints[i]`` is ``('rhs', dg_dUfree)`` or, for self-adjoint responses,
    ``('lam', lam_free)``: a (rows, free, cases) stack on set i's free DOFs,
    zero where a response ignores the set. The retained factorizations of the
    response evaluation are reused, so no new preprocessing happens here.
    """
    if len(sol.factorizations) != len(sets):
        raise ValueError("solution does not match the analysis sets")
    acc = np.zeros((len(adjoints[0][1]), grid.n_elems))
    for i, (aset, spec) in enumerate(zip(sets, adjoints)):
        lam_free = _resolve_adjoint(spec, sol.factorizations[i], ledger)
        for r in np.flatnonzero(lam_free.any(axis=(1, 2))):
            lam = np.zeros((grid.n_dofs, aset.cases))
            lam[aset.free.ids, :] = lam_free[r]
            acc[r] -= contract_dk_raw(grid, design, lam, sol.sets[i].u_full)
    return _chain_rows(design, acc)


def sens_condensed_state(grid: Grid, design: DesignField, model: ReducedModel,
                         sol, sets, adjoints,
                         ledger: CostLedger | None = None) -> np.ndarray:
    """Gradients of several responses of the reduced free states, condensed
    route: (rows, n_elems).

    ``adjoints`` as for :func:`sens_elementary`, on the free primary DOFs.
    Adjoint systems are the small dense blocks retained by the condensed
    response evaluation; no large system is solved.
    """
    plan = model.plan
    A = np.zeros((len(adjoints[0][1]), plan.m, plan.total_cases))
    for i, spec in enumerate(adjoints):
        A[:, plan.free_primary_pos[i], plan.case_slices[i]] = \
            _resolve_adjoint(spec, sol.factorizations[i], ledger)
    U = np.hstack([sol.primary_states(plan, i) for i in range(len(sets))])
    W = -np.einsum("rmc,nc->rmn", A, U)
    return _chain_rows(design, _contract_reduced(grid, design, model, W, A))


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


def sens_reduced_matrix(grid: Grid, design: DesignField, model: ReducedModel,
                        dg_dkred: np.ndarray) -> np.ndarray:
    """Gradient of a response of the reduced matrix alone. Zero solves: both
    contraction sides come from the retained coupling solutions."""
    dg_dkred = np.asarray(dg_dkred, dtype=float)
    if dg_dkred.shape != (model.m, model.m):
        raise ValueError("partial must be m x m")
    return design.flt.chain(
        _contract_reduced(grid, design, model, dg_dkred[None])[0])


def sens_reduced_load(grid: Grid, design: DesignField, model: ReducedModel,
                      dg_dfred: np.ndarray,
                      set_index: int | None = None) -> SensitivityBundle:
    """Gradients of a response of the reduced loads. Zero solves."""
    dg_dfred = np.atleast_2d(np.asarray(dg_dfred, dtype=float).T).T
    cols = slice(None) if set_index is None else model.plan.case_slices[set_index]
    b = load_field(model)
    if b is None:
        dgdx = np.zeros(grid.n_elems)
    else:
        left = expand_primary(model, dg_dfred)
        dgdx = design.flt.chain(contract_dk_raw(grid, design, left, b[:, cols]))
    d_loads = -(model.static_modes @ dg_dfred) if model.plan.f_sec else \
        np.zeros((0, dg_dfred.shape[1]))
    d_values = prescribed_coupling(model, dg_dfred)
    return SensitivityBundle(dgdx, d_loads, d_values)


CASES = ("reduced-matrix", "reduced-load", "primary-state", "primary-reaction",
         "secondary-state", "secondary-reaction")


def sens_case(case: str, grid: Grid, design: DesignField, model: ReducedModel,
              partial, sol=None, set_index: int = 0,
              ledger: CostLedger | None = None) -> SensitivityBundle:
    """Full sensitivity bundle for one response dependency.

    ``partial`` is dg/d(quantity); set-specific cases also need the condensed
    solution ``sol`` for the retained dense factorization and the states.
    """
    if case == "reduced-matrix":
        return SensitivityBundle(sens_reduced_matrix(grid, design, model, partial))
    if case == "reduced-load":
        return sens_reduced_load(grid, design, model, partial, set_index)
    if case not in CASES:
        raise ValueError(f"unknown dependency case {case!r}")

    plan = model.plan
    partial = np.atleast_2d(np.asarray(partial, dtype=float).T).T
    fpos = plan.free_primary_pos[set_index]
    ppos = plan.presc_primary_pos[set_index]
    kt = model.reduced_matrix
    ktpf = kt[np.ix_(ppos, fpos)]
    fact = sol.factorizations[set_index]
    u_primary = sol.sets[set_index].u_full
    lam_check = None
    extra_presc = None

    if case == "primary-state":
        lam_hat = _solve_adjoint(fact, partial, ledger)
        d_presc = -(ktpf @ lam_hat)
    elif case == "primary-reaction":
        lam_hat = _solve_adjoint(fact, ktpf.T @ partial, ledger)
        d_presc = -(ktpf @ lam_hat) + kt[np.ix_(ppos, ppos)] @ partial
    elif case == "secondary-state":
        with _adjoint_phase(ledger):
            lam_check = model.kff_fact.solve(-partial, ledger=ledger)
        xtq = model.static_modes.T @ partial
        lam_hat = _solve_adjoint(fact, -xtq[fpos], ledger)
        d_presc = -(ktpf @ lam_hat) - xtq[ppos]
    else:  # secondary-reaction
        with _adjoint_phase(ledger):
            lam_check = model.kff_fact.solve(
                -np.asarray(model.k_fp @ partial), ledger=ledger)
        ctq = prescribed_coupling_t(model, partial)
        lam_hat = _solve_adjoint(fact, -ctq[fpos], ledger)
        d_presc = -(ktpf @ lam_hat) - ctq[ppos]
        extra_presc = partial

    a = np.zeros((plan.m, partial.shape[1]))
    a[fpos, :] = lam_hat
    if case == "primary-reaction":
        a[ppos, :] -= partial
    left = expand_primary(model, a)
    if lam_check is not None:
        left[plan.sec_free.ids, :] -= lam_check
    if extra_presc is not None:
        left[plan.sec_prescribed.ids, :] -= extra_presc
    right = state_mismatch(model, set_index, u_primary)
    dgdx = design.flt.chain(contract_dk_raw(grid, design, left, right))

    d_loads = -(model.static_modes @ a) if plan.f_sec else \
        np.zeros((0, a.shape[1]))
    d_values = prescribed_coupling(model, a)
    if case == "secondary-state":
        d_loads = d_loads - lam_check
        d_values = d_values + model.k_fp.T @ lam_check
    elif case == "secondary-reaction":
        d_loads = d_loads - lam_check
        d_values = (d_values + model.k_fp.T @ lam_check
                    + model.k_pp @ partial)
    return SensitivityBundle(dgdx, d_loads, d_values, lam_hat, d_presc)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def fd_verify(func, x, grad, eps: float = 1e-6,
              floor: float = 1e-3) -> float:
    """Max relative error of ``grad`` against central differences of ``func``.

    Components at or below ``floor`` times the largest ``|grad|`` are
    skipped. Central differences resolve a component only down to their
    roundoff, about 1e-10 absolute at ``eps = 1e-6`` for an O(1) response;
    far from the ports of a slender grid the components fall below that
    (~1e-11 on a 4 x 40 mechanism), and their relative error says nothing.
    """
    x = np.asarray(x, dtype=float)
    grad = np.asarray(grad, dtype=float)
    skip = floor * np.abs(grad).max(initial=0.0)
    worst = 0.0
    for k in range(x.size):
        if abs(grad[k]) <= skip:
            continue
        step = np.zeros_like(x)
        step[k] = eps
        fd = (func(x + step) - func(x - step)) / (2.0 * eps)
        worst = max(worst, abs(fd - grad[k]) / abs(grad[k]))
    return worst
