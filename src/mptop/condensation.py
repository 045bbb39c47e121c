"""Static condensation of the secondary DOFs onto the primary set.

One factorization of the secondary-free block serves every right-hand side:
the coupling columns that build the dense reduced matrix, and the load
columns that build the reduced loads. Both solution blocks are retained —
they reappear verbatim in state recovery and in every sensitivity formula,
which is what makes the reduced-model gradients cheap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .partitions import PartitionPlan
from .sparse import (
    CostLedger,
    DenseCholesky,
    Factorization,
    SymmetricSparse,
    extract,
    factorize,
)


class EmptyPrimarySetError(ValueError):
    pass


@dataclass
class ReducedModel:
    """Dense reduced system plus everything retained from the elimination."""

    plan: PartitionPlan
    reduced_matrix: np.ndarray        # m x m, symmetric
    reduced_loads: np.ndarray         # m x total cases
    static_modes: np.ndarray          # f_sec x m solutions against the coupling block
    load_states: np.ndarray | None    # f_sec x cases, None when no secondary sources
    kff_fact: Factorization | DenseCholesky   # 0 x 0 dense when f_sec == 0
    k_fp: sp.csr_matrix               # secondary-free rows, secondary-prescribed cols
    k_fm: sp.csr_matrix               # secondary-free rows, primary cols
    k_pm: sp.csr_matrix               # secondary-prescribed rows, primary cols
    k_pp: sp.csr_matrix
    sec_values: np.ndarray            # prescribed magnitudes on secondary DOFs

    @property
    def m(self):
        return self.plan.m

    def has_secondary_sources(self) -> bool:
        return self.load_states is not None


def condense(K: SymmetricSparse, plan: PartitionPlan, sec_loads=None,
             sec_values=None, ledger: CostLedger | None = None) -> ReducedModel:
    """Eliminate the secondary DOFs of ``K`` under the given plan.

    ``sec_loads`` (sparse or dense, f_sec x cases) and ``sec_values``
    (p_sec x cases) describe loads and prescribed magnitudes on secondary
    DOFs; both may be None or zero, in which case the reduced loads vanish
    and no load columns are solved.

    The secondary-free block is factorized once. With no secondary-free DOFs
    the same path runs on a
    0 x 0 :class:`DenseCholesky`: the reduced matrix is the primary block,
    the reduced loads are ``-K_mp @ sec_values``, and nothing is recorded in
    the ledger.
    """
    if plan.m == 0:
        raise EmptyPrimarySetError("empty primary set: nothing to condense onto")
    mset, fset, pset = plan.primary, plan.sec_free, plan.sec_prescribed
    l_tot = plan.total_cases

    k_fm = extract(K, fset, mset)
    k_fp = extract(K, fset, pset)
    k_pm = extract(K, pset, mset)
    k_pp = extract(K, pset, pset)
    k_mm = extract(K, mset, mset).toarray()
    k_mp = sp.csr_matrix(k_pm.T)

    if sec_values is None:
        sec_values = np.zeros((plan.p_sec, l_tot))
    sec_values = np.asarray(sec_values, dtype=float)
    have_values = sec_values.size and np.any(sec_values)
    have_loads = sec_loads is not None and (
        sec_loads.nnz > 0 if sp.issparse(sec_loads) else np.any(sec_loads))

    if plan.f_sec:
        fact = factorize(SymmetricSparse.principal(extract(K, fset, fset)),
                         ledger=ledger)
    else:
        fact = DenseCholesky(np.zeros((0, 0)))

    rhs = [k_fm.toarray()]
    if have_loads or have_values:
        load_rhs = np.zeros((plan.f_sec, l_tot))
        if have_values:
            load_rhs += k_fp @ sec_values
        if have_loads:
            load_rhs -= (sec_loads.toarray() if sp.issparse(sec_loads)
                         else np.asarray(sec_loads, dtype=float))
        rhs.append(load_rhs)
    sol = fact.solve(np.hstack(rhs), ledger=ledger)
    static_modes = sol[:, :plan.m]
    load_states = sol[:, plan.m:] if len(rhs) > 1 else None

    reduced = k_mm - k_fm.T @ static_modes
    reduced = 0.5 * (reduced + reduced.T)

    if load_states is not None:
        reduced_loads = k_fm.T @ load_states - k_mp @ sec_values
    else:
        reduced_loads = np.zeros((plan.m, l_tot))

    return ReducedModel(plan, reduced, reduced_loads, static_modes,
                        load_states, fact, k_fp, k_fm, k_pm, k_pp, sec_values)


def recover_secondary(model: ReducedModel, u_primary,
                      ledger: CostLedger | None = None):
    """Secondary free states and secondary reaction loads for given primary states.

    ``u_primary`` holds one column per global load case in plan order. No new
    factorization or large solve happens here; everything is matrix algebra
    against the retained condensation blocks.
    """
    u_primary = np.asarray(u_primary, dtype=float)
    if u_primary.ndim == 1:
        u_primary = u_primary[:, None]
    if u_primary.shape != (model.m, model.plan.total_cases):
        raise ValueError(
            f"primary states must be {model.m} x {model.plan.total_cases}")
    u_sec_free = -(model.static_modes @ u_primary)
    if model.load_states is not None:
        u_sec_free -= model.load_states
    reactions = (model.k_pm @ u_primary
                 + model.k_fp.T @ u_sec_free
                 + model.k_pp @ model.sec_values)
    return u_sec_free, reactions
