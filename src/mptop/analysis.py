"""End-to-end response pipelines over the analysis sets.

``solve_elementary`` treats every boundary-condition pattern as its own
large constrained system: one sparse factorization per set. ``solve_condensed``
runs every pattern against one shared reduced model: a single large
factorization total, then small dense solves per set. Both produce the same
primary states; the cost ledgers differ.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .condensation import ReducedModel
from .partitions import PartitionPlan
from .sparse import (
    CostLedger,
    DenseCholesky,
    SymmetricSparse,
    extract,
    factorize,
    principal,
)


@dataclass
class SetStates:
    """States of one analysis set.

    ``space`` records whether vectors span all DOFs ('full') or only the
    primary DOFs of the reduced model ('reduced'); ``u_full`` is the composite
    state in that space with prescribed values filled in.
    """

    space: str
    u_free: np.ndarray          # (free, cases)
    u_presc: np.ndarray         # echoed prescribed values
    u_full: np.ndarray          # (space dim, cases)
    reactions: np.ndarray | None = None


@dataclass
class StateSolution:
    sets: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)

    def primary_states(self, plan: PartitionPlan, i: int) -> np.ndarray:
        """State restricted to the primary DOFs, comparable across pipelines."""
        s = self.sets[i]
        if s.space == "reduced":
            return s.u_full
        return s.u_full[plan.primary.ids, :]


def solve_elementary(K: SymmetricSparse, sets,
                     ledger: CostLedger | None = None,
                     want_reactions: bool = False) -> StateSolution:
    """Solve each analysis set against the full system matrix."""
    out = StateSolution()
    for aset in sets:
        fidx, pidx = aset.free, aset.prescribed
        fact = factorize(principal(K, fidx), ledger=ledger)
        k_fp = extract(K, fidx, pidx)
        rhs = aset.loads_free() - k_fp @ aset.prescribed_values
        u_free = fact.solve(rhs, ledger=ledger)
        u_full = np.zeros((K.n, aset.cases))
        u_full[fidx.ids, :] = u_free
        u_full[pidx.ids, :] = aset.prescribed_values
        reactions = None
        if want_reactions:
            k_pp = extract(K, pidx, pidx)
            reactions = k_fp.T @ u_free + k_pp @ aset.prescribed_values
        out.sets.append(SetStates("full", u_free,
                                  aset.prescribed_values.copy(), u_full,
                                  reactions))
        out.factorizations.append(fact)
    return out


def solve_condensed(model: ReducedModel, sets,
                    ledger: CostLedger | None = None,
                    want_reactions: bool = False) -> StateSolution:
    """Solve each analysis set against the shared reduced model."""
    plan = model.plan
    kt = model.reduced_matrix
    out = StateSolution()
    for i, aset in enumerate(sets):
        fpos = plan.free_primary_pos[i]
        ppos = plan.presc_primary_pos[i]
        cols = plan.case_slices[i]
        ktff = kt[np.ix_(fpos, fpos)]
        ktfp = kt[np.ix_(fpos, ppos)]
        fact = DenseCholesky(ktff, ledger=ledger)

        f_free = np.asarray(
            aset.loads[plan.free_primary[i].ids, :].toarray())
        u_presc = _primary_prescribed_values(plan, aset, i)
        ft_free = model.reduced_loads[np.ix_(fpos, range(cols.start, cols.stop))]
        rhs = f_free - ktfp @ u_presc + ft_free
        u_free = fact.solve(rhs, ledger=ledger)

        u_full = np.zeros((plan.m, aset.cases))
        u_full[fpos, :] = u_free
        u_full[ppos, :] = u_presc
        reactions = None
        if want_reactions:
            ktpf = kt[np.ix_(ppos, fpos)]
            ktpp = kt[np.ix_(ppos, ppos)]
            ft_presc = model.reduced_loads[
                np.ix_(ppos, range(cols.start, cols.stop))]
            reactions = ktpf @ u_free + ktpp @ u_presc - ft_presc
        out.sets.append(SetStates("reduced", u_free, u_presc,
                                  u_full, reactions))
        out.factorizations.append(fact)
    return out


def _primary_prescribed_values(plan: PartitionPlan, aset, i: int) -> np.ndarray:
    """Prescribed magnitudes at the primary prescribed DOFs of set ``i``."""
    phat = plan.presc_primary[i]
    rows = phat.positions_in(aset.prescribed)
    return aset.prescribed_values[rows, :]
