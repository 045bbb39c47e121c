"""End-to-end response pipelines over the analysis sets.

``solve_elementary`` treats every boundary-condition pattern as its own
large constrained system and streams through them: per set, one sparse
factorization, the state solve, the solve of the set's adjoint right-hand
sides, then release, so one factorization is alive at a time.
``solve_condensed`` runs every pattern against one shared reduced model: a
single large factorization total, then per set a small dense factorization,
the state solve and the adjoint solve against it; it keeps the dense handles
for the dependency cases of :func:`~mptop.sensitivity.sens_case`. Both
produce the same primary states and return the solved adjoints; the cost
ledgers differ.

Adjoint right-hand sides and solved adjoints travel as stacks, one
(rows, free, cases) array per set with one row per response;
:func:`check_stacks` rejects a stack of any other shape.
"""
from __future__ import annotations

from contextlib import nullcontext
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
    """States of one analysis set, held once.

    ``space`` records whether vectors span all DOFs ('full') or only the
    primary DOFs of the reduced model ('reduced'); ``u_full`` is the composite
    state in that space with prescribed values filled in.
    """

    space: str
    u_full: np.ndarray          # (space dim, cases)
    free: np.ndarray            # rows of u_full at the set's free DOFs
    prescribed: np.ndarray      # rows at its prescribed DOFs
    reactions: np.ndarray | None = None

    @property
    def u_free(self) -> np.ndarray:
        return self.u_full[self.free]

    @property
    def u_presc(self) -> np.ndarray:
        return self.u_full[self.prescribed]


@dataclass
class StateSolution:
    """States of every analysis set.

    ``factorizations`` holds the condensed pipeline's dense handles, one per
    set; the elementary pipeline keeps no factorization. ``adjoints`` holds
    the solved adjoint stacks, one per set, or is None when no right-hand
    sides were given (self-adjoint responses).
    """

    sets: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)
    adjoints: list | None = None

    def primary_states(self, plan: PartitionPlan, i: int) -> np.ndarray:
        """State restricted to the primary DOFs, comparable across pipelines."""
        s = self.sets[i]
        if s.space == "reduced":
            return s.u_full
        return s.u_full[plan.primary.ids, :]


def solve_elementary(K: SymmetricSparse, sets, adjoint_rhs=None,
                     ledger: CostLedger | None = None,
                     want_reactions: bool = False) -> StateSolution:
    """Solve each analysis set against the full system matrix, one set at a
    time: factorize, solve the states, solve the adjoints, release.

    ``adjoint_rhs`` holds one (rows, free, cases) stack of adjoint
    right-hand sides per set, or is None for self-adjoint responses, which
    need no adjoint solve. Each stack is solved with its set's factorization
    right after the states, and the solved stacks are returned as
    ``adjoints``.
    """
    if adjoint_rhs is not None:
        adjoint_rhs = check_stacks(adjoint_rhs,
                                   [(len(s.free), s.cases) for s in sets])
    out = StateSolution(adjoints=None if adjoint_rhs is None else [])
    for i, aset in enumerate(sets):
        fidx, pidx = aset.free, aset.prescribed
        fact = factorize(principal(K, fidx), ledger=ledger)
        k_fp = extract(K, fidx, pidx)
        rhs = -(k_fp @ aset.prescribed_values)
        f = aset.loads.tocoo()      # no load sits at a prescribed DOF
        rhs[np.searchsorted(fidx.ids, f.row), f.col] += f.data
        u_free = fact.solve(rhs, ledger=ledger)
        if adjoint_rhs is not None:
            out.adjoints.append(solve_stack(fact, adjoint_rhs[i], ledger))
        del fact    # release the band before the next set factorizes
        u_full = np.zeros((K.n, aset.cases))
        u_full[fidx.ids, :] = u_free
        u_full[pidx.ids, :] = aset.prescribed_values
        reactions = None
        if want_reactions:
            k_pp = extract(K, pidx, pidx)
            reactions = k_fp.T @ u_free + k_pp @ aset.prescribed_values
        out.sets.append(SetStates("full", u_full, fidx.ids, pidx.ids,
                                  reactions))
    return out


def solve_condensed(model: ReducedModel, sets, adjoint_rhs=None,
                    ledger: CostLedger | None = None,
                    want_reactions: bool = False) -> StateSolution:
    """Solve each analysis set against the shared reduced model, and its
    (rows, free primary, cases) stack of ``adjoint_rhs`` against the set's
    small dense factor right after the states, as :func:`solve_elementary`
    does; no large system is solved."""
    plan = model.plan
    if adjoint_rhs is not None:
        adjoint_rhs = check_stacks(adjoint_rhs,
                                   [(len(f), s.cases) for f, s
                                    in zip(plan.free_primary, sets)])
    kt = model.reduced_matrix
    out = StateSolution(adjoints=None if adjoint_rhs is None else [])
    for i, aset in enumerate(sets):
        fpos = plan.free_primary_pos[i]
        ppos = plan.presc_primary_pos[i]
        cols = plan.case_slices[i]
        ktff = kt[np.ix_(fpos, fpos)]
        ktfp = kt[np.ix_(fpos, ppos)]
        fact = DenseCholesky(ktff, ledger=ledger)

        f_free = aset.loads_at(plan.primary)[fpos]
        u_presc = aset.prescribed_values[
            plan.presc_primary[i].positions_in(aset.prescribed)]
        ft_free = model.reduced_loads[np.ix_(fpos, range(cols.start, cols.stop))]
        rhs = f_free - ktfp @ u_presc + ft_free
        u_free = fact.solve(rhs, ledger=ledger)
        if adjoint_rhs is not None:
            out.adjoints.append(solve_stack(fact, adjoint_rhs[i], ledger))

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
        out.sets.append(SetStates("reduced", u_full, fpos, ppos, reactions))
        out.factorizations.append(fact)
    return out


# ---------------------------------------------------------------------------
# adjoint stacks
# ---------------------------------------------------------------------------

def check_stacks(stacks, sizes) -> list:
    """``stacks`` as float arrays, checked to be one (rows, free, cases)
    stack per analysis set, where ``sizes[i]`` is set i's (free, cases) and
    every set has the row count of the first."""
    if len(stacks) != len(sizes):
        raise ValueError(f"{len(stacks)} adjoint stacks for {len(sizes)} "
                         "analysis sets")
    stacks = [np.asarray(s, dtype=float) for s in stacks]
    rows = stacks[0].shape[:1] if stacks else ()
    for i, (stack, size) in enumerate(zip(stacks, sizes)):
        if stack.shape != (*rows, *size):
            raise ValueError(f"adjoint stack of set {i} has shape "
                             f"{stack.shape}, expected {(*rows, *size)}")
    return stacks


def adjoint_phase(ledger):
    return ledger.phase("adjoint") if ledger is not None else nullcontext()


def solve_stack(fact, stack: np.ndarray, ledger=None) -> np.ndarray:
    """Solve a (rows, free, cases) stack in one call, every response's
    columns side by side; columns that are exactly zero are not solved."""
    rhs = np.hstack(stack)
    lam = np.zeros_like(rhs)
    live = rhs.any(axis=0)
    if np.any(live):
        with adjoint_phase(ledger):
            lam[:, live] = fact.solve(rhs[:, live], ledger=ledger)
    return np.stack(np.hsplit(lam, len(stack)))
