"""End-to-end response pipelines over the analysis sets.

Both pipelines give one result: per analysis set, in set order, a pair of
its :class:`SetStates` and its solved adjoint stack (None when no adjoint
right-hand sides are given, for self-adjoint responses).
``solve_elementary`` treats every boundary-condition pattern as its own
large constrained system and streams through them in set order: the calling
thread solves set i's states and adjoints and yields them while one helper
thread gathers and factorizes set i + 1, and releases set i's factorization
when it takes set i + 1's. The band kernels release the GIL, so on two
cores both run at once. Only while a set's solve runs at level 3 does the
next set go to the helper; after a solve of few right-hand sides, set i is
released and set i + 1 factorized on the calling thread. The helper only
factorizes, into the other of the stream's two band buffers, records into
the caller's ledger, and lives for one stream: at most two sets'
full-length states are alive.
``solve_condensed`` runs every pattern against one shared reduced model,
whose :func:`~mptop.condensation.condense` made the single large
factorization and each set's small dense one: per set it runs only the
state solve and the adjoint solve, and returns the list of pairs at once.
Its states are on the primary DOFs, the elementary ones on all DOFs; the
primary states and the solved adjoints on the free primary DOFs agree.
Both solve the adjoint stacks through :func:`solve_stack`; the cost
ledgers differ.

Adjoint right-hand sides and solved adjoints travel as stacks, one
(rows, free, cases) array per set with one row per response;
:func:`check_stacks` rejects a stack of any other shape.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .condensation import ReducedModel
from .sparse import (
    CostLedger,
    SymmetricSparse,
    _solve_by_blocks,
    band_storage,
    extract,
    factorize,
    principal,
)


@dataclass
class SetStates:
    """States of one analysis set, held once.

    ``u_full`` is the composite state with prescribed values filled in, on
    all DOFs as :func:`solve_elementary` yields it, or on the primary DOFs
    in the ascending order of the reduced model.
    """

    u_full: np.ndarray          # (all or primary DOFs, cases)
    free: np.ndarray            # rows of u_full at the set's free DOFs
    prescribed: np.ndarray      # rows at its prescribed DOFs

    @property
    def u_free(self) -> np.ndarray:
        return self.u_full[self.free]

    @property
    def u_presc(self) -> np.ndarray:
        return self.u_full[self.prescribed]


def solve_elementary(K: SymmetricSparse, sets, adjoint_rhs=None,
                     ledger: CostLedger | None = None):
    """Solve each analysis set against the full system matrix: factorize,
    solve the states, solve the adjoints, release; yield each set's
    :class:`SetStates` and solved adjoint stack (None without
    ``adjoint_rhs``) in set order. While a set's solve runs at level 3, a
    helper thread factorizes the next set.

    ``adjoint_rhs`` holds one (rows, free, cases) stack of adjoint
    right-hand sides per set, or is None for self-adjoint responses, which
    need no adjoint solve. Each stack is solved with its set's factorization
    right after the states.
    """
    if adjoint_rhs is not None:
        adjoint_rhs = check_stacks(adjoint_rhs,
                                   [(len(s.free), s.cases) for s in sets])
    blocks = [principal(K, aset.free) for aset in sets]
    # a second band alive pays beside a level-3 solve only: with every set
    # prefetched, p2-mechanism's 1-2 column sets took 16.1 -> 14.5 ms per
    # evaluate but 84 -> 96 MB peak RSS, and p2-slender's 19.0 -> 15.8 ms
    # but 98 -> 114 MB. Set i's band fills buffer i mod 2 of the stream's
    # two, or its only one when no set is prefetched
    prefetch = [_solve_by_blocks(block.bandwidth, aset.cases)
                for block, aset in zip(blocks[:-1], sets)] + [False]
    bands = [band_storage(blocks) for _ in range(bool(sets) + any(prefetch))]
    ahead = None        # the next set's factorization, on the helper
    with ThreadPoolExecutor(1, thread_name_prefix="mptop-elementary") as helper:
        for i, aset in enumerate(sets):
            fact, k_fp = (_factorize_set(K, blocks[i], aset, ledger,
                                         bands[i % len(bands)])
                          if ahead is None else ahead.result())
            ahead = None
            if prefetch[i]:
                ahead = helper.submit(_factorize_set, K, blocks[i + 1],
                                      sets[i + 1], ledger, bands[(i + 1) % 2])
            states = _set_states(K, aset, fact, k_fp, ledger)
            stack = (None if adjoint_rhs is None
                     else solve_stack(fact, adjoint_rhs[i], ledger))
            if ahead is None:   # released before the next set factorizes;
                fact = None     # else when the helper hands that one over
            yield states, stack


def _factorize_set(K, block, aset, ledger, storage):
    """``block`` factorized in ``storage``, and ``aset``'s K_fp."""
    return (factorize(block, ledger=ledger, storage=storage),
            extract(K, aset.free, aset.prescribed))


def _set_states(K, aset, fact, k_fp, ledger):
    """Set ``aset``'s :class:`SetStates` on all DOFs, solved with ``fact``;
    no buffer of the solve outlives it."""
    rhs = -(k_fp @ aset.prescribed_values)
    f = aset.loads.tocoo()      # no load sits at a prescribed DOF
    rhs[np.searchsorted(aset.free.ids, f.row), f.col] += f.data
    u_free = fact.solve(rhs, ledger=ledger)
    u_full = np.zeros((K.n, aset.cases))
    u_full[aset.free.ids, :] = u_free
    u_full[aset.prescribed.ids, :] = aset.prescribed_values
    return SetStates(u_full, aset.free.ids, aset.prescribed.ids)


def solve_condensed(model: ReducedModel, sets, adjoint_rhs=None,
                    ledger: CostLedger | None = None) -> list:
    """Solve each analysis set against the shared reduced model, and its
    (rows, free primary, cases) stack of ``adjoint_rhs`` right after, both
    against the set's dense factor in ``model.set_factors``: nothing is
    factorized and no large system is solved. Returns, as a list, the pairs
    :func:`solve_elementary` yields, with the states on the primary DOFs."""
    plan = model.plan
    if adjoint_rhs is not None:
        adjoint_rhs = check_stacks(adjoint_rhs,
                                   [(len(f), s.cases) for f, s
                                    in zip(plan.free_primary, sets)])
    kt = model.reduced_matrix
    out = []
    for i, (aset, fact) in enumerate(zip(sets, model.set_factors)):
        fpos = plan.free_primary_pos[i]
        ppos = plan.presc_primary_pos[i]
        f_free = aset.loads_at(plan.primary)[fpos]
        u_presc = aset.prescribed_values[
            plan.presc_primary[i].positions_in(aset.prescribed)]
        ft_free = model.reduced_loads[fpos, plan.case_slices[i]]
        rhs = f_free - kt[np.ix_(fpos, ppos)] @ u_presc + ft_free
        u_full = np.zeros((plan.m, aset.cases))
        u_full[fpos, :] = fact.solve(rhs, ledger=ledger)
        u_full[ppos, :] = u_presc
        stack = (None if adjoint_rhs is None
                 else solve_stack(fact, adjoint_rhs[i], ledger))
        out.append((SetStates(u_full, fpos, ppos), stack))
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
    rows = np.shape(stacks[0])[:1] if stacks else ()
    return [check_stack(stack, i, (*rows, *size))
            for i, (stack, size) in enumerate(zip(stacks, sizes))]


def check_stack(stack, i: int, shape: tuple) -> np.ndarray:
    """Set i's ``stack`` as a float array, checked to have ``shape``."""
    stack = np.asarray(stack, dtype=float)
    if stack.shape != shape:
        raise ValueError(f"adjoint stack of set {i} has shape {stack.shape}, "
                         f"expected {shape}")
    return stack


def solve_stack(fact, stack: np.ndarray, ledger=None) -> np.ndarray:
    """Solve a (rows, free, cases) stack in one call, every response's
    columns side by side, in the ledger's ``"adjoint"`` phase; columns that
    are exactly zero, and so a stack of no rows, are not solved, and stay
    zero."""
    rows, free, cases = stack.shape
    cols = stack.transpose(1, 0, 2).reshape(free, rows * cases)
    live = cols.any(axis=0)
    lam = np.zeros_like(cols)
    if live.any():
        lam[:, live] = fact.solve(cols[:, live], ledger=ledger,
                                  phase="adjoint")
    return np.ascontiguousarray(
        lam.reshape(free, rows, cases).transpose(1, 0, 2))
