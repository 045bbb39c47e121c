"""End-to-end response pipelines over the analysis sets.

``solve_elementary`` treats every boundary-condition pattern as its own
large constrained system and streams through them, up to two sets in
flight: the calling thread gathers and factorizes set i while one helper
thread solves set i - 1's states and adjoints in place, then collects set
i - 1 and hands set i to the helper. The band kernels release the GIL, so
on two cores both run at once. Only sets whose solve runs at level 3 go to
the helper; a set of few right-hand sides is solved on the calling thread,
and released, before the next set factorizes. The helper allocates no array
and lives for one stream. Each set's states and solved adjoints are
yielded, and its ledger events joined, in set order, the helper's set while
the next one solves: at most two factorizations and two sets' full-length
states are alive. ``solve_condensed`` runs every pattern against one
shared reduced model: a single large factorization total, then per set a
small dense factorization, the state solve and the adjoint solve against
it; it keeps the dense handles for the dependency cases of
:func:`~mptop.sensitivity.sens_case`. Both produce the same primary states
and solved adjoints; the cost ledgers differ.

Adjoint right-hand sides and solved adjoints travel as stacks, one
(rows, free, cases) array per set with one row per response;
:func:`check_stacks` rejects a stack of any other shape.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .condensation import ReducedModel
from .sparse import (
    CostLedger,
    DenseCholesky,
    SymmetricSparse,
    _solve_by_blocks,
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
    set. ``adjoints`` holds its solved adjoint stacks, one per set, or is
    None when no right-hand sides were given (self-adjoint responses). An
    elementary evaluation keeps each set's primary rows only, with neither.
    """

    sets: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)
    adjoints: list | None = None


def solve_elementary(K: SymmetricSparse, sets, adjoint_rhs=None,
                     ledger: CostLedger | None = None,
                     want_reactions: bool = False):
    """Solve each analysis set against the full system matrix: factorize,
    solve the states, solve the adjoints, release; yield each set's
    :class:`SetStates` and solved adjoint stack (None without
    ``adjoint_rhs``) in set order. A set whose solve runs at level 3 is
    solved on a helper thread while the next set factorizes, and yielded
    while that one solves.

    ``adjoint_rhs`` holds one (rows, free, cases) stack of adjoint
    right-hand sides per set, or is None for self-adjoint responses, which
    need no adjoint solve. Each stack is solved with its set's factorization
    right after the states.
    """
    if adjoint_rhs is not None:
        adjoint_rhs = check_stacks(adjoint_rhs,
                                   [(len(s.free), s.cases) for s in sets])
    pending = None      # a set solving on the helper, and its result call
    with ThreadPoolExecutor(1, thread_name_prefix="mptop-elementary") as helper:
        for i, aset in enumerate(sets):
            job = _SetSolve(K, aset, ledger)    # while set i - 1 is solved
            done = None if pending is None else pending[0].collect(
                pending[1](), K, ledger, want_reactions)
            job.prepare(None if adjoint_rhs is None else adjoint_rhs[i])
            pending = None
            # a solve of few columns is worth less than a second band alive
            # (fresh pages to fill; p2-mechanism, 1-2 columns: 2.4 ms solved
            # beside about 6 ms of slower fills and factorizations), so only
            # level-3 solves go to the helper; the last set solves here
            if i + 1 < len(sets) and job.fact.n and _solve_by_blocks(
                    job.fact.bandwidth, aset.cases):
                pending = job, helper.submit(job).result
            if done is not None:
                yield done      # consumed beside set i's solve
            if pending is None:
                yield job.collect(job(), K, ledger, want_reactions)


class _SetSolve:
    """One set of :func:`solve_elementary`: factorized and prepared on the
    calling thread, solved in place when called, collected in set order.
    The previous set is collected, and its band and buffers released,
    between the two steps on the calling thread, which bounds what is alive
    to two bands and two sets' right-hand sides."""

    def __init__(self, K, aset, ledger):
        self.aset = aset
        # the events join the caller's ledger when the set is collected
        self.ledger = (None if ledger is None
                       else CostLedger(_phase=ledger._phase))
        self.fact = factorize(principal(K, aset.free), ledger=self.ledger)
        self.k_fp = extract(K, aset.free, aset.prescribed)

    def prepare(self, stack):
        aset = self.aset
        rhs = -(self.k_fp @ aset.prescribed_values)
        f = aset.loads.tocoo()      # no load sits at a prescribed DOF
        rhs[np.searchsorted(aset.free.ids, f.row), f.col] += f.data
        self.states = self.fact.prepare(rhs)
        self.stack, self.adjoints = stack, None
        if stack is not None:
            cols, self.live = _stack_columns(stack)
            if self.live.any():
                self.adjoints = self.fact.prepare(cols[:, self.live])

    def __call__(self):
        u_free = self.fact.solve_prepared(self.states, self.ledger)
        lam = None
        if self.adjoints is not None:
            with adjoint_phase(self.ledger):
                lam = self.fact.solve_prepared(self.adjoints, self.ledger)
        return u_free, lam

    def collect(self, solved, K, ledger, want_reactions):
        """The set's states and solved adjoint stack; its band and buffers
        are released here, on the calling thread, before the next set."""
        u_free, lam = solved
        self.fact = self.states = self.adjoints = None
        if ledger is not None:
            ledger.events.extend(self.ledger.events)
        aset = self.aset
        stack = (None if self.stack is None
                 else _unstack(lam, self.live, self.stack.shape))
        u_full = np.zeros((K.n, aset.cases))
        u_full[aset.free.ids, :] = u_free
        u_full[aset.prescribed.ids, :] = aset.prescribed_values
        reactions = None
        if want_reactions:
            k_pp = extract(K, aset.prescribed, aset.prescribed)
            reactions = (self.k_fp.T @ u_free
                         + k_pp @ aset.prescribed_values)
        return SetStates(u_full, aset.free.ids, aset.prescribed.ids,
                         reactions), stack


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
        out.sets.append(SetStates(u_full, fpos, ppos, reactions))
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


def adjoint_phase(ledger):
    return ledger.phase("adjoint") if ledger is not None else nullcontext()


def solve_stack(fact, stack: np.ndarray, ledger=None) -> np.ndarray:
    """Solve a (rows, free, cases) stack in one call, every response's
    columns side by side; columns that are exactly zero are not solved."""
    cols, live = _stack_columns(stack)
    lam = None
    if np.any(live):
        with adjoint_phase(ledger):
            lam = fact.solve(cols[:, live], ledger=ledger)
    return _unstack(lam, live, stack.shape)


def _stack_columns(stack):
    """A stack's responses side by side, (free, rows * cases), and which of
    those columns are not exactly zero."""
    cols = np.hstack(stack)
    return cols, cols.any(axis=0)


def _unstack(lam, live, shape):
    """The (rows, free, cases) stack of the solved ``live`` columns ``lam``
    (None when no column is live), zero elsewhere."""
    full = np.zeros((shape[1], live.size))
    if lam is not None:
        full[:, live] = lam
    return np.stack(np.hsplit(full, shape[0]))
