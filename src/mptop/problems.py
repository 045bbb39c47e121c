"""The two benchmark problems and their responses.

Problem 1 — multi-port heat conduction: m seeded random node DOFs act as
ports; analysis set i grounds port i (temperature zero) and applies the other
ports' heat loads one per load case. The objective is the summed conductive
compliance over every case of every set; material usage is capped. The
problem is self-adjoint: each adjoint equals the corresponding state, so no
adjoint solve is ever issued.

Problem 2 — multi-input-multi-output compliant mechanism: plane-stress square
with both vertical edges clamped, x input DOFs on the left edge midspan and x
output DOFs on the right. Analysis set j drives input j with a unit
displacement; the transmission matrix entries are the output displacements.
Material is maximized subject to one transmission constraint per input/output
pair; the x constraints that read one set share its adjoint solve.

Both filter the design at radius 2 and interpolate it by SIMP with penalty 3
and floor 1e-9, the defaults of :class:`Filter` and :class:`DesignField`.
"""
from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .analysis import (SetStates, StateSolution, solve_condensed,
                       solve_elementary)
from .condensation import condense
from .fem import DesignField, Filter, Grid, assemble
from .partitions import AnalysisSet, PartitionPlan, build_plan, gather_secondary
from .sensitivity import sens_condensed_state, sens_elementary
from .sparse import CostLedger, IndexSet


@dataclass
class ProblemSpec:
    kind: str
    grid: Grid
    flt: Filter
    sets: list
    plan: PartitionPlan
    sec_loads: object
    sec_values: np.ndarray
    x0: np.ndarray
    n_constraints: int
    params: dict = field(default_factory=dict)

    def design(self, x) -> DesignField:
        return DesignField(self.grid, x, self.flt)


@dataclass
class Evaluation:
    objective: float
    constraints: np.ndarray
    d_objective: np.ndarray | None
    d_constraints: np.ndarray | None
    states: object
    model: object


def build_problem1(nelx: int, nely: int, m: int, vbar: float = 0.2,
                   seed: int = 0) -> ProblemSpec:
    """Multi-port conduction problem with seeded port placement and loads."""
    grid = Grid(nelx, nely, physics="conduction")
    n = grid.n_dofs
    if m < 2:
        raise ValueError("need at least two ports")
    if m > n:
        raise ValueError(f"cannot place {m} distinct ports on {n} DOFs")
    if not 0 < vbar <= 1:
        raise ValueError(f"vbar must be in (0, 1], got {vbar}")
    rng = np.random.default_rng(seed)
    ports = rng.choice(n, size=m, replace=False)
    magnitudes = rng.uniform(0.0, 1.0, size=m)

    interest = IndexSet(ports, n)
    sets = []
    for i in range(m):
        others = np.delete(np.arange(m), i)   # load case c heats port others[c]
        loads = sp.csc_matrix((magnitudes[others],
                               (ports[others], np.arange(m - 1))),
                              shape=(n, m - 1))
        sets.append(AnalysisSet(n, IndexSet([ports[i]], n), interest,
                                prescribed_values=np.zeros((1, m - 1)),
                                loads=loads))
    plan = build_plan(sets, n)
    sec_loads, sec_values = gather_secondary(plan, sets)
    return ProblemSpec(
        kind="problem1", grid=grid, flt=Filter(grid), sets=sets,
        plan=plan, sec_loads=sec_loads, sec_values=sec_values,
        x0=np.full(grid.n_elems, vbar), n_constraints=1,
        params={"m": m, "vbar": vbar, "seed": seed, "ports": ports,
                "magnitudes": magnitudes},
    )


def build_problem2(nelx: int, nely: int, n_inputs: int, jbar) -> ProblemSpec:
    """MIMO compliant-mechanism problem with target transmission matrix."""
    jbar = np.asarray(jbar, dtype=float)
    if jbar.shape != (n_inputs, n_inputs):
        raise ValueError(f"target matrix must be {n_inputs} x {n_inputs}")
    if np.any(jbar == 0.0):
        raise ValueError("target transmission entries must be nonzero")
    grid = Grid(nelx, nely, physics="plane-stress")
    n = grid.n_dofs

    io_rows = [int(round((k + 1) * nely / (n_inputs + 1)))
               for k in range(n_inputs)]
    if len(set(io_rows)) != n_inputs:
        raise ValueError("grid too coarse to separate the input nodes")
    in_nodes = [grid.node(r, 0) for r in io_rows]
    out_nodes = [grid.node(r, grid.nelx) for r in io_rows]
    in_dofs = [2 * nd for nd in in_nodes]      # horizontal components
    out_dofs = [2 * nd for nd in out_nodes]

    edge_nodes = ([grid.node(r, 0) for r in range(nely + 1)]
                  + [grid.node(r, grid.nelx) for r in range(nely + 1)])
    fixed = set()
    for nd in edge_nodes:
        fixed.add(2 * nd)
        fixed.add(2 * nd + 1)
    fixed -= set(in_dofs) | set(out_dofs)      # driven/read DOFs stay loose
    fixed = np.array(sorted(fixed))

    interest = IndexSet(in_dofs + out_dofs, n)
    sets = []
    for j in range(n_inputs):
        presc = IndexSet(np.append(fixed, in_dofs[j]), n)
        values = np.zeros((len(presc), 1))
        pos = int(np.searchsorted(presc.ids, in_dofs[j]))
        values[pos, 0] = 1.0
        sets.append(AnalysisSet(n, presc, interest, prescribed_values=values))
    plan = build_plan(sets, n)
    sec_loads, sec_values = gather_secondary(plan, sets)
    return ProblemSpec(
        kind="problem2", grid=grid, flt=Filter(grid), sets=sets,
        plan=plan, sec_loads=sec_loads, sec_values=sec_values,
        x0=np.ones(grid.n_elems), n_constraints=n_inputs * n_inputs,
        params={"n_inputs": n_inputs, "jbar": jbar, "in_dofs": in_dofs,
                "out_dofs": out_dofs},
    )


# ---------------------------------------------------------------------------
# response evaluation
# ---------------------------------------------------------------------------

def evaluate(problem: ProblemSpec, x, pipeline: str = "condensed",
             want_grads: bool = True,
             ledger: CostLedger | None = None) -> Evaluation:
    """One full response (and gradient) evaluation at design ``x``.

    The pipeline is chosen here only: it fixes the free DOFs each set's states
    live on and the gradient route (``sens_condensed_state``, one contraction
    through the reduced model, or ``sens_elementary``, one per set and
    response). The responses' adjoint right-hand sides depend only on those
    free DOFs, so they are built before the solve, and both pipelines solve
    them right after each set's states. One gradient call then contracts
    every response: the solved adjoints, or the states themselves for the
    self-adjoint problem 1. The elementary sets stream through it, each one
    contracted as it is solved; then only their (m, cases) primary rows,
    which the responses read, are kept, as the condensed states are.
    """
    grid = problem.grid
    design = problem.design(np.asarray(x, dtype=float))
    K = assemble(grid, design)
    if pipeline == "condensed":
        free_sets = problem.plan.free_primary
    elif pipeline == "elementary":
        free_sets = [aset.free for aset in problem.sets]
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    adjoint_rhs = _adjoint_rhs(problem, free_sets) if want_grads else None

    d_states = model = None
    if pipeline == "condensed":
        model = condense(K, problem.plan, problem.sec_loads,
                         problem.sec_values, ledger=ledger)
        sol = solve_condensed(model, problem.sets, adjoint_rhs, ledger=ledger)
        if want_grads:
            d_states = sens_condensed_state(grid, design, model, sol,
                                            problem.sets, sol.adjoints)
    else:
        sol = StateSolution()
        stream = _keep_primary_rows(problem.plan, sol, solve_elementary(
            K, problem.sets, adjoint_rhs, ledger=ledger))
        with closing(stream):   # a consumer that raises stops the helper
            if want_grads:
                d_states = sens_elementary(grid, design, stream)
            else:
                for _ in stream:
                    pass

    if problem.kind == "problem1":
        responses = _evaluate_p1(problem, design, sol, d_states)
    else:
        responses = _evaluate_p2(problem, design, sol, d_states)
    return Evaluation(*responses, sol, model)


def _keep_primary_rows(plan, kept, stream):
    """``stream`` passed on, each set's primary rows appended to ``kept``."""
    for i, (state, stack) in enumerate(stream):
        kept.sets.append(SetStates(state.u_full[plan.primary.ids],
                                   plan.free_primary_pos[i],
                                   plan.presc_primary_pos[i]))
        yield state, stack


def _adjoint_rhs(problem, free_sets):
    """One (rows, free, cases) stack of adjoint right-hand sides per set, or
    None for problem 1, whose compliance is self-adjoint."""
    if problem.kind == "problem1":
        return None
    jbar = problem.params["jbar"]
    x_in = problem.params["n_inputs"]
    outputs = IndexSet(problem.params["out_dofs"], problem.plan.n)
    # constraint row i * x_in + j reads output i of set j
    stacks = []
    for j, free in enumerate(free_sets):
        rhs = np.zeros((x_in * x_in, len(free), 1))
        rhs[np.arange(x_in) * x_in + j, outputs.positions_in(free), 0] = \
            1.0 / jbar[:, j]
        stacks.append(rhs)
    return stacks


def _evaluate_p1(problem, design, sol, d_states):
    grid, plan = problem.grid, problem.plan
    vbar = problem.params["vbar"]
    n_elems = grid.n_elems

    # compliance u^T K u is the work of the port loads: the grounded port
    # carries zero temperature, every other port is loaded and primary
    g0 = sum(float(np.sum(aset.loads_at(plan.primary)
                          * sol.sets[i].u_full))
             for i, aset in enumerate(problem.sets))
    g1 = float(design.filtered.sum() / (n_elems * vbar) - 1.0)

    d0 = d1 = None
    if d_states is not None:
        # grounded ports (zero prescribed values) make the compliance
        # self-adjoint: the explicit matrix dependence folds into the adjoint
        # term, leaving adjoint == state and no adjoint solve at all
        d0 = d_states[0]
        d1 = design.flt.chain(np.full(n_elems, 1.0 / (n_elems * vbar)))
        d1 = d1[None, :]
    return g0, np.array([g1]), d0, d1


def _evaluate_p2(problem, design, sol, d_states):
    plan = problem.plan
    jbar = problem.params["jbar"]
    x_in = problem.params["n_inputs"]
    out_pos = IndexSet(problem.params["out_dofs"], plan.n).positions_in(
        plan.primary)
    n_elems = problem.grid.n_elems

    # transmission entries: output displacement i under unit input j
    jmat = np.column_stack([sol.sets[j].u_full[out_pos, 0]
                            for j in range(x_in)])

    g0 = -float(design.filtered.sum()) / n_elems
    cons = (jmat / jbar + 1.0).ravel()

    d0 = None
    if d_states is not None:
        d0 = -design.flt.chain(np.ones(n_elems)) / n_elems
    return g0, cons, d0, d_states
