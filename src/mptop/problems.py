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
pair; each constraint needs one small adjoint solve per driving set.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .analysis import solve_condensed, solve_elementary
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
    penal: float = 3.0
    emin: float = 1e-9
    params: dict = field(default_factory=dict)

    def design(self, x) -> DesignField:
        return DesignField(self.grid, x, self.flt, self.penal, self.emin)


@dataclass
class Evaluation:
    objective: float
    constraints: np.ndarray
    d_objective: np.ndarray | None
    d_constraints: np.ndarray | None
    states: object
    model: object


def build_problem1(nelx: int, nely: int, m: int, vbar: float = 0.2,
                   seed: int = 0, radius: float = 2.0, penal: float = 3.0,
                   emin: float = 1e-9) -> ProblemSpec:
    """Multi-port conduction problem with seeded port placement and loads."""
    grid = Grid(nelx, nely, physics="conduction")
    n = grid.n_dofs
    if m < 2:
        raise ValueError("need at least two ports")
    if m > n:
        raise ValueError(f"cannot place {m} distinct ports on {n} DOFs")
    rng = np.random.default_rng(seed)
    ports = rng.choice(n, size=m, replace=False)
    magnitudes = rng.uniform(0.0, 1.0, size=m)

    interest = IndexSet(ports, n)
    sets = []
    for i in range(m):
        others = [j for j in range(m) if j != i]
        loads = sp.lil_matrix((n, m - 1))
        for case, j in enumerate(others):
            loads[ports[j], case] = magnitudes[j]
        sets.append(AnalysisSet(n, IndexSet([ports[i]], n), interest,
                                prescribed_values=np.zeros((1, m - 1)),
                                loads=loads.tocsc()))
    plan = build_plan(sets, n)
    sec_loads, sec_values = gather_secondary(plan, sets)
    return ProblemSpec(
        kind="problem1", grid=grid, flt=Filter(grid, radius), sets=sets,
        plan=plan, sec_loads=sec_loads, sec_values=sec_values,
        x0=np.full(grid.n_elems, vbar), n_constraints=1, penal=penal,
        emin=emin,
        params={"m": m, "vbar": vbar, "seed": seed, "ports": ports,
                "magnitudes": magnitudes},
    )


def build_problem2(nelx: int, nely: int, n_inputs: int, jbar,
                   radius: float = 2.0, penal: float = 3.0,
                   emin: float = 1e-9) -> ProblemSpec:
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
        kind="problem2", grid=grid, flt=Filter(grid, radius), sets=sets,
        plan=plan, sec_loads=sec_loads, sec_values=sec_values,
        x0=np.ones(grid.n_elems), n_constraints=n_inputs * n_inputs,
        penal=penal, emin=emin,
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
    through the reduced model, or ``sens_elementary``, one per set). The
    responses read states through those free DOFs and the primary states.
    """
    grid = problem.grid
    design = problem.design(np.asarray(x, dtype=float))
    K = assemble(grid, design)
    if pipeline == "condensed":
        model = condense(K, problem.plan, problem.sec_loads,
                         problem.sec_values, ledger=ledger)
        sol = solve_condensed(model, problem.sets, ledger=ledger)
        free_sets = problem.plan.free_primary

        def gradient(adjoints):
            return sens_condensed_state(grid, design, model, sol,
                                        problem.sets, adjoints, ledger=ledger)
    elif pipeline == "elementary":
        model = None
        sol = solve_elementary(K, problem.sets, ledger=ledger)
        free_sets = [aset.free for aset in problem.sets]

        def gradient(adjoints):
            return sens_elementary(grid, design, sol, problem.sets, adjoints,
                                   ledger=ledger)
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")

    if problem.kind == "problem1":
        responses = _evaluate_p1(problem, design, sol, gradient, want_grads)
    else:
        responses = _evaluate_p2(problem, design, sol, free_sets, gradient,
                                 want_grads)
    return Evaluation(*responses, sol, model)


def _evaluate_p1(problem, design, sol, gradient, want_grads):
    grid, plan = problem.grid, problem.plan
    vbar = problem.params["vbar"]
    n_elems = grid.n_elems

    # compliance u^T K u is the work of the port loads: the grounded port
    # carries zero temperature, every other port is loaded and primary
    g0 = sum(float(np.sum(aset.loads[plan.primary.ids, :].toarray()
                          * sol.primary_states(plan, i)))
             for i, aset in enumerate(problem.sets))
    g1 = float(design.filtered.sum() / (n_elems * vbar) - 1.0)

    d0 = d1 = None
    if want_grads:
        # grounded ports (zero prescribed values) make the compliance
        # self-adjoint: the explicit matrix dependence folds into the adjoint
        # term, leaving adjoint == state and no adjoint solve at all
        d0 = gradient([("lam", s.u_free) for s in sol.sets])
        d1 = design.flt.chain(np.full(n_elems, 1.0 / (n_elems * vbar)))
        d1 = d1[None, :]
    return g0, np.array([g1]), d0, d1


def _evaluate_p2(problem, design, sol, free_sets, gradient, want_grads):
    jbar = problem.params["jbar"]
    x_in = problem.params["n_inputs"]
    outputs = IndexSet(problem.params["out_dofs"], problem.plan.n)
    n_elems = problem.grid.n_elems

    # transmission entries: output displacement i under unit input j
    out_pos = [outputs.positions_in(free) for free in free_sets]
    jmat = np.column_stack([sol.sets[j].u_free[out_pos[j], 0]
                            for j in range(x_in)])

    g0 = -float(design.filtered.sum()) / n_elems
    cons = (jmat / jbar + 1.0).ravel()

    d0 = dcons = None
    if want_grads:
        d0 = -design.flt.chain(np.ones(n_elems)) / n_elems
        dcons = np.empty((x_in * x_in, n_elems))
        for i in range(x_in):
            for j in range(x_in):
                adjoints = [None] * x_in
                rhs = np.zeros((len(sol.sets[j].u_free), 1))
                rhs[out_pos[j][i], 0] = 1.0 / jbar[i, j]
                adjoints[j] = ("rhs", rhs)
                dcons[i * x_in + j] = gradient(adjoints)
    return g0, cons, d0, dcons
