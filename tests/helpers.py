"""Shared builders for randomized solver tests."""
import numpy as np
import scipy.sparse as sp

from mptop.analysis import StateSolution, solve_elementary
from mptop.fem import DesignField, Filter, Grid, assemble
from mptop.partitions import AnalysisSet, build_plan, gather_secondary
from mptop.sparse import IndexSet


def random_conduction_problem(rng, max_grid=20, max_sets=4,
                              with_secondary_sources=True):
    """Random grounded conduction model with several distinct BC patterns.

    A shared prescribed core (same DOFs, same magnitudes everywhere) keeps a
    nonempty secondary-prescribed group; per-set extra prescriptions make the
    partitions distinct; loads land on free DOFs including secondary ones.
    """
    nelx = int(rng.integers(2, max_grid + 1))
    nely = int(rng.integers(2, max_grid + 1))
    grid = Grid(nelx, nely)
    n = grid.n_dofs
    design = DesignField(grid, rng.uniform(0.3, 1.0, grid.n_elems),
                         Filter(grid, 1.5))
    K = assemble(grid, design)

    n_core = int(rng.integers(1, 4))
    core = rng.choice(n, n_core, replace=False)
    core_vals = (rng.uniform(-1.0, 1.0, n_core)
                 if with_secondary_sources else np.zeros(n_core))

    a = int(rng.integers(1, max_sets + 1))
    sets, seen = [], set()
    for _ in range(a):
        while True:
            extra = rng.choice(np.setdiff1d(np.arange(n), core),
                               int(rng.integers(1, 4)), replace=False)
            presc = np.union1d(core, extra)
            key = tuple(presc.tolist())
            if key not in seen:
                seen.add(key)
                break
        cases = int(rng.integers(1, 4))
        values = np.empty((len(presc), cases))
        for row, dof in enumerate(presc):
            if dof in core:
                values[row, :] = core_vals[np.nonzero(core == dof)[0][0]]
            else:
                values[row, :] = rng.uniform(-1.0, 1.0, cases)
        loads = rng.normal(size=(n, cases)) * (rng.random((n, cases)) < 0.2)
        interest = rng.choice(n, int(rng.integers(0, 5)), replace=False)
        if not with_secondary_sources:
            # loads only on interest DOFs, so nothing lands on secondary ones
            loads[:] = 0.0
            free = np.setdiff1d(np.arange(n), presc)
            hit = rng.choice(free, min(3, len(free)), replace=False)
            loads[hit, 0] = rng.uniform(0.5, 1.5, len(hit))
            interest = np.union1d(interest, hit)
        loads[presc, :] = 0.0
        sets.append(AnalysisSet(n, IndexSet(presc, n), IndexSet(interest, n),
                                values, sp.csc_matrix(loads)))
    return K, sets, grid, design


def plan_and_secondary(sets, n):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plan = build_plan(sets, n)
    sec_loads, sec_values = gather_secondary(plan, sets)
    return plan, sec_loads, sec_values


def jbar8():
    """A fixed 8-input mechanism target: magnitudes 0.5 to 2, mixed signs."""
    rng = np.random.default_rng(8)
    return rng.uniform(0.5, 2.0, (8, 8)) * rng.choice([-1.0, 1.0], (8, 8))


def collect_elementary(*args, **kwargs) -> StateSolution:
    """Every set :func:`solve_elementary` yields, full-length states and
    solved adjoint stacks, collected into one :class:`StateSolution`."""
    pairs = list(solve_elementary(*args, **kwargs))
    adjoints = [stack for _, stack in pairs]
    return StateSolution(
        sets=[states for states, _ in pairs],
        adjoints=adjoints if all(a is not None for a in adjoints) else None)
