"""Operation-count cost model and the predicted/measured condensation gain.

Costs are expressed per linear system as preprocessing plus right-hand-side
sweeps, for a 2D discretization (bandwidth scaling with sqrt(n)):

* sparse direct — banded Cholesky: n^2 + 2 l n^(3/2)
* sparse iterative — preconditioned CG at ~sqrt(n) iterations of 2 n^(3/2)
  work each: 2 l n^2 (preconditioner construction neglected). This is a
  predicted-only curve: the library has no iterative solver, so
  :func:`measure_runtime_gain` compares against the direct model.
* dense direct — Cholesky with dense back-substitution: n^3/3 + 2 l n^2

The dense back-substitution term is quadratic per right-hand side, as a
dense triangular sweep must be; gain curves computed from these expressions
reproduce the reference plot data used in the regression tests.

The predicted gain compares one pipeline that preprocesses the full system
once per boundary-condition pattern against one that preprocesses the
secondary block once and runs every pattern on the small dense system,
adjoint right-hand sides included.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import solve_condensed, solve_elementary
from .condensation import condense
from .fem import assemble
from .sparse import CostLedger

METHODS = ("direct", "iterative")


@dataclass(frozen=True)
class FlopModel:
    method: str = "direct"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def beta_sparse(model: FlopModel, n, l) -> float:
    """Cost of one sparse solve of size n with l right-hand sides."""
    n = float(n)
    l = float(l)
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    if model.method == "direct":
        return n * n + 2.0 * l * n ** 1.5
    return 2.0 * l * n * n


def beta_dense(n, l) -> float:
    """Cost of one dense solve of size n with l right-hand sides."""
    n = float(n)
    l = float(l)
    if n < 1 or l < 0:
        raise ValueError("need n >= 1 and l >= 0")
    return n ** 3 / 3.0 + 2.0 * l * n * n


def gain_general(model: FlopModel, n, m, sets) -> float:
    """Predicted cost ratio for patterns given as (cases, adjoint_rhs) pairs."""
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    num = sum(beta_sparse(model, n, l + b) for l, b in sets)
    den = beta_sparse(model, n - m, m) + sum(beta_dense(m, l + b)
                                             for l, b in sets)
    return num / den


def gain_problem1(model: FlopModel, n, m) -> float:
    """Multi-port conduction: m patterns, m-1 cases each, self-adjoint.

    ``m`` may be fractional (gain curves are drawn on a log-spaced grid).
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    num = m * beta_sparse(model, n, m - 1)
    den = beta_sparse(model, n - m, m) + m * beta_dense(m, m - 1)
    return num / den


def gain_problem2(model: FlopModel, n, m) -> float:
    """MIMO mechanism: m/2 patterns, one case plus m/2 adjoints each."""
    m_int = float(m)
    if m_int < 2 or m_int % 2:
        raise ValueError("primary count must be even and >= 2")
    half = m_int / 2.0
    num = half * beta_sparse(model, n, m_int)
    den = beta_sparse(model, n - m_int, m_int) + half * beta_dense(m_int, m_int)
    return num / den


@dataclass
class RuntimeGain:
    xi_measured: float
    xi_predicted: float
    seconds_elementary: float
    seconds_condensed: float
    repeats: int


def measure_runtime_gain(problem, x=None, repeats: int = 3) -> RuntimeGain:
    """Measured wall-clock gain of the condensed pipeline on one problem.

    Only preprocessing and solve time is compared (the ledgers time exactly
    those events); assembly, extraction and response algebra are excluded on
    both sides, matching what the cost model charges. One untimed warm-up
    pass of each pipeline precedes the measurement so allocator and cache
    state do not bias the (much shorter) condensed timings.
    """
    design = problem.design(problem.x0 if x is None else np.asarray(x, float))
    K = assemble(problem.grid, design)
    t_elem, t_cond = [], []
    for rep in range(repeats + 1):
        ledger = CostLedger()
        solve_elementary(K, problem.sets, ledger=ledger)
        if rep:
            t_elem.append(ledger.seconds_total())
        ledger = CostLedger()
        model = condense(K, problem.plan, problem.sec_loads,
                         problem.sec_values, ledger=ledger)
        solve_condensed(model, problem.sets, ledger=ledger)
        if rep:
            t_cond.append(ledger.seconds_total())
    te = float(np.median(t_elem))
    tc = float(np.median(t_cond))
    fm = FlopModel("direct")
    if problem.kind == "problem1":
        xi_pred = gain_problem1(fm, problem.plan.n, problem.plan.m)
    elif problem.kind == "problem2":
        xi_pred = gain_problem2(fm, problem.plan.n, problem.plan.m)
    else:
        xi_pred = gain_general(
            fm, problem.plan.n, problem.plan.m,
            [(s.cases, 0) for s in problem.sets])
    return RuntimeGain(te / tc, xi_pred, te, tc, repeats)


def gain_table(model: FlopModel, n_values, m_values, kind: str = "problem1"):
    """Rows (n, m, method, predicted gain) over a sweep grid.

    For problem 2 each ``m`` is rounded to the nearest even count, at least 2.
    """
    fn = gain_problem1 if kind == "problem1" else gain_problem2
    rows = []
    for n in n_values:
        for m in m_values:
            if kind == "problem2":
                m = max(2 * round(m / 2), 2)
            if m >= n:
                continue
            rows.append((float(n), float(m), model.method, fn(model, n, m)))
    return rows
