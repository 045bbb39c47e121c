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

from .problems import evaluate
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


def gain_general(model: FlopModel, n, m, groups) -> float:
    """Predicted cost ratio over groups of (count, cases, adjoints) patterns.

    Each group holds ``count`` patterns with the same right-hand-side count,
    load cases plus adjoints; ``count`` and ``m`` may be fractional (gain
    curves are drawn on a log-spaced grid).
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    num = sum(c * beta_sparse(model, n, l + b) for c, l, b in groups)
    den = beta_sparse(model, n - m, m) + sum(c * beta_dense(m, l + b)
                                             for c, l, b in groups)
    return num / den


def gain_problem1(model: FlopModel, n, m) -> float:
    """Multi-port conduction: m patterns, m-1 cases each, self-adjoint."""
    return gain_general(model, n, m, [(m, m - 1, 0)])


def gain_problem2(model: FlopModel, n, m) -> float:
    """MIMO mechanism: m/2 patterns, one case plus m-1 adjoints each."""
    m = float(m)
    if m < 2 or m % 2:
        raise ValueError("primary count must be even and >= 2")
    return gain_general(model, n, m, [(m / 2, 1, m - 1)])


@dataclass
class RuntimeGain:
    xi_measured: float
    xi_predicted: float
    seconds_elementary: float
    seconds_condensed: float


def measure_runtime_gain(problem, repeats: int = 3) -> RuntimeGain:
    """Measured wall-clock gain of the condensed pipeline on one problem,
    at its initial design.

    Only preprocessing and solve time is compared: the ledger of a
    gradient-free :func:`evaluate` times exactly those events, so assembly,
    extraction and response algebra are excluded on both sides, matching
    what the cost model charges. One untimed warm-up pass of each pipeline
    precedes the measurement so allocator and cache state do not bias the
    (much shorter) condensed timings.
    """
    seconds = {"elementary": [], "condensed": []}
    for rep in range(repeats + 1):
        for pipe, times in seconds.items():
            ledger = CostLedger()
            evaluate(problem, problem.x0, pipe, want_grads=False,
                     ledger=ledger)
            if rep:
                times.append(ledger.seconds_total())
    te, tc = (float(np.median(times)) for times in seconds.values())
    gain = gain_problem1 if problem.kind == "problem1" else gain_problem2
    xi_pred = gain(FlopModel("direct"), problem.plan.n, problem.plan.m)
    return RuntimeGain(te / tc, xi_pred, te, tc)
