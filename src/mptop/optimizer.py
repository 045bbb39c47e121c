"""Design updates via the method of moving asymptotes (Svanberg, 1987).

The update solves the separable convex subproblem through its dual:
the primal minimizer has a closed form per variable given the multipliers,
and the multipliers are found by cyclic bisection on the dual gradient,
which is exact for one constraint and converges quickly for the handful of
constraints these problems carry.

A small deadband on the oscillation indicator keeps the asymptote update
deterministic when two mathematically equivalent pipelines feed the
optimizer responses that differ only in roundoff.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemSpec, evaluate
from .sparse import CostLedger


class MMA:
    """Moving-asymptote update for min g0 s.t. g <= 0, bounds on x."""

    def __init__(self, n_vars: int, n_cons: int, lower, upper,
                 move: float = 0.2, asy_init: float = 0.5,
                 asy_incr: float = 1.2, asy_decr: float = 0.7,
                 raa0: float = 1e-5, penalty: float = 1000.0):
        self.n = n_vars
        self.h = n_cons
        # elastic-constraint price: caps the dual variables, so temporarily
        # infeasible subproblems (violated constraints under move limits)
        # resolve to the steepest feasible push instead of diverging
        self.penalty = penalty
        self.lower = np.broadcast_to(np.asarray(lower, float), (n_vars,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, float), (n_vars,)).copy()
        self.move = move
        self.asy_init = asy_init
        self.asy_incr = asy_incr
        self.asy_decr = asy_decr
        self.raa0 = raa0
        self.iteration = 0
        self.low = None
        self.upp = None
        self.xold1 = None
        self.xold2 = None

    def step(self, x, g0, dg0, g=None, dg=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        dg0 = np.asarray(dg0, dtype=float)
        if self.h:
            g = np.asarray(g, dtype=float).reshape(self.h)
            dg = np.asarray(dg, dtype=float).reshape(self.h, self.n)
        if not np.all(np.isfinite(dg0)) or (self.h and not np.all(np.isfinite(dg))):
            raise ValueError("non-finite gradients passed to the optimizer")
        self.iteration += 1
        rng_span = self.upper - self.lower

        if self.iteration <= 2:
            self.low = x - self.asy_init * rng_span
            self.upp = x + self.asy_init * rng_span
        else:
            osc = (x - self.xold1) * (self.xold1 - self.xold2)
            # deadband: treat products at roundoff level as non-oscillating
            band = 1e-12 * rng_span * rng_span
            factor = np.ones(self.n)
            factor[osc > band] = self.asy_incr
            factor[osc < -band] = self.asy_decr
            self.low = x - factor * (self.xold1 - self.low)
            self.upp = x + factor * (self.upp - self.xold1)
            self.low = np.clip(self.low, x - 10.0 * rng_span,
                               x - 1e-4 * rng_span)
            self.upp = np.clip(self.upp, x + 1e-4 * rng_span,
                               x + 10.0 * rng_span)
        self.xold2 = self.xold1
        self.xold1 = x.copy()

        alpha = np.maximum.reduce([self.lower, self.low + 0.1 * (x - self.low),
                                   x - self.move * rng_span])
        beta = np.minimum.reduce([self.upper, self.upp - 0.1 * (self.upp - x),
                                  x + self.move * rng_span])

        du = self.upp - x
        dl = x - self.low
        base = self.raa0 / np.maximum(rng_span, 1e-12)
        p0 = du ** 2 * (1.001 * np.maximum(dg0, 0.0)
                        + 0.001 * np.maximum(-dg0, 0.0) + base)
        q0 = dl ** 2 * (0.001 * np.maximum(dg0, 0.0)
                        + 1.001 * np.maximum(-dg0, 0.0) + base)
        if self.h:
            P = du ** 2 * (1.001 * np.maximum(dg, 0.0)
                           + 0.001 * np.maximum(-dg, 0.0) + base)
            Q = dl ** 2 * (0.001 * np.maximum(dg, 0.0)
                           + 1.001 * np.maximum(-dg, 0.0) + base)
            b = P @ (1.0 / du) + Q @ (1.0 / dl) - g
        else:
            P = Q = b = None

        def x_of(lam):
            pl = p0 if not self.h else p0 + lam @ P
            ql = q0 if not self.h else q0 + lam @ Q
            sp = np.sqrt(pl)
            sq = np.sqrt(ql)
            xl = (self.low * sp + self.upp * sq) / (sp + sq)
            return np.clip(xl, alpha, beta)

        if not self.h:
            return x_of(None)

        def residual(lam):
            xl = x_of(lam)
            return P @ (1.0 / (self.upp - xl)) + Q @ (1.0 / (xl - self.low)) - b

        lam = np.zeros(self.h)
        for _ in range(50):
            change = 0.0
            for i in range(self.h):
                new = self._bisect_coord(residual, lam, i)
                change = max(change, abs(new - lam[i]))
                lam[i] = new
            if change <= 1e-12 * (1.0 + np.abs(lam).max()):
                break
        return x_of(lam)

    def _bisect_coord(self, residual, lam, i, tol=1e-11):
        """Root of the i-th dual stationarity condition in [0, penalty]."""
        trial = lam.copy()
        trial[i] = 0.0
        if residual(trial)[i] <= 0.0:
            return 0.0
        trial[i] = self.penalty
        if residual(trial)[i] >= 0.0:
            return self.penalty
        lo, hi = 0.0, self.penalty
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            trial[i] = mid
            if residual(trial)[i] > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(1.0, hi):
                break
        return 0.5 * (lo + hi)


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    constraints: tuple
    max_change: float
    sparse_factorizations: int
    sparse_solves: int
    dense_factorizations: int
    adjoint_rhs: int
    seconds: float


@dataclass
class OptResult:
    x: np.ndarray
    history: list = field(default_factory=list)
    ledgers: list = field(default_factory=list)

    @property
    def objectives(self):
        return np.array([r.objective for r in self.history])


def optimize(problem: ProblemSpec, pipeline: str = "condensed",
             max_iters: int = 100, tol: float = 0.01,
             x_min: float = 1e-3,
             callback=None, keep_ledgers: bool = False) -> OptResult:
    """Nested analysis-and-design loop: evaluate, update, repeat.

    Stops after ``max_iters`` design updates or when the largest design
    change drops below ``tol``. A zero-iteration call returns the problem's
    initial design untouched.
    """
    x = problem.x0.copy()
    mma = MMA(problem.grid.n_elems, problem.n_constraints, x_min, 1.0)
    result = OptResult(x=x)
    for k in range(1, max_iters + 1):
        t0 = time.perf_counter()
        ledger = CostLedger()
        ev = evaluate(problem, x, pipeline=pipeline, ledger=ledger)
        x_new = mma.step(x, ev.objective, ev.d_objective, ev.constraints,
                         ev.d_constraints)
        max_change = float(np.abs(x_new - x).max())
        record = IterationRecord(
            iteration=k,
            objective=ev.objective,
            constraints=tuple(float(v) for v in ev.constraints),
            max_change=max_change,
            sparse_factorizations=ledger.count(op="factorize", matrix="sparse"),
            sparse_solves=ledger.count(op="solve", matrix="sparse"),
            dense_factorizations=ledger.count(op="factorize", matrix="dense"),
            adjoint_rhs=ledger.rhs_total(op="solve", phase="adjoint"),
            seconds=time.perf_counter() - t0,
        )
        result.history.append(record)
        if keep_ledgers:
            result.ledgers.append(ledger)
        if callback is not None:
            callback(record, x_new)
        x = x_new
        result.x = x
        if max_change < tol:
            break
    return result
