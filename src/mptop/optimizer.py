"""Design updates via the method of moving asymptotes (Svanberg, 1987).

The update solves the separable convex subproblem through its dual. Given
the multipliers, the primal minimizer has a closed form per variable; the
multipliers maximize the concave dual on [0, penalty]^h. Each sweep of the
dual solve is a coordinate pass, which finds every multiplier in turn by
bracketed false position and so copes with the near-kinks where a variable
jumps between its move limits, followed by one projected Newton step on the
interior multipliers (Bertsekas, 1982), which resolves the coupling that
stalls plain cyclic coordinate ascent when constraint gradients are nearly
parallel. The solve runs to a projected dual gradient of 1e-12 relative to
its terms; one that cannot get there raises MMADualError instead of
returning an inexact design.

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


X_MIN = 1e-3   # lower bound of every design variable in optimize


class MMADualError(RuntimeError):
    """The MMA subproblem dual did not converge within its sweep cap."""


class MMA:
    """Moving-asymptote update for min g0 s.t. g <= 0, bounds on x."""

    # move limit and initial asymptote distance, as fractions of the box;
    # asymptote growth and shrink factors on steady and oscillating steps
    move = 0.2
    asy_init = 0.5
    asy_incr = 1.2
    asy_decr = 0.7
    # regularization of the convex approximation, relative to the box
    raa0 = 1e-5
    # elastic-constraint price: caps the dual variables, so temporarily
    # infeasible subproblems (violated constraints under move limits)
    # resolve to the steepest feasible push instead of diverging
    penalty = 1000.0
    # the dual solve stops when every component of the projected dual
    # gradient is below dual_tol times the magnitude of its terms, and
    # raises MMADualError after max_sweeps coordinate passes
    dual_tol = 1e-12
    max_sweeps = 100

    def __init__(self, n_vars: int, n_cons: int, lower, upper):
        self.n = n_vars
        self.h = n_cons
        self.lower = np.broadcast_to(np.asarray(lower, float), (n_vars,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, float), (n_vars,)).copy()
        self.iteration = 0
        self.low = None
        self.upp = None
        self.xold1 = None
        self.xold2 = None
        # health of the last dual solve: passes, Newton steps, residual
        self.dual_sweeps = 0
        self.dual_newton = 0
        self.dual_residual = 0.0

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
        if not self.h:
            return self._primal(p0, q0, alpha, beta)
        P = du ** 2 * (1.001 * np.maximum(dg, 0.0)
                       + 0.001 * np.maximum(-dg, 0.0) + base)
        Q = dl ** 2 * (0.001 * np.maximum(dg, 0.0)
                       + 1.001 * np.maximum(-dg, 0.0) + base)
        b = P @ (1.0 / du) + Q @ (1.0 / dl) - g
        x_new, self.dual_sweeps, self.dual_newton, self.dual_residual = \
            self._solve_dual(p0, q0, P, Q, b, alpha, beta)
        return x_new

    def _primal(self, pl, ql, alpha, beta):
        """Closed-form subproblem minimizer for the folded terms pl, ql."""
        sp = np.sqrt(pl)
        sq = np.sqrt(ql)
        return np.clip((self.low * sp + self.upp * sq) / (sp + sq),
                       alpha, beta)

    def _solve_dual(self, p0, q0, P, Q, b, alpha, beta):
        """Subproblem minimizer through the concave dual on [0, penalty]^h.

        Alternates a coordinate pass (bracketed false position on each
        monotone dual-gradient component) with one projected Newton step on
        the interior multipliers. Returns (x, sweeps, Newton steps,
        residual); raises MMADualError when ``max_sweeps`` passes leave the
        scaled projected gradient above ``dual_tol``.
        """
        low, upp, cap = self.low, self.upp, self.penalty

        def measure(lam):
            pl = p0 + lam @ P
            ql = q0 + lam @ Q
            x = self._primal(pl, ql, alpha, beta)
            ui = 1.0 / (upp - x)
            li = 1.0 / (x - low)
            terms = P @ ui + Q @ li
            grad = terms - b
            value = pl @ ui + ql @ li - lam @ b
            proj = np.abs(lam - np.clip(lam + grad, 0.0, cap))
            res = float((proj / (terms + np.abs(b))).max())
            return dict(lam=lam, x=x, pl=pl, ql=ql, ui=ui, li=li,
                        grad=grad, value=value, res=res)

        lam = np.zeros(self.h)
        newton = 0
        for sweep in range(1, self.max_sweeps + 1):
            pl = p0 + lam @ P
            ql = q0 + lam @ Q
            for i in range(self.h):
                new = self._coordinate(lam[i], pl, ql, P[i], Q[i], b[i],
                                       alpha, beta)
                pl += (new - lam[i]) * P[i]
                ql += (new - lam[i]) * Q[i]
                lam[i] = new
            cur = measure(lam)
            point = None
            if cur["res"] > self.dual_tol:
                point = self._newton(cur, P, Q, alpha, beta)
            if point is not None:
                trial = measure(point)
                if trial["value"] > cur["value"] or trial["res"] < cur["res"]:
                    cur = trial
                    newton += 1
            if cur["res"] <= self.dual_tol:
                return cur["x"], sweep, newton, cur["res"]
            lam = cur["lam"].copy()
        raise MMADualError(
            f"MMA dual did not converge at iteration {self.iteration}: "
            f"h={self.h}, projected-gradient residual {cur['res']:.3e} "
            f"after {self.max_sweeps} sweeps")

    def _newton(self, cur, P, Q, alpha, beta):
        """Projected Newton trial point from ``cur``, or None.

        Newton ascent on the interior multipliers of the local quadratic
        model. While the step leaves [0, penalty], the multiplier that
        leaves first is fixed at its bound and the step is re-solved for
        the rest.
        """
        lam = cur["lam"]
        fx = (cur["x"] > alpha) & (cur["x"] < beta)
        free = (lam > 0.0) & (lam < self.penalty)
        if not fx.any():
            return None
        ui, li = cur["ui"][fx], cur["li"][fx]
        jac = P[:, fx] * ui ** 2 - Q[:, fx] * li ** 2
        curv = 2.0 * (cur["pl"][fx] * ui ** 3 + cur["ql"][fx] * li ** 3)
        hess = (jac / curv) @ jac.T
        new = lam.copy()
        while free.any():
            fixed = ~free
            rhs = cur["grad"][free] - hess[free][:, fixed] @ (new - lam)[fixed]
            try:
                new[free] = lam[free] + np.linalg.solve(
                    hess[free][:, free], rhs)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(new)):
                return None
            out = free & ((new < 0.0) | (new > self.penalty))
            if not out.any():
                return new
            # fix the multiplier whose step leaves the box first
            idx = np.flatnonzero(out)
            bound = np.clip(new[idx], 0.0, self.penalty)
            k = np.argmin((bound - lam[idx]) / (new[idx] - lam[idx]))
            new[idx[k]] = bound[k]
            free[idx[k]] = False
        return None

    def _coordinate(self, t0, pl, ql, Pi, Qi, bi, alpha, beta):
        """Root in [0, penalty] of one dual-gradient component.

        The component (terms ``Pi``, ``Qi``, ``bi``) decreases in its own
        multiplier, now ``t0``; the other multipliers stay as folded into
        ``pl``/``ql``. Illinois false position on the bracket, each
        evaluation O(n).
        """
        low, upp = self.low, self.upp
        tol = 0.25 * self.dual_tol

        def f(t):
            x = self._primal(pl + (t - t0) * Pi, ql + (t - t0) * Qi,
                             alpha, beta)
            terms = Pi @ (1.0 / (upp - x)) + Qi @ (1.0 / (x - low))
            return terms - bi, tol * (terms + abs(bi))

        f0, eps = f(t0)
        if abs(f0) <= eps:
            return t0
        if f0 > 0.0:
            if t0 >= self.penalty:
                return t0
            a, fa = t0, f0
            c = self.penalty
            fc, eps = f(c)
            if fc >= 0.0:
                return c
        else:
            if t0 <= 0.0:
                return t0
            c, fc = t0, f0
            a = 0.0
            fa, eps = f(a)
            if fa <= 0.0:
                return a
        # Illinois: an end kept twice in a row has its value halved, so the
        # secant cannot stall against it
        side = 0
        for _ in range(200):
            t = c - fc * (c - a) / (fc - fa)
            if not a < t < c:
                t = 0.5 * (a + c)
            ft, eps = f(t)
            if abs(ft) <= eps:
                return t
            if ft > 0.0:
                a, fa = t, ft
                if side == 1:
                    fc *= 0.5
                side = 1
            else:
                c, fc = t, ft
                if side == -1:
                    fa *= 0.5
                side = -1
            if c - a <= 4.0 * np.spacing(c):
                break
        return 0.5 * (a + c)


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
    dual_sweeps: int
    dual_newton: int
    dual_residual: float


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
             callback=None, keep_ledgers: bool = False) -> OptResult:
    """Nested analysis-and-design loop: evaluate, update, repeat.

    Stops after ``max_iters`` design updates or when the largest design
    change drops below ``tol``. A zero-iteration call returns the problem's
    initial design untouched.
    """
    x = problem.x0.copy()
    mma = MMA(problem.grid.n_elems, problem.n_constraints, X_MIN, 1.0)
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
            dual_sweeps=mma.dual_sweeps,
            dual_newton=mma.dual_newton,
            dual_residual=mma.dual_residual,
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
