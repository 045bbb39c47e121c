"""Design updates via the method of moving asymptotes (Svanberg, 1987).

The update solves the separable convex subproblem through its dual. Given
the multipliers, the primal minimizer has a closed form per variable; the
multipliers maximize the concave dual on [0, penalty]^h. From the last
step's multipliers, each iteration searches exactly, by bracketed false
position, toward the maximizer in the box of a local model: the projected
Newton quadratic (Bertsekas, 1982), or the linear dual where every variable
sits at a move limit. A coordinate pass is the fallback. The solve runs to
a projected dual gradient of 1e-12 relative to its terms; one that cannot
get there raises MMADualError instead of returning an inexact design.

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
    """The MMA subproblem dual did not converge within its iteration cap."""


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
    # raises MMADualError after max_sweeps iterations (line searches and
    # coordinate passes together)
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
        # health of the last dual solve: passes, line searches, residual
        self.dual_sweeps = 0
        self.dual_newton = 0
        self.dual_residual = 0.0
        # the last solve's multipliers, where the next one starts
        self.multipliers = np.zeros(n_cons)

    def step(self, x, dg0, g=None, dg=None) -> np.ndarray:
        """The design after one update from ``x``, given the objective's
        gradient ``dg0``, the constraints ``g`` and their gradients ``dg``;
        the update reads no objective value."""
        x = np.asarray(x, dtype=float)
        dg0 = np.asarray(dg0, dtype=float)
        if self.h:
            g = np.asarray(g, dtype=float).reshape(self.h)
            dg = np.asarray(dg, dtype=float).reshape(self.h, self.n)
        if not np.all(np.isfinite(dg0)) or (
                self.h and not (np.all(np.isfinite(g))
                                and np.all(np.isfinite(dg)))):
            raise ValueError("non-finite constraints or gradients passed to "
                             "the optimizer")
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

        du, dl = self.upp - x, x - self.low
        base = self.raa0 / np.maximum(rng_span, 1e-12)

        def pq(d):
            pos, neg = np.maximum(d, 0.0), np.maximum(-d, 0.0)
            return (du ** 2 * (1.001 * pos + 0.001 * neg + base),
                    dl ** 2 * (0.001 * pos + 1.001 * neg + base))

        p0, q0 = pq(dg0)
        if not self.h:
            return self._primal(p0, q0, alpha, beta)
        P, Q = pq(dg)
        b = P @ (1.0 / du) + Q @ (1.0 / dl) - g
        return self._solve_dual(p0, q0, P, Q, b, alpha, beta)

    def _primal(self, pl, ql, alpha, beta):
        """Closed-form subproblem minimizer for the folded terms pl, ql."""
        sp, sq = np.sqrt(pl), np.sqrt(ql)
        return np.clip((self.low * sp + self.upp * sq) / (sp + sq),
                       alpha, beta)

    def _solve_dual(self, p0, q0, P, Q, b, alpha, beta):
        """Subproblem minimizer through the concave dual on [0, penalty]^h.

        From the last step's multipliers, each iteration searches exactly
        toward the local model's maximizer (:meth:`_target`), or makes a
        coordinate pass if there is none or the search finds no step.
        Returns x and records the solve's health; raises MMADualError when
        ``max_sweeps`` iterations leave the residual above ``dual_tol``.
        """
        low, upp, cap = self.low, self.upp, self.penalty

        def measure(lam):
            pl, ql = p0 + lam @ P, q0 + lam @ Q
            x = self._primal(pl, ql, alpha, beta)
            ui, li = 1.0 / (upp - x), 1.0 / (x - low)
            terms = P @ ui + Q @ li
            grad = terms - b
            proj = np.abs(lam - np.clip(lam + grad, 0.0, cap))
            res = float((proj / (terms + np.abs(b))).max())
            return dict(lam=lam, x=x, pl=pl, ql=ql, ui=ui, li=li,
                        grad=grad, res=res)

        cur = measure(np.clip(self.multipliers, 0.0, cap))
        sweeps = newton = 0
        while cur["res"] > self.dual_tol:
            if sweeps + newton >= self.max_sweeps:
                raise MMADualError(
                    f"MMA dual did not converge at iteration "
                    f"{self.iteration}: h={self.h}, projected-gradient "
                    f"residual {cur['res']:.3e} after {self.max_sweeps} sweeps")
            lam = cur["lam"].copy()
            new = self._target(cur, P, Q, alpha, beta)
            t = 0.0
            if new is not None:
                newton += 1
                d = new - lam
                t = self._search(cur["pl"], cur["ql"], d @ P, d @ Q, d @ b,
                                 alpha, beta)
                lam = new if t == 1.0 else np.clip(lam + t * d, 0.0, cap)
            if t == 0.0:
                sweeps += 1
                pl, ql = cur["pl"].copy(), cur["ql"].copy()
                for i in range(self.h):
                    for end in (cap, 0.0):
                        s = end - lam[i]
                        t = self._search(pl, ql, s * P[i], s * Q[i], s * b[i],
                                         alpha, beta)
                        if t > 0.0:
                            pl += t * s * P[i]
                            ql += t * s * Q[i]
                            lam[i] = end if t == 1.0 else lam[i] + t * s
                            break
            cur = measure(lam)
        self.multipliers, self.dual_residual = cur["lam"], cur["res"]
        self.dual_sweeps, self.dual_newton = sweeps, newton
        return cur["x"]

    def _target(self, cur, P, Q, alpha, beta):
        """Maximizer in the box of the dual's local model at ``cur``, or None.

        Where every variable sits at a move limit the model is the linear
        dual, maximized at a vertex. Otherwise multipliers at a bound whose
        gradient points out stay; the rest maximize the Newton quadratic by
        active set: a Newton step, cut where one meets a bound, which stays
        fixed there until its model gradient points back in.
        """
        lam, grad, cap = cur["lam"], cur["grad"], self.penalty
        fx = (cur["x"] > alpha) & (cur["x"] < beta)
        if not fx.any():
            return np.where(grad > 0.0, cap, 0.0)
        move = ~(((lam <= 0.0) & (grad <= 0.0))
                 | ((lam >= cap) & (grad >= 0.0)))
        ui, li = cur["ui"][fx], cur["li"][fx]
        jac = P[move][:, fx] * ui ** 2 - Q[move][:, fx] * li ** 2
        curv = 2.0 * (cur["pl"][fx] * ui ** 3 + cur["ql"][fx] * li ** 3)
        hess = (jac / curv) @ jac.T
        y, slope, fixed = lam[move], grad[move], np.zeros(move.sum(), bool)
        for _ in range(4 * self.h):
            step = np.zeros(y.size)
            try:
                step[~fixed] = np.linalg.solve(
                    hess[np.ix_(~fixed, ~fixed)], slope[~fixed])
            except np.linalg.LinAlgError:
                return None
            bound = np.where(step > 0.0, cap, 0.0)
            nz = np.flatnonzero(step)
            ratio = (bound[nz] - y[nz]) / step[nz]
            cut = min(1.0, ratio.min(initial=np.inf))
            y, slope = y + cut * step, slope - cut * (hess @ step)
            if cut < 1.0:
                k = nz[np.argmin(ratio)]
                y[k], fixed[k] = bound[k], True
                continue
            back = fixed & (((y <= 0.0) & (slope > 0.0))
                            | ((y >= cap) & (slope < 0.0)))
            if not back.any():
                new = lam.copy()
                new[move] = np.clip(y, 0.0, cap)
                return new if np.all(np.isfinite(new)) else None
            fixed[np.flatnonzero(back)[np.argmax(np.abs(slope[back]))]] = False
        return None

    def _search(self, pl, ql, dP, dQ, db, alpha, beta):
        """Step in [0, 1] that maximizes the dual along a direction.

        ``pl``/``ql`` fold in the multipliers, ``dP``, ``dQ``, ``db`` the
        direction. The derivative along it decreases: 1 while it is >= 0
        there, 0 if it is <= 0 at the start, else its root by Illinois
        false position, each evaluation O(n).
        """
        low, upp, tol = self.low, self.upp, 0.25 * self.dual_tol
        aP, aQ = np.abs(dP), np.abs(dQ)

        def f(t):
            x = self._primal(pl + t * dP, ql + t * dQ, alpha, beta)
            ui, li = 1.0 / (upp - x), 1.0 / (x - low)
            return (dP @ ui + dQ @ li - db,
                    tol * (aP @ ui + aQ @ li + abs(db)))

        a, c = 0.0, 1.0
        fa, eps = f(a)
        if fa <= eps:
            return 0.0
        fc, eps = f(c)
        if fc >= 0.0:
            return 1.0
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
        x_new = mma.step(x, ev.d_objective, ev.constraints, ev.d_constraints)
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
