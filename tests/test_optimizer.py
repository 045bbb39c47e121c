"""Moving-asymptote update and the outer optimization loop."""
import copy

import numpy as np
import pytest

from mptop.optimizer import MMA, MMADualError, optimize
from mptop.problems import build_problem1, build_problem2, evaluate


def _subproblem(mma, x, dg0, g, dg):
    """The convex subproblem of ``mma``'s last step, rebuilt from its terms.

    Returns the objective and constraint terms, the move box and the
    closed-form minimizer ``x_of(lam)``.
    """
    span = mma.upper - mma.lower
    low, upp = mma.low, mma.upp
    alpha = np.maximum.reduce([mma.lower, low + 0.1 * (x - low),
                               x - mma.move * span])
    beta = np.minimum.reduce([mma.upper, upp - 0.1 * (upp - x),
                              x + mma.move * span])
    du, dl = upp - x, x - low
    base = mma.raa0 / span

    def pq(d):
        pos, neg = np.maximum(d, 0.0), np.maximum(-d, 0.0)
        return (du ** 2 * (1.001 * pos + 0.001 * neg + base),
                dl ** 2 * (0.001 * pos + 1.001 * neg + base))

    p0, q0 = pq(dg0)
    P, Q = pq(dg)
    b = P @ (1.0 / du) + Q @ (1.0 / dl) - g

    def x_of(lam):
        sp, sq = np.sqrt(p0 + lam @ P), np.sqrt(q0 + lam @ Q)
        return np.clip((low * sp + upp * sq) / (sp + sq), alpha, beta)

    return dict(p0=p0, q0=q0, P=P, Q=Q, b=b, alpha=alpha, beta=beta,
                x_of=x_of)


def _nearly_parallel(seed=0, n=200, h=4):
    """Constraint rows base + 1e-3 noise, every constraint violated."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.5, 1.5, n) / n
    dg = base + 1e-3 * rng.standard_normal((h, n)) / n
    g = 0.05 + 0.01 * rng.random(h)
    dg0 = -rng.uniform(0.5, 1.5, n)
    return np.full(n, 0.5), dg0, g, dg


class TestMMA:
    def test_unconstrained_quadratic(self):
        mma = MMA(1, 0, lower=0.0, upper=1.0)
        x = np.array([0.9])
        for _ in range(30):
            dg0 = np.array([2 * (x[0] - 0.3)])
            x = mma.step(x, dg0)
        assert abs(x[0] - 0.3) <= 1e-3

    def test_bound_capture(self):
        mma = MMA(1, 0, lower=1e-3, upper=1.0)
        x = np.array([0.5])
        for _ in range(40):
            x = mma.step(x, np.array([1.0]))
        assert abs(x[0] - 1e-3) <= 1e-9

    def test_move_limit(self):
        mma = MMA(1, 0, lower=0.0, upper=1.0)
        x0 = np.array([0.9])
        x1 = mma.step(x0, np.array([1.0]))
        assert x0[0] - x1[0] <= 0.2 + 1e-12

    def test_linear_constraint_becomes_active(self):
        # minimize sum((x - 1)^2) subject to mean(x) <= 0.4: the constraint
        # is active and exactly met at the optimum
        n = 20
        mma = MMA(n, 1, lower=0.0, upper=1.0)
        x = np.full(n, 0.4)
        for _ in range(60):
            dg0 = 2.0 * (x - 1.0)
            g = np.array([x.mean() / 0.4 - 1.0])
            dg = np.full((1, n), 1.0 / (0.4 * n))
            x = mma.step(x, dg0, g, dg)
        assert abs(x.mean() / 0.4 - 1.0) <= 1e-3

    def test_two_constraints(self):
        # minimize -sum(x) with x1 + x2 <= 1 and x1 - x2 <= 0: every point of
        # the face x1 + x2 = 1, x1 <= x2 is optimal with objective -1
        mma = MMA(2, 2, lower=0.0, upper=1.0)
        x = np.array([0.2, 0.2])
        for _ in range(80):
            dg0 = np.array([-1.0, -1.0])
            g = np.array([x[0] + x[1] - 1.0, x[0] - x[1]])
            dg = np.array([[1.0, 1.0], [1.0, -1.0]])
            x = mma.step(x, dg0, g, dg)
        assert abs(x.sum() - 1.0) <= 1e-3
        assert x[0] <= x[1] + 1e-6

    def test_rejects_nan_gradient(self):
        mma = MMA(2, 0, lower=0.0, upper=1.0)
        with pytest.raises(ValueError):
            mma.step(np.array([0.5, 0.5]), np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_constraint(self, bad):
        mma = MMA(2, 2, lower=0.0, upper=1.0)
        with pytest.raises(ValueError, match="non-finite"):
            mma.step(np.array([0.5, 0.5]), np.array([1.0, -1.0]),
                     np.array([bad, 0.1]), np.eye(2))


# a fixed 8-input mechanism target: magnitudes 0.52 to 1.97, mixed signs
JBAR8 = [
    [-1.79, 1.39, -0.83, 0.57, -1.15, 1.93, -0.66, 1.21],
    [1.08, -0.52, 1.67, -1.44, 0.91, -1.26, 0.74, -1.88],
    [-0.61, 1.52, 1.13, -0.98, -1.71, 0.86, 1.35, -0.55],
    [1.97, -1.05, -0.69, 1.41, 0.63, -1.59, -1.22, 0.95],
    [-1.31, 0.78, 1.84, 0.54, -0.88, -1.47, 1.06, -1.63],
    [0.72, -1.91, 0.58, -1.17, 1.76, 1.02, -0.81, 1.45],
    [-1.03, 1.28, -1.74, 0.89, 1.19, -0.67, 1.58, -0.93],
    [1.54, -0.76, 0.97, -1.86, -1.38, 0.61, -1.11, 1.69],
]


def _assert_kkt(mma, x, dg0, g, dg, x_new):
    """KKT conditions of ``mma``'s last subproblem at its answer ``x_new``.

    The multipliers are recovered from stationarity in the interior
    variables, not read from the solver. A multiplier at the elastic cap
    ``penalty`` may leave its constraint violated; every other one meets
    feasibility and complementarity.
    """
    assert mma.dual_residual <= MMA.dual_tol
    sub = _subproblem(mma, x, dg0, g, dg)
    ui = 1.0 / (mma.upp - x_new)
    li = 1.0 / (x_new - mma.low)
    terms = sub["P"] @ ui + sub["Q"] @ li
    gt = terms - sub["b"]
    scale = terms + np.abs(sub["b"])
    free = (x_new > sub["alpha"]) & (x_new < sub["beta"])
    assert free.sum() > g.size
    d0 = sub["p0"] * ui ** 2 - sub["q0"] * li ** 2
    D = sub["P"] * ui ** 2 - sub["Q"] * li ** 2
    w = 1.0 / np.abs(d0[free])
    lam = np.linalg.lstsq((D[:, free] * w).T, -d0[free] * w,
                          rcond=None)[0]
    stationarity = (d0 + lam @ D)[free] * w
    assert np.abs(stationarity).max() <= 1e-9
    assert np.all(lam >= -1e-9 * lam.max())
    assert np.all(lam <= (1.0 + 1e-9) * mma.penalty)
    held = lam >= (1.0 - 1e-9) * mma.penalty
    assert np.all(gt[held] >= -1e-9 * scale[held])
    assert np.all(gt[~held] <= 1e-9 * scale[~held])
    # complementarity, against the size of the multipliers
    assert np.all(np.abs(lam * gt)[~held] <= 1e-9 * lam.max() * scale[~held])


class TestMMADual:
    def test_nearly_parallel_constraints_meet_kkt(self):
        # the regime where cyclic coordinate ascent stalls: four violated
        # constraints with almost the same gradient
        x, dg0, g, dg = _nearly_parallel()
        mma = MMA(x.size, g.size, lower=0.0, upper=1.0)
        x_new = mma.step(x, dg0, g, dg)
        # the coupling is resolved by Newton line searches, with no
        # coordinate pass
        assert mma.dual_newton >= 1 and mma.dual_sweeps == 0
        _assert_kkt(mma, x, dg0, g, dg, x_new)

    def test_mechanism_steps_meet_kkt(self):
        # 64 elastic constraints, the most the mechanism has at 8 inputs
        p = build_problem2(60, 60, 8, JBAR8)
        mma = MMA(p.grid.n_elems, p.n_constraints, lower=1e-3, upper=1.0)
        x = p.x0
        for _ in range(3):
            ev = evaluate(p, x)
            x_new = mma.step(x, ev.d_objective, ev.constraints,
                             ev.d_constraints)
            _assert_kkt(mma, x, ev.d_objective, ev.constraints,
                        ev.d_constraints, x_new)
            x = x_new

    def test_reachable_mechanism_run_keeps_the_dual_converged(self):
        # a target the 8-input mechanism can meet, so constraints cross
        # between violated and met and many multipliers change bounds
        # between steps; a Newton step cut at the first bound it meets
        # ran out of iterations at step 43 of this run
        jbar = 1e-4 * np.array([
            [2.5, 3.4, -6.8, -5.5, -2.6, 4.6, 4.9, -3.0],
            [6.4, 2.7, 4.3, 5.1, 4.6, 5.5, 6.4, 7.7],
            [3.7, 5.9, -6.2, 3.8, 2.0, -7.8, 3.8, -3.9],
            [-7.4, -5.5, -4.8, -6.6, 2.2, -6.2, 4.2, 2.5],
            [-6.0, -7.6, -3.2, -5.8, -3.8, -6.5, -6.3, 3.3],
            [7.0, 5.9, 6.1, 6.9, -4.6, -6.6, 7.3, 2.6],
            [7.1, 4.4, 4.9, -2.9, -6.2, 3.8, 7.2, -3.7],
            [-5.4, 4.4, -5.7, 3.2, 3.1, 6.5, -6.5, 5.4],
        ])
        res = optimize(build_problem2(40, 40, 8, jbar), max_iters=45, tol=0.0)
        assert len(res.history) == 45
        for r in res.history:
            assert r.dual_residual <= MMA.dual_tol
            assert r.dual_sweeps + r.dual_newton <= MMA.max_sweeps // 4
        # the line searches carry the solves; the fallback pass stays rare
        assert sum(r.dual_sweeps for r in res.history) <= 5

    def test_warm_start_matches_cold(self):
        x, dg0, g, dg = _nearly_parallel(seed=5)
        warm = MMA(x.size, g.size, lower=0.0, upper=1.0)
        x1 = warm.step(x, dg0, g, dg)
        cold = copy.deepcopy(warm)
        cold.multipliers = np.zeros(g.size)
        g2 = 0.9 * g
        x_warm = warm.step(x1, dg0, g2, dg)
        x_cold = cold.step(x1, dg0, g2, dg)
        assert np.abs(x_warm - x_cold).max() <= 1e-10 * np.abs(x_cold).max()
        # the warm start is used: it needs fewer line searches
        assert warm.dual_newton < cold.dual_newton

    def test_coordinate_fallback_matches_newton(self, monkeypatch):
        # three constraints with unrelated gradients, where plain
        # coordinate passes converge too
        rng = np.random.default_rng(11)
        n, h = 120, 3
        x = rng.uniform(0.2, 0.8, n)
        dg0 = -rng.uniform(0.5, 1.5, n)
        dg = rng.uniform(-1.0, 1.0, (h, n)) / n
        g = 0.02 + 0.02 * rng.random(h)
        ref = MMA(n, h, lower=0.0, upper=1.0).step(x, dg0, g, dg)
        monkeypatch.setattr(MMA, "_target", lambda self, *args: None)
        mma = MMA(n, h, lower=0.0, upper=1.0)
        x_new = mma.step(x, dg0, g, dg)
        assert mma.dual_newton == 0 and mma.dual_sweeps >= 1
        assert mma.dual_residual <= MMA.dual_tol
        assert np.abs(x_new - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_single_constraint_matches_bisection(self):
        rng = np.random.default_rng(7)
        n = 60
        x = rng.uniform(0.1, 0.9, n)
        dg0 = rng.standard_normal(n)
        dg = rng.uniform(0.2, 1.0, (1, n)) / n
        g = np.array([0.05])
        mma = MMA(n, 1, lower=1e-3, upper=1.0)
        x_new = mma.step(x, dg0, g, dg)
        sub = _subproblem(mma, x, dg0, g, dg)

        def grad(lam):
            xl = sub["x_of"](np.array([lam]))
            return (sub["P"] @ (1.0 / (mma.upp - xl))
                    + sub["Q"] @ (1.0 / (xl - mma.low)) - sub["b"])[0]

        lo, hi = 0.0, mma.penalty
        assert grad(lo) > 0.0 > grad(hi)  # the constraint is active
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if grad(mid) > 0.0 else (lo, mid)
        x_ref = sub["x_of"](np.array([0.5 * (lo + hi)]))
        assert np.abs(x_new - x_ref).max() <= 1e-12 * np.abs(x_ref).max()

    def test_repeatable_bit_for_bit(self):
        x, dg0, g, dg = _nearly_parallel(seed=3)
        runs = []
        for _ in range(2):
            mma = MMA(x.size, g.size, lower=0.0, upper=1.0)
            xk = x
            for _ in range(3):
                xk = mma.step(xk, dg0, g, dg)
            runs.append((xk, mma.dual_sweeps, mma.dual_newton,
                         mma.dual_residual))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1:] == runs[1][1:]

    def test_sweep_cap_raises(self, monkeypatch):
        x, dg0, g, dg = _nearly_parallel()
        monkeypatch.setattr(MMA, "max_sweeps", 1)
        mma = MMA(x.size, g.size, lower=0.0, upper=1.0)
        with pytest.raises(MMADualError,
                           match=r"iteration 1: h=4, projected-gradient "
                                 r"residual \S+ after 1 sweeps"):
            mma.step(x, dg0, g, dg)


class TestOptimize:
    def test_zero_iterations_returns_initial_design(self):
        p1 = build_problem1(5, 5, m=3, vbar=0.4, seed=0)
        res = optimize(p1, max_iters=0)
        np.testing.assert_array_equal(res.x, np.full(25, 0.4))
        assert res.history == []
        p2 = build_problem2(6, 6, 2, [[0.5, 2.0], [1.0, -1.0]])
        res = optimize(p2, max_iters=0)
        np.testing.assert_array_equal(res.x, 1.0)

    def test_bounds_respected(self):
        p = build_problem1(6, 6, m=3, vbar=0.3, seed=1)
        res = optimize(p, max_iters=15, tol=0.0)
        for r in res.history:
            pass
        assert res.x.min() >= 1e-3 - 1e-15
        assert res.x.max() <= 1.0 + 1e-15

    def test_problem1_small_run_improves(self):
        p = build_problem1(12, 12, m=4, vbar=0.3, seed=2)
        res = optimize(p, pipeline="condensed", max_iters=25, tol=0.0)
        assert res.objectives[-1] < res.objectives[0]
        assert abs(res.history[-1].constraints[0]) <= 5e-3

    def test_pipeline_trajectories_agree(self):
        p = build_problem1(10, 8, m=4, vbar=0.3, seed=3)
        res_c = optimize(p, pipeline="condensed", max_iters=30, tol=0.0)
        res_e = optimize(p, pipeline="elementary", max_iters=30, tol=0.0)
        for rc, re in zip(res_c.history, res_e.history):
            assert abs(rc.objective - re.objective) \
                <= 1e-6 * max(abs(re.objective), 1e-30)
        assert np.abs(res_c.x - res_e.x).max() <= 1e-7

    def test_iteration_cost_counters(self):
        p = build_problem1(8, 8, m=4, vbar=0.3, seed=4)
        res = optimize(p, pipeline="condensed", max_iters=3, tol=0.0)
        for r in res.history:
            assert r.sparse_factorizations == 1
            assert r.adjoint_rhs == 0
        res = optimize(p, pipeline="elementary", max_iters=3, tol=0.0)
        for r in res.history:
            assert r.sparse_factorizations == 4

    def test_early_stop_on_tolerance(self):
        p = build_problem1(6, 6, m=3, vbar=0.4, seed=5)
        res = optimize(p, max_iters=200, tol=0.5)
        assert len(res.history) < 200
