"""Acceptance gate: one test per shipping criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""
import time

import numpy as np

from data_gain_reference import DIRECT_N1E4, ITERATIVE_N1E4
from helpers import plan_and_secondary, random_conduction_problem
from mptop.analysis import solve_condensed, solve_elementary
from mptop.cli import cmd_run, parse_config
from mptop.condensation import condense
from mptop.optimizer import optimize
from mptop.perfmodel import FlopModel, gain_problem1, measure_runtime_gain
from mptop.problems import build_problem1, build_problem2, evaluate
from mptop.sensitivity import fd_verify, sens_case
from test_sensitivity import CASE_SHAPES, CaseRig

JBAR = np.array([[0.5, 2.0], [1.0, -1.0]])


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_condensation_exactness():
    """Condensed primary states equal the per-pattern solves exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 30:
        K, sets, grid, _ = random_conduction_problem(
            rng, max_grid=20, max_sets=4, with_secondary_sources=True)
        plan, sec_loads, sec_values = plan_and_secondary(sets, grid.n_dofs)
        if plan.m == 0:
            continue
        checked += 1
        model = condense(K, plan, sec_loads, sec_values)
        cond = solve_condensed(model, sets)
        elem = list(solve_elementary(K, sets))
        for i in range(len(sets)):
            a = cond[i][0].u_full
            b = elem[i][0].u_full[plan.primary.ids]
            scale = max(np.abs(b).max(), 1e-30)
            worst = max(worst, np.abs(a - b).max() / scale)
    elapsed = time.perf_counter() - t0
    _verdict(1, "condensation exactness",
             worst <= 1e-9 and elapsed < 10.0,
             f"30 instances, worst rel discrepancy {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_sensitivity_correctness():
    """Both pipelines match finite differences and each other; all six
    dependency cases verified."""
    t0 = time.perf_counter()
    worst_fd = 0.0
    worst_cross = 0.0

    p1 = build_problem1(4, 4, m=4, vbar=0.3, seed=11)
    p2 = build_problem2(6, 6, 2, JBAR)
    for problem, x in (
        (p1, np.random.default_rng(1).uniform(0.3, 0.9, p1.grid.n_elems)),
        (p2, np.random.default_rng(2).uniform(0.3, 0.9, p2.grid.n_elems)),
    ):
        evs = {pipe: evaluate(problem, x, pipeline=pipe)
               for pipe in ("elementary", "condensed")}
        grads = {pipe: np.vstack([ev.d_objective[None, :], ev.d_constraints])
                 for pipe, ev in evs.items()}
        cross = np.abs(grads["elementary"] - grads["condensed"]).max() \
            / np.abs(grads["elementary"]).max()
        worst_cross = max(worst_cross, cross)
        for pipe in ("elementary", "condensed"):
            def g_all(xv, pipe=pipe, problem=problem):
                e = evaluate(problem, xv, pipeline=pipe, want_grads=False)
                return np.concatenate([[e.objective], e.constraints])

            for k in range(1 + problem.n_constraints):
                # components below 0.1% of the gradient norm sit under the
                # central-difference roundoff floor at this step size; they
                # are held to the same bound scaled by the norm instead
                floor = 1e-3 * np.abs(grads[pipe][k]).max()
                err = fd_verify(lambda xv: g_all(xv)[k], x, grads[pipe][k],
                                eps=1e-6)
                worst_fd = max(worst_fd, err)
                small = np.abs(grads[pipe][k]) <= floor
                if np.any(small):
                    for j in np.nonzero(small)[0]:
                        step = np.zeros_like(x)
                        step[j] = 1e-6
                        fd = (g_all(x + step)[k] - g_all(x - step)[k]) / 2e-6
                        worst_fd = max(worst_fd,
                                       abs(fd - grads[pipe][k][j]) / floor)

    worst_case = 0.0
    rig = CaseRig(seed=2024)
    design, model, sol, _ = rig.pipeline()
    for case in CASE_SHAPES:
        W = rig.rng.normal(size=CASE_SHAPES[case](rig, 0))
        bundle = sens_case(case, rig.grid, design, model, W, sol=sol,
                           set_index=0)
        err = fd_verify(
            lambda xv: float(np.sum(W * rig.quantity(case, 0, x=xv))),
            rig.x, bundle.dg_dx)
        worst_case = max(worst_case, err)

    elapsed = time.perf_counter() - t0
    ok = (worst_fd <= 1e-5 and worst_cross <= 1e-9 and worst_case <= 1e-5
          and elapsed < 30.0)
    _verdict(2, "sensitivity correctness", ok,
             f"FD {worst_fd:.2e}, cross-pipeline {worst_cross:.2e}, "
             f"cases {worst_case:.2e}, {elapsed:.1f}s")


def test_criterion_3_self_adjointness_ledger():
    """Condensed: one large factorization, zero large adjoint solves per
    iteration; per-pattern pipeline: one large factorization per pattern."""
    ok = True
    details = []
    for problem, label in ((build_problem1(10, 10, m=5, vbar=0.3, seed=5), "p1"),
                           (build_problem2(10, 10, 2, JBAR), "p2")):
        res = optimize(problem, pipeline="condensed", max_iters=3, tol=0.0,
                       keep_ledgers=True)
        for rec, ledger in zip(res.history, res.ledgers):
            ok &= rec.sparse_factorizations == 1
            ok &= ledger.count(op="solve", matrix="sparse",
                               phase="adjoint") == 0
        res = optimize(problem, pipeline="elementary", max_iters=3, tol=0.0,
                       keep_ledgers=True)
        a = len(problem.sets)
        for rec in res.history:
            ok &= rec.sparse_factorizations == a
        details.append(f"{label}: a={a}")
    _verdict(3, "self-adjointness ledger", ok, "; ".join(details))


def test_criterion_4_gain_model_regression():
    """Predicted gain reproduces the reference curves at n = 1e4."""
    t0 = time.perf_counter()
    it = FlopModel("iterative")
    dr = FlopModel("direct")
    ok = True
    spots = []

    v = gain_problem1(it, 1e4, 91.0298177991522)
    ok &= abs(v - 90.8854507418553) <= 0.01 * 90.8854507418553
    spots.append(f"iter m=91.03: {v:.4f}")
    ok &= gain_problem1(it, 1e4, 1) == 0.0
    v = gain_problem1(dr, 1e4, 1)
    ok &= abs(v - 0.980139768625012) <= 0.005 * 0.980139768625012
    spots.append(f"direct m=1: {v:.4f}")

    for m, ref in ITERATIVE_N1E4:
        got = gain_problem1(it, 1e4, m)
        if ref == 0.0:
            ok &= got == 0.0
            continue
        tol = 0.01 if m <= 100 else 0.10
        ok &= abs(got - ref) <= tol * ref
    for m, ref in DIRECT_N1E4:
        got = gain_problem1(dr, 1e4, m)
        tol = 0.005 if m <= 2 else 0.10
        ok &= abs(got - ref) <= tol * ref

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(4, "gain model regression", ok,
             f"{'; '.join(spots)}; {elapsed:.2f}s")


def test_criterion_5_measured_runtime_gain():
    """Wall-clock gain at 1e4 DOFs, 32 ports, direct backend."""
    t0 = time.perf_counter()
    problem = build_problem1(99, 99, m=32, vbar=0.3, seed=0)
    assert problem.plan.n == 10 ** 4
    out = measure_runtime_gain(problem, repeats=3)
    elapsed = time.perf_counter() - t0
    ok = (out.xi_measured >= 5.0
          and out.xi_predicted / 3.0 <= out.xi_measured <= 3.0 * out.xi_predicted
          and elapsed < 300.0)
    _verdict(5, "measured runtime gain", ok,
             f"measured {out.xi_measured:.1f}, predicted {out.xi_predicted:.1f}, "
             f"{elapsed:.0f}s")


def test_criterion_6_end_to_end_optimization():
    """Both problems optimize to their targets with agreeing pipelines."""
    t0 = time.perf_counter()
    ok = True
    details = []

    p1 = build_problem1(40, 40, m=8, vbar=0.3, seed=0)
    runs = {pipe: optimize(p1, pipeline=pipe, max_iters=50, tol=0.0)
            for pipe in ("condensed", "elementary")}
    for pipe, res in runs.items():
        g1 = res.history[-1].constraints[0]
        red = 1.0 - res.objectives[-1] / res.objectives[0]
        ok &= abs(g1) <= 1e-3
        ok &= red >= 0.30
        details.append(f"p1/{pipe}: |g1|={abs(g1):.1e}, drop={red:.0%}")
    drift1 = max(abs(a.objective - b.objective) / abs(b.objective)
                 for a, b in zip(runs["condensed"].history,
                                 runs["elementary"].history))
    ok &= drift1 <= 1e-6
    details.append(f"p1 drift={drift1:.1e}")

    p2 = build_problem2(60, 60, 2, JBAR)
    runs = {pipe: optimize(p2, pipeline=pipe, max_iters=400, tol=0.01)
            for pipe in ("condensed", "elementary")}
    for pipe, res in runs.items():
        ok &= len(res.history) < 400  # converged by the step-size criterion
        gmax = max(res.history[-1].constraints)
        ok &= gmax <= 1e-2
        details.append(f"p2/{pipe}: {len(res.history)} iters, "
                       f"max g={gmax:+.1e}")
    # identical-response pipelines track each other over the documented
    # horizon before roundoff accumulates through the nonconvex iteration
    horizon = min(40, *(len(r.history) for r in runs.values()))
    drift2 = max(abs(a.objective - b.objective) / abs(b.objective)
                 for a, b in zip(runs["condensed"].history[:horizon],
                                 runs["elementary"].history[:horizon]))
    ok &= drift2 <= 1e-6
    details.append(f"p2 drift[{horizon}]={drift2:.1e}")

    elapsed = time.perf_counter() - t0
    _verdict(6, "end-to-end optimization", ok,
             "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_7_determinism(tmp_path):
    """Identical config and seed give byte-identical logs and densities."""
    cfg_text = """
[problem]
kind = problem1
nelx = 16
nely = 16
m = 4
vbar = 0.3
seed = 9
[solver]
pipeline = both
[optimizer]
max_iters = 6
tol = 0.0
[output]
dir = {out}
"""
    ok = True
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        cmd_run(parse_config(cfg_text.format(out=out)))
        outs.append(out)
    compared = []
    for name in ("iterations_condensed.tsv", "iterations_elementary.tsv",
                 "density_condensed.pgm", "density_condensed.csv",
                 "density_elementary.pgm", "density_elementary.csv"):
        same = (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        ok &= same
        compared.append(name)
    _verdict(7, "determinism", ok, f"{len(compared)} artifacts byte-compared")
