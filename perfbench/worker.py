"""One pipeline of one workload, run in a fresh process.

The worker times its own set-up (imports, problem build, one warm-up
``evaluate``), then runs passes of the workload's horizon through
``optimize`` from ``x0`` until its time budget is spent, reads its peak RSS,
and only then evaluates at the design the parent asks to check. Top-level
imports are standard library only, so the set-up time includes numpy, scipy
and mptop.
"""
from __future__ import annotations

import hashlib
import pickle
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from .workloads import Job

MIN_PASSES = 2


def main() -> None:
    """``python -m perfbench.worker``: a pickled :class:`Job` on stdin, a
    pickled ``("ok", result)`` or ``("error", traceback)`` on stdout."""
    job = pickle.load(sys.stdin.buffer)
    reply_to = sys.stdout.buffer
    sys.stdout = sys.stderr    # keep stray prints out of the reply
    try:
        reply = ("ok", run_job(job))
    except Exception:
        reply = ("error", traceback.format_exc())
    pickle.dump(reply, reply_to)
    reply_to.flush()


def run_job(job: Job) -> dict:
    """Set up, time the passes, then evaluate; see the module docstring."""
    t0 = time.perf_counter()
    import mptop
    problem = job.workload.build(job.seed)
    ev0 = mptop.evaluate(problem, problem.x0, pipeline=job.pipeline)
    out = {"setup_s": time.perf_counter() - t0}
    if job.setup_only:
        return out

    out["source"] = str(Path(mptop.__file__).resolve().parent)
    out["x0_eval"] = _pack(ev0)
    out["n"], out["m"] = problem.plan.n, problem.plan.m
    out["gain_predicted"] = _gain_predicted(problem)

    kinds = ("plain", "traced") if job.trace else ("plain",)
    passes, notes = [], []
    deadline = time.perf_counter() + job.budget_s
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        for kind in kinds:
            passes.append(_run_pass(problem, job, kind == "traced", notes))
        if any(p["error"] for p in passes):
            break
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    out["passes"] = passes
    out["notes"] = sorted(set(notes))
    done = [p for p in passes if p["x_final"] is not None]
    out["x_final"] = done[-1]["x_final"] if done else None
    for p in passes:
        del p["x_final"]
    x_check = job.x_check if job.x_check is not None else out["x_final"]
    if x_check is not None:
        import numpy as np
        out["check_eval"] = _pack(mptop.evaluate(
            problem, np.array(x_check), pipeline=job.pipeline))
    return out


def _pack(ev) -> dict:
    """Responses and gradients of one evaluation as plain lists."""
    responses = [float(ev.objective)] + [float(c) for c in ev.constraints]
    grads = [ev.d_objective.tolist()] + [g.tolist() for g in ev.d_constraints]
    return {"responses": responses, "grads": grads}


def _gain_predicted(problem) -> float:
    from mptop.perfmodel import FlopModel, gain_problem1, gain_problem2
    fn = gain_problem1 if problem.kind == "problem1" else gain_problem2
    return float(fn(FlopModel("direct"), problem.plan.n, problem.plan.m))


def _run_pass(problem, job: Job, traced: bool, notes: list) -> dict:
    from mptop import optimize
    from .trace import Tracer

    horizon = job.workload.horizon
    completed = 0

    def count(record, x):
        nonlocal completed
        completed += 1

    tracer = Tracer(job.pipeline) if traced else None
    error = None
    result = None
    t0 = time.perf_counter()
    try:
        with tracer or nullcontext():
            result = optimize(problem, pipeline=job.pipeline,
                              max_iters=horizon, tol=0.0, keep_ledgers=True,
                              callback=count)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0

    history = result.history if result is not None else []
    finite = [r for r in history if _finite(r)]
    out = {
        "kind": "traced" if traced else "plain",
        "iter_ms": 1e3 * wall / horizon,
        "attempted": horizon,
        "failed": horizon - completed + len(history) - len(finite),
        "error": error,
        "hash": _history_hash(history),
        "ledger": _ledger_summary(result.ledgers, horizon) if result else None,
        "objective_end": history[-1].objective if history else None,
        "max_g_end": max(history[-1].constraints) if history else None,
        "x_final": result.x.tolist() if result is not None else None,
        "trace": None,
    }
    if tracer is not None:
        out["trace"] = tracer.summary(horizon)
        notes.extend(f"patch point {where} is gone: span '{span}' and its "
                     f"metrics dropped for {job.pipeline}"
                     for span, where in tracer.missing)
    return out


def _finite(record) -> bool:
    values = (record.objective, record.max_change) + tuple(record.constraints)
    return all(v == v and abs(v) != float("inf") for v in values)


def _history_hash(history) -> str:
    """SHA-256 over the exact bits of objective, constraints and max change."""
    h = hashlib.sha256()
    for r in history:
        h.update(repr((r.iteration, float(r.objective).hex(),
                       tuple(float(c).hex() for c in r.constraints),
                       float(r.max_change).hex())).encode())
    return h.hexdigest()


def _ledger_summary(ledgers, horizon: int) -> dict:
    """Per-iteration means of the cost-ledger events of one pass."""
    def total(method, **kw):
        return sum(getattr(led, method)(**kw) for led in ledgers) / horizon

    sparse_s = total("seconds_total", matrix="sparse")
    sparse_flops = total("flops_total", matrix="sparse")
    return {
        "factorize_ms": 1e3 * total("seconds_total", op="factorize",
                                    matrix="sparse"),
        "factorize_count": total("count", op="factorize", matrix="sparse"),
        "solve_ms": 1e3 * total("seconds_total", op="solve", matrix="sparse"),
        "solve_rhs": total("rhs_total", op="solve", matrix="sparse"),
        "gflops": sparse_flops / sparse_s / 1e9 if sparse_s > 0 else 0.0,
        "dense_ms": 1e3 * total("seconds_total", matrix="dense"),
        "adjoint_rhs": total("rhs_total", op="solve", phase="adjoint"),
        "large_adjoint_solves": total("count", op="solve", matrix="sparse",
                                      phase="adjoint"),
        "ledger_ms": 1e3 * total("seconds_total"),
    }


if __name__ == "__main__":
    main()
