"""One benchmark run of one workload.

The parent process starts every worker in a fresh interpreter
(``python -m perfbench.worker``), one at a time: four set-up-only workers,
then the condensed worker, then the elementary worker, which also evaluates
at the condensed run's final design. It then runs the correctness checks and turns the workers' numbers
into the end-to-end metrics (untraced passes) and the per-layer metrics
(traced passes).
"""
from __future__ import annotations

import os
import pickle
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from . import worker
from .workloads import PIPELINES, Job, Workload

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 160.0
REL_TOL = 1e-9


def spawn_runner(job: Job) -> dict:
    """Run ``job`` in a fresh interpreter and wait for it to end."""
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))})
    try:
        out, _ = proc.communicate(pickle.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{job.pipeline} worker timed out after "
                           f"{WORKER_TIMEOUT_S:g} s") from None
    if proc.returncode != 0 or not out:
        raise RuntimeError(f"{job.pipeline} worker ended without a result "
                           f"(exit code {proc.returncode})")
    status, payload = pickle.loads(out)
    if status != "ok":
        raise RuntimeError(f"{job.pipeline} worker failed:\n{payload}")
    return payload


def inprocess_runner(job: Job) -> dict:
    """Run ``job`` in this process (tests; set-up and RSS are not cold)."""
    return worker.run_job(job)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 runner=spawn_runner) -> dict:
    """Report of one run: checks, counts, hashes and metrics."""
    setup = [runner(Job(workload, seed, "condensed", setup_only=True))
             ["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    cond = runner(Job(workload, seed, "condensed", seconds / 2, trace))
    setup.append(cond["setup_s"])
    x_final = cond["x_final"]
    elem = runner(Job(workload, seed, "elementary", seconds / 2, trace,
                      x_check=tuple(x_final) if x_final else None))
    runs = {"condensed": cond, "elementary": elem}

    checks = _checks(runs)
    passes = [p for r in runs.values() for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes) + len(checks)
    failed = (sum(p["failed"] for p in passes)
              + sum(1 for _, ok, _ in checks if not ok))
    notes = sorted({n for r in runs.values() for n in r["notes"]})
    end_to_end = _end_to_end(runs, setup)
    per_layer = _per_layer(runs, notes) if trace else {}
    return {
        "workload": workload.name, "seed": seed, "horizon": workload.horizon,
        "source": cond["source"], "checks": checks, "notes": notes,
        "errors": [p["error"] for p in passes if p["error"]],
        "attempted": attempted, "failed": failed,
        "hashes": {pipe: sorted({p["hash"] for p in r["passes"]})
                   for pipe, r in runs.items()},
        "pass_ms": {pipe: [(p["kind"], p["iter_ms"]) for p in r["passes"]]
                    for pipe, r in runs.items()},
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _rel(a, b) -> float:
    import numpy as np
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def _checks(runs: dict) -> list:
    """(name, ok, detail) for every correctness check of the run."""
    import numpy as np
    cond, elem = runs["condensed"], runs["elementary"]
    checks = []
    for label, key in (("x0", "x0_eval"), ("final design", "check_eval")):
        a, b = cond.get(key), elem.get(key)
        if a is None or b is None:
            checks.append((f"condensed = elementary at {label}", False,
                           "no evaluation"))
            continue
        r = _rel(a["responses"], b["responses"])
        g = _rel(a["grads"], b["grads"])
        checks.append((f"condensed = elementary at {label}",
                       max(r, g) <= REL_TOL,
                       f"responses {r:.1e}, gradients {g:.1e} "
                       f"(bound {REL_TOL:.0e} relative)"))
    evals = [r[k] for r in runs.values() for k in ("x0_eval", "check_eval")
             if r.get(k) is not None]
    finite = all(np.all(np.isfinite(e["responses"]))
                 and np.all(np.isfinite(e["grads"])) for e in evals)
    checks.append(("responses and gradients finite", finite,
                   f"{len(evals)} evaluations"))
    large = [p["ledger"]["large_adjoint_solves"] * p["attempted"]
             for p in cond["passes"] if p["ledger"] is not None]
    checks.append(("condensed large adjoint solves = 0",
                   bool(large) and sum(large) == 0,
                   f"{sum(large):g} over {len(large)} passes"))
    for pipe, r in runs.items():
        hashes = {p["hash"] for p in r["passes"] if not p["error"]}
        checks.append((f"{pipe} history identical across passes",
                       len(hashes) == 1,
                       f"{len(r['passes'])} passes, {len(hashes)} hashes"))
    return checks


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _passes(run: dict, kind: str) -> list:
    return [p for p in run["passes"] if p["kind"] == kind and not p["error"]]


def _end_to_end(runs: dict, setup: list) -> dict:
    out = {}
    for pipe, r in runs.items():
        plain = _passes(r, "plain")
        if plain:
            out[f"iter_ms.{pipe}"] = (
                statistics.median(p["iter_ms"] for p in plain), "ms")
    out["setup_s"] = (statistics.median(setup), "s")
    for pipe, r in runs.items():
        out[f"peak_rss_mb.{pipe}"] = (r["peak_rss_mb"], "MB")
    return out


def _span(name, field="ms"):
    return lambda p: p["trace"]["spans"][name][field]


def _counter(name, scale=1.0):
    return lambda p: p["trace"]["counters"][name] * scale


def _ledger(name):
    return lambda p: p["ledger"][name]


# metric, unit, pipelines, value of one traced pass (a KeyError means the
# data is gone, e.g. a vanished patch point, and drops the metric)
PASS_METRICS = (
    ("problems.evaluate_ms", "ms", PIPELINES, _span("evaluate")),
    ("fem.design_ms", "ms", PIPELINES, _span("design")),
    ("fem.assemble_ms", "ms", PIPELINES, _span("assemble")),
    ("fem.contract_ms", "ms", PIPELINES, _span("contract")),
    ("fem.contract_cols", "count", PIPELINES, _counter("contract_cols")),
    ("fem.filter_chain_ms", "ms", PIPELINES, _span("filter_chain")),
    ("sparse.factorize_ms", "ms", PIPELINES, _ledger("factorize_ms")),
    ("sparse.factorize_count", "count", PIPELINES, _ledger("factorize_count")),
    ("sparse.band_mb", "MB", PIPELINES, _counter("band_bytes", 1e-6)),
    ("sparse.solve_ms", "ms", PIPELINES, _ledger("solve_ms")),
    ("sparse.solve_rhs", "count", PIPELINES, _ledger("solve_rhs")),
    ("sparse.gflops", "GFLOP/s", PIPELINES, _ledger("gflops")),
    ("sparse.extract_ms", "ms", PIPELINES, _span("extract")),
    ("sparse.dense_ms", "ms", ("condensed",), _ledger("dense_ms")),
    ("condensation.condense_ms", "ms", None, _span("condense")),
    ("analysis.solve_ms", "ms", PIPELINES, _span("solve")),
    ("sensitivity.gradient_ms", "ms", PIPELINES, _span("gradient")),
    ("sensitivity.adjoint_rhs", "count", PIPELINES, _ledger("adjoint_rhs")),
    ("sensitivity.large_adjoint_solves", "count", ("condensed",),
     _ledger("large_adjoint_solves")),
    ("optimizer.mma_ms", "ms", PIPELINES, _span("mma")),
    ("optimizer.mma_max_ms", "ms", PIPELINES, _span("mma", "max_ms")),
    ("optimizer.objective_end", "1", PIPELINES, lambda p: p["objective_end"]),
    ("optimizer.max_g_end", "1", PIPELINES, lambda p: p["max_g_end"]),
    ("trace.coverage_pct", "%", PIPELINES,
     lambda p: 100.0 * p["trace"]["top_ms"] / p["iter_ms"]),
)


def _per_layer(runs: dict, notes: list) -> dict:
    """Medians over the traced passes; ``notes`` gets one line per metric
    whose data is missing."""
    out = {}
    traced = {pipe: _passes(r, "traced") for pipe, r in runs.items()}

    def put(name, unit, fn):
        try:
            out[name] = (fn(), unit)
        except (KeyError, ZeroDivisionError, statistics.StatisticsError) as exc:
            notes.append(f"metric {name} dropped: no data ({exc!r})")

    for name, unit, pipes, fn in PASS_METRICS:
        for pipe in pipes or ("condensed",):
            full = f"{name}.{pipe}" if pipes else name
            put(full, unit, lambda fn=fn, pipe=pipe: statistics.median(
                fn(p) for p in traced[pipe]))

    cond = runs["condensed"]
    put("partitions.n", "count", lambda: cond["n"])
    put("partitions.m", "count", lambda: cond["m"])
    put("perfmodel.gain_e2e", "ratio", lambda: (
        out["problems.evaluate_ms.elementary"][0]
        / out["problems.evaluate_ms.condensed"][0]))
    put("perfmodel.gain_solver", "ratio", lambda: (
        statistics.median(p["ledger"]["ledger_ms"] for p in traced["elementary"])
        / statistics.median(p["ledger"]["ledger_ms"] for p in traced["condensed"])))
    put("perfmodel.gain_predicted", "ratio", lambda: cond["gain_predicted"])
    for pipe, r in runs.items():
        put(f"trace.overhead_pct.{pipe}", "%", lambda r=r: 100.0 * (
            statistics.median(p["iter_ms"] for p in _passes(r, "traced"))
            / statistics.median(p["iter_ms"] for p in _passes(r, "plain"))
            - 1.0))
    return out


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def machine() -> dict:
    """nproc, interpreter and library versions, BLAS libraries and threads."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_threads() or ["unknown"],
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


def _blas_threads() -> list:
    """'<library>: <n> threads' for each OpenBLAS loaded in this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(f"{Path(path).name}: {fn()} threads")
                break
    return found
