"""Command-line front end: optimization runs, gradient checks, gain tables.

Subcommands operate on a flat key=value config file with [section] headers::

    [problem]
    kind = problem1        # or problem2
    nelx = 40
    nely = 40
    m = 8                  # problem1: port count
    vbar = 0.3             # problem1: material bound
    seed = 0
    inputs = 2             # problem2: input/output pair count
    jbar = 0.5,2.0;1.0,-1.0  # problem2: target transmission matrix
    [solver]
    pipeline = condensed   # elementary | condensed | both
    [optimizer]
    max_iters = 50
    tol = 0.01
    [output]
    dir = out

The large sparse systems are solved by banded Cholesky. ``gain`` tabulates
the cost model's predicted gain for every method in
:data:`mptop.perfmodel.METHODS`; only the direct one can also be measured.

Artifacts per run: a per-iteration TSV log (deterministic fields only), a
separate timing file, the final density as ASCII PGM and CSV, and a
key=value summary. The output directory can be overridden with the
MPTOP_OUTDIR environment variable.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .optimizer import optimize
from .perfmodel import FlopModel, gain_table, measure_runtime_gain
from .problems import build_problem1, build_problem2, evaluate
from .sensitivity import fd_verify


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    kind: str = "problem1"
    nelx: int = 40
    nely: int = 40
    m: int = 8
    vbar: float = 0.3
    seed: int = 0
    inputs: int = 2
    jbar: tuple = ((0.5, 2.0), (1.0, -1.0))
    radius: float = 2.0
    penal: float = 3.0
    emin: float = 1e-9
    pipeline: str = "condensed"
    max_iters: int = 50
    tol: float = 0.01
    out_dir: str = "out"
    # gain sweep
    gain_n: tuple = (1e3, 1e4, 1e6)
    gain_m_min: float = 1.0
    gain_m_max: float = 1000.0
    gain_m_count: int = 25
    gain_kind: str = "problem1"
    gain_measure: bool = False
    gain_measure_cap: float = 12000.0


_SCHEMA = {
    ("problem", "kind"): ("kind", str),
    ("problem", "nelx"): ("nelx", int),
    ("problem", "nely"): ("nely", int),
    ("problem", "m"): ("m", int),
    ("problem", "vbar"): ("vbar", float),
    ("problem", "seed"): ("seed", int),
    ("problem", "inputs"): ("inputs", int),
    ("problem", "jbar"): ("jbar", "matrix"),
    ("problem", "radius"): ("radius", float),
    ("problem", "penal"): ("penal", float),
    ("problem", "emin"): ("emin", float),
    ("solver", "pipeline"): ("pipeline", str),
    ("optimizer", "max_iters"): ("max_iters", int),
    ("optimizer", "tol"): ("tol", float),
    ("output", "dir"): ("out_dir", str),
    ("gain", "n"): ("gain_n", "floats"),
    ("gain", "m_min"): ("gain_m_min", float),
    ("gain", "m_max"): ("gain_m_max", float),
    ("gain", "m_count"): ("gain_m_count", int),
    ("gain", "kind"): ("gain_kind", str),
    ("gain", "measure"): ("gain_measure", "bool"),
    ("gain", "measure_cap"): ("gain_measure_cap", float),
}


def _parse_matrix(text: str) -> tuple:
    rows = []
    for chunk in text.split(";"):
        row = tuple(float(v) for v in chunk.split(",") if v.strip())
        if row:
            rows.append(row)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ConfigError(f"malformed matrix literal {text!r}")
    return tuple(rows)


def _parse_bool(text: str) -> bool:
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    section = None
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key [{section}] {key}")
        attr, typ = _SCHEMA[(section, key)]
        try:
            if typ == "matrix":
                parsed = _parse_matrix(value)
            elif typ == "floats":
                parsed = tuple(float(v) for v in value.split(",") if v.strip())
            elif typ == "bool":
                parsed = _parse_bool(value)
            else:
                parsed = typ(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
        cfg = replace(cfg, **{attr: parsed})
        seen_any = True
    if not seen_any:
        raise ConfigError("empty config: no keys found")
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig):
    if cfg.kind not in ("problem1", "problem2"):
        raise ConfigError(f"unknown problem kind {cfg.kind!r}")
    if cfg.pipeline not in ("elementary", "condensed", "both"):
        raise ConfigError(f"unknown pipeline {cfg.pipeline!r}")
    if cfg.nelx < 1 or cfg.nely < 1 or cfg.max_iters < 0:
        raise ConfigError("grid sizes must be positive, max_iters >= 0")


def _format_value(value, typ) -> str:
    if typ == "matrix":
        return ";".join(",".join(repr(v) for v in row) for row in value)
    if typ == "floats":
        return ",".join(repr(v) for v in value)
    if typ == "bool":
        return "1" if value else "0"
    return repr(value) if typ is float else str(value)


def write_config(cfg: RunConfig) -> str:
    lines, section = [], None
    for (sect, key), (attr, typ) in _SCHEMA.items():
        if sect != section:
            lines.append(f"[{sect}]")
            section = sect
        lines.append(f"{key} = {_format_value(getattr(cfg, attr), typ)}")
    return "\n".join(lines + [""])


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def build_problem(cfg: RunConfig):
    if cfg.kind == "problem1":
        return build_problem1(cfg.nelx, cfg.nely, cfg.m, cfg.vbar, cfg.seed,
                              cfg.radius, cfg.penal, cfg.emin)
    return build_problem2(cfg.nelx, cfg.nely, cfg.inputs,
                          np.asarray(cfg.jbar), cfg.radius, cfg.penal,
                          cfg.emin)


def _out_dir(cfg: RunConfig) -> str:
    path = os.environ.get("MPTOP_OUTDIR", cfg.out_dir)
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.10e}"


def write_iteration_log(path, history, n_cons):
    cons_cols = "\t".join(f"g{j + 1}" for j in range(n_cons))
    header = ("iteration\tg0\t" + cons_cols
              + "\tmax_dx\tsparse_factorizations\tsparse_solves"
              + "\tdense_factorizations\tadjoint_rhs\n")
    with open(path, "w") as fh:
        fh.write(header)
        for r in history:
            cons = "\t".join(_fmt(v) for v in r.constraints)
            fh.write(f"{r.iteration}\t{_fmt(r.objective)}\t{cons}"
                     f"\t{_fmt(r.max_change)}\t{r.sparse_factorizations}"
                     f"\t{r.sparse_solves}\t{r.dense_factorizations}"
                     f"\t{r.adjoint_rhs}\n")


def write_timings(path, history):
    with open(path, "w") as fh:
        fh.write("iteration\tseconds\n")
        for r in history:
            fh.write(f"{r.iteration}\t{r.seconds:.6f}\n")


def write_density_pgm(path, problem, x_filtered):
    """ASCII PGM, grid rows by grid columns, 255 = full material.

    The conduction problem renders conductive material white; the mechanism
    problem renders solid material black.
    """
    grid = problem.grid
    img = x_filtered.reshape(grid.nelx, grid.nely).T  # rows top to bottom
    if problem.kind == "problem2":
        img = 1.0 - img
    pixels = np.clip(np.round(255 * img), 0, 255).astype(int)
    lines = ["P2", f"{grid.nelx} {grid.nely}", "255"]
    for row in pixels:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_density_csv(path, problem, x_filtered):
    grid = problem.grid
    img = x_filtered.reshape(grid.nelx, grid.nely).T
    with open(path, "w") as fh:
        for row in img:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_summary(path, pairs):
    with open(path, "w") as fh:
        for k, v in pairs:
            fh.write(f"{k} = {v}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    problem = build_problem(cfg)
    pipelines = (["elementary", "condensed"] if cfg.pipeline == "both"
                 else [cfg.pipeline])
    results = {}
    t0 = time.perf_counter()
    for pipe in pipelines:
        res = optimize(problem, pipeline=pipe, max_iters=cfg.max_iters,
                       tol=cfg.tol)
        results[pipe] = res
        write_iteration_log(os.path.join(out, f"iterations_{pipe}.tsv"),
                            res.history, problem.n_constraints)
        write_timings(os.path.join(out, f"timings_{pipe}.tsv"), res.history)
        design = problem.design(res.x)
        write_density_pgm(os.path.join(out, f"density_{pipe}.pgm"),
                          problem, design.filtered)
        write_density_csv(os.path.join(out, f"density_{pipe}.csv"),
                          problem, design.filtered)
    wall = time.perf_counter() - t0

    summary = [("kind", cfg.kind), ("nelx", cfg.nelx), ("nely", cfg.nely),
               ("pipeline", cfg.pipeline), ("seed", cfg.seed),
               ("wall_seconds", f"{wall:.3f}")]
    for pipe, res in results.items():
        if res.history:
            last = res.history[-1]
            summary += [(f"{pipe}_iterations", last.iteration),
                        (f"{pipe}_objective", _fmt(last.objective)),
                        (f"{pipe}_max_constraint",
                         _fmt(max(last.constraints)))]
        else:
            ev = evaluate(problem, res.x, want_grads=False, pipeline=pipe)
            summary += [(f"{pipe}_iterations", 0),
                        (f"{pipe}_objective", _fmt(ev.objective)),
                        (f"{pipe}_max_constraint",
                         _fmt(max(ev.constraints)))]
    if len(pipelines) == 2:
        pair = zip(results["elementary"].history,
                   results["condensed"].history)
        drift = max((abs(a.objective - b.objective)
                     / max(abs(a.objective), 1e-30) for a, b in pair),
                    default=0.0)
        summary.append(("pipeline_objective_drift", _fmt(drift)))
    write_summary(os.path.join(out, "summary.txt"), summary)
    print(f"run complete; artifacts in {out}")
    return 0


def cmd_verify(cfg: RunConfig, tamper: bool = False) -> int:
    cap = replace(cfg, nelx=min(cfg.nelx, 10), nely=min(cfg.nely, 10),
                  m=min(cfg.m, 4))
    problem = build_problem(cap)
    rng = np.random.default_rng(cfg.seed)
    x = rng.uniform(0.3, 0.9, problem.grid.n_elems)

    worst = 0.0
    failed = False
    for pipe in ("elementary", "condensed"):
        ev = evaluate(problem, x, pipeline=pipe)
        rows = [("g0", ev.objective, ev.d_objective)]
        for j in range(problem.n_constraints):
            rows.append((f"g{j + 1}", ev.constraints[j], ev.d_constraints[j]))
        for name, _, grad in rows:
            if tamper:
                grad = grad.copy()
                grad[np.argmax(np.abs(grad))] *= 1.5

            def g_of(xv, name=name):
                e = evaluate(problem, xv, pipeline=pipe, want_grads=False)
                if name == "g0":
                    return e.objective
                return e.constraints[int(name[1:]) - 1]

            err = fd_verify(g_of, x, grad)
            worst = max(worst, err)
            status = "ok" if err <= 1e-4 else "FAIL"
            failed = failed or err > 1e-4
            print(f"{cfg.kind} {pipe:10s} {name:4s} "
                  f"max rel error {err:.3e}  {status}")
    print(f"worst relative error {worst:.3e}")
    return 1 if failed else 0


def cmd_gain(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    ms = np.logspace(np.log10(cfg.gain_m_min), np.log10(cfg.gain_m_max),
                     cfg.gain_m_count)
    tables = [gain_table(FlopModel(method), cfg.gain_n, ms, cfg.gain_kind)
              for method in ("direct", "iterative")]
    rows = []
    for entries in zip(*tables):
        n, m = entries[0][:2]
        xi_t = ""
        if cfg.gain_measure and n <= cfg.gain_measure_cap \
                and cfg.gain_kind == "problem1" and 2 <= m < n / 4:
            side = max(2, int(round(np.sqrt(n))) - 1)
            prob = build_problem1(side, side, int(round(m)),
                                  vbar=0.4, seed=cfg.seed)
            xi_t = _fmt(measure_runtime_gain(prob, repeats=2).xi_measured)
        rows += [entry + (xi_t,) for entry in entries]
    path = os.path.join(out, "gain.csv")
    with open(path, "w") as fh:
        fh.write("n,m,model,xi_beta,xi_t\n")
        for n, m, method, xi, xi_t in rows:
            fh.write(f"{_fmt(n)},{_fmt(m)},{method},{_fmt(xi)},{xi_t}\n")
    print(f"gain table with {len(rows)} rows written to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mptop",
        description="2D topology optimization with static condensation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run an optimization"),
                            ("verify", "finite-difference gradient check"),
                            ("gain", "predicted/measured gain tables")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the config file")
        if name == "verify":
            p.add_argument("--tamper", action="store_true",
                           help="corrupt one gradient entry (negative control)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, tamper=args.tamper)
        return cmd_gain(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
