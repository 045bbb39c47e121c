"""Command-line front end: optimization runs, gradient checks, gain tables.

Subcommands operate on a flat key=value config file with [section] headers;
README's "Command line" section shows every key with its default.

Each key sets the :class:`RunConfig` field of the same name (``gain_`` and
``output_`` prefixed for the last two sections) and is read as the type of
that field's default. Problem 2 has one input per row of ``jbar``.

The large sparse systems are solved by banded Cholesky. ``gain`` tabulates
the cost model's predicted gain for every method in
:data:`mptop.perfmodel.METHODS` for ``[problem] kind``; only the direct one
can also be measured.

Artifacts per run: a per-iteration TSV log (deterministic fields only), a
separate timing file, the final density as ASCII PGM and CSV, and a
key=value summary of the final design's responses.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .optimizer import optimize
from .perfmodel import (METHODS, FlopModel, gain_problem1, gain_problem2,
                        measure_runtime_gain)
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
    jbar: tuple = ((0.5, 2.0), (1.0, -1.0))
    pipeline: str = "condensed"
    max_iters: int = 50
    tol: float = 0.01
    output_dir: str = "out"
    gain_n: tuple = (1e3, 1e4, 1e6)
    gain_m_min: float = 1.0
    gain_m_max: float = 1000.0
    gain_m_count: int = 25
    gain_measure: bool = False
    gain_measure_cap: float = 12000.0


# [section] -> the RunConfig fields its keys set
SECTIONS = {
    "problem": ("kind", "nelx", "nely", "m", "vbar", "seed", "jbar"),
    "solver": ("pipeline",),
    "optimizer": ("max_iters", "tol"),
    "output": ("output_dir",),
    "gain": ("gain_n", "gain_m_min", "gain_m_max", "gain_m_count",
             "gain_measure", "gain_measure_cap"),
}
_FIELDS = {(section, name.removeprefix(section + "_")): name
           for section, names in SECTIONS.items() for name in names}


def _parse_value(default, text: str):
    """``text`` read as the type of ``default``: a bool, a float list
    ``a,b,c``, a matrix ``a,b;c,d`` (rows split by semicolons), or a
    scalar."""
    if isinstance(default, bool):
        word = text.lower()
        if word not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError(
                f"expected 1/true/yes or 0/false/no, got {text!r}")
        return word in ("1", "true", "yes")
    if not isinstance(default, tuple):
        return type(default)(text)
    matrix = isinstance(default[0], tuple)
    rows = [tuple(float(v) for v in chunk.split(",") if v.strip())
            for chunk in text.split(";")]
    rows = tuple(row for row in rows if row)
    if not rows or len({len(r) for r in rows}) > 1 \
            or len(rows) > 1 and not matrix:
        raise ValueError(f"malformed {'matrix' if matrix else 'list'} "
                         f"literal {text!r}")
    return rows if matrix else rows[0]


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
        if section is None:
            raise ConfigError(f"line {lineno}: key {key} is outside any "
                              f"[section]")
        if (section, key) not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key [{section}] {key}")
        name = _FIELDS[section, key]
        try:
            setattr(cfg, name, _parse_value(getattr(cfg, name), value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
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
    if not 1 <= cfg.gain_m_min <= cfg.gain_m_max or cfg.gain_m_count < 0:
        raise ConfigError("[gain] needs 1 <= m_min <= m_max and m_count >= 0")


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def build_problem(cfg: RunConfig):
    if cfg.kind == "problem1":
        return build_problem1(cfg.nelx, cfg.nely, cfg.m, cfg.vbar, cfg.seed)
    return build_problem2(cfg.nelx, cfg.nely, len(cfg.jbar),
                          np.asarray(cfg.jbar))


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
    """Wall time and MMA dual health per iteration (not deterministic)."""
    with open(path, "w") as fh:
        fh.write("iteration\tseconds\tdual_sweeps\tdual_newton"
                 "\tdual_residual\n")
        for r in history:
            fh.write(f"{r.iteration}\t{r.seconds:.6f}\t{r.dual_sweeps}"
                     f"\t{r.dual_newton}\t{r.dual_residual:.3e}\n")


def write_density(stem, problem, x_filtered):
    """The design as ``stem.csv`` and as the ASCII PGM ``stem.pgm``, grid
    rows by grid columns. In the PGM 255 = full material: the conduction
    problem renders conductive material white, the mechanism problem
    renders solid material black."""
    grid = problem.grid
    img = x_filtered.reshape(grid.nelx, grid.nely).T  # rows top to bottom
    with open(stem + ".csv", "w") as fh:
        for row in img:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    if problem.kind == "problem2":
        img = 1.0 - img
    pixels = np.clip(np.round(255 * img), 0, 255).astype(int)
    lines = ["P2", f"{grid.nelx} {grid.nely}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    with open(stem + ".pgm", "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(cfg: RunConfig) -> int:
    problem = build_problem(cfg)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
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
        write_density(os.path.join(out, f"density_{pipe}"), problem,
                      problem.design(res.x).filtered)
    wall = time.perf_counter() - t0

    summary = [("kind", cfg.kind), ("nelx", cfg.nelx), ("nely", cfg.nely),
               ("pipeline", cfg.pipeline), ("seed", cfg.seed),
               ("wall_seconds", f"{wall:.3f}")]
    for pipe, res in results.items():
        # the last history record describes the design before the last update
        final = evaluate(problem, res.x, pipeline=pipe, want_grads=False)
        summary += [(f"{pipe}_iterations", len(res.history)),
                    (f"{pipe}_objective", _fmt(final.objective)),
                    (f"{pipe}_max_constraint", _fmt(max(final.constraints)))]
    if len(pipelines) == 2:
        pair = zip(results["elementary"].history,
                   results["condensed"].history)
        drift = max((abs(a.objective - b.objective)
                     / max(abs(a.objective), 1e-30) for a, b in pair),
                    default=0.0)
        summary.append(("pipeline_objective_drift", _fmt(drift)))
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in summary)
    print(f"run complete; artifacts in {out}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
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
    """One row per method and (n, m) of the sweep: the predicted gain and,
    for the direct method when measured, the wall-clock one."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    gain = gain_problem1 if cfg.kind == "problem1" else gain_problem2
    ms = np.logspace(np.log10(cfg.gain_m_min), np.log10(cfg.gain_m_max),
                     cfg.gain_m_count)
    lines = ["n,m,model,xi_beta,xi_t\n"]
    for n in cfg.gain_n:
        for m in ms:
            if cfg.kind == "problem2":
                m = max(2 * round(m / 2), 2)   # even, at least 2
            if m >= n:
                continue
            xi_t = ""
            if cfg.gain_measure and n <= cfg.gain_measure_cap \
                    and cfg.kind == "problem1" and 2 <= m < n / 4:
                side = max(2, int(round(np.sqrt(n))) - 1)
                prob = build_problem1(side, side, int(round(m)), vbar=0.4,
                                      seed=cfg.seed)
                xi_t = _fmt(measure_runtime_gain(prob, repeats=2).xi_measured)
            lines += [f"{_fmt(n)},{_fmt(m)},{method},"
                      f"{_fmt(gain(FlopModel(method), n, m))},"
                      f"{xi_t if method == 'direct' else ''}\n"
                      for method in METHODS]
    path = os.path.join(cfg.output_dir, "gain.csv")
    with open(path, "w") as fh:
        fh.writelines(lines)
    print(f"gain table with {len(lines) - 1} rows written to {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mptop",
        description="2D topology optimization with static condensation")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"run": (cmd_run, "run an optimization"),
                "verify": (cmd_verify, "finite-difference gradient check"),
                "gain": (cmd_gain, "predicted/measured gain tables")}
    for name, (_, help_text) in commands.items():
        sub.add_parser(name, help=help_text).add_argument(
            "config", help="path to the config file")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return commands[args.command][0](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
