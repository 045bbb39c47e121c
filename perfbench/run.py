"""Benchmark command: one run of one workload against this checkout's mptop.

    python3 perfbench/run.py --workload p1-ports --seed 1 --seconds 16 --trace 0

Prints the machine, the checks, the iteration-history hashes and every
metric by name with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``). Exits non-zero
without a result when the checkout has no ``src/mptop``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "mptop" / "__init__.py").is_file():
        print(f"no mptop sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import machine, run_workload
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    if Path(report["source"]) != ROOT / "src" / "mptop":
        print(f"benchmarked {report['source']}, not this checkout",
              file=sys.stderr)
        return 2
    for line in format_report(report, machine()):
        print(line)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def format_report(report: dict, mach: dict) -> list:
    lines = ["machine: " + ", ".join(
        f"{k}={'; '.join(v) if isinstance(v, list) else v}"
        for k, v in mach.items())]
    lines.append(f"workload {report['workload']} seed {report['seed']}, "
                 f"horizon {report['horizon']} iterations, "
                 f"mptop from {report['source']}")
    for name, ok, detail in report["checks"]:
        lines.append(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for err in report["errors"]:
        lines.append("error: " + err.rstrip().replace("\n", "\n  "))
    for note in report["notes"]:
        lines.append("note: " + note)
    for pipe, passes in report["pass_ms"].items():
        lines.append(f"passes.{pipe} (ms per iteration): " + " ".join(
            f"{ms:.1f}{'t' if kind == 'traced' else ''}" for kind, ms in passes))
    for pipe, hashes in report["hashes"].items():
        lines.append(f"history_hash.{pipe} = {' '.join(hashes)}")
    ratio = report["failed"] / report["attempted"]
    lines.append(f"failed_ratio = {report['failed']}/{report['attempted']} "
                 f"= {ratio:g} 1")
    for group in ("end_to_end", "per_layer"):
        for name, (value, unit) in report[group].items():
            lines.append(f"{name} = {value:.6g} {unit}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
