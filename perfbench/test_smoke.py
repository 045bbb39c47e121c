"""Smoke test of the benchmark at tiny grids.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload's code path, traced and untraced, checks that the
metric names match BENCHMARK.json, that a tampered gradient counts as a
failure, that a vanished patch point drops only its own metrics, and that
the command fails without a result outside a full checkout.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import mptop  # noqa: E402
from perfbench import harness, trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY = {
    "p1-ports": dataclasses.replace(WORKLOADS["p1-ports"], nelx=8, nely=8,
                                    ports=4),
    "p2-mechanism": dataclasses.replace(WORKLOADS["p2-mechanism"], nelx=6,
                                        nely=6, horizon=3),
    "p2-slender": dataclasses.replace(WORKLOADS["p2-slender"], nelx=3,
                                      nely=24, horizon=3),
}


def _run(name, trace_on=True, runner=harness.inprocess_runner):
    return harness.run_workload(TINY[name], seed=3, seconds=0.01,
                                trace=trace_on, runner=runner)


def test_workloads_cover_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_metric(name):
    report = _run(name)
    assert report["failed"] == 0, report["checks"]
    assert all(ok for _, ok, _ in report["checks"])
    assert set(report["end_to_end"]) == END_TO_END
    assert set(report["per_layer"]) == PER_LAYER
    assert report["notes"] == []
    layer = report["per_layer"]
    assert layer["sensitivity.large_adjoint_solves.condensed"][0] == 0
    for pipe in ("condensed", "elementary"):
        assert 0 < layer[f"trace.coverage_pct.{pipe}"][0] <= 100


def test_spawned_run_matches_in_process_history():
    spawned = _run("p2-mechanism", trace_on=False,
                   runner=harness.spawn_runner)
    assert spawned["failed"] == 0, spawned["checks"]
    assert set(spawned["end_to_end"]) == END_TO_END
    assert spawned["per_layer"] == {}
    assert spawned["source"] == str(ROOT / "src" / "mptop")
    assert spawned["hashes"] == _run("p2-mechanism")["hashes"]


def test_tampered_gradient_is_counted_as_failure(monkeypatch):
    honest = mptop.problems.sens_elementary

    def tampered(*args, **kwargs):
        return honest(*args, **kwargs) * (1.0 + 1e-6)

    monkeypatch.setattr(mptop.problems, "sens_elementary", tampered)
    report = _run("p1-ports", trace_on=False)
    failed = {name for name, ok, _ in report["checks"] if not ok}
    assert "condensed = elementary at x0" in failed
    assert report["failed"] >= 1


def test_vanished_patch_point_drops_only_its_metrics(monkeypatch):
    points = tuple(
        (span, mod, "folded_away" if (mod, attr) == ("mptop.analysis",
                                                     "factorize") else attr,
         pipes)
        for span, mod, attr, pipes in trace.PATCH_POINTS)
    monkeypatch.setattr(trace, "PATCH_POINTS", points)
    report = _run("p1-ports")
    assert report["failed"] == 0
    assert set(report["per_layer"]) == PER_LAYER - {
        "sparse.band_mb.elementary"}
    assert any("mptop.analysis.folded_away" in n for n in report["notes"])


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "p1-ports",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
