"""The benchmark's workloads and the job a worker process runs.

This module imports only the standard library: worker processes unpickle
these classes before the timed set-up starts, so importing numpy here would
hide its import cost from ``setup_s``.
"""
from __future__ import annotations

from dataclasses import dataclass

PIPELINES = ("condensed", "elementary")
JBAR = ((0.5, 2.0), (1.0, -1.0))


@dataclass(frozen=True)
class Workload:
    """One benchmark problem and the number of design iterations timed."""

    name: str
    kind: str          # 'problem1' | 'problem2'
    nelx: int
    nely: int
    horizon: int
    ports: int = 32    # problem1 only

    def build(self, seed: int):
        """The problem, through the public API; ``seed`` places p1's ports."""
        import mptop
        if self.kind == "problem1":
            return mptop.build_problem1(self.nelx, self.nely, m=self.ports,
                                        vbar=0.3, seed=seed)
        return mptop.build_problem2(self.nelx, self.nely, 2, JBAR)


# why each workload was chosen: BENCHMARK.json and NOTES.md
WORKLOADS = {w.name: w for w in (
    Workload("p1-ports", "problem1", 99, 99, horizon=2),
    # the horizon ends well before iteration ~45, where a 1e-13 change of
    # x0 starts to move the design and with it the MMA cost
    Workload("p2-mechanism", "problem2", 60, 60, horizon=30),
    Workload("p2-slender", "problem2", 20, 400, horizon=4),
)}


@dataclass(frozen=True)
class Job:
    """What one worker process does: set up, then (unless ``setup_only``)
    time passes of the horizon for ``budget_s`` and evaluate at ``x_check``."""

    workload: Workload
    seed: int
    pipeline: str
    budget_s: float = 0.0
    trace: bool = False
    setup_only: bool = False
    x_check: tuple | None = None
