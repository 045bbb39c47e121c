"""Benchmark of the mptop library: per-iteration time, set-up time, peak
memory and layer spans of both response pipelines on fixed workloads.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/NOTES.md``.
"""
