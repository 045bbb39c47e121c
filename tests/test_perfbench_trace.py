"""The benchmark's tracer still finds every function it times.

``perfbench/trace.py`` wraps library functions by module and name; one that
a refactor folds away is skipped with only a note in a benchmark run, and
the metrics it fed vanish. This reads the tracer from its file, without
importing the benchmark package, and fails instead.
"""
import importlib.util
from pathlib import Path

import pytest

from mptop import build_problem1, optimize

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _trace_module():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pipeline", ["condensed", "elementary"])
def test_every_patch_point_resolves_and_fires(pipeline):
    trace = _trace_module()
    p = build_problem1(8, 8, m=4, vbar=0.3, seed=1)
    with trace.Tracer(pipeline) as tracer:
        optimize(p, pipeline=pipeline, max_iters=1, tol=0.0)
    assert tracer.missing == []
    expected = {span for span, _, _, pipes in trace.PATCH_POINTS
                if pipeline in pipes}
    assert tracer.installed == expected
    assert {span for span, *_ in tracer.spans} == expected
