"""Layer spans recorded from outside the library.

The tracer wraps the public functions each mptop module exposes, under the
names their callers bind, so no library code changes. A patch point that no
longer exists (a function folded away by a refactor) is skipped: only the
spans and metrics it fed are dropped, and the worker reports a note.
"""
from __future__ import annotations

import importlib
import inspect
import time

BOTH = ("condensed", "elementary")

# span name, module, attribute (``Class.method`` for methods), pipelines
# whose metrics this patch point feeds
PATCH_POINTS = (
    ("evaluate", "mptop.optimizer", "evaluate", BOTH),
    ("mma", "mptop.optimizer", "MMA.step", BOTH),
    ("design", "mptop.problems", "DesignField", BOTH),
    ("assemble", "mptop.problems", "assemble", BOTH),
    ("condense", "mptop.problems", "condense", ("condensed",)),
    ("solve", "mptop.problems", "solve_condensed", ("condensed",)),
    ("solve", "mptop.problems", "solve_elementary", ("elementary",)),
    ("gradient", "mptop.problems", "sens_condensed_state", ("condensed",)),
    ("gradient", "mptop.problems", "sens_elementary", ("elementary",)),
    ("contract", "mptop.sensitivity", "contract_dk_raw", BOTH),
    ("filter_chain", "mptop.fem", "Filter.chain", BOTH),
    ("extract", "mptop.condensation", "extract", ("condensed",)),
    ("extract", "mptop.analysis", "extract", ("elementary",)),
    ("factorize", "mptop.condensation", "factorize", ("condensed",)),
    ("factorize", "mptop.analysis", "factorize", ("elementary",)),
)


def _contract_cols(args):
    left = args.get("left")
    if left is None:
        return None
    shape = getattr(left, "shape", ())
    return 1 if len(shape) < 2 else shape[1]


def _band_bytes(args):
    """Computed banded-Cholesky storage of one factorized block."""
    K = args.get("K")
    if K is None:
        return None
    return (K.bandwidth + 1) * K.n * 8


# per-span counters read from the call's arguments
COUNTERS = {"contract": ("contract_cols", _contract_cols),
            "factorize": ("band_bytes", _band_bytes)}


def _resolve(module_name, attr):
    """(owner, name, original) of a patch point; raises if it is gone."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


class Tracer:
    """Context manager that installs the wrappers for one pipeline and keeps
    every span in memory as ``[name, parent index, start, end]``."""

    def __init__(self, pipeline: str):
        self.pipeline = pipeline
        self.spans = []
        self.counters = {}
        self.installed = set()
        self.missing = []
        self._stack = []
        self._undo = []

    def __enter__(self):
        for span, module_name, attr, pipes in PATCH_POINTS:
            if self.pipeline not in pipes:
                continue
            try:
                owner, name, original = _resolve(module_name, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append((span, f"{module_name}.{attr}"))
                continue
            setattr(owner, name, self._wrap(span, original))
            self._undo.append((owner, name, original))
            self.installed.add(span)
        self.counters = {COUNTERS[s][0]: 0 for s in self.installed
                         if s in COUNTERS}
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        return False

    def _wrap(self, span, original):
        counter = COUNTERS.get(span)
        sig = inspect.signature(original) if counter else None
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs).arguments
                except TypeError:
                    bound = {}
                value = counter[1](bound)
                if value is None:   # signature changed: drop the counter
                    self.counters.pop(counter[0], None)
                elif counter[0] in self.counters:
                    self.counters[counter[0]] += value
            rec = [span, stack[-1] if stack else None, time.perf_counter(), None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return original(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def summary(self, iterations: int) -> dict:
        """Per-iteration span totals (ms), per-span maxima and counters."""
        spans = {name: {"ms": 0.0, "max_ms": 0.0, "calls": 0.0}
                 for name in self.installed}
        top = 0.0
        for name, parent, t0, t1 in self.spans:
            ms = 1e3 * (t1 - t0)
            if parent is None:
                top += ms
            if name in spans:
                agg = spans[name]
                agg["ms"] += ms / iterations
                agg["max_ms"] = max(agg["max_ms"], ms)
                agg["calls"] += 1.0 / iterations
        return {"spans": spans, "top_ms": top / iterations,
                "counters": {k: v / iterations
                             for k, v in self.counters.items()}}
