"""In-memory spans recorded around calls into the package's functions.

The benchmark never edits the package.  It replaces a public function or
method with a wrapper that records a span (name, start, end, parent) and
then calls the original.  A function is replaced in every loaded module that
holds a reference to it, so ``from .lmdh import select_slate`` in another
module is caught too.  Self time, per-call percentiles and totals are
derived from the spans after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "dispersion_bandit"


class Recorder:
    """Collects spans; each is ``[name, start_s, end_s, parent_index]``."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def resolve(module: str, path: str):
    """(owner, attribute name, current value) for ``module:path``, or None."""
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def replace(module: str, path: str, make_wrapper) -> bool:
    """Swap ``module:path`` for ``make_wrapper(current)``.

    A method is replaced on its class.  A module-level function is replaced
    in every loaded package module that holds the same object.  Returns
    False when the target does not exist.
    """
    found = resolve(module, path)
    if found is None:
        return False
    owner, attr, current = found
    wrapper = make_wrapper(current)
    if "." in path:
        setattr(owner, attr, wrapper)
        return True
    for name, mod in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for key, value in list(vars(mod).items()):
                if value is current:
                    setattr(mod, key, wrapper)
    return True


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(start, end, children.get(i, ()))
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_summary(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s, ms_p50 and ms_p99."""
    durations = defaultdict(list)
    selfs = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        durations[name].append(end - start)
        selfs[name] += own
    summary = {}
    for name, values in durations.items():
        ms = np.asarray(values) * 1e3
        summary[name] = {
            "calls": len(values),
            "total_s": float(np.sum(values)),
            "self_s": selfs[name],
            "ms_p50": float(np.percentile(ms, 50)),
            "ms_p99": float(np.percentile(ms, 99)),
        }
    return summary
