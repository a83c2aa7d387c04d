"""Span recording around the wskg layer functions, from outside the package.

``Tracer.install()`` replaces each function in ``TARGETS`` by a wrapper that
records one span per call: id, name, start, end, parent id and thread id.
Module-level functions are replaced under every name that any loaded
``wskg`` module binds to them (modules import them with ``from .x import y``,
and ``cli`` binds ``sweep`` as ``run_sweep``), so the wrapper sits where each
caller looks the name up. Classmethods are replaced on their class.
``Tracer.uninstall()`` puts every original back.

Spans are kept in memory; ``layer_totals`` reduces them to per-function call
counts and self time (a span's duration minus the part of it that its child
spans cover).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Dict, List, Tuple

#: (module, qualified name) of every wrapped function, grouped by module.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "run"),
    ("injection", "simulate_two_look"),
    ("injection", "mi_from_two_look"),
    ("injection", "leakage_bound"),
    ("injection", "TwoLookBatch.concat"),
    ("randomization", "randomize_trials"),
    ("randomization", "mi_from_randomized"),
    ("randomization", "verify_randomization"),
    ("randomization", "leakage_after_randomization"),
    ("randomization", "RandomizedBatch.concat"),
    ("stochastic", "ks_test_normal"),
    ("stochastic", "gaussian_mi_from_cov"),
    ("rates", "rate_array"),
    ("rates", "sum_rate"),
    ("params", "PowerAllocation.uniform"),
    ("params", "PowerAllocation.silent"),
    ("game", "stackelberg_fixed"),
    ("game", "stackelberg_strategic"),
    ("game", "oracle_jammer_br"),
    ("game", "oracle_stackelberg"),
    ("metrics", "sweep"),
    ("metrics", "strategic_threshold_gain"),
)

LAYER_NAMES = tuple(f"{module}.{qualname}" for module, qualname in TARGETS)

_MARK = "__perfbench_span__"

#: One recorded call: (id, name, start, end, parent id or None, thread id).
Span = Tuple[int, str, float, float, object, int]


class Tracer:
    """Installs the wrappers and collects the spans of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count()
        self._stacks: Dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._patches: list = []

    def _wrap(self, func, name: str):
        spans, ids, stacks, main = self.spans, self._ids, self._stacks, self._main

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # A worker-pool thread: the caller is whatever span the main
                # thread has open (the CLI shards trials over threads).
                main_stack = stacks.get(main)
                parent = main_stack[-1] if main_stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, name, start, end, parent, tid))

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            module = importlib.import_module(f"wskg.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(attr)
                if not isinstance(raw, classmethod):
                    self.missing.append(name)
                    continue
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
                continue
            func = getattr(module, qualname, None)
            if not callable(func):
                self.missing.append(name)
                continue
            wrapper = self._wrap(func, name)
            for mod in _wskg_modules():
                for key, value in list(vars(mod).items()):
                    if value is func:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()


def _wskg_modules() -> list:
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "wskg" or key.startswith("wskg."))
    ]


def installed_wrappers() -> List[str]:
    """Names still bound to a span wrapper anywhere in the loaded package."""
    found = []
    for mod in _wskg_modules():
        for key, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                for attr, raw in vars(value).items():
                    if getattr(getattr(raw, "__func__", None), _MARK, False):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[Span]) -> Dict[object, float]:
    """Self time of every span, keyed by span id."""
    children: Dict[object, list] = {}
    for span_id, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(start, end, children.get(span_id, []))
        for span_id, _, start, end, _, _ in spans
    }


def layer_totals(spans: List[Span]) -> Dict[str, Tuple[int, float]]:
    """Per wrapped function: (calls, summed self time in seconds)."""
    own = self_times(spans)
    totals = {name: [0, 0.0] for name in LAYER_NAMES}
    for span in spans:
        entry = totals.setdefault(span[1], [0, 0.0])
        entry[0] += 1
        entry[1] += own[span[0]]
    return {name: (calls, secs) for name, (calls, secs) in totals.items()}
