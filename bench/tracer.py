"""Call spans for gssc functions, recorded from outside the package.

`Tracer.install()` replaces every public function of the traced gssc modules,
in every `gssc` module namespace that binds it, with a wrapper that records a
span: name, start, end, thread and parent.  Internal calls are therefore seen
too (`homology_Z` calling `smith_normal_form`, `krr_grid` calling
`krr_fit_eval`).  `uninstall()` binds the original function objects again.
Nothing under `src/gssc` is edited.

Parents come from a per-thread stack.  A span that starts on a thread with no
open span (a thread-pool worker) takes as parent the innermost span open on
the thread that installed the tracer, so the worker's calls count as children
of the `run_experiment` call that is waiting for them.

Generator functions (`gf2.gray_iter`) get no span, because their work is
interleaved with the caller's; their calls and yielded steps are counted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict, namedtuple

TRACED_MODULES = ("complexes", "homology", "hodge", "learn", "baselines",
                  "gf2", "experiment")

Span = namedtuple("Span", "id name start end thread parent")


def traced_functions():
    """{qualified name: function} for the public functions of TRACED_MODULES."""
    out = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"gssc.{short}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                out[f"{short}.{name}"] = obj
    return out


def gssc_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gssc" or name.startswith("gssc."))]


class _CountingWarnings:
    """Stands in for a module's `warnings` binding and counts categories."""

    def __init__(self, real, counters, prefix, lock):
        self._real = real
        self._counters = counters
        self._prefix = prefix
        self._lock = lock

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        name = (category or UserWarning).__name__
        with self._lock:
            self._counters[f"{self._prefix}.warnings.{name}"] += 1
        return self._real.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


class Tracer:
    """Spans and counters of one traced stretch of a run, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack = None
        self._patched = []

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        root = self._root_stack
        if root is None or root is stack:
            return None
        try:
            return root[-1]
        except IndexError:
            return None

    def _add(self, key, n=1):
        with self._lock:
            self.counters[key] += n

    def wrap(self, name, fn):
        """A recording stand-in for `fn`, reported under `name`."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                self._add(f"{name}.calls")
                steps = 0
                try:
                    for item in fn(*args, **kwargs):
                        steps += 1
                        yield item
                finally:
                    self._add(f"{name}.steps", steps)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._add(f"{name}.raised")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end,
                                       threading.get_ident(), parent))
            if name == "hodge.spectral_bases" and result.truncated:
                self._add(f"{name}.truncated")
            return result
        return wrapper

    # -- installing ------------------------------------------------------------

    def install(self):
        """Rebind every traced function (and `warnings`) in every gssc namespace."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._root_stack = self._stack()
        originals = traced_functions()
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in originals.items()}
        for module in gssc_namespaces():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for short in TRACED_MODULES:
            module = sys.modules[f"gssc.{short}"]
            real = vars(module).get("warnings")
            if real is not None and inspect.ismodule(real):
                self._patched.append((module, "warnings", real))
                module.warnings = _CountingWarnings(real, self.counters, short,
                                                    self._lock)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- analysis ------------------------------------------------------------------

def union_length(intervals, lo=float("-inf"), hi=float("inf")):
    """Total length of the union of (start, end) intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """{span id: duration minus the union of its child spans}."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - union_length(children[span.id], span.start, span.end)
            for span in spans}


def nearest_rank(sorted_values, q):
    """The q-quantile (0 < q <= 1) by the nearest-rank rule."""
    if not sorted_values:
        return 0.0
    index = math.ceil(q * len(sorted_values) - 1e-9) - 1
    return sorted_values[min(max(index, 0), len(sorted_values) - 1)]


def function_stats(spans, counters):
    """{qualified name: {calls, s, durations_ms (sorted)}} for every name seen."""
    selfs = self_times(spans)
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "durations_ms": []})
    for span in spans:
        entry = stats[span.name]
        entry["calls"] += 1
        entry["s"] += selfs[span.id]
        entry["durations_ms"].append((span.end - span.start) * 1e3)
    for key, value in counters.items():
        name, _, stat = key.rpartition(".")
        if stat == "calls":
            stats[name]["calls"] += value
    for entry in stats.values():
        entry["durations_ms"].sort()
    return dict(stats)


def coverage(spans, start, end):
    """Share of [start, end] inside at least one span, on any thread."""
    if end <= start:
        return 0.0
    return union_length([(s.start, s.end) for s in spans], start, end) / (end - start)


def busy_fraction(spans, jobs, wall):
    """Self time summed over all spans and threads, over jobs x wall."""
    if wall <= 0 or jobs < 1:
        return 0.0
    return sum(self_times(spans).values()) / (jobs * wall)
