"""Spans around calls into qccsim's modules, recorded from the benchmark's files.

``install`` wraps every public function of each package module at each name
it is bound to in the package -- the name a caller looks up at call time --
so the package source stays untouched.  A span is ``[name, start_ns, end_ns,
parent, job, error]``: ``parent`` indexes the enclosing span (-1 at top
level) and ``error`` is 1 when an exception left the call.  Spans stay in
memory; the caller writes them out when the run ends.

A wrapper costs time of its own.  ``calibrate`` measures that cost and
``analyse`` subtracts it from every span's duration and self time.
"""

from __future__ import annotations

import sys
import time
from array import array
from types import FunctionType

LAYERS = ("state", "protocol", "optimize", "classical", "concentration", "cli")
NAME, START, END, PARENT, JOB, ERROR = range(6)


class Tracer:
    """Spans in flat arrays, so that recording creates no objects for the
    garbage collector to scan as the trace grows."""

    def __init__(self) -> None:
        self.job = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cols = [array("i"), array("q"), array("q"), array("i"), array("i"), array("b")]
        self._stack: list[int] = []

    @property
    def spans(self) -> list[list]:
        names, *rest = self._cols
        return [[self._names[n], *fields] for n, *fields in zip(names, *rest)]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a top-level span timed elsewhere."""
        for col, value in zip(self._cols, (self._name_id(name), start_ns, end_ns, -1, self.job, 0)):
            col.append(value)

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call; the body is inlined to keep its cost low."""
        name_id, stack, clock, tracer = self._name_id(name), self._stack, time.perf_counter_ns, self
        names, starts, ends, parents, jobs, errors = self._cols

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            errors.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
        return traced


def install(tracer: Tracer):
    """Wrap the public functions of every layer module; return a function that undoes it."""
    __import__("qccsim.cli")  # imports every layer module
    package = sys.modules["qccsim"]
    modules = {layer: sys.modules[f"qccsim.{layer}"] for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
    undo = []
    for namespace in (package, *modules.values()):
        for name, obj in list(vars(namespace).items()):
            if isinstance(obj, FunctionType) and obj in wrapped:
                setattr(namespace, name, wrapped[obj])
                undo.append((namespace, name, obj))

    def uninstall() -> None:
        for namespace, name, obj in undo:
            setattr(namespace, name, obj)
    return uninstall


def calibrate(repeats: int = 5, calls: int = 5000) -> tuple[float, float]:
    """Wrapper cost in ns: (inside the span's own interval, in total per call).

    Best of ``repeats`` loops, as noise only ever adds time.
    """
    def noop():
        return None

    plain, wrapped, inner = [], [], []
    for _ in range(repeats):
        tracer = Tracer()
        traced = tracer.wrap("noop", noop)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        plain.append((t1 - t0) / calls)
        wrapped.append((t2 - t1) / calls)
        inner.append(min(s[END] - s[START] for s in tracer.spans))
    return min(inner), min(wrapped) - min(plain)


def analyse(spans: list[list], cost_inner: float, cost_total: float) -> tuple[list[float], list[float]]:
    """Per-span duration and self time in ns, with the wrappers' own cost removed.

    A span's interval holds its own wrapper's inner cost plus the whole cost
    of every descendant's wrapper; self time is the duration minus the time
    its children cover.
    """
    n = len(spans)
    descendants = [0] * n
    children = [0] * n
    child_ns = [0] * n
    for i in range(n - 1, -1, -1):  # a child is always recorded after its parent
        parent = spans[i][PARENT]
        if parent >= 0:
            descendants[parent] += descendants[i] + 1
            children[parent] += 1
            child_ns[parent] += spans[i][END] - spans[i][START]
    duration, self_time = [], []
    for i, s in enumerate(spans):
        raw = s[END] - s[START]
        duration.append(raw - cost_inner - descendants[i] * cost_total)
        self_time.append(raw - child_ns[i] - cost_inner - children[i] * (cost_total - cost_inner))
    return duration, self_time
