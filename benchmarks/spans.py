"""Span recorder that times calls into mmsbkit from outside the package.

The recorder replaces the module-level names that callers resolve at call
time (``mmsbkit.cli.read_edge_list``, ``mmsbkit.sweep.leading_eigenpairs``,
...) with timing wrappers and puts the originals back afterwards, so no
file of the package changes. ``cli._METHOD_RUNNERS`` binds ``srsc`` and
``crsc`` when ``cli`` is imported, so the pipelines are traced one level
down, at the names ``recovery._run_empirical`` resolves.

Spans and counts are kept in memory; ``write_jsonl`` writes them out once
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: Names wrapped per module. Each is looked up in that module's globals by
#: the code that calls it, so replacing the attribute reaches every call.
TARGETS = {
    "cli": (
        "read_edge_list",
        "write_edge_list",
        "write_memberships",
        "planted_memberships",
        "build_population_matrix",
        "sample_adjacency",
        "run_sweep",
    ),
    "recovery": (
        "regularized_laplacian",
        "leading_eigenpairs",
        "recover_from_basis",
        "sp_select",
        "svm_cone_select",
    ),
    "corners": ("one_class_svm",),
    "sweep": (
        "_run_trial",
        "planted_memberships",
        "build_population_matrix",
        "sample_adjacency",
        "regularized_laplacian",
        "leading_eigenpairs",
        "recover_from_basis",
        "mixed_hamming_error",
    ),
}

#: Work counted at a span boundary: span name -> (count name, extractor).
COUNTERS = {
    "model.sample_adjacency": ("model.edges", lambda args, result: result.edge_count()),
    "io_formats.read_edge_list": ("io_formats.read_edge_list.edges", lambda args, result: result.edge_count()),
    "io_formats.write_edge_list": ("io_formats.write_edge_list.edges", lambda args, result: args[0].edge_count()),
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float
    thread: int


def _span_name(fn, args, kwargs) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    if fn.__name__ == "recover_from_basis":
        method = kwargs["method"] if "method" in kwargs else args[2]
        name = f"{name}.{method}"
    return name


class Recorder:
    """Collects spans for the operation whose id is ``op``.

    Each thread keeps its own stack of open spans. A span opened on a pool
    thread with nothing open on that thread takes as parent the innermost
    span open on the thread that created the recorder, which is the caller
    waiting on the pool.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: list[tuple[int, str, int]] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1:] or [None])[0]
        span_id = next(self._ids)
        op = self.op
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, op, name, start, end, threading.get_ident()))
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts.append((op, counter[0], int(counter[1](args, result))))
        return result

    def _wrap(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(_span_name(fn, args, kwargs), fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"mmsbkit.{module_name}")
            for attr in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__) + "\n")

    def op_summary(self, op: int) -> dict[str, float]:
        """Per-layer totals for one operation: ``<span>.s`` self time,
        ``<span>.calls``, every counter, ``sweep.busy_s`` (time inside
        trials, summed over threads) and ``trace.spans``. The root span's
        self time is reported as ``other.s``."""
        spans = [s for s in self.spans if s.op == op]
        children = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            covered = _union_length(
                [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
            )
            key = "other" if s.parent is None else s.name
            out[f"{key}.s"] += (s.end - s.start) - covered
            out[f"{key}.calls"] += 1
            if s.name == "sweep._run_trial":
                out["sweep.busy_s"] += s.end - s.start
        for count_op, name, value in self.counts:
            if count_op == op:
                out[name] += value
        out["trace.spans"] = len(spans)
        return dict(out)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
