"""The traced run's layer timers, installed from outside the program.

A :class:`Tracer` wraps public functions and methods of the ``repro``
modules and patches each wrapper in wherever the original is looked up:
on the class for methods, and in every loaded ``repro`` module whose
globals hold the original function (``from x import f`` copies the name).
Each call records one span ``(name, start, end, parent, op)`` in memory;
self time is a span's duration minus its direct child spans.  Functions
called far too often to time (``psi_expectation``) are only counted.

Nothing here changes what the program computes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Iterable, Iterator, Mapping

#: Layer timers: span name -> (module, attribute path).  ``Class.method``
#: paths are patched on the class; plain functions everywhere they are
#: bound.  The names are the ones the per-layer metrics refer to.
TIMED: dict[str, tuple[str, str]] = {
    # repro.graphs -- G^k balls and power graphs
    "graphs.bounded_bfs": ("repro.graphs.power", "bounded_bfs"),
    "graphs.distance_neighborhood": ("repro.graphs.power",
                                     "distance_neighborhood"),
    "graphs.power_adjacency": ("repro.graphs.power", "power_adjacency"),
    "graphs.power_graph": ("repro.graphs.power", "power_graph"),
    "graphs.induced_power_subgraph": ("repro.graphs.power",
                                      "induced_power_subgraph"),
    # repro.core -- derandomized sparsification and communication tools
    "core.power_graph_sparsification": ("repro.core.power_sparsify",
                                        "power_graph_sparsification"),
    "core.det_sparsification": ("repro.core.detsparsify",
                                "det_sparsification"),
    "core.derandomize_stage_per_variable": ("repro.core.derandomize",
                                            "derandomize_stage_per_variable"),
    "core.learn_distance_ids": ("repro.core.comm_tools", "learn_distance_ids"),
    "core.simulate_on_power_subgraph": ("repro.core.comm_tools",
                                        "simulate_on_power_subgraph"),
    # repro.mis / repro.ruling -- MIS and ruling-set phases
    "mis.power_graph_mis": ("repro.mis.power_mis", "power_graph_mis"),
    "mis.shattering_mis": ("repro.mis.shattering", "shattering_mis"),
    "mis.deterministic_mis_of_virtual_graph": (
        "repro.ruling.det_ruling_set", "deterministic_mis_of_virtual_graph"),
    "mis.deterministic_power_ruling_set": (
        "repro.ruling.det_ruling_set", "deterministic_power_ruling_set"),
    # repro.congest -- topology/CSR, engines, replica batches
    "congest.CongestNetwork": ("repro.congest.network",
                               "CongestNetwork.__init__"),
    "congest.TopologySnapshot": ("repro.congest.topology",
                                 "TopologySnapshot.__init__"),
    "congest.numpy_arrays": ("repro.congest.topology",
                             "TopologySnapshot.numpy_arrays"),
    "congest.Simulator.run": ("repro.congest.simulator", "Simulator.run"),
    "congest.simulate_replicas": ("repro.congest.batch", "simulate_replicas"),
    # repro.api -- plan and fingerprint, certify, report encoding
    "api.plan": ("repro.api.registry", "SolverRegistry.plan"),
    "api.certify": ("repro.api.problems", "Problem.certify"),
    "api.report_to_json": ("repro.api.serialize", "report_to_json"),
    "api.report_from_json": ("repro.api.serialize", "report_from_json"),
    # repro.service -- cache tiers and the sharded store
    "service.cache_lookup": ("repro.service.cache", "SolveCache.lookup"),
    "service.cache_put": ("repro.service.cache", "SolveCache.put"),
    "service.store_get": ("repro.service.shardstore", "ShardStore.get"),
    "service.store_put": ("repro.service.shardstore", "ShardStore.put"),
}

#: Counted, not timed: one wrapper call per event is already most of the
#: cost of the event itself.
COUNTED: dict[str, tuple[str, str]] = {
    "core.psi_expectation": ("repro.core.events",
                             "SparsificationStageEvents.psi_expectation"),
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self) -> None:
        #: One row per span: [name, start, end, parent index, op id].
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = {}
        self.op_id: int | None = None
        #: Spans before this index, and counts in ``_counts_at_mark``,
        #: belong to set-up and are left out of the layer table.
        self._first = 0
        self._counts_at_mark: dict[str, int] = {}
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (the benchmark's op itself)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        stack = self._stack()
        row = [name, time.perf_counter(), None,
               stack[-1] if stack else None, self.op_id]
        self.spans.append(row)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def mark(self) -> None:
        """Start the layer table here: what ran before is set-up."""
        self._first = len(self.spans)
        self._counts_at_mark = dict(self.counts)

    def timed(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- patching
    def install(self) -> "Tracer":
        """Patch every timer of :data:`TIMED` and :data:`COUNTED` in."""
        for table, make in ((TIMED, self.timed), (COUNTED, self.counted)):
            for name, (module_name, path) in table.items():
                self._patch(module_name, path, name, make)
        return self

    def _patch(self, module_name: str, path: str, name: str,
               make: Callable[[str, Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".", 1)
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make(name, original))
            return
        original = getattr(module, path)
        wrapper = make(name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ----------------------------------------------------------- output
    def durations(self) -> list[tuple[str, float, float, int | None]]:
        """``(name, duration, self time, op)`` per closed span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if end is not None and parent is not None:
                child_time[parent] += end - start
        return [(name, end - start, end - start - child_time[index], op)
                for index, (name, start, end, parent, op)
                in enumerate(self.spans)
                if end is not None and index >= self._first]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (outermost calls only) and
        self seconds, over the spans since :meth:`mark`."""
        table: dict[str, dict[str, float]] = {}
        for (name, duration, self_s, _), outer in zip(
                self.durations(), self._outermost_flags()):
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            if outer:
                row["busy_s"] += duration
        for name, count in self.counts.items():
            table[name] = {"calls": count - self._counts_at_mark.get(name, 0),
                           "busy_s": 0.0, "self_s": 0.0}
        return table

    def _outermost_flags(self) -> list[bool]:
        """Whether each closed span has no ancestor of the same name."""
        flags = []
        for row in self.spans[self._first:]:
            if row[2] is None:
                continue
            parent, outer = row[3], True
            while parent is not None:
                if self.spans[parent][0] == row[0]:
                    outer = False
                    break
                parent = self.spans[parent][3]
            flags.append(outer)
        return flags

    def coverage(self) -> tuple[float, float]:
        """``(op wall seconds, seconds covered by direct layer children)``.

        Children of one op span are sequential on the op's thread, so
        their durations add up without overlap.
        """
        wall = covered = 0.0
        op_rows = {index for index, row in enumerate(self.spans)
                   if row[0] == "op" and row[2] is not None}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if end is None:
                continue
            if index in op_rows:
                wall += end - start
            elif parent in op_rows:
                covered += end - start
        return wall, covered

    def dump(self, path: str) -> None:
        """Write every span and count as JSON (one object)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, handle)


def per_op(table: Mapping[str, Mapping[str, float]], names: Iterable[str],
           field: str, ops: int, *, scale: float = 1.0) -> float:
    """Sum ``field`` over ``names`` and divide by ``ops`` (times ``scale``)."""
    total = sum(table.get(name, {}).get(field, 0.0) for name in names)
    return scale * total / ops if ops else 0.0
