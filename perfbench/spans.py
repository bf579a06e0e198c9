"""Observe layer functions from outside the program, then put them back.

Two recorders share one patching mechanism (:class:`Patches`):

* :class:`SpanRecorder` wraps each public layer function named in
  :data:`LAYER_FUNCTIONS` and records one span per call — name, start,
  end, parent span and root span (the request id: every span of one
  top-level request shares its root's id).  Spans stay in memory until
  the run ends; :func:`summarize` turns them into self time per function.
* :class:`RequestTimer` times the top-level request calls of the
  untraced run (``ServiceController.write/read``,
  ``ClusterService.write/read``) and nothing else.

Every function is patched at the place its caller looks it up:
``repro.experiments.fig10`` binds ``block_lifetime_study`` with
``from … import``, so that module attribute is patched next to the
definition; the service controller reaches ``drain_vector`` through the
``repro.service.kernels`` module attribute; methods are patched on the
class that defines them.  The wrappers only observe — arguments, return
values and exceptions pass through unchanged — and :meth:`Patches.restore`
checks that every original is back in place.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager

#: metric name -> ``(module, attribute)`` places to patch.  ``Class.method``
#: patches the method on its defining class; ``*.method`` patches it on
#: every concrete class of the module that defines it.  The workload entry
#: points (``run_campaign``, ``run_load``, ``run_cluster_bench``) are not
#: wrapped: their own time is the client loop and glue, which no layer
#: function accounts for.  ``experiments.run`` is a layer function and the
#: paper-rw entry point at once; see :data:`ENTRY_POINTS`.
LAYER_FUNCTIONS: dict[str, tuple[tuple[str, str], ...]] = {
    "experiments.run": (("repro.experiments", "run_experiment"),),
    "sim.block_lifetime_study": (
        ("repro.sim.block_sim", "block_lifetime_study"),
        ("repro.experiments.fig10", "block_lifetime_study"),
    ),
    "sim.checker.add_fault": (("repro.sim.checkers", "*.add_fault"),),
    "sim.simulate_pages": (("repro.sim.page_sim", "simulate_pages"),),
    "sim.kernel.block_dynamics": (("repro.sim.kernels", "block_dynamics"),),
    "pcm.lifetime.sample": (("repro.pcm.lifetime", "*.sample"),),
    "fleet.reduce_chunk": (("repro.fleet.campaign", "reduce_fleet_chunk"),),
    "fleet.merge": (("repro.fleet.aggregate", "SchemeAggregate.merge_state"),),
    "fleet.checkpoint": (("repro.fleet.campaign", "write_checkpoint"),),
    "service.write": (("repro.service.controller", "ServiceController.write"),),
    "service.read": (("repro.service.controller", "ServiceController.read"),),
    "service.flush": (("repro.service.controller", "ServiceController.flush"),),
    "service.drain_vector": (("repro.service.kernels", "drain_vector"),),
    "service.array_read": (("repro.service.array", "MemoryArray.read"),),
    "service.escalate": (("repro.service.array", "MemoryArray.write"),),
    "service.capacity_summary": (
        ("repro.service.array", "MemoryArray.capacity_summary"),
    ),
    "core.find_separating_slope": (
        ("repro.core.partition", "AegisPartition.find_separating_slope"),
    ),
    "cluster.write": (("repro.cluster.service", "ClusterService.write"),),
    "cluster.read": (("repro.cluster.service", "ClusterService.read"),),
    "cluster.maintenance": (("repro.cluster.service", "ClusterService.maintenance"),),
    "cluster.observe": (("repro.cluster.service", "ClusterService.observe"),),
    "cluster.migrate_key": (("repro.cluster.service", "ClusterService.migrate_key"),),
    "cluster.drain_array": (("repro.cluster.service", "ClusterService.drain_array"),),
    "obs.slo.poll": (("repro.obs.slo", "SLOEngine.poll"),),
    "obs.slo.active_actions": (("repro.obs.slo", "SLOEngine.active_actions"),),
    "obs.timeseries.sample": (("repro.obs.timeseries", "TimeSeriesRecorder.sample"),),
}

#: layer functions that are also a workload's entry point: their self time
#: is the workload's own glue, so it does not count as time under the layers
#: (``trace.coverage_frac``)
ENTRY_POINTS = frozenset({"experiments.run"})

#: per-call sizes recorded on a span: metric name -> ``size(args, result)``
SPAN_SIZES: dict[str, Callable[[tuple, object], int]] = {
    "service.drain_vector": lambda args, result: len(args[1]),  # rows drained
    "service.flush": lambda args, result: int(result),  # writes drained
}

#: request-level methods timed in the untraced run, per request API
REQUEST_METHODS: dict[str, tuple[tuple[str, str], ...]] = {
    "service": (
        ("repro.service.controller", "ServiceController.write"),
        ("repro.service.controller", "ServiceController.read"),
    ),
    "cluster": (
        ("repro.cluster.service", "ClusterService.write"),
        ("repro.cluster.service", "ClusterService.read"),
    ),
}

#: cluster control-plane calls the drive loop makes between requests; their
#: time is charged to the request that follows them
CARRY_METHODS: dict[str, tuple[tuple[str, str], ...]] = {
    "service": (),
    "cluster": (
        ("repro.cluster.service", "ClusterService.maintenance"),
        ("repro.cluster.service", "ClusterService.drain_array"),
    ),
}

# span record fields (a list per span, so the wrapper can fill it in place)
NAME, PARENT, ROOT, START, END, ERROR, SIZE = range(7)


def resolve(module_name: str, attribute: str) -> list[tuple[object, str]]:
    """The ``(owner, attribute)`` pairs one target names (see
    :data:`LAYER_FUNCTIONS`); raises when a target no longer exists, so a
    renamed layer function fails the benchmark instead of vanishing from
    the trace."""
    module = importlib.import_module(module_name)
    owner_name, _, method = attribute.rpartition(".")
    if not owner_name:
        if attribute not in vars(module):
            raise LookupError(f"{module_name}.{attribute} does not exist")
        return [(module, attribute)]
    if owner_name != "*":
        owner = getattr(module, owner_name)
        if method not in vars(owner):
            raise LookupError(f"{module_name}.{attribute} does not exist")
        return [(owner, method)]
    found = [
        (cls, method)
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and cls.__module__ == module_name
        and method in vars(cls)
        and not getattr(cls, "_is_protocol", False)
        and not getattr(vars(cls)[method], "__isabstractmethod__", False)
    ]
    if not found:
        raise LookupError(f"no class in {module_name} defines {method}")
    return found


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str, make: Callable) -> None:
        original = vars(owner)[attribute]
        setattr(owner, attribute, make(original))
        self._saved.append((owner, attribute, original))

    def restore(self) -> None:
        """Put every original back and check that it is there."""
        saved, self._saved = self._saved, []
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        for owner, attribute, original in saved:
            if vars(owner)[attribute] is not original:
                raise RuntimeError(f"{owner!r}.{attribute} was not restored")


class SpanRecorder:
    """In-memory spans around every function in :data:`LAYER_FUNCTIONS`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, name: str, function: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size = SPAN_SIZES.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, parent, spans[parent][ROOT] if stack else index, 0, 0, None, None]
            spans.append(record)
            stack.append(index)
            record[START] = clock()
            try:
                result = function(*args, **kwargs)
            except Exception as error:
                record[ERROR] = type(error).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if size is not None:
                record[SIZE] = size(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["SpanRecorder"]:
        """Wrap every layer function for the duration of the block, then
        restore every original."""
        try:
            for name, targets in LAYER_FUNCTIONS.items():
                for module_name, attribute in targets:
                    for owner, method in resolve(module_name, attribute):
                        self._patches.replace(
                            owner, method, lambda fn, name=name: self._wrap(name, fn)
                        )
            yield self
        finally:
            self._patches.restore()

    def write_jsonl(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, root, start, end, error, size) in enumerate(self.spans):
                record = {"id": index, "name": name, "parent": parent, "request": root,
                          "start_ns": start, "end_ns": end}
                if error is not None:
                    record["error"] = error
                if size is not None:
                    record["size"] = size
                handle.write(json.dumps(record) + "\n")


def summarize(spans: list[list], wall_ns: int) -> dict:
    """Self time, total time and calls per function, plus the counts the
    derived per-layer metrics need.

    A span's self time is its duration minus the durations of its direct
    children (calls are synchronous, so children nest inside the parent).
    A function's total time counts only its outermost calls, so recursion
    is not counted twice.  ``layer_ns`` is the time under the layer
    functions below the workload's entry point: the self time of every
    function except those in :data:`ENTRY_POINTS`.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    self_ns: dict[str, int] = {name: 0 for name in LAYER_FUNCTIONS}
    total_ns: dict[str, int] = {name: 0 for name in LAYER_FUNCTIONS}
    calls: dict[str, int] = {name: 0 for name in LAYER_FUNCTIONS}
    errors: dict[str, int] = {}
    sizes: dict[str, int] = {}
    escalated = 0
    maintenance_ns: list[int] = []
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        self_ns[name] += duration - child_ns[index]
        calls[name] += 1
        if not _has_ancestor(spans, index, name):
            total_ns[name] += duration
        if span[ERROR] is not None:
            key = f"{name}:{span[ERROR]}"
            errors[key] = errors.get(key, 0) + 1
        if span[SIZE] is not None:
            sizes[name] = sizes.get(name, 0) + span[SIZE]
        if name == "service.escalate" and span[PARENT] >= 0:
            escalated += spans[span[PARENT]][NAME] == "service.drain_vector"
        if name == "cluster.maintenance":
            maintenance_ns.append(duration)
    return {
        "wall_ns": wall_ns,
        "layer_ns": sum(ns for name, ns in self_ns.items() if name not in ENTRY_POINTS),
        "self_ns": self_ns,
        "total_ns": total_ns,
        "calls": calls,
        "errors": errors,
        "sizes": sizes,
        "escalated_rows": escalated,
        "maintenance_ns": sorted(maintenance_ns),
    }


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


class RequestTimer:
    """Host latency of each top-level request call.

    Time spent in a carry method (a control-plane pass the drive loop
    runs between requests) is charged to the request that follows it.
    Calls nested inside another timed call are not separate requests.
    """

    def __init__(self, api: str) -> None:
        self.api = api
        self.samples_ns: list[int] = []
        self._carry_ns = 0
        self._depth = 0
        self._patches = Patches()

    def _time_request(self, function: Callable) -> Callable:
        clock, samples = time.perf_counter_ns, self.samples_ns

        @functools.wraps(function)
        def timed(*args, **kwargs):
            if self._depth:
                return function(*args, **kwargs)
            self._depth = 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                samples.append(clock() - start + self._carry_ns)
                self._carry_ns = 0
                self._depth = 0

        return timed

    def _time_carry(self, function: Callable) -> Callable:
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def carried(*args, **kwargs):
            if self._depth:
                return function(*args, **kwargs)
            self._depth = 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                self._carry_ns += clock() - start
                self._depth = 0

        return carried

    @contextmanager
    def installed(self) -> Iterator["RequestTimer"]:
        try:
            for module_name, attribute in REQUEST_METHODS[self.api]:
                for owner, method in resolve(module_name, attribute):
                    self._patches.replace(owner, method, self._time_request)
            for module_name, attribute in CARRY_METHODS[self.api]:
                for owner, method in resolve(module_name, attribute):
                    self._patches.replace(owner, method, self._time_carry)
            yield self
        finally:
            self._patches.restore()
