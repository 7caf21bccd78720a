"""Outside-in per-layer host-time tracing for the end-to-end benchmark.

:class:`LayerTracer` times the simulator's layers without touching their
code: :meth:`LayerTracer.install` replaces, at class level, every public
method of every class a layer module defines, and every public
module-level function, with a timing wrapper.  A function imported by
name elsewhere (``path_to_root``, ``mac56``, ``bitops.mask`` …) is also
replaced in the namespace of every loaded ``repro.*`` module that holds
it.  Install before any controller is built: an object that caches a
bound method at construction would otherwise keep calling the original.

A span opens only where a call crosses from one layer into another; a
call within the layer already running is counted but not timed, which
keeps the wrappers' own cost (``trace_overhead``) down without moving
time between layers.  A span stack keeps self time (a span's duration
minus its child spans) online, in integer nanoseconds, so the per-layer
self times plus the harness's own time outside any span
(``unattributed``) sum exactly to the traced region's total.  Private
methods, properties and dunder methods are not wrapped: their time is
charged to the calling span, which for a private helper is normally its
own layer.

The first spans of each lane (one lane per cell) are kept for a Chrome
trace-event file.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from typing import Callable, Dict, List, Tuple

#: Layer name -> the modules whose code it covers.  Names follow the
#: module paths under ``repro``; ``controller`` groups the controller
#: classes of both tree families with the Anubis subclasses built on them.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "mem.layout": ("repro.mem.layout",),
    "integrity.geometry": ("repro.integrity.geometry",),
    "cache.metadata_cache": ("repro.cache.metadata_cache",),
    "cache.sa_cache": ("repro.cache.sa_cache",),
    "counters.split": ("repro.counters.split",),
    "integrity.bonsai": ("repro.integrity.bonsai",),
    "controller": (
        "repro.controller.base",
        "repro.controller.bonsai",
        "repro.controller.sgx",
        "repro.core.agit",
        "repro.core.asit",
    ),
    "mem.nvm": ("repro.mem.nvm",),
    "counters.sgx": ("repro.counters.sgx",),
    "integrity.sgx_tree": ("repro.integrity.sgx_tree",),
    "util.bitops": ("repro.util.bitops",),
    "core.shadow_table": ("repro.core.shadow_table",),
    "controller.batch": ("repro.controller.batch",),
    "crypto.ctr": ("repro.crypto.ctr",),
    "crypto.hashes": ("repro.crypto.hashes",),
    "mem.ecc": ("repro.mem.ecc",),
    "mem.wpq": ("repro.mem.wpq",),
    "mem.timing": ("repro.mem.timing",),
    "recovery.crash": ("repro.recovery.crash",),
    "core.recovery_agit": ("repro.core.recovery_agit",),
    "core.recovery_asit": ("repro.core.recovery_asit",),
    "controller.factory": ("repro.controller.factory",),
    "traces.synthetic": ("repro.traces.synthetic",),
    "traces.replay": ("repro.traces.replay",),
}

#: Spans kept for the Chrome trace, shared evenly among the lanes.
SPAN_LIMIT = 200_000


class LayerTracer:
    """Wraps the layers' functions and accumulates per-layer self time."""

    def __init__(self) -> None:
        self.layers: List[str] = list(LAYERS)
        #: ``(layer, qualified name)`` per wrapped function, by index.
        self.functions: List[Tuple[str, str]] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = [0] * len(self.layers)
        #: Child time accumulated under each open span; index 0 is the
        #: traced region itself.
        self._stack: List[int] = [0]
        #: Index of the layer whose span is open (-1: none).
        self._current: List[int] = [-1]
        #: ``[spans left for this lane, lane index]``.
        self._lane: List[int] = [0, 0]
        self._lane_budget = 0
        self.lane_names: List[str] = []
        self.spans: List[Tuple[int, int, int, int]] = []
        self._originals: List[Tuple[object, str, object]] = []
        self._start_ns = 0
        self.total_ns = 0

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        for layer_index, layer in enumerate(self.layers):
            for module_name in LAYERS[layer]:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    # A later change may delete a layer; it then reports
                    # zero calls rather than breaking the benchmark.
                    continue
                self._wrap_module(module, layer_index)

    def uninstall(self) -> None:
        """Restore every original function and method."""
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _wrap_module(self, module: types.ModuleType, layer_index: int) -> None:
        module_name = module.__name__
        for name, value in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if isinstance(value, type):
                if value.__module__ == module_name:
                    self._wrap_class(value, layer_index)
            elif (
                callable(value)
                and getattr(value, "__module__", None) == module_name
            ):
                wrapped = self._wrap(value, layer_index, name)
                for holder in list(sys.modules.values()):
                    if not getattr(holder, "__name__", "").startswith("repro"):
                        continue
                    for alias, held in list(vars(holder).items()):
                        if held is value:
                            self._replace(holder, alias, value, wrapped)

    def _wrap_class(self, cls: type, layer_index: int) -> None:
        for name, member in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            label = f"{cls.__name__}.{name}"
            if isinstance(member, staticmethod):
                wrapped = staticmethod(
                    self._wrap(member.__func__, layer_index, label)
                )
            elif isinstance(member, classmethod):
                wrapped = classmethod(
                    self._wrap(member.__func__, layer_index, label)
                )
            elif isinstance(member, types.FunctionType):
                wrapped = self._wrap(member, layer_index, label)
            else:
                continue
            self._replace(cls, name, member, wrapped)

    def _replace(
        self, owner: object, name: str, original: object, wrapped: object
    ) -> None:
        self._originals.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _wrap(
        self, function: Callable, layer_index: int, label: str
    ) -> Callable:
        index = len(self.functions)
        self.functions.append((self.layers[layer_index], label))
        self.calls.append(0)
        calls = self.calls
        self_ns = self.self_ns
        stack = self._stack
        current = self._current
        lane = self._lane
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            calls[index] += 1
            if current[0] == layer_index:
                return function(*args, **kwargs)
            outer = current[0]
            current[0] = layer_index
            stack.append(0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                current[0] = outer
                self_ns[layer_index] += duration - stack.pop()
                stack[-1] += duration
                if lane[0]:
                    lane[0] -= 1
                    spans.append((index, start, duration, lane[1]))

        traced.__name__ = getattr(function, "__name__", label)
        traced.__qualname__ = getattr(function, "__qualname__", label)
        traced.__doc__ = getattr(function, "__doc__", None)
        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------------
    # the traced region
    # ------------------------------------------------------------------

    def start(self, lanes: int) -> None:
        """Zero every counter and open the traced region."""
        self.calls[:] = [0] * len(self.calls)
        self.self_ns[:] = [0] * len(self.self_ns)
        self._stack[:] = [0]
        self._current[:] = [-1]
        self.spans.clear()
        self.lane_names.clear()
        self._lane_budget = SPAN_LIMIT // max(lanes, 1)
        self._start_ns = time.perf_counter_ns()

    def begin_lane(self, name: str) -> None:
        """Attribute the following spans to a new lane (one per cell)."""
        self._lane[:] = [self._lane_budget, len(self.lane_names)]
        self.lane_names.append(name)

    def stop(self) -> None:
        """Close the traced region."""
        self.total_ns = time.perf_counter_ns() - self._start_ns
        self._lane[0] = 0

    @property
    def unattributed_ns(self) -> int:
        """Region time spent outside every span (the harness itself)."""
        return self.total_ns - self._stack[0]

    def layer_calls(self) -> Dict[str, int]:
        """Calls per layer."""
        totals = dict.fromkeys(self.layers, 0)
        for (layer, _label), count in zip(self.functions, self.calls):
            totals[layer] += count
        return totals

    def function_calls(self, layer: str, label: str) -> int:
        """Calls of one wrapped function (0 when it was not found)."""
        return sum(
            count
            for (owner, name), count in zip(self.functions, self.calls)
            if owner == layer and name == label
        )

    def report(self) -> dict:
        """Plain-data summary: per-layer calls and self time, per-function
        calls, and the region total they partition."""
        calls = self.layer_calls()
        return {
            "total_ns": self.total_ns,
            "unattributed_ns": self.unattributed_ns,
            "layers": {
                layer: {"calls": calls[layer], "self_ns": self.self_ns[i]}
                for i, layer in enumerate(self.layers)
            },
            "functions": {
                f"{layer}:{label}": count
                for (layer, label), count in zip(self.functions, self.calls)
                if count
            },
        }

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON, one lane per cell."""
        events: List[dict] = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": name},
            }
            for tid, name in enumerate(self.lane_names)
        ]
        for index, start, duration, tid in self.spans:
            layer, label = self.functions[index]
            events.append({
                "name": label,
                "cat": layer,
                "ph": "X",
                "ts": (start - self._start_ns) / 1000.0,
                "dur": duration / 1000.0,
                "pid": 1,
                "tid": tid,
            })
        return {"traceEvents": events, "displayTimeUnit": "ns"}
