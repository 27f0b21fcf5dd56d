"""Spans around the calls into each layer, installed from outside ``src/``.

A :class:`Tracer` wraps public functions and methods of the ``repro``
package at the attributes their call sites look up: a module-level function
is replaced in every ``repro`` module that bound it with ``from x import f``,
a method is replaced on its class.  Each call records one :class:`Span`
(name, start, end, parent span, job name) in memory; :meth:`Tracer.uninstall`
restores the originals.  Spans nest per thread, so a span's *self time* is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

JobOf = Callable[[tuple, dict], Optional[str]]
SizeOf = Callable[[tuple, dict], float]


@dataclass
class Span:
    id: int
    name: str
    parent: int
    job: Optional[str]
    thread: int
    start: float
    end: float = 0.0
    #: Work size of the call (devices ranked, programs merged), when known.
    size: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(index: int, name: str, convert: Callable = lambda value: value):
    """Getter for one call argument, positional or by keyword."""
    return lambda args, kwargs: convert(args[index] if len(args) > index else kwargs[name])


#: (span name, module, attribute, owning class or None, job-name getter, size getter)
LAYER_CALLS: Tuple[Tuple[str, str, str, Optional[str], Optional[JobOf], Optional[SizeOf]], ...] = (
    ("engine.match", "repro.service.engines", "match", "OrchestratorEngine", _arg(2, "job_name"), None),
    ("engine.run", "repro.service.engines", "run", "OrchestratorEngine",
     _arg(1, "placement", lambda placement: placement.job_name), None),
    ("core.submit_form", "repro.core.orchestrator", "submit_form", "QRIO", None, None),
    ("core.schedule_job", "repro.core.orchestrator", "schedule_job", "QRIO", _arg(1, "job_name"), None),
    ("core.execute_bound_job", "repro.core.master_server", "execute_bound_job", "MasterServer",
     _arg(1, "job_name"), None),
    ("qasm.parse", "repro.qasm.parser", "parse_qasm", None, None, None),
    ("plans.compile", "repro.plans.compiler", "compile", "PlanCompiler", None, None),
    ("plans.merge_programs", "repro.plans.schedule", "merge_programs", None, None, _arg(0, "members", len)),
    ("fidelity.estimate_many", "repro.fidelity.canary", "estimate_many", "CliffordCanaryEstimator", None,
     _arg(2, "backends", len)),
    ("transpiler.transpile", "repro.transpiler.preset", "transpile", None, None, None),
    ("matching.match_device", "repro.matching.mapomatic", "match_device", None, None, None),
    ("simulators.execute", "repro.simulators.noisy", "execute_with_noise", None, None, None),
    ("simulators.execute_many", "repro.simulators.noisy", "execute_many_with_noise", None, None,
     _arg(0, "requests", len)),
    ("simulators.statevector", "repro.simulators.noisy", "run", "NoisyStatevectorSimulator", None, None),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: Optional[str] = None, size: float = 0.0) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent.job
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else 0,
            job=job,
            thread=threading.get_ident(),
            start=time.perf_counter(),
            size=size,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, job_of: Optional[JobOf], size_of: Optional[SizeOf]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(
                name,
                job_of(args, kwargs) if job_of is not None else None,
                size_of(args, kwargs) if size_of is not None else 0.0,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    # ------------------------------------------------------------------ #
    def install(self, calls=LAYER_CALLS) -> None:
        """Wrap every entry of ``calls``; undo with :meth:`uninstall`."""
        for name, module_name, attr, owner, job_of, size_of in calls:
            module = importlib.import_module(module_name)
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, job_of, size_of))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, job_of, size_of)
            for bound in list(sys.modules.values()):
                namespace = getattr(bound, "__dict__", {})
                if getattr(bound, "__name__", "").startswith("repro") and namespace.get(attr) is original:
                    self._restore.append((bound, attr, original))
                    setattr(bound, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the durations of its direct children."""
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent in own:
                own[span.parent] -= span.duration
        return own

    def layer_self_times(self) -> Dict[str, float]:
        """Layer (span-name prefix) -> summed self time in seconds."""
        own = self.self_times()
        layers: Dict[str, float] = {}
        for span in self.spans:
            layers[span.layer] = layers.get(span.layer, 0.0) + own[span.id]
        return layers

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``)."""
        spans = sorted(self.spans, key=lambda span: span.start)
        origin = spans[0].start if spans else 0.0
        threads: Dict[int, int] = {}
        events = []
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": threads.setdefault(span.thread, len(threads) + 1),
                    "args": {"id": span.id, "parent": span.parent, "job": span.job},
                }
            )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
