"""Portable, versioned job traces: record once, replay anywhere.

A :class:`Trace` is the scenario subsystem's unit of reproducibility: an
ordered list of :class:`~repro.scenarios.JobRequest` records plus metadata,
serialisable to a line-oriented JSONL file (one header line, one line per
job) that any future version of the repo — or an external tool — can replay
bit-identically against any engine × policy × workers configuration.

Circuits travel as OpenQASM 2.0 text.  The QASM round trip normalises one
detail (a parsed circuit always carries a full-width classical register), so
:meth:`Trace.from_requests` pushes every circuit through ``dump → parse``
once at construction time; after that, the in-memory trace and any number of
``save``/``load`` generations are structurally identical, which is what
makes *recorded* and *loaded* replays route the same.

:class:`TraceRecorder` captures a live :class:`~repro.service.QRIOService`
run through the service's submission-listener hook, so any workload driven
through ``submit``/``submit_batch`` — interactive sessions included — can be
frozen into a trace and replayed later.  A capture is at *trace-format*
granularity: circuit, strategy, fidelity threshold, shots, arrival time and
a recorder-level user label.  Requirement fields outside the portable format
(explicit ``topology_edges``, per-job ``policy``, ``priority``/``deadline_s``,
device-characteristic bounds) are not recorded — replay reconstructs a
topology request from the circuit's own interaction structure and applies
the runner-level policy, so a live run that relied on those per-job fields
may route differently when replayed.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.qasm.exporter import dump_qasm
from repro.qasm.parser import parse_qasm
from repro.scenarios.events import event_to_payload, normalise_events, parse_event
from repro.utils.exceptions import ScenarioError
from repro.workloads.arrivals import JobRequest, trace_summary

#: Magic string on the header line of every trace file.
TRACE_FORMAT = "qrio-trace"
#: Current trace schema version.  Bump when a job field changes meaning;
#: ``load_trace`` rejects versions it does not know how to read.  Version 2
#: added the fault-event section (event lines between header and jobs);
#: version-1 files (no events) still load.
TRACE_VERSION = 2
#: Every version ``load_trace`` can read.
READABLE_TRACE_VERSIONS = (1, 2)


def _normalise_circuit(circuit):
    """One QASM round trip, making the circuit its own serialisation fixed point."""
    return parse_qasm(dump_qasm(circuit))


@dataclass(frozen=True)
class Trace:
    """An ordered, replayable stream of job requests plus provenance metadata."""

    name: str
    jobs: tuple
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Canonically ordered fault-event stream (see :mod:`repro.scenarios.events`).
    events: tuple = ()

    def __post_init__(self) -> None:
        jobs = tuple(self.jobs)
        times = [job.arrival_time for job in jobs]
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            raise ScenarioError(f"Trace '{self.name}' arrival times must be non-decreasing")
        object.__setattr__(self, "jobs", jobs)
        object.__setattr__(self, "events", normalise_events(self.events))

    # ------------------------------------------------------------------ #
    @classmethod
    def from_requests(
        cls,
        name: str,
        requests: Sequence[JobRequest],
        events: Sequence = (),
        **metadata: object,
    ) -> "Trace":
        """Build a trace from in-memory requests, normalising every circuit.

        The normalisation (one QASM dump/parse round trip per circuit) is
        what guarantees that replaying this object and replaying
        ``load_trace(save(...))`` make identical routing decisions.
        ``events`` attaches a fault-event stream (canonically re-ordered).
        """
        jobs = tuple(
            JobRequest(
                index=request.index,
                arrival_time=request.arrival_time,
                workload_key=request.workload_key,
                circuit=_normalise_circuit(request.circuit),
                strategy=request.strategy,
                fidelity_threshold=request.fidelity_threshold,
                shots=request.shots,
                user=request.user,
            )
            for request in requests
        )
        return cls(name=name, jobs=jobs, metadata=dict(metadata), events=tuple(events))

    def without_events(self) -> "Trace":
        """A fault-free twin: same jobs and metadata, empty event stream.

        The control arm of resilience comparisons (and of the
        ``BENCH_scenarios.json`` fault-overhead row).
        """
        return Trace(name=self.name, jobs=self.jobs, metadata=dict(self.metadata))

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobRequest]:
        return iter(self.jobs)

    def summary(self) -> Dict[str, object]:
        """Aggregate description (job count, duration, workload mix, users)."""
        return trace_summary(list(self.jobs))

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def header(self) -> Dict[str, object]:
        """The JSONL header line's payload."""
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "name": self.name,
            "num_jobs": len(self.jobs),
            "num_events": len(self.events),
            "metadata": dict(self.metadata),
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Write the trace as JSONL (header, then event lines, then job lines)."""
        path = Path(path)
        lines = [json.dumps(self.header(), sort_keys=True)]
        for event in self.events:
            lines.append(json.dumps(event_to_payload(event), sort_keys=True))
        for job in self.jobs:
            lines.append(
                json.dumps(
                    {
                        "index": job.index,
                        "arrival_time": job.arrival_time,
                        "workload_key": job.workload_key,
                        "circuit_qasm": dump_qasm(job.circuit),
                        "strategy": job.strategy,
                        "fidelity_threshold": job.fidelity_threshold,
                        "shots": job.shots,
                        "user": job.user,
                    },
                    sort_keys=True,
                )
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def record(trace: Trace, path: Union[str, Path]) -> Path:
    """Write ``trace`` to ``path`` (function-style alias of :meth:`Trace.save`)."""
    return trace.save(path)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a JSONL trace file written by :meth:`Trace.save`.

    Raises:
        ScenarioError: Missing or malformed header, unknown format or
            version, or a malformed job line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ScenarioError(f"Cannot read trace file '{path}': {error}") from error
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ScenarioError(f"Trace file '{path}' is empty")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        raise ScenarioError(f"Trace file '{path}' has a malformed header line: {error}") from error
    if not isinstance(header, dict) or header.get("format") != TRACE_FORMAT:
        raise ScenarioError(
            f"Trace file '{path}' is not a {TRACE_FORMAT} file (header {header!r})"
        )
    version = header.get("version")
    if version not in READABLE_TRACE_VERSIONS:
        raise ScenarioError(
            f"Trace file '{path}' has version {version!r}; this build reads versions "
            f"{READABLE_TRACE_VERSIONS}"
        )
    jobs: List[JobRequest] = []
    events: List[object] = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            payload = json.loads(line)
            if isinstance(payload, dict) and "event" in payload:
                if version == 1:
                    raise ScenarioError(
                        f"Trace file '{path}' line {lineno}: version-1 traces carry no events"
                    )
                if jobs:
                    raise ScenarioError(
                        f"Trace file '{path}' line {lineno}: event lines must precede job lines"
                    )
                events.append(parse_event(payload))
                continue
            jobs.append(
                JobRequest(
                    index=int(payload["index"]),
                    arrival_time=float(payload["arrival_time"]),
                    workload_key=str(payload["workload_key"]),
                    circuit=parse_qasm(payload["circuit_qasm"]),
                    strategy=str(payload["strategy"]),
                    fidelity_threshold=float(payload["fidelity_threshold"]),
                    shots=int(payload["shots"]),
                    user=str(payload["user"]),
                )
            )
        except ScenarioError:
            raise
        except Exception as error:  # json, key, parse errors: one taxonomy
            raise ScenarioError(f"Trace file '{path}' line {lineno} is malformed: {error}") from error
    declared = header.get("num_jobs")
    if declared is not None and declared != len(jobs):
        raise ScenarioError(
            f"Trace file '{path}' declares {declared} jobs but contains {len(jobs)}"
        )
    declared_events = header.get("num_events")
    if declared_events is not None and declared_events != len(events):
        raise ScenarioError(
            f"Trace file '{path}' declares {declared_events} events but contains {len(events)}"
        )
    return Trace(
        name=str(header.get("name", path.stem)),
        jobs=tuple(jobs),
        metadata=dict(header.get("metadata", {})),
        events=tuple(events),
    )


class TraceRecorder:
    """Capture a live :class:`~repro.service.QRIOService` run as a trace.

    The recorder registers itself as a submission listener on the service and
    converts every admitted :class:`~repro.service.JobSpec` into a trace job.
    Arrival times are logical by default — consecutive submissions are spaced
    ``inter_arrival_s`` apart, matching :class:`~repro.service.CloudEngine`'s
    clock semantics, so the recorded trace replays deterministically.  Pass
    ``wall_clock=True`` to stamp real submission times instead (replay stays
    deterministic; only the recorded timestamps differ run to run).

    See the module docstring for what a capture does and does not record
    (explicit topology edges, per-job policies and priorities are outside the
    portable trace format).  Usable as a context manager::

        with TraceRecorder(service, name="captured") as recorder:
            service.submit(circuit, 0.9)
            service.process()
        trace = recorder.trace()
    """

    def __init__(
        self,
        service,
        *,
        name: str = "recorded",
        inter_arrival_s: float = 1.0,
        wall_clock: bool = False,
        user: str = "service",
    ) -> None:
        if inter_arrival_s < 0:
            raise ScenarioError("inter_arrival_s must be non-negative")
        self._service = service
        self._name = name
        self._inter_arrival_s = inter_arrival_s
        self._wall_clock = wall_clock
        self._user = user
        self._jobs: List[JobRequest] = []
        # The recorder's capture clock is wall time by design; replay runs on
        # the recorded (logical or clamped) arrival timeline.
        # qrio: allow[QRIO-D002] capture clock of the trace recorder
        self._started = time.monotonic()
        self._attached = True
        #: Concurrent submitters notify on their own threads; the lock keeps
        #: the (index, arrival clamp, append) step atomic.  Ordering between
        #: two truly concurrent batches follows notification order.
        self._mutex = threading.Lock()
        service.add_submission_listener(self._on_submission)

    # ------------------------------------------------------------------ #
    def _on_submission(self, job_name: str, spec) -> None:
        requirements = spec.requirements
        with self._mutex:
            index = len(self._jobs)
            if self._wall_clock:
                # qrio: allow[QRIO-D002] wall_clock=True explicitly opts into host-time stamps
                arrival = time.monotonic() - self._started
            elif requirements.arrival_time_s is not None:
                arrival = requirements.arrival_time_s
            else:
                arrival = index * self._inter_arrival_s
            # Traces require non-decreasing arrivals; whatever the source of
            # the timestamp (wall clock, explicit arrival_time_s, logical
            # spacing — possibly mixed across submissions), clamp to the tail.
            if self._jobs:
                arrival = max(arrival, self._jobs[-1].arrival_time)
            self._jobs.append(
                JobRequest(
                    index=index,
                    arrival_time=arrival,
                    workload_key=job_name,
                    circuit=spec.circuit,
                    strategy=requirements.strategy,
                    fidelity_threshold=(
                        requirements.effective_fidelity_threshold
                        if requirements.strategy == "fidelity"
                        else 0.0
                    ),
                    shots=spec.shots,
                    user=self._user,
                )
            )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._mutex:
            return len(self._jobs)

    def detach(self) -> None:
        """Stop recording (idempotent; the captured jobs remain available)."""
        if self._attached:
            self._service.remove_submission_listener(self._on_submission)
            self._attached = False

    def trace(self, name: Optional[str] = None) -> Trace:
        """Everything captured so far as a normalised, replayable trace."""
        with self._mutex:
            jobs = list(self._jobs)
        return Trace.from_requests(
            name if name is not None else self._name,
            jobs,
            source="TraceRecorder",
            engine=self._service.engine.name,
        )

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()
