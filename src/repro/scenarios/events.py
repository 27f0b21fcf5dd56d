"""Typed, versioned fault events: the hostile-world half of a scenario.

The catalog's arrival processes (PR 5) shape *when* jobs arrive; this module
shapes *what the world does* while they arrive.  A :class:`FaultEvent` stream
rides inside a :class:`~repro.scenarios.Trace` (serialised with the jobs, see
``trace.py`` format version 2) and is replayed deterministically by the
:class:`FaultInjector`, which :class:`~repro.scenarios.ScenarioRunner`
attaches to the :class:`~repro.service.QRIOService` it drives:

* :class:`DeviceOutage` — a device leaves the fleet for a window and comes
  back.  Outages flip availability through each engine's placement filter
  path (orchestrator/cluster cordon the node, the cloud engine's
  per-arrival feasibility filter skips the device), so in-window jobs reroute — or
  fail when nothing is left.
* :class:`CalibrationJump` — a mid-trace calibration epoch: the device's
  :class:`~repro.backends.BackendProperties` are re-drawn through
  :class:`~repro.cloud.CalibrationDriftModel` and the stale entries of the
  fleet-wide :func:`~repro.core.cache.plan_cache` are eagerly dropped
  (exactly what a vendor calibration push does).
* :class:`QueueStorm` — a burst of synthetic backlog lands on device queues
  (cloud engine), stretching predicted waits the way a tenant dumping work
  outside this trace would.
* :class:`StragglerSlowdown` — a device serves jobs ``factor`` times slower
  for a window: the cloud engine's service times stretch, and a
  :class:`~repro.service.DeviceLatencyEngine` stretches its wall-clock
  occupancy.
* :class:`TenantBurst` — one tenant floods the trace with extra jobs for a
  window.  Bursts act at trace-*build* time (:func:`apply_workload_events`
  merges the extra requests into the arrival stream) and are recorded so the
  resilience metrics can attribute the overload.

Determinism contract: events are applied inside the service's serialized
MATCHING stage, in arrival order, *before* the job that first reaches the
event's timestamp is matched — identical for ``workers=0`` and concurrent
replays.  Events whose effect is visible to the RUNNING stage (calibration
jumps, straggler windows) additionally quiesce the runtime's in-flight lanes
first, so a calibration epoch is a barrier: no job ever runs half-old,
half-new properties, no matter the worker count.

Device references in events may be literal device names or fleet-relative
``"@<index>"`` references (``"@0"`` = first device of the fleet sorted by
name), which keeps catalog scenarios portable across fleets.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type

from repro.scenarios.arrivals import JobRequest
from repro.utils.exceptions import ScenarioError
from repro.utils.rng import SeedLike, derive_seed, ensure_generator

#: Schema version of the serialised event payloads (bump on field changes;
#: ``parse_event`` rejects versions it does not know how to read).
EVENT_SCHEMA_VERSION = 1


def _require_time(value: float, label: str) -> None:
    if not isinstance(value, (int, float)) or value < 0.0:
        raise ScenarioError(f"{label} must be a non-negative number, got {value!r}")


def _require_positive(value: float, label: str) -> None:
    if not isinstance(value, (int, float)) or value <= 0.0:
        raise ScenarioError(f"{label} must be a positive number, got {value!r}")


@dataclass(frozen=True)
class DeviceOutage:
    """One device is unavailable on ``[time_s, time_s + duration_s)``."""

    time_s: float
    device: str
    duration_s: float

    kind = "outage"

    def __post_init__(self) -> None:
        _require_time(self.time_s, "DeviceOutage.time_s")
        _require_positive(self.duration_s, "DeviceOutage.duration_s")

    @property
    def end_s(self) -> float:
        """First instant the device is schedulable again."""
        return self.time_s + self.duration_s


@dataclass(frozen=True)
class CalibrationJump:
    """A calibration epoch: the device's properties are re-drawn at ``time_s``.

    The drift magnitudes feed a
    :class:`~repro.cloud.CalibrationDriftModel`; the draw itself is seeded by
    the injector, so the same trace + seed always produces the same post-jump
    properties on every engine.
    """

    time_s: float
    device: str
    two_qubit_spread: float = 0.35
    one_qubit_spread: float = 0.2
    readout_spread: float = 0.2

    kind = "calibration-jump"

    def __post_init__(self) -> None:
        _require_time(self.time_s, "CalibrationJump.time_s")
        for label in ("two_qubit_spread", "one_qubit_spread", "readout_spread"):
            _require_positive(getattr(self, label), f"CalibrationJump.{label}")


@dataclass(frozen=True)
class QueueStorm:
    """``backlog_s`` seconds of synthetic work land on device queues at ``time_s``.

    ``devices=()`` means every device.  Only engines with simulated queues
    (the cloud engine) feel a storm; wall-clock engines record it as a no-op.
    """

    time_s: float
    backlog_s: float
    devices: Tuple[str, ...] = ()

    kind = "queue-storm"

    def __post_init__(self) -> None:
        _require_time(self.time_s, "QueueStorm.time_s")
        _require_positive(self.backlog_s, "QueueStorm.backlog_s")
        object.__setattr__(self, "devices", tuple(self.devices))


@dataclass(frozen=True)
class StragglerSlowdown:
    """One device serves jobs ``factor``x slower on ``[time_s, time_s + duration_s)``."""

    time_s: float
    device: str
    duration_s: float
    factor: float = 3.0

    kind = "straggler"

    def __post_init__(self) -> None:
        _require_time(self.time_s, "StragglerSlowdown.time_s")
        _require_positive(self.duration_s, "StragglerSlowdown.duration_s")
        if not isinstance(self.factor, (int, float)) or self.factor <= 1.0:
            raise ScenarioError(f"StragglerSlowdown.factor must be > 1, got {self.factor!r}")

    @property
    def end_s(self) -> float:
        """First instant the device serves at full speed again."""
        return self.time_s + self.duration_s


@dataclass(frozen=True)
class TenantBurst:
    """One tenant submits extra jobs at ``rate_per_hour`` for ``duration_s``.

    Applied when the trace is *built* (:func:`apply_workload_events`): the
    burst jobs join the arrival stream like any other job — attributed to
    ``user``, which a tenant-aware replay maps onto a real
    :class:`~repro.tenancy.Tenant` — and the recorded event lets the
    resilience metrics attribute the overload window.  The ``weight`` and
    quota fields describe the bursting tenant itself, so a replayed trace
    carries everything needed to exercise weighted-fair queueing and
    admission control end-to-end (:func:`tenants_from_events`).  The fields
    default to an unconstrained weight-1 tenant, which keeps schema version
    1 readable in both directions: old payloads simply omit them.
    """

    time_s: float
    duration_s: float
    user: str = "burst-tenant"
    rate_per_hour: float = 360.0
    #: Fair share of the bursting tenant in a tenant-aware replay.
    weight: float = 1.0
    #: Pending-jobs quota of the bursting tenant (``None`` = unlimited).
    max_pending: Optional[int] = None

    kind = "tenant-burst"

    def __post_init__(self) -> None:
        _require_time(self.time_s, "TenantBurst.time_s")
        _require_positive(self.duration_s, "TenantBurst.duration_s")
        _require_positive(self.rate_per_hour, "TenantBurst.rate_per_hour")
        _require_positive(self.weight, "TenantBurst.weight")
        if self.max_pending is not None and (
            not isinstance(self.max_pending, int) or self.max_pending <= 0
        ):
            raise ScenarioError(
                f"TenantBurst.max_pending must be a positive int or None, got {self.max_pending!r}"
            )

    @property
    def end_s(self) -> float:
        """End of the burst window."""
        return self.time_s + self.duration_s


#: Every event class, keyed by its serialised ``kind`` tag.
EVENT_TYPES: Dict[str, Type] = {
    cls.kind: cls
    for cls in (DeviceOutage, CalibrationJump, QueueStorm, StragglerSlowdown, TenantBurst)
}

#: The serialised kind tags, in registry order.
EVENT_KINDS: Tuple[str, ...] = tuple(EVENT_TYPES)

#: Union alias for annotations (events share no base class; the registry is
#: the contract).
FaultEvent = object


def event_to_payload(event) -> Dict[str, object]:
    """Serialise one event to its JSONL payload (``parse_event`` inverts)."""
    cls = type(event)
    if getattr(cls, "kind", None) not in EVENT_TYPES:
        raise ScenarioError(f"Not a fault event: {event!r}")
    payload: Dict[str, object] = {"event": cls.kind, "schema": EVENT_SCHEMA_VERSION}
    for spec in fields(cls):
        value = getattr(event, spec.name)
        payload[spec.name] = list(value) if isinstance(value, tuple) else value
    return payload


def parse_event(payload: Dict[str, object]):
    """Parse one serialised event payload back into its typed event.

    Raises:
        ScenarioError: Unknown kind, unsupported schema version, missing or
            ill-typed fields (the event constructors validate ranges).
    """
    if not isinstance(payload, dict) or "event" not in payload:
        raise ScenarioError(f"Not an event payload: {payload!r}")
    kind = payload["event"]
    if kind not in EVENT_TYPES:
        raise ScenarioError(f"Unknown event kind '{kind}' (known: {', '.join(EVENT_KINDS)})")
    schema = payload.get("schema", EVENT_SCHEMA_VERSION)
    if schema != EVENT_SCHEMA_VERSION:
        raise ScenarioError(
            f"Event schema {schema!r} is not supported (this build reads {EVENT_SCHEMA_VERSION})"
        )
    cls = EVENT_TYPES[kind]
    kwargs = {}
    for spec in fields(cls):
        if spec.name in payload:
            value = payload[spec.name]
            kwargs[spec.name] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**kwargs)
    except ScenarioError:
        raise
    except TypeError as error:
        raise ScenarioError(f"Malformed '{kind}' event {payload!r}: {error}") from error


def normalise_events(events: Sequence) -> Tuple:
    """Validate and canonically order an event stream.

    Events are sorted by ``(time_s, kind, repr)`` — a total, deterministic
    order — so a trace's serialised event section is a byte-stable function
    of its contents.

    Raises:
        ScenarioError: A non-event object in the stream.
    """
    stream = list(events)
    for event in stream:
        if getattr(type(event), "kind", None) not in EVENT_TYPES:
            raise ScenarioError(f"Not a fault event: {event!r}")
    return tuple(sorted(stream, key=lambda event: (event.time_s, event.kind, repr(event))))


# --------------------------------------------------------------------------- #
# Workload-level events: applied when the trace is built
# --------------------------------------------------------------------------- #
def apply_workload_events(
    requests: Sequence[JobRequest],
    events: Sequence,
    *,
    suite,
    shots: int = 1024,
    seed: SeedLike = None,
) -> List[JobRequest]:
    """Fold workload-level events (tenant bursts) into an arrival stream.

    Every :class:`TenantBurst` contributes ``rate_per_hour`` extra jobs per
    hour across its window, drawn from ``suite`` under a derived seed,
    attributed to the burst's tenant.  The merged stream is re-sorted by
    arrival time and re-indexed, so job names stay unique and traces stay
    valid.  Events of other kinds pass through untouched (they act at replay
    time, not build time).
    """
    merged: List[JobRequest] = list(requests)
    for position, event in enumerate(events):
        if not isinstance(event, TenantBurst):
            continue
        rng = ensure_generator(derive_seed(seed, "tenant-burst", position))
        count = max(1, int(round(event.duration_s * event.rate_per_hour / 3600.0)))
        for draw in range(count):
            arrival = event.time_s + (draw + float(rng.uniform(0.0, 1.0))) * (
                event.duration_s / count
            )
            entry = suite.sample(rng=rng)
            merged.append(
                JobRequest(
                    index=0,  # re-indexed below
                    arrival_time=min(arrival, event.end_s),
                    workload_key=entry.key,
                    circuit=entry.circuit(),
                    strategy=entry.strategy,
                    fidelity_threshold=entry.fidelity_threshold,
                    shots=shots,
                    user=event.user,
                )
            )
    merged.sort(key=lambda request: (request.arrival_time, request.user, request.workload_key))
    return [
        JobRequest(
            index=index,
            arrival_time=request.arrival_time,
            workload_key=request.workload_key,
            circuit=request.circuit,
            strategy=request.strategy,
            fidelity_threshold=request.fidelity_threshold,
            shots=request.shots,
            user=request.user,
        )
        for index, request in enumerate(merged)
    ]


def tenants_from_events(events: Sequence) -> Dict[str, "object"]:
    """Tenant definitions declared by a trace's :class:`TenantBurst` events.

    Returns ``{user: Tenant}`` for every burst, carrying the burst's weight
    and pending quota — what a tenant-aware :class:`~repro.scenarios.ScenarioRunner`
    stamps onto the replayed submissions so quotas and fair queueing apply to
    exactly the tenants the trace declared.  Multiple bursts by the same user
    must agree on weight/quota (a trace contradiction is an error, not a
    silent last-wins).
    """
    from repro.tenancy.api import Tenant

    tenants: Dict[str, Tenant] = {}
    for event in events:
        if not isinstance(event, TenantBurst):
            continue
        tenant = Tenant(id=event.user, weight=event.weight, max_pending=event.max_pending)
        existing = tenants.get(event.user)
        if existing is not None and existing != tenant:
            raise ScenarioError(
                f"Trace declares tenant '{event.user}' twice with conflicting "
                f"weight/quota ({existing} vs {tenant})"
            )
        tenants[event.user] = tenant
    return tenants


# --------------------------------------------------------------------------- #
# Replay-time injection
# --------------------------------------------------------------------------- #
class StragglerTimeModel:
    """Delegating :class:`~repro.cloud.ExecutionTimeModel` that stretches
    service times by the injector's current per-device straggler factor.

    Installed on the cloud engine's simulator when a fault injector binds.
    Routing and service-time computation both happen inside the serialized
    MATCHING stage, so the factor read here is the deterministic one for the
    job's arrival time.
    """

    def __init__(self, inner, injector: "FaultInjector") -> None:
        self._inner = inner
        self._injector = injector

    def service_time_s(self, circuit, backend, shots: int) -> float:
        base = self._inner.service_time_s(circuit, backend, shots)
        return base * self._injector.straggler_factor(backend.name)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class FaultInjector:
    """Replay a fault-event stream against a live service, deterministically.

    The injector expands its events into a time-ordered action list (an
    outage is a down action plus an up action) and applies every action due
    at or before each job's arrival, from inside the service's serialized
    MATCHING stage (:meth:`advance_to`).  Actions visible to the RUNNING
    stage first quiesce the runtime's in-flight lanes, so concurrent replays
    apply them at the same logical point as synchronous ones.

    Not thread-safe by itself — the MATCHING funnel it is called from already
    serializes access (see :class:`~repro.service.ServiceRuntime`).
    """

    def __init__(self, events: Sequence, *, seed: SeedLike = None) -> None:
        self._events = normalise_events(events)
        self._seed = seed
        self._engine = None
        self._quiesce: Optional[Callable[[], None]] = None
        self._actions: List[Tuple[float, int, str, object]] = []
        self._cursor = 0
        self._down: Dict[str, int] = {}
        self._slow: Dict[str, List[float]] = {}
        self._applied: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------ #
    @property
    def events(self) -> Tuple:
        """The canonically ordered event stream this injector replays."""
        return self._events

    def applied(self) -> List[Tuple[float, str, str]]:
        """Actions applied so far, as ``(time_s, action, device)`` rows."""
        return list(self._applied)

    def bind(self, engine, *, quiesce: Optional[Callable[[], None]] = None) -> None:
        """Attach to an engine (called by ``QRIOService.set_fault_injector``).

        Resolves ``"@<index>"`` device references against the engine's fleet
        (sorted by name) and builds the action timeline.

        Raises:
            ScenarioError: An out-of-range ``@`` reference.
        """
        self._engine = engine
        self._quiesce = quiesce
        names = sorted(backend.name for backend in engine.fleet())
        order = 0
        actions: List[Tuple[float, int, str, object]] = []
        for position, event in enumerate(self._events):
            if isinstance(event, DeviceOutage):
                device = self._resolve(event.device, names)
                actions.append((event.time_s, order, "down", device))
                actions.append((event.end_s, order + 1, "up", device))
                order += 2
            elif isinstance(event, CalibrationJump):
                device = self._resolve(event.device, names)
                actions.append((event.time_s, order, "jump", (device, event, position)))
                order += 1
            elif isinstance(event, QueueStorm):
                devices = tuple(self._resolve(ref, names) for ref in event.devices) or tuple(names)
                actions.append((event.time_s, order, "storm", (devices, event)))
                order += 1
            elif isinstance(event, StragglerSlowdown):
                device = self._resolve(event.device, names)
                actions.append((event.time_s, order, "slow-start", (device, event.factor)))
                actions.append((event.end_s, order + 1, "slow-end", (device, event.factor)))
                order += 2
            # TenantBurst acts at build time; nothing to replay.
        actions.sort(key=lambda action: (action[0], action[1]))
        self._actions = actions
        self._cursor = 0
        self._install_time_model()

    @staticmethod
    def _resolve(reference: str, names: Sequence[str]) -> str:
        """A literal device name, or ``"@i"`` into the name-sorted fleet."""
        if isinstance(reference, str) and reference.startswith("@"):
            try:
                index = int(reference[1:])
                return names[index]
            except (ValueError, IndexError) as error:
                raise ScenarioError(
                    f"Device reference '{reference}' does not resolve in a "
                    f"{len(names)}-device fleet"
                ) from error
        return reference

    def _install_time_model(self) -> None:
        """Stretchy service times on engines with a simulated clock."""
        session = getattr(self._engine, "session", None)
        if session is not None and hasattr(session, "set_time_model"):
            session.set_time_model(
                StragglerTimeModel(session.simulator.config.time_model, self)
            )

    # ------------------------------------------------------------------ #
    def advance_to(self, time_s: Optional[float]) -> int:
        """Apply every action due at or before ``time_s``; returns the count.

        ``None`` (a job without an arrival stamp) applies nothing — fault
        replay always stamps arrivals, see ``ScenarioRunner``.
        """
        if time_s is None or self._engine is None:
            return 0
        applied = 0
        while self._cursor < len(self._actions) and self._actions[self._cursor][0] <= time_s:
            when, _, action, payload = self._actions[self._cursor]
            self._cursor += 1
            self._apply(when, action, payload)
            applied += 1
        return applied

    def finish(self) -> int:
        """Apply every remaining action (end-of-trace recoveries)."""
        return self.advance_to(float("inf")) if self._actions else 0

    def _apply(self, when: float, action: str, payload) -> None:
        engine = self._engine
        if action == "down":
            count = self._down.get(payload, 0)
            self._down[payload] = count + 1
            if count == 0:
                engine.set_device_available(payload, False)
            self._applied.append((when, action, payload))
        elif action == "up":
            count = self._down.get(payload, 0) - 1
            self._down[payload] = max(count, 0)
            if count == 0:
                engine.set_device_available(payload, True)
            self._applied.append((when, action, payload))
        elif action == "jump":
            device, event, position = payload
            self._barrier()
            properties = self._drift_properties(device, event, position)
            engine.apply_calibration(device, properties)
            self._applied.append((when, action, device))
        elif action == "storm":
            devices, event = payload
            engine.inject_queue_backlog(devices, at_time_s=when, backlog_s=event.backlog_s)
            self._applied.append((when, action, ",".join(devices)))
        elif action == "slow-start":
            device, factor = payload
            self._barrier()
            self._slow.setdefault(device, []).append(factor)
            self._applied.append((when, action, device))
        elif action == "slow-end":
            device, factor = payload
            self._barrier()
            stack = self._slow.get(device, [])
            if factor in stack:
                stack.remove(factor)
            self._applied.append((when, action, device))

    def _barrier(self) -> None:
        """Quiesce in-flight RUNNING work before a run-visible state change."""
        if self._quiesce is not None:
            self._quiesce()

    def _drift_properties(self, device: str, event: CalibrationJump, position: int):
        from repro.cloud.calibration import CalibrationDriftModel

        backend = next(b for b in self._engine.fleet() if b.name == device)
        model = CalibrationDriftModel(
            two_qubit_spread=event.two_qubit_spread,
            one_qubit_spread=event.one_qubit_spread,
            readout_spread=event.readout_spread,
        )
        return model.drift_properties(
            backend.properties, seed=derive_seed(self._seed, "calibration-jump", device, position)
        )

    # ------------------------------------------------------------------ #
    def straggler_factor(self, device: str) -> float:
        """Current service-time multiplier of ``device`` (1.0 = full speed)."""
        factor = 1.0
        for value in self._slow.get(device, ()):
            factor *= value
        return factor

    def unavailable_devices(self) -> Tuple[str, ...]:
        """Devices currently inside an outage window, sorted."""
        return tuple(sorted(device for device, count in self._down.items() if count > 0))
