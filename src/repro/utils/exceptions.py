"""Exception hierarchy shared by every ``repro`` subpackage.

All library errors derive from :class:`ReproError` so that callers can catch
one base class at an API boundary.  Each substrate narrows the base class
further (circuit construction, QASM parsing, transpilation, simulation,
cluster orchestration and scheduling), which keeps error handling explicit
without forcing callers to import deep module paths.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class CircuitError(ReproError):
    """Raised when a quantum circuit is constructed or mutated illegally."""


class GateError(CircuitError):
    """Raised when a gate definition or gate application is invalid."""


class QASMError(ReproError):
    """Raised when OpenQASM source cannot be lexed, parsed or exported."""


class SimulationError(ReproError):
    """Raised when a simulator cannot execute the supplied circuit."""


class StabilizerError(SimulationError):
    """Raised when a non-Clifford operation reaches the stabilizer simulator."""


class BackendError(ReproError):
    """Raised when backend properties are malformed or inconsistent."""


class TranspilerError(ReproError):
    """Raised when a transpiler pass cannot produce a legal circuit."""


class LayoutError(TranspilerError):
    """Raised when a layout cannot be constructed for a circuit/device pair."""


class MatchingError(ReproError):
    """Raised by the subgraph-matching (Mapomatic-style) engine."""


class FidelityEstimationError(ReproError):
    """Raised when a fidelity estimate cannot be produced."""


class ClusterError(ReproError):
    """Raised by the cluster substrate (nodes, jobs, binding, containers)."""


class SchedulingError(ClusterError):
    """Raised when a job cannot be scheduled onto any node."""


class PolicyNotFoundError(ClusterError):
    """Raised when a placement-policy name is missing from the registry.

    Subclasses :class:`ClusterError` so scheduling-layer handlers that catch
    the cluster taxonomy also catch mistyped policy names.  The message
    carries a did-you-mean suggestion built from the registered names.
    """

    def __init__(self, name: str, known: "tuple[str, ...]" = (), suggestion: "str | None" = None) -> None:
        message = f"Unknown placement policy '{name}'"
        if suggestion:
            message += f" — did you mean '{suggestion}'?"
        if known:
            message += f" (registered: {', '.join(sorted(known))})"
        super().__init__(message)
        self.name = name
        self.suggestion = suggestion


class CloudError(ClusterError):
    """Raised by the quantum-cloud simulation substrate (``repro.cloud``).

    Subclasses :class:`ClusterError` for backwards compatibility: the cloud
    modules historically raised ``ClusterError`` for their own configuration
    validation, so existing ``except ClusterError`` handlers keep working.
    """


class ScenarioError(CloudError):
    """Raised by the scenario subsystem (``repro.scenarios``).

    Subclasses :class:`CloudError` (and therefore :class:`ClusterError`)
    because the arrival/metrics machinery moved out of ``repro.cloud`` into
    the scenario layer — existing handlers around trace generation keep
    working unchanged.
    """


class ServiceError(ReproError):
    """Raised by the unified job-service layer (``repro.service``)."""


class JobNotCompletedError(ServiceError):
    """Raised when a job's result is requested before the job has finished.

    Also raised when a concurrent service's blocking wait (``result(timeout=...)``)
    expires before the job reaches a terminal state.
    """


class ServiceOverloadedError(ServiceError):
    """Raised when a bounded service runtime rejects a submission.

    A :class:`~repro.service.QRIOService` created with ``workers > 0`` and a
    ``max_pending`` bound applies backpressure: once the priority queue holds
    ``max_pending`` not-yet-dispatched jobs, ``submit(..., block=False)``
    raises this error instead of queueing (with ``block=True`` the submitter
    blocks until the dispatcher frees capacity).
    """


class AdmissionRejectedError(ServiceOverloadedError):
    """Raised when SLO-aware admission control sheds a submission.

    Subclasses :class:`ServiceOverloadedError` on purpose: admission control
    is the *soft* load-shedding layer in front of the runtime's hard
    ``max_pending`` backstop, so callers with a generic overload handler keep
    working, while tenant-aware callers can read the structured fields:

    * ``tenant`` — id of the tenant whose submission was rejected;
    * ``state`` — the admission state that triggered the rejection
      (``"defer"``, ``"shed"`` or ``"quota"``);
    * ``retry_after_s`` — the controller's estimate of when a retry has a
      chance of being admitted (advisory, never negative).
    """

    def __init__(self, message: str, *, tenant: str, state: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.state = state
        self.retry_after_s = max(0.0, float(retry_after_s))


class JobFailedError(ServiceError):
    """Raised when the result of a failed service job is requested."""


class ShardDiedError(JobFailedError):
    """Raised for a sharded job whose shard process died before reporting it."""


class NoFeasibleNodeError(SchedulingError):
    """Raised when filtering leaves zero nodes for a job.

    The paper describes this situation explicitly for Fig. 10: a maximum
    two-qubit error bound of 0.07 filters out the entire 100-device cluster,
    which "would simply mean that the user's job is not fit for scheduling in
    the cluster".
    """


class RequirementsError(ReproError):
    """Raised when user-supplied job requirements are invalid."""


class MetaServerError(ReproError):
    """Raised by the QRIO meta server (unknown job, unknown backend, ...)."""


class MasterServerError(ReproError):
    """Raised by the QRIO master server (containerization, submission)."""


class VisualizerError(ReproError):
    """Raised by the programmatic visualizer (form validation, canvas)."""
