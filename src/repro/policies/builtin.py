"""The built-in placement policies.

Each class below is one :class:`~repro.policies.PlacementPolicy`, registered
under a short name so any engine can run it by string:

========================  ====================================================
``random``                uniformly random feasible device (the paper's
                          baseline scheduler)
``round-robin``           cycle through feasible devices in name order
``least-loaded``          smallest predicted queueing delay (the cloud
                          engine's default)
``fidelity``              best estimated fidelity, optionally traded against
                          queueing delay via ``queue_weight``
``queue-aware``           alias for ``fidelity`` with ``queue_weight=0.3``
                          (the Ravi et al. scheduler of the related work)
``threshold-fidelity``    Clifford-canary distance to the job's requested
                          fidelity (the meta server's fidelity ranking)
``topology``              Mapomatic-style embedding cost of the job's
                          topology request (the meta server's topology
                          ranking)
``pinned``                force one named device (``pinned:device=NAME``) —
                          the affinity override sharded dispatch routes by
========================  ====================================================

The cloud-facing policies' routing is pinned by golden device and wait
lists in ``tests/policies/test_adapter_equivalence.py``: feasibility sets,
RNG consumption and tie-breaking cannot drift unnoticed.  The two meta
server rankings are pinned the same way, by golden scores there and in
``tests/core/test_meta_server_and_strategies.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.backend import Backend
from repro.fidelity.canary import DEFAULT_CANARY_SHOTS, CliffordCanaryEstimator
from repro.fidelity.estimator import ESPEstimator
from repro.matching.mapomatic import match_device
from repro.policies.api import DeviceScore, PlacementContext, PlacementPolicy
from repro.policies.registry import register_policy
from repro.utils.exceptions import SchedulingError
from repro.utils.rng import SeedLike, ensure_generator

#: Weight a fidelity *surplus* above the requested threshold counts at.  A
#: deficit is penalised at full weight so the scheduler never prefers a
#: device that misses the requirement; the small surplus weight nudges it to
#: hand out the device that most closely matches the request instead of
#: always consuming the best device in the cluster.
SURPLUS_WEIGHT = 0.25


@register_policy("random", description="uniformly random feasible device (the paper's baseline)")
class RandomPlacementPolicy(PlacementPolicy):
    """Uniformly random choice among feasible devices.

    Candidates are considered in stable name order and one RNG draw is
    consumed per decision, so a seeded instance routes reproducibly.
    """

    def __init__(self, seed: SeedLike = None) -> None:
        self._rng = ensure_generator(seed)

    @property
    def name(self) -> str:
        return "random"

    def select(self, ctx: PlacementContext, scored: Sequence[DeviceScore]) -> DeviceScore:
        ordered = sorted(scored, key=lambda entry: entry.device)
        return ordered[int(self._rng.integers(0, len(ordered)))]


@register_policy("round-robin", description="cycle through feasible devices in name order")
class RoundRobinPlacementPolicy(PlacementPolicy):
    """Naive load spreading: cycle through feasible devices in name order."""

    def __init__(self) -> None:
        self._cursor = 0

    @property
    def name(self) -> str:
        return "round-robin"

    def select(self, ctx: PlacementContext, scored: Sequence[DeviceScore]) -> DeviceScore:
        ordered = sorted(scored, key=lambda entry: entry.device)
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice


@register_policy("least-loaded", description="smallest predicted queueing delay (fidelity-blind)")
class LeastLoadedPlacementPolicy(PlacementPolicy):
    """Queue-aware, fidelity-blind: route to the smallest predicted wait.

    The score is the context's predicted wait in seconds; engines without a
    queueing model report 0.0 everywhere, degrading to name-order selection.
    """

    @property
    def name(self) -> str:
        return "least-loaded"

    def score(self, ctx: PlacementContext, device: Backend) -> float:
        return ctx.wait_for(device.name)

    def breakdown(self, ctx: PlacementContext, device: Backend) -> Dict[str, float]:
        return {"predicted_wait_s": ctx.wait_for(device.name)}


def _fidelity_key(ctx: PlacementContext, device: Backend) -> Tuple[str, str, object]:
    """The fidelity-cache key of ``device`` for the context's job."""
    return (ctx.workload(), device.name, ctx.calibration_epoch)


class _FidelityEstimateMixin:
    """Shared cached fidelity estimation (ESP or Clifford canary)."""

    def __init__(self, estimator: str, canary_shots: int, seed: SeedLike) -> None:
        if estimator not in ("esp", "canary"):
            raise SchedulingError("estimator must be 'esp' or 'canary'")
        self._estimator_kind = estimator
        self._esp = ESPEstimator(seed=seed)
        self._canary = CliffordCanaryEstimator(shots=canary_shots, seed=seed)

    def score_many(self, ctx: PlacementContext, devices: Sequence[Backend]) -> List[float]:
        """Fill the fidelity cache with one canary ranking of the uncached devices, then score each.

        The canary estimator batches a ranking's noisy executions
        (:meth:`~repro.fidelity.CliffordCanaryEstimator.estimate_many`); the
        ESP estimator has nothing to batch and scores per device.
        """
        if self._estimator_kind == "canary" and ctx.circuit is not None:
            missing = [device for device in devices if _fidelity_key(ctx, device) not in ctx.fidelity_cache]
            if missing:
                for device, report in zip(missing, self._canary.estimate_many(ctx.circuit, missing)):
                    ctx.fidelity_cache[_fidelity_key(ctx, device)] = report.canary_fidelity
        return super().score_many(ctx, devices)

    def estimated_fidelity(self, ctx: PlacementContext, device: Backend) -> float:
        """Cached fidelity estimate of the job's circuit on ``device``.

        Keyed ``(workload key, device, calibration epoch)`` exactly like the
        cloud session's cache, so the simulator's ESP fidelity report reads
        the entries a policy already scored, and
        repeated submissions of the same structural circuit under the
        orchestrator engine pay one estimate per device.
        """
        if ctx.circuit is None:
            raise SchedulingError(
                f"Job '{ctx.job_name}' carries no circuit to estimate fidelity for"
            )
        key = _fidelity_key(ctx, device)
        if key in ctx.fidelity_cache:
            return ctx.fidelity_cache[key]
        if self._estimator_kind == "esp":
            value = self._esp.estimate(ctx.circuit, device).esp
        else:
            value = self._canary.estimate(ctx.circuit, device).canary_fidelity
        ctx.fidelity_cache[key] = value
        return value


@register_policy(
    "fidelity",
    description="best estimated fidelity, optionally traded against queueing delay",
)
class FidelityPlacementPolicy(_FidelityEstimateMixin, PlacementPolicy):
    """Fidelity-aware placement, optionally queue-aware.

    The score of device *d* is ``(1 - fidelity(d)) + queue_weight *
    predicted_wait(d) / wait_scale_s`` — the complement of a fidelity/queue
    utility, so lower is better like everywhere else in the pipeline.
    ``queue_weight=0`` (default) is pure fidelity routing; positive weights
    trade fidelity against queueing delay (register name ``queue-aware``
    defaults to 0.3, the Ravi et al. style scheduler).  Ties break toward
    the lexicographically *largest* device name.
    """

    def __init__(
        self,
        estimator: str = "esp",
        queue_weight: float = 0.0,
        wait_scale_s: float = 600.0,
        canary_shots: int = 256,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(estimator, canary_shots, seed)
        if queue_weight < 0:
            raise SchedulingError("queue_weight must be non-negative")
        if wait_scale_s <= 0:
            raise SchedulingError("wait_scale_s must be positive")
        self._queue_weight = queue_weight
        self._wait_scale = wait_scale_s

    @property
    def name(self) -> str:
        if self._queue_weight:
            return f"fidelity[{self._estimator_kind}, queue_weight={self._queue_weight}]"
        return f"fidelity[{self._estimator_kind}]"

    def score(self, ctx: PlacementContext, device: Backend) -> float:
        fidelity = self.estimated_fidelity(ctx, device)
        penalty = 0.0
        if self._queue_weight:
            penalty = self._queue_weight * ctx.wait_for(device.name) / self._wait_scale
        return (1.0 - fidelity) + penalty

    def select(self, ctx: PlacementContext, scored: Sequence[DeviceScore]) -> DeviceScore:
        best = min(entry.score for entry in scored)
        # Among tied scores the largest device name wins (the cloud
        # simulator's historical ``max((utility, name))`` routing).
        return max(
            (entry for entry in scored if entry.score == best),
            key=lambda entry: entry.device,
        )

    def breakdown(self, ctx: PlacementContext, device: Backend) -> Dict[str, float]:
        detail = {"estimated_fidelity": self.estimated_fidelity(ctx, device)}
        if self._queue_weight:
            detail["predicted_wait_s"] = ctx.wait_for(device.name)
        return detail


@register_policy(
    "queue-aware",
    description="fidelity traded against queueing delay (Ravi et al. style scheduler)",
)
def queue_aware_policy(
    estimator: str = "esp",
    queue_weight: float = 0.3,
    wait_scale_s: float = 600.0,
    canary_shots: int = 256,
    seed: SeedLike = None,
) -> FidelityPlacementPolicy:
    """The adaptive fidelity/queue trade-off with the default weight 0.3."""
    return FidelityPlacementPolicy(
        estimator=estimator,
        queue_weight=queue_weight,
        wait_scale_s=wait_scale_s,
        canary_shots=canary_shots,
        seed=seed,
    )


@register_policy(
    "threshold-fidelity",
    description="Clifford-canary distance to the job's requested fidelity (meta server ranking)",
)
class ThresholdFidelityPolicy(_FidelityEstimateMixin, PlacementPolicy):
    """Score devices by distance to the job's fidelity requirement.

    The meta server's fidelity ranking (Section 3.4.1): a fidelity deficit
    counts at full weight, a surplus at ``surplus_weight``, so the scheduler
    hands out the device that most closely satisfies the request instead of
    always consuming the best device in the cluster.  With the paper's
    evaluation setting (requested fidelity 1.0) the score reduces to
    ``1 - fidelity``.
    """

    def __init__(
        self,
        estimator: str = "canary",
        surplus_weight: float = SURPLUS_WEIGHT,
        canary_shots: int = DEFAULT_CANARY_SHOTS,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(estimator, canary_shots, seed)
        if surplus_weight < 0:
            raise SchedulingError("surplus_weight must be non-negative")
        self._surplus_weight = surplus_weight

    @property
    def name(self) -> str:
        return f"threshold-fidelity[{self._estimator_kind}]"

    def score(self, ctx: PlacementContext, device: Backend) -> float:
        fidelity = self.estimated_fidelity(ctx, device)
        deficit = max(0.0, ctx.fidelity_threshold - fidelity)
        surplus = max(0.0, fidelity - ctx.fidelity_threshold)
        return deficit + self._surplus_weight * surplus

    def breakdown(self, ctx: PlacementContext, device: Backend) -> Dict[str, float]:
        return {
            "estimated_fidelity": self.estimated_fidelity(ctx, device),
            "required_fidelity": ctx.fidelity_threshold,
        }


@register_policy(
    "pinned",
    description="force placement onto one named device (shard/affinity routing)",
)
class PinnedDevicePolicy(PlacementPolicy):
    """Force placement onto one named device.

    The device-affinity escape hatch: every other device is filtered out, so
    the job lands on the pinned device when it passes the engine's normal
    feasibility checks, and fails with *no feasible device* otherwise.  The
    sharded dispatcher (:class:`~repro.service.ShardedService`) routes
    pinned jobs to the shard owning the device instead of hashing the
    tenant, and the concurrency benchmarks use pinning to hold routing
    constant while varying the execution topology.
    """

    def __init__(self, device: str = "") -> None:
        if not device:
            raise SchedulingError("pinned policy needs a device name (pinned:device=NAME)")
        self._device = str(device)

    @property
    def name(self) -> str:
        return f"pinned[{self._device}]"

    @property
    def device(self) -> str:
        """The pinned device name."""
        return self._device

    def filter(self, ctx: PlacementContext, device: Backend) -> Tuple[bool, str]:
        feasible, reason = super().filter(ctx, device)
        if not feasible:
            return feasible, reason
        if device.name != self._device:
            return False, f"job is pinned to device '{self._device}'"
        return True, "feasible"

    def score(self, ctx: PlacementContext, device: Backend) -> float:
        return 0.0


@register_policy(
    "topology",
    description="Mapomatic-style embedding cost of the job's topology request",
)
class TopologyPlacementPolicy(PlacementPolicy):
    """Score devices by how well they host the requested interaction topology.

    The meta server's topology ranking (Section 3.4.2): the topology circuit
    is matched against each device's coupling map and the score is the
    error cost of the best embedding.  Devices with no embedding at all are
    filtered out (the meta server reports them as
    :data:`~repro.policies.INFEASIBLE_SCORE`).
    """

    def __init__(self, max_embeddings: int = 100, seed: SeedLike = None) -> None:
        if max_embeddings <= 0:
            raise SchedulingError("max_embeddings must be positive")
        self._max_embeddings = max_embeddings
        self._seed = seed
        self._matches: Dict[Tuple[object, str, int], Optional[object]] = {}

    @property
    def name(self) -> str:
        return "topology"

    def _match(self, ctx: PlacementContext, device: Backend):
        key = (ctx.topology_edges, device.name, ctx.calibration_epoch)
        if key not in self._matches:
            self._matches[key] = match_device(
                ctx.topology_circuit(),
                device,
                max_embeddings=self._max_embeddings,
                seed=self._seed,
            )
        return self._matches[key]

    def filter(self, ctx: PlacementContext, device: Backend) -> Tuple[bool, str]:
        feasible, reason = super().filter(ctx, device)
        if not feasible:
            return feasible, reason
        if self._match(ctx, device) is None:
            return False, "no embedding of the requested topology fits the device"
        return True, "feasible"

    def score(self, ctx: PlacementContext, device: Backend) -> float:
        return self._match(ctx, device).score

    def layout_for(self, ctx: PlacementContext, device: Backend) -> Optional[Dict[int, int]]:
        """Best embedding layout found on ``device`` (``None`` if infeasible)."""
        match = self._match(ctx, device)
        return None if match is None else match.layout

    def breakdown(self, ctx: PlacementContext, device: Backend) -> Dict[str, float]:
        match = self._match(ctx, device)
        return {"exact_embedding": float(bool(match.exact))} if match is not None else {}
