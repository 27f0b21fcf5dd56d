"""Acceptance: one registered policy runs identically under all three engines.

The unified-API contract of the redesign: a policy addressed by registry
name (or passed as an instance) routes a job through
:meth:`~repro.service.QRIOService.submit` under the orchestrator, cluster
and cloud engines with consistent, explainable
:class:`~repro.policies.PlacementDecision`\\ s — and each engine's native
path keeps working when no policy is named.
"""

import pytest

from repro.backends import generate_fleet
from repro.circuits import ghz
from repro.cloud.simulation import CloudSimulationConfig
from repro.policies import (
    PlacementDecision,
    PlacementPolicy,
    Pipeline,
    RoundRobinPlacementPolicy,
    resolve_policy,
)
from repro.service import (
    CloudEngine,
    ClusterEngine,
    JobRequirements,
    OrchestratorEngine,
    QRIOService,
)
from repro.utils.exceptions import JobFailedError, ServiceError


def _engines():
    return {
        "orchestrator": OrchestratorEngine(seed=7, canary_shots=64),
        "cluster": ClusterEngine(seed=7, canary_shots=64),
        "cloud": CloudEngine(config=CloudSimulationConfig(fidelity_report="esp", seed=7)),
    }


class TestOnePolicyThreeEngines:
    def test_same_policy_same_decision_under_every_engine(self):
        fleet = generate_fleet(limit=6, seed=3)
        outcomes = {}
        for label, engine in _engines().items():
            service = QRIOService(fleet, engine)
            handle = service.submit(
                ghz(4), JobRequirements(fidelity_threshold=0.9, policy="fidelity"), shots=64
            )
            result = handle.result()
            decision = handle.status().detail.get("decision")
            assert isinstance(decision, PlacementDecision), label
            assert decision.scheduled and decision.device == result.device
            assert decision.num_feasible == 6
            assert decision.policy.startswith("fidelity")
            assert "estimated_fidelity" in decision.ranked[0].detail
            assert result.device in decision.explain()
            outcomes[label] = (result.device, decision.score)
        # Consistent: the same registered policy picks the same device with
        # the same score whichever engine runs it.
        assert len(set(outcomes.values())) == 1, outcomes

    def test_policy_instance_accepted_everywhere(self):
        fleet = generate_fleet(limit=4, seed=3)
        policy = resolve_policy("fidelity:seed=5")
        devices = set()
        for engine in _engines().values():
            service = QRIOService(fleet, engine)
            result = service.submit(ghz(3), 0.9, shots=32, policy=policy).result()
            devices.add(result.device)
        assert len(devices) == 1

    def test_engine_level_default_policy(self):
        fleet = generate_fleet(limit=4, seed=3)
        via_engine = QRIOService(fleet, ClusterEngine(seed=7, canary_shots=64, policy="fidelity"))
        via_job = QRIOService(fleet, ClusterEngine(seed=7, canary_shots=64))
        a = via_engine.submit(ghz(3), 0.9, shots=32).result()
        b = via_job.submit(ghz(3), 0.9, shots=32, policy="fidelity").result()
        assert a.device == b.device
        assert a.score == pytest.approx(b.score)

    def test_pipeline_composition_under_an_engine(self):
        fleet = generate_fleet(limit=4, seed=3)
        pipe = Pipeline(
            scorers=[resolve_policy("fidelity:seed=5"), resolve_policy("least-loaded")],
            weights=[1.0, 0.1],
            name="fidelity+load",
        )
        service = QRIOService(fleet, OrchestratorEngine(seed=7, canary_shots=64))
        handle = service.submit(ghz(3), 0.9, shots=32, policy=pipe)
        result = handle.result()
        decision = handle.status().detail["decision"]
        assert decision.policy == "fidelity+load"
        assert result.device == decision.device

    def test_custom_policy_is_a_small_subclass(self):
        """The ≤50-line promise: a working custom policy is a tiny class."""

        class SmallestFit(PlacementPolicy):
            def score(self, ctx, device):
                return float(device.num_qubits)

        fleet = generate_fleet(limit=5, seed=3)
        service = QRIOService(fleet, ClusterEngine(seed=7, canary_shots=64))
        result = service.submit(ghz(3), 0.9, shots=32, policy=SmallestFit()).result()
        feasible = [b for b in fleet if b.num_qubits >= 3]
        expected = min(feasible, key=lambda b: (b.num_qubits, b.name))
        assert result.device == expected.name


class TestFidelityCacheReuse:
    def test_repeat_submissions_share_fidelity_estimates(self):
        """The engine cache is keyed by circuit structure, not job name."""
        fleet = generate_fleet(limit=4, seed=3)
        engine = ClusterEngine(seed=7, canary_shots=64)
        service = QRIOService(fleet, engine)
        service.submit(ghz(3), 0.9, shots=32, policy="fidelity").result()
        entries_after_first = len(engine._policy_fidelity_cache)
        assert entries_after_first > 0
        service.submit(ghz(3), 0.9, shots=32, policy="fidelity").result()
        assert len(engine._policy_fidelity_cache) == entries_after_first


class TestPolicyJobRequirements:
    def test_requirements_policy_validation(self):
        with pytest.raises(ServiceError):
            JobRequirements(policy=123)
        with pytest.raises(ServiceError):
            JobRequirements(policy="  ")

    def test_conflicting_policy_arguments_raise(self):
        fleet = generate_fleet(limit=3, seed=3)
        service = QRIOService(fleet, ClusterEngine(seed=7, canary_shots=64))
        requirements = JobRequirements(fidelity_threshold=0.9, policy="fidelity")
        with pytest.raises(ServiceError, match="Conflicting"):
            service.submit(ghz(3), requirements, shots=32, policy="random")

    def test_policy_is_part_of_the_dedup_key(self):
        a = JobRequirements(fidelity_threshold=0.9, policy="fidelity")
        b = JobRequirements(fidelity_threshold=0.9, policy="random")
        assert a != b

    def test_unknown_policy_fails_the_job_with_suggestion(self):
        fleet = generate_fleet(limit=3, seed=3)
        service = QRIOService(fleet, ClusterEngine(seed=7, canary_shots=64))
        handle = service.submit(ghz(3), 0.9, shots=32, policy="fidelty")
        service.process()
        assert handle.failed
        with pytest.raises(JobFailedError, match="did you mean"):
            handle.result()

    def test_requirement_filters_still_bind_under_a_policy(self):
        """User device bounds reject devices before the policy ever sees them."""
        fleet = generate_fleet(limit=6, seed=3)
        service = QRIOService(fleet, OrchestratorEngine(seed=7, canary_shots=64))
        handle = service.submit(
            ghz(3),
            JobRequirements(max_avg_two_qubit_error=1e-6, policy="fidelity"),
            shots=32,
        )
        service.process()
        assert handle.failed
        decision = handle.status().detail.get("decision")
        assert decision is not None and not decision.scheduled
        assert len(decision.rejected) == 6


class TestLegacyPathsUntouched:
    def test_native_routing_unchanged_without_a_policy(self):
        fleet = generate_fleet(limit=4, seed=3)
        for engine in _engines().values():
            service = QRIOService(fleet, engine)
            result = service.submit(ghz(3), 0.9, shots=32).result()
            assert result.device is not None

    def test_cloud_engine_still_accepts_legacy_allocation_policies(self):
        """The cloud layer's former allocation policies now come as registry instances."""
        fleet = generate_fleet(limit=4, seed=3)
        engine = CloudEngine(
            policy=RoundRobinPlacementPolicy(),
            config=CloudSimulationConfig(fidelity_report="none", seed=7),
        )
        service = QRIOService(fleet, engine)
        handles = [service.submit(ghz(3), 0.5, shots=32 + i) for i in range(4)]
        service.process()
        devices = [handle.result().device for handle in handles]
        assert len(set(devices)) == len([b for b in fleet if b.num_qubits >= 3]) or len(set(devices)) > 1
