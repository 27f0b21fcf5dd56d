"""Ablation — Clifford-canary ranking vs. the analytic ESP estimate.

The paper motivates Clifford canaries by arguing that "simplistic analytical
methods of fidelity estimation fail" as circuits grow.  This ablation compares
the two estimators on the evaluation workloads: for each workload both
estimators rank the fleet, and we measure the fidelity actually achieved on
each estimator's chosen device.  The canary pick should match or beat the ESP
pick on most workloads (they often agree on small circuits; the gap opens when
error structure matters more than raw gate counts).
"""

from __future__ import annotations

from repro.fidelity import ESPEstimator, achieved_fidelity
from repro.policies import PlacementContext, ThresholdFidelityPolicy
from repro.utils.rng import derive_seed
from repro.workloads import evaluation_workloads


def _canary_pick(circuit, fleet, shots, seed):
    policy = ThresholdFidelityPolicy(estimator="canary", canary_shots=shots, seed=seed)
    return policy.decide(PlacementContext(fleet=fleet, circuit=circuit, fidelity_threshold=1.0)).device


def _esp_pick(circuit, fleet, seed):
    estimator = ESPEstimator(seed=seed)
    feasible = [backend for backend in fleet if backend.num_qubits >= circuit.num_qubits]
    return estimator.rank_backends(circuit, feasible)[0].device


def test_ablation_clifford_canary_vs_esp(benchmark, bench_config, bench_fleet):
    """Compare achieved fidelity of the canary pick against the ESP pick."""
    workloads = [w for w in evaluation_workloads() if w.key in ("rep", "grover", "circ")]
    backends_by_name = {backend.name: backend for backend in bench_fleet}

    def run_comparison():
        rows = []
        for workload in workloads:
            circuit = workload.circuit()
            seed = derive_seed(bench_config.seed, "ablation-esp", workload.key)
            canary_device = _canary_pick(circuit, bench_fleet, bench_config.shots, seed)
            esp_device = _esp_pick(circuit, bench_fleet, seed)
            canary_fidelity = achieved_fidelity(
                circuit, backends_by_name[canary_device], shots=bench_config.shots, seed=seed
            )
            esp_fidelity = achieved_fidelity(
                circuit, backends_by_name[esp_device], shots=bench_config.shots, seed=seed
            )
            rows.append((workload.label, canary_device, canary_fidelity, esp_device, esp_fidelity))
        return rows

    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print()
    print(f"{'Workload':<9s} {'Canary pick':<16s} {'fid':>6s}   {'ESP pick':<16s} {'fid':>6s}")
    for label, canary_device, canary_fidelity, esp_device, esp_fidelity in rows:
        print(f"{label:<9s} {canary_device:<16s} {canary_fidelity:>6.3f}   {esp_device:<16s} {esp_fidelity:>6.3f}")
    # The canary-based choice should not be systematically worse than ESP.
    canary_total = sum(row[2] for row in rows)
    esp_total = sum(row[4] for row in rows)
    assert canary_total >= esp_total - 0.15 * len(rows)
