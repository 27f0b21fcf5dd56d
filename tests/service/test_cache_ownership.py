"""Two services in one process do not share seeded or stateful caches.

Each engine keeps its own execution plans and each canary estimator its own
ideal counts; only the VF2 enumeration and embedding scores are shared, and
their keys cover every input they read.  So a service's results cannot
depend on another service that ran earlier in the same process.
"""

from repro.backends import generate_fleet, three_device_testbed
from repro.circuits import bernstein_vazirani, ghz
from repro.service import JobRequirements, OrchestratorEngine, QRIOService
from repro.utils.cache import clear_all_caches


def _workload():
    return [
        (ghz(3), 0.9),
        (bernstein_vazirani("101"), 0.9),
        (ghz(4), JobRequirements(topology_edges=((0, 1), (1, 2), (2, 3)))),
        (ghz(3), 0.9),
    ]


def _run(fleet, engine):
    service = QRIOService(fleet, engine)
    results = [
        service.submit(circuit, requirements, shots=128, name=f"job-{index}").result()
        for index, (circuit, requirements) in enumerate(_workload())
    ]
    return [
        (
            result.device,
            result.score,
            result.counts,
            result.detail["plan_replay"],
            dict(result.detail.get("scores", {})),
        )
        for result in results
    ]


def _second_fleet():
    return [backend for backend in generate_fleet(limit=8, seed=11) if backend.num_qubits >= 5][:3]


def test_second_service_equals_itself_run_alone():
    clear_all_caches()
    alone = _run(_second_fleet(), OrchestratorEngine(seed=2, canary_shots=64))
    clear_all_caches()
    _run(three_device_testbed(), OrchestratorEngine(seed=1, canary_shots=64))
    after_first = _run(_second_fleet(), OrchestratorEngine(seed=2, canary_shots=64))
    assert after_first == alone
