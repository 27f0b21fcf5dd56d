"""Golden routing of the cloud-facing registry policies, plus score parity.

The cloud simulator runs :class:`~repro.policies.PlacementPolicy` objects
directly.  These pins hold the routing it produced before that change: the
device and wait of every job of a 20-job trace under each of the five
cloud policy specs, and every number of the ``cloud-policies`` experiment
(60 jobs, 8 devices, default seed).  A changed feasibility set, RNG draw or
tie-break moves at least one of them.  The meta server's two rankings,
``threshold-fidelity`` and ``topology``, are pinned by golden scores
recorded when the meta server still carried its own copy of each.
"""

import pytest

from repro.backends import generate_fleet, three_device_testbed
from repro.backends.fleet import generate_device
from repro.circuits import bernstein_vazirani, ghz
from repro.cloud.simulation import CloudSimulationConfig, CloudSimulator
from repro.core.cache import clear_all_caches
from repro.core.visualizer import TopologyCanvas
from repro.experiments.cloud_policies import run_cloud_policy_comparison
from repro.policies import PlacementContext, resolve_policy
from repro.policies.builtin import ThresholdFidelityPolicy, TopologyPlacementPolicy
from repro.scenarios.arrivals import JobRequest


def twenty_job_trace():
    """The pinned 20-job trace every cloud policy spec must route as recorded."""
    circuits = [ghz(4), bernstein_vazirani("101"), ghz(5), ghz(3)]
    return [
        JobRequest(
            index=index,
            arrival_time=float(index) * 2.0,
            workload_key=f"w{index % 4}",
            circuit=circuits[index % 4],
            strategy="fidelity",
            fidelity_threshold=0.0,
            shots=128,
            user=f"user-{index % 3}",
        )
        for index in range(20)
    ]


#: Registry spec -> (device per job, wait per job) on ``twenty_job_trace()``
#: over ``generate_fleet(limit=6, seed=3)``.
GOLDEN_ROUTING = {
    "random:seed=11": (
        [
            "sim_q20_c10", "sim_q20_c10", "sim_q5_c10", "sim_q35_c10", "sim_q50_c10",
            "sim_q50_c10", "sim_q5_c10", "sim_q20_c10", "sim_q35_c10", "sim_q20_c10",
            "sim_q35_c10", "sim_q60_c10", "sim_q50_c10", "sim_q20_c10", "sim_q50_c10",
            "sim_q20_c10", "sim_q5_c10", "sim_q60_c10", "sim_q60_c10", "sim_q50_c10",
        ],
        [
            0.0, 38.000541456, 0.0, 0.0, 0.0, 53.00050368, 24.500623392, 66.001051264,
            37.50046528, 102.00155144, 81.00096896, 0.0, 94.00097792, 134.002061248,
            145.0014816, 170.002571056, 37.001246784, 48.00046528, 106.00093952, 190.00202368,
        ],
    ),
    "round-robin": (
        [
            "sim_q20_c10", "sim_q27_c10", "sim_q35_c10", "sim_q50_c10", "sim_q5_c10",
            "sim_q60_c10", "sim_q20_c10", "sim_q27_c10", "sim_q35_c10", "sim_q50_c10",
            "sim_q5_c10", "sim_q60_c10", "sim_q20_c10", "sim_q27_c10", "sim_q35_c10",
            "sim_q50_c10", "sim_q5_c10", "sim_q60_c10", "sim_q20_c10", "sim_q27_c10",
        ],
        [
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 28.000541456, 31.500474240000003, 35.50054208,
            43.00046528, 20.500579232, 48.00047424, 56.00112419199999, 63.00093952,
            71.00104576000001, 86.00093952, 41.001202624, 96.00093952, 84.001665648,
            94.50141375999999,
        ],
    ),
    "least-loaded": (
        [
            "sim_q20_c10", "sim_q27_c10", "sim_q35_c10", "sim_q50_c10", "sim_q5_c10",
            "sim_q60_c10", "sim_q20_c10", "sim_q5_c10", "sim_q27_c10", "sim_q35_c10",
            "sim_q50_c10", "sim_q60_c10", "sim_q5_c10", "sim_q20_c10", "sim_q27_c10",
            "sim_q35_c10", "sim_q5_c10", "sim_q50_c10", "sim_q20_c10", "sim_q60_c10",
        ],
        [
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 28.000541456, 26.500579232, 29.500474240000003,
            33.50054208, 41.00046528, 48.00047424, 49.001114304, 54.00112419199999,
            61.00097792, 69.00101632, 73.501693536, 82.00100736, 84.001634, 92.00093952,
        ],
    ),
    "fidelity:seed=5": (
        [
            "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10",
            "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10",
            "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10",
            "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10",
        ],
        [
            0.0, 41.50050368, 83.00097792, 124.50152, 166.00198527999999, 207.50248896,
            249.0029632, 290.50350528, 332.00397056, 373.50447424000004, 415.00494848000005,
            456.50549056000006, 498.00595584000007, 539.50645952, 581.00693376,
            622.5074758400001, 664.00794112, 705.5084448, 747.00891904, 788.50946112,
        ],
    ),
    "fidelity:queue_weight=0.3,seed=5": (
        [
            "sim_q27_c10", "sim_q27_c10", "sim_q60_c10", "sim_q27_c10", "sim_q27_c10",
            "sim_q27_c10", "sim_q60_c10", "sim_q27_c10", "sim_q27_c10", "sim_q27_c10",
            "sim_q60_c10", "sim_q60_c10", "sim_q27_c10", "sim_q27_c10", "sim_q60_c10",
            "sim_q60_c10", "sim_q27_c10", "sim_q27_c10", "sim_q35_c10", "sim_q60_c10",
        ],
        [
            0.0, 41.50050368, 0.0, 81.00097792, 122.50144319999998, 164.00194688, 52.00054208,
            203.50242112, 245.00288640000002, 286.50339008000003, 104.00108416, 162.00162624,
            324.00386432000005, 365.50436800000006, 216.00209152000002, 274.0026336,
            403.0048422400001, 444.5053459200001, 0.0, 326.00309888000004,
        ],
    ),
}


#: Every numeric field of every ``run_cloud_policy_comparison()`` row.
GOLDEN_ROWS = {
    "random": {
        "mean_wait_s": 21.21369031302991,
        "p95_wait_s": 109.97832965123484,
        "mean_fidelity": 0.03359357617826968,
        "fairness": 0.7093712829882605,
        "makespan_s": 639.1180176080017,
        "busiest_device_share": 0.2,
    },
    "round-robin": {
        "mean_wait_s": 0.003632402099465063,
        "p95_wait_s": 0.0,
        "mean_fidelity": 0.02739658147154542,
        "fairness": 0.9999650428632056,
        "makespan_s": 616.2038326746322,
        "busiest_device_share": 0.13333333333333333,
    },
    "least-loaded": {
        "mean_wait_s": 0.003632402099465063,
        "p95_wait_s": 0.0,
        "mean_fidelity": 0.027295035175550302,
        "fairness": 0.9999650428632056,
        "makespan_s": 613.7038326746322,
        "busiest_device_share": 0.21666666666666667,
    },
    "fidelity[esp]": {
        "mean_wait_s": 371.646199977025,
        "p95_wait_s": 979.7979801090257,
        "mean_fidelity": 0.06550530012162528,
        "fairness": 0.8688825109521185,
        "makespan_s": 1639.6413391962244,
        "busiest_device_share": 0.7166666666666667,
    },
    "fidelity[esp, queue_weight=0.3]": {
        "mean_wait_s": 25.349462498065524,
        "p95_wait_s": 124.64064998793117,
        "mean_fidelity": 0.062289753672551317,
        "fairness": 0.8865071649452592,
        "makespan_s": 735.0439852637404,
        "busiest_device_share": 0.3,
    },
}


#: The five cloud policy specs, in roster order.
PINNED_SPECS = list(GOLDEN_ROUTING)


class TestCloudPolicyEquivalence:
    @pytest.mark.parametrize("spec", PINNED_SPECS)
    def test_ported_policy_routes_identically(self, spec):
        fleet = generate_fleet(limit=6, seed=3)
        config = CloudSimulationConfig(fidelity_report="none", seed=7)
        result = CloudSimulator(fleet, resolve_policy(spec), config=config).run(twenty_job_trace())
        devices, waits = GOLDEN_ROUTING[spec]
        assert [record.device for record in result.records] == devices
        assert [record.wait_time for record in result.records] == pytest.approx(waits, rel=1e-12, abs=1e-12)

    def test_cloud_policy_rows_match_the_pinned_numbers(self):
        rows = {row.policy: row.as_dict() for row in run_cloud_policy_comparison().rows}
        assert list(rows) == list(GOLDEN_ROWS)
        for policy, expected in GOLDEN_ROWS.items():
            actual = {key: value for key, value in rows[policy].items() if key != "policy"}
            assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12), policy

    @pytest.mark.parametrize(
        "spec, devices",
        [
            ("fidelity:seed=5", ["twin_b"] * 20),
            ("fidelity:queue_weight=0.3,seed=5", ["twin_b", "twin_a"] * 10),
        ],
    )
    def test_fidelity_ties_break_toward_the_largest_name(self, spec, devices):
        # Two devices with identical calibration tie on every fidelity score.
        twins = [generate_device(6, 0.5, seed=1, name=name) for name in ("twin_a", "twin_b")]
        config = CloudSimulationConfig(fidelity_report="none", seed=7)
        result = CloudSimulator(twins, resolve_policy(spec), config=config).run(twenty_job_trace())
        assert [record.device for record in result.records] == devices


class TestMetaServerRankingGoldens:
    """Scores on ``three_device_testbed()``, recorded on cold caches."""

    FIDELITY_SCORES = {
        "device_tree": 0.02524523084405339,
        "device_ring": 0.05900615200434933,
        "device_line": 0.01758005841182253,
    }
    TOPOLOGY_SCORES = {
        "device_tree": 0.22999999999999998,
        "device_ring": 0.22999999999999998,
        "device_line": 0.22999999999999998,
    }

    def test_threshold_fidelity_scores_match_the_goldens(self):
        clear_all_caches()
        fleet = three_device_testbed()
        policy = ThresholdFidelityPolicy(estimator="canary", canary_shots=128, seed=13)
        ctx = PlacementContext(fleet=fleet, circuit=ghz(3), fidelity_threshold=0.9)
        assert {backend.name: policy.score(ctx, backend) for backend in fleet} == self.FIDELITY_SCORES

    def test_threshold_fidelity_picks_the_closest_match(self):
        clear_all_caches()
        policy = ThresholdFidelityPolicy(estimator="canary", canary_shots=128, seed=13)
        decision = policy.decide(
            PlacementContext(fleet=three_device_testbed(), circuit=ghz(3), fidelity_threshold=0.9)
        )
        assert decision.scores == self.FIDELITY_SCORES
        assert decision.device == "device_line"

    def test_topology_scores_match_the_goldens(self):
        fleet = three_device_testbed()
        policy = TopologyPlacementPolicy(seed=5)
        ctx = PlacementContext(
            fleet=fleet,
            strategy="topology",
            topology_edges=((0, 1), (1, 2), (2, 3)),
            required_qubits=4,
        )
        assert all(policy.filter(ctx, backend)[0] for backend in fleet)
        assert {backend.name: policy.score(ctx, backend) for backend in fleet} == self.TOPOLOGY_SCORES
