"""Golden values of the Fig. 6, Fig. 7 and Figs. 8/9 drivers at ``quick_config()``.

The drivers rank through the registry placement policies
(``TopologyPlacementPolicy``, ``ThresholdFidelityPolicy`` and, for the
baselines, ``RandomPlacementPolicy``).  These rows were recorded when each
driver still ran its own filter → score → argmin loop and random draw; a
changed score, tie-break, candidate order or RNG draw moves at least one.
Every run starts on cold caches: canary ideal distributions are shared
process-wide regardless of seed, so a warm cache yields other, equally
valid, values.
"""

import pytest

from repro.core.cache import clear_all_caches
from repro.experiments import quick_config, run_fig6, run_fig7, run_fig8_9
from repro.workloads import evaluation_workload

GOLDEN_FIG6 = [
    {
        "topology": "grid",
        "label": "Grid",
        "qrio_device": "sim_q20_c10",
        "qrio_score": 0.31745605094865015,
        "average_random_score": 1.4190170386188712,
        "average_decrease": 1.101560987670221,
        "repetitions": 5,
    },
    {
        "topology": "heavy_square",
        "label": "Heavy Square",
        "qrio_device": "sim_q20_c10",
        "qrio_score": 0.5775809805322454,
        "average_random_score": 3.24378670441656,
        "average_decrease": 2.6662057238843144,
        "repetitions": 5,
    },
    {
        "topology": "fully_connected",
        "label": "Fully Connected",
        "qrio_device": "sim_q20_c10",
        "qrio_score": 2.285880225037995,
        "average_random_score": 18.042032276017665,
        "average_decrease": 15.756152050979669,
        "repetitions": 5,
    },
    {
        "topology": "line",
        "label": "Line",
        "qrio_device": "sim_q20_c10",
        "qrio_score": 0.5421177167961482,
        "average_random_score": 1.2333563926687767,
        "average_decrease": 0.6912386758726285,
        "repetitions": 5,
    },
    {
        "topology": "ring",
        "label": "Ring",
        "qrio_device": "sim_q20_c10",
        "qrio_score": 0.6518872371421846,
        "average_random_score": 2.8996871955225894,
        "average_decrease": 2.247799958380405,
        "repetitions": 5,
    },
]

GOLDEN_FIG8_9 = {
    "selections": {"device_tree": 5, "device_ring": 0, "device_line": 0},
    "scores": {"device_tree": 0.6500000000000001, "device_ring": 1.7000000000000004, "device_line": 1.7000000000000004},
    "chosen_device": "device_tree",
    "repetitions": 5,
    "always_same_choice": True,
}

GOLDEN_FIG7 = [
    {
        "workload": "rep",
        "label": "Rep",
        "oracle": 0.6796875,
        "clifford": 0.6796875,
        "random": 0.04687499999999999,
        "average": 0.228125,
        "median": 0.16015625,
        "oracle_device": "sim_q20_c10",
        "clifford_device": "sim_q20_c10",
        "random_device": "sim_q95_c10",
    },
    {
        "workload": "grover",
        "label": "Grover",
        "oracle": 0.7131129908892998,
        "clifford": 0.5398876681450998,
        "random": 0.5868845622407867,
        "average": 0.5559172029669788,
        "median": 0.5488564121741693,
        "oracle_device": "sim_q60_c10",
        "clifford_device": "sim_q20_c10",
        "random_device": "sim_q100_c10",
    },
    {
        "workload": "bv",
        "label": "Bv",
        "oracle": 0.28124999999999994,
        "clifford": 0.28124999999999994,
        "random": 0.007812500000000002,
        "average": 0.03732638888888888,
        "median": 0.0,
        "oracle_device": "sim_q20_c10",
        "clifford_device": "sim_q20_c10",
        "random_device": "sim_q60_c10",
    },
]

#: Fig. 7 fidelities summing three or more nonzero Hellinger terms.
#: ``hellinger_fidelity`` adds them in ``set`` order, which follows the
#: per-process string-hash salt, so they can move in the last bits between
#: interpreter runs (the values above are from ``PYTHONHASHSEED=0``).
HASH_ORDER_SENSITIVE = {"grover"}


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_all_caches()


def test_fig6_rows_match_the_goldens():
    assert [row.as_dict() for row in run_fig6(quick_config()).rows] == GOLDEN_FIG6


def test_fig8_9_result_matches_the_golden():
    assert run_fig8_9(quick_config()).as_dict() == GOLDEN_FIG8_9


def test_fig7_rows_match_the_goldens():
    workloads = [evaluation_workload(key) for key in ("rep", "grover", "bv")]
    rows = [row.as_dict() for row in run_fig7(quick_config(), workloads=workloads).rows]
    assert [row["workload"] for row in rows] == [row["workload"] for row in GOLDEN_FIG7]
    for actual, expected in zip(rows, GOLDEN_FIG7):
        if actual["workload"] in HASH_ORDER_SENSITIVE:
            assert actual == pytest.approx(expected, rel=1e-13, abs=0.0)
        else:
            assert actual == expected
