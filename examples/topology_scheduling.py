#!/usr/bin/env python3
"""Topology-requirement based resource allocation (paper use-case 3).

A user who knows which hardware connectivity suits their application draws it
on the visualizer's canvas; QRIO converts the drawing into a topology circuit
(one CNOT per drawn interaction) and uses subgraph-isomorphism scoring to find
the registered device that most resembles the request.  This reproduces the
Figs. 8/9 scenario: three 10-qubit devices (tree, ring, line) with identical
error rates, and a user who draws a tree.

Run with:  python examples/topology_scheduling.py
"""

from repro import QRIO, three_device_testbed
from repro.circuits import ghz
from repro.experiments.fig8_9 import USER_TREE_EDGES
from repro.matching import rank_devices, topology_as_graph

#: One seed for the whole demo, so every printed number repeats run to run.
SEED = 17


def main() -> None:
    qrio = QRIO(cluster_name="topology-demo", seed=SEED)
    devices = three_device_testbed(num_qubits=10)
    qrio.register_devices(devices)
    print(qrio.render_dashboard())
    print()

    # The user draws a tree-like topology on the canvas.
    canvas = qrio.new_topology_canvas(10)
    for edge in USER_TREE_EDGES:
        canvas.draw_edge(*edge)
    print(canvas.render())
    print()

    # Submit a job (a GHZ-10 circuit) with that topology requirement.
    form = (
        qrio.new_submission_form()
        .choose_circuit(ghz(10))
        .set_job_details("topology-demo-job", "qrio/topology-demo", num_qubits=10, shots=512)
        .request_topology(canvas)
    )
    outcome = qrio.submit_and_run(form)
    print(f"Scheduler selected: {outcome.device} (score {outcome.score:.3f})")
    print(f"Job phase:          {outcome.job.phase.value}")
    print()

    # Show the full ranking the meta server produced.  The greedy fallback
    # embedding of the inexact matches is randomised, so it takes the seed.
    pattern = topology_as_graph(10, USER_TREE_EDGES)
    print("Topology match ranking (lower score = closer match):")
    for match in rank_devices(pattern, devices, seed=SEED):
        marker = " <-- chosen" if match.device == outcome.device else ""
        print(f"  {match.device:<14s} score {match.score:6.3f} exact={match.exact}{marker}")


if __name__ == "__main__":
    main()
