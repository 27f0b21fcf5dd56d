#!/usr/bin/env python3
"""Two fidelity estimators against the fidelity a device actually achieves.

The paper argues that "simplistic analytical methods" of fidelity estimation
fail as devices grow, and ranks devices by Clifford canaries instead.  This
example scores one GHZ job on three devices with different noise profiles
with the analytic ESP (the product of gate and readout success rates) and
with the Clifford-canary protocol, next to the fidelity of the job's own
noisy run against its ideal distribution, and prints the device each column
would pick.

Run with:  python examples/fidelity_estimators.py
"""

from repro.backends import named_topology_device
from repro.circuits import ghz
from repro.fidelity import CliffordCanaryEstimator, ESPEstimator, achieved_fidelity


def build_fleet():
    """Three devices with different noise profiles (one readout-limited)."""
    return [
        named_topology_device(
            "grid", 9, two_qubit_error=0.03, one_qubit_error=0.004, readout_error=0.02, name="balanced_grid"
        ),
        named_topology_device(
            "line", 9, two_qubit_error=0.12, one_qubit_error=0.02, readout_error=0.05, name="noisy_line"
        ),
        named_topology_device(
            "ring", 9, two_qubit_error=0.02, one_qubit_error=0.003, readout_error=0.15, name="readout_limited_ring"
        ),
    ]


def main() -> None:
    fleet = build_fleet()
    circuit = ghz(5)
    esp = ESPEstimator(seed=3)
    canary = CliffordCanaryEstimator(shots=512, seed=3)

    scores = {"ESP": {}, "canary": {}, "achieved": {}}
    print(f"{'device':<22} {'ESP':>8} {'canary':>8} {'achieved':>9}")
    for device in fleet:
        scores["ESP"][device.name] = esp.estimate(circuit, device).esp
        scores["canary"][device.name] = canary.estimate(circuit, device).canary_fidelity
        scores["achieved"][device.name] = achieved_fidelity(circuit, device, shots=1024, seed=5)
        print(
            f"{device.name:<22} "
            f"{scores['ESP'][device.name]:>8.3f} "
            f"{scores['canary'][device.name]:>8.3f} "
            f"{scores['achieved'][device.name]:>9.3f}"
        )
    print()
    for column, by_device in scores.items():
        print(f"{column:<9} picks {max(by_device, key=by_device.get)}")


if __name__ == "__main__":
    main()
