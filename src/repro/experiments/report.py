"""Rendering experiment results as the rows/series the paper reports."""

from __future__ import annotations

from typing import Dict

from repro.experiments.fig6 import Fig6Result
from repro.experiments.fig7 import Fig7Result
from repro.experiments.fig8_9 import Fig89Result
from repro.experiments.fig10 import Fig10Result

#: The values read off the paper's figures, used for side-by-side reporting.
PAPER_FIG6_DECREASES: Dict[str, float] = {
    "Grid": 16.76,
    "Heavy Square": 14.72,
    "Fully Connected": 26.76,
    "Line": 11.95,
    "Ring": 8.3,
}

PAPER_FIG10_COUNTS: Dict[float, int] = {
    0.07: 0,
    0.68: 100,
}


def render_fig6(result: Fig6Result) -> str:
    """Fig. 6 as a text table: average decrease of QRIO's score vs random."""
    lines = [
        "Fig. 6 — Average decrease in score of QRIO scheduler vs random scheduler",
        f"({result.config_description})",
        f"{'Topology':<16s} {'QRIO score':>11s} {'Random avg':>11s} {'Decrease':>9s} {'Paper':>7s}",
    ]
    for row in result.rows:
        paper = PAPER_FIG6_DECREASES.get(row.label)
        paper_text = f"{paper:7.2f}" if paper is not None else "    n/a"
        lines.append(
            f"{row.label:<16s} {row.qrio_score:>11.3f} {row.average_random_score:>11.3f} "
            f"{row.average_decrease:>9.3f} {paper_text}"
        )
    return "\n".join(lines)


def render_fig7(result: Fig7Result) -> str:
    """Fig. 7 as a text table: achieved fidelity per policy and workload."""
    lines = [
        "Fig. 7 — Achieved fidelity for user circuits (demanded fidelity 100%)",
        f"({result.config_description})",
        f"{'Workload':<9s} {'Oracle':>7s} {'Clifford':>9s} {'Random':>7s} {'Average':>8s} {'Median':>7s}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.label:<9s} {row.oracle:>7.3f} {row.clifford:>9.3f} {row.random:>7.3f} "
            f"{row.average:>8.3f} {row.median:>7.3f}"
        )
    return "\n".join(lines)


def render_fig8_9(result: Fig89Result) -> str:
    """Figs. 8/9 as text: per-device selections and scores."""
    lines = [
        "Figs. 8/9 — Device choice for the user-drawn tree topology",
        f"({result.config_description})",
        f"Chosen device: {result.chosen_device} "
        f"({result.selections[result.chosen_device]}/{result.repetitions} repetitions"
        f"{', every run' if result.always_same_choice else ''})",
        f"{'Device':<16s} {'Selections':>10s} {'Score':>9s}",
    ]
    for device in sorted(result.selections):
        score = result.scores.get(device)
        score_text = f"{score:9.3f}" if score is not None else "      n/a"
        lines.append(f"{device:<16s} {result.selections[device]:>10d} {score_text}")
    return "\n".join(lines)


def render_fig10(result: Fig10Result) -> str:
    """Fig. 10 as a text table: surviving devices per error bound."""
    lines = [
        "Fig. 10 — Number of filtered devices vs. maximum two-qubit error bound",
        f"({result.config_description}; fleet of {result.fleet_size})",
        f"{'Max 2q error':>12s} {'Devices':>8s}",
    ]
    for row in result.rows:
        lines.append(f"{row.max_two_qubit_error:>12.3f} {row.filtered_devices:>8d}")
    lines.append(f"Monotonic: {result.is_monotonic()}")
    return "\n".join(lines)
