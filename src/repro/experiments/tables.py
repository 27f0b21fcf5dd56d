"""Tables 1 and 2 of the paper, regenerated from the live system.

* Table 1 records which details the visualizer sends to the meta server for
  the two submission options (fidelity vs topology); the rows here are
  produced by actually running the submission workflow and inspecting the
  payloads, so the table stays true to the implementation.
* Table 2 lists the controllable backend parameters of the synthetic fleet;
  the rows come straight from :class:`~repro.backends.FleetSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.backends.fleet import FleetSpec
from repro.circuits.library import ghz
from repro.control.visualizer import JobSubmissionForm, TopologyCanvas


@dataclass
class TableRow:
    """A generic two-column table row."""

    key: str
    value: str


def table1_rows() -> List[TableRow]:
    """Regenerate Table 1 by running both submission workflows."""
    circuit = ghz(4)

    fidelity_form = (
        JobSubmissionForm()
        .choose_circuit(circuit)
        .set_job_details("table1-fidelity", "qrio/table1", num_qubits=4)
        .request_fidelity(0.9)
    )
    fidelity_payload = fidelity_form.submit().as_dict()
    fidelity_fields = sorted(key for key, value in fidelity_payload.items() if value is not None and key != "strategy")

    canvas = TopologyCanvas(4).load_edges([(0, 1), (1, 2), (2, 3)])
    topology_form = (
        JobSubmissionForm()
        .choose_circuit(circuit)
        .set_job_details("table1-topology", "qrio/table1", num_qubits=4)
        .request_topology(canvas)
    )
    topology_payload = topology_form.submit().as_dict()
    topology_fields = sorted(key for key, value in topology_payload.items() if value is not None and key != "strategy")

    return [
        TableRow(key="Fidelity", value=", ".join(fidelity_fields)),
        TableRow(key="Topology", value=", ".join(topology_fields)),
    ]


def table2_rows(spec: FleetSpec = FleetSpec()) -> List[TableRow]:
    """Regenerate Table 2 from the fleet specification."""
    return [TableRow(key=key, value=value) for key, value in spec.rows()]


def render_rows(title: str, rows: List[TableRow], key_header: str = "Parameter", value_header: str = "Values") -> str:
    """Render rows as an aligned text table."""
    key_width = max(len(key_header), *(len(row.key) for row in rows))
    lines = [title, f"{key_header:<{key_width}}  {value_header}", "-" * (key_width + 2 + len(value_header))]
    for row in rows:
        lines.append(f"{row.key:<{key_width}}  {row.value}")
    return "\n".join(lines)
