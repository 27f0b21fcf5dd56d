"""The tracer wraps the attributes call sites look up, and restores them."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import repro.core.master_server as master_server  # noqa: E402
import repro.qasm.parser as parser  # noqa: E402
from repro.circuits.library import ghz  # noqa: E402
from repro.qasm import dump_qasm  # noqa: E402
from repro.service.engines import OrchestratorEngine  # noqa: E402

from tracer import Tracer  # noqa: E402


def test_install_wraps_every_binding_and_uninstall_restores_it():
    original, method = parser.parse_qasm, OrchestratorEngine.__dict__["match"]
    tracer = Tracer()
    tracer.install()
    try:
        assert master_server.parse_qasm is parser.parse_qasm is not original
        assert OrchestratorEngine.__dict__["match"] is not method
        master_server.parse_qasm(dump_qasm(ghz(3)))
    finally:
        tracer.uninstall()
    assert master_server.parse_qasm is parser.parse_qasm is original
    assert OrchestratorEngine.__dict__["match"] is method
    assert [span.name for span in tracer.spans] == ["qasm.parse"]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    outer = tracer.open("service.result", "job-1")
    inner = tracer.open("engine.run")
    tracer.close(inner)
    tracer.close(outer)
    assert inner.parent == outer.id and inner.job == "job-1"
    own = tracer.self_times()
    assert abs(own[outer.id] - (outer.duration - inner.duration)) < 1e-12
    assert own[inner.id] == inner.duration
