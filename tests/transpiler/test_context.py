"""TranspileContext builds its random generator only when a pass reads it."""

import numpy as np

from repro.backends import named_topology_device
from repro.circuits import ghz
from repro.transpiler import TranspileContext, place, transpile, virtual_stage
from repro.transpiler import context as context_module


def test_an_int_seed_gives_the_same_stream():
    assert np.array_equal(TranspileContext(seed=7).rng.random(4), np.random.default_rng(7).random(4))
    assert np.array_equal(
        TranspileContext.for_target(None, seed=7).rng.random(4), np.random.default_rng(7).random(4)
    )


def test_a_generator_seed_is_used_as_is():
    generator = np.random.default_rng(3)
    context = TranspileContext(seed=generator)
    assert context.rng is generator
    assert context.rng is generator


def test_the_preset_pipeline_builds_no_generator(monkeypatch):
    def refuse(seed=None):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(context_module, "ensure_generator", refuse)
    device = named_topology_device("line", 5, two_qubit_error=0.02, name="context_line5")
    virtual = virtual_stage(ghz(4), device)
    place(virtual, device)
    result = transpile(ghz(4), device, seed=11)
    assert result.circuit.num_qubits == 5
