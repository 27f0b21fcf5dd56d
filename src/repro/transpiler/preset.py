"""The preset transpilation pipeline and the public :func:`transpile` entry.

The stage order follows the paper's description of the Qiskit transpiler
(Section 2.3): virtual circuit optimisation, 3+ qubit gate decomposition,
placement on physical qubits, routing on the restricted topology, translation
to basis gates and physical circuit optimisation.

The pipeline is built from two pass lists, run as two stages:

* the *virtual* stage (inverse cancellation, 1-qubit resynthesis, 3+ qubit
  decomposition) reads nothing of the target but its basis gates, so its
  output depends only on the circuit, the optimisation level and the basis
  set.  A caller compiling one circuit for many devices (the canary ranking
  of :mod:`repro.fidelity.canary`) runs :func:`virtual_stage` once per basis
  set;
* the *physical* stage (layout, routing, basis translation, physical
  optimisation and the final checks) runs once per device.

:func:`transpile` runs both stages, or only the physical one when it is
given the :class:`VirtualCircuit` that :func:`virtual_stage` returns.  No
pass reads randomness, so the result is a pure function of the circuit, the
target and the options.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.backends.backend import Backend
from repro.backends.properties import BackendProperties
from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.context import TranspileContext
from repro.transpiler.layout import Layout
from repro.transpiler.passes.base import PassManager, TranspilerPass
from repro.transpiler.passes.decompose import BasisTranslation, DecomposeMultiQubitGates
from repro.transpiler.passes.layout_selection import (
    DenseLayoutPass,
    SetLayoutPass,
    TrivialLayoutPass,
    VF2PerfectLayoutPass,
)
from repro.transpiler.passes.cleanup import MergeAdjacentRotations, RemoveDiagonalGatesBeforeMeasure
from repro.transpiler.passes.optimize import CancelAdjacentInverses, Optimize1QubitGates
from repro.transpiler.passes.routing import (
    BasicRoutingPass,
    CheckMapPass,
    GatesInBasisPass,
    SabreRoutingPass,
)
from repro.utils.exceptions import TranspilerError
from repro.utils.rng import SeedLike


@dataclass
class TranspileResult:
    """A transpiled circuit together with its compilation metadata."""

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    swaps_inserted: int
    target_name: str
    properties: Dict[str, object] = field(default_factory=dict)

    def two_qubit_gate_count(self) -> int:
        """Number of two-qubit gates in the compiled circuit."""
        return self.circuit.num_two_qubit_gates()


def _require_level(optimization_level: int) -> None:
    if optimization_level not in (0, 1, 2, 3):
        raise TranspilerError("optimization_level must be 0, 1, 2 or 3")


def _virtual_passes(optimization_level: int) -> List[TranspilerPass]:
    _require_level(optimization_level)
    passes: List[TranspilerPass] = []
    if optimization_level >= 1:
        passes.append(CancelAdjacentInverses())
        passes.append(Optimize1QubitGates())
    passes.append(DecomposeMultiQubitGates())
    return passes


def _physical_passes(
    optimization_level: int,
    initial_layout: Optional[Layout],
    routing_method: str,
) -> List[TranspilerPass]:
    _require_level(optimization_level)
    if routing_method not in ("sabre", "basic"):
        raise TranspilerError("routing_method must be 'sabre' or 'basic'")
    passes: List[TranspilerPass] = []
    if initial_layout is not None:
        passes.append(SetLayoutPass(initial_layout))
    elif optimization_level == 0:
        passes.append(TrivialLayoutPass())
    else:
        if optimization_level >= 2:
            passes.append(VF2PerfectLayoutPass())
        passes.append(DenseLayoutPass())

    passes.append(SabreRoutingPass() if routing_method == "sabre" else BasicRoutingPass())
    passes.append(BasisTranslation())
    if optimization_level >= 1:
        passes.append(CancelAdjacentInverses())
    if optimization_level >= 2:
        passes.append(Optimize1QubitGates())
    if optimization_level >= 3:
        passes.append(MergeAdjacentRotations())
        passes.append(RemoveDiagonalGatesBeforeMeasure())
    passes.append(CheckMapPass())
    passes.append(GatesInBasisPass())
    return passes


def build_preset_pass_manager(
    target: BackendProperties,
    optimization_level: int = 2,
    initial_layout: Optional[Layout] = None,
    routing_method: str = "sabre",
) -> PassManager:
    """Construct the preset pipeline for ``target``: the virtual then the physical passes.

    Optimisation levels:

    * ``0`` — trivial layout, basic routing, basis translation only;
    * ``1`` — adds inverse-cancellation and 1-qubit resynthesis;
    * ``2`` (default) — adds VF2 perfect-layout search before the dense
      fallback and a final physical optimisation sweep;
    * ``3`` — adds rotation merging and removal of diagonal gates before
      measurements to the physical optimisation sweep.
    """
    physical = _physical_passes(optimization_level, initial_layout, routing_method)
    return PassManager(_virtual_passes(optimization_level) + physical)


def _properties_of(target) -> BackendProperties:
    properties = target.properties if isinstance(target, Backend) else target
    if not isinstance(properties, BackendProperties):
        raise TranspilerError("target must be a Backend or BackendProperties")
    return properties


@dataclass(frozen=True)
class VirtualCircuit:
    """A circuit after the virtual stage, with the options that stage read.

    Returned by :func:`virtual_stage`; pass it to :func:`transpile` in place
    of a circuit to run only the physical stage.  The wrapped circuit must
    not be modified.
    """

    circuit: QuantumCircuit
    basis_gates: Tuple[str, ...]
    optimization_level: int


def virtual_stage(circuit: QuantumCircuit, target, optimization_level: int = 2) -> VirtualCircuit:
    """Run the device-independent passes of the preset pipeline on ``circuit``.

    Of ``target`` (a :class:`Backend` or properties) only the ordered basis
    gates are read, so the result may be compiled by :func:`transpile` for
    every device with the same basis set.  The input circuit is not modified.
    """
    properties = _properties_of(target)
    manager = PassManager(_virtual_passes(optimization_level))
    virtual = manager.run(circuit, TranspileContext.for_target(properties))
    return VirtualCircuit(virtual, properties.basis_gates, optimization_level)


def transpile(
    circuit: Union[QuantumCircuit, VirtualCircuit],
    target,
    optimization_level: int = 2,
    initial_layout: Optional[Layout] = None,
    routing_method: str = "sabre",
    seed: SeedLike = None,
) -> TranspileResult:
    """Compile ``circuit`` for ``target`` (a :class:`Backend` or properties).

    Returns a :class:`TranspileResult` whose circuit acts on the device's
    physical qubits, respects its coupling map and uses only its basis gates.
    A plain circuit goes through :func:`virtual_stage` and then the physical
    stage; a :class:`VirtualCircuit` made for the target's basis set and
    ``optimization_level`` goes through the physical stage only, without
    being modified, so one can be compiled for many devices.
    """
    properties = _properties_of(target)
    manager = PassManager(_physical_passes(optimization_level, initial_layout, routing_method))
    if not isinstance(circuit, VirtualCircuit):
        circuit = virtual_stage(circuit, properties, optimization_level)
    elif (circuit.basis_gates, circuit.optimization_level) != (properties.basis_gates, optimization_level):
        raise TranspilerError(
            f"Virtual circuit was made for basis {circuit.basis_gates} at optimization level "
            f"{circuit.optimization_level}; '{properties.name}' needs basis {properties.basis_gates} "
            f"at level {optimization_level}"
        )
    virtual = circuit.circuit
    context = TranspileContext.for_target(properties, seed=seed)
    compiled = manager.run(virtual, context)
    initial = context.initial_layout or Layout.trivial(virtual.num_qubits)
    final = context.final_layout or initial
    return TranspileResult(
        circuit=compiled,
        initial_layout=initial,
        final_layout=final,
        swaps_inserted=int(context.properties.get("swaps_inserted", 0)),
        target_name=properties.name,
        properties=dict(context.properties),
    )
