"""The preset transpilation pipeline and the public :func:`transpile` entry.

The stage order follows the paper's description of the Qiskit transpiler
(Section 2.3): virtual circuit optimisation, 3+ qubit gate decomposition,
placement on physical qubits, routing on the restricted topology, translation
to basis gates and physical circuit optimisation.

The pipeline runs in two stages:

* the *virtual* stage (inverse cancellation, 1-qubit resynthesis, 3+ qubit
  decomposition) reads nothing of the target but its basis gates, so its
  output depends only on the circuit, the optimisation level and the basis
  set.  A caller compiling one circuit for many devices (the canary ranking
  of :mod:`repro.fidelity.canary`) runs :func:`virtual_stage` once per basis
  set;
* the *physical* stage runs per device, in three parts: layout; then
  *relabel or route*; then the checks (``CheckMapPass``,
  ``GatesInBasisPass``).  When the layout puts every interaction of the
  virtual circuit on a coupled pair, the router would insert no SWAP and
  only reorder the program, so :func:`transpile` does not route: it takes
  the post-routing passes' output (basis translation and physical
  optimisation), computed once on virtual qubits in the router's
  swap-free order and kept on the :class:`VirtualCircuit`, and relabels it
  through the layout onto the device.  Every post-routing pass is
  relabel-equivariant, so this equals routing and optimising on the
  device.  A layout that needs SWAPs runs the router and the post-routing
  passes on the device.  The test is on the layout, not on which pass
  found it; ``properties["pass_trace"]`` of the result names the path
  (``RelabelPass`` or the router) that ran.

:func:`transpile` runs both stages, or only the physical one when it is
given the :class:`VirtualCircuit` that :func:`virtual_stage` returns.
:func:`build_preset_pass_manager` is the same pipeline as one pass manager
that always routes; both give the same result.  No pass reads randomness,
so the result is a pure function of the circuit, the target and the
options.
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
    RelabelPass,
    SabreRoutingPass,
    blocks_no_gate,
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

    @property
    def relabelled(self) -> bool:
        """``True`` when the layout blocked no gate, so the circuit was placed by a relabel, not routed."""
        return any(step["pass"] == RelabelPass.__name__ for step in self.properties.get("pass_trace", ()))


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


def _layout_passes(optimization_level: int, initial_layout: Optional[Layout]) -> List[TranspilerPass]:
    _require_level(optimization_level)
    if initial_layout is not None:
        return [SetLayoutPass(initial_layout)]
    if optimization_level == 0:
        return [TrivialLayoutPass()]
    if optimization_level == 1:
        return [DenseLayoutPass()]
    return [VF2PerfectLayoutPass(), DenseLayoutPass()]


def _router(routing_method: str) -> Union[SabreRoutingPass, BasicRoutingPass]:
    if routing_method == "sabre":
        return SabreRoutingPass()
    if routing_method == "basic":
        return BasicRoutingPass()
    raise TranspilerError("routing_method must be 'sabre' or 'basic'")


def _post_routing_passes(optimization_level: int) -> List[TranspilerPass]:
    """Basis translation and physical optimisation: the passes between routing and the checks.

    Each one is relabel-equivariant: run on a circuit whose qubits are then
    relabelled injectively, or on the relabelled circuit, it gives the same
    instructions.  That is what lets :func:`transpile` run them once per
    virtual circuit and relabel the output onto each device whose layout
    blocks no gate.  ``tests/transpiler/test_relabel_equivariance.py`` checks
    every pass this list holds.
    """
    _require_level(optimization_level)
    passes: List[TranspilerPass] = [BasisTranslation()]
    if optimization_level >= 1:
        passes.append(CancelAdjacentInverses())
    if optimization_level >= 2:
        passes.append(Optimize1QubitGates())
    if optimization_level >= 3:
        passes.append(MergeAdjacentRotations())
        passes.append(RemoveDiagonalGatesBeforeMeasure())
    return passes


def _check_passes() -> List[TranspilerPass]:
    return [CheckMapPass(), GatesInBasisPass()]


def build_preset_pass_manager(
    target: BackendProperties,
    optimization_level: int = 2,
    initial_layout: Optional[Layout] = None,
    routing_method: str = "sabre",
) -> PassManager:
    """Construct the preset pipeline for ``target`` as one pass manager.

    The virtual passes, then layout, routing, the post-routing passes and
    the checks; :func:`transpile` gives the same result.

    Optimisation levels:

    * ``0`` — trivial layout, basis translation only;
    * ``1`` — adds inverse-cancellation and 1-qubit resynthesis;
    * ``2`` (default) — adds VF2 perfect-layout search before the dense
      fallback and a final physical optimisation sweep;
    * ``3`` — adds rotation merging and removal of diagonal gates before
      measurements to the physical optimisation sweep.
    """
    return PassManager(
        _virtual_passes(optimization_level)
        + _layout_passes(optimization_level, initial_layout)
        + [_router(routing_method)]
        + _post_routing_passes(optimization_level)
        + _check_passes()
    )


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

    It also keeps, per routing method, the post-routing passes' output on
    its own qubits (see :func:`_placeable`), filled by the first :func:`transpile`
    whose layout blocks no gate, so every later such device costs a
    relabel.
    """

    circuit: QuantumCircuit
    basis_gates: Tuple[str, ...]
    optimization_level: int
    _post_routed: Dict[str, QuantumCircuit] = field(default_factory=dict, init=False, compare=False, repr=False)

    def post_routed(self, routing_method: str = "sabre") -> Optional[QuantumCircuit]:
        """The post-routing passes' output on this circuit's own qubits, or ``None`` until computed.

        Every :func:`transpile` of this circuit with ``routing_method`` whose
        layout blocks no gate returns it relabelled through that layout; the
        first such call computes it.  It must not be modified.
        """
        return self._post_routed.get(routing_method)


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


def _placeable(virtual: VirtualCircuit, routing_method: str, properties: BackendProperties) -> QuantumCircuit:
    """The post-routing passes run on the router's swap-free order of ``virtual``, on virtual qubits.

    Relabelled through a layout that blocks no gate, this is the router's
    output after those passes on that device.  Of ``properties`` the passes
    read only the basis gates, which ``virtual`` was made for, so the
    result is memoised on ``virtual`` per routing method.  Racing callers
    compute equal circuits and keep either.
    """
    placeable = virtual._post_routed.get(routing_method)
    if placeable is None:
        order = _router(routing_method).swap_free_order(virtual.circuit)
        manager = PassManager(_post_routing_passes(virtual.optimization_level))
        placeable = manager.run(order, TranspileContext.for_target(properties))
        virtual._post_routed[routing_method] = placeable
    return placeable


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

    The physical stage runs the layout passes, then one of two paths.  When
    the layout blocks no gate (:func:`~repro.transpiler.passes.routing.blocks_no_gate`)
    the virtual circuit's memoised post-routing output is relabelled onto
    the device (:class:`~repro.transpiler.passes.routing.RelabelPass`);
    otherwise the router and the post-routing passes run on this device.
    Both paths end with the checks and give the same result;
    ``properties["pass_trace"]`` names the passes that ran.
    """
    properties = _properties_of(target)
    layout_passes = _layout_passes(optimization_level, initial_layout)
    router = _router(routing_method)
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
    PassManager(layout_passes).run(virtual, context)
    if blocks_no_gate(virtual, context.initial_layout, properties):
        placed = PassManager([RelabelPass()] + _check_passes())
        compiled = placed.run(_placeable(circuit, routing_method, properties), context)
    else:
        routed = PassManager([router] + _post_routing_passes(optimization_level) + _check_passes())
        compiled = routed.run(virtual, context)
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
