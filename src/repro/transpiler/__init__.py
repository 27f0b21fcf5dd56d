"""Quantum circuit transpiler: layout, routing, basis translation, optimisation."""

from repro.transpiler.context import TranspileContext
from repro.transpiler.decompositions import decompose_instruction, resynthesise_single_qubit, zyz_angles
from repro.transpiler.layout import Layout
from repro.transpiler.passes.base import PassManager, TranspilerPass
from repro.transpiler.preset import (
    TranspileResult,
    VirtualCircuit,
    build_preset_pass_manager,
    place,
    transpile,
    virtual_stage,
)

__all__ = [
    "Layout",
    "PassManager",
    "TranspileContext",
    "TranspileResult",
    "TranspilerPass",
    "VirtualCircuit",
    "build_preset_pass_manager",
    "decompose_instruction",
    "place",
    "resynthesise_single_qubit",
    "transpile",
    "virtual_stage",
    "zyz_angles",
]
