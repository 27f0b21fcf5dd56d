"""Layouts: mappings from a circuit's virtual qubits to device physical qubits."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.utils.exceptions import LayoutError


@dataclass
class Layout:
    """A (partial) injective mapping ``virtual qubit -> physical qubit``."""

    mapping: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        physicals = list(self.mapping.values())
        if len(set(physicals)) != len(physicals):
            raise LayoutError(f"Layout maps two virtual qubits to the same physical qubit: {self.mapping}")

    # ------------------------------------------------------------------ #
    @classmethod
    def trivial(cls, num_qubits: int) -> "Layout":
        """The identity layout ``i -> i``."""
        return cls({i: i for i in range(num_qubits)})

    @classmethod
    def from_sequence(cls, physical_qubits: Sequence[int]) -> "Layout":
        """Layout mapping virtual qubit ``i`` to ``physical_qubits[i]``."""
        return cls({virtual: int(physical) for virtual, physical in enumerate(physical_qubits)})

    # ------------------------------------------------------------------ #
    def physical(self, virtual: int) -> int:
        """Physical qubit assigned to ``virtual`` (raises if unassigned)."""
        if virtual not in self.mapping:
            raise LayoutError(f"Virtual qubit {virtual} has no physical assignment")
        return self.mapping[virtual]

    def virtual(self, physical: int) -> Optional[int]:
        """Virtual qubit mapped to ``physical`` or ``None``."""
        for virtual, assigned in self.mapping.items():
            if assigned == physical:
                return virtual
        return None

    def physical_qubits(self) -> List[int]:
        """All physical qubits used by the layout, sorted."""
        return sorted(self.mapping.values())

    def as_list(self, num_virtual: Optional[int] = None) -> List[int]:
        """Dense list form ``[physical of v0, physical of v1, ...]``."""
        size = num_virtual if num_virtual is not None else (max(self.mapping) + 1 if self.mapping else 0)
        result = []
        for virtual in range(size):
            result.append(self.physical(virtual))
        return result

    def copy(self) -> "Layout":
        """Independent copy of the layout."""
        return Layout(dict(self.mapping))

    def swap_physical(self, physical_a: int, physical_b: int) -> None:
        """Exchange whatever virtual qubits sit on two physical qubits.

        This is the layout update performed when the router inserts a SWAP
        gate between ``physical_a`` and ``physical_b``.
        """
        virtual_a = self.virtual(physical_a)
        virtual_b = self.virtual(physical_b)
        if virtual_a is not None:
            self.mapping[virtual_a] = physical_b
        if virtual_b is not None:
            self.mapping[virtual_b] = physical_a

    def compose_onto(self, other: "Layout") -> "Layout":
        """Return the layout obtained by applying ``self`` then ``other``.

        ``other`` must map the physical qubits produced by ``self``.
        """
        return Layout({virtual: other.physical(physical) for virtual, physical in self.mapping.items()})

    def __len__(self) -> int:
        return len(self.mapping)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Layout):
            return NotImplemented
        return self.mapping == other.mapping

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        entries = ", ".join(f"{v}->{p}" for v, p in sorted(self.mapping.items()))
        return f"Layout({entries})"
