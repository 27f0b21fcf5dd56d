"""Shared state threaded through a transpiler pass pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.backends.properties import BackendProperties
from repro.transpiler.layout import Layout
from repro.utils.rng import SeedLike, ensure_generator


@dataclass
class TranspileContext:
    """Mutable context object passed to every pass in a pipeline.

    Attributes
    ----------
    target:
        Calibration properties of the device being compiled for (``None`` for
        device-independent optimisation pipelines).
    initial_layout:
        Layout chosen by the layout-selection pass (virtual -> physical).
    final_layout:
        Layout after routing; records where each virtual qubit ended up once
        all inserted SWAPs are accounted for.
    seed:
        Seed of :attr:`rng` (``None``, an ``int`` or a generator).
    properties:
        Free-form scratch space for passes to communicate (e.g. the routing
        pass records how many SWAPs it inserted).
    """

    target: Optional[BackendProperties] = None
    initial_layout: Optional[Layout] = None
    final_layout: Optional[Layout] = None
    seed: SeedLike = None
    properties: Dict[str, object] = field(default_factory=dict)
    _rng: Optional[np.random.Generator] = field(default=None, init=False, repr=False, compare=False)

    @property
    def rng(self) -> np.random.Generator:
        """Random generator for stochastic passes, built from :attr:`seed` on first read.

        No preset pass reads it, so the preset pipeline builds no generator
        and its output does not depend on the seed.
        """
        if self._rng is None:
            self._rng = ensure_generator(self.seed)
        return self._rng

    @classmethod
    def for_target(cls, target: Optional[BackendProperties], seed: SeedLike = None) -> "TranspileContext":
        """Build a context for compiling towards ``target``."""
        return cls(target=target, seed=seed)

    def require_target(self) -> BackendProperties:
        """Return the target properties, raising if the pipeline has none."""
        if self.target is None:
            raise ValueError("This pass requires a target backend")
        return self.target
