"""Deterministic random-number handling for the whole library.

Every stochastic component in the reproduction (fleet generation, noise
sampling, the random-scheduler baseline, experiment repetition loops) accepts
either an integer seed, an existing :class:`numpy.random.Generator`, or
``None``.  Funnelling the conversion through :func:`ensure_generator` keeps
experiments reproducible and lets tests pin seeds without monkeypatching.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]

#: Default seed used by experiment drivers when the caller does not specify
#: one.  Using a fixed default keeps ``EXPERIMENTS.md`` numbers regenerable.
DEFAULT_SEED = 20240726


def ensure_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an ``int`` seed, or an existing generator
        (returned unchanged so that callers can thread one generator through
        a pipeline of components).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"Unsupported seed type: {type(seed).__name__}")


def spawn_generator(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Components that fan out work (e.g. one noise stream per shot batch, or
    one stream per generated backend) use child generators so that changing
    the number of consumers does not perturb unrelated random draws.
    """
    seed = int(rng.integers(0, 2**63 - 1))
    return np.random.default_rng(seed)


def derive_seed(base: SeedLike, *components: object) -> int:
    """Derive a stable integer seed from ``base`` and hashable ``components``.

    This is used when a deterministic per-item seed is needed (for example
    one seed per generated backend name) so that regenerating a single item
    yields the same object as generating the full fleet.  Components are
    folded in with CRC32 rather than the built-in ``hash`` so the derived
    seed is identical across interpreter processes (``hash`` of a string is
    randomised per process, which would make experiment numbers drift from
    run to run).
    """
    if isinstance(base, (int, np.integer)):
        base_value = int(base)
        if base_value < 0:  # ensure_generator (numpy) rejects it too
            raise ValueError(f"A seed must be a non-negative integer, got {base_value}")
    else:
        base_value = int(ensure_generator(base).integers(0, 2**31 - 1))
    mix = base_value & 0x7FFFFFFF
    for component in components:
        digest = zlib.crc32(str(component).encode("utf-8"))
        mix = (mix * 1000003) ^ (digest & 0x7FFFFFFF)
        mix &= 0x7FFFFFFF
    return mix


def uniform_choice(rng: np.random.Generator, options: list):
    """Pick one element of ``options`` uniformly at random.

    ``numpy`` converts sequences to arrays inside ``Generator.choice`` which
    mangles tuples and dataclasses; indexing avoids that conversion.
    """
    if not options:
        raise ValueError("Cannot choose from an empty sequence")
    index = int(rng.integers(0, len(options)))
    return options[index]
