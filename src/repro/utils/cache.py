"""Fleet-wide memoization for the scheduler's hot paths.

The paper's headline loop — rank a 100-device fleet for every arriving job —
repeats expensive computations whose inputs barely change between jobs.  Only
the three whose cache key covers every input they read are memoized here, once
per process:

* **VF2 enumeration**: depends only on the requested pattern and the
  device's coupling graph (Mapomatic's first step), so it is shared by every
  job, every calibration epoch, the matchers and the transpiler's
  perfect-layout pass.
* **Embedding scores** (Mapomatic's second step): the enumeration scored
  against the device's calibration data, keyed by the pattern, the device,
  its calibration fingerprint and the search parameters (plus the seed of
  the budgeted matcher).
* **Canary placements**: the layout the transpiler's layout passes choose
  for a canary on a device (:func:`repro.transpiler.preset.place`), keyed by
  the four things those passes read: the virtual circuit's width, its
  interaction pairs in first-seen order, the device's calibration
  fingerprint and the optimisation level.  Every fidelity ranking builds a
  fresh estimator, so only a process-wide memo is shared between the
  fresh-angle jobs of one sweep.

Sharing such a cache cannot change a result: a hit returns exactly what a
fresh computation would.  Seeded or stateful caches have an owner instead:
each engine keeps its own execution plans, each canary estimator its
canary's ideal counts, and each policy its fidelity and embedding scores.

This module provides the shared memoization layer and the keys everything
builds on:

* :func:`structural_circuit_hash` — a collision-resistant digest of a
  circuit's *structure* (registers, instruction stream, operands, rounded
  parameters).  Two circuits that merely share a name, length and qubit
  count hash differently.
* :func:`pattern_hash` — the analogous digest for interaction-graph /
  topology patterns (nodes plus weighted edges).
* :func:`enumeration_key` — the order-sensitive digest of what VF2 reads
  (node and adjacency order of both graphs, plus the cap), which keys the
  enumeration cache.
* :func:`calibration_fingerprint` — a digest of a device's calibration data.
  Because the fingerprint is part of every embedding key (and of every
  execution plan), a calibration-drift cycle *implicitly* invalidates all
  scores computed against the stale calibration: the new fingerprint simply
  misses.
* :class:`LRUCache` — a thread-safe bounded mapping with hit/miss/eviction
  statistics, the one cache type.  Three process-wide instances are reached
  through :func:`enumeration_cache` (``repro.backends.subgraph``),
  :func:`embedding_cache` (``repro.matching``) and :func:`placement_cache`
  (``repro.fidelity.canary``); every engine's plan store
  records into the process-wide :data:`PLAN_STATS` counters.

:func:`clear_all_caches` empties the shared instances (benchmarks call it
before a cold run); :func:`all_cache_stats` reports process-wide hit rates,
which the perf-regression benchmarks record in ``BENCH_matching.json``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterable

__all__ = [
    "CacheStats",
    "LRUCache",
    "structural_circuit_hash",
    "pattern_hash",
    "enumeration_key",
    "calibration_fingerprint",
    "fleet_calibration_epoch",
    "enumeration_cache",
    "embedding_cache",
    "placement_key",
    "placement_cache",
    "PLAN_STATS",
    "clear_all_caches",
    "all_cache_stats",
]

@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-serialisable snapshot (used by the benchmark reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded, thread-safe, least-recently-used mapping with statistics.

    ``maxsize`` bounds memory: inserting beyond it evicts the least recently
    *used* entry (both ``get`` hits and ``put`` refresh recency).
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    @property
    def maxsize(self) -> int:
        """The entry bound."""
        return self._maxsize

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for ``key`` (recording a hit or miss)."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.stats.hits += 1
                return self._data[key]
            self.stats.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self.stats.evictions += 1

    def drop_where(self, predicate: Callable[[Any], bool]) -> int:
        """Remove every entry whose value satisfies ``predicate``; returns the count."""
        with self._lock:
            stale = [key for key, value in self._data.items() if predicate(value)]
            for key in stale:
                del self._data[key]
            return len(stale)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._data.clear()


# --------------------------------------------------------------------------- #
# Structural hashes
# --------------------------------------------------------------------------- #
def _digest(parts: Iterable[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _format_float(value: float) -> str:
    return format(float(value), ".12g")


def structural_circuit_hash(circuit) -> str:
    """Digest of a circuit's structure, independent of its name.

    Covers the register sizes and the full instruction stream (gate name,
    qubit/clbit operands, parameters rounded to 12 significant digits so the
    hash is stable under benign float formatting differences).  Circuits with
    identical structure but different names hash identically — the ideal
    distribution of a canary only depends on structure — while circuits that
    share a name, length and width but differ anywhere in the stream hash
    differently.

    The digest is kept on the circuit with its :attr:`~repro.circuits.circuit.QuantumCircuit.edits`
    count, so hashing an unchanged circuit again is a lookup and an edit
    makes the next call digest afresh.  The count is read before the
    stream, so an edit racing the digest can only cause a miss.
    """
    edits = getattr(circuit, "edits", None)
    memo = getattr(circuit, "_structure_memo", None)
    if edits is not None and memo is not None and memo[0] == edits:
        return memo[1]
    digest = _structure_digest(circuit)
    if edits is not None:
        circuit._structure_memo = (edits, digest)
    return digest


def _structure_digest(circuit) -> str:
    """The uncached digest behind :func:`structural_circuit_hash`."""

    def parts():
        yield f"q{circuit.num_qubits}c{circuit.num_clbits}"
        for instruction in circuit:
            params = ",".join(_format_float(p) for p in instruction.params)
            qubits = ",".join(str(q) for q in instruction.qubits)
            clbits = ",".join(str(c) for c in instruction.clbits)
            yield f"{instruction.name}|{qubits}|{clbits}|{params}"

    return _digest(parts())


def pattern_hash(graph) -> str:
    """Digest of a pattern graph (interaction graph or requested topology).

    Covers the labelled node set and the weighted edge list in canonical
    order.  Patterns are matched by node label throughout ``repro.matching``,
    so label-level (not isomorphism-level) canonicalisation is the correct
    notion of equality here.
    """

    def parts():
        yield "nodes:" + ",".join(str(node) for node in sorted(graph.nodes, key=str))
        # Canonicalise endpoint order: undirected graphs report (u, v) in
        # insertion orientation, which must not leak into the digest.
        edges = []
        for a, b, data in graph.edges(data=True):
            u, v = sorted((a, b), key=str)
            edges.append((str(u), str(v), float(data.get("weight", 1))))
        for u, v, weight in sorted(edges):
            yield f"edge:{u}-{v}w{_format_float(weight)}"

    return _digest(parts())


def enumeration_key(pattern, device_graph, max_embeddings: int) -> str:
    """Digest of one VF2 enumeration's inputs, in the order VF2 reads them.

    networkx's VF2 matcher walks both graphs in node order and grows its
    candidate frontier in adjacency order, so those orders, and not only the
    edge sets, decide which embeddings come out first.  Unlike
    :func:`pattern_hash`, which sorts, this digest covers the node sequence
    and each node's neighbour sequence of the pattern and of the device
    graph, plus the cap: equal keys therefore yield the same embeddings in
    the same order.  Edge weights are not read by VF2 and are not covered.

    Each graph's half is a digest of its own.  A frozen device graph (what
    ``BackendProperties.graph()`` returns, one per coupling map) keeps its
    half on the graph object, so it is computed once per graph; a copy made
    with ``nx.Graph(...)`` is not frozen and does not inherit it.
    """
    device = getattr(device_graph, "_repro_adjacency_digest", None)
    if device is None:
        device = _adjacency_digest(device_graph)
        if getattr(device_graph, "frozen", False):
            device_graph._repro_adjacency_digest = device
    return _digest((f"cap:{max_embeddings}", _adjacency_digest(pattern), device))


def _adjacency_digest(graph) -> str:
    """Digest of a graph's type, node order and each node's neighbour order."""

    def parts():
        yield type(graph).__name__
        for node, neighbours in graph.adjacency():
            yield repr(node) + ":" + ",".join(map(repr, neighbours))

    return _digest(parts())


#: The calibration tables a fingerprint covers, with their digest labels.
_CALIBRATION_TABLES = (
    ("e2", "two_qubit_error"),
    ("e1", "one_qubit_error"),
    ("ro", "readout_error"),
    ("rl", "readout_length"),
    ("t1", "t1"),
    ("t2", "t2"),
)


def _calibration_fields(properties) -> tuple:
    """The live fields a fingerprint covers, uncopied:
    ``(name, num_qubits, basis_gates, coupling_map, *tables)``."""
    return (
        properties.name,
        properties.num_qubits,
        properties.basis_gates,
        properties.coupling_map,
    ) + tuple(getattr(properties, attribute) for _, attribute in _CALIBRATION_TABLES)


def _calibration_snapshot(fields: tuple) -> tuple:
    """A copy of :func:`_calibration_fields` that later in-place edits cannot reach."""
    name, num_qubits, basis_gates, coupling_map, *tables = fields
    return (
        name,
        num_qubits,
        tuple(basis_gates),
        [tuple(edge) for edge in coupling_map],
    ) + tuple(dict(table) for table in tables)


def _calibration_digest(snapshot: tuple) -> str:
    """The fingerprint digest of a :func:`_calibration_snapshot`."""
    name, num_qubits, basis_gates, coupling_map, *tables = snapshot

    def parts():
        yield f"{name}|{num_qubits}"
        yield "basis:" + ",".join(basis_gates)
        yield "coupling:" + ";".join(f"{a}-{b}" for a, b in coupling_map)
        for (label, _), table in zip(_CALIBRATION_TABLES, tables):
            entries = ";".join(
                f"{key}:{_format_float(value)}" for key, value in sorted(table.items(), key=lambda kv: str(kv[0]))
            )
            yield f"{label}:{entries}"

    return _digest(parts())


def calibration_fingerprint(properties) -> str:
    """Digest of one device's calibration epoch.

    Covers everything the matchers and fidelity estimators read: topology,
    basis gates, two-qubit / one-qubit / readout error rates, readout lengths
    and T1/T2 times.  A calibration-drift cycle changes the fingerprint, so
    every cache key containing it silently stops matching — stale embedding
    scores and fidelity estimates are never served across calibrations.

    The digest is memoised on ``properties`` with a copied snapshot of the
    fields it was computed from.  A call compares the live fields with the
    snapshot (``==`` on the tables, in C) and digests afresh only when they
    differ, so in-place drift, an appended coupling edge and a reassigned
    table all still change the fingerprint.  The snapshot is copied before
    it is digested: a write racing the copy can only make the next call
    miss.  A field replaced by an equal value of another type (the key
    ``1.0`` for ``1``) compares equal and keeps the memoised digest.
    """
    fields = _calibration_fields(properties)
    memo = getattr(properties, "_fingerprint_memo", None)
    if memo is not None and memo[0] == fields:
        return memo[1]
    snapshot = _calibration_snapshot(fields)
    digest = _calibration_digest(snapshot)
    try:
        properties._fingerprint_memo = (snapshot, digest)
    except AttributeError:  # an object without instance attributes is digested every call
        pass
    return digest


def fleet_calibration_epoch(fleet: Iterable) -> str:
    """Stable digest of an entire fleet's calibration state.

    The sorted per-device :func:`calibration_fingerprint` digests are folded
    into one key, so the epoch is independent of registration order and —
    unlike the builtin ``hash`` — survives process restarts (``hash`` of a
    string is salted per process via ``PYTHONHASHSEED``).  Any device drifting
    changes the epoch, which is what policy fidelity caches key on.
    """
    return _digest(sorted(calibration_fingerprint(backend.properties) for backend in fleet))


# --------------------------------------------------------------------------- #
# Shared instances
# --------------------------------------------------------------------------- #
_ENUMERATION_CACHE = LRUCache(2048)
_EMBEDDING_CACHE = LRUCache(2048)
_PLACEMENT_CACHE = LRUCache(4096)

#: Hit/miss/eviction counters shared by every engine's plan store, so the
#: ``plan`` row of :func:`all_cache_stats` covers the whole process.
PLAN_STATS = CacheStats()


def enumeration_cache() -> LRUCache:
    """The process-wide VF2 enumeration cache.

    Keyed by :func:`enumeration_key` (pattern and device graph in VF2's read
    order, plus the cap); values are the enumerated mappings, each a flat
    ``(pattern node, device node, ...)`` tuple.  No calibration is in the key:
    enumeration never reads it, so entries survive calibration drift.
    """
    return _ENUMERATION_CACHE


def embedding_cache() -> LRUCache:
    """The process-wide embedding/score cache.

    Keyed by ``(pattern_hash, device name, calibration fingerprint, *search
    parameters)``; values are the matcher's result.  The exact matcher
    (``"scored"``) stores only results whose embeddings are all exact, which
    no seed can change; the budgeted matcher (``"scalable"``) appends its
    integer seed, since its annealing restarts read it.
    """
    return _EMBEDDING_CACHE


def placement_key(virtual, properties) -> tuple:
    """Key of one canary placement in :func:`placement_cache`.

    ``virtual`` is a :class:`~repro.transpiler.preset.VirtualCircuit`.  The
    key holds everything the layout passes read: the circuit's width, its
    :attr:`~repro.transpiler.preset.VirtualCircuit.interaction_items` (the
    VF2 pattern is built in that order, and the costs weight by those
    multiplicities), the device's :func:`calibration_fingerprint` (name,
    coupling map and error rates) and the optimisation level, which picks
    the passes.
    """
    return (
        virtual.circuit.num_qubits,
        virtual.interaction_items,
        calibration_fingerprint(properties),
        virtual.optimization_level,
    )


def placement_cache() -> LRUCache:
    """The process-wide canary placement cache.

    Keyed by :func:`placement_key`; values are the
    :class:`~repro.transpiler.layout.Layout` that
    :func:`~repro.transpiler.preset.place` returned, shared and never
    modified.  A drifted calibration has a new fingerprint, so it misses.
    """
    return _PLACEMENT_CACHE


def clear_all_caches() -> None:
    """Empty every shared cache (benchmarks call this between cold runs)."""
    _ENUMERATION_CACHE.clear()
    _EMBEDDING_CACHE.clear()
    _PLACEMENT_CACHE.clear()


def all_cache_stats() -> Dict[str, Dict[str, float]]:
    """Statistics of every shared cache, keyed by cache name."""
    return {
        "enumeration": _ENUMERATION_CACHE.stats.as_dict(),
        "embedding": _EMBEDDING_CACHE.stats.as_dict(),
        "placement": _PLACEMENT_CACHE.stats.as_dict(),
        "plan": PLAN_STATS.as_dict(),
        # Stub rows for perfbench/worker.py's ``cache.ideal_distribution.*`` and
        # ``cache.batch.*`` metrics; no shared cache is behind either.
        "ideal_distribution": CacheStats().as_dict(),
        "batch": CacheStats().as_dict(),
    }
