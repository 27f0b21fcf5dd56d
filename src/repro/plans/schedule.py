"""Cross-job schedule merging: one sign-matrix evolution for N Clifford plans.

The batched stabilizer engine (PR 1) vectorises *shots* within one circuit:
a shared ``(2n, n)`` structural tableau plus a ``(shots, 2n)`` sign matrix.
This module extends the batch axis to ``(jobs x shots)``: the precompiled
tableau programs of N structurally *different* Clifford plans are aligned
into one merged gate schedule, identity-padded per job to a common width and
a common position count, and evolved as stacked ``(jobs, 2n, n)`` /
``(jobs, shots, 2n)`` arrays — one NumPy call per schedule position per
device per scheduling tick instead of one program walk per job.

Why identity padding is bit-transparent
---------------------------------------
A job with ``n_j < n_max`` qubits embeds into the padded tableau with its
destabilizer rows at the same indices and its stabilizer rows shifted from
``n_j + i`` to ``n_max + i``.  Every gate touches only columns ``q < n_j``,
where the padding rows (whose single set bit sits at column ``i >= n_j``)
are identically zero — so padding rows never enter a sign mask, a collapse
row set or a ``g``-sum, and the extra all-zero columns of the real rows
contribute nothing either.  Positions past the end of a shorter job's
schedule apply no operation at all.  Hence per-job outcomes, sign algebra
*and RNG draw counts* match the solo ``_run_batched`` execution exactly:
merged execution under per-job seeds is bit-identical to solo execution.

The merged artifact
-------------------
:func:`merge_programs` produces a :class:`MergedExecutionProgram` — a frozen,
picklable plain-data bundle (QRIO-S001 contract) whose lanes are sorted by a
content digest so the same multiset of member programs always builds the
same artifact.  The fleet-wide :func:`~repro.core.cache.merged_program_cache`
memoizes it across scheduling ticks; the derived per-position index arrays
(the *kernel*) are memoized process-locally here, keyed by the program's
content digest.

:func:`execute_merged_program` then runs the merged schedule with one
independent RNG and noise model per lane, drawing each job's random numbers
in exactly the order the solo engine would.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import LRUCache
from repro.simulators.batched_stabilizer import _counts_from_bits, _phase_exponents
from repro.simulators.noise import NoiseModel
from repro.simulators.noisy import _PAULI_LABELS, _TWO_QUBIT_PAULIS
from repro.simulators.stabilizer import _CLIFFORD_DECOMPOSITIONS, TableauStep
from repro.utils.exceptions import StabilizerError
from repro.utils.rng import SeedLike, ensure_generator

__all__ = [
    "MergedJobLane",
    "MergedExecutionProgram",
    "program_digest",
    "compile_lane",
    "merge_programs",
    "execute_merged_program",
]


# --------------------------------------------------------------------------- #
# Content digests
# --------------------------------------------------------------------------- #
def _digest_parts(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def program_digest(
    program: Sequence[TableauStep], num_qubits: int, num_clbits: int
) -> str:
    """Content digest of one member's tableau program + register widths.

    Equal digests imply equal flattened lanes (flattening is a pure function
    of the program), so this is the key under which merged programs are
    cached *without* paying the flattening walk on a warm tick.
    """

    def parts():
        yield f"n{num_qubits}c{num_clbits}"
        for step in program:
            qubits = ",".join(str(q) for q in step.qubits)
            primitives = ",".join(step.primitives)
            yield f"{step.kind}|{qubits}|{primitives}|{step.clbit}"

    return _digest_parts(parts())


# --------------------------------------------------------------------------- #
# Frozen merged artifact
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MergedJobLane:
    """One member job's micro-op stream inside a merged schedule.

    ``ops`` is the flattened form of the member's tableau program: every
    gate step is decomposed into its ``h``/``s``/``cx`` primitives (one
    position each) followed by one ``noise`` marker carrying the gate's
    operand qubits, and measure/reset steps occupy one position each.  The
    marker is unconditional — whether an error is actually *drawn* depends
    on the runtime noise model, exactly as in the solo engine — which keeps
    the lane (and the whole merged program) noise-model-independent and
    therefore cacheable across calibration epochs.
    """

    #: Flattened micro-ops: ``("h", q)``, ``("s", q)``, ``("cx", c, t)``,
    #: ``("noise", qubits)``, ``("measure", q, clbit)``, ``("reset", q)``.
    ops: Tuple[Tuple, ...]
    #: The member circuit's qubit count (before padding to the merge width).
    num_qubits: int
    #: The member circuit's classical register width.
    num_clbits: int
    #: Content digest (:func:`program_digest`) of the source program.
    digest: str


@dataclass(frozen=True)
class MergedExecutionProgram:
    """Frozen, picklable merged schedule of N member tableau programs.

    Lanes are sorted by digest, so the same *multiset* of member programs
    always produces the same artifact — callers map their requests onto
    lanes by stable-sorting the request digests the same way.  Plain data
    only (QRIO-S001): safe to pickle into spawned shard processes and to
    share through the fleet-wide merged-program cache.
    """

    #: Content digest over the ordered lane digests (the cache identity).
    merge_key: str
    #: Padded tableau width: ``max(lane.num_qubits)`` over the lanes.
    num_qubits: int
    #: Schedule length: ``max(len(lane.ops))`` over the lanes.
    num_positions: int
    #: Member lanes, sorted by :attr:`MergedJobLane.digest`.
    lanes: Tuple[MergedJobLane, ...]


def compile_lane(
    program: Sequence[TableauStep], num_qubits: int, num_clbits: int
) -> MergedJobLane:
    """Flatten one tableau program into a merge-alignable micro-op lane."""
    if num_qubits <= 0:
        raise StabilizerError("A merged lane needs at least one qubit")
    ops: List[Tuple] = []
    for step in program:
        if step.kind == "measure":
            ops.append(("measure", step.qubits[0], step.clbit))
        elif step.kind == "reset":
            ops.append(("reset", step.qubits[0]))
        else:
            for name in step.primitives:
                for primitive, operand_indices in _CLIFFORD_DECOMPOSITIONS[name]:
                    operands = tuple(step.qubits[i] for i in operand_indices)
                    ops.append((primitive,) + operands)
            ops.append(("noise", tuple(step.qubits)))
    return MergedJobLane(
        ops=tuple(ops),
        num_qubits=num_qubits,
        num_clbits=num_clbits,
        digest=program_digest(program, num_qubits, num_clbits),
    )


def merge_programs(
    members: Sequence[Tuple[Sequence[TableauStep], int, int]]
) -> MergedExecutionProgram:
    """Align N ``(program, num_qubits, num_clbits)`` members into one schedule."""
    if not members:
        raise StabilizerError("merge_programs needs at least one member program")
    lanes = sorted(
        (compile_lane(program, num_qubits, num_clbits) for program, num_qubits, num_clbits in members),
        key=lambda lane: lane.digest,
    )
    return MergedExecutionProgram(
        merge_key=_digest_parts(lane.digest for lane in lanes),
        num_qubits=max(lane.num_qubits for lane in lanes),
        num_positions=max((len(lane.ops) for lane in lanes), default=0),
        lanes=tuple(lanes),
    )


# --------------------------------------------------------------------------- #
# Runtime kernel: per-position grouped index arrays
# --------------------------------------------------------------------------- #
@dataclass
class _Position:
    """Op groups of one schedule position (index arrays over the lane axis)."""

    h: Optional[Tuple[np.ndarray, np.ndarray]] = None
    s: Optional[Tuple[np.ndarray, np.ndarray]] = None
    cx: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    noise: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    measure: Tuple[Tuple[int, int, int], ...] = ()
    reset: Tuple[Tuple[int, int], ...] = ()


def _build_kernel(merged: MergedExecutionProgram) -> List[_Position]:
    positions: List[_Position] = []
    for index in range(merged.num_positions):
        h_j: List[int] = []
        h_q: List[int] = []
        s_j: List[int] = []
        s_q: List[int] = []
        cx_j: List[int] = []
        cx_c: List[int] = []
        cx_t: List[int] = []
        noise: List[Tuple[int, Tuple[int, ...]]] = []
        measure: List[Tuple[int, int, int]] = []
        reset: List[Tuple[int, int]] = []
        for lane_index, lane in enumerate(merged.lanes):
            if index >= len(lane.ops):
                continue
            op = lane.ops[index]
            kind = op[0]
            if kind == "h":
                h_j.append(lane_index)
                h_q.append(op[1])
            elif kind == "s":
                s_j.append(lane_index)
                s_q.append(op[1])
            elif kind == "cx":
                cx_j.append(lane_index)
                cx_c.append(op[1])
                cx_t.append(op[2])
            elif kind == "noise":
                noise.append((lane_index, op[1]))
            elif kind == "measure":
                width = max(lane.num_clbits, 1)
                measure.append((lane_index, op[1], width - 1 - op[2]))
            else:
                reset.append((lane_index, op[1]))
        positions.append(
            _Position(
                h=(np.asarray(h_j, dtype=np.intp), np.asarray(h_q, dtype=np.intp)) if h_j else None,
                s=(np.asarray(s_j, dtype=np.intp), np.asarray(s_q, dtype=np.intp)) if s_j else None,
                cx=(
                    np.asarray(cx_j, dtype=np.intp),
                    np.asarray(cx_c, dtype=np.intp),
                    np.asarray(cx_t, dtype=np.intp),
                )
                if cx_j
                else None,
                noise=tuple(noise),
                measure=tuple(measure),
                reset=tuple(reset),
            )
        )
    return positions


#: Kernels derived from a merged program, memoized by its content digest
#: (merge_key) — process-local, rebuilt cheaply after unpickling elsewhere.
_KERNEL_CACHE = LRUCache(maxsize=64)


def _kernel_for(merged: MergedExecutionProgram) -> List[_Position]:
    kernel = _KERNEL_CACHE.get(merged.merge_key)
    if kernel is None:
        kernel = _build_kernel(merged)
        _KERNEL_CACHE.put(merged.merge_key, kernel)
    return kernel


# --------------------------------------------------------------------------- #
# Merged execution
# --------------------------------------------------------------------------- #
#: Pauli-component row index of the stacked per-operand flip tables:
#: 0 = identity, 1 = "x" (flips by the Z column), 2 = "y", 3 = "z".
_COMPONENT_INDEX = {None: 0, "x": 1, "y": 2, "z": 3}
_PAIR_A = np.asarray([_COMPONENT_INDEX[a] for a, _ in _TWO_QUBIT_PAULIS], dtype=np.intp)
_PAIR_B = np.asarray([_COMPONENT_INDEX[b] for _, b in _TWO_QUBIT_PAULIS], dtype=np.intp)


def _measure_lane(
    x: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    n: int,
    qubit: int,
    rng: np.random.Generator,
    shots: int,
) -> np.ndarray:
    """One lane's measurement, cloned from the solo engine's ``measure``.

    Identical algebra and identical RNG draws (one ``integers(0, 2)`` batch
    on the random branch, nothing on the deterministic branch); the only
    difference is that the solo engine's per-row Python scan for the rows to
    fix is a vectorised ``nonzero`` here — same rows, same ascending order.
    """
    x_col = x[:, qubit]
    stabilizer_rows = np.nonzero(x_col[n:])[0]
    if stabilizer_rows.size > 0:
        # Random outcome: same collapse structure for every shot, fresh
        # random bits per shot.
        p = int(stabilizer_rows[0]) + n
        involved_rows = np.nonzero(x_col)[0]
        rows_to_fix = involved_rows[involved_rows != p]
        if rows_to_fix.size:
            exponents = _phase_exponents(x[p], z[p], x[rows_to_fix], z[rows_to_fix])
            phase_bits = (exponents == 2).astype(np.uint8)
            r[:, rows_to_fix] ^= r[:, p : p + 1] ^ phase_bits[None, :]
            x[rows_to_fix] ^= x[p][None, :]
            z[rows_to_fix] ^= z[p][None, :]
        x[p - n] = x[p]
        z[p - n] = z[p]
        r[:, p - n] = r[:, p]
        x[p] = 0
        z[p] = 0
        z[p, qubit] = 1
        outcomes = rng.integers(0, 2, size=shots, dtype=np.uint8)
        r[:, p] = outcomes
        return outcomes
    # Deterministic outcome: shared phase chain, per-shot sign parity.
    involved = np.nonzero(x_col[:n])[0]
    if involved.size == 0:
        return np.zeros(shots, dtype=np.uint8)
    scratch_x = np.zeros(n, dtype=np.uint8)
    scratch_z = np.zeros(n, dtype=np.uint8)
    phase_bit = 0
    for row in involved:
        exponent = _phase_exponents(
            x[n + row], z[n + row], scratch_x[None, :], scratch_z[None, :]
        )[0]
        phase_bit ^= int(exponent == 2)
        scratch_x ^= x[n + row]
        scratch_z ^= z[n + row]
    sign_parity = r[:, n + involved].sum(axis=1, dtype=np.int64) & 1
    return (sign_parity ^ phase_bit).astype(np.uint8)


def _reset_lane(
    x: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    n: int,
    qubit: int,
    rng: np.random.Generator,
    shots: int,
) -> None:
    """One lane's reset: measure, then flip the shots that read 1."""
    outcomes = _measure_lane(x, z, r, n, qubit, rng, shots)
    flipped = np.nonzero(outcomes)[0]
    if flipped.size:
        r[flipped] ^= z[:, qubit][None, :]


def _inject_noise(
    entries: Sequence[Tuple[int, Tuple[int, ...]]],
    x: np.ndarray,
    z: np.ndarray,
    r: np.ndarray,
    noise_models: Sequence[NoiseModel],
    rngs: Sequence[np.random.Generator],
    shots: int,
) -> None:
    """Draw each lane's Pauli errors solo-style, apply them sparsely.

    Per lane, the RNG draws replicate the solo engine exactly: no draw at
    all when the gate's error rate is zero, a single full-width uniform draw
    when it is positive, and the full-width channel-choice draw only when at
    least one shot errored.  The sign-flip *application* is then batched
    across every lane active at this position and touches only the
    ``~rate * shots`` shots that actually errored — XOR is commutative, so
    flipping a sparse shot subset in place is exact, unlike the solo
    engine's dense masked table gather over every shot.
    """
    one: List[Tuple[int, int, np.ndarray, np.ndarray]] = []
    two: List[Tuple[int, Tuple[int, ...], np.ndarray, np.ndarray]] = []
    for lane_index, qubits in entries:
        error_rate = noise_models[lane_index].gate_error(qubits)
        if error_rate <= 0.0:
            continue
        error_mask = rngs[lane_index].random(shots) < error_rate
        if not error_mask.any():
            continue
        if len(qubits) == 1:
            choices = rngs[lane_index].integers(0, len(_PAULI_LABELS), size=shots)
            one.append((lane_index, qubits[0], error_mask, choices))
        else:
            choices = rngs[lane_index].integers(0, len(_TWO_QUBIT_PAULIS), size=shots)
            two.append((lane_index, qubits, error_mask, choices))
    if one:
        if len(one) == 1:
            lane_index, qubit, error_mask, choices = one[0]
            z_col = z[lane_index, :, qubit]
            x_col = x[lane_index, :, qubit]
            # Rows follow _PAULI_LABELS = ("x", "y", "z"): an X error flips
            # by the Z column, Y by Z^X, Z by X — the solo engine's tables.
            table = np.stack([z_col, z_col ^ x_col, x_col])
            errored = np.nonzero(error_mask)[0]
            r[lane_index, errored] ^= table[choices[errored]]
        else:
            j_arr = np.asarray([entry[0] for entry in one], dtype=np.intp)
            q_arr = np.asarray([entry[1] for entry in one], dtype=np.intp)
            z_col = z[j_arr, :, q_arr]
            x_col = x[j_arr, :, q_arr]
            tables = np.stack([z_col, z_col ^ x_col, x_col], axis=1)
            masks = np.stack([entry[2] for entry in one])
            choices = np.stack([entry[3] for entry in one])
            event, shot = np.nonzero(masks)
            r[j_arr[event], shot] ^= tables[event, choices[event, shot]]
    if two:
        j_arr = np.asarray([entry[0] for entry in two], dtype=np.intp)
        q0_arr = np.asarray([entry[1][0] for entry in two], dtype=np.intp)
        q1_arr = np.asarray([entry[1][1] for entry in two], dtype=np.intp)
        z0 = z[j_arr, :, q0_arr]
        x0 = x[j_arr, :, q0_arr]
        z1 = z[j_arr, :, q1_arr]
        x1 = x[j_arr, :, q1_arr]
        zero = np.zeros_like(z0)
        component_a = np.stack([zero, z0, z0 ^ x0, x0], axis=1)
        component_b = np.stack([zero, z1, z1 ^ x1, x1], axis=1)
        tables = component_a[:, _PAIR_A] ^ component_b[:, _PAIR_B]
        masks = np.stack([entry[2] for entry in two])
        choices = np.stack([entry[3] for entry in two])
        event, shot = np.nonzero(masks)
        r[j_arr[event], shot] ^= tables[event, choices[event, shot]]


def execute_merged_program(
    merged: MergedExecutionProgram,
    noise_models: Sequence[NoiseModel],
    seeds: Sequence[SeedLike],
    shots: int,
) -> List[Dict[str, int]]:
    """Run a merged schedule; returns one counts dictionary per lane.

    ``noise_models`` and ``seeds`` align with ``merged.lanes``.  Every lane
    draws from its own seeded generator in exactly the order the solo
    :class:`~repro.simulators.batched_stabilizer.BatchedStabilizerSimulator`
    would, so lane ``j``'s counts are bit-identical to running its member
    program alone under ``seeds[j]`` and ``noise_models[j]``.
    """
    if shots <= 0:
        raise StabilizerError("shots must be positive")
    num_lanes = len(merged.lanes)
    if len(noise_models) != num_lanes or len(seeds) != num_lanes:
        raise StabilizerError(
            f"Merged program has {num_lanes} lanes; got {len(noise_models)} noise "
            f"models and {len(seeds)} seeds"
        )
    n = merged.num_qubits
    x = np.zeros((num_lanes, 2 * n, n), dtype=np.uint8)
    z = np.zeros((num_lanes, 2 * n, n), dtype=np.uint8)
    r = np.zeros((num_lanes, shots, 2 * n), dtype=np.uint8)
    diagonal = np.arange(n)
    x[:, diagonal, diagonal] = 1
    z[:, n + diagonal, diagonal] = 1
    # Gate sign-flip masks are shot-independent and XOR commutes with the
    # sparse noise flips, so gates accumulate into a per-lane (2n,) pending
    # mask that is flushed into the (shots, 2n) sign matrix only when a
    # measure/reset is about to *read* it — O(2n) per gate instead of
    # O(shots * 2n), the structural speedup over the per-job solo walk.
    pending = np.zeros((num_lanes, 2 * n), dtype=np.uint8)
    rngs = [ensure_generator(seed) for seed in seeds]
    bits = [
        np.zeros((shots, max(lane.num_clbits, 1)), dtype=np.uint8) for lane in merged.lanes
    ]

    def flush(lane_index: int) -> None:
        lane_pending = pending[lane_index]
        if lane_pending.any():
            r[lane_index] ^= lane_pending[None, :]
            lane_pending[:] = 0

    for position in _kernel_for(merged):
        if position.h is not None:
            j_arr, q_arr = position.h
            x_col = x[j_arr, :, q_arr]
            z_col = z[j_arr, :, q_arr]
            pending[j_arr] ^= x_col & z_col
            x[j_arr, :, q_arr] = z_col
            z[j_arr, :, q_arr] = x_col
        if position.s is not None:
            j_arr, q_arr = position.s
            x_col = x[j_arr, :, q_arr]
            z_col = z[j_arr, :, q_arr]
            pending[j_arr] ^= x_col & z_col
            z[j_arr, :, q_arr] = z_col ^ x_col
        if position.cx is not None:
            j_arr, c_arr, t_arr = position.cx
            x_c = x[j_arr, :, c_arr]
            z_c = z[j_arr, :, c_arr]
            x_t = x[j_arr, :, t_arr]
            z_t = z[j_arr, :, t_arr]
            pending[j_arr] ^= x_c & z_t & (x_t ^ z_c ^ 1)
            x[j_arr, :, t_arr] = x_t ^ x_c
            z[j_arr, :, c_arr] = z_c ^ z_t
        if position.noise:
            _inject_noise(position.noise, x, z, r, noise_models, rngs, shots)
        for lane_index, qubit, bit_position in position.measure:
            flush(lane_index)
            outcomes = _measure_lane(
                x[lane_index], z[lane_index], r[lane_index], n, qubit, rngs[lane_index], shots
            )
            flip_probability = noise_models[lane_index].measurement_error(qubit)
            if flip_probability > 0.0:
                flips = rngs[lane_index].random(shots) < flip_probability
                outcomes = outcomes ^ flips.astype(np.uint8)
            bits[lane_index][:, bit_position] = outcomes
        for lane_index, qubit in position.reset:
            flush(lane_index)
            _reset_lane(
                x[lane_index], z[lane_index], r[lane_index], n, qubit, rngs[lane_index], shots
            )
    return [
        _fast_counts(lane_bits, max(lane.num_clbits, 1))
        for lane, lane_bits in zip(merged.lanes, bits)
    ]


def _fast_counts(bits: np.ndarray, width: int) -> Dict[str, int]:
    """Counts dictionary from an outcome-bit matrix via integer packing.

    Equivalent to the solo engine's per-row string construction (same keys,
    same values) but packs each row into one integer so the unique pass runs
    over a 1-D array and only the unique outcomes are formatted as strings.
    """
    if width > 62:  # packing would overflow int64; registers never get here
        return _counts_from_bits(bits)
    weights = np.left_shift(1, np.arange(width - 1, -1, -1, dtype=np.int64))
    packed = bits.astype(np.int64) @ weights
    values, counts = np.unique(packed, return_counts=True)
    return {
        format(int(value), f"0{width}b"): int(count)
        for value, count in zip(values, counts)
    }
