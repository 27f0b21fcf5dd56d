"""One benchmark run of one workload, in a fresh process started by run.py.

Set-up (repeated ``SETUP_REPEATS`` times, median reported as ``setup_s``):
clear every shared cache, generate the fleet and the traffic, build the
service and submit the untimed warm-up.  Then ``gc.collect()`` and the
measured phase: closed-loop clients submit the traffic and wait for each
result before sending their next job.  With ``--trace 1`` the rounds of the
measured traffic alternate with rounds of a second, traced traffic (fresh
job names and angles, same per-kind counts) on the same warm service.

Reference probes run between closed-loop steps and in sessions around the
run and the set-ups; the timed stretches contain no probes.  Time metrics
are reported at reference speed (see REFERENCE_PROBE_MS).

The last line of standard output is the JSON result; earlier lines carry the
run fingerprint and the detail behind each metric, unscaled values included.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import queue
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.backends.fleet import generate_fleet  # noqa: E402
from repro.core.cache import all_cache_stats, clear_all_caches, structural_circuit_hash  # noqa: E402
from repro.service import JobHandle, JobState, OrchestratorEngine, QRIOService  # noqa: E402
from repro.simulators.result import hellinger_fidelity  # noqa: E402
from repro.simulators.statevector import StatevectorSimulator  # noqa: E402

import traffic as tr  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
#: Closed-loop wait bound per result; a job slower than this fails the run.
RESULT_TIMEOUT_S = 120.0
#: Tail percentile ladder: the tail metric is the highest rung with at least
#: ``TAIL_MIN_BEYOND`` samples above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10
#: Only sharply peaked outcome distributions (uniformly random outcomes reach
#: at most this Hellinger fidelity against them) are gated on beating noise:
#: against flatter ones, such as fresh-angle ansatz circuits, a correct noisy
#: result can land level with uniform noise.
NOISE_DISTINGUISHABLE = 0.25
WORKERS = {"warm_replay": 0, "param_sweep": 0, "tenant_mix": 2}
#: Typical time of one reference probe on the reference box (2 vCPUs, Intel
#: Xeon).  The box's speed swings by up to 1.5x within minutes, so every time
#: metric is reported at this probe speed: scaled by the mean probe time
#: measured between the steps of the same run over REFERENCE_PROBE_MS.
REFERENCE_PROBE_MS = 4.0
PROBE_GAP_S = 0.025
#: One probe about every half second of measured work, and a session of
#: PROBE_SESSION probes (PROBE_GAP_S apart) before and after the run and
#: after each set-up.
PROBES_PER_SECOND_OF_WORK = 2.0
PROBE_SESSION = 8
OUT_DIR = Path(__file__).resolve().parent / "out"


# --------------------------------------------------------------------------- #
# Measurement records
# --------------------------------------------------------------------------- #
@dataclass
class Record:
    job: tr.Job
    submitted: float
    finished: float = 0.0
    handle: Optional[JobHandle] = None

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.submitted) * 1e3


@dataclass
class Phase:
    """Jobs measured under one condition (untraced or traced), accumulated
    over the timed steps of one or more rounds."""

    records: List[Record] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Hit/miss/eviction deltas of every shared cache over the phase.
    cache: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def jobs(self) -> int:
        return len(self.records)


def tail_rank(count: int):
    """(percentile, samples beyond it) of the tail metric for ``count`` samples."""
    best = None
    for percentile in TAIL_LADDER:
        beyond = count - math.ceil(percentile / 100.0 * count)
        if beyond >= TAIL_MIN_BEYOND:
            best = (percentile, beyond)
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> float:
    rank = tail_rank(len(values))
    return percentile(values, rank[0]) if rank else max(values)


def probe_ms() -> float:
    """One run of a fixed CPU loop (pure Python plus small NumPy), in ms."""
    matrix = np.random.default_rng(0).standard_normal((32, 32))
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    for _ in range(40):
        matrix = np.tanh(matrix @ matrix * 0.01)
    return (time.perf_counter() - start) * 1e3


def probe_session(count: int, samples: List[float]) -> None:
    """Append ``count`` reference probes, spread over a short stretch of time."""
    for index in range(count):
        if index:
            time.sleep(PROBE_GAP_S)
        samples.append(probe_ms())


def fingerprint(args, traffic: tr.Traffic) -> Dict:
    samples = len([job for job in traffic.jobs() if job.tenant != tr.SWEEP.id])
    rank = tail_rank(samples)
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "rounds": traffic.rounds,
        "kind_counts": traffic.kind_counts(),
        "latency_samples": samples,
        "tail_percentile": rank[0] if rank else 100.0,
        "tail_beyond": rank[1] if rank else 0,
    }


# --------------------------------------------------------------------------- #
# Set-up and closed-loop clients
# --------------------------------------------------------------------------- #
def build_service(workload: str) -> QRIOService:
    fleet = generate_fleet(seed=tr.FLEET_SEED, limit=tr.FLEET_SIZE)
    return QRIOService(fleet, OrchestratorEngine(seed=tr.ENGINE_SEED), workers=WORKERS[workload])


def set_up(args):
    """One full set-up; returns (service, measured traffic, traced traffic)."""
    clear_all_caches()
    service = build_service(args.workload)
    traffic = tr.build_traffic(args.workload, args.seed, args.seconds)
    traced = tr.build_traffic(args.workload, args.seed, args.seconds, phase="t") if args.trace else None
    try:
        for job in traffic.warmup:
            service.submit(job.circuit, job.requirements, shots=tr.SHOTS, name=job.name).result(
                timeout=RESULT_TIMEOUT_S
            )
    except BaseException:
        service.close()
        raise
    return service, traffic, traced


def run_steps(service: QRIOService, steps: Sequence[Tuple[tr.Job, ...]], phase: Phase,
              probes: List[float], probe_every: int, tracer: Optional[Tracer] = None) -> None:
    """Closed loop over ``steps``; records, wall and CPU time accumulate into
    ``phase``.

    Within a step each later job is submitted once the job before it has
    left the queue (is MATCHING), so on the concurrent service it queues
    behind that job in the serialized MATCHING funnel; the step ends when
    every result is back.  A reference probe follows every ``probe_every``
    steps, outside the timed stretches.
    """
    done: "queue.SimpleQueue" = queue.SimpleQueue()

    def submit(job: tr.Job) -> Record:
        record = Record(job=job, submitted=time.perf_counter())
        span = tracer.open("service.submit", job.name) if tracer else None
        try:
            record.handle = service.submit(job.circuit, job.requirements, shots=tr.SHOTS, name=job.name)
        finally:
            if span:
                tracer.close(span)
        phase.records.append(record)
        return record

    def run_step(step: Tuple[tr.Job, ...]) -> None:
        if not service.is_concurrent:
            for job in step:
                record = submit(job)
                span = tracer.open("service.result", job.name) if tracer else None
                try:
                    record.handle.wait(timeout=RESULT_TIMEOUT_S)
                finally:
                    if span:
                        tracer.close(span)
                record.finished = time.perf_counter()
            return
        pending: Dict[str, Record] = {}
        for position, job in enumerate(step):
            record = pending[job.name] = submit(job)
            record.handle.add_done_callback(lambda handle: done.put((handle.name, time.perf_counter())))
            if position + 1 < len(step):
                for event in record.handle.events(follow=True, timeout=RESULT_TIMEOUT_S):
                    if event.state != JobState.QUEUED:
                        break
        while pending:
            name, finished = done.get(timeout=RESULT_TIMEOUT_S)
            pending.pop(name).finished = finished

    caches_before = all_cache_stats()
    for index, step in enumerate(steps, start=1):
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        run_step(step)
        phase.wall_s += time.perf_counter() - start_wall
        phase.cpu_s += time.process_time() - start_cpu
        if index % probe_every == 0:
            probes.append(probe_ms())
    for cache, after in all_cache_stats().items():
        totals = phase.cache.setdefault(cache, {"hits": 0, "misses": 0, "evictions": 0})
        for key in totals:
            totals[key] += after[key] - caches_before[cache][key]


# --------------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------------- #
def uniform_fidelity(ideal: Dict[str, float], width: int) -> float:
    """Hellinger fidelity of uniformly random outcomes against ``ideal``."""
    return sum(math.sqrt(p / 2**width) for p in ideal.values()) ** 2


def project(counts: Dict[str, int], width: int) -> Optional[Dict[str, int]]:
    """Counts over the circuit's own clbits, or None when the outcomes are malformed.

    The service reports outcomes as wide as the parsed job circuit, whose
    QASM round trip widens the classical register to the qubit count; the
    extra high bits are never written and must read 0.
    """
    projected: Dict[str, int] = {}
    for bits, count in counts.items():
        if len(bits) < width or set(bits) - {"0", "1"} or "1" in bits[: len(bits) - width]:
            return None
        key = bits[len(bits) - width:]
        projected[key] = projected.get(key, 0) + count
    return projected


def check(phase: Phase, errors: List[str]) -> Dict:
    """Gate one phase; returns fidelity, replay share and the results signature."""
    fidelities, signed, replays = [], [], {"expected": 0, "replayed": 0, "cold_replayed": 0}
    ok = 0
    per_kind_f: Dict[str, List[float]] = {}
    ideals: Dict[str, Dict[str, float]] = {}
    for record in phase.records:
        handle, job = record.handle, record.job
        if handle.state != JobState.DONE:
            errors.append(f"{job.name}: ended {handle.state.value}: {handle.status().error}")
            continue
        result = handle.result()
        counts = result.counts
        if sum(counts.values()) != tr.SHOTS or result.shots != tr.SHOTS:
            errors.append(f"{job.name}: counts sum to {sum(counts.values())}, expected {tr.SHOTS}")
            continue
        outcomes = project(counts, job.circuit.num_clbits)
        if outcomes is None:
            errors.append(f"{job.name}: outcomes are not {job.circuit.num_clbits}-bit strings padded with 0s")
            continue
        structure = structural_circuit_hash(job.circuit)
        if structure not in ideals:
            ideals[structure] = StatevectorSimulator().probabilities(job.circuit)
        ideal = ideals[structure]
        fidelity = hellinger_fidelity(outcomes, ideal)
        floor = uniform_fidelity(ideal, job.circuit.num_clbits)
        if floor <= NOISE_DISTINGUISHABLE and fidelity <= floor:
            errors.append(f"{job.name}: Hellinger fidelity {fidelity:.3f} is no better than noise ({floor:.3f})")
            continue
        ok += 1
        fidelities.append(fidelity)
        per_kind_f.setdefault(job.kind, []).append(fidelities[-1])
        replayed = bool(result.detail.get("plan_replay"))
        if tr.replay_expected(job):
            replays["expected"] += 1
            replays["replayed"] += replayed
        else:
            replays["cold_replayed"] += replayed
        digest = hashlib.sha256(json.dumps(sorted(counts.items())).encode()).hexdigest()[:16]
        signed.append(f"{job.name}={result.device}:{digest};")
    if replays["replayed"] != replays["expected"]:
        errors.append(
            f"plan replay on {replays['replayed']} of {replays['expected']} warm jobs (expected all): "
            "a warm job fell back to cold MATCHING"
        )
    if replays["cold_replayed"]:
        errors.append(f"{replays['cold_replayed']} fresh-angle jobs replayed a plan (expected none)")
    min_fidelity = min(fidelities) if fidelities else 0.0
    return {
        "ok": ok,
        # fsum is exactly rounded, so the mean does not depend on the
        # completion order of concurrent jobs.
        "fidelity_mean": math.fsum(fidelities) / len(fidelities) if fidelities else 0.0,
        "fidelity_min": min_fidelity,
        "per_kind_fidelity": {k: (round(min(v), 3), round(statistics.fmean(v), 3)) for k, v in sorted(per_kind_f.items())},
        "replays": replays,
        "signature": hashlib.sha256("".join(sorted(signed)).encode()).hexdigest()[:20],
    }


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def latency_records(records: Sequence[Record]) -> List[Record]:
    """The jobs the latency metrics cover: all but the sweep tenant's."""
    return [r for r in records if r.job.tenant != tr.SWEEP.id]


def end_to_end(phase: Phase, gate: Dict, setup_s: float, slowdown: float, setup_slowdown: float) -> Dict:
    """The end-to-end metrics, times scaled to the reference probe speed.

    ``slowdown`` is the run's mean probe time over REFERENCE_PROBE_MS (above
    1 when the box ran slow); ``setup_slowdown`` the same around the set-ups.
    """
    latencies = [r.latency_ms for r in latency_records(phase.records)]
    return {
        "jobs_per_s": metric(phase.jobs / phase.wall_s * slowdown, "1/s"),
        "latency_p50_ms": metric(percentile(latencies, 50.0) / slowdown, "ms"),
        "latency_tail_ms": metric(tail(latencies) / slowdown, "ms"),
        "cpu_ms_per_job": metric(phase.cpu_s * 1e3 / phase.jobs / slowdown, "ms"),
        "fidelity_mean": metric(gate["fidelity_mean"], "ratio"),
        "ok_share": metric(gate["ok"] / phase.jobs, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": metric(setup_s / setup_slowdown, "s"),
    }


def stage_times(record: Record) -> Dict[str, float]:
    """Per-stage wall times (ms) of one job from its lifecycle events."""
    first: Dict[JobState, float] = {}
    for event in record.handle.events():
        first.setdefault(event.state, event.timestamp)
    queued, matching = first[JobState.QUEUED], first[JobState.MATCHING]
    running, done = first[JobState.RUNNING], first[JobState.DONE]
    return {
        "queue_ms": (matching - queued) * 1e3,
        "match_ms": (running - matching) * 1e3,
        "run_ms": (done - running) * 1e3,
    }


def per_layer(phase: Phase, untraced: Phase, tracer: Tracer, gate: Dict) -> Dict:
    jobs = phase.jobs
    spans = tracer.spans

    def total_ms(name: str) -> float:
        return sum(span.duration for span in spans if span.name == name) * 1e3

    def calls(name: str) -> int:
        return sum(1 for span in spans if span.name == name)

    def mean_size(name: str) -> float:
        sizes = [span.size for span in spans if span.name == name]
        return statistics.fmean(sizes) if sizes else 0.0

    sim_names = ("simulators.execute", "simulators.execute_many")
    sim_ids = {span.id for span in spans if span.name in sim_names}
    sim_top = [span for span in spans if span.name in sim_names and span.parent not in sim_ids]
    sim_ms = sum(span.duration for span in sim_top) * 1e3
    out = {
        "simulators.execute_ms": metric(sim_ms / jobs, "ms"),
        "simulators.execute_calls": metric(len(sim_top), "count"),
        "simulators.statevector_share": metric(
            total_ms("simulators.statevector") / sim_ms if sim_ms else 0.0, "ratio"
        ),
        "qasm.parse_calls_per_job": metric(calls("qasm.parse") / jobs, "count"),
        "qasm.parse_ms": metric(total_ms("qasm.parse") / jobs, "ms"),
        "core.submit_form_ms": metric(total_ms("core.submit_form") / jobs, "ms"),
        "plans.replay_share": metric(gate["replays"]["replayed"] / jobs, "ratio"),
        "plans.compile_ms": metric(total_ms("plans.compile") / jobs, "ms"),
        "plans.merge_calls": metric(calls("plans.merge_programs"), "count"),
        "plans.merged_jobs_mean": metric(mean_size("plans.merge_programs"), "count"),
        "fidelity.estimate_many_ms": metric(total_ms("fidelity.estimate_many") / jobs, "ms"),
        "fidelity.devices_per_ranking": metric(mean_size("fidelity.estimate_many"), "count"),
        "transpiler.transpile_ms": metric(total_ms("transpiler.transpile") / jobs, "ms"),
        "transpiler.calls_per_job": metric(calls("transpiler.transpile") / jobs, "count"),
        "matching.match_device_ms": metric(total_ms("matching.match_device") / jobs, "ms"),
        "matching.match_device_calls": metric(calls("matching.match_device"), "count"),
        "core.schedule_job_ms": metric(total_ms("core.schedule_job") / jobs, "ms"),
        "core.execute_bound_job_ms": metric(total_ms("core.execute_bound_job") / jobs, "ms"),
        "engine.match_ms": metric(total_ms("engine.match") / jobs, "ms"),
        "engine.run_ms": metric(total_ms("engine.run") / jobs, "ms"),
    }
    for cache in ("plan", "embedding", "ideal_distribution", "batch"):
        delta = phase.cache[cache]
        lookups = delta["hits"] + delta["misses"]
        out[f"cache.{cache}.hit_ratio"] = metric(delta["hits"] / lookups if lookups else 0.0, "ratio")
        out[f"cache.{cache}.evictions"] = metric(delta["evictions"], "count")
    # Self time per layer, per job: where the time goes.
    layers = tracer.layer_self_times()
    for layer in ("service", "engine", "core", "plans", "fidelity", "transpiler", "matching", "simulators", "qasm"):
        out[f"self.{layer}_ms"] = metric(layers.get(layer, 0.0) * 1e3 / jobs, "ms")
    # Lifecycle stages from JobHandle.events(), per tenant group.
    groups = {"stage": latency_records(phase.records),
              "stage.sweep": [r for r in phase.records if r.job.tenant == tr.SWEEP.id]}
    covered = latency = 0.0
    for prefix, records in groups.items():
        stages = [stage_times(r) for r in records]
        for stage in ("queue_ms", "match_ms", "run_ms"):
            values = [s[stage] for s in stages]
            out[f"{prefix}.{stage}.p50"] = metric(percentile(values, 50.0) if values else 0.0, "ms")
            out[f"{prefix}.{stage}.tail"] = metric(tail(values) if values else 0.0, "ms")
        covered += sum(sum(s.values()) for s in stages)
        latency += sum(r.latency_ms for r in records)
    out["stage.sweep.jobs"] = metric(len(groups["stage.sweep"]), "count")
    out["stage.unaccounted_share"] = metric(1.0 - covered / latency, "ratio")
    out["tracing.overhead"] = metric((phase.jobs / phase.wall_s) / (untraced.jobs / untraced.wall_s), "ratio")
    return out


def where_time_goes(tracer: Tracer) -> Dict[str, float]:
    """Share of all traced self time per layer."""
    layers = tracer.layer_self_times()
    total = sum(layers.values())
    return {layer: round(value / total, 4) for layer, value in sorted(layers.items(), key=lambda kv: -kv[1])}


# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tr.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_probes: List[float] = []
    probe_session(PROBE_SESSION, setup_probes)
    setups, service = [], None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        gc.collect()
        start = time.perf_counter()
        service, traffic, traced_traffic = set_up(args)
        setups.append(time.perf_counter() - start)
        probe_session(PROBE_SESSION, setup_probes)
    print("fingerprint " + json.dumps(fingerprint(args, traffic)), flush=True)
    steps_per_round = len(traffic.steps) // traffic.rounds
    probe_every = max(1, round(steps_per_round / (tr.ROUND_SECONDS[args.workload] * PROBES_PER_SECOND_OF_WORK)))
    errors: List[str] = []
    phase, traced, tracer = Phase(), Phase(), Tracer()
    probes: List[float] = []
    try:
        probe_session(PROBE_SESSION, probes)
        gc.collect()
        for index in range(traffic.rounds):
            run_steps(service, traffic.round_steps(index), phase, probes, probe_every)
            if args.trace:
                # Traced rounds alternate with untraced ones, so machine drift
                # hits both sides of tracing.overhead alike.
                tracer.install()
                try:
                    run_steps(service, traced_traffic.round_steps(index), traced, probes, probe_every, tracer)
                finally:
                    tracer.uninstall()
        probe_session(PROBE_SESSION, probes)
    finally:
        service.close()
    gate = check(phase, errors)
    if args.trace:
        traced_gate = check(traced, errors)
    slowdown = statistics.fmean(probes) / REFERENCE_PROBE_MS
    setup_slowdown = statistics.fmean(setup_probes) / REFERENCE_PROBE_MS

    latencies = [r.latency_ms for r in latency_records(phase.records)]
    per_kind: Dict[str, List[float]] = {}
    for record in phase.records:
        per_kind.setdefault(record.job.kind, []).append(record.latency_ms)
    print("detail " + json.dumps({
        "jobs": phase.jobs,
        "setup_runs_s": [round(s, 4) for s in setups],
        "reference_probe_ms": {
            "first": round(statistics.fmean(probes[:PROBE_SESSION]), 3),
            "last": round(statistics.fmean(probes[-PROBE_SESSION:]), 3),
            "mean": round(statistics.fmean(probes), 3),
            "count": len(probes),
        },
        "slowdown": {"run": round(slowdown, 4), "setup": round(setup_slowdown, 4)},
        "raw": {
            "jobs_per_s": round(phase.jobs / phase.wall_s, 4),
            "latency_p50_ms": round(percentile(latencies, 50.0), 3),
            "latency_tail_ms": round(tail(latencies), 3),
            "cpu_ms_per_job": round(phase.cpu_s * 1e3 / phase.jobs, 3),
            "setup_s": round(statistics.median(setups), 4),
        },
        "per_kind_p50_ms": {k: round(statistics.median(v), 2) for k, v in sorted(per_kind.items())},
        "replays": gate["replays"],
        "fidelity_min": round(gate["fidelity_min"], 4),
        "per_kind_fidelity": gate["per_kind_fidelity"],
        "signature": gate["signature"],
    }), flush=True)

    if args.trace:
        metrics = per_layer(traced, phase, tracer, traced_gate)
        print("where_time_goes " + json.dumps(where_time_goes(tracer)), flush=True)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_chrome_trace(trace_path)
        print(f"chrome_trace {os.path.relpath(trace_path)}", flush=True)
        attempted, failed = traced.jobs, traced.jobs - traced_gate["ok"]
    else:
        metrics = end_to_end(phase, gate, statistics.median(setups), slowdown, setup_slowdown)
        attempted, failed = phase.jobs, phase.jobs - gate["ok"]
    for error in errors[:20]:
        print("ERROR " + error, file=sys.stderr)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
