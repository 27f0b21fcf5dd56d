"""The service runtime: tenant queue, serialized MATCHING, device lanes.

:class:`ServiceRuntime` is the one execution path of
:class:`~repro.service.QRIOService`, for every ``workers`` value.  Every job
goes through the same scheduling loop: a queue, one MATCHING funnel, then
execution in the lane of its placed device.  ``workers`` only decides which
threads turn that loop.

Architecture
------------
The runtime owns three pieces:

* **Weighted-fair tenant queue** — submitted job groups (the batch-dedup
  unit: one representative spec, N handles) enter the per-tenant sub-queue
  of their :attr:`~repro.service.JobRequirements.tenant` and are drained by
  the virtual-time WFQ scheduler of :mod:`repro.tenancy.wfq`: while several
  tenants are backlogged, dispatch slots are split in proportion to tenant
  weights, so one tenant's burst can no longer starve everyone else.
  *Within* a tenant the ``(-priority, deadline, submission order)`` order
  holds — higher priority dispatches first, ties break
  earliest-deadline-first, then FIFO — so single-tenant, default-priority
  traffic dispatches in submission order.  A bounded queue
  (``max_pending``, ``workers >= 1`` only) applies backpressure:
  ``submit(..., block=False)`` raises
  :class:`~repro.utils.exceptions.ServiceOverloadedError` when full, while
  ``block=True`` parks the submitter until the dispatcher frees capacity.

* **Dispatch step** — :meth:`ServiceRuntime._dispatch_one` pops the next
  group, runs the engine's MATCHING stage and hands the matched group to
  its device lane.  Matching is deliberately serialized: every engine
  funnels scoring through shared state (cluster registry, meta server,
  session clock), and the fleet-wide caches make a warm match cheap, so the
  scalability win lives in overlapping *execution*, not matching.  Serial
  matching also preserves the arrival-order contract of the cloud engine's
  discrete-event session.  When a match fails only because every candidate
  node is full (matched groups hold their node's resources until their lane
  finishes them), the step waits for a lane to finish a group and matches
  again instead of failing the job.

* **Per-device shard lanes** — a matched group is appended to the lane of
  its placed device.  Each lane is a FIFO served by at most one worker at a
  time, so jobs placed on the *same* device serialize (a physical QPU runs
  one circuit at a time) while jobs on *different* devices may run
  concurrently — the multi-device throughput measured by
  ``BENCH_concurrency.json``.  Engines advertise whether their RUNNING stage
  tolerates concurrent callers via
  :attr:`~repro.service.ExecutionEngine.supports_concurrent_run`; when they
  do not, lanes still overlap queueing/latency but the engine's ``run`` is
  wrapped in one global lock.

Who turns the loop
------------------
With ``workers=N`` (N >= 1) one daemon dispatcher thread loops on the
dispatch step and a bounded ``ThreadPoolExecutor`` of N threads serves the
lanes, so submission never blocks on execution.

With ``workers=0`` the runtime starts no thread at all.  :meth:`drain` and
:meth:`wait_handle` run the dispatch step on the caller's thread, under one
(re-entrant) drive lock, until the queue is empty or the awaited handle is
terminal; the lane worker runs inline.  Any number of caller threads may
drive the same service: the drive lock keeps MATCHING serialized exactly as
the dispatcher thread does.

Handles stay the observable surface: whichever thread finishes a job feeds
its :class:`~repro.service.JobHandle`'s condition variable, which powers
``wait(timeout=...)``, ``done()``, ``add_done_callback`` and the streaming
``events(follow=True)`` iterator.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Deque, Dict, Optional, Sequence, Set, Tuple

from repro.tenancy.wfq import WeightedFairQueue
from repro.utils.exceptions import ServiceError, ServiceOverloadedError


class ServiceRuntime:
    """Tenant queue + dispatch step + device lanes behind every :class:`QRIOService`.

    Built by ``QRIOService(workers=N)`` — not meant to be constructed
    directly.  All public methods are thread-safe.
    """

    def __init__(
        self,
        service: "QRIOService",
        *,
        workers: int,
        max_pending: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ServiceError("ServiceRuntime needs workers >= 0")
        if max_pending is not None and max_pending <= 0:
            raise ServiceError("max_pending must be a positive job count (or None for unbounded)")
        self._service = service
        self._workers = workers
        self._max_pending = max_pending
        self._lock = threading.Lock()
        #: Dispatcher wake-up: new work queued or the runtime closing.
        self._work = threading.Condition(self._lock)
        #: Backpressure wake-up: queue capacity freed.
        self._not_full = threading.Condition(self._lock)
        #: Drain wake-up: a group finished (inflight may have hit zero).
        self._idle = threading.Condition(self._lock)
        self._queue: WeightedFairQueue = WeightedFairQueue()
        self._queued_jobs = 0  # handles admitted but not yet dispatched
        self._inflight_groups = 0  # groups admitted but not yet terminal
        self._executing_groups = 0  # groups handed to lanes, not yet finished
        #: Quiesce wake-up: no matched group is executing in any lane.  Used
        #: by the fault injector as a barrier before run-visible state
        #: changes (calibration jumps, straggler windows).
        self._quiet = threading.Condition(self._lock)
        #: Capacity wake-up: a lane finished a group (released its node
        #: resources).  The dispatcher waits on it when every node is full.
        self._ran = threading.Condition(self._lock)
        self._finished_runs = 0
        self._lanes: Dict[str, Deque[Tuple[object, object]]] = {}
        self._active_lanes: Set[str] = set()
        self._closed = False
        #: Serializes engine.run for engines without supports_concurrent_run.
        self._run_lock = threading.Lock()
        #: workers=0: serializes the caller threads that run the dispatch
        #: step inline.  Re-entrant, because a done-callback fired inside
        #: the step may itself drive the service (``process()``/``result()``).
        self._drive_lock = threading.RLock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[threading.Thread] = None
        if workers:
            self._executor = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="qrio-runtime")
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="qrio-runtime-dispatcher", daemon=True
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Size of the bounded worker pool (``0``: the caller's thread dispatches)."""
        return self._workers

    @property
    def max_pending(self) -> Optional[int]:
        """Backpressure bound on queued-but-undispatched jobs (``None`` = unbounded)."""
        return self._max_pending

    def stats(self) -> Dict[str, int]:
        """Point-in-time queue/lane occupancy counters (for ``QRIOService.stats``)."""
        with self._lock:
            return {
                "workers": self._workers,
                "queued_jobs": self._queued_jobs,
                "queued_groups": len(self._queue),
                "inflight_groups": self._inflight_groups,
                "active_lanes": len(self._active_lanes),
            }

    # ------------------------------------------------------------------ #
    # Submission side
    # ------------------------------------------------------------------ #
    def enqueue(self, groups: Sequence[object], *, block: bool = True) -> None:
        """Admit freshly submitted job groups into the priority queue.

        Atomic with respect to backpressure: either every group of the batch
        is admitted or none is.

        Args:
            groups: ``_JobGroup`` objects from ``QRIOService.submit_specs``.
            block: With ``True`` (default) the call parks until the queue has
                room for the whole batch; with ``False`` it raises instead.

        Raises:
            ServiceOverloadedError: The queue cannot (``block=False``) or can
                never (batch larger than ``max_pending``) absorb the batch.
            ServiceError: The runtime was closed.
        """
        total = sum(len(group.handles) for group in groups)
        with self._lock:
            if self._max_pending is not None and total > self._max_pending:
                raise ServiceOverloadedError(
                    f"A batch of {total} jobs can never fit a max_pending={self._max_pending} queue"
                )
            while True:
                if self._closed:
                    raise ServiceError("The service runtime is closed; no further submissions accepted")
                if self._max_pending is None or self._queued_jobs + total <= self._max_pending:
                    break
                if not block:
                    raise ServiceOverloadedError(
                        f"Service queue is full ({self._queued_jobs}/{self._max_pending} jobs pending); "
                        "retry later or submit with block=True"
                    )
                self._not_full.wait()
            # EDF needs absolute due times: deadline_s is relative to real
            # submission time, which only the host clock knows.
            # qrio: allow[QRIO-D002] wall-clock deadline arithmetic of the live runtime
            now = time.monotonic()
            for group in groups:
                requirements = group.spec.requirements
                tenant = requirements.effective_tenant
                deadline = requirements.deadline_s
                # deadline_s is relative to submission, so EDF must compare
                # *absolute* due times — a job submitted later with a short
                # deadline can be due before one submitted earlier with a
                # long deadline.  The key only orders jobs *within* a
                # tenant; across tenants the WFQ's virtual clock decides.
                key = (
                    -requirements.priority,
                    float("inf") if deadline is None else now + float(deadline),
                )
                self._queue.push(tenant.id, tenant.weight, key, group)
                self._queued_jobs += len(group.handles)
                self._inflight_groups += 1
            self._work.notify_all()

    # ------------------------------------------------------------------ #
    # Draining / shutdown
    # ------------------------------------------------------------------ #
    def drain(self) -> None:
        """Block until every admitted group has reached a terminal state.

        With ``workers=0`` the caller's thread dispatches the queue itself.
        """
        if self._dispatcher is None:
            with self._drive_lock:
                while self._dispatch_one():
                    pass
            return
        with self._lock:
            self._idle.wait_for(lambda: self._inflight_groups == 0 and not self._queue)

    def drain_report(self) -> Dict[str, object]:
        """Drain, then summarise the run's wall-clock waits and makespan.

        Returns :meth:`QRIOService.wait_report` — QUEUED→RUNNING wait
        percentiles (p50/p95/p99), job counts and the submission-to-last-
        terminal makespan — so a concurrent drain reports the same vocabulary
        as a :class:`~repro.cloud.CloudSimulationResult` summary.
        """
        self.drain()
        return self._service.wait_report()

    def wait_handle(self, handle, timeout: Optional[float]) -> bool:
        """Block until ``handle`` is terminal (or ``timeout``); returns success.

        With ``workers=0`` the caller's thread dispatches queued groups, in
        queue order, until ``handle`` is terminal; ``timeout`` then bounds
        only the wait for another thread that is dispatching.
        """
        if self._dispatcher is not None:
            return handle._await_terminal(timeout)
        if not self._drive_lock.acquire(timeout=-1 if timeout is None else timeout):
            return False
        try:
            while not handle.finished and self._dispatch_one():
                pass
        finally:
            self._drive_lock.release()
        return bool(handle.finished)

    def quiesce_runs(self) -> None:
        """Block until no matched group is executing in a lane.

        Called from the dispatch step (via the fault injector, inside the
        serialized MATCHING stage) before a run-visible fault effect is
        applied — a calibration epoch is a barrier, so no job ever executes
        against half-swapped device state.  Lane workers never wait on the
        dispatch step, so this cannot deadlock; with ``workers=0`` every
        lane runs inline and nothing is executing, so it returns at once.
        """
        with self._lock:
            self._quiet.wait_for(lambda: self._executing_groups == 0)

    def close(self) -> None:
        """Stop accepting submissions, drain in-flight work, release the pool.

        Idempotent.  Pending queued groups still execute (a close is a drain,
        not an abort); only *new* submissions are rejected.
        """
        with self._lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
                self._work.notify_all()
                self._not_full.notify_all()
        self.drain()
        if not already and self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Dispatch step: priority pop -> serialized MATCHING -> lane hand-off
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        """The dispatcher thread of ``workers >= 1``: loop on the dispatch step."""
        while True:
            with self._lock:
                self._work.wait_for(lambda: self._queue or self._closed)
                if not self._queue:
                    return  # closed and fully dispatched
            self._dispatch_one()

    def _dispatch_one(self) -> bool:
        """Dispatch the next queued group; ``False`` when the queue is empty.

        Only one thread runs this at a time: the dispatcher thread, or a
        caller holding the drive lock when ``workers=0``.
        """
        with self._lock:
            if not self._queue:
                return False
            group = self._queue.pop()
            self._queued_jobs -= len(group.handles)
            self._not_full.notify_all()
        placement = self._service._match_group(group, self._capacity_waiter())
        if placement is None:
            # Accounting first, callbacks second: a callback may call
            # close()/process(), which must see this group as finished.
            self._finish_group()
            group.drain_callbacks()
            return True
        with self._lock:
            self._executing_groups += 1
            self._lanes.setdefault(placement.device, deque()).append((group, placement))
            start = placement.device not in self._active_lanes
            self._active_lanes.add(placement.device)
        if self._dispatcher is None:
            # workers=0: serve the lane on this thread.  Not gated on
            # ``start``: a done-callback that drives the service dispatches
            # nested, while the outer lane worker of the same device has
            # finished its group but not yet left the lane.
            self._lane_worker(placement.device)
        elif start:
            self._executor.submit(self._lane_worker, placement.device)
        return True

    def _capacity_waiter(self) -> Callable[[], bool]:
        """The ``wait_for_capacity`` hook for one group's MATCHING stage.

        A node that is only full is a transient state: every matched group
        holds its node's resources until its lane finishes it.  The hook
        blocks until a lane finishes a group since the previous match, then
        returns ``True`` to match again; with no group executing (and none
        finished) nothing will free capacity, so it returns ``False`` and the
        group fails as saturated.
        """
        with self._lock:
            seen = self._finished_runs

        def wait() -> bool:
            nonlocal seen
            with self._lock:
                self._ran.wait_for(
                    lambda: self._finished_runs > seen or self._executing_groups == 0
                )
                progressed = self._finished_runs > seen
                seen = self._finished_runs
            return progressed

        return wait

    def _lane_worker(self, device: str) -> None:
        """Serve one device's lane: same-device jobs serialize, lanes overlap.

        Groups come off the lane one at a time, in lane order; each finishes
        (and fires its callbacks) before the next one runs.
        """
        while True:
            with self._lock:
                lane = self._lanes[device]
                if not lane:
                    self._active_lanes.discard(device)
                    return
                group, placement = lane.popleft()
            try:
                if self._service.engine.supports_concurrent_run:
                    self._service._run_group(group, placement)
                else:
                    with self._run_lock:
                        self._service._run_group(group, placement)
            except Exception:  # noqa: BLE001 - recorded on the handles already
                pass
            finally:
                # Accounting first, callbacks second (a callback may call
                # close()/process(), which must see this group as finished).
                self._finish_group(ran=True)
            group.drain_callbacks()

    def _finish_group(self, *, ran: bool = False) -> None:
        with self._lock:
            self._inflight_groups -= 1
            if ran:
                self._executing_groups -= 1
                self._finished_runs += 1
                self._ran.notify_all()
                if self._executing_groups == 0:
                    self._quiet.notify_all()
            if self._inflight_groups == 0 and not self._queue:
                self._idle.notify_all()
