"""The user's view of one submitted service job.

A :class:`JobHandle` is returned immediately by
:meth:`~repro.service.QRIOService.submit`; the job itself executes when the
service's :class:`~repro.service.ServiceRuntime` dispatches it — inline on
the thread that waits for it on a ``workers=0`` service, or on the runtime's
threads when ``workers > 0``.

The handle exposes the explicit lifecycle
(``QUEUED → MATCHING → RUNNING → DONE/FAILED``) through :meth:`status` and
:meth:`events`, and grows the :mod:`concurrent.futures`-style non-blocking
surface the runtime needs:

* :meth:`wait` accepts a ``timeout`` and returns the (possibly still
  non-terminal) status instead of raising on expiry;
* :attr:`done` / :attr:`failed` / :attr:`finished` answer both as legacy
  properties (``handle.done``) and as futures-style calls (``handle.done()``);
* :meth:`add_done_callback` registers completion callbacks that fire on the
  thread that finishes the job (immediately when already terminal);
* ``events(follow=True)`` streams lifecycle transitions as the runtime
  records them, ending once the job reaches a terminal state.

Every mutation happens under one condition variable, so handles are safe to
poll, wait on and stream from any thread while another thread drives the job.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Union

from repro.service.api import (
    ALLOWED_TRANSITIONS,
    JobEvent,
    JobSpec,
    JobState,
    JobStatus,
    ServiceResult,
)
from repro.utils.exceptions import JobFailedError, JobNotCompletedError, ServiceError


class _StateFlag(int):
    """A boolean that can also be *called* like a :class:`concurrent.futures.Future` method.

    PR 2 shipped ``handle.done`` / ``handle.failed`` / ``handle.finished`` as
    plain properties; the concurrent runtime adopts the futures convention of
    ``handle.done()``.  This int subclass keeps both spellings working:
    ``if handle.done:`` (truthiness) and ``if handle.done():`` (call) are
    equivalent, and ``str()`` renders ``True``/``False``.

    Caveat of the bridge: the value is *not* a ``bool`` instance, so use
    truthiness, never identity (``handle.done is True`` is always ``False``),
    and call ``bool(...)`` before serializing it.
    """

    __slots__ = ()

    def __call__(self) -> bool:
        return bool(self)

    def __repr__(self) -> str:
        return repr(bool(self))

    # int would render '1'/'0'; these flags must print like the bools they were.
    __str__ = __repr__


def wall_wait_from_events(events: List[JobEvent]) -> Optional[float]:
    """QUEUED→RUNNING wait of one event list, or ``None`` before RUNNING.

    The one definition of "a job's wall-clock wait", shared by
    :meth:`JobHandle.wall_wait_s` and callers that already hold an event
    snapshot (``QRIOService.wait_report`` scans each handle's events once).
    """
    if not events:
        return None
    queued_at = events[0].timestamp
    for event in events:
        if event.state == JobState.RUNNING:
            return event.timestamp - queued_at
    return None


class JobHandle:
    """Handle to one service job; created by the service, never directly."""

    def __init__(self, name: str, spec: JobSpec, service: "QRIOService") -> None:
        self._name = name
        self._spec = spec
        self._service = service
        self._state = JobState.QUEUED
        self._events: List[JobEvent] = []
        self._device: Optional[str] = None
        self._score: Optional[float] = None
        self._error: Optional[str] = None
        self._exception: Optional[BaseException] = None
        self._detail: Dict[str, object] = {}
        self._result: Optional[ServiceResult] = None
        self._callbacks: List[Callable[["JobHandle"], None]] = []
        #: One lock for every mutation; waiters (wait / result / events
        #: streaming) block on it until workers notify a transition.
        self._cv = threading.Condition()
        self._record(JobState.QUEUED, "submission accepted")

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Service-assigned unique job name."""
        return self._name

    @property
    def spec(self) -> JobSpec:
        """The submission this handle tracks."""
        return self._spec

    @property
    def state(self) -> JobState:
        """Current lifecycle state (a point-in-time read; may advance concurrently)."""
        return self._state

    @property
    def done(self) -> _StateFlag:
        """Truthy when the job completed successfully (usable as ``done`` or ``done()``)."""
        return _StateFlag(self._state == JobState.DONE)

    @property
    def failed(self) -> _StateFlag:
        """Truthy when the job failed, including "no feasible device" (``failed`` or ``failed()``)."""
        return _StateFlag(self._state == JobState.FAILED)

    @property
    def finished(self) -> _StateFlag:
        """Truthy once the job reached a terminal state (``finished`` or ``finished()``)."""
        return _StateFlag(self._state.terminal)

    @property
    def exception(self) -> Optional[BaseException]:
        """The engine exception behind a failure (``None`` for clean failures
        such as "no feasible device")."""
        return self._exception

    # ------------------------------------------------------------------ #
    def status(self) -> JobStatus:
        """Point-in-time lifecycle snapshot.

        Returns:
            A :class:`~repro.service.JobStatus` capturing state, device,
            score, last event message and failure reason at the moment of the
            call.  On a concurrent service the job may advance immediately
            after the snapshot is taken.
        """
        with self._cv:
            return JobStatus(
                name=self._name,
                state=self._state,
                engine=self._service.engine.name,
                device=self._device,
                score=self._score,
                message=self._events[-1].message if self._events else "",
                error=self._error,
                detail=dict(self._detail),
            )

    def events(
        self, follow: bool = False, timeout: Optional[float] = None
    ) -> Union[List[JobEvent], Iterator[JobEvent]]:
        """The job's lifecycle transitions.

        Args:
            follow: With the default ``False``, return the list of every
                transition recorded *so far*, in order.  With ``True``,
                return a streaming iterator that yields transitions as the
                runtime records them and ends once the job is terminal — the
                in-process analogue of tailing a job's event log.  On a
                ``workers=0`` service a pending job is dispatched inline
                first, so the stream never blocks forever.
            timeout: Only meaningful with ``follow=True``: the maximum number
                of seconds the stream waits *between* events before giving
                up.

        Returns:
            ``List[JobEvent]`` when ``follow=False``; an ``Iterator[JobEvent]``
            otherwise.

        Raises:
            JobNotCompletedError: From the streaming iterator, when
                ``timeout`` elapses with no new event and the job is still
                not terminal.
        """
        if not follow:
            with self._cv:
                return list(self._events)
        if not self._state.terminal and not self._service.is_concurrent:
            # workers=0: no runtime thread feeds the stream, so dispatch the
            # job inline before yielding.
            self._service.process(self)
        return self._follow_events(timeout)

    def _follow_events(self, timeout: Optional[float]) -> Iterator[JobEvent]:
        index = 0
        while True:
            with self._cv:
                while index >= len(self._events) and not self._state.terminal:
                    if not self._cv.wait(timeout=timeout):
                        raise JobNotCompletedError(
                            f"Job '{self._name}' produced no event within {timeout}s "
                            f"(still {self._state.value})"
                        )
                batch = list(self._events[index:])
                terminal = self._state.terminal
            for event in batch:
                yield event
            index += len(batch)
            if terminal:
                return

    def wall_wait_s(self) -> Optional[float]:
        """Wall-clock seconds from submission (QUEUED) to execution (RUNNING).

        ``None`` when the job has not reached RUNNING (still queued/matching,
        or failed before execution).  This is the per-job wait sample behind
        :meth:`QRIOService.wait_report` and the scenario reports.
        """
        with self._cv:
            events = list(self._events)
        return wall_wait_from_events(events)

    def result(self, wait: bool = True, timeout: Optional[float] = None) -> ServiceResult:
        """The job's outcome.

        Args:
            wait: With ``True`` (default) a still-pending job is driven to
                completion first — dispatched inline on a ``workers=0``
                service, awaited otherwise.  With ``False`` an unfinished
                job raises immediately.
            timeout: Maximum seconds to wait (``None`` waits indefinitely).
                On a ``workers=0`` service it bounds only the wait for
                another thread that is dispatching; the calling thread's own
                inline dispatch always runs to completion.

        Returns:
            The :class:`~repro.service.ServiceResult` of the completed job.

        Raises:
            JobNotCompletedError: The job has not finished and ``wait=False``,
                or ``timeout`` expired before it finished.
            JobFailedError: The job reached FAILED (including "no feasible
                device" rejections), chained from :attr:`exception` when an
                engine raised.
        """
        if not self.finished:
            if not wait:
                raise JobNotCompletedError(
                    f"Job '{self._name}' is still {self._state.value}; "
                    "pass wait=True (or call QRIOService.process) to drive it to completion"
                )
            self._service.runtime.wait_handle(self, timeout)
            if not self.finished:
                raise JobNotCompletedError(
                    f"Job '{self._name}' did not finish within {timeout}s "
                    f"(still {self._state.value})"
                )
        if self.failed:
            raise JobFailedError(f"Job '{self._name}' failed: {self._error}") from self._exception
        if self._result is None:
            raise ServiceError(f"Job '{self._name}' is {self._state.value} but has no result recorded")
        return self._result

    def wait(self, timeout: Optional[float] = None) -> JobStatus:
        """Wait for the job to finish, without raising on failure or expiry.

        Args:
            timeout: Maximum seconds to wait (see :meth:`result` for its
                meaning on a ``workers=0`` service).  When it expires the
                job is simply *not* finished yet — the returned status
                reflects the current (non-terminal) state and no exception
                is raised.

        Returns:
            The job's :class:`~repro.service.JobStatus` after waiting.
        """
        if not self.finished:
            self._service.runtime.wait_handle(self, timeout)
        return self.status()

    def add_done_callback(self, fn: Callable[["JobHandle"], None]) -> None:
        """Register ``fn`` to run with this handle once the job is terminal.

        Mirrors :meth:`concurrent.futures.Future.add_done_callback`: when the
        job is already DONE or FAILED the callback runs immediately on the
        calling thread (exceptions propagate to the caller); otherwise it runs
        on the thread that finishes the job, in registration order,
        and exceptions are swallowed so one bad callback cannot wedge a
        worker.  Deferred callbacks fire *after* the runtime has accounted
        the job's group as finished, so calling ``service.close()`` or
        ``service.process()`` from a callback does not self-deadlock.  With
        ``workers=0`` a callback may drive any other job (it is dispatched
        nested); with ``workers >= 1``, as with :mod:`concurrent.futures`, a
        callback must not block on *other* jobs queued behind this one in
        the same device lane (the callback occupies that lane's worker).

        Args:
            fn: A one-argument callable; receives this handle.
        """
        with self._cv:
            if not self._state.terminal:
                self._callbacks.append(fn)
                return
        fn(self)

    # ------------------------------------------------------------------ #
    # Service-side mutation (package-private by convention)
    # ------------------------------------------------------------------ #
    def _await_terminal(self, timeout: Optional[float]) -> bool:
        """Block until terminal or ``timeout``; returns whether it finished."""
        with self._cv:
            return self._cv.wait_for(lambda: self._state.terminal, timeout=timeout)

    def _transition(self, state: JobState, message: str) -> None:
        with self._cv:
            if state not in ALLOWED_TRANSITIONS[self._state]:
                raise ServiceError(
                    f"Job '{self._name}' cannot move {self._state.value} -> {state.value}"
                )
            self._state = state
            self._record_locked(state, message)

    def _record(self, state: JobState, message: str) -> None:
        with self._cv:
            self._record_locked(state, message)

    def _record_locked(self, state: JobState, message: str) -> None:
        self._events.append(
            JobEvent(
                sequence=len(self._events),
                state=state,
                message=message,
                tenant=self._spec.requirements.tenant_id,
            )
        )
        self._cv.notify_all()

    def _set_placement(self, device: Optional[str], score: Optional[float], detail: Dict[str, object]) -> None:
        with self._cv:
            self._device = device
            self._score = score
            self._detail.update(detail)

    def _complete(self, result: ServiceResult) -> None:
        self._result = result
        self._transition(JobState.DONE, f"finished on '{result.device}'")

    def _fail(self, reason: str, exception: Optional[BaseException] = None) -> None:
        self._error = reason
        self._exception = exception
        self._transition(JobState.FAILED, reason)

    def _drain_callbacks(self) -> None:
        """Run deferred done-callbacks.  Invoked by the service/runtime only
        after the job's group has been fully accounted as finished (see
        :meth:`add_done_callback` for why that ordering matters)."""
        with self._cv:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # noqa: BLE001 - a callback bug must not kill a worker
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobHandle(name={self._name!r}, state={self._state.value!r})"
