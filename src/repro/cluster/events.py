"""Cluster event records (the `kubectl get events` equivalent)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

_EVENT_SEQUENCE = itertools.count(1)


@dataclass(frozen=True)
class Event:
    """One observable cluster event.

    Attributes
    ----------
    kind:
        Event category (``NodeRegistered``, ``JobSubmitted``, ``Filtered``,
        ``Scored``, ``Bound``, ``Executed``, ``Failed``, ...).
    subject:
        The object the event is about (job or node name).
    message:
        Human-readable detail.
    sequence:
        Monotonically increasing event index (stands in for a timestamp so
        experiment runs remain deterministic).
    """

    kind: str
    subject: str
    message: str
    sequence: int = field(default_factory=lambda: next(_EVENT_SEQUENCE))


class EventLog:
    """Append-only list of events with simple querying."""

    def __init__(self) -> None:
        self._events: List[Event] = []

    def record(self, kind: str, subject: str, message: str) -> Event:
        """Append and return a new event."""
        event = Event(kind=kind, subject=subject, message=message)
        self._events.append(event)
        return event

    def all(self) -> List[Event]:
        """All events in record order."""
        return list(self._events)

    def for_subject(self, subject: str) -> List[Event]:
        """Events about one job or node."""
        return [event for event in self._events if event.subject == subject]

    def of_kind(self, kind: str) -> List[Event]:
        """Events of one category."""
        return [event for event in self._events if event.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable rendering (newest last)."""
        events = self._events if limit is None else self._events[-limit:]
        lines = [f"[{event.sequence:05d}] {event.kind:<16s} {event.subject:<28s} {event.message}" for event in events]
        return "\n".join(lines)
