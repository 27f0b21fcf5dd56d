"""Tenant identity: who is submitting, how much they may submit, at what share.

The service layer was built for "millions of users" but, until this module,
had no notion of *who* a job belongs to — every submission competed in one
anonymous priority queue.  A :class:`Tenant` gives a submission an identity
plus the two knobs multi-tenant schedulers need:

* **weight** — the tenant's share of service capacity under weighted-fair
  queueing (:mod:`repro.tenancy.wfq`).  A weight-2 tenant drains twice as
  fast as a weight-1 tenant while both are backlogged; weights are relative,
  not absolute rates.
* **quotas** — hard per-tenant caps enforced by the
  :class:`~repro.tenancy.AdmissionController` *before* work enters the
  queue: ``max_pending`` bounds jobs waiting for dispatch, ``max_inflight``
  bounds total outstanding work (queued + executing), and
  ``shots_per_second`` rate-limits shot throughput with a one-second-burst
  token bucket.  ``None`` disables the respective cap.

``Tenant`` is frozen and hashable by design: it rides on
:attr:`~repro.service.JobRequirements.tenant` and therefore participates in
``JobSpec.dedup_key()`` (two tenants never share one deduplicated execution
— quotas and fairness accounting would be unattributable otherwise) and in
the QRIO-S001 frozen-picklable contract (tenants cross process boundaries
inside :class:`~repro.service.ShardJob` payloads).

The module is dependency-light on purpose — it must be importable from
``repro.service.api`` without creating a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.exceptions import ServiceError

#: Id of the implicit tenant of every submission that names none.
DEFAULT_TENANT_ID = "default"


@dataclass(frozen=True)
class Tenant:
    """One tenant: identity, fair-share weight, admission quotas."""

    id: str
    #: Relative weighted-fair-queueing share (must be positive).
    weight: float = 1.0
    #: Cap on jobs queued but not yet dispatched (``None`` = uncapped).
    max_pending: Optional[int] = None
    #: Cap on total outstanding jobs, queued + executing (``None`` = uncapped).
    max_inflight: Optional[int] = None
    #: Token-bucket rate limit on submitted shots (``None`` = uncapped).
    shots_per_second: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id.strip():
            raise ServiceError("Tenant.id must be a non-empty string")
        if isinstance(self.weight, bool) or not isinstance(self.weight, (int, float)) or self.weight <= 0:
            raise ServiceError("Tenant.weight must be a positive number")
        for label in ("max_pending", "max_inflight"):
            value = getattr(self, label)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value <= 0):
                raise ServiceError(f"Tenant.{label} must be a positive integer (or None)")
        if self.shots_per_second is not None and (
            not isinstance(self.shots_per_second, (int, float)) or self.shots_per_second <= 0
        ):
            raise ServiceError("Tenant.shots_per_second must be a positive rate (or None)")

    @property
    def is_default(self) -> bool:
        """``True`` for the implicit anonymous tenant."""
        return self.id == DEFAULT_TENANT_ID


#: The implicit tenant: weight 1, no quotas — exactly the pre-tenancy
#: behaviour, so single-tenant services are unaffected by this subsystem.
DEFAULT_TENANT = Tenant(id=DEFAULT_TENANT_ID)


def coerce_tenant(tenant: "Optional[Tenant | str]") -> Optional[Tenant]:
    """Accept a :class:`Tenant`, a bare tenant id, or ``None``.

    A bare string builds an unquota'd weight-1 tenant of that id — the
    common CLI/test shorthand (``submit --tenant alice``).
    """
    if tenant is None or isinstance(tenant, Tenant):
        return tenant
    if isinstance(tenant, str):
        return Tenant(id=tenant)
    raise ServiceError(f"tenant must be a Tenant, a tenant id string or None, not {type(tenant).__name__}")
