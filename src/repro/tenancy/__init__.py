"""Multi-tenant dispatch: tenants, fair queueing and admission.

This package is the tenancy layer of the unified job service:

* :class:`Tenant` — the frozen identity + share + quota record every
  submission may carry via ``JobRequirements.tenant`` (absent = the
  ``"default"`` tenant, preserving every pre-tenancy behaviour);
* :class:`WeightedFairQueue` — the virtual-time weighted-fair scheduler the
  :class:`~repro.service.ServiceRuntime` drains instead of a single global
  priority heap (priority/deadline order is preserved *within* a tenant;
  a single active tenant degenerates to the old heap exactly);
* :class:`AdmissionController` — per-tenant quota enforcement plus the
  SLO-pressure ``accept → defer → shed`` state machine, raising the typed
  :class:`~repro.utils.exceptions.AdmissionRejectedError` before the hard
  ``max_pending`` backstop ever fires.

The package sits below :mod:`repro.service`, which imports it.  The
process-sharded dispatcher that routes tenants across worker processes is
:class:`~repro.service.ShardedService`, a front desk of the service layer.
"""

from repro.tenancy.admission import AdmissionController, AdmissionState
from repro.tenancy.api import DEFAULT_TENANT, DEFAULT_TENANT_ID, Tenant, coerce_tenant
from repro.tenancy.wfq import WeightedFairQueue

__all__ = [
    "AdmissionController",
    "AdmissionState",
    "DEFAULT_TENANT",
    "DEFAULT_TENANT_ID",
    "Tenant",
    "WeightedFairQueue",
    "coerce_tenant",
]
