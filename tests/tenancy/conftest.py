"""Tenancy-suite fixtures: the opt-in runtime race sanitizer.

Mirror of ``tests/service/conftest.py``: with ``QRIO_RACETRACE=1`` in the
environment (the CI ``chaos`` job sets it), every test in ``tests/tenancy``
runs with the tenancy *and* service layers' ``threading.Lock`` /
``threading.Condition`` replaced by the traced drop-ins of
:mod:`repro.analysis.racetrace`.  The sharded meta-dispatcher's parent-side
locks are covered too — its worker processes run real locks (they are whole
separate interpreters), but every parent/collector interaction is traced.

Without the flag the fixture is a no-op, so the ordinary tier-1 run is
untouched.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def racetrace_sanitizer(monkeypatch):
    """Wrap the tenancy + service layers' locks in the race sanitizer."""
    if os.environ.get("QRIO_RACETRACE") != "1":
        yield None
        return

    import repro.service.engines as engines_module
    import repro.service.handle as handle_module
    import repro.service.runtime as runtime_module
    import repro.service.service as service_module
    import repro.service.sharding as sharding_module
    from repro.analysis import RaceMonitor, traced_threading

    monitor = RaceMonitor()
    shim = traced_threading(monitor)
    modules = (
        runtime_module,
        handle_module,
        service_module,
        engines_module,
        sharding_module,
    )
    for module in modules:
        monkeypatch.setattr(module, "threading", shim)
    yield monitor
    monitor.assert_clean()
