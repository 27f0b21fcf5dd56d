"""Per-rule fire-on-bad / silent-on-good coverage for the invariant analyzer.

Every rule gets at least one snippet that must produce a finding and one
idiomatic snippet that must stay silent, run through the same
:meth:`~repro.analysis.Analyzer.run_source` entry point the docs examples
use.  Scoped rules (QRIO-D002's deterministic packages, QRIO-C002's module
list, QRIO-S001's pickle contract) are exercised with matching relpaths.
"""

import textwrap

import pytest

from repro.analysis import (
    DEFAULT_PICKLE_CONTRACT,
    Analyzer,
    BareSharedWriteRule,
    FrozenPicklableRule,
    LockOrderRule,
    ProcessSaltedKeyRule,
    UnseededRandomRule,
    WallClockRule,
    analysis_root,
)


def run_rule(rule, source, relpath="module.py"):
    return Analyzer([rule]).run_source(textwrap.dedent(source), relpath)


# --------------------------------------------------------------------------- #
# QRIO-D001: unseeded / global RNG
# --------------------------------------------------------------------------- #
class TestUnseededRandom:
    def test_stdlib_global_state_fires(self):
        findings = run_rule(
            UnseededRandomRule(),
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert len(findings) == 1
        assert findings[0].rule_id == "QRIO-D001"
        assert findings[0].line == 5

    def test_stdlib_alias_fires(self):
        findings = run_rule(
            UnseededRandomRule(),
            """
            import random as rnd

            value = rnd.randint(0, 10)
            """,
        )
        assert [f.rule_id for f in findings] == ["QRIO-D001"]

    def test_numpy_global_state_fires(self):
        findings = run_rule(
            UnseededRandomRule(),
            """
            import numpy as np

            noise = np.random.normal(size=8)
            """,
        )
        assert [f.rule_id for f in findings] == ["QRIO-D001"]

    def test_bare_default_rng_fires(self):
        findings = run_rule(
            UnseededRandomRule(),
            """
            from numpy.random import default_rng

            generator = default_rng(7)
            """,
        )
        assert [f.rule_id for f in findings] == ["QRIO-D001"]

    def test_seeded_funnel_is_silent(self):
        findings = run_rule(
            UnseededRandomRule(),
            """
            from repro.utils.rng import ensure_generator

            def sample(seed):
                generator = ensure_generator(seed)
                return generator.integers(0, 10)
            """,
        )
        assert findings == []

    def test_utils_rng_module_is_exempt(self):
        findings = run_rule(
            UnseededRandomRule(),
            """
            import numpy as np

            def ensure_generator(seed):
                return np.random.default_rng(seed)
            """,
            relpath="utils/rng.py",
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# QRIO-D002: wall-clock reads in deterministic packages
# --------------------------------------------------------------------------- #
class TestWallClock:
    def test_time_call_in_scoped_package_fires(self):
        findings = run_rule(
            WallClockRule(),
            """
            import time

            def stamp():
                return time.time()
            """,
            relpath="simulators/clock.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-D002"]

    def test_default_factory_reference_fires(self):
        # A bare reference (no call) still smuggles wall time in at runtime.
        findings = run_rule(
            WallClockRule(),
            """
            import time
            from dataclasses import dataclass, field

            @dataclass
            class Event:
                timestamp: float = field(default_factory=time.monotonic)
            """,
            relpath="service/events.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-D002"]

    def test_from_import_fires(self):
        findings = run_rule(
            WallClockRule(),
            """
            from time import perf_counter

            started = perf_counter()
            """,
            relpath="cloud/timer.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-D002"]

    def test_datetime_now_fires(self):
        findings = run_rule(
            WallClockRule(),
            """
            from datetime import datetime

            created = datetime.now()
            """,
            relpath="scenarios/meta.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-D002"]

    def test_out_of_scope_package_is_silent(self):
        findings = run_rule(
            WallClockRule(),
            """
            import time

            started = time.perf_counter()
            """,
            relpath="circuits/builder.py",
        )
        assert findings == []

    def test_time_sleep_is_silent(self):
        # Sleeping changes pacing, not recorded values; only *reads* are flagged.
        findings = run_rule(
            WallClockRule(),
            """
            import time

            def backoff():
                time.sleep(0.01)
            """,
            relpath="service/retry.py",
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# QRIO-D003: builtin hash()/id() feeding keys
# --------------------------------------------------------------------------- #
class TestProcessSaltedKey:
    def test_hash_into_key_assignment_fires(self):
        findings = run_rule(
            ProcessSaltedKeyRule(),
            """
            def lookup(circuit):
                key = hash(circuit)
                return key
            """,
        )
        assert [f.rule_id for f in findings] == ["QRIO-D003"]

    def test_hash_into_cache_put_fires(self):
        findings = run_rule(
            ProcessSaltedKeyRule(),
            """
            class Memo:
                def remember(self, circuit, value):
                    self._cache.put(hash(circuit), value)
            """,
        )
        assert [f.rule_id for f in findings] == ["QRIO-D003"]

    def test_id_into_subscript_key_fires(self):
        findings = run_rule(
            ProcessSaltedKeyRule(),
            """
            def track(registry, backend):
                registry[id(backend)] = backend
            """,
        )
        assert [f.rule_id for f in findings] == ["QRIO-D003"]

    def test_dunder_hash_is_silent(self):
        findings = run_rule(
            ProcessSaltedKeyRule(),
            """
            class Spec:
                def __hash__(self):
                    return hash((self.name, self.shots))
            """,
        )
        assert findings == []

    def test_identity_comparison_is_silent(self):
        findings = run_rule(
            ProcessSaltedKeyRule(),
            """
            def same_object(a, b):
                return id(a) == id(b)
            """,
        )
        assert findings == []

    def test_digest_key_is_silent(self):
        findings = run_rule(
            ProcessSaltedKeyRule(),
            """
            import hashlib

            def cache_key(payload):
                key = hashlib.blake2b(payload, digest_size=16).hexdigest()
                return key
            """,
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# QRIO-C001: bare writes to lock-guarded attributes
# --------------------------------------------------------------------------- #
class TestBareSharedWrite:
    BAD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1

        def reset(self):
            self.count = 0
    """

    def test_mixed_guarded_and_bare_write_fires(self):
        findings = run_rule(BareSharedWriteRule(), self.BAD)
        assert len(findings) == 1
        assert findings[0].rule_id == "QRIO-C001"
        assert "Counter.count" in findings[0].message
        assert "reset" in findings[0].message

    def test_init_writes_are_exempt(self):
        findings = run_rule(
            BareSharedWriteRule(),
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1
            """,
        )
        assert findings == []

    def test_consistently_bare_attribute_is_silent(self):
        # Never guarded anywhere -> not this rule's business.
        findings = run_rule(
            BareSharedWriteRule(),
            """
            class Plain:
                def set(self, value):
                    self.value = value

                def clear(self):
                    self.value = None
            """,
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# QRIO-C002: lock-order acquisition cycles
# --------------------------------------------------------------------------- #
class TestLockOrder:
    INVERTED = """
    import threading

    class Broker:
        def __init__(self):
            self._queue_lock = threading.Lock()
            self._state_lock = threading.Lock()

        def push(self):
            with self._queue_lock:
                with self._state_lock:
                    pass

        def pull(self):
            with self._state_lock:
                with self._queue_lock:
                    pass
    """

    def test_inverted_pair_fires(self):
        findings = run_rule(LockOrderRule(), self.INVERTED, relpath="service/runtime.py")
        assert len(findings) == 1
        assert findings[0].rule_id == "QRIO-C002"
        assert "cycle" in findings[0].message

    def test_consistent_order_is_silent(self):
        findings = run_rule(
            LockOrderRule(),
            """
            import threading

            class Broker:
                def __init__(self):
                    self._queue_lock = threading.Lock()
                    self._state_lock = threading.Lock()

                def push(self):
                    with self._queue_lock:
                        with self._state_lock:
                            pass

                def peek(self):
                    with self._queue_lock:
                        with self._state_lock:
                            pass
            """,
            relpath="service/runtime.py",
        )
        assert findings == []

    def test_out_of_scope_module_is_silent(self):
        findings = run_rule(LockOrderRule(), self.INVERTED, relpath="circuits/builder.py")
        assert findings == []

    def test_call_propagation_detects_indirect_cycle(self):
        # push takes _queue_lock then calls _flush (which takes _state_lock);
        # pull takes them in the opposite textual order.
        findings = run_rule(
            LockOrderRule(),
            """
            import threading

            class Broker:
                def push(self):
                    with self._queue_lock:
                        self._flush()

                def _flush(self):
                    with self._state_lock:
                        pass

                def pull(self):
                    with self._state_lock:
                        with self._queue_lock:
                            pass
            """,
            relpath="utils/cache.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-C002"]


# --------------------------------------------------------------------------- #
# QRIO-S001: frozen picklable contract
# --------------------------------------------------------------------------- #
class TestFrozenPicklable:
    def test_unfrozen_contracted_class_fires(self):
        findings = run_rule(
            FrozenPicklableRule(),
            """
            from dataclasses import dataclass

            @dataclass
            class Trace:
                name: str
            """,
            relpath="scenarios/trace.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-S001"]
        assert "frozen" in findings[0].message

    def test_lock_field_fires(self):
        findings = run_rule(
            FrozenPicklableRule(),
            """
            import threading
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Trace:
                name: str
                guard: threading.Lock
            """,
            relpath="scenarios/trace.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-S001"]
        assert "guard" in findings[0].message

    def test_callable_field_fires(self):
        findings = run_rule(
            FrozenPicklableRule(),
            """
            from dataclasses import dataclass
            from typing import Callable

            @dataclass(frozen=True)
            class ExecutionPlan:
                hook: Callable[[], int]
            """,
            relpath="plans/plan.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-S001"]

    def test_lambda_default_fires(self):
        findings = run_rule(
            FrozenPicklableRule(),
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Trace:
                scale: object = (lambda: 1.0)
            """,
            relpath="scenarios/trace.py",
        )
        assert [f.rule_id for f in findings] == ["QRIO-S001"]

    def test_missing_contracted_class_fires(self):
        findings = run_rule(
            FrozenPicklableRule(),
            """
            CONSTANT = 1
            """,
            relpath="plans/plan.py",
        )
        assert any("ExecutionPlan" in f.message for f in findings)

    def test_clean_frozen_dataclass_is_silent(self):
        findings = run_rule(
            FrozenPicklableRule(),
            """
            from dataclasses import dataclass, field
            from typing import Dict

            @dataclass(frozen=True)
            class Trace:
                name: str
                jobs: tuple
                metadata: Dict[str, object] = field(default_factory=dict)
            """,
            relpath="scenarios/trace.py",
        )
        assert findings == []

    def test_uncontracted_module_is_silent(self):
        findings = run_rule(
            FrozenPicklableRule(),
            """
            class Whatever:
                pass
            """,
            relpath="service/runtime.py",
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# Scopes follow the modules moved to break the package import cycle
# --------------------------------------------------------------------------- #
#: Old path -> new path of every module the layer map moved.
MOVED = {
    "core/cache.py": "utils/cache.py",
    "core/requirements.py": "control/requirements.py",
    "core/visualizer.py": "control/visualizer.py",
    "core/meta_server.py": "control/meta_server.py",
    "core/master_server.py": "control/master_server.py",
    "core/scheduler.py": "control/scheduler.py",
    "matching/subgraph.py": "backends/subgraph.py",
    "scenarios/arrivals.py": "workloads/arrivals.py",
    "scenarios/metrics.py": "workloads/metrics.py",
    "tenancy/sharding.py": "service/sharding.py",
}
OLD_PATH = {new: old for old, new in MOVED.items()}

#: What each scoped rule scanned before the moves.
PARENT_WALL_CLOCK_SCOPE = ("simulators/", "cloud/", "scenarios/", "plans/", "service/", "experiments/")
PARENT_LOCK_ORDER_MODULES = (
    "service/runtime.py",
    "service/handle.py",
    "service/service.py",
    "service/engines.py",
    "core/cache.py",
    "cloud/simulation.py",
    "scenarios/trace.py",
)
PARENT_PICKLE_CONTRACT = {
    "plans/plan.py": ("ExecutionPlan",),
    "scenarios/trace.py": ("Trace",),
    "scenarios/arrivals.py": ("JobRequest",),
    "service/api.py": ("JobRequirements", "JobSpec", "JobEvent", "JobStatus", "ServiceResult"),
    "tenancy/api.py": ("Tenant",),
    "tenancy/sharding.py": ("EngineSpec", "ShardRequest", "ShardJob", "ShardOutcome"),
}

_TREE = sorted(
    path.relative_to(analysis_root()).as_posix()
    for path in analysis_root().rglob("*.py")
    if "__pycache__" not in path.parts
)


class TestScopesFollowTheMoves:
    def test_every_moved_module_exists_at_its_new_path_only(self):
        assert set(MOVED.values()) <= set(_TREE)
        # The two old paths kept for perfbench are re-export modules.
        assert set(MOVED) & set(_TREE) == {"core/cache.py", "core/master_server.py"}

    # The re-export modules at two old paths are not the modules the parent
    # scanned there; those now live at the new paths.
    @pytest.mark.parametrize("relpath", [relpath for relpath in _TREE if relpath not in MOVED])
    def test_a_module_the_parent_scanned_is_still_scanned(self, relpath):
        old = OLD_PATH.get(relpath, relpath)
        wall_clock = run_rule(WallClockRule(), "import time\nstarted = time.time()\n", relpath)
        lock_order = run_rule(LockOrderRule(), TestLockOrder.INVERTED, relpath)
        if old.startswith(PARENT_WALL_CLOCK_SCOPE):
            assert [f.rule_id for f in wall_clock] == ["QRIO-D002"]
        if old in PARENT_LOCK_ORDER_MODULES:
            assert [f.rule_id for f in lock_order] == ["QRIO-C002"]

    @pytest.mark.parametrize("old", sorted(PARENT_PICKLE_CONTRACT))
    def test_every_contracted_class_is_still_contracted(self, old):
        new = MOVED.get(old, old)
        names = PARENT_PICKLE_CONTRACT[old]
        assert set(names) <= set(DEFAULT_PICKLE_CONTRACT[new])
        source = "from dataclasses import dataclass\n" + "".join(
            f"@dataclass\nclass {name}:\n    value: int = 0\n" for name in names
        )
        findings = run_rule(FrozenPicklableRule(), source, new)
        assert {f.message.split("'")[1] for f in findings} == set(names)

    def test_the_moved_trace_modules_and_the_shard_front_are_wall_clock_scoped(self):
        for relpath in ("workloads/arrivals.py", "workloads/metrics.py", "service/sharding.py"):
            assert run_rule(WallClockRule(), "import time\nstarted = time.time()\n", relpath)
        assert run_rule(WallClockRule(), "import time\nstarted = time.time()\n", "workloads/suites.py") == []
