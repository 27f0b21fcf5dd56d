"""QRIO core: the :class:`QRIO` facade, the vendor console and baselines.

This package sits on top of the stack.  The control plane it drives (the
visualizer, meta server, master server and scheduler) lives in
:mod:`repro.control` and the shared caches in :mod:`repro.utils.cache`; both
are re-exported here, so ``repro.core``'s names are unchanged.  The meta
server ranks devices through the registry placement policies of
:mod:`repro.policies`; no ranking code lives here.
"""

from repro.control import (
    ClassicalResourceFilter,
    DeviceCharacteristicsFilter,
    JobMetadata,
    JobSubmissionForm,
    MasterServer,
    MetaServer,
    MetaServerPayload,
    QRIOScheduler,
    QRIOVisualizer,
    QubitCountFilter,
    SchedulingDecision,
    SubmittedJob,
    TopologyCanvas,
    UserRequirements,
    default_filter_plugins,
)
from repro.core.baselines import OraclePlacementPolicy
from repro.core.orchestrator import QRIO, JobOutcome
from repro.core.vendor import DeviceSpec, VendorConsole
from repro.utils.cache import (
    CacheStats,
    LRUCache,
    all_cache_stats,
    calibration_fingerprint,
    clear_all_caches,
    embedding_cache,
    fleet_calibration_epoch,
    pattern_hash,
    structural_circuit_hash,
)

__all__ = [
    "CacheStats",
    "ClassicalResourceFilter",
    "LRUCache",
    "all_cache_stats",
    "calibration_fingerprint",
    "clear_all_caches",
    "embedding_cache",
    "fleet_calibration_epoch",
    "pattern_hash",
    "structural_circuit_hash",
    "DeviceCharacteristicsFilter",
    "DeviceSpec",
    "JobMetadata",
    "JobOutcome",
    "JobSubmissionForm",
    "MasterServer",
    "MetaServer",
    "MetaServerPayload",
    "OraclePlacementPolicy",
    "QRIO",
    "QRIOScheduler",
    "QRIOVisualizer",
    "QubitCountFilter",
    "SchedulingDecision",
    "SubmittedJob",
    "TopologyCanvas",
    "UserRequirements",
    "VendorConsole",
    "default_filter_plugins",
]
