"""QRIO core: the orchestrator, its servers, scheduler and baselines.

The meta server ranks devices through the registry placement policies of
:mod:`repro.policies`; this package holds no ranking code of its own.
"""

from repro.core.baselines import OraclePlacementPolicy
from repro.core.cache import (
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
from repro.core.master_server import MasterServer, SubmittedJob
from repro.core.meta_server import JobMetadata, MetaServer
from repro.core.orchestrator import QRIO, JobOutcome
from repro.core.requirements import UserRequirements
from repro.core.scheduler import (
    ClassicalResourceFilter,
    DeviceCharacteristicsFilter,
    QRIOScheduler,
    QubitCountFilter,
    SchedulingDecision,
    default_filter_plugins,
)
from repro.core.vendor import DeviceSpec, VendorConsole
from repro.core.visualizer import (
    JobSubmission,
    JobSubmissionForm,
    MasterServerPayload,
    MetaServerPayload,
    QRIOVisualizer,
    TopologyCanvas,
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
    "JobSubmission",
    "JobSubmissionForm",
    "MasterServer",
    "MasterServerPayload",
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
