"""QRIO core: the orchestrator, its servers, scheduler, strategies and baselines."""

from repro.core.baselines import OracleScheduler, OracleScorePlugin, RandomScheduler, RandomScorePlugin
from repro.core.cache import (
    CacheStats,
    LRUCache,
    all_cache_stats,
    calibration_fingerprint,
    clear_all_caches,
    embedding_cache,
    fleet_calibration_epoch,
    ideal_distribution_cache,
    pattern_hash,
    plan_cache,
    structural_circuit_hash,
)
from repro.core.master_server import MasterServer, SubmittedJob
from repro.core.meta_server import JobMetadata, MetaServer
from repro.core.orchestrator import QRIO, JobOutcome
from repro.core.requirements import UserRequirements
from repro.core.scheduler import (
    ClassicalResourceFilter,
    DeviceCharacteristicsFilter,
    MetaServerScorePlugin,
    QRIOScheduler,
    QubitCountFilter,
    default_filter_plugins,
)
from repro.core.strategies import (
    INFEASIBLE_SCORE,
    FidelityRankingStrategy,
    RankingStrategy,
    TopologyRankingStrategy,
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
    "INFEASIBLE_SCORE",
    "CacheStats",
    "ClassicalResourceFilter",
    "LRUCache",
    "all_cache_stats",
    "calibration_fingerprint",
    "clear_all_caches",
    "embedding_cache",
    "fleet_calibration_epoch",
    "ideal_distribution_cache",
    "pattern_hash",
    "plan_cache",
    "structural_circuit_hash",
    "DeviceCharacteristicsFilter",
    "DeviceSpec",
    "FidelityRankingStrategy",
    "JobMetadata",
    "JobOutcome",
    "JobSubmission",
    "JobSubmissionForm",
    "MasterServer",
    "MasterServerPayload",
    "MetaServer",
    "MetaServerPayload",
    "MetaServerScorePlugin",
    "OracleScheduler",
    "OracleScorePlugin",
    "QRIO",
    "QRIOScheduler",
    "QRIOVisualizer",
    "QubitCountFilter",
    "RandomScheduler",
    "RandomScorePlugin",
    "RankingStrategy",
    "SubmittedJob",
    "TopologyCanvas",
    "TopologyRankingStrategy",
    "UserRequirements",
    "VendorConsole",
    "default_filter_plugins",
]
