"""The QRIO control plane of Fig. 2: visualizer, meta, master and scheduler.

A job travels visualizer → meta server → master server → scheduler →
device.  :mod:`repro.control.requirements` holds the user's requirements
record every part reads, :mod:`repro.control.visualizer` the submission form,
:mod:`repro.control.meta_server` the ranking hand-off to
:mod:`repro.policies`, :mod:`repro.control.master_server` the job image,
manifest and plan execution, and :mod:`repro.control.scheduler` the k8s-style
filter-and-bind cycle.  The package sits below :mod:`repro.service`, whose
cluster engine drives it, and below the :class:`~repro.core.QRIO` facade.
"""

from repro.control.master_server import MasterServer, SubmittedJob
from repro.control.meta_server import JobMetadata, MetaServer
from repro.control.requirements import UserRequirements
from repro.control.scheduler import (
    ClassicalResourceFilter,
    DeviceCharacteristicsFilter,
    QRIOScheduler,
    QubitCountFilter,
    SchedulingDecision,
    default_filter_plugins,
)
from repro.control.visualizer import (
    JobSubmissionForm,
    MetaServerPayload,
    QRIOVisualizer,
    TopologyCanvas,
)

__all__ = [
    "ClassicalResourceFilter",
    "DeviceCharacteristicsFilter",
    "JobMetadata",
    "JobSubmissionForm",
    "MasterServer",
    "MetaServer",
    "MetaServerPayload",
    "QRIOScheduler",
    "QRIOVisualizer",
    "QubitCountFilter",
    "SchedulingDecision",
    "SubmittedJob",
    "TopologyCanvas",
    "UserRequirements",
    "default_filter_plugins",
]
