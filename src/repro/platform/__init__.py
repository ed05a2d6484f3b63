"""Simulated crowdsourcing platform (the AMT stand-in).

The paper's real-data experiments (§5.1) consume the platform through two
interfaces: per-window worker availability observations (Figure 11) and
per-deployment (quality, cost, latency) observations (Table 6,
Figures 12–13).  This package provides the first: a worker pool with
stochastic arrival/departure dynamics per deployment window, HIT
definitions with qualification filtering, and a history log from which
availability distributions are estimated.
"""

from repro.platform.worker import Worker, generate_workers
from repro.platform.pool import WorkerPool, RecruitmentPolicy
from repro.platform.hit import HIT, QualificationTest
from repro.platform.events import DiscreteEventSimulator, Event
from repro.platform.simulator import (
    DeploymentWindow,
    PAPER_WINDOWS,
    PlatformSimulator,
    WindowObservation,
)
from repro.platform.history import AvailabilityRecord, HistoryLog

__all__ = [
    "Worker",
    "generate_workers",
    "WorkerPool",
    "RecruitmentPolicy",
    "HIT",
    "QualificationTest",
    "DiscreteEventSimulator",
    "Event",
    "DeploymentWindow",
    "PAPER_WINDOWS",
    "PlatformSimulator",
    "WindowObservation",
    "AvailabilityRecord",
    "HistoryLog",
]
