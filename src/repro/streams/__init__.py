"""Multi-stream serving layer: many QoS-controlled encoders, one capacity.

The paper controls one application's quality/schedule trade-off on one
processor.  This package scales that controller out: a fleet of
:class:`StreamSession`s (each a full per-stream controller + executor +
cycle state) shares a simulated processor budget, partitioned every
scheduling round by a :class:`CapacityArbiter` and gated by an
:class:`AdmissionController` that reuses the paper's own feasibility
analysis (Definition 2.2) to accept, queue, or reject arriving streams.

Entry points: build a workload with :mod:`repro.streams.scenarios`,
pick an arbiter, hand both to :class:`FleetRunner`.
"""

from repro.streams.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionVerdict,
    qmin_demand,
)
from repro.streams.arbiter import (
    CapacityArbiter,
    CapacityRequest,
    EqualShareArbiter,
    QualityFairArbiter,
    WeightedShareArbiter,
    make_arbiter,
)
from repro.streams.fleet import (
    FleetResult,
    FleetRunner,
    StreamOutcome,
    compare_arbiters,
)
from repro.streams.scenarios import (
    Scenario,
    StreamSpec,
    flash_crowd,
    heterogeneous_mix,
    poisson_churn,
    steady_fleet,
    with_classes,
)
from repro.streams.session import StreamSession

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionVerdict",
    "CapacityArbiter",
    "CapacityRequest",
    "EqualShareArbiter",
    "FleetResult",
    "FleetRunner",
    "QualityFairArbiter",
    "Scenario",
    "StreamOutcome",
    "StreamSession",
    "StreamSpec",
    "WeightedShareArbiter",
    "compare_arbiters",
    "flash_crowd",
    "heterogeneous_mix",
    "make_arbiter",
    "poisson_churn",
    "qmin_demand",
    "steady_fleet",
    "with_classes",
]
