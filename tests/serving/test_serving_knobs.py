"""The serving option surface, pinned.

Every keyword a registry factory, runner, session, autoscaler or the
incident attribution accepts is a promise to users and one more
dimension a spec fuzzer has to cover.  ``GOLDEN`` names each such
callable's options (its parameters with a default, plus any
``**kwargs``), so adding or removing one is a reviewed one-line diff
here.  A value no caller varies is a policy constant instead: a
lower-case class attribute (``HeadroomBalancer.lend_fraction``) or,
for the attribution pass, a module constant.
"""

from __future__ import annotations

import inspect

import pytest

from repro.cluster.runner import ClusterRunner, build_shards
from repro.errors import ConfigurationError
from repro.horizon.autoscaler import SignalAutoscaler
from repro.obs.attribution import attribute_incidents
from repro.obs.events import StructuredEventLog
from repro.obs.invariants import InvariantObserver
from repro.obs.metrics import TelemetryObserver
from repro.obs.slo import SloObserver
from repro.obs.tracing import TraceObserver
from repro.serving import serve
from repro.serving.registry import (
    ADMISSIONS,
    ARBITERS,
    BALANCERS,
    MIGRATIONS,
    PLACEMENTS,
    RENEGOTIATIONS,
)
from repro.serving.result import ServingResult
from repro.streams.fleet import FleetRunner
from repro.streams.session import StreamSession

#: registry families whose every built-in policy is pinned below
FAMILIES = {
    "arbiter": ARBITERS,
    "admission": ADMISSIONS,
    "placement": PLACEMENTS,
    "migration": MIGRATIONS,
    "balancer": BALANCERS,
    "renegotiation": RENEGOTIATIONS,
}

#: the observers a spec declares by name; their registry factories are
#: lazy ``**kwargs`` wrappers, so the classes carry the options
OBSERVER_CLASSES = {
    "telemetry": TelemetryObserver,
    "events": StructuredEventLog,
    "invariants": InvariantObserver,
    "slo": SloObserver,
    "trace": TraceObserver,
}

OTHER_CALLABLES = {
    "SignalAutoscaler": SignalAutoscaler,
    "StreamSession": StreamSession,
    "ClusterRunner": ClusterRunner,
    "FleetRunner": FleetRunner,
    "build_shards": build_shards,
    "attribute_incidents": attribute_incidents,
    "ServingResult.incidents": ServingResult.incidents,
}

GOLDEN = {
    "arbiter:equal-share": ("floor_share",),
    "arbiter:weighted-share": ("floor_share",),
    "arbiter:quality-fair": ("floor_share", "pressure"),
    "arbiter:sla-weighted": ("floor_share", "classes"),
    "arbiter:sla-quality-fair": ("floor_share", "pressure", "classes"),
    "admission:feasibility": ("mode", "utilization_cap", "queue_limit"),
    "admission:priority": (
        "mode", "utilization_cap", "queue_limit", "classes",
    ),
    "placement:round-robin": (),
    "placement:least-loaded": (),
    "placement:best-fit": (),
    "placement:predictive": (),
    "placement:quality-aware": (),
    "placement:sla-aware": ("classes",),
    "migration:none": (),
    "migration:queue-rebalance": (),
    "migration:load-balance": (
        "margin", "min_residency", "max_moves_per_round",
    ),
    "migration:sla-aware": (
        "classes", "margin", "min_residency", "max_moves_per_round",
    ),
    "balancer:headroom": (),
    "renegotiation:step": ("patience", "recovery_patience", "step"),
    "observer:telemetry": ("window",),
    "observer:events": ("path", "timelines"),
    "observer:invariants": ("invariants", "enforce", "classes", "slos"),
    "observer:slo": ("classes", "sink"),
    "observer:trace": ("path", "segment_rounds"),
    "SignalAutoscaler": (
        "window", "up_pressure", "down_utilization", "sustain", "cooldown",
        "down_quality", "min_shards", "max_shards", "classes",
    ),
    "StreamSession": (
        "constraint_mode", "granularity", "weight", "service_class",
        "quality_target", "quality_floor", "renegotiation", "lifetime",
    ),
    "ClusterRunner": (
        "migration", "balancer", "max_rounds", "observers", "engine",
        "autoscaler", "**shard_kwargs",
    ),
    "FleetRunner": (
        "admission", "constraint_mode", "granularity", "max_rounds",
        "observers", "service_classes", "renegotiation", "engine",
    ),
    "build_shards": (
        "arbiter", "admission", "constraint_mode", "granularity",
        "admission_factory", "service_classes", "renegotiation",
    ),
    "attribute_incidents": (),
    "ServingResult.incidents": (),
}


def resolve(key: str):
    """The callable a golden key names."""
    family, _, name = key.partition(":")
    if family == "observer":
        return OBSERVER_CLASSES[name]
    if family in FAMILIES:
        return FAMILIES[family].factory(name)
    return OTHER_CALLABLES[key]


def options(target) -> tuple[str, ...]:
    """A callable's settable options: defaulted parameters and any
    ``**kwargs``, in signature order."""
    found = []
    for parameter in inspect.signature(target).parameters.values():
        if parameter.kind is parameter.VAR_KEYWORD:
            found.append("**" + parameter.name)
        elif parameter.default is not parameter.empty:
            found.append(parameter.name)
    return tuple(found)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_options_match_the_golden_list(key):
    assert options(resolve(key)) == GOLDEN[key]


def test_golden_list_covers_every_built_in_policy():
    # plugins that tests register live outside the package
    built_in = {
        f"{family}:{name}"
        for family, registry in FAMILIES.items()
        for name in registry.names()
        if registry.factory(name).__module__.startswith("repro.")
        and not (family == "admission" and name == "none")
    }
    listed = {key for key in GOLDEN if key.partition(":")[0] in FAMILIES}
    assert built_in == listed


FLEET = {
    "topology": "fleet",
    "scenario": {"name": "steady", "kwargs": {"count": 1, "frames": 2}},
    "capacity": 24e6,
}

CLUSTER = {
    "topology": "cluster",
    "scenario": {
        "name": "skewed-cluster", "kwargs": {"streams": 2, "frames": 2},
    },
    "placement": "best-fit",
}

#: (base spec, field, policy name, removed knob, its old default)
REMOVED = [
    (FLEET, "arbiter", "quality-fair", "deficit_margin", 0.05),
    (FLEET, "arbiter", "sla-quality-fair", "deficit_margin", 0.05),
    (CLUSTER, "placement", "predictive", "headroom_bias", 0.0),
    (CLUSTER, "placement", "sla-aware", "premium_priority", 1),
    (CLUSTER, "migration", "load-balance", "quality_threshold", 0.4),
    (CLUSTER, "migration", "load-balance", "overload", 1.05),
    (CLUSTER, "migration", "sla-aware", "quality_threshold", 0.4),
    (CLUSTER, "migration", "sla-aware", "overload", 1.05),
    (CLUSTER, "balancer", "headroom", "lend_fraction", 0.9),
    (FLEET, "renegotiation", "step", "tolerance", 0.02),
    (CLUSTER, "autoscaler", "signal", "reject_pressure", 3.0),
    (CLUSTER, "autoscaler", "signal", "queue_pressure", 0.05),
    (CLUSTER, "autoscaler", "signal", "add_capacity", None),
    (FLEET, "observers", "trace", "link_window", 15),
    (FLEET, "observers", "telemetry", "registry", None),
]


@pytest.mark.parametrize(
    "base, field, name, knob, value",
    REMOVED,
    ids=[f"{name}.{knob}" for _, _, name, knob, _ in REMOVED],
)
def test_a_removed_knob_fails_naming_its_field(base, field, name, knob,
                                               value):
    policy = {"name": name, "kwargs": {knob: value}}
    spec = {**base, field: [policy] if field == "observers" else policy}
    with pytest.raises(ConfigurationError) as caught:
        serve(spec)
    message = str(caught.value)
    assert message.startswith(f"{field}: cannot construct {name!r}")
    assert knob in message
