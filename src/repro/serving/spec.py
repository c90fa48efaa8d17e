"""The declarative serving configuration: one JSON document, one run.

A :class:`ServingSpec` names everything a serving run needs — the
topology (single-pool ``fleet`` or sharded ``cluster``), the capacity,
and every policy **by registry name with kwargs** — so a run is a plain
data document instead of hand-wired constructor calls.  Specs are
validated eagerly (every error is a
:class:`~repro.errors.ConfigurationError` naming the offending field)
and round-trip losslessly through JSON::

    spec = ServingSpec.from_json(text)
    assert ServingSpec.from_json(spec.to_json()) == spec
    result = repro.serve(spec)

Field reference
---------------

=================  ====================================================
``topology``       ``"fleet"`` (one shared pool) or ``"cluster"``
``scenario``       workload generator: name + kwargs (see ``SCENARIOS``)
``capacity``       fleet only: cycles/round, or ``{"utilization": f}``
                   for a fraction of the scenario's aggregate demand
                   (cluster capacity comes from the scenario's shards)
``arbiter``        per-pool capacity arbiter (default ``quality-fair``)
``admission``      admission gate (default ``feasibility``; ``"none"``
                   or ``null`` runs ungated)
``placement``      cluster only, required: arrival routing policy
``migration``      cluster only, optional: between-round rebalancing
``balancer``       cluster only, optional: cross-shard headroom lending
``autoscaler``     cluster only, optional: telemetry-driven elastic
                   provisioning (see ``AUTOSCALERS``)
``constraint_mode``/``granularity``  per-session controller settings
``engine``         session execution engine: ``"scalar"`` (reference)
                   or ``"vectorized"`` (numpy batch stepping); both
                   are bit-identical
``max_rounds``     the run's stop horizon; defaults to a 100k-round
                   safety valve for finite scenarios, **required
                   explicitly** for open-ended (always-on) ones
``service_classes``  SLA catalog: class dicts, registered names, or
                   ``ServiceClass`` instances; forwarded to every
                   SLA-aware policy and to the runners' sessions
``renegotiation``  mid-stream quality-target policy (``RENEGOTIATIONS``)
``observers``      telemetry attached by name (``OBSERVERS``): windowed
                   metrics, event logs, invariant checks, phase timing;
                   built observers are closed when the run ends
``slos``           declared service-level objectives (``SloSpec`` dicts
                   or instances); ``serve`` attaches an
                   ``SloObserver`` evaluating them as rolling error
                   budgets with burn-rate alerts, reported on
                   ``ServingResult.slo_reports()``
=================  ====================================================

Policy fields accept a bare name string as shorthand for
``{"name": ..., "kwargs": {}}``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from repro.engine import validate_engine
from repro.errors import ConfigurationError
from repro.serving.registry import (
    ADMISSIONS,
    ARBITERS,
    AUTOSCALERS,
    BALANCERS,
    MIGRATIONS,
    OBSERVERS,
    PLACEMENTS,
    RENEGOTIATIONS,
    SCENARIOS,
    TOPOLOGIES,
    scenario_open_ended,
    scenario_topology,
)
from repro.sim.encoder_loop import validate_controller_settings
from repro.sla.classes import ServiceClass, resolve_classes


@dataclass(frozen=True)
class PolicySpec:
    """One policy selection: registry name plus constructor kwargs."""

    name: str
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"policy name must be a non-empty string, got {self.name!r}"
            )
        if not isinstance(self.kwargs, Mapping):
            raise ConfigurationError(
                f"policy kwargs for {self.name!r} must be a mapping, "
                f"got {type(self.kwargs).__name__}"
            )
        if any(not isinstance(k, str) for k in self.kwargs):
            raise ConfigurationError(
                f"policy kwargs for {self.name!r} must have string keys"
            )
        object.__setattr__(self, "kwargs", dict(self.kwargs))

    @classmethod
    def coerce(cls, value, field_name: str) -> "PolicySpec":
        """Normalize a name string / mapping / PolicySpec."""
        if isinstance(value, PolicySpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"name", "kwargs"}
            if unknown:
                raise ConfigurationError(
                    f"{field_name}: unexpected keys {sorted(unknown)} "
                    "(a policy is {'name': ..., 'kwargs': {...}})"
                )
            if "name" not in value:
                raise ConfigurationError(f"{field_name}: policy needs a 'name'")
            return cls(name=value["name"], kwargs=value.get("kwargs") or {})
        raise ConfigurationError(
            f"{field_name}: expected a policy name or mapping, "
            f"got {type(value).__name__}"
        )

    def to_dict(self) -> dict:
        return {"name": self.name, "kwargs": dict(self.kwargs)}


def _check_policy(spec, registry, field_name, topology, allowed_topology):
    """Shared per-field validation: topology scoping + known name."""
    if spec is None:
        return
    if allowed_topology is not None and topology != allowed_topology:
        raise ConfigurationError(
            f"{field_name}: only meaningful for {allowed_topology!r} "
            f"topology (spec topology is {topology!r})"
        )
    if spec.name not in registry:
        raise ConfigurationError(
            f"{field_name}: unknown {registry.kind} {spec.name!r}; "
            f"expected one of {registry.names()}"
        )


@dataclass(frozen=True)
class ServingSpec:
    """A complete, validated, JSON-round-trippable serving run."""

    scenario: PolicySpec
    topology: str = "fleet"
    capacity: float | dict | None = None
    arbiter: PolicySpec = field(
        default_factory=lambda: PolicySpec("quality-fair")
    )
    admission: PolicySpec | None = field(
        default_factory=lambda: PolicySpec("feasibility")
    )
    placement: PolicySpec | None = None
    migration: PolicySpec | None = None
    balancer: PolicySpec | None = None
    autoscaler: PolicySpec | None = None
    constraint_mode: str = "both"
    granularity: int = 1
    engine: str = "scalar"
    max_rounds: int | None = None
    service_classes: tuple[ServiceClass, ...] | None = None
    renegotiation: PolicySpec | None = None
    observers: tuple[PolicySpec, ...] = ()
    slos: tuple = None

    # ------------------------------------------------------------------
    # eager validation — every error names its field
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        for name in ("scenario", "arbiter"):
            object.__setattr__(
                self, name, PolicySpec.coerce(getattr(self, name), name)
            )
        for name in (
            "admission", "placement", "migration", "balancer",
            "autoscaler", "renegotiation",
        ):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, PolicySpec.coerce(value, name))
        self._validate_observers()
        self._validate_service_classes()
        self._validate_slos()

        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"topology: must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if self.scenario.name not in SCENARIOS:
            raise ConfigurationError(
                f"scenario: unknown scenario {self.scenario.name!r}; "
                f"expected one of {SCENARIOS.names()}"
            )
        declared = scenario_topology(self.scenario.name)
        if declared != self.topology:
            raise ConfigurationError(
                f"scenario: {self.scenario.name!r} is a {declared} scenario "
                f"but the spec's topology is {self.topology!r}"
            )
        self._validate_capacity()
        _check_policy(self.arbiter, ARBITERS, "arbiter", self.topology, None)
        _check_policy(
            self.admission, ADMISSIONS, "admission", self.topology, None
        )
        if self.topology == "cluster" and self.placement is None:
            raise ConfigurationError(
                "placement: required for cluster topology "
                f"(one of {PLACEMENTS.names()})"
            )
        _check_policy(
            self.placement, PLACEMENTS, "placement", self.topology, "cluster"
        )
        _check_policy(
            self.migration, MIGRATIONS, "migration", self.topology, "cluster"
        )
        _check_policy(
            self.balancer, BALANCERS, "balancer", self.topology, "cluster"
        )
        _check_policy(
            self.autoscaler, AUTOSCALERS, "autoscaler", self.topology, "cluster"
        )
        _check_policy(
            self.renegotiation,
            RENEGOTIATIONS,
            "renegotiation",
            self.topology,
            None,
        )
        validate_controller_settings(self.constraint_mode, self.granularity)
        validate_engine(self.engine)
        if self.max_rounds is not None and (
            isinstance(self.max_rounds, bool)
            or not isinstance(self.max_rounds, int)
            or self.max_rounds < 1
        ):
            raise ConfigurationError(
                f"max_rounds: must be an integer >= 1, got {self.max_rounds!r}"
            )
        if self.max_rounds is None and scenario_open_ended(self.scenario.name):
            raise ConfigurationError(
                f"max_rounds: scenario {self.scenario.name!r} is "
                "open-ended (arrivals never stop on their own) — the run "
                "needs an explicit max_rounds stop condition"
            )

    def _validate_observers(self) -> None:
        if isinstance(self.observers, (str, Mapping)) or not hasattr(
            self.observers, "__iter__"
        ):
            raise ConfigurationError(
                "observers: expected a list of observer policies "
                f"(name or {{'name': ..., 'kwargs': ...}}), got "
                f"{type(self.observers).__name__}"
            )
        coerced = tuple(
            PolicySpec.coerce(entry, "observers") for entry in self.observers
        )
        for policy in coerced:
            _check_policy(policy, OBSERVERS, "observers", self.topology, None)
        object.__setattr__(self, "observers", coerced)

    def _validate_service_classes(self) -> None:
        if self.service_classes is None:
            return
        # a spec declares a *list* of classes (a bare name or mapping
        # is almost certainly a forgotten pair of brackets); the item
        # shapes themselves are resolve_classes' contract
        if isinstance(self.service_classes, (str, Mapping)) or not hasattr(
            self.service_classes, "__iter__"
        ):
            raise ConfigurationError(
                "service_classes: expected a list of class dicts, "
                f"registered names, or ServiceClass instances, got "
                f"{type(self.service_classes).__name__}"
            )
        try:
            catalog = resolve_classes(list(self.service_classes))
        except ConfigurationError as error:
            raise ConfigurationError(f"service_classes: {error}") from None
        object.__setattr__(
            self, "service_classes", tuple(catalog.values())
        )

    def _validate_slos(self) -> None:
        if self.slos is None:
            return
        # deferred: the obs layer builds on serving, so importing it at
        # module scope would cycle (the registry-factory pattern)
        from repro.obs.slo import resolve_slos

        if isinstance(self.slos, (str, Mapping)) or not hasattr(
            self.slos, "__iter__"
        ):
            raise ConfigurationError(
                "slos: expected a list of slo dicts or SloSpec "
                f"instances, got {type(self.slos).__name__}"
            )
        try:
            resolved = resolve_slos(list(self.slos))
        except ConfigurationError as error:
            raise ConfigurationError(f"slos: {error}") from None
        object.__setattr__(self, "slos", resolved)

    def _validate_capacity(self) -> None:
        if self.topology == "cluster":
            if self.capacity is not None:
                raise ConfigurationError(
                    "capacity: cluster capacity comes from the scenario's "
                    "shard capacities; leave capacity unset"
                )
            return
        if self.capacity is None:
            raise ConfigurationError(
                "capacity: required for fleet topology (cycles per round, "
                "or {'utilization': fraction} of the scenario's demand)"
            )
        if isinstance(self.capacity, Mapping):
            unknown = set(self.capacity) - {"utilization"}
            if unknown:
                raise ConfigurationError(
                    f"capacity: unexpected keys {sorted(unknown)} "
                    "(relative capacity is {'utilization': fraction})"
                )
            utilization = self.capacity.get("utilization")
            if (
                isinstance(utilization, bool)
                or not isinstance(utilization, (int, float))
                or utilization <= 0
            ):
                raise ConfigurationError(
                    "capacity: utilization must be a positive number, "
                    f"got {utilization!r}"
                )
            object.__setattr__(self, "capacity", dict(self.capacity))
            return
        if isinstance(self.capacity, bool) or not isinstance(
            self.capacity, (int, float)
        ):
            raise ConfigurationError(
                f"capacity: must be a number or {{'utilization': f}}, "
                f"got {type(self.capacity).__name__}"
            )
        if self.capacity <= 0:
            raise ConfigurationError(
                f"capacity: must be positive, got {self.capacity!r}"
            )

    # ------------------------------------------------------------------
    # capacity resolution
    # ------------------------------------------------------------------

    def resolve_capacity(self, scenario) -> float:
        """The fleet pool in cycles/round, given the built scenario."""
        if isinstance(self.capacity, Mapping):
            return self.capacity["utilization"] * scenario.total_demand()
        return float(self.capacity)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-dict form; ``from_dict(to_dict())`` is identity."""
        def policy(value):
            return None if value is None else value.to_dict()

        return {
            "topology": self.topology,
            "scenario": self.scenario.to_dict(),
            "capacity": (
                dict(self.capacity)
                if isinstance(self.capacity, Mapping)
                else self.capacity
            ),
            "arbiter": self.arbiter.to_dict(),
            "admission": policy(self.admission),
            "placement": policy(self.placement),
            "migration": policy(self.migration),
            "balancer": policy(self.balancer),
            "autoscaler": policy(self.autoscaler),
            "constraint_mode": self.constraint_mode,
            "granularity": self.granularity,
            "engine": self.engine,
            "max_rounds": self.max_rounds,
            "service_classes": (
                None
                if self.service_classes is None
                else [c.to_dict() for c in self.service_classes]
            ),
            "renegotiation": policy(self.renegotiation),
            "observers": [p.to_dict() for p in self.observers],
            "slos": (
                None
                if self.slos is None
                else [s.to_dict() for s in self.slos]
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServingSpec":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"a ServingSpec document must be a mapping, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown ServingSpec field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        if "scenario" not in data:
            raise ConfigurationError("scenario: required field is missing")
        return cls(**dict(data))

    def to_json(self, indent: int | None = None) -> str:
        try:
            return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
        except TypeError as error:
            raise ConfigurationError(
                f"spec is not JSON-serializable (policy kwargs must be "
                f"plain JSON values): {error}"
            ) from None

    @classmethod
    def from_json(cls, text: str) -> "ServingSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"spec is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)
