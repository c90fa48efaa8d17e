"""Telemetry-driven cluster autoscaling: signals in, scale actions out.

The always-on serving loop never finishes on its own, so capacity has
to track demand instead of being provisioned once for the peak.  An
:class:`Autoscaler` closes that loop: it watches the run through a
private :class:`~repro.obs.metrics.TelemetryObserver` (the runner
attaches whatever :meth:`Autoscaler.observer` returns) and, once per
telemetry window, emits :class:`ScaleAction`s that
:class:`~repro.cluster.runner.ClusterRunner` applies between rounds.

The reference policy, :class:`SignalAutoscaler`, uses the two signals
the telemetry layer was built to expose:

* **scale-up** — sustained *down-step* renegotiation density, weighted
  per service class by the SLA catalog's arbitration weights
  (:func:`repro.sla.signals.weighted_pressure`): when gold streams are
  repeatedly stepping their quality targets down, the cluster is out
  of capacity where it matters;
* **scale-down** — a quiet window (zero down-steps) at low
  utilization: the fleet is recovered and over-provisioned.

Both directions require ``sustain`` consecutive qualifying windows
(hysteresis) and respect a ``cooldown`` in rounds between actions, so
a diurnal workload ramps smoothly instead of thrashing at the
threshold — the pacing invariants in :mod:`repro.obs.invariants` check
exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.obs.metrics import TelemetryObserver
from repro.sla.signals import class_pressure_weights, weighted_pressure

#: Legal :class:`ScaleAction` kinds.
SCALE_KINDS = ("add", "remove", "split", "merge")


@dataclass(frozen=True)
class ScaleAction:
    """One provisioning decision, validated structurally at build time.

    ``kind`` selects the shape:

    * ``"add"`` — provision one new shard; no ``shards``, exactly one
      positive capacity in ``capacities``;
    * ``"remove"`` — retire one shard (its sessions are relocated, or
      the action aborts); exactly one id in ``shards``, no
      ``capacities``;
    * ``"split"`` — replace one shard with two or more whose
      capacities **must sum to the original** (checked at apply time);
      one id in ``shards``, two or more positive ``capacities``;
    * ``"merge"`` — replace two or more shards with one; two or more
      ids in ``shards``, ``capacities`` empty (the merged shard gets
      the exact sum) or a single value that must equal that sum.

    ``created`` and ``action_id`` are filled in by the runner (via
    ``dataclasses.replace``) immediately before the ``on_scale``
    observers fire: ``created`` holds the ids of the shards the action
    creates, ``action_id`` a deterministic per-run serial
    (``scale-action-<n>``) that trace records use as the causal edge
    from a migration or capacity change back to the action that forced
    it.  Policies always leave both empty.
    """

    kind: str
    shards: tuple[str, ...] = ()
    capacities: tuple[float, ...] = ()
    reason: str = ""
    created: tuple[str, ...] = ()
    action_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "shards", tuple(self.shards))
        object.__setattr__(
            self, "capacities", tuple(float(c) for c in self.capacities)
        )
        object.__setattr__(self, "created", tuple(self.created))
        if self.kind not in SCALE_KINDS:
            raise ConfigurationError(
                f"unknown scale action kind {self.kind!r} "
                f"(expected one of {SCALE_KINDS})"
            )
        if any(c <= 0 for c in self.capacities):
            raise ConfigurationError(
                f"scale action capacities must be positive, "
                f"got {self.capacities!r}"
            )
        if len(set(self.shards)) != len(self.shards):
            raise ConfigurationError(
                f"scale action shards must be unique, got {self.shards!r}"
            )
        if self.kind == "add":
            if self.shards or len(self.capacities) != 1:
                raise ConfigurationError(
                    "add takes no shards and exactly one capacity"
                )
        elif self.kind == "remove":
            if len(self.shards) != 1 or self.capacities:
                raise ConfigurationError(
                    "remove takes exactly one shard and no capacities"
                )
        elif self.kind == "split":
            if len(self.shards) != 1 or len(self.capacities) < 2:
                raise ConfigurationError(
                    "split takes exactly one shard and two or more "
                    "capacities"
                )
        elif self.kind == "merge":
            if len(self.shards) < 2 or len(self.capacities) > 1:
                raise ConfigurationError(
                    "merge takes two or more shards and at most one "
                    "capacity"
                )

    @property
    def provisioned(self) -> float:
        """Signed change in total declared capacity.

        Positive for ``add``; ``remove`` is only known at apply time
        (the retired shard's capacity), reported as 0 here; ``split``
        and ``merge`` conserve exactly.
        """
        return sum(self.capacities) if self.kind == "add" else 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "shards": list(self.shards),
            "capacities": list(self.capacities),
            "reason": self.reason,
            "created": list(self.created),
            "action_id": self.action_id,
        }


class Autoscaler:
    """Base autoscaling policy: observes nothing, never scales.

    Subclasses override :meth:`plan` (called by the cluster runner
    after every stepped round) and usually :meth:`observer` (an extra
    :class:`~repro.serving.observers.RoundObserver` the runner attaches
    for the policy's own signal collection — kept private so user
    observers and policy state never interfere).
    """

    name = "static"

    def observer(self):
        """The policy's private observer, or ``None`` for none."""
        return None

    def reset(self) -> None:
        """Drop all learned state (runner calls this from ``reset``)."""

    def plan(self, shards, round_index) -> list[ScaleAction]:
        """Scale actions to apply after ``round_index`` (may be empty).

        ``shards`` is the live shard list (read-only: inspect
        ``capacity``, ``active``, ``queue``, ``headroom()`` — never
        mutate; all mutation goes through the returned actions so the
        conservation ledger and observers see every change).
        """
        return []


class SignalAutoscaler(Autoscaler):
    """Scale on telemetry windows: SLA-weighted pressure up, quiet
    low-utilization windows down.

    Parameters
    ----------
    window:
        Telemetry window length in rounds; decisions land on window
        boundaries (round ``k * window - 1``, after the window closed).
    up_pressure:
        Weighted down-step renegotiation density at or above which a
        window counts toward scale-up.
    down_utilization:
        Utilization at or below which a window with **zero** down-steps
        counts toward scale-down.
    sustain:
        Consecutive qualifying windows required before acting
        (hysteresis: one noisy window never scales).
    cooldown:
        Minimum rounds between two actions; also the post-action
        settling time during which both streaks restart from zero.
    down_quality:
        Window mean quality at or above which a zero-down-step window
        counts toward scale-down regardless of utilization (``None``
        disables the signal).  Work-conserving arbiters grant the
        whole pool every round — streams absorb slack as extra quality
        — so ``utilization`` saturates near 1.0 even on a fleet twice
        the size the workload needs.  Quality saturation is the
        over-provisioning signal that survives headroom lending: when
        every stream already renders at the catalog ceiling, the
        marginal shard is buying nothing.
    min_shards / max_shards:
        Hard bounds on the fleet size; plans outside them are skipped.
    classes:
        SLA catalog for pressure weighting (anything
        :func:`repro.sla.classes.resolve_classes` accepts).
    """

    name = "signal"

    #: weight of the window's rejection density in the scale-up
    #: pressure: a gated cluster short of capacity rejects instead of
    #: renegotiating, which would otherwise read as a calm fleet
    reject_pressure = 3.0
    #: weight of the class-weighted queued arrivals per shard: a gate
    #: queues long before it rejects, so the queue is the earliest
    #: saturation signal a gated cluster emits
    queue_pressure = 0.05

    def __init__(
        self,
        window: int = 25,
        up_pressure: float = 0.1,
        down_utilization: float = 0.5,
        sustain: int = 2,
        cooldown: int = 50,
        down_quality: float | None = None,
        min_shards: int = 1,
        max_shards: int = 12,
        classes=None,
    ) -> None:
        if not isinstance(window, int) or isinstance(window, bool) or window < 1:
            raise ConfigurationError(
                f"window must be an integer >= 1, got {window!r}"
            )
        if not up_pressure > 0:
            raise ConfigurationError(
                f"up_pressure must be positive, got {up_pressure!r}"
            )
        if not 0 < down_utilization < 1:
            raise ConfigurationError(
                f"down_utilization must be in (0, 1), got {down_utilization!r}"
            )
        if not isinstance(sustain, int) or isinstance(sustain, bool) or sustain < 1:
            raise ConfigurationError(
                f"sustain must be an integer >= 1, got {sustain!r}"
            )
        if (
            not isinstance(cooldown, int)
            or isinstance(cooldown, bool)
            or cooldown < 1
        ):
            raise ConfigurationError(
                f"cooldown must be an integer >= 1, got {cooldown!r}"
            )
        if down_quality is not None and not down_quality > 0:
            raise ConfigurationError(
                f"down_quality must be positive, got {down_quality!r}"
            )
        if min_shards < 1 or max_shards < min_shards:
            raise ConfigurationError(
                f"need 1 <= min_shards <= max_shards, got "
                f"{min_shards!r}..{max_shards!r}"
            )
        self.window = window
        self.up_pressure = up_pressure
        self.down_utilization = down_utilization
        self.sustain = sustain
        self.cooldown = cooldown
        self.down_quality = down_quality
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.weights = class_pressure_weights(classes)
        self._telemetry = TelemetryObserver(window=window)
        self._up_streak = 0
        self._down_streak = 0
        self._last_action: int | None = None

    def observer(self):
        return self._telemetry

    def reset(self) -> None:
        self._telemetry = TelemetryObserver(window=self.window)
        self._up_streak = 0
        self._down_streak = 0
        self._last_action = None

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    def pressure(self, summary: dict) -> float:
        """SLA-weighted scale-up pressure of one telemetry window.

        Down-step renegotiation density weighted per class (the
        per-class map counts steps in both directions, so it is scaled
        by the window's down-step fraction — a window of pure
        headroom-driven recoveries exerts zero upward pressure), plus
        ``reject_pressure`` times the window's rejection density.
        """
        total = summary.get("renegotiations", 0)
        down = summary.get("renegotiations_down", 0)
        value = 0.0
        if down:
            raw = weighted_pressure(
                summary.get("renegotiation_density_by_class", {}),
                self.weights,
            )
            value += raw * (down / total)
        rounds = summary.get("rounds", 0)
        if rounds:
            value += (
                self.reject_pressure * summary.get("rejected", 0) / rounds
            )
        return value

    def _backlog(self, shards) -> float:
        """Class-weighted queued arrivals per shard, right now."""
        if not shards:
            return 0.0
        weighted = sum(
            self.weights.get(
                spec.service_class if spec.service_class is not None
                else "unclassed",
                1.0,
            )
            for shard in shards
            for spec in shard.queue
        )
        return self.queue_pressure * weighted / len(shards)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(self, shards, round_index) -> list[ScaleAction]:
        if (round_index + 1) % self.window != 0:
            return []
        summary = self._telemetry.current()
        if summary["rounds"] == 0:
            return []
        pressure = self.pressure(summary) + self._backlog(shards)
        utilization = summary.get("utilization")
        quality = summary.get("mean_quality")
        slack = (
            utilization is not None
            and utilization <= self.down_utilization
        ) or (
            self.down_quality is not None
            and quality is not None
            and quality >= self.down_quality
        )
        quiet = (
            summary.get("renegotiations_down", 0) == 0
            and slack
            and not any(shard.queue for shard in shards)
        )
        self._up_streak = self._up_streak + 1 if pressure >= self.up_pressure else 0
        self._down_streak = self._down_streak + 1 if quiet else 0
        if (
            self._last_action is not None
            and round_index - self._last_action < self.cooldown
        ):
            return []
        if self._up_streak >= self.sustain and len(shards) < self.max_shards:
            # the new shard is the mean live one: growth in own units
            capacity = sum(s.capacity for s in shards) / len(shards)
            self._last_action = round_index
            self._up_streak = 0
            self._down_streak = 0
            return [
                ScaleAction(
                    kind="add",
                    capacities=(capacity,),
                    reason=(
                        f"pressure {pressure:.3f} >= {self.up_pressure} "
                        f"for {self.sustain} windows"
                    ),
                )
            ]
        if self._down_streak >= self.sustain and len(shards) > self.min_shards:
            emptiest = min(
                shards,
                key=lambda s: (len(s.active) + len(s.queue), s.capacity, s.shard_id),
            )
            self._last_action = round_index
            self._up_streak = 0
            self._down_streak = 0
            return [
                ScaleAction(
                    kind="remove",
                    shards=(emptiest.shard_id,),
                    reason=(
                        f"quiet for {self.sustain} windows "
                        f"(utilization {utilization:.3f}, "
                        f"mean quality {quality})"
                    ),
                )
            ]
        return []


@dataclass(frozen=True)
class ScheduledAutoscaler(Autoscaler):
    """Replay a fixed script of ``(round_index, ScaleAction)`` pairs.

    The deterministic workhorse for tests and property checks: no
    telemetry, no hysteresis — at each listed round it emits the listed
    actions verbatim (in order), so conservation and pacing invariants
    can be exercised against arbitrary action sequences.
    """

    schedule: tuple = field(default_factory=tuple)
    name = "scheduled"

    def plan(self, shards, round_index) -> list[ScaleAction]:
        return [
            action for at, action in self.schedule if at == round_index
        ]
