"""The invariant ledger: broken engines are caught with named violations."""

from __future__ import annotations

import re

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    INVARIANTS,
    GrantConservation,
    Invariant,
    InvariantObserver,
    InvariantViolationError,
    register_invariant,
)
from repro.serving import ServingSpec, register_arbiter, serve
from repro.streams.arbiter import CapacityArbiter

SLA_SPEC = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 4, "gold": 2, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 1 / 1.5},
    "arbiter": "sla-quality-fair",
    "admission": "priority",
    "renegotiation": {"name": "step", "kwargs": {"patience": 1, "step": 0.3}},
    "service_classes": ["gold", "silver", "bronze"],
}


class OverAllocatingArbiter(CapacityArbiter):
    """Deliberately broken: grants every stream the whole pool."""

    name = "over-allocating"

    def allocate(self, requests, capacity):
        return {r.stream_id: capacity for r in requests}


@pytest.fixture
def broken_arbiter():
    register_arbiter("over-allocating", OverAllocatingArbiter, overwrite=True)
    yield
    from repro.serving import ARBITERS

    ARBITERS.unregister("over-allocating")


class TestLedger:
    def test_clean_run_holds_every_registered_invariant(self):
        observer = InvariantObserver()
        serve(SLA_SPEC, observers=[observer])
        assert observer.ok
        ledger = observer.ledger()
        assert set(ledger) == set(INVARIANTS.names())
        assert all(entry["holds"] for entry in ledger.values())
        assert all(entry["violations"] == 0 for entry in ledger.values())

    def test_invariant_selection_by_name_class_instance(self):
        observer = InvariantObserver(invariants=[
            "grant-conservation", GrantConservation, GrantConservation(),
        ])
        assert len(observer.invariants) == 3
        with pytest.raises(ConfigurationError, match="must be registered"):
            InvariantObserver(invariants=[42])
        with pytest.raises(ConfigurationError, match="unknown invariant"):
            InvariantObserver(invariants=["nope"])

    def test_third_party_invariant_registers(self):
        class NoThirteenthRound(Invariant):
            name = "no-thirteenth-round"

            def on_round(self, round_index, allocations, capacity,
                         shard_id=None):
                if round_index == 13:
                    self.violation("round 13 happened",
                                   round_index=round_index)

        register_invariant("no-thirteenth-round", NoThirteenthRound)
        try:
            observer = InvariantObserver(invariants=["no-thirteenth-round"])
            observer.on_round(13, {}, 1.0)
            assert [v.invariant for v in observer.violations] == [
                "no-thirteenth-round"
            ]
        finally:
            INVARIANTS.unregister("no-thirteenth-round")


class TestBrokenEngines:
    def test_broken_arbiter_caught_with_named_violation(self, broken_arbiter):
        """The acceptance criterion: a deliberately broken arbiter is
        caught by the ledger with a named grant-conservation violation."""
        spec = dict(SLA_SPEC) | {
            "arbiter": "over-allocating", "admission": "feasibility",
            "renegotiation": None, "service_classes": None,
        }
        observer = InvariantObserver()
        serve(spec, observers=[observer])
        assert not observer.ok
        names = {v.invariant for v in observer.violations}
        assert "grant-conservation" in names
        violation = next(
            v for v in observer.violations
            if v.invariant == "grant-conservation"
        )
        assert "sum" in violation.detail
        assert violation.round_index is not None
        assert not observer.ledger()["grant-conservation"]["holds"]

    def test_enforcement_raises_at_first_violation(self, broken_arbiter):
        spec = dict(SLA_SPEC) | {
            "arbiter": "over-allocating", "admission": "feasibility",
            "renegotiation": None, "service_classes": None,
        }
        with pytest.raises(InvariantViolationError) as excinfo:
            serve(spec, observers=[InvariantObserver(enforce=True)])
        assert excinfo.value.violation.invariant == "grant-conservation"
        assert "grant-conservation" in str(excinfo.value)

    def test_negative_grants_caught(self):
        observer = InvariantObserver(invariants=["grant-conservation"])
        observer.on_round(0, {"a": -5e6, "b": 29e6}, 24e6)
        names = [v.invariant for v in observer.violations]
        assert names.count("grant-conservation") >= 1
        assert any("negative" in v.detail for v in observer.violations)


class TestUnitChecks:
    def test_class_floor_violation(self):
        observer = InvariantObserver(
            invariants=["class-floors"],
            classes=[{"name": "gold", "min_quality": 0.5,
                      "target_quality": 0.85}],
        )
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config

        spec = StreamSpec("g", 0, scaled_config(scale=27, frames=4),
                          service_class="gold")
        observer.on_admit(spec, 0)
        observer.on_renegotiate("g", 0.85, 0.3, 4)  # below the 0.5 floor
        assert any(
            "below class floor" in v.detail for v in observer.violations
        )
        observer.violations.clear()
        observer.on_renegotiate("g", 0.85, 0.85, 5)  # no-op step
        assert any("no-op" in v.detail for v in observer.violations)
        observer.violations.clear()
        observer.on_renegotiate("g", 0.85, 1.2, 6)  # outside [0, 1]
        assert any("outside" in v.detail for v in observer.violations)

    def test_exactly_once_accounting_violations(self):
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config

        spec = StreamSpec("s", 0, scaled_config(scale=27, frames=4))
        observer = InvariantObserver(invariants=["exactly-once-rejection"])
        observer.on_admit(spec, 0)
        observer.on_admit(spec, 1)
        assert any("admitted twice" in v.detail for v in observer.violations)
        observer.violations.clear()
        observer.on_reject(spec, 2)
        assert any(
            "rejected after admission" in v.detail
            for v in observer.violations
        )

    def test_unfinished_streams_flagged_at_close(self):
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config

        spec = StreamSpec("s", 0, scaled_config(scale=27, frames=4))
        observer = InvariantObserver(invariants=["exactly-once-rejection"])
        observer.on_admit(spec, 0)
        observer.close()
        assert any("never departed" in v.detail for v in observer.violations)

    def test_migration_residency_violations(self):
        from repro.cluster.migration import MigrationMove

        observer = InvariantObserver(invariants=["migration-headroom"])
        observer.on_migrate(
            MigrationMove(stream_id="s", source="shard-0", dest="shard-0",
                 kind="active"),
            3,
        )
        assert any(
            "identical source" in v.detail for v in observer.violations
        )
        observer.violations.clear()
        observer.on_migrate(
            MigrationMove(stream_id="ghost", source="shard-0", dest="shard-1",
                 kind="active"),
            4,
        )
        assert any("resident" in v.detail for v in observer.violations)

    def test_migration_overcommit_violation(self):
        from repro.streams.scenarios import StreamSpec
        from repro.experiments.configs import scaled_config
        from repro.cluster.migration import MigrationMove

        config = scaled_config(scale=27, frames=4)
        observer = InvariantObserver(invariants=["migration-headroom"])
        observer.on_capacity(1.0, 0, shard_id="shard-1")  # ~zero headroom
        observer.on_capacity(1e9, 0, shard_id="shard-0")
        observer.on_admit(StreamSpec("s", 0, config), 0,
                          shard_id="shard-0")
        observer.on_migrate(
            MigrationMove(stream_id="s", source="shard-0", dest="shard-1",
                 kind="active"),
            2,
        )
        assert any("exceeds" in v.detail for v in observer.violations)


class TestSloBudgetConservation:
    """The SLO budget law's violation paths, driven by hand: a serve
    reaches none of them, because a real tracker always balances."""

    ACCEPTANCE = {"name": "acceptance", "objective": "acceptance",
                  "target": 0.9, "fast_window": 2, "slow_window": 6}

    @staticmethod
    def drive(observer, rounds=4):
        """Admit one stream per round, reject one every other round."""
        from repro.experiments.configs import scaled_config
        from repro.streams.scenarios import StreamSpec

        config = scaled_config(scale=27, frames=4)
        for r in range(rounds):
            observer.on_admit(StreamSpec(f"a{r}", r, config), r)
            if r % 2:
                observer.on_reject(StreamSpec(f"r{r}", r, config), r)
            observer.on_round(r, {}, 1.0)

    def watched(self):
        observer = InvariantObserver(
            invariants=["slo-budget-conservation"], slos=[self.ACCEPTANCE]
        )
        return observer, observer.invariants[0]

    def test_clean_ledger_holds(self):
        observer, _ = self.watched()
        self.drive(observer)
        observer.close()
        assert observer.ok
        assert observer.ledger()["slo-budget-conservation"]["holds"]

    def test_remaining_drift_breaks_conservation(self):
        observer, law = self.watched()
        self.drive(observer)
        assert observer.ok
        law._trackers["acceptance"].remaining_units += 1.0
        observer.on_round(4, {}, 1.0)
        assert [v.invariant for v in observer.violations] == [
            "slo-budget-conservation"
        ]
        assert re.search(
            r"budget accrued .+ != consumed .+ \+ remaining",
            observer.violations[0].detail,
        )
        assert not observer.ledger()["slo-budget-conservation"]["holds"]

    @pytest.mark.parametrize("states, detail", [
        (("firing", "firing"), "fired twice"),
        (("resolved",), "resolution without a preceding alert"),
    ])
    def test_alert_episodes_alternate(self, states, detail):
        observer, law = self.watched()
        self.drive(observer, rounds=1)
        assert law._mirror.alerts == []
        tracker = law._trackers["acceptance"]
        for state in states:
            law._mirror._alert(tracker, state, 1, 3.0, 3.0)
        observer.on_round(1, {}, 1.0)
        assert len(observer.violations) == 1
        assert detail in observer.violations[0].detail

    def test_inert_without_slos(self):
        observer = InvariantObserver(invariants=["slo-budget-conservation"])
        law = observer.invariants[0]
        self.drive(observer)
        observer.close()
        assert not law.is_active()
        assert law._trackers == {}  # no books to balance
        assert observer.ledger()["slo-budget-conservation"]["holds"]
