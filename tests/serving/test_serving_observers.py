"""RoundObserver lifecycle hooks: coverage, payloads, and consistency."""

from __future__ import annotations

import math

from repro.obs import PerfObserver, TelemetryObserver
from repro.serving import CountingObserver, RoundObserver, serve
from repro.serving.observers import HOOKS, Hooks
from repro.streams.fleet import StreamOutcome

FLEET_SPEC = {
    "scenario": {"name": "flash-crowd",
                 "kwargs": {"base": 3, "crowd": 5, "crowd_round": 3,
                            "frames": 6, "scale": 27}},
    "capacity": 20e6,
    "arbiter": "quality-fair",
    "admission": "feasibility",
}

CLUSTER_SPEC = {
    "topology": "cluster",
    "scenario": {"name": "skewed-cluster",
                 "kwargs": {"streams": 8, "frames": 6}},
    "placement": "round-robin",
    "migration": "load-balance",
}

# overload + a bounded queue: priority admission preempts queued
# bronze when the gold crowd lands, and renegotiation steps targets
SLA_SPEC = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 8, "gold": 3, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 0.35},
    "arbiter": "sla-quality-fair",
    "admission": {"name": "priority",
                  "kwargs": {"queue_limit": 2, "utilization_cap": 0.7}},
    "renegotiation": "step",
}

# open-ended and under-provisioned: the signal autoscaler provisions a
# shard mid-run, whose hooks must reach the same observers
AUTOSCALE_SPEC = {
    "topology": "cluster",
    "scenario": {"name": "diurnal-cluster",
                 "kwargs": {"shards": 2, "base_rate": 0.4, "peak": 1.2,
                            "period_rounds": 8, "loop_frames": 5,
                            "provision_concurrency": 3.0}},
    "placement": "best-fit",
    "admission": "feasibility",
    "autoscaler": {"name": "signal",
                   "kwargs": {"window": 4, "cooldown": 8, "sustain": 1,
                              "max_shards": 4}},
    "max_rounds": 12,
}


class RecordingObserver(RoundObserver):
    """Keeps full event payloads for payload-shape assertions."""

    def __init__(self) -> None:
        self.rounds = []
        self.admits = []
        self.rejects = []
        self.migrations = []
        self.renegotiations = []
        self.departs = []

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self.rounds.append((round_index, allocations, capacity, shard_id))

    def on_admit(self, spec, round_index, shard_id=None):
        self.admits.append((spec, round_index, shard_id))

    def on_reject(self, spec, round_index, shard_id=None):
        self.rejects.append((spec, round_index, shard_id))

    def on_migrate(self, move, round_index):
        self.migrations.append((move, round_index))

    def on_renegotiate(self, stream_id, old_target, new_target, round_index,
                       shard_id=None):
        self.renegotiations.append(
            (stream_id, old_target, new_target, round_index, shard_id)
        )

    def on_depart(self, outcome, round_index, shard_id=None):
        self.departs.append((outcome, round_index, shard_id))


class TestFleetHooks:
    def test_counts_match_result_bookkeeping(self):
        observer = CountingObserver()
        result = serve(FLEET_SPEC, observers=[observer])
        assert observer.admitted == result.served_count
        assert observer.rejected == result.rejected_count
        assert observer.departed == result.served_count
        assert observer.rounds == result.rounds
        assert observer.migrated == 0  # no migration in a single pool

    def test_payloads(self):
        observer = RecordingObserver()
        result = serve(FLEET_SPEC, observers=[observer])
        # fleet hooks carry shard_id=None
        assert all(r[3] is None for r in observer.rounds)
        assert all(a[2] is None for a in observer.admits)
        # allocations conserve the arbitrated pool on busy rounds
        capacity = result.runner.capacity
        busy = [r for r in observer.rounds if r[1]]
        assert busy, "expected at least one busy round"
        for _, allocations, pool, _ in busy:
            assert pool == capacity
            assert math.isclose(sum(allocations.values()), capacity)
        # departures carry full outcomes, in result order
        assert [d[0] for d in observer.departs] == result.outcomes
        assert all(isinstance(d[0], StreamOutcome) for d in observer.departs)
        # a queued stream's admit round can trail its arrival round
        waits = [
            admit_round - spec.arrival_round
            for spec, admit_round, _ in observer.admits
        ]
        assert all(w >= 0 for w in waits)
        assert any(w > 0 for w in waits), "flash crowd should queue someone"

    def test_every_observer_in_the_sequence_fires(self):
        first, second = CountingObserver(), CountingObserver()
        serve(FLEET_SPEC, observers=[first, second])
        assert first.counts() == second.counts()
        assert first.rounds > 0


class TestClusterHooks:
    def test_counts_match_result_bookkeeping(self):
        observer = CountingObserver()
        result = serve(CLUSTER_SPEC, observers=[observer])
        assert observer.admitted == result.served_count
        assert observer.rejected == result.rejected_count
        assert observer.departed == result.served_count
        # on_round fires once per round per shard
        assert observer.rounds == result.rounds * result.raw.shard_count
        assert observer.migrated == result.raw.migration_count
        assert observer.migrated > 0, "skewed round-robin should migrate"

    def test_shard_ids_tag_every_pool_event(self):
        observer = RecordingObserver()
        result = serve(CLUSTER_SPEC, observers=[observer])
        expected = {f"shard-{i}" for i in range(result.raw.shard_count)}
        assert {r[3] for r in observer.rounds} == expected
        assert {a[2] for a in observer.admits} <= expected
        assert {d[2] for d in observer.departs} <= expected
        # migration payloads are the executed moves, in order
        assert [m[0] for m in observer.migrations] == result.raw.migrations

    def test_migrated_stream_departs_from_destination_shard(self):
        observer = RecordingObserver()
        serve(CLUSTER_SPEC, observers=[observer])
        active_moves = [
            m for m, _ in observer.migrations if m.kind == "active"
        ]
        departed_at = {
            outcome.spec.name: shard_id
            for outcome, _, shard_id in observer.departs
        }
        for move in active_moves:
            # the stream finished somewhere, and if it never moved
            # again its departure shard is the move's destination
            assert move.stream_id in departed_at
            last_move = [
                m for m, _ in observer.migrations
                if m.stream_id == move.stream_id
            ][-1]
            assert departed_at[move.stream_id] == last_move.dest


class TestSlaAccounting:
    """Preempted queued specs: exactly one on_reject, counted once."""

    def test_preempted_specs_rejected_exactly_once(self):
        observer = RecordingObserver()
        counting = CountingObserver()
        result = serve(SLA_SPEC, observers=[observer, counting])
        preempted = result.preempted
        assert preempted, "the gold crowd should preempt queued bronze"
        # every preempted spec is also in the rejected totals — once
        assert result.rejected_count == len(result.rejected)
        rejected_names = [s.name for s in result.rejected]
        for spec in preempted:
            assert rejected_names.count(spec.name) == 1
        # observers saw each final rejection exactly once, preempted
        # included, and nothing else
        observed = [s.name for s, _, _ in observer.rejects]
        assert sorted(observed) == sorted(rejected_names)
        assert counting.rejected == result.rejected_count
        # bookkeeping identity: every offered stream is decided once
        offered = result.served_count + result.rejected_count
        assert counting.admitted == result.served_count
        assert counting.departed == result.served_count
        assert offered == 11
        # preempted streams never ran: no admit, no depart
        admitted_names = {s.name for s, _, _ in observer.admits}
        assert admitted_names.isdisjoint(s.name for s in preempted)

    def test_renegotiation_hook_matches_result_counts(self):
        observer = RecordingObserver()
        counting = CountingObserver()
        result = serve(SLA_SPEC, observers=[observer, counting])
        total = result.total_renegotiations()
        assert total > 0, "overload should trigger renegotiation"
        assert counting.renegotiated == total
        assert len(observer.renegotiations) == total
        # payloads are (stream, old, new) with a real step each time
        served_names = {o.spec.name for o in result.outcomes}
        for stream_id, old, new, _, shard_id in observer.renegotiations:
            assert stream_id in served_names
            assert new != old
            assert 0.0 <= new <= 1.0
            assert shard_id is None  # fleet topology
        # per-class totals agree with the hook stream ids
        by_class = result.per_class()
        reneg_names = {r[0] for r in observer.renegotiations}
        class_of_stream = {
            o.spec.name: o.spec.service_class for o in result.outcomes
        }
        for name in reneg_names:
            assert by_class[class_of_stream[name]]["renegotiations"] > 0


class TestBaseObserverIsNoOp:
    def test_hooks_exist_and_return_none(self):
        observer = RoundObserver()
        assert observer.on_round(0, {}, 1.0) is None
        assert observer.on_round(0, {}, 1.0, shard_id="s") is None
        assert observer.on_admit(None, 0) is None
        assert observer.on_reject(None, 0) is None
        assert observer.on_migrate(None, 0) is None
        assert observer.on_renegotiate("s", 0.8, 0.7, 0) is None
        assert observer.on_depart(None, 0) is None


class TestHooks:
    """One dispatch point: each hook reaches only its listeners."""

    class Log(RoundObserver):
        """Appends ``(name, hook)`` to a shared log on two hooks."""

        def __init__(self, name, log):
            self.name = name
            self.log = log

        def on_admit(self, spec, round_index, shard_id=None):
            self.log.append((self.name, "on_admit"))

        def on_depart(self, outcome, round_index, shard_id=None):
            self.log.append((self.name, "on_depart"))

    def test_hooks_mirror_the_base_observer(self):
        declared = {name for name in vars(RoundObserver) if name.startswith("on_")}
        assert set(HOOKS) == declared

    def test_attach_order_is_kept_across_observers(self):
        log = []
        hooks = Hooks([
            self.Log("a", log), RoundObserver(), self.Log("b", log),
            CountingObserver(), self.Log("c", log),
        ])
        hooks.on_admit(None, 0)
        hooks.on_depart(None, 0, shard_id="s")
        assert log == [
            ("a", "on_admit"), ("b", "on_admit"), ("c", "on_admit"),
            ("a", "on_depart"), ("b", "on_depart"), ("c", "on_depart"),
        ]

    def test_an_observer_is_never_called_for_a_hook_it_does_not_override(
        self, monkeypatch
    ):
        def tripwire(*args, **kwargs):
            raise AssertionError("a base-class no-op hook was called")

        for hook in HOOKS:
            monkeypatch.setattr(RoundObserver, hook, tripwire)
        # CountingObserver overrides every hook but on_phase,
        # PerfObserver only on_phase, a plain RoundObserver none; the
        # four specs between them fire every hook
        counting = CountingObserver()
        for spec in (FLEET_SPEC, CLUSTER_SPEC, SLA_SPEC, AUTOSCALE_SPEC):
            serve(spec, observers=[RoundObserver(), counting, PerfObserver()])
        assert counting.migrated and counting.preempted and counting.scaled

    def test_provisioned_shards_fire_through_the_run_hooks(self):
        observer = RecordingObserver()
        result = serve(AUTOSCALE_SPEC, observers=[observer])
        provisioned = {
            r.shard_id for r in result.raw.shard_results
            if r.shard_id.startswith("scale-")
        }
        assert provisioned, "the autoscaler should provision a shard"
        assert provisioned <= {r[3] for r in observer.rounds}

    def test_one_listener_is_its_bound_method(self):
        counting = CountingObserver()
        hooks = Hooks([RoundObserver(), counting, PerfObserver()])
        assert hooks.on_round == counting.on_round
        assert hooks.on_round.__self__ is counting
        # nobody listens: one shared no-op, whatever the observers
        assert Hooks().on_migrate is Hooks([counting]).on_phase

    def test_timed_only_when_some_observer_overrides_on_phase(self):
        assert not Hooks().timed
        assert not Hooks([CountingObserver(), TelemetryObserver()]).timed
        assert Hooks([PerfObserver()]).timed
        assert Hooks([CountingObserver(), PerfObserver()]).timed
        # untimed, the phase helpers never read the clock
        assert Hooks().start() == 0.0
        assert Hooks().lap("step", 0.0, 0) == 0.0
