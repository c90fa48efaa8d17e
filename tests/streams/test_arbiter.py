"""Arbiter invariants: conservation, no starvation, fairness steering."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.streams.arbiter import (
    CapacityRequest,
    EqualShareArbiter,
    QualityFairArbiter,
    WeightedShareArbiter,
    make_arbiter,
)

CAPACITY = 100.0

ALL_ARBITERS = [
    EqualShareArbiter(),
    WeightedShareArbiter(),
    QualityFairArbiter(),
    QualityFairArbiter(floor_share=0.5, pressure=4.0),
]


def mixed_requests():
    """Heterogeneous demands, weights, qualities — incl. a nan newcomer."""
    return [
        CapacityRequest("a", demand=30.0, weight=1.0, recent_quality=0.9),
        CapacityRequest("b", demand=20.0, weight=2.0, recent_quality=0.2),
        CapacityRequest("c", demand=45.0, weight=1.0, recent_quality=math.nan),
        CapacityRequest("d", demand=10.0, weight=0.5, recent_quality=0.5),
    ]


class TestInvariants:
    @pytest.mark.parametrize("arbiter", ALL_ARBITERS, ids=lambda a: a.name)
    def test_allocations_sum_to_capacity(self, arbiter):
        allocations = arbiter.allocate(mixed_requests(), CAPACITY)
        assert sum(allocations.values()) == pytest.approx(CAPACITY)

    @pytest.mark.parametrize("arbiter", ALL_ARBITERS, ids=lambda a: a.name)
    def test_no_starvation_floor(self, arbiter):
        requests = mixed_requests()
        allocations = arbiter.allocate(requests, CAPACITY)
        floor = arbiter.floor_share * CAPACITY / len(requests)
        for request in requests:
            assert allocations[request.stream_id] >= floor - 1e-9
            assert allocations[request.stream_id] > 0

    @pytest.mark.parametrize("arbiter", ALL_ARBITERS, ids=lambda a: a.name)
    def test_every_request_answered(self, arbiter):
        requests = mixed_requests()
        allocations = arbiter.allocate(requests, CAPACITY)
        assert set(allocations) == {r.stream_id for r in requests}

    @pytest.mark.parametrize("arbiter", ALL_ARBITERS, ids=lambda a: a.name)
    def test_empty_requests(self, arbiter):
        assert arbiter.allocate([], CAPACITY) == {}

    def test_duplicate_ids_rejected(self):
        requests = [
            CapacityRequest("x", demand=1.0),
            CapacityRequest("x", demand=2.0),
        ]
        with pytest.raises(ConfigurationError):
            EqualShareArbiter().allocate(requests, CAPACITY)


class TestEqualShare:
    def test_splits_evenly_whatever_the_demands(self):
        allocations = EqualShareArbiter().allocate(mixed_requests(), CAPACITY)
        expected = CAPACITY / 4
        for value in allocations.values():
            assert value == pytest.approx(expected)


class TestWeightedShare:
    def test_proportional_to_weight_times_demand(self):
        arbiter = WeightedShareArbiter(floor_share=0.0)
        requests = [
            CapacityRequest("small", demand=10.0, weight=1.0),
            CapacityRequest("big", demand=30.0, weight=1.0),
            CapacityRequest("vip", demand=10.0, weight=3.0),
        ]
        allocations = arbiter.allocate(requests, CAPACITY)
        assert allocations["big"] == pytest.approx(3 * allocations["small"])
        assert allocations["vip"] == pytest.approx(3 * allocations["small"])


class TestQualityFair:
    def test_low_quality_attracts_capacity(self):
        arbiter = QualityFairArbiter(floor_share=0.0)
        requests = [
            CapacityRequest("happy", demand=10.0, recent_quality=0.9),
            CapacityRequest("hurting", demand=10.0, recent_quality=0.1),
        ]
        allocations = arbiter.allocate(requests, 10.0)
        assert allocations["hurting"] > allocations["happy"]

    def test_newcomer_nan_treated_as_max_deficit(self):
        arbiter = QualityFairArbiter(floor_share=0.0)
        requests = [
            CapacityRequest("old", demand=10.0, recent_quality=0.5),
            CapacityRequest("new", demand=10.0, recent_quality=math.nan),
        ]
        allocations = arbiter.allocate(requests, 10.0)
        assert allocations["new"] > allocations["old"]

    def test_zero_pressure_degenerates_to_weighted(self):
        flat = QualityFairArbiter(floor_share=0.0, pressure=0.0)
        weighted = WeightedShareArbiter(floor_share=0.0)
        requests = mixed_requests()
        assert flat.allocate(requests, CAPACITY) == pytest.approx(
            weighted.allocate(requests, CAPACITY)
        )

    def test_higher_pressure_widens_the_gap(self):
        requests = [
            CapacityRequest("happy", demand=10.0, recent_quality=0.9),
            CapacityRequest("hurting", demand=10.0, recent_quality=0.1),
        ]
        gentle = QualityFairArbiter(floor_share=0.0, pressure=1.0)
        harsh = QualityFairArbiter(floor_share=0.0, pressure=4.0)
        g = gentle.allocate(requests, 10.0)
        h = harsh.allocate(requests, 10.0)
        assert h["hurting"] > g["hurting"]


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            EqualShareArbiter(floor_share=1.5)
        with pytest.raises(ConfigurationError):
            QualityFairArbiter(pressure=-1.0)
        with pytest.raises(ConfigurationError):
            CapacityRequest("x", demand=0.0)
        with pytest.raises(ConfigurationError):
            CapacityRequest("x", demand=1.0, weight=0.0)
        with pytest.raises(ConfigurationError):
            EqualShareArbiter().allocate([CapacityRequest("x", demand=1.0)], -1.0)

    def test_factory(self):
        assert isinstance(make_arbiter("equal-share"), EqualShareArbiter)
        assert isinstance(make_arbiter("weighted-share"), WeightedShareArbiter)
        arbiter = make_arbiter("quality-fair", pressure=3.0)
        assert isinstance(arbiter, QualityFairArbiter)
        assert arbiter.pressure == 3.0
        with pytest.raises(ConfigurationError):
            make_arbiter("round-robin")
