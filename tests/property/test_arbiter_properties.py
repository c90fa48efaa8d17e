"""Property-based tests of the capacity arbiters (hypothesis).

For EVERY arbiter policy and ANY random request mix the two serving
invariants must hold: grants are non-negative, and their sum never
exceeds the offered capacity (conservation says it equals it exactly —
asserted to float tolerance).  These are the properties the fleet and
cluster layers silently rely on each round: a negative grant would
crash a session step, an over-grant would mint capacity out of thin
air and break every utilization claim.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.arbiter import (
    CapacityRequest,
    EqualShareArbiter,
    QualityFairArbiter,
    WeightedShareArbiter,
)

SETTINGS = settings(max_examples=80, deadline=None)

ARBITER_FACTORIES = [
    lambda floor: EqualShareArbiter(floor_share=floor),
    lambda floor: WeightedShareArbiter(floor_share=floor),
    lambda floor: QualityFairArbiter(floor_share=floor),
    lambda floor: QualityFairArbiter(floor_share=floor, pressure=0.0),
    lambda floor: QualityFairArbiter(floor_share=floor, pressure=5.0),
]

request_lists = st.lists(
    st.tuples(
        st.floats(min_value=1e3, max_value=1e9),     # demand
        st.floats(min_value=1e-3, max_value=100.0),  # weight
        st.one_of(                                   # recent quality
            st.none(),
            st.floats(min_value=0.0, max_value=1.0),
        ),
    ),
    min_size=1,
    max_size=24,
)


def build_requests(raw) -> list[CapacityRequest]:
    return [
        CapacityRequest(
            stream_id=f"s{i}",
            demand=demand,
            weight=weight,
            recent_quality=math.nan if quality is None else quality,
        )
        for i, (demand, weight, quality) in enumerate(raw)
    ]


@given(
    raw=request_lists,
    capacity=st.floats(min_value=0.0, max_value=1e12),
    floor=st.floats(min_value=0.0, max_value=1.0),
    arbiter_index=st.integers(min_value=0, max_value=len(ARBITER_FACTORIES) - 1),
)
@SETTINGS
def test_grants_are_nonnegative_and_never_exceed_capacity(
    raw, capacity, floor, arbiter_index
):
    arbiter = ARBITER_FACTORIES[arbiter_index](floor)
    requests = build_requests(raw)
    allocations = arbiter.allocate(requests, capacity)
    assert set(allocations) == {r.stream_id for r in requests}
    for grant in allocations.values():
        assert grant >= 0.0
        assert math.isfinite(grant)
    total = sum(allocations.values())
    # never exceed the pool (to float tolerance)...
    assert total <= capacity * (1 + 1e-9) + 1e-9
    # ...and conservation: nothing is dropped either
    assert total == pytest.approx(capacity, rel=1e-9, abs=1e-6)


@given(
    raw=request_lists,
    capacity=st.floats(min_value=1e3, max_value=1e12),
    floor=st.floats(min_value=0.01, max_value=1.0),
    arbiter_index=st.integers(min_value=0, max_value=len(ARBITER_FACTORIES) - 1),
)
@SETTINGS
def test_floor_share_prevents_starvation(raw, capacity, floor, arbiter_index):
    """Every stream receives at least its floor fraction of the equal
    share, whatever the fairness logic does with the surplus."""
    arbiter = ARBITER_FACTORIES[arbiter_index](floor)
    requests = build_requests(raw)
    allocations = arbiter.allocate(requests, capacity)
    guaranteed = floor * capacity / len(requests)
    for grant in allocations.values():
        assert grant >= guaranteed * (1 - 1e-9) - 1e-9
