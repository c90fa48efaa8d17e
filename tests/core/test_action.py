"""Tests for repro.core.action: quality sets and iterated action names."""

import math

import pytest

from repro.core.action import (
    QualitySet,
    iterated_action,
    split_iterated_action,
)
from repro.errors import ConfigurationError


class TestQualitySet:
    def test_from_range_produces_contiguous_levels(self):
        qs = QualitySet.from_range(8)
        assert qs.levels == tuple(range(8))
        assert qs.qmin == 0
        assert qs.qmax == 7

    def test_from_range_with_offset_start(self):
        qs = QualitySet.from_range(3, start=5)
        assert qs.levels == (5, 6, 7)

    def test_levels_are_sorted_regardless_of_input_order(self):
        qs = QualitySet((3, 1, 2))
        assert qs.levels == (1, 2, 3)

    def test_of_deduplicates(self):
        qs = QualitySet.of([4, 2, 4, 2])
        assert qs.levels == (2, 4)

    def test_empty_set_rejected(self):
        with pytest.raises(ConfigurationError):
            QualitySet(())

    def test_duplicate_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            QualitySet((1, 1, 2))

    def test_non_contiguous_levels_allowed(self):
        qs = QualitySet((0, 5, 10))
        assert qs.qmin == 0
        assert qs.qmax == 10
        assert 5 in qs
        assert 3 not in qs

    def test_membership_and_iteration(self):
        qs = QualitySet.from_range(3)
        assert list(qs) == [0, 1, 2]
        assert len(qs) == 3

    def test_index_ranks_levels(self):
        qs = QualitySet((2, 4, 8))
        assert qs.index(4) == 1

    def test_index_of_unknown_level_raises(self):
        qs = QualitySet((2, 4, 8))
        with pytest.raises(ConfigurationError):
            qs.index(3)

    def test_below_returns_prefix(self):
        qs = QualitySet.from_range(5)
        assert qs.below(2) == (0, 1, 2)

    def test_descending_reverses(self):
        qs = QualitySet.from_range(3)
        assert qs.descending() == (2, 1, 0)

    def test_normalized_spans_qmin_to_qmax(self):
        qs = QualitySet.from_range(4, start=2)
        assert qs.normalized(2) == 0.0
        assert qs.normalized(5) == 1.0
        assert qs.normalized(3.5) == 0.5

    def test_normalized_encoder_scale_is_division_by_qmax(self):
        # the encoder levels start at 0: an exact division by qmax
        from repro.video.pipeline import ENCODER_QUALITY_LEVELS

        for q in (0.0, 0.3, 3.7, 5.95, 7.0):
            assert ENCODER_QUALITY_LEVELS.normalized(q) == q / 7.0

    def test_normalized_keeps_nan_and_single_levels(self):
        assert math.isnan(QualitySet.from_range(8).normalized(math.nan))
        assert QualitySet((3,)).normalized(3) == 0.0


class TestIteratedActions:
    def test_roundtrip(self):
        name = iterated_action("Motion_Estimate", 12)
        assert name == "Motion_Estimate#12"
        assert split_iterated_action(name) == ("Motion_Estimate", 12)

    def test_split_plain_name_returns_none_iteration(self):
        assert split_iterated_action("Quantize") == ("Quantize", None)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ConfigurationError):
            iterated_action("a", -1)

    def test_split_with_non_numeric_suffix(self):
        assert split_iterated_action("weird#name") == ("weird#name", None)
