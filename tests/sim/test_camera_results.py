"""Tests for repro.sim.results."""

import math

import numpy as np
import pytest

from repro.sim.results import FrameRecord, RunResult, skip_regions


def encoded(index, cycles, budget=100.0, psnr=35.0, quality=3.0, iframe=False):
    return FrameRecord(
        index=index,
        is_iframe=iframe,
        skipped=False,
        arrival=index * 100.0,
        motion=0.4,
        start=index * 100.0,
        end=index * 100.0 + cycles,
        budget=budget,
        encode_cycles=cycles,
        controller_cycles=2.0,
        decisions=9,
        mean_quality=quality,
        min_quality=int(quality),
        max_quality=int(quality),
        psnr=psnr,
    )


def skipped(index, psnr=20.0):
    return FrameRecord(
        index=index,
        is_iframe=False,
        skipped=True,
        arrival=index * 100.0,
        motion=0.8,
        psnr=psnr,
    )


class TestRunResult:
    @pytest.fixture
    def result(self):
        run = RunResult(label="test", period=100.0, buffer_capacity=1)
        run.frames = [
            encoded(0, 90.0, psnr=36.0, quality=4.0),
            encoded(1, 110.0, psnr=34.0, quality=3.0),  # budget overrun
            skipped(2),
            encoded(3, 80.0, psnr=35.0, quality=5.0),
        ]
        return run

    def test_counts(self, result):
        assert len(result) == 4
        assert result.skip_count == 1
        assert result.encoded_count == 3
        assert result.deadline_miss_count == 1

    def test_series_have_gaps_at_skips(self, result):
        times = result.encoding_times()
        assert math.isnan(times[2])
        assert times[0] == 90.0
        psnr = result.psnr_series()
        assert psnr[2] == 20.0

    def test_utilization(self, result):
        utilization = result.utilization_series()
        assert utilization[0] == pytest.approx(0.9)
        assert result.mean_utilization() == pytest.approx((0.9 + 1.1 + 0.8) / 3)

    def test_psnr_means(self, result):
        assert result.mean_psnr() == pytest.approx((36 + 34 + 20 + 35) / 4)
        assert result.mean_psnr(include_skips=False) == pytest.approx(35.0)

    def test_quality_aggregates(self, result):
        assert result.mean_quality() == pytest.approx(4.0)
        assert result.quality_smoothness() == pytest.approx((1.0 + 2.0) / 2)

    def test_latency(self, result):
        assert result.frames[1].latency == pytest.approx(110.0)
        assert result.max_latency() == pytest.approx(110.0)
        assert math.isnan(result.frames[2].latency)

    def test_controller_overhead(self, result):
        total = 90.0 + 110.0 + 80.0
        assert result.controller_overhead_ratio() == pytest.approx(6.0 / total)

    def test_summary_keys(self, result):
        summary = result.summary()
        assert summary["skipped"] == 1
        assert summary["deadline_misses"] == 1
        assert summary["label"] == "test"

    def test_csv_roundtrip(self, result, tmp_path):
        path = tmp_path / "run.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 frames
        assert lines[0].startswith("index,")
        assert lines[3].split(",")[2] == "True"  # skipped flag of frame 2

    def test_frames_in_region(self, result):
        assert [f.index for f in result.frames_in(1, 3)] == [1, 2]


class TestSkipRegions:
    def test_margin_expansion(self):
        run = RunResult(label="x", period=100.0, buffer_capacity=1)
        run.frames = [encoded(0, 50.0), encoded(1, 50.0), skipped(2), encoded(3, 50.0)]
        region = skip_regions([run], margin=1)
        assert region == {1, 2, 3}

    def test_union_over_runs(self):
        a = RunResult(label="a", period=100.0, buffer_capacity=1)
        a.frames = [skipped(0)]
        b = RunResult(label="b", period=100.0, buffer_capacity=1)
        b.frames = [skipped(10)]
        region = skip_regions([a, b], margin=0)
        assert region == {0, 10}
