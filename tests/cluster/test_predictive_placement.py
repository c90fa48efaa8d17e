"""Predictive placement: the ROADMAP's quality-collapse regression.

Best-fit maximizes acceptance by packing streams into the tightest
feasible shard — and under churn that keeps wedging newcomers into the
small shards of a skewed cluster, collapsing per-stream quality there
while the big shard idles.  Predictive placement keeps the feasibility
gate but ranks accepting shards by the *projected per-stream share*;
this regression pins the improvement on the skewed-churn scenario.
"""

import pytest

from repro.cluster import PredictivePlacement, skewed_churn
from repro.cluster.runner import build_shards
from repro.experiments.configs import scaled_config
from repro.serving import serve
from repro.streams.scenarios import StreamSpec

CHURN_KWARGS = {"rate": 1.2, "horizon": 14, "seed": 7}


def cluster_spec(placement):
    return {
        "topology": "cluster",
        "scenario": {"name": "skewed-churn", "kwargs": CHURN_KWARGS},
        "placement": placement,
    }


class TestSkewedChurnRegression:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            name: serve(cluster_spec(name))
            for name in ("best-fit", "predictive")
        }

    def test_quality_no_longer_collapses(self, results):
        best_fit, predictive = results["best-fit"], results["predictive"]
        # same acceptance: the feasibility gate is untouched
        assert predictive.acceptance_ratio >= best_fit.acceptance_ratio
        # and the packing-induced collapse is gone: the worst-served
        # stream under churn is far healthier...
        assert min(predictive.per_stream_quality()) > min(
            best_fit.per_stream_quality()
        ) + 1.0
        # ...lifting both mean quality and per-stream fairness
        assert predictive.mean_quality() > best_fit.mean_quality() + 0.5
        assert (
            predictive.fairness_quality()
            > best_fit.fairness_quality() + 0.15
        )

    def test_deterministic_replay(self):
        first = serve(cluster_spec("predictive"))
        second = serve(cluster_spec("predictive"))
        assert first.summary() == second.summary()


class TestProjectedShare:
    def test_share_counts_active_queued_and_the_arrival(self):
        placement = PredictivePlacement()
        shard = build_shards([60e6], admission=False)[0]
        assert placement.projected_share(shard) == pytest.approx(60e6)
        spec = StreamSpec("s", 0, scaled_config(scale=27, seed=1, frames=4))
        shard.offer(spec, 0)
        assert placement.projected_share(shard) == pytest.approx(30e6)

    def test_prefers_the_biggest_projected_share(self):
        placement = PredictivePlacement()
        small, big = build_shards([12e6, 48e6])
        spec = StreamSpec("s", 0, scaled_config(scale=27, seed=1, frames=4))
        assert placement.choose(spec, [small, big], 0) is big
