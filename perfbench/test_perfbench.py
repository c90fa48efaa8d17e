"""Self-tests of the benchmark at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import Tracer
from perfbench.workloads import BENCHMARKED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: Tiny sizes that keep every workload's character.
TINY = {
    "fleet-wide": {"count": 8, "frames": 4},
    "cluster-churn": {"rate": 2, "horizon": 8},
    "live-sla": {"rounds": 40},
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str, seed: int, out_dir) -> dict:
    return WORKLOADS[name].build(seed, str(out_dir), TINY[name])


def test_metric_names_use_allowed_characters():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, unit, better, *_ in END_TO_END + PER_LAYER:
        assert UNIT.match(unit), unit
        assert better in ("lower", "higher")


def test_benchmark_json_mirrors_the_catalog():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (name, WORKLOADS[name].why) for name in BENCHMARKED
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    ] == [tuple(m) for m in END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == [tuple(m) for m in PER_LAYER]


def test_same_seed_same_sim_metrics_other_seed_other_log(tmp_path):
    def run(seed):
        document = tiny("live-sla", seed, tmp_path)
        result, expected, problems = measure.check(document, "vectorized")
        assert problems == []
        log = (tmp_path / "live-sla.events.jsonl").read_text()
        return measure.sim_metrics(result), expected, log

    first, second, other = run(3), run(3), run(4)
    assert first == second
    assert first[2] != other[2]


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    return {
        # fresh seeds, so the cold serve really fills the caches
        name: measure.traced(
            tiny(name, 9100 + index, out), WORKLOADS[name].other_engine,
            0.0, out / f"{name}.spans.jsonl",
        )
        for index, name in enumerate(WORKLOADS)
    }


def test_traced_runs_pass_their_own_checks(traced_runs):
    for name, run in traced_runs.items():
        assert run["problems"] == [], name
        assert run["failed"] == 0
        assert set(run["layer"]) >= {m[0] for m in PER_LAYER}


def test_each_workload_does_what_it_was_chosen_for(traced_runs):
    live = traced_runs["live-sla"]["layer"]
    assert live["engine.kernel.batch.calls"] == 0
    assert live["engine.kernel.scalar.calls"] > 0
    assert live["obs.events.s"] > 0 and live["horizon.arrivals.s"] > 0
    churn = traced_runs["cluster-churn"]["layer"]
    assert 0 < churn["engine.kernel.batch.lanes_mean"] < 8
    assert churn["cluster.placement.choose.s"] > 0
    assert churn["cluster.migration.plan.s"] > 0
    fleet = traced_runs["fleet-wide"]["layer"]
    assert fleet["engine.kernel.batch.lanes_mean"] == TINY["fleet-wide"]["count"]
    assert fleet["serving.setup.cache_share"] > 0.5


def test_tracer_changes_no_bit_and_restores_every_name(tmp_path):
    document = tiny("cluster-churn", 5, tmp_path)
    plain = measure.fingerprint(measure.serve(document))
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure.fingerprint(tracer.root(measure.serve, document))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.restored() == []
    spans = tracer.take()
    assert spans and spans[0][0] == "serving.unattributed"


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_contract():
    done = _run(
        ["--workload", "cluster-churn", "--seed", "2", "--seconds", "0",
         "--trace", "0", "--size", json.dumps(TINY["cluster-churn"])],
        ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [name for name in result["metrics"]] == [m[0] for m in END_TO_END]
    assert result["metrics"]["setup_s"]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(["--workload", "live-sla", "--seed", "1"], tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
