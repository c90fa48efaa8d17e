"""The bench-regression gate: rules, verdicts, CLI exit codes.

The gate is the CI tripwire for the bench trajectories, so its own
semantics must be pinned: each rule kind accepts and rejects exactly
where documented, a missing trajectory or metric fails loudly (a bench
that silently stopped running must not pass the gate), and the CLI
exit code is what the workflow step keys off.
"""

from __future__ import annotations

import json

import pytest

from repro.tool.bench_gate import (
    evaluate_metric,
    main,
    run_gate,
    update_baselines,
)


class TestRules:
    def test_min_rule(self):
        assert evaluate_metric(5.2, {"min": 5.0}) == ()
        assert evaluate_metric(5.0, {"min": 5.0}) == ()
        assert evaluate_metric(4.9, {"min": 5.0})

    def test_max_rule(self):
        assert evaluate_metric(0.07, {"max": 0.10}) == ()
        assert evaluate_metric(0.11, {"max": 0.10})

    def test_equal_exact(self):
        assert evaluate_metric(256, {"equal": 256}) == ()
        assert evaluate_metric(255, {"equal": 256})

    def test_equal_with_tolerance(self):
        rule = {"equal": 2.852, "tolerance": 0.01}
        assert evaluate_metric(2.8525, rule) == ()
        assert evaluate_metric(2.87, rule)

    def test_equal_non_numeric(self):
        assert evaluate_metric("steady", {"equal": "steady"}) == ()
        assert evaluate_metric("burst", {"equal": "steady"})

    def test_combined_band(self):
        rule = {"min": 0.0, "max": 1.0}
        assert evaluate_metric(0.5, rule) == ()
        assert len(evaluate_metric(-0.1, rule)) == 1
        assert len(evaluate_metric(1.5, rule)) == 1

    def test_missing_metric_fails(self):
        assert evaluate_metric(None, {"min": 1.0})

    def test_nan_never_passes_bounds(self):
        nan = float("nan")
        assert evaluate_metric(nan, {"min": 0.0})
        assert evaluate_metric(nan, {"max": 10.0})

    def test_unknown_rule_key_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            evaluate_metric(1.0, {"mim": 1.0})

    def test_tolerance_requires_equal(self):
        with pytest.raises(ValueError, match="tolerance"):
            evaluate_metric(1.0, {"tolerance": 0.1})


def fresh(root):
    """Where the bench suite writes a trajectory (gitignored)."""
    return root / "benchmarks" / "results" / "BENCH_demo.json"


def write_gate_fixture(root, value, baseline_rule):
    fresh(root).parent.mkdir(parents=True)
    fresh(root).write_text(json.dumps({"speedup": value}) + "\n")
    baselines = root / "benchmarks" / "baselines.json"
    baselines.write_text(
        json.dumps(
            {
                "demo": {
                    "source": "BENCH_demo.json",
                    "metrics": {"speedup": baseline_rule},
                }
            }
        )
        + "\n"
    )
    return baselines


class TestGate:
    def test_passing_gate(self, tmp_path):
        baselines = write_gate_fixture(tmp_path, 6.0, {"min": 5.0})
        checks = run_gate(baselines, tmp_path)
        assert [c.ok for c in checks] == [True]

    def test_regression_caught(self, tmp_path):
        baselines = write_gate_fixture(tmp_path, 3.0, {"min": 5.0})
        checks = run_gate(baselines, tmp_path)
        assert [c.ok for c in checks] == [False]
        assert "3.0 < min 5.0" in checks[0].failures[0]

    def test_missing_trajectory_fails(self, tmp_path):
        baselines = write_gate_fixture(tmp_path, 6.0, {"min": 5.0})
        fresh(tmp_path).unlink()
        checks = run_gate(baselines, tmp_path)
        assert not checks[0].ok
        assert "not found" in checks[0].failures[0]

    def test_negative_overhead_fails(self, tmp_path):
        """An observed run cheaper than the bare one measured the box,
        not the code: the overhead gate's ``min`` rejects it."""
        baselines = write_gate_fixture(
            tmp_path, -0.136, {"min": 0.0, "max": 0.15}
        )
        checks = run_gate(baselines, tmp_path)
        assert [c.ok for c in checks] == [False]
        assert "-0.136 < min 0.0" in checks[0].failures[0]

    def test_missing_metric_fails(self, tmp_path):
        baselines = write_gate_fixture(tmp_path, 6.0, {"min": 5.0})
        fresh(tmp_path).write_text(json.dumps({}) + "\n")
        checks = run_gate(baselines, tmp_path)
        assert not checks[0].ok

    def test_gate_reads_fresh_not_committed_trajectory(self, tmp_path):
        """A stale committed copy neither passes nor fails the gate."""
        baselines = write_gate_fixture(tmp_path, 3.0, {"min": 5.0})
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps({"speedup": 6.0}) + "\n"
        )
        assert [c.ok for c in run_gate(baselines, tmp_path)] == [False]


class TestCli:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        write_gate_fixture(tmp_path, 6.0, {"min": 5.0})
        assert main(["--root", str(tmp_path)]) == 0
        assert "all 1 checks passed" in capsys.readouterr().out

    def test_exit_nonzero_on_regression(self, tmp_path, capsys):
        write_gate_fixture(tmp_path, 3.0, {"min": 5.0})
        assert main(["--root", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] demo.speedup" in captured.out
        assert "1 of 1 checks failed" in captured.err

    def test_update_repins_equal_values(self, tmp_path):
        baselines = write_gate_fixture(tmp_path, 6.0, {"equal": 5.0})
        assert main(["--root", str(tmp_path)]) == 1
        assert main(["--root", str(tmp_path), "--update"]) == 0
        assert json.loads(baselines.read_text())["demo"]["metrics"][
            "speedup"
        ] == {"equal": 6.0}
        assert main(["--root", str(tmp_path)]) == 0

    def test_update_records_the_committed_trajectory(self, tmp_path):
        """Only ``--update`` writes the repo-root ``BENCH_*.json``."""
        committed = tmp_path / "BENCH_demo.json"
        write_gate_fixture(tmp_path, 6.0, {"min": 5.0})
        assert main(["--root", str(tmp_path)]) == 0
        assert not committed.exists()
        assert main(["--root", str(tmp_path), "--update"]) == 0
        assert committed.read_text() == fresh(tmp_path).read_text()

    def test_update_leaves_bounds_alone(self, tmp_path):
        baselines = write_gate_fixture(tmp_path, 6.0, {"min": 5.0})
        update_baselines(baselines, tmp_path)
        assert json.loads(baselines.read_text())["demo"]["metrics"][
            "speedup"
        ] == {"min": 5.0}

    def test_repo_ratio_gates_reject_implausible_values(self):
        """Every committed overhead and engine ratio has a floor: a
        negative overhead or a non-positive speedup cannot pass."""
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent.parent
        baselines = json.loads(
            (repo / "benchmarks" / "baselines.json").read_text()
        )
        overheads = baselines["obs"]["metrics"]
        for metric in ("overhead_ratio", "tracing_overhead_ratio"):
            assert evaluate_metric(-0.01, overheads[metric])
        speedups = {
            metric: rule
            for metric, rule in baselines["engine"]["metrics"].items()
            if metric.endswith("_speedup")
        }
        assert len(speedups) == 6
        for rule in speedups.values():
            assert rule["min"] > 0
            assert evaluate_metric(0.0, rule)

    def test_repo_baselines_cover_every_trajectory(self):
        """Each committed BENCH_*.json is gated by a baseline entry."""
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent.parent
        baselines = json.loads(
            (repo / "benchmarks" / "baselines.json").read_text()
        )
        gated = {entry["source"] for entry in baselines.values()}
        present = {p.name for p in repo.glob("BENCH_*.json")}
        assert present == gated
