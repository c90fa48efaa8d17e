"""CI bench-regression gate: compare BENCH_*.json against baselines.

The bench suite writes each bench's headline numbers to a
``BENCH_<name>.json`` trajectory file in the gitignored
``benchmarks/results/`` (see ``benchmarks/conftest.py``), so running
the suite never rewrites a committed file.  This tool closes the loop:
a committed ``benchmarks/baselines.json`` declares, per bench and per
metric, the envelope the freshly measured numbers must stay inside,
and CI fails the build when one escapes — so a perf or acceptance
regression cannot merge silently just because no assertion in the
bench itself tripped.

Rule vocabulary (per metric, combinable)::

    {"min": 5.0}                     # value >= 5.0  (speedups, floors)
    {"max": 0.10}                    # value <= 0.10 (overheads, costs)
    {"equal": 2.526}                 # exact match   (counts, results)
    {"equal": 2.852, "tolerance": 0.01}   # |value - 2.852| <= 0.01

``min``/``max`` express *acceptance floors and cost ceilings* — they
are deliberately looser than the current measurement so machine speed
differences don't flake the gate; ``equal`` pins *deterministic
results* (served counts, mean qualities), where any drift means the
computation itself changed and the baseline must be re-recorded on
purpose (``--update`` rewrites the pinned values from the current
trajectories, for exactly that case, and copies those trajectories to
the committed repo-root ``BENCH_*.json`` — the one re-record step).

Usage::

    PYTHONPATH=src python -m repro.tool.bench_gate
    PYTHONPATH=src python -m repro.tool.bench_gate --update
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

#: Default locations, relative to the repo root.
DEFAULT_BASELINES = Path("benchmarks") / "baselines.json"
#: Where the bench suite writes fresh trajectories.
RESULTS_DIR = Path("benchmarks") / "results"

_RULE_KEYS = {"min", "max", "equal", "tolerance"}


@dataclass(frozen=True)
class Check:
    """One (bench, metric) comparison and its verdict."""

    bench: str
    metric: str
    value: object
    rule: dict
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def evaluate_metric(value, rule: dict) -> tuple[str, ...]:
    """Apply one metric's rule; return the (possibly empty) failures."""
    unknown = set(rule) - _RULE_KEYS
    if unknown:
        raise ValueError(f"unknown rule keys: {sorted(unknown)}")
    if "tolerance" in rule and "equal" not in rule:
        raise ValueError("'tolerance' requires 'equal'")
    failures = []
    if value is None:
        return ("metric missing from trajectory",)
    if "min" in rule and not value >= rule["min"]:
        failures.append(f"{value} < min {rule['min']}")
    if "max" in rule and not value <= rule["max"]:
        failures.append(f"{value} > max {rule['max']}")
    if "equal" in rule:
        expected = rule["equal"]
        tolerance = rule.get("tolerance", 0)
        if isinstance(expected, (int, float)) and not isinstance(expected, bool):
            if not abs(value - expected) <= tolerance:
                failures.append(
                    f"{value} != {expected} (tolerance {tolerance})"
                )
        elif value != expected:
            failures.append(f"{value!r} != {expected!r}")
    return tuple(failures)


def run_gate(baselines_path: Path, root: Path) -> list[Check]:
    """Evaluate every baseline rule against the fresh trajectories in
    ``root / RESULTS_DIR``."""
    with open(baselines_path) as handle:
        baselines = json.load(handle)
    checks: list[Check] = []
    for bench, entry in sorted(baselines.items()):
        source = root / RESULTS_DIR / entry["source"]
        if not source.exists():
            checks.append(
                Check(
                    bench,
                    "<file>",
                    None,
                    {},
                    (
                        f"{RESULTS_DIR / entry['source']} not found — "
                        "did the bench run?",
                    ),
                )
            )
            continue
        with open(source) as handle:
            trajectory = json.load(handle)
        for metric, rule in sorted(entry["metrics"].items()):
            value = trajectory.get(metric)
            checks.append(
                Check(bench, metric, value, rule, evaluate_metric(value, rule))
            )
    return checks


def update_baselines(baselines_path: Path, root: Path) -> int:
    """Re-pin every ``equal`` rule from the fresh trajectories and copy
    each one to its committed ``root / source``."""
    with open(baselines_path) as handle:
        baselines = json.load(handle)
    updated = 0
    for entry in baselines.values():
        source = root / RESULTS_DIR / entry["source"]
        if not source.exists():
            continue
        shutil.copyfile(source, root / entry["source"])
        with open(source) as handle:
            trajectory = json.load(handle)
        for metric, rule in entry["metrics"].items():
            if "equal" in rule and metric in trajectory:
                if rule["equal"] != trajectory[metric]:
                    rule["equal"] = trajectory[metric]
                    updated += 1
    with open(baselines_path, "w") as handle:
        json.dump(baselines, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return updated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tool.bench_gate",
        description="Fail when a BENCH_*.json trajectory leaves its baseline envelope.",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=None,
        help=f"baseline rules file (default {DEFAULT_BASELINES})",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        help=f"repo root ({RESULTS_DIR} holds the fresh trajectories)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-pin the 'equal' baselines from the fresh trajectories "
        "and copy those to the committed repo-root BENCH_*.json",
    )
    args = parser.parse_args(argv)
    baselines = args.baselines
    if baselines is None:
        baselines = args.root / DEFAULT_BASELINES
    if args.update:
        updated = update_baselines(baselines, args.root)
        print(f"bench-gate: re-pinned {updated} baseline value(s)")
        return 0
    checks = run_gate(baselines, args.root)
    failed = [c for c in checks if not c.ok]
    for check in checks:
        status = "FAIL" if check.failures else "ok"
        detail = "; ".join(check.failures) if check.failures else check.value
        print(f"[{status}] {check.bench}.{check.metric}: {detail}")
    if failed:
        print(
            f"bench-gate: {len(failed)} of {len(checks)} checks failed",
            file=sys.stderr,
        )
        return 1
    print(f"bench-gate: all {len(checks)} checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
