"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload live-sla --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --describe

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric of a separate traced run; ``--workload all`` runs both
for every workload.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The command
exits non-zero when a correctness check fails or the measurement is
invalid.  Logs and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
# one thread of load: keep numpy's native pools single-threaded too
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import LAYER_MAP, OUT_DIR, WORKLOADS  # noqa: E402

#: Cold-start subprocesses per ``--trace 0`` run (``setup_s`` and
#: ``peak_rss_mb`` are their medians).
SETUPS = 3
WORKER_TIMEOUT_S = 170


def _document(args) -> dict:
    size = json.loads(args.size) if args.size else None
    return WORKLOADS[args.workload].build(args.seed, OUT_DIR, size)


def _report(correct, attempted, failed, metrics, units, problems) -> int:
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
        print(f"  FAILED: {problem}")
    width = max((len(name) for name in metrics), default=0)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _setup_worker(args) -> int:
    """A fresh interpreter: import, then a cold and a warm serve."""
    started = process_time()
    from perfbench import measure

    print(json.dumps(measure.cold_start(_document(args), started)))
    return 0


def _cold_start(args, runs: list[dict], problems: list[str]) -> None:
    """One cold-start worker; its result lands in ``runs``."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker", "setup",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.size:
        command += ["--size", args.size]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        problems.append("cold-start worker timed out")
        return
    if done.returncode != 0:
        problems.append(f"cold-start worker failed:\n{done.stderr[-2000:]}")
        return
    runs.append(json.loads(done.stdout.strip().splitlines()[-1]))


def _end_to_end(args) -> int:
    from perfbench import measure

    setups, problems = [], []
    workload = WORKLOADS[args.workload]
    try:
        m = measure.measure(
            _document(args), workload.other_engine, args.seconds,
            interludes=[lambda: _cold_start(args, setups, problems)] * SETUPS,
        )
    except measure.CheckFailed as error:
        return _report(False, 1, 1, {}, {}, [str(error)])
    problems += m["problems"]
    failed = m["failed"] + SETUPS - len(setups)
    for run in setups:
        if any(f != m["expected"] for f in run["fingerprints"]):
            failed += 1
            problems.append("a cold-start serve differs from the checked run")
    metrics = {}
    segments = measure.segment_times(m["gaps"]) if m["gaps"] else []
    rounds = len(segments) - 2
    if setups:
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in setups)
    if segments:
        metrics["frames_per_s"] = m["frames"] / (sum(segments) / 1e3)
    if rounds >= 2:
        p50, p95 = measure.stream_round_quantiles(segments, m["streams"])
        metrics["stream_round_p50_us"], metrics["stream_round_p95_us"] = p50, p95
    if setups:
        metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in setups)
    metrics.update(m["sim"])
    if metrics.get("setup_s", 0.0) <= 0:
        problems.append("invalid measurement: setup_s is not positive")
    units = {name: unit for name, unit, _, _ in END_TO_END}
    missing = [name for name in units if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    print(
        f"{args.workload} seed={args.seed}: {m['attempted']} timed serves, "
        f"{rounds} rounds each timed as the fastest of its repeats, "
        f"{len(setups)} cold starts"
    )
    return _report(
        not problems and not failed,
        m["attempted"] + SETUPS,
        failed,
        metrics,
        units,
        problems,
    )


def _per_layer(args) -> int:
    from perfbench import measure

    workload = WORKLOADS[args.workload]
    spans_path = ROOT / OUT_DIR / f"{args.workload}.spans.jsonl"
    try:
        t = measure.traced(
            _document(args), workload.other_engine, args.seconds, spans_path
        )
    except measure.CheckFailed as error:
        return _report(False, 1, 1, {}, {}, [str(error)])
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: t["layer"][name] for name in units}
    print(
        f"{args.workload} seed={args.seed}: traced per-layer breakdown "
        f"(seconds are self time per warm serve; spans in {spans_path.name})"
    )
    return _report(
        not t["problems"] and not t["failed"],
        t["attempted"],
        t["failed"],
        metrics,
        units,
        t["problems"],
    )


def _all(args) -> int:
    """Every workload, end to end then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(done.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                correct = False
                failed += 1
                continue
            correct = correct and result["correct"] and done.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                metrics[f"{name}.{metric}"] = entry
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _describe() -> int:
    print(json.dumps({
        "workloads": {
            name: {
                "why": w.why,
                "seed": "the --seed argument, passed as the scenario's seed kwarg",
                "spec": w.build(1),
                "check_engine": w.other_engine,
            }
            for name, w in WORKLOADS.items()
        },
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
        "layer_map": LAYER_MAP,
    }, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--size", help=argparse.SUPPRESS)
    parser.add_argument("--worker", choices=("setup",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.describe:
        return _describe()
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    (ROOT / OUT_DIR).mkdir(parents=True, exist_ok=True)
    if args.worker == "setup":
        return _setup_worker(args)
    if args.workload == "all":
        return _all(args)
    return _per_layer(args) if args.trace else _end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
