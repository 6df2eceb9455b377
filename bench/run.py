#!/usr/bin/env python3
"""spinsqueeze benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload pulse_strobe --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh process (bench/worker.py), so set-up is paid
cold as on every CLI call.  Repetitions run one at a time (closed loop,
single process, BLAS pinned to one thread) until --seconds have passed, and
at least MIN_REPS times.  --trace 0 prints the medians of wall_s, setup_s
and peak_rss_mb; --trace 1 runs one traced repetition for the per-layer
split, then untraced ones to measure the tracing overhead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; a
readable summary goes to stderr and the full record, with the environment
and per-item digests, to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_REPS = 3
MIN_REPS_TRACED = 1  # untraced repetitions next to the traced one
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def repetition(workload: str, seed: int, traced: bool, index: int, deadline: float) -> dict:
    result_path = ROOT / ".bench_out" / f"rep-{workload}-seed{seed}-{os.getpid()}-{index}.json"
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--result", str(result_path)]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"repetition {index} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"repetition {index} failed with exit code {proc.returncode}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "spinsqueeze" / "__init__.py").is_file():
        print(f"error: no spinsqueeze package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_out").mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    traced = None
    if args.trace:
        traced = repetition(args.workload, args.seed, True, 0, deadline)
    reps = []
    minimum = MIN_REPS_TRACED if args.trace else MIN_REPS
    while len(reps) < minimum or time.monotonic() - start < args.seconds:
        reps.append(repetition(args.workload, args.seed, False, len(reps) + 1, deadline))

    every = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    wall = statistics.median(r["wall_s"] for r in reps)
    if traced:
        layer = traced["trace"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer["metrics"].items()}
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
        attempted += 1
        if not all(a["ok"] for a in layer["accounting"].values()):
            failed += 1
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in reps), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps), "unit": "MB"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workloads.plan(args.workload, args.seed),
        "repetitions": len(reps),
        "error_rate": failed / attempted,
        "metrics": metrics,
        "env": {
            **reps[0]["env"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_env": {var: "1" for var in THREAD_VARS},
            "git_sha": git_sha(),
            "src_lines": src_lines(),
        },
        "runs": [{k: v for k, v in r.items() if k != "env"} for r in every],
    }
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float))

    for r in every:
        for name, found in r["problems"].items():
            print(f"FAILED {name}: {'; '.join(found)}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} repetitions={len(reps)} "
          f"attempted={attempted} failed={failed} error_rate={failed / attempted:g}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  record: {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
