"""One cold repetition of a workload, in a fresh process.

Phases: set-up (import the package, then a one-cycle run_trace per scheme and
N the workload uses), body (the timed items) and checks (after the timed
window).  Writes a JSON result to --result.  With --trace 1 every public
package function is wrapped in a span recorder first (see tracing.py).

    python3 bench/worker.py --workload pulse_strobe --seed 1 --trace 0 --result r.json
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with two threads on a shared
# two-core machine the run-to-run spread roughly tripled.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def load_library(trace: bool):
    """Import the package from the checkout's src/; returns (lib, tracer or None)."""
    sys.path.insert(0, str(ROOT / "src"))
    import spinsqueeze.cli as cli
    import spinsqueeze.experiments as experiments
    import spinsqueeze.schedules as schedules

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin("setup")
    lib = SimpleNamespace(experiments=experiments, schedules=schedules, cli=cli)
    return lib, tracer


def blas_info() -> dict:
    """Library versions and the thread count the loaded OpenBLAS reports."""
    import ctypes

    import numpy as np
    import scipy

    blas = (np.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    threads = None
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # already loaded: dlopen returns the same instance
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run(workload: str, seed: int, trace: bool) -> dict:
    p = workloads.plan(workload, seed)
    t0 = time.perf_counter()
    lib, tracer = load_library(trace)
    workloads.warm(lib, p)
    t1 = time.perf_counter()
    if tracer:
        tracer.end()
        tracer.begin("body")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    outputs, errors = {}, {}
    t2 = time.perf_counter()
    for item in p["items"]:
        try:
            outputs[item["name"]] = workloads.run_item(lib, item, workdir)
        except Exception:  # noqa: BLE001 - a failed item is counted, the run goes on
            errors[item["name"]] = traceback.format_exc(limit=3)
    t3 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.end()
        tracer.begin("check")

    try:
        result = check(lib, p, outputs, errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        setup_s=t1 - t0,
        wall_s=t3 - t2,
        peak_rss_mb=peak_rss_mb,
        env=blas_info(),
    )
    if tracer:
        tracer.end()
        result["trace"] = layer_report(tracer, result)
        tracer.dump(out_dir / f"spans-{workload}-seed{seed}.csv.gz")
    return result


def check(lib, p: dict, outputs: dict, errors: dict) -> dict:
    """Oracle and output checks; an item fails if it raised or any check on it failed."""
    problems = {name: [f"raised: {tb.strip().splitlines()[-1]}"] for name, tb in errors.items()}
    oracle_problems, max_dev = {}, 0.0
    for scheme, order, n in workloads.oracle_cases(p):
        try:
            dev, found = workloads.check_oracle(lib, p, scheme, order, n)
        except Exception as exc:  # noqa: BLE001 - a raising check is a failed check
            dev, found = float("inf"), [f"{scheme} N={n}: oracle check raised {exc!r}"]
        max_dev = max(max_dev, dev)
        if found:
            oracle_problems.setdefault(scheme, []).extend(found)
    digests = {}
    for item in p["items"]:
        name = item["name"]
        for scheme in workloads.item_schemes(item):
            problems.setdefault(name, []).extend(oracle_problems.get(scheme, []))
        if name in outputs:
            try:
                found, digests[name] = workloads.check_item(lib, item, outputs[name])
            except Exception as exc:  # noqa: BLE001
                found = [f"check raised {exc!r}"]
            problems[name].extend(found)
    failed = sorted(name for name, found in problems.items() if found)
    return {
        "attempted": len(p["items"]),
        "failed": len(failed),
        "problems": {name: problems[name] for name in failed},
        "errors": errors,
        "digests": digests,
        "xi2_max_rel_dev": max_dev,
        "bytes_out": sum(d.get("bytes_out", 0) for d in digests.values()),
    }


def layer_report(tracer, result: dict) -> dict:
    """Per-layer metrics of one traced repetition, plus span accounting per phase."""
    from tracing import CACHED_LAYERS, LAYERS

    times = tracer.self_times()
    calls = tracer.layer_calls()
    body_cache = tracer.cache_deltas("body")
    pulses = tracer.pulses["body"]
    spans = tracer.span_counts("body")
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.setup_s"] = (times.get(("setup", layer), 0.0), "s")
        metrics[f"{layer}.body_s"] = (times.get(("body", layer), 0.0), "s")
        metrics[f"{layer}.calls"] = (calls.get(("body", layer), 0), "count")
    for layer in CACHED_LAYERS:
        cache = body_cache.get(layer, {"hits": 0, "misses": 0})
        metrics[f"{layer}.cache_hits"] = (cache["hits"], "count")
        metrics[f"{layer}.cache_misses"] = (cache["misses"], "count")
        metrics[f"{layer}.cached_mb"] = (tracer.cached_bytes.get(layer, 0) / 2**20, "MB")
    propagate_s = times.get(("body", "propagate"), 0.0)
    squeezing_s = times.get(("body", "squeezing"), 0.0)
    squeezing_calls = calls.get(("body", "squeezing"), 0)
    metrics["schedules.pulses"] = (pulses, "count")
    metrics["propagate.ms_per_pulse"] = (1e3 * propagate_s / pulses if pulses else 0.0, "ms")
    metrics["squeezing.us_per_call"] = (1e6 * squeezing_s / squeezing_calls if squeezing_calls else 0.0, "us")
    metrics["experiments.traces"] = (spans.get("experiments.run_trace", 0), "count")
    metrics["experiments.optimum_scans"] = (
        tracer.function_misses("body", ("experiments.tat_optimum", "experiments.oat_optimum")),
        "count",
    )
    metrics["cli.bytes_out"] = (result["bytes_out"], "B")
    metrics["trace.harness_s"] = (times.get(("body", "harness"), 0.0), "s")
    metrics["check.xi2_max_rel_dev"] = (result["xi2_max_rel_dev"], "fraction")
    accounting = {phase: tracer.accounting(phase) for phase in ("setup", "body")}
    return {
        "metrics": metrics,
        "accounting": accounting,
        "cache": {phase: tracer.cache_deltas(phase) for phase in ("setup", "body")},
        "cached_mb_is": "computed: nbytes of arrays returned on cache misses, not measured RSS",
        "spans_body": spans,
        "span_total": len(tracer.names),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, bool(args.trace))
    Path(args.result).write_text(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
