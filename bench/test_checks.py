"""The benchmark's checker rejects corrupted outputs and counts them as failed.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

N = 12
ITEM = {
    "kind": "trace",
    "name": "schemeA@N=12",
    "scheme": "schemeA",
    "order": 2,
    "n_spins": N,
    "n_cycles": 6,
    "t_total": 1.5 * workloads.divisor("schemeA") * workloads.tat_time(N),
}
PLAN = {"items": [ITEM], "oracle_n": [12, 13], "subsamples": 0}


@pytest.fixture(scope="module")
def lib():
    return worker.load_library(trace=False)[0]


@pytest.fixture(scope="module")
def trace(lib):
    return workloads.run_item(lib, ITEM, HERE)


def corrupt(trace, index, xi2=None, mean_spin=None):
    samples = list(trace.samples)
    changes = {k: v for k, v in (("xi2", xi2), ("mean_spin", mean_spin)) if v is not None}
    samples[index] = dataclasses.replace(samples[index], **changes)
    return dataclasses.replace(trace, samples=tuple(samples))


def problems_of(trace):
    oracle = checks.oracle_trace(
        N, ITEM["n_cycles"], ITEM["t_total"], 0, segments=schedule_segments()
    )
    invariants = checks.trace_problems(trace.xi2(), [s.mean_spin for s in trace.samples], N)
    return invariants + checks.compare_to_oracle(trace.times(), trace.xi2(), *oracle)[1]


def schedule_segments():
    from spinsqueeze.schedules import compile_scheme

    d = workloads.divisor("schemeA")
    return compile_scheme("schemeA", ITEM["t_total"] / ITEM["n_cycles"] / d, ITEM["n_cycles"]).segments


def test_clean_trace_passes(lib, trace):
    assert problems_of(trace) == []
    result = worker.check(lib, PLAN, {ITEM["name"]: trace}, {})
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert result["xi2_max_rel_dev"] < checks.ORACLE_REL_TOL


@pytest.mark.parametrize(
    "index, xi2, mean_spin",
    [
        (0, 1.0 + 1e-9, None),  # coherent start must read exactly 1
        (3, math.nan, None),
        (3, -1e-3, None),
        (2, None, "long"),  # |<J>| above J
    ],
)
def test_corrupted_trace_is_rejected_and_counted(lib, trace, index, xi2, mean_spin):
    if mean_spin == "long":
        mean_spin = np.array([0.0, 0.0, N / 2.0 * (1.0 + 1e-9)])
    bad = corrupt(trace, index, xi2=xi2, mean_spin=mean_spin)
    assert problems_of(bad)
    result = worker.check(lib, PLAN, {ITEM["name"]: bad}, {})
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert ITEM["name"] in result["problems"]


def test_item_that_raised_is_counted(lib):
    result = worker.check(lib, PLAN, {}, {ITEM["name"]: "Traceback\nValueError: boom"})
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_trace_off_the_oracle_is_rejected(trace):
    bad = corrupt(trace, 4, xi2=trace.samples[4].xi2 * (1.0 + 1e-6))
    assert checks.trace_problems(bad.xi2(), [s.mean_spin for s in bad.samples], N) == []
    assert any("expm oracle" in p for p in problems_of(bad))


def test_oracle_failure_fails_the_items_of_that_scheme(lib, trace, monkeypatch):
    monkeypatch.setattr(workloads, "check_oracle", lambda *a: (1.0, ["xi2 deviates"]))
    result = worker.check(lib, PLAN, {ITEM["name"]: trace}, {})
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_corrupted_compare_output_is_rejected(lib, tmp_path):
    item = {"kind": "compare", "name": "compare", "scheme": "schemeA", "order": 2, "n_spins": N, "n_cycles": 4}
    out = workloads.run_item(lib, item, tmp_path)
    assert workloads.check_item(lib, item, out)[0] == []
    err = out / "err.csv"
    lines = err.read_text().splitlines()
    t, value = lines[2].split(",")
    err.write_text("\n".join(lines[:2] + [f"{t},{float(value) * 1.001!r}"] + lines[3:]) + "\n")
    assert any("err.csv deviates" in p for p in workloads.check_item(lib, item, out)[0])
    err.write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in workloads.check_item(lib, item, out)[0])
    (out / "seq.csv").unlink()
    assert any("missing" in p for p in workloads.check_item(lib, item, out)[0])
