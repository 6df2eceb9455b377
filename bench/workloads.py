"""The three workloads: inputs made from the seed, set-up, body items and their checks.

Inputs depend only on the workload name and the seed, and are plain data so
that a run can record them.  The seed moves every spin number by about 1%
and the pulse runs' length by a few percent inside the window before the
squeezing optimum.  Schemes and cycle counts are fixed.  Odd N takes other
code paths than even N in a parity-sector engine, so every run covers both:
optimum_scan mixes them, the small-N oracle checks one of each for every
scheme, and the seed's parity sets that of the single large N of the other
two workloads (a second large N would double their set-up and memory).

Why each workload exists:

* pulse_strobe - stroboscopic pulse traces at N ~ 2000 with an explicit run
  length, so no optimum search runs.  Pulse propagation and the per-N dense
  set-up do nearly all the work; it is also the large-N memory stress.
* optimum_scan - scaling fits of the ideal references over N = 50..800 and
  the time cost at N ~ 2000.  Optimum search and xi^2 evaluation do the work
  and no pulse is applied, so a pulse-engine change should read unchanged.
* compare_fine - ``spinsqueeze compare`` through ``cli.main`` with fine(8)
  sampling at N ~ 1250: interior samples, ideal traces, one optimum scan,
  the error curve's rerun traces, config parsing and CSV output.

The library is reached only through run_trace, scaling_fit, time_cost,
compile_scheme and cli.main, always looked up on the module at call time so
that a traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

WORKLOADS = ("pulse_strobe", "optimum_scan", "compare_fine")

PRE_OPTIMUM_FACTOR = 1.5  # pulse runs end at up to 1.5x the optimum time
N_JITTER = 0.01
T_JITTER = 0.04
FINE = 8

SCALING_NS = (50, 100, 200, 400, 800)
# Exponent windows around the seed's fits (TAT -0.979, OAT -0.659).
FIT_WINDOWS = {"ideal-TAT": (-1.05, -0.90), "ideal-OAT": (-0.72, -0.60)}
FIT_MIN_R2 = 0.99
TRACE_HEADER = "t,xi2,jx,jy,jz"
ERROR_HEADER = "t,relative_error"
CSV_ERR_TOL = 1e-10  # of 1 + error: 12 printed digits bound the recomputed relative error

# Small-N oracle runs: cycles per scheme, and the N ranges for each parity.
ORACLE_CYCLES = {"liu1": 6, "schemeA": 6, "schemeB": 4, "general": 3, "ideal-TAT": 6, "ideal-OAT": 6}
ORACLE_EVEN = (8, 10, 12, 14, 16)
ORACLE_ODD = (9, 11, 13, 15)


def divisor(scheme: str, order: int = 2) -> float:
    """Period over delta_t of a pulse scheme, from the product-formula recursion.

    Each triple-jump level with k_m = 1/(2 - 2^(1/(2m-1))) multiplies the
    summed |block coefficients| by 4 k_m - 1; a second-order block lasts 3 dt.
    Computed here, not taken from the library, so that the check is independent.
    """
    if scheme in ("liu1", "schemeA"):
        return 3.0
    order = 4 if scheme == "schemeB" else order
    return 3.0 * math.prod(4.0 / (2.0 - 2.0 ** (1.0 / (2 * m - 1))) - 1.0 for m in range(2, order // 2 + 1))


def tat_time(n_spins: int) -> float:
    """ln(2N)/(2N): the two-axis twisting optimum time, within a few percent at large N."""
    return math.log(2.0 * n_spins) / (2.0 * n_spins)


def _jitter_n(rng: random.Random, base: int) -> int:
    span = max(1, round(base * N_JITTER))
    return base + rng.randint(-span, span)


def _with_both_parities(ns: list[int]) -> list[int]:
    if len({n % 2 for n in ns}) == 1:
        ns[-1] += 1 if ns[-1] % 2 == 0 else -1
    return ns


def _with_parity(n: int, seed: int) -> int:
    return n if n % 2 == seed % 2 else n + 1


def plan(workload: str, seed: int) -> dict:
    """All inputs of one run as plain data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    oracle_ns = [rng.choice(ORACLE_EVEN), rng.choice(ORACLE_ODD)]
    if workload == "pulse_strobe":
        n = _with_parity(_jitter_n(rng, 2000), seed)
        items = []
        for scheme, order, n, cycles in (
            ("schemeA", 2, n, 100),
            ("liu1", 2, n, 100),
            ("schemeB", 4, n, 25),
            ("general", 6, n, 6),
        ):
            factor = PRE_OPTIMUM_FACTOR * (1.0 - T_JITTER * rng.random())
            items.append(
                {
                    "kind": "trace",
                    "name": f"{scheme}{order if scheme == 'general' else ''}@N={n}",
                    "scheme": scheme,
                    "order": order,
                    "n_spins": n,
                    "n_cycles": cycles,
                    "t_total": factor * divisor(scheme, order) * tat_time(n),
                }
            )
        warm = [(i["scheme"], n, i["order"]) for i in items]
        return {"items": items, "warm": warm, "oracle_n": oracle_ns, "subsamples": 0}
    if workload == "optimum_scan":
        ns = _with_both_parities([_jitter_n(rng, n) for n in SCALING_NS])
        n_tc = _jitter_n(rng, 2000)
        items = [
            {"kind": "scaling", "name": "scaling ideal-TAT", "scheme": "ideal-TAT", "n_list": ns},
            {"kind": "scaling", "name": "scaling ideal-OAT", "scheme": "ideal-OAT", "n_list": ns},
            {"kind": "time_cost", "name": f"time_cost schemeA@N={n_tc}", "scheme": "schemeA", "n_spins": n_tc},
        ]
        warm = [(s, n, 2) for n in ns for s in ("ideal-TAT", "ideal-OAT")] + [("ideal-TAT", n_tc, 2)]
        return {"items": items, "warm": warm, "oracle_n": oracle_ns, "subsamples": 0}
    n = _with_parity(_jitter_n(rng, 1250), seed)
    items = [
        {"kind": "compare", "name": f"compare {scheme}@N={n}", "scheme": scheme, "order": order,
         "n_spins": n, "n_cycles": cycles}
        for scheme, order, cycles in (("schemeA", 2, 50), ("schemeB", 4, 17))
    ]
    warm = [(i["scheme"], n, i["order"]) for i in items] + [("ideal-TAT", n, 2)]
    return {"items": items, "warm": warm, "oracle_n": oracle_ns, "subsamples": FINE}


def item_schemes(item: dict) -> tuple[str, ...]:
    """Dynamics an item's output rests on; a failed oracle for one fails the item."""
    if item["kind"] == "time_cost":
        return ("ideal-TAT",)
    if item["kind"] == "compare":
        return (item["scheme"], "ideal-TAT")
    return (item["scheme"],)


def oracle_cases(p: dict) -> list[tuple[str, int, int]]:
    """(scheme, order, N) for every scheme the workload uses, at one even and one odd N."""
    schemes: dict[str, int] = {}
    for item in p["items"]:
        for scheme in item_schemes(item):
            schemes.setdefault(scheme, item.get("order", 2))
    return [(s, o, n) for s, o in schemes.items() for n in p["oracle_n"]]


# -- set-up and body -------------------------------------------------------------


def warm(lib, p: dict) -> None:
    """One-cycle run_trace per (scheme, N): builds the operators and factorizations."""
    for scheme, n, order in p["warm"]:
        spec = lib.experiments.ExperimentSpec(scheme, n, 1, tat_time(n) / 10.0, order=order)
        lib.experiments.run_trace(spec)


def run_item(lib, item: dict, workdir: Path):
    kind = item["kind"]
    if kind == "trace":
        spec = lib.experiments.ExperimentSpec(
            item["scheme"], item["n_spins"], item["n_cycles"], item["t_total"], order=item["order"]
        )
        return lib.experiments.run_trace(spec)
    if kind == "scaling":
        return lib.experiments.scaling_fit(item["scheme"], item["n_list"])
    if kind == "time_cost":
        return lib.experiments.time_cost(item["scheme"], item["n_spins"])
    out = workdir / item["scheme"]
    argv = [
        "compare", "--scheme", item["scheme"], "--n-spins", str(item["n_spins"]),
        "--n-cycles", str(item["n_cycles"]), "--sampling", f"fine({FINE})", "--out", str(out),
    ]
    code = lib.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"spinsqueeze {' '.join(argv)} exited with {code}")
    return out


# -- checks (after the timed window) -----------------------------------------------


def check_oracle(lib, p: dict, scheme: str, order: int, n: int) -> tuple[float, list[str]]:
    """Library trace at small N against the expm oracle; returns (max rel dev, problems)."""
    import checks

    k = p["subsamples"]
    cycles = ORACLE_CYCLES[scheme]
    problems = []
    d = 1.0  # strength divisor of the ideal-TAT reference
    if scheme == "ideal-OAT":
        t_total = 2.0 * n ** (-2.0 / 3.0)
        oracle = checks.oracle_trace(n, cycles, t_total, k, ideal=scheme)
    elif scheme == "ideal-TAT":
        d = divisor("schemeA")  # the reference of the two-pulse schemes, at chi/3
        t_total = PRE_OPTIMUM_FACTOR * d * tat_time(n)
        oracle = checks.oracle_trace(n, cycles, t_total, k, ideal=scheme, rate=1.0 / d)
    else:
        d = divisor(scheme, order)
        t_total = PRE_OPTIMUM_FACTOR * d * tat_time(n)
        schedule = lib.schedules.compile_scheme(scheme, t_total / cycles / d, cycles, order)
        period = schedule.t_c
        if not abs(period - t_total / cycles) <= 1e-12 * period:
            problems.append(f"{scheme}: period {period!r} != delta_t * {d!r}")
        oracle = checks.oracle_trace(n, cycles, t_total, k, segments=schedule.segments)
    spec = lib.experiments.ExperimentSpec(
        scheme, n, cycles, t_total, sampling="fine" if k else "stroboscopic", subsamples=k,
        order=order, divisor=d if scheme == "ideal-TAT" else 1.0,
    )
    trace = lib.experiments.run_trace(spec)
    dev, found = checks.compare_to_oracle(trace.times(), trace.xi2(), *oracle)
    problems += [f"{scheme} N={n}: {m}" for m in found]
    problems += [f"{scheme} N={n}: {m}" for m in _trace_invariants(trace, n)]
    return dev, problems


def _trace_invariants(trace, n: int) -> list[str]:
    import checks

    return checks.trace_problems(trace.xi2(), [s.mean_spin for s in trace.samples], n)


def check_item(lib, item: dict, output) -> tuple[list[str], dict]:
    """Problems with one item's output, and a digest of it for diffing commits."""
    import checks

    kind = item["kind"]
    if kind == "trace":
        problems = _trace_invariants(output, item["n_spins"])
        expected = item["n_cycles"] + 1
        if len(output.samples) != expected:
            problems.append(f"{len(output.samples)} samples, want {expected}")
        if not abs(output.times()[-1] - item["t_total"]) <= 1e-12 * item["t_total"]:
            problems.append(f"last sample at {output.times()[-1]!r}, want {item['t_total']!r}")
        return problems, checks.digest(output.xi2())
    if kind == "scaling":
        lo, hi = FIT_WINDOWS[item["scheme"]]
        problems = []
        if not lo <= output.exponent <= hi:
            problems.append(f"exponent {output.exponent:.4f} outside [{lo}, {hi}]")
        if not output.r_squared >= FIT_MIN_R2:
            problems.append(f"r^2 {output.r_squared:.6f} < {FIT_MIN_R2}")
        return problems, {"exponent": output.exponent, "intercept": output.intercept, "r2": output.r_squared}
    if kind == "time_cost":
        return _check_time_cost(lib, item, output), {"time_cost": output}
    return _check_compare(item, output)


def _check_time_cost(lib, item: dict, cost: float) -> list[str]:
    """The cost over the divisor is the TAT optimum: xi^2 there beats +/-5% either side."""
    n = item["n_spins"]
    t_opt = cost / divisor(item["scheme"])
    if not (math.isfinite(t_opt) and 0.9 <= t_opt / tat_time(n) <= 1.05):
        return [f"optimum time {t_opt!r} is not within [0.9, 1.05] x ln(2N)/(2N)"]
    spec = lib.experiments.ExperimentSpec("ideal-TAT", n, 21, 1.05 * t_opt)
    xi2 = lib.experiments.run_trace(spec).xi2()
    if not xi2[20] <= min(xi2[19], xi2[21]):
        return [f"xi2 at the optimum time {xi2[20]!r} exceeds a neighbour ({xi2[19]!r}, {xi2[21]!r})"]
    return []


def _read_csv(path: Path) -> tuple[str, list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def _check_compare(item: dict, out: Path) -> tuple[list[str], dict]:
    import checks
    import numpy as np

    files = {name: out / f"{name}.csv" for name in ("seq", "eff", "err")}
    missing = [str(p) for p in files.values() if not p.is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"], {}
    tables = {name: _read_csv(path) for name, path in files.items()}
    problems = []
    nc, n = item["n_cycles"], item["n_spins"]
    for name, header in (("seq", TRACE_HEADER), ("eff", TRACE_HEADER), ("err", ERROR_HEADER)):
        if tables[name][0] != header:
            problems.append(f"{name}.csv header {tables[name][0]!r}, want {header!r}")
    if problems:
        return problems, {}
    rows = {name: np.array(table[1]) for name, table in tables.items()}
    for name, want in (("seq", nc * (FINE + 1) + 1), ("eff", nc * (FINE + 1) + 1), ("err", nc + 1)):
        if len(rows[name]) != want:
            problems.append(f"{name}.csv has {len(rows[name])} rows, want {want}")
    if problems:
        return problems, {}
    for name in ("seq", "eff"):
        problems += [f"{name}.csv: {m}" for m in checks.trace_problems(rows[name][:, 1], rows[name][:, 2:], n)]
    strobe = slice(0, None, FINE + 1)
    xi_seq, xi_eff = rows["seq"][strobe, 1], rows["eff"][strobe, 1]
    if not np.allclose(rows["err"][:, 0], rows["seq"][strobe, 0], rtol=1e-11, atol=0.0):
        problems.append("err.csv times differ from the stroboscopic rows of seq.csv")
    recomputed = np.abs(xi_seq - xi_eff) / xi_eff
    worst = float(np.max(np.abs(rows["err"][:, 1] - recomputed) / (1.0 + recomputed)))
    if not worst <= CSV_ERR_TOL:
        problems.append(f"err.csv deviates from |seq - eff| / eff by {worst:.3e} of 1 + error")
    digest = checks.digest(rows["seq"][:, 1])
    digest.update({f"{name}_sha256": hashlib.sha256(p.read_bytes()).hexdigest()[:16] for name, p in files.items()})
    digest["bytes_out"] = sum(p.stat().st_size for p in files.values())
    return problems, digest
