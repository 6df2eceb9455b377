"""Run squeezing experiments: pulse-driven traces, ideal references, sweeps and fits.

Every trace samples one grid, `_sample_times`: t = 0, then per period of
t_total / n_cycles its interior instants (fine(k) only) and its end.
`validate_spec` refuses a run whose samples (SAMPLE_BYTES each) and tables
the memory cannot hold: a pulse trace's pair eigenvectors (4 h^2 bytes,
`propagate.pair_store_bytes`) and a complex phase row of h = N//2 + 1 per
distinct step duration of the period a spec compiles once and holds for
its run (`ExperimentSpec.schedule`) and per interior sample.
Pulse schemes run on the even-index Dicke sector (see `propagate`): each
period is the schedule's steps, free z^2 twisting or a pulse pair
(a+, tau, a-), and every step is phases in its own basis, Dicke or pair.
A step's samples are the rows `phases * c` of the state's coefficients c
in that basis, measured SAMPLE_BLOCK_ENTRIES phases at a time by the one
kernel `squeezing.sector_moments` with that basis's bands (pairs about x
and y share V's); its end is `phase * c`, mapped back to the Dicke basis,
where t = 0 and each period end are one-row blocks.  Samples fork off the
main line, so a fine run applies exactly the operations of a stroboscopic
one, and the kernel's per-row bits do not depend on the block, so its
period-boundary samples are a stroboscopic run's, bit for bit.  The kernel
only writes each sample's <J_z> and smallest transverse variance into
per-trace arrays; one tail per trace turns them into xi^2
(`squeezing.sector_xi2`) and mean spins.  A sample inside a pair has the
mean spin (0, 0, <J_z>) in the frame of the opening +pi/2 pulse, so it
reads (<J_z>, 0, 0) inside a y pair and (0, -<J_z>, 0) inside an x pair,
exactly.  No sample builds a full (N+1)-dimensional state.  At every
period boundary the state norm is checked against `tolerances.NORM_DRIFT`;
an earlier sample whose mean spin vanished is reported first.  Ideal xy
twisting (the ideal-TAT trace, `tat_optimum`) runs on the same sector, on
`twist_window`, as real rows whose xi^2 and <J_z> `squeezing.twist_xi2`
takes from the same sum of squares on real numbers; the scan and the trace
share one loop (`_tat_scan`) that builds and measures them
SCAN_CHUNK_COLUMNS times at a time in one state buffer.  Ideal z^2
twisting (the ideal-OAT trace, `oat_optimum`) evolves no state: it is the
closed form `squeezing.oat_moments`.  Both optima zoom in on their minimum
in four batched calls of one xi^2 kernel (`_scan_minimize`).  The pulse
schemes are `schedules.SCHEME_ORDERS`.  Each run parameter's rule, its type
included, is stated once, in `check_field`; `validate_spec` applies it to
every spec and refuses an order the scheme would not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import tolerances
from .propagate import (
    dicke_bands,
    pair_amplitudes,
    pair_bands,
    pair_coefficients,
    pair_store_bytes,
    step_phases,
    twist_window,
)
from .schedules import MAX_ORDER, SCHEME_ORDERS, Schedule, Step, compile_scheme, delta_t_for, strength_divisor
from .spin_ops import NumericalConsistencyError, build_operators, even_sector_dim, memory_limit_bytes
from .squeezing import (
    MEAN_SPIN_EPS_FACTOR,
    MeanSpinVanishing,
    Optimum,
    SqueezingSample,
    SqueezingTrace,
    find_optimum,
    oat_moments,
    sector_moments,
    sector_xi2,
    twist_xi2,
)

IDEAL_SCHEMES = ("ideal-TAT", "ideal-OAT")

# Claims about the pulse schemes concern the window before the squeezing
# optimum; runs default to 1.5x the time needed to reach it.
PRE_OPTIMUM_FACTOR = 1.5

# Times per zoom level of the optimum search (four levels reach 1e-6 of the
# window) and per TAT batch, whose window x 64 real state buffer a scan reuses.
# The ideal-TAT trace runs the scan's loop, so a change of the zoom's width also
# changes the trace's batches (its samples move within 1e-13 relative).
SCAN_CHUNK_COLUMNS = 64
# Phase-table entries per moment-kernel call, at least one row: a step's samples
# are measured in blocks, so the kernel's temporaries stay under 4 MB.
SAMPLE_BLOCK_ENTRIES = 2**16
# Peak bytes per sample of a trace and its CSV text: 490-491 B measured with
# tracemalloc over 10^5-sample ideal-OAT, ideal-TAT, liu1 and schemeA runs.
SAMPLE_BYTES = 496


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative, fully deterministic description of one run."""

    scheme: str
    n_spins: int
    n_cycles: int
    t_total: float
    sampling: str = "stroboscopic"  # "stroboscopic" | "fine"
    subsamples: int = 0  # interior samples per period: k for fine(k), 0 stroboscopically
    order: int = 2  # product-formula order: any even one for "general", 2 or its own for a named scheme, else 2
    divisor: float = 1.0  # strength divisor for ideal-TAT references; other schemes take 1.0

    @cached_property
    def schedule(self) -> Schedule:
        """A pulse run's compiled period, built on first use and held by this spec; a replaced spec compiles afresh."""
        delta_t = delta_t_for(self.scheme, self.t_total, self.n_cycles, self.order)
        return compile_scheme(self.scheme, delta_t, int(self.n_cycles), self.order)  # compile_scheme takes Python ints


def check_field(key: str, value):
    """`value` if it obeys the rule of ExperimentSpec field `key`, else a ValueError naming the field.

    The one statement of each rule, for library specs, documents and CLI flags alike.
    """
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if key in ("n_spins", "n_cycles", "order", "subsamples") and not integer:
        ok, rule = False, "be an integer"
    elif key == "scheme":
        ok, rule = value in (*SCHEME_ORDERS, *IDEAL_SCHEMES), f"be one of {(*SCHEME_ORDERS, *IDEAL_SCHEMES)}"
    elif key in ("n_spins", "n_cycles"):
        ok, rule = value >= 1, "be >= 1"
    elif key == "subsamples":
        ok, rule = value >= 0, "be >= 0"
    elif key == "order":
        ok, rule = 2 <= value <= MAX_ORDER and value % 2 == 0, f"be an even integer from 2 to {MAX_ORDER}"
    else:  # t_total, divisor
        ok, rule = value > 0 and math.isfinite(value), "be finite and positive"
    if not ok:
        raise ValueError(f"field '{key}' must {rule}, got {value!r}")
    return value


def validate_spec(spec: ExperimentSpec) -> None:
    """ValueError unless `spec` obeys every rule and fits in memory; a pulse run compiles its schedule to count."""
    for key in ("scheme", "n_spins", "n_cycles", "t_total", "order", "divisor", "subsamples"):
        check_field(key, getattr(spec, key))
    if spec.sampling not in ("stroboscopic", "fine"):
        raise ValueError(f"sampling must be 'stroboscopic' or 'fine', got {spec.sampling!r}")
    if spec.sampling == "fine" and spec.subsamples < 1:
        raise ValueError("fine sampling needs subsamples >= 1")
    if spec.sampling == "stroboscopic" and spec.subsamples != 0:
        raise ValueError(f"stroboscopic sampling takes subsamples = 0, got {spec.subsamples!r}")
    if spec.divisor != 1.0 and spec.scheme != "ideal-TAT":  # it scales ideal-TAT references only
        raise ValueError(f"field 'divisor' must be 1.0 for scheme {spec.scheme!r}, got {spec.divisor!r}")
    if spec.order != 2 and spec.scheme in IDEAL_SCHEMES:  # ideal twisting runs no product formula
        raise ValueError(f"field 'order' must be 2 for scheme {spec.scheme!r}, got {spec.order!r}")
    samples = spec.n_cycles * (spec.subsamples + 1) + 1
    tables = 0  # a pulse trace's phase rows, complex of h = N//2 + 1, and its pair eigenvectors' half-size store
    if spec.scheme in SCHEME_ORDERS:
        durations = len(set(map(_phase_key, spec.schedule.steps)))
        tables = (durations + spec.subsamples) * even_sector_dim(spec.n_spins) * 16 + pair_store_bytes(spec.n_spins)
    limit = memory_limit_bytes()
    if samples * SAMPLE_BYTES + tables > limit:
        raise ValueError(
            f"{samples} samples need {samples * SAMPLE_BYTES / 2**30:.1f} GiB and their tables "
            f"{tables / 2**30:.1f} GiB, more than the {limit / 2**30:.1f} GiB of memory available"
        )


def _phase_key(step: Step) -> tuple[bool, float]:
    """What a step's end phases depend on: its basis (pairs about x and y share V's) and its duration."""
    return bool(step.axis), step.duration


def effective_counterpart(spec: ExperimentSpec) -> ExperimentSpec:
    """Ideal twisting reference sharing the sequence run's time axis; ideal twisting reads no order."""
    d = 1.0 if spec.scheme == "ideal-TAT" else strength_divisor(spec.scheme, spec.order)
    return replace(spec, scheme="ideal-TAT", divisor=d, order=2)


def _sample_times(spec: ExperimentSpec) -> list[float]:
    """Every sample instant of a trace: 0, then each period's interior instants and its end.

    The period is t_total / n_cycles; fine(k) spaces k instants evenly inside it.
    """
    period = spec.t_total / spec.n_cycles
    k = spec.subsamples
    times = [0.0]
    for cycle in range(spec.n_cycles):
        t0 = cycle * period
        times.extend(t0 + j * period / (k + 1) for j in range(1, k + 1))
        times.append((cycle + 1) * period)
    return times


def _itinerary(steps: tuple[Step, ...], offsets: list[float], period: float) -> list[tuple[Step, list[float]]]:
    """Each step with the times into it of the interior sample offsets it contains.

    Offsets on a step boundary are taken at the end of the earlier step, i.e.
    before any pulse at the same instant; float slop past the period's end
    lands at the end of the last step.
    """
    tol = 1e-12 * max(period, 1.0)
    out = []
    start = 0.0
    at = 0  # the first offset not yet placed
    for i, step in enumerate(steps):
        last = i == len(steps) - 1
        partials = []
        while at < len(offsets) and (last or offsets[at] <= start + step.duration + tol):
            partials.append(min(max(offsets[at] - start, 0.0), step.duration))
            at += 1
        out.append((step, partials))
        start += step.duration
    return out


def _samples(stamps, xi2, mean, j: float) -> list[SqueezingSample]:
    """Samples from per-sample tail output and one (t, index) stamp per sample.

    The first +inf xi^2 in stamp order raises MeanSpinVanishing naming its sample.
    """
    samples = []
    for (t, index), x, mu in zip(stamps, xi2, mean):
        if math.isinf(x):
            raise MeanSpinVanishing(
                f"sample {index} at t={t:.6g}: |<J>| = {np.linalg.norm(mu):.3e} <= "
                f"{MEAN_SPIN_EPS_FACTOR * j:.3e}; transverse plane undefined"
            )
        samples.append(SqueezingSample(t, float(x), mu))
    return samples


def _pulse_samples(spec: ExperimentSpec) -> list[SqueezingSample]:
    """Main-line propagation of the spec's `ExperimentSpec.schedule` into per-sample moments, measured by one tail.

    Every step is measured and applied alike, through the state's
    coefficients in the step's basis (the state itself for free twisting).
    """
    n = spec.n_spins
    j = n / 2
    times = _sample_times(spec)
    per = (len(times) - 1) // spec.n_cycles  # samples per period; times[1:per] are its interior offsets
    itinerary = _itinerary(spec.schedule.steps, times[1:per], times[per])

    keyed = {_phase_key(step): step for step in spec.schedule.steps}  # one end row per distinct duration of each basis
    ends = {key: step_phases(n, step.axis, [step.duration])[0] for key, step in keyed.items()}
    bands = {False: dicke_bands(n), True: pair_bands(n)}  # by bool(axis): pairs about x and y share V's
    legs = [  # (step, end phases, interior phases or none)
        (step, ends[_phase_key(step)], step_phases(n, step.axis, partials) if partials else ())
        for step, partials in itinerary
    ]

    moments = (np.empty(len(times)), np.empty(len(times)))  # <J_z>, lambda_min
    axis_of = np.full(len(times), "")  # the axis of the pair a sample is inside, or ""
    block_rows = max(1, SAMPLE_BLOCK_ENTRIES // even_sector_dim(n))

    def measure(first: int, rows: np.ndarray, axis: str) -> int:
        """Samples first, first + 1, ... from `rows`, coefficients in the basis of a step about `axis`.

        Returns the index after the last."""
        at = slice(first, first + len(rows))
        for out, value in zip(moments, sector_moments(rows, bands[bool(axis)])):
            out[at] = value
        axis_of[at] = axis
        return at.stop

    def measured(count: int) -> list[SqueezingSample]:
        """The first `count` samples, the mean spin of those inside a pair back from its opening pulse's frame."""
        jz, lam_min = (m[:count] for m in moments)
        mean = np.zeros((count, 3))
        for axis, component, sign in (("", 2, 1.0), ("y", 0, 1.0), ("x", 1, -1.0)):
            inside = axis_of[:count] == axis
            mean[inside, component] = sign * jz[inside]
        return _samples(zip(times, range(count)), sector_xi2(jz, lam_min, j), mean, j)

    psi = np.zeros(even_sector_dim(n), dtype=complex)
    psi[0] = 1.0  # |J,J>
    index = measure(0, psi[None], "")
    for _ in range(spec.n_cycles):
        for step, end, inner in legs:
            coeffs = pair_coefficients(n, step.axis, psi) if step.axis else psi
            for lo in range(0, len(inner), block_rows):
                index = measure(index, coeffs * inner[lo : lo + block_rows], step.axis)
            # numpy's complex product (FMA) is not commutative to the bit: a swap would move every later sample
            psi = pair_amplitudes(n, step.axis, end * coeffs) if step.axis else coeffs * end
        drift = abs(float(np.linalg.norm(psi)) - 1.0)
        if not drift <= tolerances.NORM_DRIFT:
            measured(index)  # an earlier sample's vanishing mean spin is reported first
            raise NumericalConsistencyError(
                f"sample {index} at t={times[index]:.6g}: state norm drifted by {drift:.3e} "
                f"(tolerance {tolerances.NORM_DRIFT:.0e})"
            )
        index = measure(index, psi[None], "")
    return measured(len(times))


def _ideal_samples(spec: ExperimentSpec) -> list[SqueezingSample]:
    """Closed-form z^2 twisting, or xy twisting at rate 1 / divisor through the TAT scan's loop."""
    times = _sample_times(spec)
    ts = np.array(times)
    if spec.scheme == "ideal-OAT":
        m = oat_moments(spec.n_spins, ts)
        xi2, mean = m.xi2, np.column_stack([m.mean_x, np.zeros((ts.size, 2))])
    else:
        xi2, jz = _tat_scan(spec.n_spins, 1.0 / spec.divisor)(ts)
        mean = np.column_stack([np.zeros((ts.size, 2)), jz])
    return _samples(zip(times, range(ts.size)), xi2, mean, spec.n_spins / 2)


def run_trace(spec: ExperimentSpec) -> SqueezingTrace:
    """Deterministic squeezing trace for one experiment description, validated first."""
    validate_spec(spec)
    samples = _pulse_samples(spec) if spec.scheme in SCHEME_ORDERS else _ideal_samples(spec)
    return SqueezingTrace(tuple(samples), spec.n_spins, spec.n_cycles)


def strobe_indices(trace: SqueezingTrace) -> np.ndarray:
    """Indices of the period-boundary samples, skipping any interior samples."""
    step = (len(trace.samples) - 1) // trace.n_cycles
    return np.arange(0, len(trace.samples), step)


@dataclass(frozen=True)
class ErrorCurve:
    times: np.ndarray
    relative_errors: np.ndarray


def relative_error_curve(trace_seq: SqueezingTrace, trace_eff: SqueezingTrace) -> ErrorCurve:
    """Pointwise |xi2_seq - xi2_eff| / xi2_eff at the shared stroboscopic instants.

    Takes traces that were already run, so callers that also write them out
    run each one once.  Traces of different spin number, cycle count or
    stroboscopic instants are a grid mismatch.
    """
    for field in ("n_spins", "n_cycles"):
        seq, eff = getattr(trace_seq, field), getattr(trace_eff, field)
        if seq != eff:
            raise ValueError(f"grid mismatch: {field} differs ({seq} vs {eff})")
    t_seq = trace_seq.times()[strobe_indices(trace_seq)]
    t_eff = trace_eff.times()[strobe_indices(trace_eff)]
    if not np.array_equal(t_seq, t_eff):
        raise ValueError("grid mismatch: stroboscopic instants differ")
    xi_seq = trace_seq.xi2()[strobe_indices(trace_seq)]
    xi_eff = trace_eff.xi2()[strobe_indices(trace_eff)]
    errors = np.abs(xi_seq - xi_eff) / xi_eff
    return ErrorCurve(t_seq, errors)


def _scan_minimize(xi2_of_times, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of xi^2 on [lo, hi]: SCAN_CHUNK_COLUMNS times per zoom level, four levels.

    `xi2_of_times` maps an array of times to xi^2 (+inf where the mean spin
    vanishes).  Each level spaces its times evenly over [lo, hi] first, then
    over the previous best time's two neighbouring cells (one at a window
    end), until the spacing is <= 1e-6 (hi - lo); the earliest of equal
    values wins.  The minimum is one more one-column call at the chosen
    time, so its bits do not depend on the batch.  A TAT column's bits do depend on
    its batch, through the GEMM that builds the states, by at most 1.5e-14
    relative at 31 N from 2 to 10^4 on one BLAS thread, while the chosen
    time's neighbours on the last level lie at least 3e-13 above it from
    N = 6 on, so a point-by-point scan picks the same time.

    Vanishing mean spin only occurs past the pre-revival minimum this search
    is after, so the window is effectively truncated there.
    """
    a, b = lo, hi
    while True:
        ts = np.linspace(a, b, SCAN_CHUNK_COLUMNS)
        i = int(np.argmin(xi2_of_times(ts)))
        if ts[1] - ts[0] <= 1e-6 * (hi - lo):
            t = float(ts[i])
            return t, float(xi2_of_times(np.array([t]))[0])
        a, b = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]


def _tat_states(n_spins: int, rate: float, columns: int):
    """Map of k <= `columns` times to the k x (N//2 + 1) real rows r of xy twisting at `rate` from |J,J>.

    The state is a_i = r_i at even i and i r_i at odd i (`squeezing.twist_moments`).
    Two real GEMMs on the `twist_window`: its even-row vectors times
    c cos(lambda t) give r[:, 0::2], its odd-row vectors times -c sin(lambda t)
    give r[:, 1::2] (c = the overlaps with |J,J>), each written straight into
    its columns of one row buffer.  Every call writes into the same buffers, so
    a scan allocates no per-chunk temporaries, and its result is valid until
    the next call.
    """
    win = twist_window(n_spins)
    w, even, odd = win.values, win.even, win.odd
    null = w.size - odd.shape[1]  # 1 at odd h: the null vector has no sin term
    overlaps, sin_overlaps = even[0], -even[0, null:]
    angles = np.empty((columns, w.size))
    coeffs = np.empty((columns, w.size))
    rows = np.empty((columns, even.shape[0] + odd.shape[0]))

    def states_at(ts: np.ndarray) -> np.ndarray:
        k = ts.size
        a, c, out = angles[:k], coeffs[:k], rows[:k]
        np.outer(ts, w, out=a)
        a *= rate
        np.cos(a, out=c)
        c *= overlaps
        np.matmul(c, even.T, out=out[:, 0::2])
        c = np.sin(a[:, null:], out=c[:, null:])
        c *= sin_overlaps
        np.matmul(c, odd.T, out=out[:, 1::2])
        return out

    return states_at


def _tat_scan(n_spins: int, rate: float = 1.0):
    """Map of times to the xi^2 and <J_z> of xy twisting at `rate` from |J,J>, SCAN_CHUNK_COLUMNS at a time.

    The one loop of the TAT optimum scan and the ideal-TAT trace.
    """
    ops = build_operators(n_spins)
    states_at = _tat_states(n_spins, rate, SCAN_CHUNK_COLUMNS)

    def measure(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        starts = range(0, ts.size, SCAN_CHUNK_COLUMNS)
        chunks = [twist_xi2(states_at(ts[s : s + SCAN_CHUNK_COLUMNS]), ops) for s in starts]
        return tuple(np.concatenate(values) for values in zip(*chunks))

    return measure


@lru_cache(maxsize=32)
def tat_optimum(n_spins: int) -> Optimum:
    """Optimal time and squeezing of unit-strength xy twisting from |J,J>."""
    scan = _tat_scan(n_spins)
    t_opt, xi2_min = _scan_minimize(lambda ts: scan(ts)[0], 0.0, 10.0 / n_spins)
    return Optimum(t_opt=t_opt, xi2_min=xi2_min)


@lru_cache(maxsize=32)
def oat_optimum(n_spins: int) -> Optimum:
    """Optimal time and squeezing of unit-strength z^2 twisting from an x-polarized state."""
    hi = 5.0 * n_spins ** (-2.0 / 3.0)
    t_opt, xi2_min = _scan_minimize(lambda ts: oat_moments(n_spins, ts).xi2, 0.0, hi)
    return Optimum(t_opt=t_opt, xi2_min=xi2_min)


def _check_squeezes(n_spins: int) -> None:
    """A ValueError for one spin, which never squeezes."""
    if n_spins == 1:
        raise ValueError("n_spins = 1 has no squeezing optimum: one spin keeps xi^2 = 1 at every time")


def _reference_optimum(scheme: str, n_spins: int) -> Optimum:
    """The ideal twisting optimum a scheme is measured against; `_check_squeezes` first."""
    _check_squeezes(n_spins)
    return (oat_optimum if scheme == "ideal-OAT" else tat_optimum)(n_spins)


def default_t_total(scheme: str, n_spins: int, order: int = 2) -> float:
    """Run length covering 1.5x the time to reach the squeezing optimum."""
    d = 1.0 if scheme in IDEAL_SCHEMES else strength_divisor(scheme, order)
    return PRE_OPTIMUM_FACTOR * d * _reference_optimum(scheme, n_spins).t_opt


@dataclass(frozen=True)
class NcRow:
    n_cycles: int
    xi2_best_strobe: float
    rel_error: float


def nc_convergence(
    scheme: str,
    n_spins: int,
    t_total: float,
    nc_list,
    order: int = 2,
) -> tuple[NcRow, ...]:
    """Best stroboscopic xi^2 of a pulse scheme per cycle count, against the ideal-TAT minimum.

    Every count's spec is validated, and its period compiled once, before the TAT optimum and the first trace.
    """
    if scheme not in SCHEME_ORDERS:
        raise ValueError(f"convergence needs a pulse scheme, one of {tuple(SCHEME_ORDERS)}, got {scheme!r}")
    specs = [ExperimentSpec(scheme, n_spins, int(nc), t_total, order=order) for nc in nc_list]
    for spec in specs:
        validate_spec(spec)
    ideal = tat_optimum(n_spins).xi2_min
    rows = []
    for spec in specs:
        best = find_optimum(run_trace(spec)).xi2_min
        rows.append(NcRow(spec.n_cycles, best, abs(best - ideal) / ideal))
    return tuple(rows)


@dataclass(frozen=True)
class FitResult:
    exponent: float
    intercept: float
    r_squared: float
    y: tuple[float, ...]  # the data fitted, as log y = exponent * log x + intercept


def _loglog_fit(x: np.ndarray, y: np.ndarray) -> FitResult:
    lx, ly = np.log(x), np.log(y)
    design = np.column_stack([lx, np.ones_like(lx)])
    coeffs, _, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    predicted = design @ coeffs
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(float(coeffs[0]), float(coeffs[1]), r2, tuple(y.tolist()))


def scaling_fit(scheme: str, n_list, order: int = 2) -> FitResult:
    """Least-squares exponent of log xi^2_min against log N; every N's run (t_total = 1) and N > 1 are checked first."""
    n_list = [int(n) for n in n_list]
    if len(set(n_list)) < 3:
        raise ValueError("scaling fit needs at least 3 distinct spin numbers")
    specs = [ExperimentSpec(scheme, n, n_cycles=50, t_total=1.0, order=order) for n in n_list]
    for spec in specs:
        validate_spec(spec)
        _check_squeezes(spec.n_spins)
    minima = []
    for spec in specs:
        if scheme in IDEAL_SCHEMES:
            minima.append(_reference_optimum(scheme, spec.n_spins).xi2_min)
        else:
            spec = replace(spec, t_total=default_t_total(scheme, spec.n_spins, order))
            minima.append(find_optimum(run_trace(spec)).xi2_min)
    return _loglog_fit(np.array(n_list, dtype=float), np.array(minima))


def time_cost(scheme: str, n_spins: int, order: int = 2) -> float:
    """Total evolution time for the pulse scheme to reach the twisting optimum."""
    return strength_divisor(scheme, order) * _reference_optimum(scheme, n_spins).t_opt
