import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import spinsqueeze
from spinsqueeze import cli, experiments, propagate
from spinsqueeze.experiments import (
    IDEAL_SCHEMES,
    SCAN_CHUNK_COLUMNS,
    ExperimentSpec,
    _itinerary,
    _loglog_fit,
    _sample_times,
    _scan_minimize,
    _tat_scan,
    default_t_total,
    effective_counterpart,
    nc_convergence,
    oat_optimum,
    relative_error_curve,
    run_trace,
    scaling_fit,
    strobe_indices,
    tat_optimum,
    time_cost,
    validate_spec,
)
from spinsqueeze.schedules import (
    compile_scheme,
    delta_t_for,
    level_param,
    strength_divisor,
)
from spinsqueeze.spin_ops import NumericalConsistencyError, build_operators
from spinsqueeze.squeezing import MeanSpinVanishing, find_optimum, oat_moments

from oracles import (HALF_PI, coherent_state_x, coherent_state_z, evolve_twist, oat_evolved, rotated,
                     squeezing_parameter)


def test_spec_validation():
    good = ExperimentSpec("schemeA", 10, 5, 0.1)
    validate_spec(good)
    for bad in (
        ExperimentSpec("nope", 10, 5, 0.1),
        ExperimentSpec("schemeA", 0, 5, 0.1),
        ExperimentSpec("schemeA", 10, 0, 0.1),
        ExperimentSpec("schemeA", 10, 5, 0.0),
        ExperimentSpec("schemeA", 10, 5, math.inf),
        ExperimentSpec("schemeA", 10, 5, 0.1, chi=-1.0),
        ExperimentSpec("schemeA", 10, 5, 0.1, chi=math.inf),
        ExperimentSpec("general", 10, 5, 0.1, order=3),
        ExperimentSpec("schemeA", 10, 5, 0.1, sampling="sometimes"),
        ExperimentSpec("schemeA", 10, 5, 0.1, sampling="fine", subsamples=0),
        ExperimentSpec("schemeA", 10, 5, 0.1, subsamples=3),  # stroboscopic runs have no interior samples
        ExperimentSpec("ideal-TAT", 10, 5, 0.1, subsamples=-1),
    ):
        with pytest.raises(ValueError):
            validate_spec(bad)
        with pytest.raises(ValueError):
            run_trace(bad)
    for scheme in ("schemeA", "general", "ideal-OAT"):  # the strength divisor scales ideal-TAT references only
        bad = ExperimentSpec(scheme, 10, 5, 0.1, divisor=7.0)
        for run in (validate_spec, run_trace):
            with pytest.raises(ValueError, match="field 'divisor'"):
                run(bad)
    validate_spec(ExperimentSpec("ideal-TAT", 10, 5, 0.1, divisor=7.0))


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec("ideal-OAT", 4, 999, 0.1),
        ExperimentSpec("ideal-TAT", 4, 111, 0.1, sampling="fine", subsamples=8),
        ExperimentSpec("schemeA", 4, 1, 0.1, sampling="fine", subsamples=998),
    ],
)
def test_sample_count_is_checked_against_memory_before_any_sample(spec, monkeypatch):
    """A 1000-sample run that the (patched) memory limit cannot hold raises ValueError at once."""
    from spinsqueeze import experiments

    assert len(_sample_times(spec)) == 1000
    monkeypatch.setattr(experiments, "memory_limit_bytes", lambda: 999 * experiments.SAMPLE_BYTES)

    def fail(*args):
        raise AssertionError("a trace ran past the sample-count check")

    monkeypatch.setattr(experiments, "_sample_times", fail)
    with pytest.raises(ValueError, match="1000 samples need .* GiB, more than"):
        run_trace(spec)
    # schemeA's tables: a row of N//2 + 1 = 3 complex numbers for each of its 2 distinct step durations and 998
    # interior samples, and the pair eigenvectors' half-size store, a 2 x 2 and a 1 x 1 real block
    tables = 0 if spec.scheme in IDEAL_SCHEMES else (2 + 998) * 3 * 16 + 5 * 8
    monkeypatch.setattr(experiments, "memory_limit_bytes", lambda: 1000 * experiments.SAMPLE_BYTES + tables)
    validate_spec(spec)


@pytest.mark.parametrize(
    "scheme,order,steps,durations", [("schemeA", 2, 3, 2), ("general", 6, 19, 8)], ids=["schemeA-2-3", "general-6-19"]
)
def test_pulse_phase_tables_are_checked_against_memory(monkeypatch, capsys, scheme, order, steps, durations):
    """A pulse run's tables, a complex row of N//2 + 1 per distinct step duration of each basis and per
    interior sample, and the pair eigenvectors' half-size store (at N = 40, real blocks of 11 x 11 and
    10 x 10), count against memory with its samples: a limit just under their sum exits 2, their sum runs."""
    assert len(compile_scheme(scheme, 1.0, 1, order).steps) == steps
    argv = ["simulate", "--scheme", scheme, "--order", str(order), "--n-spins", "40", "--n-cycles", "2",
            "--t-total", "0.01", "--sampling", "fine(50)"]
    need = (2 * 51 + 1) * experiments.SAMPLE_BYTES + (durations + 50) * 21 * 16 + (11 * 11 + 10 * 10) * 8
    monkeypatch.setattr(experiments, "memory_limit_bytes", lambda: need - 1)
    assert cli.main(argv) == 2
    assert "samples need" in capsys.readouterr().err
    monkeypatch.setattr(experiments, "memory_limit_bytes", lambda: need)
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 51 + 1


def test_phase_rows_are_counted_per_distinct_duration(monkeypatch):
    """A stroboscopic order-20 period has 39367 steps but 1024 distinct durations (512 free, 512
    pair): its spec at N = 2000 validates under a limit that one phase row per step would exceed,
    and needs exactly its 1024 rows, V's half-size store (real blocks of 501 x 501 and 500 x 500) and
    its 2 samples."""
    spec = ExperimentSpec("general", 2000, 1, 0.01, order=20)
    h = 1001
    limit = 100 * 2**20
    assert len(compile_scheme("general", 1.0, 1, 20).steps) * h * 16 > 6 * limit
    monkeypatch.setattr(experiments, "memory_limit_bytes", lambda: limit)
    validate_spec(spec)
    need = 1024 * h * 16 + (501 * 501 + 500 * 500) * 8 + 2 * experiments.SAMPLE_BYTES
    monkeypatch.setattr(experiments, "memory_limit_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match="samples need"):
        validate_spec(spec)
    monkeypatch.setattr(experiments, "memory_limit_bytes", lambda: need)
    validate_spec(spec)


def counting(monkeypatch, module, name: str) -> list:
    """Patch module.name to record each call's arguments in the returned list."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_order_20_pulse_run_builds_tables_only_where_samples_use_them(monkeypatch):
    """A one-cycle fine(3) order-20 trace at N = 200 (39367 steps) builds one end phase row per distinct
    step duration of each basis and one interior table per step that holds an interior sample, and
    compiles its period once."""
    spec = ExperimentSpec("general", 200, 1, 0.01, order=20, sampling="fine", subsamples=3)
    steps = compile_scheme("general", delta_t_for("general", spec.t_total, 1, 20), 1, 20).steps
    times = _sample_times(spec)
    sampled = sum(1 for _, partials in _itinerary(steps, times[1:4], times[4]) if partials)
    phases = counting(monkeypatch, experiments, "step_phases")
    compiles = counting(monkeypatch, experiments, "compile_scheme")
    trace = run_trace(spec)
    assert len(trace.samples) == 5
    assert len(phases) <= len({experiments._phase_key(step) for step in steps}) + sampled
    assert len(compiles) == 1


@pytest.mark.parametrize("scheme,order", [("liu1", 2), ("schemeA", 2), ("schemeB", 4), ("general", 6)])
def test_pulse_trace_compiles_its_period_once(monkeypatch, scheme, order):
    compiles = counting(monkeypatch, experiments, "compile_scheme")
    run_trace(ExperimentSpec(scheme, 40, 3, 0.01, order=order, sampling="fine", subsamples=2))
    assert len(compiles) == 1


def test_nc_convergence_compiles_each_period_once(monkeypatch):
    """The sweep runs each count's trace on the period its up-front validation compiled: one
    compile per count, and the rows of one `run_trace` per count."""
    want = [find_optimum(run_trace(ExperimentSpec("schemeA", 40, nc, 0.01))).xi2_min for nc in (5, 10, 20)]
    compiles = counting(monkeypatch, experiments, "compile_scheme")
    rows = nc_convergence("schemeA", 40, 1.0, 0.01, [5, 10, 20])
    assert len(compiles) == 3
    assert [(r.n_cycles, r.xi2_best_strobe) for r in rows] == list(zip((5, 10, 20), want))


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="the mapped size is read from /proc/self/statm")
def test_memory_check_counts_what_the_process_already_maps():
    """Under an address-space limit that the samples, tables and V only fit into if the memory the
    interpreter already maps is not counted, a large fine run exits 2 before it allocates them."""
    script = """
import sys
from spinsqueeze import cli
sys.exit(cli.main(["simulate", "--scheme", "schemeA", "--n-spins", "4000", "--n-cycles", "1",
                   "--sampling", "fine(45000)"]))
"""

    def limit_address_space():  # as `ulimit -v 1500000` in the shell that starts the run
        resource.setrlimit(resource.RLIMIT_AS, (1500000 * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]))

    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
                            preexec_fn=limit_address_space)
    assert result.returncode == 2, result.stderr
    assert "samples need" in result.stderr
    assert time.perf_counter() - start < 30.0


def test_itinerary_is_linear_in_the_offsets():
    """10^6 interior offsets are placed in one pass, not one list shift per offset."""
    steps = compile_scheme("schemeA", 1.0, 1).steps
    offsets = list(np.linspace(0.0, 3.0, 10**6 + 2)[1:-1])
    start = time.perf_counter()
    itinerary = _itinerary(steps, offsets, 3.0)
    assert time.perf_counter() - start < 10.0
    assert sum(len(partials) for _, partials in itinerary) == 10**6
    assert all(0.0 <= t <= step.duration for step, partials in itinerary for t in partials)


def test_traces_are_deterministic():
    spec = ExperimentSpec("schemeB", 30, 8, 0.1, sampling="fine", subsamples=4)
    a, b = run_trace(spec), run_trace(spec)
    assert all(
        s.xi2 == t.xi2 and np.array_equal(s.mean_spin, t.mean_spin)
        for s, t in zip(a.samples, b.samples)
    )


def test_stroboscopic_slice_of_fine_run_is_bit_identical():
    fine = ExperimentSpec("schemeA", 24, 9, 0.06, sampling="fine", subsamples=5)
    strobe = ExperimentSpec("schemeA", 24, 9, 0.06)
    tf, ts = run_trace(fine), run_trace(strobe)
    idx = strobe_indices(tf)
    assert np.array_equal(tf.xi2()[idx], ts.xi2())
    assert np.array_equal(tf.times()[idx], ts.times())


def test_sample_counts_and_time_grid():
    spec = ExperimentSpec("liu1", 12, 6, 0.3, sampling="fine", subsamples=3)
    trace = run_trace(spec)
    assert len(trace.samples) == 6 * 4 + 1
    times = trace.times()
    assert np.all(np.diff(times) > 0)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.3, rel=1e-12)


def test_ideal_runs_share_grid_with_pulse_runs():
    seq = ExperimentSpec("schemeA", 16, 7, 0.12)
    eff = effective_counterpart(seq)
    assert eff.scheme == "ideal-TAT"
    assert eff.divisor == pytest.approx(3.0)
    curve = relative_error_curve(run_trace(seq), run_trace(eff))
    assert curve.times.shape == (8,)
    assert np.all(curve.relative_errors >= 0)


def test_identical_specs_give_zero_error():
    spec = ExperimentSpec("ideal-TAT", 14, 6, 0.2)
    trace = run_trace(spec)
    curve = relative_error_curve(trace, trace)
    np.testing.assert_array_equal(curve.relative_errors, np.zeros(7))


def test_grid_mismatch_rejected():
    a = ExperimentSpec("schemeA", 16, 7, 0.12)
    b = ExperimentSpec("ideal-TAT", 16, 8, 0.12)
    with pytest.raises(ValueError, match="grid mismatch"):
        relative_error_curve(run_trace(a), run_trace(b))
    c = ExperimentSpec("ideal-TAT", 18, 7, 0.12)
    with pytest.raises(ValueError, match="grid mismatch"):
        relative_error_curve(run_trace(a), run_trace(c))
    d = ExperimentSpec("ideal-TAT", 16, 7, 0.13)
    with pytest.raises(ValueError, match="grid mismatch: stroboscopic instants"):
        relative_error_curve(run_trace(a), run_trace(d))


def test_mean_spin_vanishing_reports_sample_index():
    with pytest.raises(MeanSpinVanishing, match="sample 1"):
        run_trace(ExperimentSpec("ideal-OAT", 2, 2, np.pi))


def test_nc_convergence_trend():
    n = 60
    ideal = tat_optimum(n)
    t_total = 1.2 * 3 * ideal.t_opt
    for scheme in ("schemeA", "liu1"):
        rows = nc_convergence(scheme, n, 1.0, t_total, [10, 20, 40, 80])
        errors = [r.rel_error for r in rows]
        for coarse, finer in zip(errors, errors[1:]):
            assert finer <= coarse * 1.05  # non-increasing up to 5% jitter


def test_loglog_fit_flat_data():
    fit = _loglog_fit(np.array([10.0, 20.0, 40.0, 80.0]), np.full(4, 3.7))
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)


def test_scaling_fit_needs_enough_points():
    with pytest.raises(ValueError):
        scaling_fit("ideal-TAT", [50, 100])


def test_oat_scaling_exponent_small_sweep():
    fit = scaling_fit("ideal-OAT", [50, 100, 200, 400])
    assert fit.exponent == pytest.approx(-2 / 3, abs=0.1)
    assert fit.r_squared > 0.99


def test_time_cost_ratio_is_spin_number_independent():
    ratio_small = time_cost("schemeB", 40) / time_cost("schemeA", 40)
    ratio_large = time_cost("schemeB", 120) / time_cost("schemeA", 120)
    expected = (12 * level_param(2) - 3) / 3
    assert ratio_small == pytest.approx(expected, rel=1e-12)
    assert ratio_large == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4.405, abs=1e-3)


def test_time_cost_rejects_plain_twisting_baseline():
    with pytest.raises(ValueError):
        time_cost("ideal-OAT", 40)


def test_strength_divisors():
    assert strength_divisor("liu1") == 3.0
    assert strength_divisor("schemeA") == 3.0
    assert strength_divisor("schemeB") == 12 * level_param(2) - 3
    assert strength_divisor("general", order=6) > strength_divisor("general", order=4)
    for ideal in IDEAL_SCHEMES:
        with pytest.raises(ValueError, match="unknown pulse scheme"):
            strength_divisor(ideal)
    assert effective_counterpart(ExperimentSpec("ideal-TAT", 10, 5, 0.1, divisor=7.0)).divisor == 1.0
    assert effective_counterpart(ExperimentSpec("schemeB", 10, 5, 0.1)).divisor == 12 * level_param(2) - 3


def test_default_t_total_covers_the_optimum():
    n = 40
    assert default_t_total("schemeA", n) == pytest.approx(1.5 * 3 * tat_optimum(n).t_opt)
    assert default_t_total("ideal-OAT", n) == pytest.approx(1.5 * oat_optimum(n).t_opt)


def test_general_scheme_runs():
    spec = ExperimentSpec("general", 14, 5, 0.4, order=6)
    trace = run_trace(spec)
    assert len(trace.samples) == 6
    opt = find_optimum(trace)
    assert 0 <= opt.xi2_min <= 1.0


def _or_inf(evaluate, *args) -> float:
    """evaluate(*args), or +inf where the mean spin vanishes."""
    try:
        return evaluate(*args)
    except MeanSpinVanishing:
        return np.inf


@pytest.mark.parametrize("n", [8, 9, 40, 41])
@pytest.mark.parametrize("scheme", ["ideal-TAT", "ideal-OAT"])
def test_batched_scan_grid_matches_scalar_path(n, scheme):
    """The scan's grid gives per-point squeezing_parameter, +inf exactly where it raises.

    For z^2 twisting the grid is the closed form `oat_moments`, checked here
    against the evolved state vector.
    """
    ops = build_operators(n)
    start = coherent_state_z(n)

    def xi2(state):
        return squeezing_parameter(state, ops).xi2

    if scheme == "ideal-TAT":
        grid = lambda ts: _tat_scan(n)(ts)[0]
        ts = np.linspace(0.0, 10.0 / n, 3 * SCAN_CHUNK_COLUMNS - 17)
        scalar = [_or_inf(xi2, evolve_twist(start, 1.0, t)) for t in ts]
        rtol = 1e-9
    else:  # [0, 3] runs past the mean-spin collapse around t = pi/2
        ts = np.linspace(0.0, 3.0, 3 * SCAN_CHUNK_COLUMNS - 17)
        psi_x = rotated(start, "y", HALF_PI)
        scalar = [_or_inf(xi2, oat_evolved(psi_x, 1.0, t)) for t in ts]
        grid, rtol = (lambda ts: oat_moments(n, ts).xi2), 1e-12
    scalar = np.array(scalar)
    batched = grid(ts)
    assert batched.shape == ts.shape
    vanishing = np.isinf(scalar)
    np.testing.assert_array_equal(np.isinf(batched), vanishing)
    if scheme == "ideal-OAT":
        assert vanishing.any()
    np.testing.assert_allclose(batched[~vanishing], scalar[~vanishing], rtol=rtol, atol=0.0)
    assert np.argmin(batched) == np.argmin(scalar)


@pytest.mark.parametrize("n", [8, 9, 40, 41])
def test_batched_scan_gives_the_scalar_scan_optimum(n):
    """Batching the grid leaves the optimum of a point-by-point scan unchanged, bit for bit."""
    scan = _tat_scan(n)

    def pointwise(ts):
        return np.concatenate([scan(np.array([t]))[0] for t in ts])

    optimum = tat_optimum(n)
    assert _scan_minimize(pointwise, 0.0, 10.0 / n) == (optimum.t_opt, optimum.xi2_min)


def test_zoom_finds_an_interior_minimum_at_an_irrational_point():
    lo, hi, t_min = 0.1, 2.3, 1.0 / math.sqrt(2.0)
    t, value = _scan_minimize(lambda ts: 0.5 + (ts - t_min) ** 2, lo, hi)
    assert abs(t - t_min) <= 1e-6 * (hi - lo)
    assert value == 0.5 + (t - t_min) ** 2


@pytest.mark.parametrize("slope", [1.0, -1.0])
def test_zoom_finds_minima_at_either_end(slope):
    """A monotone xi^2 has its minimum exactly at lo (rising) or at hi (falling)."""
    lo, hi = 0.25, 1.75
    end = lo if slope > 0 else hi
    assert _scan_minimize(lambda ts: 2.0 + slope * ts, lo, hi) == (end, 2.0 + slope * end)


def test_zoom_stops_at_a_vanishing_tail():
    """xi^2 falling into a +inf tail past t = 0.7: the last finite time within the tolerance."""
    t, value = _scan_minimize(lambda ts: np.where(ts > 0.7, np.inf, 1.0 - ts), 0.0, 1.0)
    assert 0.7 - 1e-6 <= t <= 0.7
    assert value == 1.0 - t


@pytest.mark.parametrize("n", [9, 400])
def test_tat_scan_makes_four_batched_calls_and_one_single(n):
    """The zoom evaluates SCAN_CHUNK_COLUMNS times per level on four levels, then the chosen time."""
    scan = _tat_scan(n)
    sizes = []

    def counted(ts):
        sizes.append(ts.size)
        return scan(ts)[0]

    t, xi2 = _scan_minimize(counted, 0.0, 10.0 / n)
    assert sizes == [SCAN_CHUNK_COLUMNS] * 4 + [1]
    assert (t, xi2) == (tat_optimum(n).t_opt, tat_optimum(n).xi2_min)


def test_one_spin_has_no_optimum_time():
    """xi^2 = 1 at every time for N = 1: the zoom reports t = 0, and the run length and time
    cost that scale with the optimum time refuse it, naming the cause."""
    assert (tat_optimum(1).t_opt, tat_optimum(1).xi2_min) == (0.0, 1.0)
    for scheme in ("schemeA", "ideal-TAT", "ideal-OAT"):
        with pytest.raises(ValueError, match="n_spins = 1 has no squeezing optimum"):
            default_t_total(scheme, 1)
    with pytest.raises(ValueError, match="n_spins = 1 has no squeezing optimum"):
        time_cost("schemeA", 1)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 13, 40])
def test_oat_trace_matches_the_state_vector_path(n):
    """Closed-form ideal-OAT samples against squeezing_parameter of the evolved state.

    xi^2 and the mean spin agree within 1e-12.  Where the state path's own
    roundoff is the larger, next to the collapse, the bound on xi^2 widens
    by 1e-15 absolute (at N = 2, xi^2 -> 0 there).  The closed form is
    +inf, and the trace raises, exactly where the state path raises.  The
    times run past chi t = pi/2, where the mean spin vanishes for every
    N >= 2.
    """
    ops = build_operators(n)
    psi_x = coherent_state_x(n)
    chi = 1.3
    times = np.append(np.linspace(0.0, 2.6, 97), HALF_PI / chi)

    def trace_sample(t):
        spec = ExperimentSpec("ideal-OAT", n, 1, t if t > 0 else 1e-3, chi=chi)
        return run_trace(spec).samples[1 if t > 0 else 0]

    vanished = 0
    for t, xi2_closed in zip(times, oat_moments(n, chi * times).xi2):
        try:
            want = squeezing_parameter(oat_evolved(psi_x, chi, t), ops, t=t)
        except MeanSpinVanishing:
            vanished += 1
            assert np.isinf(xi2_closed)
            with pytest.raises(MeanSpinVanishing, match="sample 1"):
                trace_sample(t)
            continue
        got = trace_sample(t)
        assert got.t == t and got.xi2 == xi2_closed
        assert abs(got.xi2 - want.xi2) <= 1e-12 * want.xi2 + 1e-15
        assert np.abs(got.mean_spin - want.mean_spin).max() <= 1e-12 * n / 2.0
        assert got.mean_spin[1] == got.mean_spin[2] == 0.0
    assert (vanished > 0) == (n > 1)


# -- even-sector pulse engine against dense expm ----------------------------------

PULSE_CASES = (("liu1", 2), ("schemeA", 2), ("schemeB", 4), ("general", 6))
# Interior samples per period: liu1 fine(2) samples at the opening pulse of its
# pair and inside it; schemeA fine(5) at both pulses of its pair and inside it.
FINE_SUBSAMPLES = {"liu1": 2, "schemeA": 5, "schemeB": 3, "general": 4}


def _dense_spin(n_spins):
    """J_x, J_y, J_z built here from the Dicke matrix elements, m = J ... -J."""
    j = n_spins / 2.0
    m = j - np.arange(n_spins + 1)
    raising = np.diag(np.sqrt((j - m[1:]) * (j + m[1:] + 1.0)), 1)
    return (raising + raising.T) / 2.0 + 0j, (raising - raising.T) / 2j, np.diag(m) + 0j


def _dense_sample(state, ops):
    """(xi^2, mean spin) from eigvalsh of the covariance projected on the transverse plane."""
    applied = [op @ state for op in ops]
    mean = np.array([np.vdot(state, v).real for v in applied])
    second = np.array([[np.vdot(a, b).real for b in applied] for a in applied])
    cov = (second + second.T) / 2.0 - np.outer(mean, mean)
    plane = np.linalg.svd(mean[None, :])[2][1:]
    j = (len(state) - 1) / 2.0
    return 2.0 * max(np.linalg.eigvalsh(plane @ cov @ plane.T)[0], 0.0) / j, mean


def _dense_pulse_trace(spec, segments):
    """Times, xi^2 and mean spins of a pulse run, one dense expm per segment and pulse.

    An interior sample at a pulse instant is taken before the pulse.
    """
    ops = _dense_spin(spec.n_spins)
    jx, jy, jz = ops
    t_c = sum(s.duration for s in segments if s.kind == "free")
    k = spec.subsamples if spec.sampling == "fine" else 0
    offsets = [i * t_c / (k + 1) for i in range(1, k + 1)]
    tol = 1e-12 * max(t_c, 1.0)
    period = spec.t_total / spec.n_cycles
    state = np.zeros(spec.n_spins + 1, dtype=complex)
    state[0] = 1.0
    times, states = [0.0], [state]
    for cycle in range(spec.n_cycles):
        pending, elapsed = list(range(k)), 0.0
        for seg in segments:
            if seg.kind == "free":
                while pending and offsets[pending[0]] <= elapsed + seg.duration + tol:
                    i = pending.pop(0)
                    partial = max(offsets[i] - elapsed, 0.0)
                    states.append(expm(-1j * spec.chi * partial * (jz @ jz)) @ state)
                    times.append(cycle * period + (i + 1) * period / (k + 1))
                elapsed += seg.duration
                state = expm(-1j * spec.chi * seg.duration * (jz @ jz)) @ state
            else:
                generator = jx if seg.axis == "x" else jy
                state = expm(-1j * seg.sign * HALF_PI * generator) @ state
        assert not pending
        times.append((cycle + 1) * period)
        states.append(state)
    xi2, means = zip(*(_dense_sample(s, ops) for s in states))
    return np.array(times), np.array(xi2), np.array(means)


def _pulse_spec(scheme, order, n, sampling):
    k = FINE_SUBSAMPLES[scheme] if sampling == "fine" else 0
    d = strength_divisor(scheme, order)
    t_total = d * np.log(2.0 * n + 1.0) / (2.0 * n + 1.0)
    cycles = 3 if scheme == "general" else 4
    return ExperimentSpec(scheme, n, cycles, t_total, sampling=sampling, subsamples=k, order=order)


@pytest.mark.parametrize("sampling", ["stroboscopic", "fine"])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 17])
@pytest.mark.parametrize("scheme,order", PULSE_CASES)
def test_pulse_trace_matches_dense_expm(scheme, order, n, sampling):
    spec = _pulse_spec(scheme, order, n, sampling)
    schedule = compile_scheme(scheme, delta_t_for(scheme, spec.t_total, spec.n_cycles, order), 1, order)
    times, xi2, means = _dense_pulse_trace(spec, schedule.segments)
    trace = run_trace(spec)
    np.testing.assert_allclose(trace.times(), times, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(trace.xi2(), xi2, rtol=1e-10, atol=0.0)
    got = np.array([s.mean_spin for s in trace.samples])
    assert np.abs(got - means).max() <= 1e-10 * n / 2.0


@pytest.mark.parametrize("scheme,order", PULSE_CASES)
def test_fine_samples_fall_inside_pairs_and_on_pulses(scheme, order):
    """The fine(k) oracle cases sample inside pairs; liu1 and schemeA also at pulse instants."""
    spec = _pulse_spec(scheme, order, 16, "fine")
    schedule = compile_scheme(scheme, delta_t_for(scheme, spec.t_total, spec.n_cycles, order), 1, order)
    times = _sample_times(spec)
    per = spec.subsamples + 1
    itinerary = _itinerary(schedule.steps, times[1:per], times[per])
    snaps = [(step, partial) for step, partials in itinerary for partial in partials]
    assert any(step.axis and 0.0 < partial < step.duration for step, partial in snaps)
    if scheme in ("liu1", "schemeA"):
        opening = [(s, p) for (s, p), (after, _) in zip(itinerary, itinerary[1:]) if after.axis and p]
        assert any(p[-1] == s.duration for s, p in opening)
    if scheme == "schemeA":
        assert any(step.axis and partial == step.duration for step, partial in snaps)


@pytest.mark.parametrize("t_total", [1.0 / 3.0, math.pi / 7.0])
@pytest.mark.parametrize("scheme,order", PULSE_CASES)
def test_pulse_trace_shares_every_instant_with_its_reference(scheme, order, t_total):
    """A fine(k) pulse trace and its effective counterpart sample bit-identical times, interior ones too."""
    k = FINE_SUBSAMPLES[scheme]
    spec = ExperimentSpec(scheme, 8, 7, t_total, sampling="fine", subsamples=k, order=order)
    times = run_trace(spec).times()
    assert times.size == 7 * (k + 1) + 1
    np.testing.assert_array_equal(times, run_trace(effective_counterpart(spec)).times())


@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("scheme,order", PULSE_CASES)
def test_stroboscopic_mean_spin_has_exact_transverse_zeros(scheme, order, n):
    """Period boundaries lie in the even sector, where <J_x> and <J_y> are exactly 0."""
    trace = run_trace(_pulse_spec(scheme, order, n, "fine"))
    for i in strobe_indices(trace):
        mean = trace.samples[i].mean_spin
        assert mean[0] == 0.0 and mean[1] == 0.0


def _leaky_factorization(monkeypatch):
    """Make every pair phase non-unitary: eigenvalues with a 1e-6 imaginary part."""
    real = propagate.pair_factorization

    def leaky(n_spins):
        fac = real(n_spins)
        return replace(fac, eigenvalues=fac.eigenvalues - 1e-6j)

    monkeypatch.setattr(propagate, "pair_factorization", leaky)


def test_norm_drift_raises_naming_the_sample(monkeypatch):
    _leaky_factorization(monkeypatch)
    spec = ExperimentSpec("schemeA", 40, 5, 0.5)
    with pytest.raises(NumericalConsistencyError, match=r"sample 1 at t=.*norm drifted"):
        run_trace(spec)
    fine = ExperimentSpec("schemeA", 40, 5, 0.5, sampling="fine", subsamples=3)
    with pytest.raises(NumericalConsistencyError, match=r"sample 4 at"):
        run_trace(fine)


def _first_pair_sample(spec):
    """Index of the first sample inside a pulse pair."""
    delta_t = delta_t_for(spec.scheme, spec.t_total, spec.n_cycles, spec.order)
    schedule = compile_scheme(spec.scheme, delta_t, 1, spec.order)
    times = _sample_times(spec)
    per = spec.subsamples + 1
    index = 0
    for step, partials in _itinerary(schedule.steps, times[1:per], times[per]):
        for _ in partials:
            index += 1
            if step.axis:
                return index
    raise AssertionError("no sample inside a pair")


@pytest.mark.parametrize("basis", ["dicke", "pair"])
def test_vanishing_mean_spin_is_reported_before_a_later_norm_drift(monkeypatch, basis):
    """The moment kernel reporting <J_z> = 0 for every row it measures in one basis makes the first
    sample in that basis vanish; a leaky pair makes the norm drift at the first period end, after
    it.  The vanishing sample is named, as in a run without the drift."""
    real = experiments.sector_moments

    def no_mean_spin(rows, bands):
        jz, lam_min = real(rows, bands)
        dicke = 1 not in bands.jz  # J_z is diagonal in the Dicke basis only
        return (np.zeros_like(jz) if dicke == (basis == "dicke") else jz), lam_min

    monkeypatch.setattr(experiments, "sector_moments", no_mean_spin)
    spec = ExperimentSpec("schemeA", 40, 5, 0.5, sampling="fine", subsamples=3)
    first = 0 if basis == "dicke" else _first_pair_sample(spec)
    assert first < spec.subsamples + 1  # before the first period end, where the norm drifts
    with pytest.raises(MeanSpinVanishing, match=rf"^sample {first} at"):
        run_trace(spec)
    _leaky_factorization(monkeypatch)
    with pytest.raises(MeanSpinVanishing, match=rf"^sample {first} at"):
        run_trace(spec)


BUFFER_DEPTHS = ("SCAN_CHUNK_COLUMNS", "SAMPLE_BLOCK_ENTRIES")


def _sample_bytes(trace):
    return [(np.float64(s.xi2).tobytes(), s.mean_spin.tobytes()) for s in trace.samples]


@pytest.mark.parametrize("depth", [1, 1000])
@pytest.mark.parametrize("constant", BUFFER_DEPTHS)
def test_trace_bits_do_not_depend_on_buffer_depths(monkeypatch, constant, depth):
    """Pulse samples keep their bytes whatever the depth of each buffer.  The ideal-TAT states
    come from one GEMM per chunk, whose bits depend on the chunk, so that trace agrees within 1e-13."""
    pulses = [
        replace(_pulse_spec(scheme, order, n, "fine"), subsamples=3)
        for scheme, order in (("schemeB", 4), ("general", 6))
        for n in (40, 41)
    ]
    tat = ExperimentSpec("ideal-TAT", 41, 30, 0.2, sampling="fine", subsamples=3)
    want = [_sample_bytes(run_trace(spec)) for spec in pulses]
    want_tat = run_trace(tat)
    monkeypatch.setattr(experiments, constant, depth)
    for spec, expected in zip(pulses, want):
        assert _sample_bytes(run_trace(spec)) == expected, spec
    got = run_trace(tat)
    np.testing.assert_allclose(got.xi2(), want_tat.xi2(), rtol=1e-13, atol=0.0)
    values = [[s.mean_spin for s in trace.samples] for trace in (got, want_tat)]
    np.testing.assert_allclose(*values, rtol=0.0, atol=1e-13 * tat.n_spins / 2.0)


def test_norm_drift_exits_1_from_the_cli(monkeypatch, capsys):
    _leaky_factorization(monkeypatch)
    argv = ["simulate", "--scheme", "liu1", "--n-spins", "40", "--n-cycles", "5", "--t-total", "0.5"]
    assert cli.main(argv) == 1
    assert "norm drifted" in capsys.readouterr().err


def test_pulse_run_builds_no_dense_matrix():
    """A fresh process runs every scheme and both optimum scans at N = 2000, no (N+1)^2 array."""
    script = """
import tracemalloc
from spinsqueeze.experiments import ExperimentSpec, oat_optimum, run_trace, tat_optimum
n = 2000
tracemalloc.start()
for scheme, order in (("liu1", 2), ("schemeA", 2), ("schemeB", 4), ("general", 6),
                      ("ideal-TAT", 2), ("ideal-OAT", 2)):
    run_trace(ExperimentSpec(scheme, n, 2, 0.004, sampling="fine", subsamples=3, order=order))
tat_optimum(n)
oat_optimum(n)
peak = tracemalloc.get_traced_memory()[1]
assert peak < 8 * (n + 1) ** 2, peak
"""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
