"""Acceptance suite: every criterion at its stated tolerance, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The heavy shared runs (N=1250, N=2000) live in module-scoped fixtures.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from spinsqueeze.cli import main, trace_csv
from spinsqueeze.experiments import (
    ExperimentSpec,
    PRE_OPTIMUM_FACTOR,
    effective_counterpart,
    nc_convergence,
    relative_error_curve,
    run_trace,
    scaling_fit,
    tat_optimum,
    time_cost,
)
from spinsqueeze.schedules import (
    compile_scheme,
    free,
    level_param,
    pulse,
    strength_divisor,
    ts_coefficients,
)
from spinsqueeze.spin_ops import build_operators

from oracles import (coherent_state_z, dense_jx, dense_jy, dense_twist_xy, evolve_twist, schedule_unitary,
                     squeezing_parameter, trotter_order_fit, unitary_distance)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def opt1250():
    return tat_optimum(1250)


@pytest.fixture(scope="module")
def opt2000():
    return tat_optimum(2000)


@pytest.fixture(scope="module")
def envelope_runs(opt1250):
    t_total = PRE_OPTIMUM_FACTOR * 3.0 * opt1250.t_opt
    traces = {}
    for scheme in ("liu1", "schemeA"):
        spec = ExperimentSpec(scheme, 1250, 50, t_total, sampling="fine", subsamples=8)
        traces[scheme] = run_trace(spec)
    return traces


def test_criterion_1_coherent_baseline():
    worst = 0.0
    for n in (1, 2, 10, 100, 1250):
        xi2 = squeezing_parameter(coherent_state_z(n), build_operators(n)).xi2
        worst = max(worst, abs(xi2 - 1.0))
    report("criterion 1 (coherent baseline)", worst <= 1e-9, f"max |xi2 - 1| = {worst:.2e}")


def test_criterion_2_pulse_conjugation():
    worst = 0.0
    for n in (2, 11, 25, 40):
        ops = build_operators(n)
        for chi_t in (0.1, 1.0, np.pi):
            for axis, gen in (("x", dense_jy(ops)), ("y", dense_jx(ops))):
                lhs = schedule_unitary(ops, [pulse(axis, 1), free(chi_t), pulse(axis, -1)], 1.0)
                rhs = expm(-1j * chi_t * np.asarray(gen @ gen))
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    report("criterion 2 (pulse conjugation identities)", worst <= 1e-9, f"max residual = {worst:.2e}")


def test_criterion_3_two_spin_closed_form():
    # grid stops short of the quarter turn, where the mean spin vanishes
    ops = build_operators(2)
    psi0 = coherent_state_z(2)
    twist = np.asarray(dense_twist_xy(ops), dtype=complex)
    worst_xi2 = worst_state = 0.0
    for t in np.linspace(0.0, 0.75, 100):
        state = evolve_twist(psi0, 1.0, t)
        oracle = expm(-1j * t * twist) @ psi0.amplitudes
        worst_state = max(worst_state, float(np.abs(state.amplitudes - oracle).max()))
        xi2 = squeezing_parameter(state, ops).xi2
        worst_xi2 = max(worst_xi2, abs(xi2 - (1 - abs(np.sin(2 * t)))))
    ok = worst_xi2 <= 1e-8 and worst_state <= 1e-10
    report(
        "criterion 3 (two-spin closed form)",
        ok,
        f"max xi2 deviation = {worst_xi2:.2e}, max state deviation vs oracle = {worst_state:.2e}",
    )


def test_criterion_4a_order_scaling_first_order():
    fit = trotter_order_fit("liu1", 20, window=(1e-3, 1e-1))
    report(
        "criterion 4a (first-order slope)",
        abs(fit.exponent - 2.0) <= 0.2,
        f"slope = {fit.exponent:.3f}, want 2.0 +/- 0.2",
    )


def test_criterion_4b_order_scaling_scheme_a():
    fit = trotter_order_fit("schemeA", 20, window=(1e-3, 1e-1))
    report(
        "criterion 4b (scheme A slope)",
        abs(fit.exponent - 3.0) <= 0.2,
        f"slope = {fit.exponent:.3f}, want 3.0 +/- 0.2",
    )


def _check_triple_jump_order(criterion, scheme, order, compiled_window, formula_window):
    """Two clauses on the error order of a triple-jump period at N=20.

    (a) The compiled pulse period: one-period slope 3 (an order-p symmetric
    formula gives slope p+1), and at the smallest step its distance equals
    the norm of the residual R below.  (b) The coefficient pattern itself,
    run as exact Strang blocks with signed times through expm: slope order+1.
    """
    ops = build_operators(20)
    leaves = ts_coefficients(order)
    h = np.asarray(dense_twist_xy(ops), dtype=complex)
    jz_sq = np.diag(ops.jz_sq_diag).astype(complex)
    jx_sq = np.asarray(dense_jx(ops) @ dense_jx(ops), dtype=complex)

    fit = trotter_order_fit(scheme, 20, window=compiled_window, order=order)
    dt = compiled_window[0] / ops.total_spin
    period = schedule_unitary(ops, compile_scheme(scheme, dt, 1, order).segments, 1.0)
    # Per Strang block the third-order BCH term is
    # i (c dt)^3 ((1/24) [Jz^2, [Jz^2, H]] + (1/12) [H, [H, Jz^2]]).  The quarter
    # turn that realizes c < 0 maps H to -H: the part odd in H keeps the sign
    # of c^3 and cancels through sum(c^3) = 0; the even part comes out as
    # +|c|^3 and survives.
    inner = h @ jz_sq - jz_sq @ h
    residual = dt**3 / 12.0 * sum(abs(c) ** 3 for c in leaves) * (h @ inner - inner @ h)
    ratio = unitary_distance(period, expm(-1j * dt * h)) / np.linalg.norm(residual, 2)

    dt_values = np.geomspace(formula_window[0], formula_window[1], 8) / ops.total_spin
    distances = []
    for step in dt_values:
        signed = np.eye(ops.dim, dtype=complex)
        for c in leaves:
            half = expm(-0.5j * c * step * jz_sq)
            signed = half @ expm(-2j * c * step * jx_sq) @ half @ signed
        distances.append(unitary_distance(signed, expm(-1j * step * h)))
    formula_slope = float(np.polyfit(np.log(dt_values), np.log(distances), 1)[0])

    ok_compiled = abs(fit.exponent - 3.0) <= 0.2 and abs(ratio - 1.0) <= 0.01
    ok_formula = abs(formula_slope - (order + 1)) <= 0.3
    report(
        criterion,
        ok_compiled and ok_formula,
        f"(a) compiled period slope = {fit.exponent:.3f} (3.0 +/- 0.2), "
        f"distance / |R|_2 = {ratio:.6f} (1 +/- 1%); "
        f"(b) signed-time formula slope = {formula_slope:.3f} ({order + 1}.0 +/- 0.3)",
    )


def test_criterion_4c_order_scaling_scheme_b():
    _check_triple_jump_order(
        "criterion 4c (scheme B order)", "schemeB", 4, (1e-3, 1e-1), (1e-3, 1e-1)
    )


def test_criterion_4d_order_scaling_order_6():
    # below delta_t * J = 1e-2 the order-6 formula error meets the roundoff floor
    _check_triple_jump_order(
        "criterion 4d (order-6 order)", "general", 6, (3e-3, 2e-1), (1e-2, 2e-1)
    )


def test_criterion_5_convergence_claim(opt1250):
    # Each scheme runs its best-effort window: total time is a control knob,
    # chosen so a stroboscopic instant lands on the effective optimum.
    t_a = (50 / 44) * 3.0 * opt1250.t_opt
    t_l = 3.0 * opt1250.t_opt
    e_a = nc_convergence("schemeA", 1250, 1.0, t_a, [50])[0].rel_error
    liu = nc_convergence("liu1", 1250, 1.0, t_l, [50, 1000])
    e_l50, e_l1000 = liu[0].rel_error, liu[1].rel_error
    ok = (e_a <= 0.10) and (e_l50 >= 2 * e_a) and (e_a / 2 <= e_l1000 <= 2 * e_a)
    report(
        "criterion 5 (50-cycle convergence)",
        ok,
        f"schemeA@50 err = {e_a:.4f} (<= 0.10), liu1@50 err = {e_l50:.3f} (>= {2 * e_a:.4f}), "
        f"liu1@1000 err = {e_l1000:.4f} (within [{e_a / 2:.4f}, {2 * e_a:.4f}])",
    )


def test_criterion_6_envelope_behavior(envelope_runs):
    # liu1 strobes bound each following period from above; scheme A strobes
    # bound each preceding period from below (the adjacency on the claim's
    # side, so the global downward trend cannot mask the envelope).
    k = 8
    failures = {}
    for scheme, trace in envelope_runs.items():
        xi2 = trace.xi2()
        strobes = xi2[:: k + 1]
        bad = 0
        for period in range(50):
            interior = xi2[period * (k + 1) + 1 : (period + 1) * (k + 1)]
            median = float(np.median(interior))
            if scheme == "liu1":
                bad += strobes[period] < median
            else:
                bad += strobes[period + 1] > median
        failures[scheme] = bad
    ok = failures["liu1"] == 0 and failures["schemeA"] == 0
    report(
        "criterion 6 (envelope behavior)",
        ok,
        f"violating periods out of 50: liu1 (top) = {failures['liu1']}, "
        f"schemeA (bottom) = {failures['schemeA']}",
    )


def test_criterion_7_time_costs(opt2000):
    cost_a = time_cost("schemeA", 2000)
    cost_b = time_cost("schemeB", 2000)
    ratio = cost_b / cost_a
    expected_ratio = (12 * level_param(2) - 3) / 3
    ok = (
        abs(cost_a - 0.006) <= 0.2 * 0.006
        and abs(cost_b - 0.027) <= 0.2 * 0.027
        and abs(ratio - expected_ratio) <= 0.01 * expected_ratio
    )
    report(
        "criterion 7 (time costs at N=2000)",
        ok,
        f"schemeA = {cost_a:.5f}/chi (0.006 +/- 20%), schemeB = {cost_b:.5f}/chi "
        f"(0.027 +/- 20%), ratio = {ratio:.4f} ({expected_ratio:.4f} +/- 1%)",
    )


def test_criterion_8_scaling_exponents():
    n_list = [50, 100, 200, 400, 800]
    tat = scaling_fit("ideal-TAT", n_list)
    oat = scaling_fit("ideal-OAT", n_list)
    ok = abs(tat.exponent + 1.0) <= 0.15 and abs(oat.exponent + 2 / 3) <= 0.1
    report(
        "criterion 8 (scaling exponents)",
        ok,
        f"twisting-xy fit = {tat.exponent:.3f} (-1.0 +/- 0.15), "
        f"twisting-z fit = {oat.exponent:.3f} (-0.667 +/- 0.1)",
    )


def test_criterion_9_error_curve_comparison(opt1250):
    curves = {}
    for scheme, n_cycles in (("schemeA", 50), ("schemeB", 17)):
        d = strength_divisor(scheme)
        spec = ExperimentSpec(scheme, 1250, n_cycles, PRE_OPTIMUM_FACTOR * d * opt1250.t_opt)
        curve = relative_error_curve(run_trace(spec), run_trace(effective_counterpart(spec)))
        mask = curve.times <= d * opt1250.t_opt
        n = curve.relative_errors.size
        curves[scheme] = {
            "pre_opt_max": float(curve.relative_errors[mask].max()),
            "early": float(curve.relative_errors[1 : n // 3].max()),
            "late": float(curve.relative_errors[-(n // 3) :].max()),
        }
    grows = all(c["late"] > c["early"] for c in curves.values())
    b_worse = curves["schemeB"]["pre_opt_max"] > curves["schemeA"]["pre_opt_max"]
    report(
        "criterion 9 (matched pulse-number error comparison)",
        grows and b_worse,
        f"pre-optimum max err: schemeB@102 pulses = {curves['schemeB']['pre_opt_max']:.3f} > "
        f"schemeA@100 pulses = {curves['schemeA']['pre_opt_max']:.3f}; "
        f"errors grow with t: {grows}",
    )


def test_criterion_10_determinism(tmp_path, opt1250):
    spec = ExperimentSpec("schemeA", 1250, 50, PRE_OPTIMUM_FACTOR * 3.0 * opt1250.t_opt)
    bytes_a = trace_csv(run_trace(spec)).encode()
    bytes_b = trace_csv(run_trace(spec)).encode()
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli_args = ["simulate", "--scheme", "liu1", "--n-spins", "80", "--n-cycles", "25",
                "--t-total", "0.05"]
    assert main(cli_args + ["--out", str(out1)]) == 0
    assert main(cli_args + ["--out", str(out2)]) == 0
    ok = bytes_a == bytes_b and out1.read_bytes() == out2.read_bytes()
    report(
        "criterion 10 (byte-identical reruns)",
        ok,
        f"library rerun identical: {bytes_a == bytes_b}, "
        f"CLI rerun identical: {out1.read_bytes() == out2.read_bytes()}",
    )
