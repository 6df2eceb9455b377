import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.schedules import (
    MAX_ORDER,
    SCHEME_ORDERS,
    compile_scheme,
    delta_t_for,
    level_param,
    schedule_to_text,
    strength_divisor,
    ts_coefficients,
)


def compile_order1(delta_t, n_cycles):
    return compile_scheme("liu1", delta_t, n_cycles)


def compile_scheme_a(delta_t, n_cycles):
    return compile_scheme("schemeA", delta_t, n_cycles)


def compile_scheme_b(delta_t, n_cycles):
    return compile_scheme("schemeB", delta_t, n_cycles)


def free_durations(schedule):
    return [s.duration for s in schedule.segments if s.kind == "free"]


def pulse_list(schedule):
    return [(s.axis, s.sign) for s in schedule.segments if s.kind == "pulse"]


def cancels_to_identity(pulses):
    """Reduce by cancelling adjacent inverse pairs; identity iff nothing is left."""
    stack = []
    for axis, sign in pulses:
        if stack and stack[-1] == (axis, -sign):
            stack.pop()
        else:
            stack.append((axis, sign))
    return not stack


def test_splitting_parameter_value():
    assert level_param(2) == pytest.approx(1.3512071919596578, abs=1e-15)
    assert level_param(2) == pytest.approx(1 / (2 - 2 ** (1 / 3)), abs=1e-15)


def test_order1_structure():
    sched = compile_scheme("liu1", 0.25, 4)
    assert free_durations(sched) == [0.25, 0.5]
    assert pulse_list(sched) == [("y", 1), ("y", -1)]
    assert sched.t_c == pytest.approx(0.75)
    assert sched.pulses_per_period == 2
    assert sched.t_c == strength_divisor("liu1") * 0.25


def test_scheme_a_structure():
    sched = compile_scheme_a(0.2, 3)
    assert free_durations(sched) == [0.1, 0.4, 0.1]
    assert pulse_list(sched) == [("y", 1), ("y", -1)]
    assert sched.t_c == pytest.approx(0.6)


def test_scheme_b_durations_match_splitting_formulas():
    dt = 1.0
    sched = compile_scheme_b(dt, 1)
    s = level_param(2)
    expected = [s / 2, 2 * s, (3 * s - 1) / 2, 2 * (2 * s - 1), (3 * s - 1) / 2, 2 * s, s / 2]
    np.testing.assert_allclose(free_durations(sched), expected, rtol=1e-15)
    np.testing.assert_allclose(
        free_durations(sched), [0.6756, 2.7024, 1.5268, 3.4048, 1.5268, 2.7024, 0.6756], atol=2e-4
    )
    assert sum(free_durations(sched)) == pytest.approx(12 * s - 3)
    assert 12 * s - 3 == pytest.approx(13.2145, abs=1e-4)
    assert all(d > 0 for d in free_durations(sched))
    assert pulse_list(sched) == [
        ("y", 1), ("y", -1), ("x", 1), ("x", -1), ("y", 1), ("y", -1),
    ]


@pytest.mark.parametrize("compiler", [compile_order1, compile_scheme_a, compile_scheme_b])
def test_invalid_arguments(compiler):
    with pytest.raises(ValueError):
        compiler(0.0, 1)
    with pytest.raises(ValueError):
        compiler(-0.1, 1)
    with pytest.raises(ValueError):
        compiler(0.1, 0)


@pytest.mark.parametrize("compiler", [compile_order1, compile_scheme_a, compile_scheme_b])
def test_net_pulse_rotation_is_identity(compiler):
    assert cancels_to_identity(pulse_list(compiler(0.1, 1)))


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_general_net_rotation_and_palindrome(order):
    sched = compile_scheme("general", 0.1, 1, order)
    assert cancels_to_identity(pulse_list(sched))
    durations = free_durations(sched)
    np.testing.assert_allclose(durations, durations[::-1], rtol=1e-12)


def test_scheme_a_and_b_palindromic():
    for sched in (compile_scheme_a(0.3, 1), compile_scheme_b(0.3, 1)):
        durations = free_durations(sched)
        np.testing.assert_allclose(durations, durations[::-1], rtol=1e-15)


def test_general_order2_equals_scheme_a():
    general = compile_scheme("general", 0.17, 5, 2)
    direct = compile_scheme_a(0.17, 5)
    assert (direct.scheme, direct.order) == ("schemeA", 2)
    assert free_durations(general) == free_durations(direct)
    assert pulse_list(general) == pulse_list(direct)
    assert general.t_c == direct.t_c
    assert strength_divisor("general", 2) == strength_divisor("schemeA") == 3.0


def test_general_order4_equals_scheme_b():
    """schemeB is the order-4 coefficient list: the closed-form t_1..t_4 within 4 ulp."""
    dt = 0.17
    sched = compile_scheme("schemeB", dt, 5)
    s = level_param(2)
    t1, t2 = s * dt / 2.0, 2.0 * s * dt
    t3, t4 = (3.0 * s - 1.0) * dt / 2.0, 2.0 * (2.0 * s - 1.0) * dt
    closed = np.array([t1, t2, t3, t4, t3, t2, t1])
    assert np.all(np.abs(np.array(free_durations(sched)) - closed) <= 4 * np.spacing(closed))
    assert (sched.scheme, sched.order, sched.n_cycles) == ("schemeB", 4, 5)
    assert pulse_list(sched) == pulse_list(compile_scheme("general", dt, 5, 4)) == [
        ("y", 1), ("y", -1), ("x", 1), ("x", -1), ("y", 1), ("y", -1),
    ]
    assert strength_divisor("schemeB") == strength_divisor("general", 4) == 12 * s - 3


def test_order6_coefficients():
    coeffs = ts_coefficients(6)
    k3 = 1 / (2 - 2 ** (1 / 5))
    assert level_param(3) == pytest.approx(k3, abs=1e-15)
    assert len(coeffs) == 9
    assert sum(coeffs) == pytest.approx(1.0, abs=1e-12)
    signs = [math.copysign(1, c) for c in coeffs]
    assert signs == [1, -1, 1, -1, 1, -1, 1, -1, 1]


@settings(max_examples=10, deadline=None)
@given(order=st.sampled_from([2, 4, 6, 8, 10, 12]))
def test_leaf_telescoping(order):
    assert sum(ts_coefficients(order)) == pytest.approx(1.0, abs=1e-12)


def test_order6_schedule_shape():
    sched = compile_scheme("general", 0.1, 1, 6)
    assert sched.pulses_per_period == 18
    assert len(free_durations(sched)) == 19
    assert all(d > 0 for d in free_durations(sched))
    assert sched.t_c == pytest.approx(strength_divisor("general", 6) * 0.1, rel=1e-14)
    assert strength_divisor("general", 6) == 3 * sum(abs(c) for c in ts_coefficients(6))


def test_general_rejects_bad_orders():
    with pytest.raises(ValueError):
        compile_scheme("general", 0.1, 1, 3)
    with pytest.raises(ValueError):
        compile_scheme("general", 0.1, 1, 0)
    with pytest.raises(ValueError):
        compile_scheme("general", 0.1, 1, 22)


def test_liu1_is_the_order1_row_of_the_one_scheme_table():
    """liu1 compiles through the shared formula: one first-order block, d = 3 * sum |c| = 3."""
    assert SCHEME_ORDERS == {"liu1": 1, "schemeA": 2, "schemeB": 4, "general": None}
    sched = compile_scheme("liu1", 0.25, 4)
    assert (sched.scheme, sched.order) == ("liu1", 1)
    assert strength_divisor("liu1") == 3.0 * sum(abs(c) for c in ts_coefficients(2)) == 3.0
    assert sched.t_c == 3.0 * 0.25
    assert schedule_to_text(sched).startswith("# scheme=liu1 order=1 delta_t=0.25 t_c=0.75 n_cycles=4\n")


@pytest.mark.parametrize("scheme, own", [("liu1", 1), ("schemeA", 2), ("schemeB", 4)])
def test_named_scheme_takes_the_default_or_its_own_order(scheme, own):
    """A named scheme compiles the same period at order 2 and at its own order, and refuses any other."""
    default = compile_scheme(scheme, 0.1, 3)
    assert compile_scheme(scheme, 0.1, 3, own) == default
    assert default.order == own
    assert strength_divisor(scheme, own) == strength_divisor(scheme)
    refused = re.escape(f"field 'order' must be one of {sorted({2, own})} for scheme '{scheme}'")
    for order in (6, 8, 0, MAX_ORDER + 2):
        with pytest.raises(ValueError, match=refused):
            compile_scheme(scheme, 0.1, 3, order)
        with pytest.raises(ValueError, match="field 'order'"):
            strength_divisor(scheme, order)
        with pytest.raises(ValueError, match="field 'order'"):
            delta_t_for(scheme, 1.0, 3, order)


def test_delta_t_solver_round_trip():
    for scheme, order in (("liu1", 2), ("schemeA", 2), ("schemeB", 4), ("general", 6)):
        t_total = 0.42
        n_cycles = 7
        dt = delta_t_for(scheme, t_total, n_cycles, order)
        sched = compile_scheme(scheme, dt, n_cycles, order)
        assert n_cycles * sched.t_c == pytest.approx(t_total, rel=1e-12)


def test_schedule_stats():
    sched_a = compile_scheme_a(0.01, 50)
    assert sched_a.pulses_per_period * sched_a.n_cycles == 100
    assert sched_a.t_c == pytest.approx(strength_divisor("schemeA") * 0.01, rel=1e-15)
    sched_b = compile_scheme_b(0.01, 17)
    assert sched_b.pulses_per_period * sched_b.n_cycles == 102
    assert sched_b.pulses_per_period == 6
    assert sched_b.t_c == pytest.approx((12 * level_param(2) - 3) * 0.01, rel=1e-14)


def test_period_units_unknown_scheme():
    with pytest.raises(ValueError, match="unknown pulse scheme"):
        strength_divisor("nope")
    with pytest.raises(ValueError, match="unknown pulse scheme"):
        compile_scheme("nope", 0.1, 1)


def test_schedule_text_golden():
    sched = compile_scheme_a(0.5, 2)
    expected = (
        "# scheme=schemeA order=2 delta_t=0.5 t_c=1.5 n_cycles=2\n"
        "FREE 0.25\n"
        "PULSE y +1\n"
        "FREE 1\n"
        "PULSE y -1\n"
        "FREE 0.25\n"
    )
    assert schedule_to_text(sched) == expected


def test_schedule_text_deterministic():
    a = schedule_to_text(compile_scheme_b(0.123, 9))
    b = schedule_to_text(compile_scheme_b(0.123, 9))
    assert a == b
    assert a.endswith("\n")
    assert len(a.splitlines()) == 1 + 13  # header + 7 frees + 6 pulses
