from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze.experiments import ExperimentSpec, _samples, _tat_scan, _tat_states, default_t_total, tat_optimum
from spinsqueeze.propagate import dicke_bands, pair_amplitudes, pair_bands, pair_coefficients, step_phases
from spinsqueeze.schedules import strength_divisor
from spinsqueeze.spin_ops import build_operators
from spinsqueeze.squeezing import (
    MeanSpinVanishing,
    SqueezingSample,
    SqueezingTrace,
    find_optimum,
    oat_moments,
    sector_moments,
    sector_xi2,
    twist_moments,
    twist_xi2,
)

from oracles import (coherent_state_z, dense_jx, dense_jy, dense_jz, even_sector_state, evolve_twist, full_window,
                     pair_evolve, pair_twist, random_state, rotated, squeezing_parameter, transverse_basis)


def kernel_samples(rows, bands, j):
    """xi^2 and the mean spins (0, 0, <J_z>) of a block of rows, as a pulse trace's tail makes them from
    `sector_moments`."""
    jz, lam_min = sector_moments(rows, bands)
    return sector_xi2(jz, lam_min, j), np.column_stack([np.zeros((jz.size, 2)), jz])


def brute_force_xi2(state, ops, n_angles=3000):
    """Independent oracle: scan transverse directions for the minimal variance."""
    amps = state.amplitudes
    vx, vy, vz = dense_jx(ops) @ amps, dense_jy(ops) @ amps, dense_jz(ops) @ amps
    mean = np.array([np.vdot(amps, v).real for v in (vx, vy, vz)])
    u = mean / np.linalg.norm(mean)
    n1, n2 = transverse_basis(mean, ops.total_spin)
    best = np.inf
    for phi in np.linspace(0, np.pi, n_angles):
        direction = np.cos(phi) * n1 + np.sin(phi) * n2
        w = direction[0] * vx + direction[1] * vy + direction[2] * vz
        var = np.vdot(w, w).real - np.vdot(amps, w).real ** 2
        best = min(best, var)
    return 2 * best / ops.total_spin


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_coherent_state_is_unsqueezed(n):
    ops = build_operators(n)
    sample = squeezing_parameter(coherent_state_z(n), ops)
    assert sample.xi2 == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(sample.mean_spin, [0, 0, n / 2], atol=1e-12)


def test_two_spin_twisting_closed_form_and_oracle():
    ops = build_operators(2)
    for t in np.linspace(0.02, 0.7, 12):
        state = evolve_twist(coherent_state_z(2), 1.0, t)
        sample = squeezing_parameter(state, ops, t=t)
        assert sample.xi2 == pytest.approx(1 - abs(np.sin(2 * t)), abs=1e-10)
        assert sample.xi2 == pytest.approx(brute_force_xi2(state, ops), abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(-3, 3))
def test_rotated_coherent_state_stays_unsqueezed(theta):
    ops = build_operators(12)
    state = rotated(coherent_state_z(12), "y", theta)
    assert squeezing_parameter(state, ops).xi2 == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(axis=st.sampled_from(["x", "y"]), angle=st.floats(-3, 3))
def test_rotational_covariance(axis, angle):
    ops = build_operators(10)
    squeezed = evolve_twist(coherent_state_z(10), 1.0, 0.08)
    base = squeezing_parameter(squeezed, ops).xi2
    assert squeezing_parameter(rotated(squeezed, axis, angle), ops).xi2 == pytest.approx(base, abs=1e-9)


def test_basis_choice_is_irrelevant():
    ops = build_operators(9)
    state = evolve_twist(coherent_state_z(9), 1.0, 0.05)
    mean = squeezing_parameter(state, ops).mean_spin
    n1, n2 = transverse_basis(mean, ops.total_spin)
    default = squeezing_parameter(state, ops).xi2
    for phi in (0.3, 1.1, 2.5):
        m1 = np.cos(phi) * n1 + np.sin(phi) * n2
        m2 = -np.sin(phi) * n1 + np.cos(phi) * n2
        alt = squeezing_parameter(state, ops, basis=(m1, m2)).xi2
        assert alt == pytest.approx(default, abs=1e-10)


def test_minimum_bounds_any_fixed_direction():
    ops = build_operators(9)
    state = evolve_twist(coherent_state_z(9), 1.0, 0.05)
    sample = squeezing_parameter(state, ops)
    mean = sample.mean_spin
    n1, n2 = transverse_basis(mean, ops.total_spin)
    amps = state.amplitudes
    for phi in np.linspace(0, np.pi, 17):
        d = np.cos(phi) * n1 + np.sin(phi) * n2
        w = d[0] * (dense_jx(ops) @ amps) + d[1] * (dense_jy(ops) @ amps) + d[2] * (dense_jz(ops) @ amps)
        var = np.vdot(w, w).real - np.vdot(amps, w).real ** 2
        assert sample.xi2 <= 2 * var / ops.total_spin + 1e-12


def test_mean_spin_vanishing_raises():
    ops = build_operators(2)
    state = evolve_twist(coherent_state_z(2), 1.0, np.pi / 4)
    with pytest.raises(MeanSpinVanishing):
        squeezing_parameter(state, ops)


def _trace(samples):
    return SqueezingTrace(tuple(samples), 2, 1)


def _sample(t, xi2):
    return SqueezingSample(t=t, xi2=xi2, mean_spin=np.zeros(3))


def test_find_optimum_interior_minimum():
    trace = _trace([_sample(t, x) for t, x in [(0, 1.0), (1, 0.4), (2, 0.1), (3, 0.5)]])
    opt = find_optimum(trace)
    assert (opt.t_opt, opt.xi2_min) == (2, 0.1)


def test_find_optimum_tie_breaks_earliest():
    trace = _trace([_sample(t, x) for t, x in [(0, 1.0), (1, 0.2), (2, 0.2)]])
    assert find_optimum(trace).t_opt == 1


def test_find_optimum_empty_trace():
    with pytest.raises(ValueError):
        find_optimum(_trace([]))


def test_two_spin_optimum_approaches_quarter_turn():
    ops = build_operators(2)
    samples = []
    for t in np.linspace(0, 0.784, 1200):
        state = evolve_twist(coherent_state_z(2), 1.0, t)
        samples.append(squeezing_parameter(state, ops, t=t))
    opt = find_optimum(_trace(samples))
    assert opt.t_opt == pytest.approx(np.pi / 4, abs=0.01)
    assert opt.xi2_min <= 0.01


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_random_states_match_brute_force(seed):
    ops = build_operators(8)
    state = random_state(8, seed)
    try:
        sample = squeezing_parameter(state, ops)
    except MeanSpinVanishing:
        return
    assert sample.xi2 == pytest.approx(brute_force_xi2(state, ops), abs=2e-5)


def _even_sector_columns(n):
    """TAT-evolved, random and pair-evolved even-sector states, and (N > 1) one with <J_z> = 0."""
    h = n // 2 + 1
    fac = full_window(n)
    v, w = fac.eigenvectors, fac.eigenvalues
    ts = np.linspace(0.0, 40.0 / n, 9)
    evolved = v @ (np.exp(-1j * np.outer(w, ts)) * v[0][:, None])
    rng = np.random.default_rng(n)
    rand = rng.normal(size=(h, 6)) + 1j * rng.normal(size=(h, 6))
    rand /= np.linalg.norm(rand, axis=0)
    paired = [
        pair_evolve(n, axis, pair_coefficients(n, axis, evolved[:, 4]), 1.0, t)
        for axis in ("x", "y")
        for t in (0.3 / n, 2.0 / n, 7.0 / n)
    ]
    columns = [evolved, rand, np.column_stack(paired)]
    if n > 1:
        m = build_operators(n).m_values[0::2]
        balanced = np.zeros(h, dtype=complex)  # weights on m[0] > 0 and m[-1] < 0, zero mean
        balanced[0] = np.sqrt(-m[-1] / (m[0] - m[-1]))
        balanced[-1] = 1j * np.sqrt(m[0] / (m[0] - m[-1]))
        columns.append(balanced[:, None])
    return np.column_stack(columns)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40, 41])
def test_even_sector_kernel_matches_squeezing_parameter(n):
    """Per column it gives squeezing_parameter of the scattered state: xi^2 and the mean spin,
    and MeanSpinVanishing exactly where that raises."""
    ops = build_operators(n)
    amps = _even_sector_columns(n)
    xi2, mean = kernel_samples(amps.T, dicke_bands(ops.n_spins), ops.total_spin)
    vanished = []
    for i, col in enumerate(amps.T):
        try:
            want = squeezing_parameter(even_sector_state(n, col), ops)
        except MeanSpinVanishing:
            vanished.append(i)
            continue
        assert abs(xi2[i] - want.xi2) <= 1e-12 * want.xi2
        assert want.mean_spin[0] == want.mean_spin[1] == 0.0
        assert abs(mean[i, 2] - want.mean_spin[2]) <= 1e-13 * ops.total_spin
    assert vanished == ([amps.shape[1] - 1] if n > 1 else [])
    np.testing.assert_array_equal(np.flatnonzero(np.isinf(xi2)), vanished)


def _twist_rows(n):
    """Real rows r of twisted states a = (r_0, i r_1, r_2, i r_3, ...): xy twisting from |J,J> at
    9 times, 6 random rows and (N > 1) one with <J_z> = 0; and their complex amplitudes, by column."""
    h = n // 2 + 1
    evolved = _tat_states(n, 1.0, 9)(np.linspace(0.0, 40.0 / n, 9))
    rand = np.random.default_rng(n).normal(size=(6, h))
    rows = [evolved, rand / np.linalg.norm(rand, axis=1)[:, None]]
    if n > 1:
        m = build_operators(n).m_values[0::2]
        balanced = np.zeros((1, h))  # weights on m[0] > 0 and m[-1] < 0, zero mean
        balanced[0, 0] = np.sqrt(-m[-1] / (m[0] - m[-1]))
        balanced[0, -1] = np.sqrt(m[0] / (m[0] - m[-1]))
        rows.append(balanced)
    rows = np.concatenate(rows)
    amps = rows.T.astype(complex)
    amps[1::2] *= 1j
    return rows, amps


@pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 8, 9])
def test_twist_kernel_matches_squeezing_parameter(n):
    """Per row it gives squeezing_parameter of the twisted state: xi^2 and the mean spin along z,
    and MeanSpinVanishing exactly where that raises.  N = 6 and 7 (h = 4) and N = 8 and 9 (h = 5)
    cover both parities of h at each parity of N.

    Its <J_z> is the bits of `twist_moments`, its xi^2 and <J_z> are those of a C- or F-ordered
    block alike, and its <J_z> agrees with the Dicke-basis `sector_moments` samples of the complex
    amplitudes, whose mean spin has no transverse part."""
    ops = build_operators(n)
    rows, amps = _twist_rows(n)
    xi2, jz = twist_xi2(rows, ops)
    np.testing.assert_array_equal(twist_moments(rows, ops)[0], jz)
    np.testing.assert_array_equal(twist_xi2(np.asfortranarray(rows), ops), (xi2, jz))
    _, amp_mean = kernel_samples(amps.T, dicke_bands(ops.n_spins), ops.total_spin)
    assert np.abs(jz - amp_mean[:, 2]).max() <= 1e-13 * ops.total_spin
    assert np.all(amp_mean[:, :2] == 0.0)
    vanished = []
    for i, col in enumerate(amps.T):
        try:
            want = squeezing_parameter(even_sector_state(n, col), ops)
        except MeanSpinVanishing:
            vanished.append(i)
            continue
        assert abs(xi2[i] - want.xi2) <= 1e-12 * want.xi2
        assert abs(jz[i] - want.mean_spin[2]) <= 1e-13 * ops.total_spin
    assert vanished == ([len(rows) - 1] if n > 1 else [])
    np.testing.assert_array_equal(np.flatnonzero(np.isinf(xi2)), vanished)


@pytest.mark.parametrize("n", [40, 41])
def test_twist_state_buffer_is_reused_without_a_trace(n):
    """A scan's one state buffer, written by a larger block of other times first, gives the
    bits of a fresh buffer."""
    ts = np.linspace(0.0, 10.0 / n, 5)
    fresh = twist_xi2(_tat_states(n, 1.0, 5)(ts), build_operators(n))
    states_at = _tat_states(n, 1.0, 8)
    for _ in range(2):
        states_at(np.linspace(1.0 / n, 9.0 / n, 8))
        np.testing.assert_array_equal(twist_xi2(states_at(ts), build_operators(n)), fresh)


@pytest.mark.parametrize("n", [40, 41, 402, 403, 2000, 2001, 10**4])
def test_twist_kernel_matches_40_digit_arithmetic(n):
    """Near the TAT optimum, against (T - |P|) / J of the same double rows in 40-digit
    arithmetic with exact ladder coefficients L[k] = sqrt((k+1)(N-k)), within 1e-13 relative.

    The reference takes no float band data: the float `twist_band` alone moves it by 4.5e-11
    relative at N = 10^4."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    t_opt = tat_optimum(n).t_opt
    ts = t_opt * np.array([1.0 - 2e-4, 1.0, 1.0 + 2e-4])
    rows = _tat_states(n, 1.0, ts.size)(ts).copy()
    got, _ = twist_xi2(rows, build_operators(n))
    j = mp.mpf(n) / 2
    ladder = [mp.sqrt((k + 1) * (n - k)) for k in range(n)]
    for r, xi2 in zip(rows, got):
        r = [mp.mpf(float(x)) for x in r]
        transverse = mp.fsum((j * (j + 1) - (j - 2 * i) ** 2) * x * x for i, x in enumerate(r))
        im_p = mp.fsum((-1) ** i * ladder[2 * i] * ladder[2 * i + 1] * r[i] * r[i + 1] for i in range(len(r) - 1))
        exact = (transverse - abs(im_p)) / j
        assert abs(mp.mpf(float(xi2)) - exact) <= 1e-13 * exact, (n, xi2, exact)


def test_twist_kernel_is_smooth_at_the_optimum():
    """At N = 10^4, over +/-2e-4 t_opt around the optimum, a quadratic fits the scan's xi^2 within
    1e-12 relative: the kernel has no roundoff noise above that."""
    n = 10**4
    t_opt = tat_optimum(n).t_opt
    u = np.linspace(-2e-4, 2e-4, 41)
    xi2, _ = _tat_scan(n)(t_opt * (1.0 + u))
    fit = np.polyval(np.polyfit(u, xi2, 2), u)
    assert np.abs(xi2 - fit).max() <= 1e-12 * xi2.min()


@lru_cache(maxsize=1)
def _scheme_a_steps(n):
    """(start time, step, the state's coefficients in the step's basis at its start) of every step of a
    50-cycle schemeA run at default t_total, by the main line that `run_trace` runs; a period's first
    step is free twisting, so its coefficients are the Dicke amplitudes at the previous period end."""
    spec = ExperimentSpec("schemeA", n, 50, default_t_total("schemeA", n))
    psi = np.zeros(n // 2 + 1, dtype=complex)
    psi[0] = 1.0
    t, steps = 0.0, []
    for _ in range(spec.n_cycles):
        for step in spec.schedule.steps:
            coeffs = pair_coefficients(n, step.axis, psi) if step.axis else psi
            steps.append((t, step, coeffs))
            end = step_phases(n, step.axis, [step.duration])[0]
            psi = pair_amplitudes(n, step.axis, end * coeffs) if step.axis else coeffs * end
            t += step.duration
    return steps


def _scheme_a_optimum_period(n):
    """The steps of the schemeA run's period that contains d t_opt, the TAT optimum on its time axis."""
    steps = _scheme_a_steps(n)  # three a period: free, y pair, free
    t_opt = strength_divisor("schemeA") * tat_optimum(n).t_opt
    first = [i for i in range(0, len(steps), 3) if steps[i][0] <= t_opt][-1]
    return steps[first : first + 3]


def _exact_dicke_lambda(mp, n, amps):
    """lambda_min = (T - |P|)/2 of Dicke amplitudes in mpmath, T = J(J+1) - <J_z^2> and P = <J_+^2> from the
    exact ladder sqrt((k+1)(N-k))."""
    j = mp.mpf(n) / 2
    re, im = [mp.mpf(float(x)) for x in amps.real], [mp.mpf(float(x)) for x in amps.imag]
    ladder = [mp.sqrt((k + 1) * (n - k)) for k in range(n)]
    transverse = mp.fsum((j * (j + 1) - (j - 2 * i) ** 2) * (re[i] ** 2 + im[i] ** 2) for i in range(len(re)))
    coupling = [ladder[2 * i] * ladder[2 * i + 1] for i in range(len(re) - 1)]
    p_re = mp.fsum(c * (re[i] * re[i + 1] + im[i] * im[i + 1]) for i, c in enumerate(coupling))
    p_im = mp.fsum(c * (re[i] * im[i + 1] - im[i] * re[i + 1]) for i, c in enumerate(coupling))
    return (transverse - mp.sqrt(p_re**2 + p_im**2)) / 2


def _exact_pair_lambda(mp, n, coeffs):
    """lambda_min of pair eigen-coefficients c in mpmath, with no float band data: <J_x^2> = sum m^2 |c_m|^2,
    <J_z^2> = |Z c|^2 and <J_x J_y + J_y J_x> = i <[J_x^2, J_z]> from the exact ladder of Z = V^T J_z V
    (`propagate.pair_bands`), <J_y^2> = J(J+1) |c|^2 - <J_x^2> - <J_z^2>, then (T - |P|)/2."""
    j = mp.mpf(n) / 2
    c = [mp.mpc(complex(x)) for x in coeffs]
    m = [mp.mpf(n % 2) / 2 + k for k in range(len(c))]
    z = [mp.sqrt(j * (j + 1) - mk * (mk + 1)) / 2 for mk in m[:-1]]
    if n % 2 == 0 and z:
        z[0] *= mp.sqrt(2)
    zc = [mp.mpc(0)] * len(c)
    for k, zk in enumerate(z):
        zc[k] += zk * c[k + 1]
        zc[k + 1] += zk * c[k]
    if n % 2:
        zc[0] += (j + mp.mpf(1) / 2) / 2 * c[0]
    jx2 = mp.fsum(mk**2 * abs(ck) ** 2 for mk, ck in zip(m, c))
    jz2 = mp.fsum(abs(x) ** 2 for x in zc)
    jy2 = j * (j + 1) * mp.fsum(abs(ck) ** 2 for ck in c) - jx2 - jz2  # J^2 of a state not normalized to the bit
    anti = 2 * mp.fsum((2 * m[k] + 1) * zk * (mp.conj(c[k]) * c[k + 1]).imag for k, zk in enumerate(z))
    return (jx2 + jy2 - abs(mp.mpc(jx2 - jy2, anti))) / 2


@pytest.mark.parametrize("n", [40, 41, 2000, 2001, 10**4])
def test_pulse_samples_match_40_digit_arithmetic(n):
    """The kernel's xi^2 of a 50-cycle schemeA run's samples, against the same double coefficients in
    40-digit arithmetic, within 1e-12 relative: in the Dicke basis at the period end before d t_opt and
    at the run's last period start, in the pair basis at 1/3 and 2/3 of the y pair of that period."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    j = n / 2
    (_, free, psi), (_, pair, coeffs), _ = _scheme_a_optimum_period(n)
    assert not free.axis and pair.axis == "y"
    dicke = np.array([psi, _scheme_a_steps(n)[-3][2]])
    inside = step_phases(n, "y", [pair.duration / 3, 2 * pair.duration / 3]) * coeffs
    cases = ((dicke, dicke_bands(n), _exact_dicke_lambda), (inside, pair_bands(n), _exact_pair_lambda))
    for rows, bands, exact in cases:
        xi2 = sector_xi2(*sector_moments(rows, bands), j)
        for row, got in zip(rows, xi2):
            want = 2 * exact(mp, n, row) / (mp.mpf(n) / 2)
            assert abs(mp.mpf(float(got)) - want) <= 1e-12 * want, (n, got, want)


@pytest.mark.parametrize("basis", ["free", "pair"])
def test_pulse_samples_are_smooth_inside_a_step(basis):
    """At N = 10^4, the xi^2 of 41 samples evenly over +/-2e-4 d t_opt about the middle of a step of the
    period that contains d t_opt (schemeA, 50 cycles, default t_total; d = 3 the strength divisor and
    t_opt the TAT optimum, so d t_opt is the optimum on the run's time axis) is a smooth curve to 1e-12
    relative: the kernel has no roundoff noise above that.  The samples are a fine run's interior
    samples of that step: its coefficients times `step_phases`.  Inside the pair xi^2 moves fast (by
    more than a factor 2.5 over this window), so a quadratic misses it by 7.7e-5 there; a degree-6
    polynomial in u = (t - middle) / (2e-4 d t_opt) fits it (to 5.3e-14 inside the pair, against
    1.2e-9 with (T - |P|)/2)."""
    n = 10**4
    _, pair, free = _scheme_a_optimum_period(n)
    _, step, coeffs = pair if basis == "pair" else free
    u = np.linspace(-1.0, 1.0, 41)
    ts = step.duration / 2 + u * 2e-4 * strength_divisor("schemeA") * tat_optimum(n).t_opt
    assert 0.0 < ts[0] and ts[-1] < step.duration
    bands = pair_bands(n) if step.axis else dicke_bands(n)
    xi2 = sector_xi2(*sector_moments(step_phases(n, step.axis, ts) * coeffs, bands), n / 2)
    fit = np.polyval(np.polyfit(u, xi2, 6), u)
    assert np.abs(xi2 - fit).max() <= 1e-12 * xi2.min()


def _pair_columns(n):
    """A TAT-evolved and a random even-sector state: the starts of the pairs below."""
    h = n // 2 + 1
    fac = full_window(n)
    evolved = fac.eigenvectors @ (np.exp(-3j * fac.eigenvalues / n) * fac.eigenvectors[0])
    rng = np.random.default_rng(n)
    rand = rng.normal(size=h) + 1j * rng.normal(size=h)
    return evolved, rand / np.linalg.norm(rand)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n", [40, 41, 400, 401])
def test_pair_band_moments_match_the_amplitude_path(n, axis):
    """Samples inside a pair from its eigen-coefficients and `pair_bands` agree with the
    back-transformed amplitudes (`pair_evolve`) measured in the Dicke basis."""
    ops = build_operators(n)
    j = ops.total_spin
    ts = np.array([0.0, 0.3, 2.0, 7.0, 20.0]) / n
    for psi in _pair_columns(n):
        coeffs = pair_coefficients(n, axis, psi)
        got = kernel_samples(pair_twist(n, coeffs, 1.3, ts), pair_bands(n), j)
        amps = np.column_stack([pair_evolve(n, axis, coeffs, 1.3, t) for t in ts])
        want = kernel_samples(amps.T, dicke_bands(ops.n_spins), ops.total_spin)
        assert np.all(np.isfinite(want[0]))
        np.testing.assert_allclose(got[0], want[0], rtol=1e-9, atol=0.0)
        assert np.abs(got[1] - want[1]).max() <= 1e-9 * j


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n", [40, 41])
def test_pair_band_moments_of_a_row_do_not_depend_on_the_block(n, axis):
    """Each row of a k-row block gets the bits of a one-row call, from `pair_twist` on, in the pair
    basis and, on the same states' Dicke amplitudes and on twisted states, in the Dicke basis."""
    coeffs = pair_coefficients(n, axis, _pair_columns(n)[0])
    ts = np.linspace(0.0, 9.0 / n, 7)
    block = pair_twist(n, coeffs, 1.0, ts)
    for i, t in enumerate(ts):
        np.testing.assert_array_equal(pair_twist(n, coeffs, 1.0, [t])[0], block[i])
    amps = np.array([pair_evolve(n, axis, coeffs, 1.0, t) for t in ts])
    for rows, bands in ((block, pair_bands(n)), (amps, dicke_bands(n)), (_twist_rows(n)[1].T, dicke_bands(n))):
        moments = sector_moments(rows, bands)
        for i, row in enumerate(rows):
            for whole, single in zip(moments, sector_moments(row[None], bands)):
                assert whole[i].tobytes() == single[0].tobytes()


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n", [40, 41])
def test_vanishing_mean_spin_inside_a_pair_names_the_same_sample_on_both_paths(n, axis):
    """A row with <J_z> = 0 among pair samples raises MeanSpinVanishing at its own index,
    from the banded moments as from the back-transformed amplitudes."""
    ops = build_operators(n)
    balanced = _even_sector_columns(n)[:, -1]  # <J_z> = 0
    rows = [pair_twist(n, pair_coefficients(n, axis, psi), 1.0, [0.5 / n])[0] for psi in _pair_columns(n)]
    rows.insert(1, pair_coefficients(n, axis, balanced))
    rows.append(pair_coefficients(n, axis, balanced))
    block = np.array(rows)
    stamps = [(0.1 * i, 7 + i) for i in range(len(rows))]
    banded = kernel_samples(block, pair_bands(n), ops.total_spin)
    amps = np.column_stack([pair_evolve(n, axis, row, 1.0, 0.0) for row in block])
    for measured in (banded, kernel_samples(amps.T, dicke_bands(ops.n_spins), ops.total_spin)):
        np.testing.assert_array_equal(np.isinf(measured[0]), [False, True, False, True])
        with pytest.raises(MeanSpinVanishing, match="^sample 8 at"):
            _samples(stamps, *measured, ops.total_spin)


@pytest.mark.parametrize("n", [2000, 4001])
def test_even_sector_kernel_is_as_accurate_as_the_state_path(n):
    """Near the TAT optimum, against (T - |P|) / J in extended precision on the same amplitudes,
    the kernel's xi^2 error is at most twice that of squeezing_parameter on the full state."""
    ops = build_operators(n)
    fac = full_window(n)
    v, w = fac.eigenvectors, fac.eigenvalues
    ts = tat_optimum(n).t_opt * np.array([0.9, 1.0, 1.1])
    amps = v @ (np.exp(-1j * np.outer(w, ts)) * v[0][:, None])
    j = np.longdouble(ops.total_spin)
    re, im = amps.real.astype(np.longdouble), amps.imag.astype(np.longdouble)
    m = ops.m_values[0::2].astype(np.longdouble)
    transverse = ((j * (j + 1) - m * m)[:, None] * (re**2 + im**2)).sum(axis=0)
    band = ops.twist_band[0::2].astype(np.longdouble)[:, None]
    p_re = 2 * (band * (re[:-1] * re[1:] + im[:-1] * im[1:])).sum(axis=0)
    p_im = 2 * (band * (re[:-1] * im[1:] - im[:-1] * re[1:])).sum(axis=0)
    exact = (transverse - np.sqrt(p_re**2 + p_im**2)) / j
    measured = kernel_samples(amps.T, dicke_bands(n), ops.total_spin)[0]
    kernel = np.abs(measured - exact) / exact
    state = [squeezing_parameter(even_sector_state(n, col), ops).xi2 for col in amps.T]
    state_path = np.abs(np.array(state, dtype=np.longdouble) - exact) / exact
    assert kernel.max() <= 2 * state_path.max(), (kernel, state_path)


@pytest.mark.parametrize("n", [2, 3, 13, 40, 41, 805, 2000, 10**4])
def test_oat_closed_form_matches_50_digit_arithmetic(n):
    """oat_moments' xi^2 over the optimum scan's window [0, 5 N^(-2/3)], within 1e-12 relative.

    The window passes mu = 2 chi t = pi/2 for N <= 16, where cos mu < 0, and
    chi t = pi/2 for N <= 3, where the mean spin vanishes (+inf there).
    """
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    ts = np.linspace(0.0, 5.0 * n ** (-2.0 / 3.0), 201)
    assert (2.0 * ts[-1] > np.pi / 2.0) == (n <= 16)
    if ts[-1] > np.pi / 2.0:
        ts = np.append(ts, np.pi / 2.0)
    got = oat_moments(n, ts).xi2
    for t, xi2 in zip(ts, got):
        x = mp.mpf(float(t))
        if abs(mp.cos(x)) ** (n - 1) <= 1e-8:
            assert np.isinf(xi2)
            continue
        a = 1 - mp.cos(2 * x) ** (n - 2)
        b = 4 * mp.sin(x) * mp.cos(x) ** (n - 2)
        exact = 1 - mp.mpf(n - 1) / 4 * b**2 / (a + mp.sqrt(a**2 + b**2)) if t > 0 else mp.mpf(1)
        assert abs(mp.mpf(float(xi2)) - exact) <= 1e-12 * exact, (t, xi2)
    assert np.isinf(got).any() == (n <= 3)
