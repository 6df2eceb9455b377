import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spinsqueeze
from spinsqueeze.propagate import (
    EigenFactorization,
    pair_amplitudes,
    pair_coefficients,
    dicke_bands,
    pair_bands,
    pair_factorization,
    pair_store_bytes,
    real_product,
    twist_window,
)
from spinsqueeze import propagate, spin_ops, tolerances, tridiagonal
from spinsqueeze.spin_ops import NumericalConsistencyError, build_operators
from spinsqueeze.schedules import compile_scheme, free, pulse
from spinsqueeze.experiments import _tat_states, tat_optimum

from oracles import (HALF_PI, RECONSTRUCTION, UNITARITY, DenseFactorization, apply, coherent_state_z,
                     dense_jx, dense_jy, dense_jz, dense_pair_vectors, dense_twist_xy, even_sector_state,
                     evolve_free, evolve_twist, expanded_pair_vectors, factorize, full_window,
                     mean_spin, oat_evolved, pair_evolve, propagator, random_state, reconstruction_error, rotated,
                     schedule_unitary, squeezing_parameter, trotter_order_fit, twist_factorization,
                     unitary_distance)


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))


def random_even(n_spins: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_spins // 2 + 1) + 1j * rng.normal(size=n_spins // 2 + 1)
    return amps / np.linalg.norm(amps)


def test_oat_leaves_highest_weight_observables_alone():
    ops = build_operators(8)
    start = np.zeros(5, dtype=complex)
    start[0] = 1.0
    evolved = evolve_free(ops, start, chi=1.3, t=2.1)
    # |J,J> is an eigenstate of Jz^2: only a global phase moves
    assert abs(abs(evolved[0]) - 1.0) < 1e-14
    assert squeezing_parameter(even_sector_state(8, evolved), ops).xi2 == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), t=st.floats(-5, 5))
def test_oat_reverses_exactly(seed, t):
    ops = build_operators(22)
    amps = random_even(22, seed)
    back = evolve_free(ops, evolve_free(ops, amps, 0.7, t), 0.7, -t)
    assert np.abs(back - amps).max() <= 1e-12


def test_oat_zero_time_identity():
    amps = random_even(18, seed=1)
    np.testing.assert_array_equal(evolve_free(build_operators(18), amps, 1.0, 0.0), amps)


def test_single_spin_rotation_matrix():
    u = schedule_unitary(build_operators(1), [pulse("y", 1)], chi=1.0)
    expected = np.array(
        [[np.cos(np.pi / 4), -np.sin(np.pi / 4)], [np.sin(np.pi / 4), np.cos(np.pi / 4)]]
    )
    np.testing.assert_allclose(u, expected, atol=1e-14)


@pytest.mark.parametrize("n", [2, 9, 25, 40])
@pytest.mark.parametrize("chi_t", [0.1, 1.0, np.pi])
def test_pulse_conjugation_identities(n, chi_t):
    # +/- pi/2 pulses turn z^2 twisting into x^2 or y^2 twisting
    ops = build_operators(n)
    for axis, generator in (("x", dense_jy(ops)), ("y", dense_jx(ops))):
        pair = schedule_unitary(ops, [pulse(axis, 1), free(chi_t), pulse(axis, -1)], chi=1.0)
        target = expm(-1j * chi_t * np.asarray(generator @ generator))
        assert np.abs(pair - target).max() <= 1e-9


def test_rotation_axis_validation():
    with pytest.raises(ValueError):
        pulse("z", 1)
    with pytest.raises(ValueError):
        pulse("x", 2)


def test_twist_evolution_two_spins_against_expm():
    ops = build_operators(2)
    psi0 = coherent_state_z(2)
    state = evolve_twist(psi0, 1.0, np.pi / 4)
    expected = np.array([1 / np.sqrt(2), 0.0, -1j / np.sqrt(2)])
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)
    for t in (0.1, np.pi / 8, 0.6):
        evolved = evolve_twist(psi0, 1.0, t)
        oracle = expm(-1j * t * np.asarray(dense_twist_xy(ops), dtype=complex)) @ psi0.amplitudes
        np.testing.assert_allclose(evolved.amplitudes, oracle, atol=1e-12)


def test_twist_closed_form_squeezing_two_spins():
    ops = build_operators(2)
    state = evolve_twist(coherent_state_z(2), 1.0, np.pi / 8)
    assert squeezing_parameter(state, ops).xi2 == pytest.approx(1 - np.sin(np.pi / 4), abs=1e-12)


def test_twist_zero_time_identity():
    state = random_state(7, seed=5)
    np.testing.assert_allclose(evolve_twist(state, 2.0, 0.0).amplitudes, state.amplitudes, atol=1e-15)


@settings(max_examples=15, deadline=None)
@given(t1=st.floats(-1, 1), t2=st.floats(-1, 1), seed=st.integers(0, 2**31))
def test_twist_semigroup(t1, t2, seed):
    state = random_state(12, seed)
    once = evolve_twist(state, 1.0, t1 + t2)
    twice = evolve_twist(evolve_twist(state, 1.0, t1), 1.0, t2)
    assert np.abs(once.amplitudes - twice.amplitudes).max() <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 5, 21, 40])
def test_factorizations_reconstruct(n):
    ops = build_operators(n)
    assert reconstruction_error(twist_factorization(n), dense_twist_xy(ops)) <= 1e-8


@pytest.mark.parametrize("n", [4, 11, 30])
def test_dropping_conserved_total_spin_is_a_global_phase(n):
    ops = build_operators(n)
    j = n / 2
    tau = 0.37
    with_casimir = expm(-1j * tau * np.asarray(2 * dense_jx(ops) @ dense_jx(ops) + dense_jz(ops) @ dense_jz(ops)))
    twist_only = expm(-1j * tau * np.asarray(dense_twist_xy(ops), dtype=complex))
    assert np.abs(with_casimir - twist_only * np.exp(-1j * tau * j * (j + 1))).max() <= 1e-9
    assert unitary_distance(with_casimir, twist_only) <= 1e-9


def test_unitary_distance_examples():
    u = expm(-0.4j * dense_jy(build_operators(12)))
    assert unitary_distance(u, u) <= 1e-10
    assert unitary_distance(u, np.exp(1.23j) * u) <= 1e-9
    assert unitary_distance(u, np.asarray(u)) == unitary_distance(np.asarray(u), u)


def test_unitary_distance_degenerate_phase_warns():
    u1 = np.eye(2, dtype=complex)
    u2 = np.diag([1.0 + 0j, -1.0 + 0j])
    with pytest.warns(RuntimeWarning, match="phase-alignment degenerate"):
        assert unitary_distance(u1, u2) == pytest.approx(2.0, abs=1e-9)


def test_unitary_distance_shape_mismatch():
    with pytest.raises(ValueError):
        unitary_distance(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_spectral_norm_against_svd():
    """The distance is the largest singular value of the phase-aligned difference."""
    rng = np.random.default_rng(7)
    u1, u2 = (rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)) for _ in range(2))
    overlap = np.sum(u2.conj() * u1)
    diff = u1 - overlap / abs(overlap) * u2
    exact = np.linalg.svd(diff, compute_uv=False)[0]
    assert unitary_distance(u1, u2) == pytest.approx(exact, rel=1e-12)
    assert unitary_distance(u1, u2) < np.linalg.norm(diff)


def test_rotation_propagators_are_unitary():
    ops = build_operators(18)
    for axis in ("x", "y"):
        for sign in (1, -1):
            u = schedule_unitary(ops, [pulse(axis, sign)], chi=1.0)
            assert unitarity_defect(u) <= UNITARITY


def test_perturbed_unitary_and_factorization_exceed_the_tolerances():
    assert unitarity_defect(1.5 * np.eye(3, dtype=complex)) > UNITARITY
    ops = build_operators(10)
    fac = twist_factorization(10)
    assert reconstruction_error(fac, dense_twist_xy(ops)) <= RECONSTRUCTION
    assert reconstruction_error(fac, np.asarray(dense_twist_xy(ops)) + 1e-6) > RECONSTRUCTION


def test_schedule_unitary_is_unitary_and_norm_preserving():
    ops = build_operators(16)
    sched = compile_scheme("schemeB", 0.01, 1)
    u = schedule_unitary(ops, sched.segments, chi=1.0)
    assert unitarity_defect(u) <= 1e-9
    state = random_state(16, seed=11)
    amps = state.amplitudes
    for _ in range(100):
        amps = u @ amps
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-10


def test_one_period_matches_symmetric_split_target():
    # compiled second-order period vs its generator, exact up to the stated order
    ops = build_operators(20)
    dt = 1e-3
    sched = compile_scheme("schemeA", dt, 1)
    period = schedule_unitary(ops, sched.segments, chi=1.0)
    target = expm(-1j * dt * np.asarray(2 * dense_jx(ops) @ dense_jx(ops) + dense_jz(ops) @ dense_jz(ops)))
    assert unitary_distance(period, target) <= 10 * dt**3 * (20 / 2) ** 3


def test_order_scaling_slopes():
    fit1 = trotter_order_fit("liu1", 20, window=(1e-3, 1e-1))
    assert fit1.exponent == pytest.approx(2.0, abs=0.2)
    fit2 = trotter_order_fit("schemeA", 20, window=(1e-3, 1e-1))
    assert fit2.exponent == pytest.approx(3.0, abs=0.2)
    # The axis swap that keeps all free durations positive conjugates the
    # split-error operator, which re-introduces an uncancelled third-order
    # commutator term: the six-pulse period scales one order below the
    # coefficient pattern's nominal order.
    fit3 = trotter_order_fit("schemeB", 20, window=(1e-3, 1e-1))
    assert fit3.exponent == pytest.approx(3.0, abs=0.3)


def test_eigenfactorization_of_generic_hermitian():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(15, 15)) + 1j * rng.normal(size=(15, 15))
    mat = (mat + mat.conj().T) / 2
    fac = factorize(mat)
    assert reconstruction_error(fac, mat) <= 1e-10
    assert np.abs(propagator(fac, 0.8) - expm(-0.8j * mat)).max() <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 16, 21, 40])
def test_pair_factorization_is_jx_squared_on_the_even_sector(n):
    """One factorization gives J_x^2 and, through the (-1)^i gauge, J_y^2 on the even sector."""
    ops = build_operators(n)
    fac = DenseFactorization(pair_factorization(n).eigenvalues, expanded_pair_vectors(n))
    even = np.arange(0, n + 1, 2)
    jx_sq = np.asarray(dense_jx(ops) @ dense_jx(ops))[np.ix_(even, even)]
    jy_sq = np.asarray(dense_jy(ops) @ dense_jy(ops))[np.ix_(even, even)]
    assert reconstruction_error(fac, jx_sq) <= 1e-10 * n**2
    gauge = (-1.0) ** np.arange(even.size)
    assert np.abs(gauge[:, None] * gauge[None, :] * jx_sq - jy_sq).max() <= 1e-10 * n**2


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("n", [2, 9, 16])
def test_pair_evolution_matches_pulse_conjugated_twisting(axis, n):
    ops = build_operators(n)
    rng = np.random.default_rng(n)
    psi = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    psi /= np.linalg.norm(psi)
    full = np.zeros(n + 1, dtype=complex)
    full[0::2] = psi
    tau = 0.37
    pair = schedule_unitary(ops, [pulse(axis, 1), free(tau), pulse(axis, -1)], chi=1.0)
    expected = pair @ full
    got = pair_evolve(n, axis, pair_coefficients(n, axis, psi), 1.0, tau)
    assert np.abs(expected[1::2]).max() <= 1e-12
    assert np.abs(got - expected[0::2]).max() <= 1e-10
    free_full = oat_evolved(even_sector_state(n, psi), 1.3, 0.2).amplitudes
    np.testing.assert_array_equal(evolve_free(ops, psi, 1.3, 0.2), free_full[0::2])


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_pulse_frame_maps_mean_spin_through_the_pulse(axis, sign):
    """A sign * pi/2 pulse turns the mean spin by a quarter turn about `axis`: with sign = +1, the
    opening pulse of every pair, (0, 0, <J_z>) reads (<J_z>, 0, 0) after a y pulse and (0, -<J_z>, 0)
    after an x pulse, the map the pulse traces apply to samples inside a pair."""
    state = random_state(7, seed=4)
    x, y, z = mean_spin(state)
    turned = {"y": (sign * z, y, -sign * x), "x": (x, -sign * z, sign * y)}[axis]
    np.testing.assert_allclose(mean_spin(rotated(state, axis, sign * HALF_PI)), turned, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 40, 41])
def test_twist_blocks_are_built_from_the_band_values(n):
    """The parity blocks eigh sees equal the dense generator's blocks, bit for bit."""
    ops = build_operators(n)
    for start in (0, 1):
        idx = np.arange(start, n + 1, 2)
        band = ops.twist_band[start::2]
        block = np.diag(band, 1) + np.diag(band, -1)
        assert np.array_equal(block, dense_twist_xy(ops)[np.ix_(idx, idx)])


@pytest.mark.parametrize("n", [8, 9, 40, 41, 400, 401])
def test_pair_spectrum_is_exactly_the_squares(n):
    """J_x^2 on the even sector has the eigenvalues m^2, m = J mod 1, ..., J."""
    j = n / 2.0
    exact = np.arange(j % 1.0, j + 0.5) ** 2
    assert np.array_equal(pair_factorization(n).eigenvalues, exact)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 41, 400, 401, 1250, 1251])
def test_pair_vectors_are_dense_eigh_up_to_sign(n):
    """The recurrence's columns, expanded from their half-size store, are dense `eigh`'s eigenvectors of
    the even-sector J_x^2."""
    jx = dense_jx(build_operators(n)).real
    even = np.arange(0, n + 1, 2)
    _, v = np.linalg.eigh(jx[even] @ jx[:, even])
    vectors = expanded_pair_vectors(n)
    signs = np.sign(np.sum(v * vectors, axis=0))
    assert np.abs(vectors - v * signs).max() <= 1e-12
    assert vectors[0].min() >= 0.0  # d[0] = 1 > 0 fixes every sign


@pytest.mark.parametrize("axis", ["x", "y", pytest.param("", id="dicke")])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40, 41])
def test_pair_bands_are_the_moment_operators_in_the_pair_basis(n, axis):
    """The diagonals are those of dense W^T A W, W the (gauged, for x) pair eigenvectors or,
    for the Dicke bands of free twisting, the identity, for A = J_z, J(J+1) - J_z^2 and J_+^2 of
    the dense oracle operators on the even rows (the symmetric first two stored as their upper
    half); every entry off the listed diagonals is ~0."""
    ops = build_operators(n)
    h = n // 2 + 1
    j = ops.total_spin
    even = np.ix_(np.arange(0, n + 1, 2), np.arange(0, n + 1, 2))
    jz = dense_jz(ops)
    jplus = dense_jx(ops) + 1j * dense_jy(ops)
    if axis:
        gauge = (-1.0) ** np.arange(h) if axis == "x" else np.ones(h)
        w, bands = gauge[:, None] * expanded_pair_vectors(n), pair_bands(n, axis)
    else:
        w, bands = np.eye(h), dicke_bands(n)
    for operator, diagonals, symmetric in (
        (jz[even], bands.jz, True),
        ((j * (j + 1) * np.eye(n + 1) - jz @ jz)[even], bands.transverse, True),
        ((jplus @ jplus)[even], bands.twist, False),
    ):
        dense = w.T @ operator @ w
        banded = np.zeros_like(dense)
        for offset, diagonal in diagonals.items():
            assert 0 < diagonal.size <= h - abs(offset) and diagonal[-1] != 0.0
            assert not diagonal.flags.writeable
            full = np.zeros(h - abs(offset))
            full[: diagonal.size] = diagonal
            for mirror in {offset, -offset} if symmetric else {offset}:
                assert not symmetric or offset >= 0  # a symmetric band keeps its upper half
                np.testing.assert_allclose(full, np.diag(dense, mirror), rtol=0, atol=1e-12 * j**2)
                banded += np.diag(full, mirror)
        assert np.abs(dense - banded).max() <= 1e-12 * j**2


@pytest.fixture
def fresh_pair_factorization():
    pair_factorization.cache_clear()
    yield
    pair_factorization.cache_clear()


def test_pair_recurrence_off_its_ladder_raises(monkeypatch, fresh_pair_factorization):
    """A ladder off by 1e-9 at one step leaves m^2 no eigenvalue: the banded residual shows it, at
    both parities."""
    real = propagate.build_operators

    def corrupted(n_spins):
        ops = real(n_spins)
        ladder = ops.ladder.copy()
        ladder[n_spins // 3] *= 1.0 + 1e-9
        return replace(ops, ladder=ladder)

    monkeypatch.setattr(propagate, "build_operators", corrupted)
    for n in (400, 401):
        with pytest.raises(NumericalConsistencyError, match=f"pair eigenvectors at N={n}: residual"):
            pair_factorization(n)


def test_pair_vectors_off_unit_norm_raise(monkeypatch, fresh_pair_factorization):
    """A column of V scaled by 1 + 1e-9 in the store the recurrence wrote, where it stays an
    eigenvector: the orthogonality probe catches it, at both parities.  At even N it is column 7; at
    odd N, where the store is V_E (columns 0, 2, ...), column 6, which also scales its partner 7."""
    real = propagate._wigner_pair_vectors
    stretch = 1.0 + 1e-9

    def stretched(ops):
        store = real(ops)
        n, h = ops.n_spins, ops.n_spins // 2 + 1
        if n % 2:
            store[0][:, 3] *= stretch  # V's column 6
        else:
            plus = (n // 2 - np.arange(h)) % 2 == 0  # columns with (-1)^(J-m) = +1, stored in store[0]
            block = store[0] if plus[7] else store[1]
            block[:, np.flatnonzero(plus == plus[7]).tolist().index(7)] *= stretch
        return store

    monkeypatch.setattr(propagate, "_wigner_pair_vectors", stretched)
    for n in (400, 401):
        with pytest.raises(NumericalConsistencyError, match="orthogonality drift"):
            pair_factorization(n)


@pytest.mark.parametrize("n,block", [(400, 0), (400, 1), (401, 0), (402, 0), (402, 1)])
def test_pair_residual_sees_a_corrupted_last_row(monkeypatch, fresh_pair_factorization, n, block):
    """One entry of a block's last row, off by 1e-9 in the store the recurrence wrote, breaks the
    eigen-equation of V's rows next to it: the residual, taken from the finished store, exceeds
    PAIR_RESIDUAL for both blocks at odd h (N = 400, where the sign -1 block ends above the zero
    middle row) and even h (N = 402), and for V_E's last row at N = 401."""
    real = propagate._wigner_pair_vectors

    def corrupted(ops):
        store = real(ops)
        store[block][-1, 1] += 1e-9
        return store

    monkeypatch.setattr(propagate, "_wigner_pair_vectors", corrupted)
    with pytest.raises(NumericalConsistencyError, match=f"pair eigenvectors at N={n}: residual") as raised:
        pair_factorization(n)
    assert float(re.search(r"residual (\S+),", str(raised.value)).group(1)) > tolerances.PAIR_RESIDUAL


def test_pair_vectors_do_not_depend_on_the_blas_thread_count():
    """The store is built without BLAS and its products are small GEMMs: at N = 2000 and 2001, its bytes
    and a schemeA CSV hash alike under 1 and 2 OpenBLAS threads."""
    script = """
import contextlib, hashlib, io
from spinsqueeze import cli
from spinsqueeze.propagate import pair_factorization
for n in (2000, 2001):
    digest = hashlib.sha256(b"".join(block.tobytes() for block in pair_factorization(n).store))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["simulate", "--scheme", "schemeA", "--n-spins", str(n), "--n-cycles", "50"]) == 0
    digest.update(out.getvalue().encode())
    print(digest.hexdigest())
"""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert len(digests[0].split()) == 2 and digests[0] == digests[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 40, 41, 400, 401, 2000, 2001])
def test_half_size_products_are_the_dense_v_products(n):
    """`pair_coefficients` and `pair_amplitudes` from the store equal V^T x and V x with the dense V of
    the recurrence the store replaced, about both axes, for a unit x."""
    h = n // 2 + 1
    v = dense_pair_vectors(n)
    rng = np.random.default_rng(n)
    x = rng.normal(size=h) + 1j * rng.normal(size=h)
    x /= np.linalg.norm(x)
    for axis, gauge in (("y", np.ones(h)), ("x", (-1.0) ** np.arange(h))):
        assert np.abs(pair_coefficients(n, axis, x) - v.T @ (gauge * x)).max() <= 1e-13
        assert np.abs(pair_amplitudes(n, axis, x) - gauge * (v @ x)).max() <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 40, 41, 400, 401])
def test_pair_vectors_have_the_symmetries_the_store_keeps(n):
    """On dense `eigh` eigenvectors of the even-sector J_x^2, each column's sign that of d^J(pi/2), whose
    entries grow from m_z = J with no change of sign (the first above 1e-8 is taken positive): at
    even N, rows m_z and -m_z agree up to the column sign (-1)^(J-m); at odd N, the rows ordered by
    |m_z| = J, J - 1, ... and the columns by m = J, J - 1, ... make a symmetric S, and the store's
    pairing holds, W V_E = V_O D with V_E's last column sent to 0 at odd h (`OddPairing`)."""
    jx = dense_jx(build_operators(n)).real
    even = np.arange(0, n + 1, 2)
    _, v = np.linalg.eigh(jx[even] @ jx[:, even])  # columns m = J mod 1, ..., J
    h = v.shape[0]
    v *= np.sign(v[np.argmax(np.abs(v) > 1e-8, axis=0), np.arange(h)])
    if n % 2 == 0:
        sign = (-1.0) ** (n // 2 - np.arange(h))
        assert np.abs(v[::-1] - v * sign).max() <= 1e-13
    else:
        s = v[[k // 2 if k % 2 == 0 else (n - k) // 2 for k in range(h)]][:, ::-1]
        assert np.abs(s - s.T).max() <= 1e-13
        pairing = propagate._odd_pairing(n)
        partners = np.zeros((h, h - h // 2))
        partners[:, : h // 2] = v[:, 1::2] / pairing.inverse_d
        assert np.abs(pairing.apply(v[:, 0::2]) - partners).max() <= 1e-13 * n


def test_pair_factorization_keeps_half_of_v():
    """The factorization holds no eigenvectors field and no h x h array; in a fresh process, with the
    operators' band data built first, the tracemalloc peak of building it at N = 2000 and 2001 is
    at most 0.55 of the 8 h^2 bytes of a dense V, and its store is `pair_store_bytes`."""
    assert "eigenvectors" not in EigenFactorization.__dataclass_fields__
    for n in (400, 401):
        h = n // 2 + 1
        store = pair_factorization(n).store
        assert all(block.shape != (h, h) and not block.flags.writeable for block in store)
    script = """
import tracemalloc
from spinsqueeze.propagate import pair_factorization, pair_store_bytes
from spinsqueeze.spin_ops import build_operators
for n in (2000, 2001):
    h = n // 2 + 1
    build_operators(n)
    tracemalloc.start()
    fac = pair_factorization(n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert sum(block.nbytes for block in fac.store) == pair_store_bytes(n)
    assert peak <= 0.55 * 8 * h * h, (n, peak / (8 * h * h))
"""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("h", [1, 2, 3, 63, 64, 65, 626, 1001, 2001])
def test_real_product_is_the_dense_product(h):
    """Both row-blocked products equal dense V x and V^T x, across block remainders and below one block."""
    rng = np.random.default_rng(h)
    v = rng.normal(size=(h, h)) / np.sqrt(h)
    x = rng.normal(size=h) + 1j * rng.normal(size=h)
    bound = 1e-13 * np.linalg.norm(x)
    assert np.abs(real_product(v, x) - v @ x).max() <= bound
    assert np.abs(real_product(v, x, transpose=True) - v.T @ x).max() <= bound


def test_real_product_does_not_depend_on_the_blas_thread_count():
    """Both products hash alike under 1 and 2 OpenBLAS threads at h = 2001 and 5001."""
    script = """
import hashlib
import numpy as np
from spinsqueeze.propagate import real_product
for h in (2001, 5001):
    rng = np.random.default_rng(h)
    v = rng.normal(size=(h, h))
    x = rng.normal(size=h) + 1j * rng.normal(size=h)
    print(hashlib.sha256(real_product(v, x).tobytes() + real_product(v, x, transpose=True).tobytes()).hexdigest())
"""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]


def test_pair_factorization_cache_holds_two_spin_numbers(fresh_pair_factorization):
    for n in (10, 11, 12):
        pair_factorization(n)
    assert pair_factorization.cache_info().currsize <= 2


def test_oversized_dense_arrays_are_refused_before_allocating(monkeypatch):
    """The pair eigenvectors' store and the twist window check memory; the band data does not.

    Under a 1 GiB limit: at N = 10^6 (h = 500001) the pair store needs 1 TB and the first twist
    window 1.5 GB, and neither starts its solve.
    """
    monkeypatch.setattr(spin_ops, "memory_limit_bytes", lambda: 2**30)
    n = 10**6
    assert build_operators(n).dim == n + 1
    with pytest.raises(ValueError, match="memory"):
        pair_factorization(n)
    with pytest.raises(ValueError, match="memory"):
        twist_window(n)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40, 41])
def test_twist_window_is_the_whole_even_block_at_small_n(n):
    h = n // 2 + 1
    fac = full_window(n)
    assert fac.eigenvectors.shape == (h, h)
    band = build_operators(n).twist_band[0::2]
    np.testing.assert_allclose(
        fac.eigenvalues, np.linalg.eigvalsh(np.diag(band, 1) + np.diag(band, -1)), atol=1e-12 * n**2
    )


@pytest.mark.parametrize("n", [400, 401, 402, 403, 2000])
def test_twist_window_states_match_dense_twisting(n):
    """V (exp(-i w t) V[0]) on the mirrored window, and the real cos/sin rows r the ideal-TAT
    path uses on the split one (a_i = r_i at even i, i r_i at odd i), are
    exp(-i t (J_x^2 - J_y^2))|J,J>, odd rows zero.

    N = 402 and 403 (h = 202) have no null vector, and the lower edge is a mirror."""
    fac = full_window(n)
    assert fac.eigenvectors.shape[1] < n // 2 + 1
    start = np.zeros(n // 2 + 1, dtype=complex)
    start[0] = 1.0
    ts = np.linspace(0.0, 10.0 / n, 5)
    states = _tat_states(n, 1.0, ts.size)(ts).astype(complex)
    states[:, 1::2] *= 1j
    for t, state in zip(ts, states):
        dense = evolve_twist(coherent_state_z(n), 1.0, t).amplitudes
        assert np.abs(dense[1::2]).max() == 0.0
        assert np.abs(apply(fac, start, t) - dense[0::2]).max() <= 1e-12
        assert np.abs(state - dense[0::2]).max() <= 1e-12


def test_twist_window_does_not_depend_on_the_blas_thread_count():
    """The window's bytes hash alike under 1 and 2 OpenBLAS threads at N = 2001."""
    script = """
import hashlib
from spinsqueeze.propagate import twist_window
win = twist_window(2001)
print(hashlib.sha256(win.even.tobytes() + win.odd.tobytes() + win.values.tobytes()).hexdigest())
"""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout)
    assert digests[0] == digests[1]


def test_twist_window_off_its_band_raises(monkeypatch, fresh_twist_window):
    """Eigenpairs of a band off by 1e-9 at one step fail the banded residual against the true band."""
    real = tridiagonal.window_eigenpairs

    def corrupted(band, count, what):
        band = band.copy()
        band[band.size // 3] *= 1.0 + 1e-9
        return real(band, count, what)

    monkeypatch.setattr(tridiagonal, "window_eigenpairs", corrupted)
    with pytest.raises(NumericalConsistencyError, match="twist window at N=2001: residual"):
        twist_window(2001)


def test_twist_window_off_unit_norm_raises(monkeypatch, fresh_twist_window):
    """A solved vector scaled by 1 + 1e-9 is still an eigenvector; the orthogonality probe catches it.

    It is the one |J,J> overlaps least, so the captured weight stays within bounds; its
    even rows and its odd rows are scaled alike.
    """
    real = tridiagonal.window_eigenpairs

    def stretched(band, count, what):
        w, even, odd = real(band, count, what)
        null = w.size - odd.shape[1]  # the null vector's column leads `even` at odd h
        col = np.argmin(np.abs(even[0, null:]))
        even[:, null + col] *= 1.0 + 1e-9
        odd[:, col] *= 1.0 + 1e-9
        return w, even, odd

    monkeypatch.setattr(tridiagonal, "window_eigenpairs", stretched)
    with pytest.raises(NumericalConsistencyError, match="twist window at N=2001: .*orthogonality drift"):
        twist_window(2001)


@pytest.fixture
def fresh_twist_window():
    twist_window.cache_clear()
    yield
    twist_window.cache_clear()


def test_narrow_first_window_widens_until_its_edges_vanish(monkeypatch, fresh_twist_window):
    monkeypatch.setattr(propagate, "TWIST_WINDOW_HALF_WIDTH", 4)
    v = full_window(400).eigenvectors
    assert 9 < v.shape[1] < 201
    assert max(abs(v[0, 0]), abs(v[0, -1])) <= tolerances.TWIST_WINDOW_EDGE
    start = np.zeros(201, dtype=complex)
    start[0] = 1.0
    dense = evolve_twist(coherent_state_z(400), 1.0, 0.0125).amplitudes
    assert np.abs(apply(full_window(400), start, 0.0125) - dense[0::2]).max() <= 1e-12


def test_loose_window_edge_raises_instead_of_truncating(monkeypatch, fresh_twist_window):
    """An edge test that accepts a narrow window is caught by the captured-weight check."""
    monkeypatch.setattr(tolerances, "TWIST_WINDOW_EDGE", 1.0)
    monkeypatch.setattr(propagate, "TWIST_WINDOW_HALF_WIDTH", 4)
    with pytest.raises(NumericalConsistencyError, match="misses weight"):
        twist_window(400)


@pytest.mark.parametrize("n,widths", [(10**4 + 1, [193]), (10**4 + 2, [192, 384])], ids=["10001", "10002"])
def test_twist_window_widens_only_while_its_edge_check_fails(monkeypatch, fresh_twist_window, n, widths):
    """The first window has TWIST_WINDOW_HALF_WIDTH positive pairs at every N; past 10^4 it doubles only
    where that width fails the edge check, and the final window is the first that passes."""
    real, solved = tridiagonal.window_eigenpairs, []

    def counting(band, count, what):
        solved.append(2 * count + (band.size + 1) % 2)  # columns of the mirrored window
        return real(band, count, what)

    monkeypatch.setattr(tridiagonal, "window_eigenpairs", counting)
    assert full_window(n).eigenvectors.shape[1] == widths[-1]
    assert solved == widths


def test_tat_optimum_does_not_depend_on_the_first_window_width(monkeypatch, fresh_twist_window):
    """At N = 2*10^4 the default first window (solves 193 and 385 columns) and one started at 384 pairs
    (769 columns) give the same optimum: xi^2 within 1e-12 relative and the same t_opt."""
    n = 2 * 10**4
    tat_optimum.cache_clear()
    default = tat_optimum(n)
    twist_window.cache_clear()
    tat_optimum.cache_clear()
    monkeypatch.setattr(propagate, "TWIST_WINDOW_HALF_WIDTH", 384)
    wide = tat_optimum(n)
    tat_optimum.cache_clear()
    assert twist_window(n).values.size == 385
    assert wide.t_opt == default.t_opt
    assert abs(wide.xi2_min - default.xi2_min) <= 1e-12 * wide.xi2_min
