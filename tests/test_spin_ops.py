import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import spin_ops
from spinsqueeze.spin_ops import build_operators

from oracles import (HALF_PI, apply_jx, apply_jy, apply_jz, coherent_state_x, coherent_state_z, dense_jx, dense_jy,
                     dense_jz, dense_twist_xy, mean_spin, random_state, rotated)


def test_single_spin_matrices():
    ops = build_operators(1)
    np.testing.assert_allclose(np.diag(dense_jz(ops)), [0.5, -0.5])
    np.testing.assert_allclose(dense_jx(ops), [[0, 0.5], [0.5, 0]], atol=1e-15)
    np.testing.assert_allclose(dense_jy(ops), [[0, -0.5j], [0.5j, 0]], atol=1e-15)


def test_two_spin_ladder_coefficients():
    ops = build_operators(2)
    np.testing.assert_allclose(np.diag(dense_jz(ops)), [1.0, 0.0, -1.0])
    off = np.diag(np.asarray(dense_jx(ops)), 1)
    np.testing.assert_allclose(off, [1 / np.sqrt(2), 1 / np.sqrt(2)])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 24, 50])
def test_casimir_identity(n):
    ops = build_operators(n)
    j = n / 2
    jx, jy, jz = dense_jx(ops), dense_jy(ops), dense_jz(ops)
    total = jx @ jx + jy @ jy + jz @ jz
    assert np.abs(total - j * (j + 1) * np.eye(n + 1)).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=100))
def test_commutator_and_hermiticity(n):
    ops = build_operators(n)
    jx, jy, jz = dense_jx(ops), dense_jy(ops), dense_jz(ops)
    for mat in (jx, jy, jz):
        assert np.abs(mat - mat.conj().T).max() <= 1e-12
    comm = jx @ jy - jy @ jx - 1j * jz
    assert np.abs(comm).max() <= 1e-10


def test_twist_matches_dense_difference_and_is_pentadiagonal():
    ops = build_operators(13)
    jx, jy = dense_jx(ops), dense_jy(ops)
    dense = jx @ jx - jy @ jy
    assert np.abs(dense_twist_xy(ops) - dense).max() <= 1e-12
    # only couplings two steps apart; everything else exactly zero
    tw = np.asarray(dense_twist_xy(ops))
    for offset in range(14):
        band = np.diag(tw, offset)
        if offset == 2:
            assert np.all(band != 0)
        else:
            assert np.all(band == 0)


def test_twist_parity_blocks_do_not_couple():
    tw = np.asarray(dense_twist_xy(build_operators(17)))
    even = np.arange(0, 18, 2)
    odd = np.arange(1, 18, 2)
    assert np.all(tw[np.ix_(even, odd)] == 0)
    assert np.all(tw[np.ix_(odd, even)] == 0)


@pytest.mark.parametrize("bad", [0, -3])
def test_build_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        build_operators(bad)


def test_coherent_state_is_highest_weight():
    state = coherent_state_z(4)
    np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0, 0])
    np.testing.assert_allclose(mean_spin(state), [0, 0, 2], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 40, 41])
def test_x_polarized_start_is_the_rotated_highest_weight_state(n):
    """sqrt(C(N, k)) / 2^(N/2), all positive, is exp(-i pi/2 J_y)|J,J> in this basis."""
    closed = coherent_state_x(n).amplitudes
    assert np.all(closed.real > 0.0) and np.all(closed.imag == 0.0)
    dense = rotated(coherent_state_z(n), "y", HALF_PI).amplitudes
    assert np.abs(closed - dense).max() <= 1e-14


def test_expectation_examples():
    """<J_z> = J and <J_x^2> = J/2 in |J,J>, from the banded products."""
    ops = build_operators(6)
    amps = coherent_state_z(6).amplitudes
    assert np.vdot(amps, apply_jz(ops, amps)).real == pytest.approx(3.0, abs=1e-12)
    jx_amps = apply_jx(ops, amps)
    assert np.vdot(jx_amps, jx_amps).real == pytest.approx(1.5, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=40), seed=st.integers(0, 2**31))
def test_banded_applications_match_dense(n, seed):
    ops = build_operators(n)
    amps = random_state(n, seed).amplitudes
    np.testing.assert_allclose(apply_jx(ops, amps), dense_jx(ops) @ amps, atol=1e-12)
    np.testing.assert_allclose(apply_jy(ops, amps), dense_jy(ops) @ amps, atol=1e-12)
    np.testing.assert_allclose(apply_jz(ops, amps), dense_jz(ops) @ amps, atol=1e-12)


def test_operator_arrays_are_immutable():
    ops = build_operators(5)
    with pytest.raises(ValueError):
        dense_jx(ops)[0, 0] = 1.0


def test_dense_size_check_against_memory():
    from spinsqueeze.spin_ops import check_fits, memory_limit_bytes

    check_fits(16 * 1000 * 1000, "small needs")
    with pytest.raises(ValueError, match="big needs"):
        check_fits(2 * memory_limit_bytes(), "big needs")


def test_band_data_is_checked_against_memory_before_it_is_allocated(monkeypatch):
    """build_operators counts its peak, four arrays of N + 1 floats, and refuses before allocating any."""
    n = 200_001
    need = 4 * 8 * (n + 1)
    monkeypatch.setattr(spin_ops, "memory_limit_bytes", lambda: need - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"operator band data at N={n} needs .* of memory available"):
            build_operators.__wrapped__(n)  # uncached
        refused_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        monkeypatch.setattr(spin_ops, "memory_limit_bytes", lambda: need)
        ops = build_operators.__wrapped__(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ops.dim == n + 1
    assert refused_peak < 8 * (n + 1)  # not one array was allocated
    assert need - 8 * (n + 1) < peak <= need + 2**12  # the count is the peak, up to the Python objects
