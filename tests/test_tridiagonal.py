"""The numpy window eigensolver against LAPACK (scipy) and dense eigh, on TAT blocks and a clustered spectrum."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import spinsqueeze
from spinsqueeze import tridiagonal
from spinsqueeze.spin_ops import build_operators

from oracles import mirrored_window


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 40, 41, 400, 401, 2000, 2001])
def test_window_solver_matches_stebz_and_dense_eigh(n):
    """The numpy window solver against LAPACK's bisection (stebz) and dense eigh of the even block."""
    band = build_operators(n).twist_band[0::2]
    h = band.size + 1
    count = min(96, h // 2)
    values, even, odd = tridiagonal.window_eigenpairs(band, count, "test window")
    assert even.flags.f_contiguous and odd.flags.f_contiguous
    assert values.size == count + h % 2 and odd.shape == (h // 2, count)
    w, v = mirrored_window(values, even, odd)
    lo, hi = h // 2 - count, (h - 1) // 2 + count
    dense_w, dense_v = np.linalg.eigh(np.diag(band, 1) + np.diag(band, -1))
    stebz_w, stebz_v = scipy.linalg.eigh_tridiagonal(
        np.zeros(h), band, select="i", select_range=(lo, hi), lapack_driver="stebz"
    )
    norm = np.abs(dense_w).max()
    for ref_w, ref_v in ((stebz_w, stebz_v), (dense_w[lo : hi + 1], dense_v[:, lo : hi + 1])):
        assert np.abs(w - ref_w).max() <= 8 * np.finfo(float).eps * norm
        signs = np.sign(np.einsum("ij,ij->j", v, ref_v))
        assert np.abs(v * signs - ref_v).max() <= 1e-12
    # The first-order step takes it from about 1e-14 (N >= 400) to below 2e-15.
    assert np.abs(v.T @ v - np.eye(hi - lo + 1)).max() <= 20 * np.finfo(float).eps
    for x in (even, odd):
        assert np.abs(x.T @ x - np.eye(x.shape[1])).max(initial=0.0) <= 20 * np.finfo(float).eps
    if h % 2:
        assert values[0] == 0.0


def counted_sweeps(monkeypatch) -> list:
    calls, real = [], tridiagonal._sturm_sweep

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(tridiagonal, "_sturm_sweep", counting)
    return calls


@pytest.mark.parametrize("n", [8, 40, 400, 2000, 2001])
def test_window_solver_needs_few_sweeps(monkeypatch, n):
    """Multisection, tightening and Newton take at most 12 passes over the rows.

    At even N, shifts where a leading block's pivot vanishes exactly would stall
    Newton into bisection (24 to 60 passes) if they did not move by one ulp.
    """
    calls = counted_sweeps(monkeypatch)
    band = build_operators(n).twist_band[0::2]
    h = band.size + 1
    tridiagonal.window_eigenpairs(band, min(96, h // 2), "test window")
    assert len(calls) <= 12


@pytest.mark.parametrize("h", [20, 21])
def test_window_solver_keeps_newton_inside_its_bracket(monkeypatch, h):
    """Weakly coupled dimers cluster the spectrum near +/-1: Newton started mid-bracket would leave it."""
    monkeypatch.setattr(tridiagonal, "TIGHTENING_SWEEPS", 0)
    calls = counted_sweeps(monkeypatch)
    band = np.where(np.arange(h - 1) % 2 == 0, 1.0, 1e-3) * (1.0 + 0.1 * np.cos(np.arange(h - 1)))
    w, v = mirrored_window(*tridiagonal.window_eigenpairs(band, h // 2, "test window"))
    stebz = scipy.linalg.eigh_tridiagonal(np.zeros(h), band, eigvals_only=True, lapack_driver="stebz")
    np.testing.assert_allclose(w, stebz, rtol=0, atol=8 * np.finfo(float).eps)
    dense = np.diag(band, 1) + np.diag(band, -1)
    assert np.abs(dense @ v - v * w).max() <= 1e-15
    assert len(calls) <= 12


def test_window_solve_does_not_import_numpy_ma():
    """A fresh process solves a twist window, for a TAT optimum, without importing numpy.ma (10-16 ms)."""
    script = """
import sys
from spinsqueeze.experiments import tat_optimum
tat_optimum(400)
assert "numpy.ma" not in sys.modules
"""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
