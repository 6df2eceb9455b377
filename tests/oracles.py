"""Reference paths the tests hold the production engine to; no library code calls them.

* `mirrored_window` / `full_window`: a `TwistWindow` mirrored into the full
  (N//2 + 1) x k eigenvector matrix of the window, negative eigenvalues
  included, as one `EigenFactorization`.
* `evolve_free`, `pair_twist`, `pair_evolve`: free z^2 twisting and pulse
  pairs applied one state at a time, the amplitude path that the banded pair
  moments and the batched traces are checked against.
"""

import math

import numpy as np

from spinsqueeze.propagate import (
    EigenFactorization,
    free_phases,
    pair_amplitudes,
    pair_phases,
    twist_window,
)
from spinsqueeze.spin_ops import SpinOperators


def mirrored_window(values: np.ndarray, even: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The window's eigenvalues, ascending, and its h x k unit eigenvectors, column-major.

    From the split form of `tridiagonal.window_eigenpairs`: v(lambda) has even
    rows even/sqrt 2 and odd rows odd/sqrt 2, v(-lambda) = diag((-1)^i) v(lambda)
    is its mirror, and at odd h the null vector (lambda = 0) lives on the even rows.
    """
    h = even.shape[0] + odd.shape[0]
    null = h % 2
    pos = odd.shape[1]
    k = 2 * pos + null
    lam, top, bottom = values[null:], even[:, null:] / math.sqrt(2.0), odd / math.sqrt(2.0)
    w = np.zeros(k)
    v = np.zeros((h, k), order="F")
    w[k - pos :] = lam
    v[0::2, k - pos :] = top
    v[1::2, k - pos :] = bottom
    w[:pos] = -lam[::-1]
    v[0::2, :pos] = top[:, ::-1]
    v[1::2, :pos] = -bottom[:, ::-1]
    v[0::2, pos : pos + null] = even[:, :null]
    return w, v


def full_window(n_spins: int) -> EigenFactorization:
    """`twist_window` of N spins as the full eigenvector window, by `mirrored_window`."""
    win = twist_window(n_spins)
    return EigenFactorization(*mirrored_window(win.values, win.even, win.odd))


def evolve_free(ops: SpinOperators, amps: np.ndarray, chi: float, t: float) -> np.ndarray:
    """exp(-i chi J_z^2 t) on an even-sector amplitude vector."""
    return amps * free_phases(ops, chi, t)


def pair_twist(n_spins: int, coeffs: np.ndarray, chi: float, ts) -> np.ndarray:
    """The eigen-coefficients exp(-i chi t m^2) c of a pair's state at each time t into it, one row per t.

    `coeffs` are the `pair_coefficients` c of the state the pair starts from.
    Between the two pulses the true state is the opening pulse applied to
    V times a row; at t = tau, the pair's free time, the closing pulse undoes
    it.  A row's bits do not depend on the other times.
    """
    return pair_phases(n_spins, chi, ts) * coeffs


def pair_evolve(n_spins: int, axis: str, coeffs: np.ndarray, chi: float, t: float) -> np.ndarray:
    """exp(-i chi t J_b^2) psi from the `pair_coefficients` of psi, with b the axis twisted about.

    At t = tau, the pair's free time, this is the state after the pair.
    """
    return pair_amplitudes(n_spins, axis, pair_twist(n_spins, coeffs, chi, [t])[0])
