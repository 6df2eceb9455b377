"""Kitagawa-Ueda squeezing parameter and trace containers.

xi^2 = 2 * (minimal spin variance perpendicular to the mean spin) / J,
normalized so a coherent state gives exactly 1.  Every production sample
comes from a closed form: an even-sector state from one kernel,
`sector_moments`, whose smallest transverse variance is a sum of squares
(a pulse run's states, from their coefficients in the basis of the step
they are in), or from its real-row fast path `twist_moments` (`twist_xi2`:
the xy-twisted states of the ideal-TAT trace and the TAT scan), both
through `sector_xi2`; z^2 twisting from `oat_moments`.  A sample is xi^2
and the mean spin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin_ops import SpinOperators

MEAN_SPIN_EPS_FACTOR = 1e-8


class MeanSpinVanishing(ValueError):
    """The mean spin is too short to define a transverse plane."""


@dataclass(frozen=True)
class SqueezingSample:
    t: float
    xi2: float
    mean_spin: np.ndarray


@dataclass(frozen=True)
class SqueezingTrace:
    samples: tuple[SqueezingSample, ...]
    n_spins: int
    n_cycles: int

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def xi2(self) -> np.ndarray:
        return np.array([s.xi2 for s in self.samples])


@dataclass(frozen=True)
class Optimum:
    t_opt: float
    xi2_min: float


def twist_moments(rows: np.ndarray, ops: SpinOperators):
    """<J_z> and lambda_pm = <J_theta^2> at theta = pi/4 and 3 pi/4 of every row r of a k x (N//2 + 1) real block.

    `sector_moments`' Dicke case on real numbers, for the ideal-TAT trace and
    the TAT scan.  Row r stands for the even-sector state a_i = r_i at even i
    and i r_i at odd i, the form xy twisting keeps from |J,J>
    (`propagate.TwistWindow`).  There P = <J_+^2> is imaginary, so the
    transverse variance is extremal at theta in {pi/4, 3 pi/4}:
    J_theta psi = w_pm/2 on the odd Dicke rows, with
    w_pm,i = L[2i] r_i +/- (-1)^i L[2i+1] r_(i+1) (L = `ladder`; at odd N the
    last row is L[N-1] r_(h-1) alone).  So T = lambda_+ + lambda_-, Im P =
    lambda_+ - lambda_-, and min(lambda_pm) = (T - |P|)/2 is a sum of squares,
    free of the cancellation between two numbers of size J^2.  Each row is
    summed as one contiguous row with no BLAS product: its bits depend neither
    on k nor on the block's memory order.
    """
    rows = np.ascontiguousarray(rows)
    tail = rows[:, 1:] * (ops.ladder[1::2] * (-1.0) ** np.arange(rows.shape[1] - 1))
    w = np.empty((rows.shape[0], (ops.n_spins + 1) // 2))  # w_+, then w_-: two k x N/2 temporaries in all
    lam = []
    for combine in (np.add, np.subtract):
        np.multiply(rows[:, : w.shape[1]], ops.ladder[0::2], out=w)
        combine(w[:, : tail.shape[1]], tail, out=w[:, : tail.shape[1]])
        lam.append(np.einsum("ij,ij->i", w, w) / 4.0)
    return np.einsum("ij,ij,j->i", rows, rows, ops.m_values[0::2]), *lam


def _mapped(diagonals: dict, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The banded map of `diagonals` (`propagate.Bands`: offset d from row max(-d, 0)) of every row, into zeros."""
    for i, (offset, diagonal) in enumerate(diagonals.items()):
        lo = max(-offset, 0)
        target, source = out[:, lo : lo + diagonal.size], rows[:, lo + offset : lo + offset + diagonal.size]
        if i:
            target += diagonal * source
        else:
            np.multiply(diagonal, source, out=target)
    return out


def sector_moments(rows: np.ndarray, bands) -> tuple[np.ndarray, np.ndarray]:
    """<J_z> and lambda_min, the smaller transverse variance, of every row of a k x (N//2 + 1) block of coefficients.

    A row c stands for the even-sector state psi = W c: Dicke amplitudes
    (W = 1) or a pair's eigen-coefficients (W = V), e.g. the phased
    exp(-i t lambda) c of a state t into a step (t in units of 1/chi).  <J_z> = c^dagger Z c
    sums the band Z = W^T J_z W: Z_ii |c_i|^2 and twice Z_(i, i+d)
    Re(conj(c_i) c_(i+d)).  On the even sector <J_x> = <J_y> = 0, so
    the transverse variance along cos t x + sin t y is |J_t psi|^2, with
    J_t psi = (e^(-it) J_+ psi + e^(it) J_- psi)/2 in the odd sector, where
    the bands' banded maps give J_+ psi and J_- psi (`propagate.Bands`).  It
    is smallest at e^(2it) = -P/|P|, P = <J_+^2> = (J_- psi)^dagger J_+ psi
    (Kitagawa and Ueda, PRA 47, 5138, 1993), where lambda_min =
    |J_+ psi - e^(i arg P) J_- psi|^2 / 4 is a sum of squares, free of the
    cancellation in (T - |P|)/2 of two numbers of size J^2; an error in
    arg P enters it only to second order.  O(N) per row with no
    back-transform to the Dicke basis; each row is summed as one contiguous
    row with no BLAS product, so its bits do not depend on k.
    """
    rows = np.ascontiguousarray(rows, dtype=complex)
    pairs = rows.view(float)  # Re(conj(c_i) c_(i+d)) sums the real and the imaginary parts' products
    jz = np.zeros(len(rows))
    for offset, diagonal in bands.jz.items():
        near, far = pairs[:, : 2 * diagonal.size], pairs[:, 2 * offset : 2 * (offset + diagonal.size)]
        jz += (2.0 if offset else 1.0) * np.einsum("ij,ij,j->i", near, far, np.repeat(diagonal, 2))
    size = max(max(-offset, 0) + d.size for diagonals in (bands.plus, bands.minus) for offset, d in diagonals.items())
    up, down = np.zeros((2, len(rows), size), dtype=complex)  # one buffer, changed in place from here on
    np.conjugate(_mapped(bands.minus, rows, down), out=down)
    _mapped(bands.plus, rows, up)
    down *= np.exp(-1j * np.angle(np.einsum("ij,ij->i", down, up)))[:, None]  # P = <J_+^2> = down . up
    up -= np.conjugate(down, out=down)  # J_+ psi - e^(i arg P) J_- psi
    parts = up.view(float)
    return jz, np.einsum("ij,ij->i", parts, parts) / 4.0


def sector_xi2(jz, lam_min, j: float) -> np.ndarray:
    """xi^2 = 2 lambda_min / J of even-sector moments, clipped at 0, +inf where |<J_z>| <= MEAN_SPIN_EPS_FACTOR J."""
    xi2 = 2.0 * np.maximum(lam_min, 0.0) / j
    return np.where(np.abs(jz) <= MEAN_SPIN_EPS_FACTOR * j, np.inf, xi2)


def twist_xi2(rows: np.ndarray, ops: SpinOperators) -> tuple[np.ndarray, np.ndarray]:
    """xi^2 = 2 min(lambda_pm) / J and <J_z> of every row of `twist_moments`."""
    jz, plus, minus = twist_moments(rows, ops)
    return sector_xi2(jz, np.minimum(plus, minus), ops.total_spin), jz


@dataclass(frozen=True)
class OatMoments:
    """Per time: xi^2 (+inf where the mean spin vanishes) and <J_x>."""

    xi2: np.ndarray
    mean_x: np.ndarray


def _cos_power(sin_sq: np.ndarray, cos: np.ndarray, k: int) -> np.ndarray:
    """cos^k, its magnitude (1 - sin^2)^(k/2) through log1p, exact near cos = 1."""
    if k == 0:
        return np.ones_like(cos)
    with np.errstate(divide="ignore"):
        return np.where(cos < 0.0, (-1.0) ** k, 1.0) * np.exp(0.5 * k * np.log1p(-sin_sq))


def oat_moments(n_spins: int, t: np.ndarray) -> OatMoments:
    """z^2 twisting exp(-i t J_z^2) of the x-polarized state in closed form, per time t in units of 1/chi.

    Kitagawa and Ueda, PRA 47, 5138 (1993).  With mu = 2t, A = 1 - cos^(N-2) mu
    and B = 4 sin(mu/2) cos^(N-2)(mu/2): <J_x> = J cos^(N-1)(mu/2), Var J_y =
    N/4 (1 + (N-1) A/2), Var J_z = N/4, Cov(J_y, J_z) = N(N-1) B/16 and xi^2 =
    1 - (N-1)/4 B^2 / (A + sqrt(A^2 + B^2)), +inf where |cos t|^(N-1) <=
    MEAN_SPIN_EPS_FACTOR.  A (where cos mu > 0) and |B| go through log1p, which
    keeps xi^2 within 2e-13 of exact up to N = 10^4.
    """
    n = int(n_spins)
    sin_h, cos_h = np.sin(t), np.cos(t)
    sin_sq = sin_h**2
    k = max(n - 2, 0)  # N = 1 enters only through factors N - 1 = 0
    cos_mu = 1.0 - 2.0 * sin_sq
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(cos_mu > 0.0, -np.expm1(k * np.log1p(-2.0 * sin_sq)), 1.0 - cos_mu**k)
        b = 4.0 * sin_h * _cos_power(sin_sq, cos_h, k)
        denom = a + np.hypot(a, b)
        xi2 = 1.0 - (n - 1) / 4.0 * np.where(denom > 0.0, b * b / denom, 0.0)
    if n == 2:  # xi^2 = 1 - |sin t|, written without its cancellation at t = pi/2
        xi2 = cos_h**2 / (1.0 + np.abs(sin_h))
    mean = _cos_power(sin_sq, cos_h, n - 1)
    xi2 = np.where(np.abs(mean) <= MEAN_SPIN_EPS_FACTOR, np.inf, np.maximum(xi2, 0.0))
    return OatMoments(xi2, n / 2.0 * mean)


def find_optimum(trace: SqueezingTrace) -> Optimum:
    """Sample with minimal xi^2; earliest time wins ties."""
    if not trace.samples:
        raise ValueError("trace is empty")
    best = min(trace.samples, key=lambda s: (s.xi2, s.t))
    return Optimum(t_opt=best.t, xi2_min=best.xi2)
