"""Kitagawa-Ueda squeezing parameter and trace containers.

xi^2 = 2 * (minimal spin variance perpendicular to the mean spin) / J,
normalized so a coherent state gives exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_ops import DickeState, SpinOperators, apply_jx, apply_jy, apply_jz

MEAN_SPIN_EPS_FACTOR = 1e-8
DEGENERACY_TOL = 1e-12


class MeanSpinVanishing(ValueError):
    """The mean spin is too short to define a transverse plane."""


@dataclass(frozen=True)
class SqueezingSample:
    t: float
    xi2: float
    mean_spin: np.ndarray
    min_variance_direction: np.ndarray


@dataclass(frozen=True)
class SqueezingTrace:
    samples: tuple[SqueezingSample, ...]
    scheme: str
    n_spins: int
    n_cycles: int
    sampling: str

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def xi2(self) -> np.ndarray:
        return np.array([s.xi2 for s in self.samples])


@dataclass(frozen=True)
class Optimum:
    t_opt: float
    xi2_min: float


def transverse_basis(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair spanning the plane perpendicular to `direction`.

    The first vector is built from the canonical axis least aligned with the
    direction, which also fixes the convention reported for degenerate
    covariances.
    """
    u = direction / np.linalg.norm(direction)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(u)))] = 1.0
    n1 = seed - np.dot(seed, u) * u
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(u, n1)
    return n1, n2


def squeezing_parameter(
    state: DickeState,
    ops: SpinOperators,
    t: float = 0.0,
    basis: tuple[np.ndarray, np.ndarray] | None = None,
) -> SqueezingSample:
    """Evaluate xi^2 = 2 lambda_min(C) / J from the 2x2 transverse covariance.

    `basis` overrides the deterministic transverse pair (the eigenvalues, and
    hence xi^2, cannot depend on that choice).  Raises MeanSpinVanishing when
    |<J>| <= 1e-8 * J, where no transverse plane exists.
    """
    amps = state.amplitudes
    vx = apply_jx(ops, amps)
    vy = apply_jy(ops, amps)
    vz = apply_jz(ops, amps)
    mean = np.array(
        [np.vdot(amps, vx).real, np.vdot(amps, vy).real, np.vdot(amps, vz).real]
    )
    j = ops.total_spin
    length = float(np.linalg.norm(mean))
    if length <= MEAN_SPIN_EPS_FACTOR * j:
        raise MeanSpinVanishing(
            f"|<J>| = {length:.3e} <= {MEAN_SPIN_EPS_FACTOR * j:.3e}; transverse plane undefined"
        )

    n1, n2 = transverse_basis(mean) if basis is None else basis
    w1 = n1[0] * vx + n1[1] * vy + n1[2] * vz
    w2 = n2[0] * vx + n2[1] * vy + n2[2] * vz
    m1 = float(np.vdot(amps, w1).real)
    m2 = float(np.vdot(amps, w2).real)
    c11 = float(np.vdot(w1, w1).real) - m1 * m1
    c22 = float(np.vdot(w2, w2).real) - m2 * m2
    c12 = float(np.vdot(w1, w2).real) - m1 * m2

    # Closed-form eigenpair of [[c11, c12], [c12, c22]].
    half_trace = (c11 + c22) / 2.0
    radius = math.hypot((c11 - c22) / 2.0, c12)
    lam_min = half_trace - radius
    if radius <= DEGENERACY_TOL * max(abs(half_trace), 1.0):
        direction = n1
    elif abs(c12) <= DEGENERACY_TOL * max(abs(half_trace), 1.0):
        direction = n1 if c11 <= c22 else n2
    else:
        v = np.array([c12, lam_min - c11])
        v /= np.linalg.norm(v)
        direction = v[0] * n1 + v[1] * n2

    xi2 = 2.0 * max(lam_min, 0.0) / j
    return SqueezingSample(t=t, xi2=xi2, mean_spin=mean, min_variance_direction=direction)


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_c|b_c> for every column c."""
    return (a.real * b.real + a.imag * b.imag).sum(axis=0)


def xi2_columns(amps: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """xi^2 of every column of a (dim x k) amplitude array, +inf where the mean spin vanishes.

    The quantity of `squeezing_parameter`, equal to it up to roundoff: the
    transverse covariance is projected from the 3x3 symmetrized second
    moments Re <J_a psi|J_b psi> onto the same transverse basis, and its
    smaller eigenvalue is taken in closed form per column.
    """
    ladder = ops.ladder[:, None]
    up = np.zeros_like(amps)
    up[:-1] = ladder * amps[1:]
    down = np.zeros_like(amps)
    down[1:] = ladder * amps[:-1]
    v = (0.5 * (up + down), -0.5j * (up - down), ops.m_values[:, None] * amps)
    del up, down
    mean = np.array([_column_dots(amps, va) for va in v])  # (3, k)
    second = np.empty((3, 3, amps.shape[1]))
    for a in range(3):
        for b in range(a, 3):
            second[a, b] = second[b, a] = _column_dots(v[a], v[b])

    j = ops.total_spin
    length = np.linalg.norm(mean, axis=0)
    vanishing = length <= MEAN_SPIN_EPS_FACTOR * j
    u = mean / np.where(vanishing, 1.0, length)
    # transverse_basis per column: seed axis least aligned with u, then n2 = u x n1.
    seed = np.zeros_like(u)
    seed[np.argmin(np.abs(u), axis=0), np.arange(u.shape[1])] = 1.0
    n1 = seed - (seed * u).sum(axis=0) * u
    n1 /= np.linalg.norm(n1, axis=0)
    n2 = np.cross(u, n1, axis=0)

    def cov(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.einsum("ak,abk,bk->k", p, second, q) - (p * mean).sum(axis=0) * (q * mean).sum(axis=0)

    c11, c22, c12 = cov(n1, n1), cov(n2, n2), cov(n1, n2)
    lam_min = (c11 + c22) / 2.0 - np.hypot((c11 - c22) / 2.0, c12)
    return np.where(vanishing, np.inf, 2.0 * np.maximum(lam_min, 0.0) / j)


def even_sector_xi2(amps: np.ndarray, ops: SpinOperators) -> np.ndarray:
    """xi^2 of every column of an (N//2 + 1) x k array of even-sector amplitudes.

    There <J_x> = <J_y> = 0 exactly, so xi^2 = (J(J+1) - <J_z^2> - 2|S|) / J with
    S = <J_+^2>/2 = sum_i twist_band[2i] conj(a_i) a_(i+1) (Kitagawa and Ueda,
    PRA 47, 5138, 1993), the first two terms summed with exact per-entry weights.
    +inf where |<J_z>| <= MEAN_SPIN_EPS_FACTOR * J, clipped at 0 like `squeezing_parameter`.
    """
    j = ops.total_spin
    weight = amps.real**2 + amps.imag**2
    jz = (ops.m_values[0::2, None] * weight).sum(axis=0)
    transverse = ((j * (j + 1.0) - ops.jz_sq_diag[0::2])[:, None] * weight).sum(axis=0)
    s = (ops.twist_band[0::2, None] * amps[:-1].conj() * amps[1:]).sum(axis=0)
    xi2 = np.maximum(transverse - 2.0 * np.abs(s), 0.0) / j
    return np.where(np.abs(jz) <= MEAN_SPIN_EPS_FACTOR * j, np.inf, xi2)


def find_optimum(trace: SqueezingTrace) -> Optimum:
    """Sample with minimal xi^2; earliest time wins ties."""
    if not trace.samples:
        raise ValueError("trace is empty")
    best = min(trace.samples, key=lambda s: (s.xi2, s.t))
    return Optimum(t_opt=best.t, xi2_min=best.xi2)
