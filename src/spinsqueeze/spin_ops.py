"""Collective spin operators and Dicke-basis states in the symmetric J = N/2 sector.

Everything downstream shares one basis convention: |J,m> ordered from m = J
down to m = -J, so the fully z-polarized state is the first basis vector and
Jz is diagonal with descending entries.

Only O(N) band data is built per spin number.  The dense (N+1) x (N+1)
matrices J_x, J_y, J_z and J_x^2 - J_y^2 are built on first access, for the
small-N oracles (`propagate.schedule_unitary`) and the tests.  The O(N)
full-dimension products `apply_jx/jy/jz` and `even_sector_state` serve the
oracle `squeezing.squeezing_parameter`; no production path touches either.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class NumericalConsistencyError(RuntimeError):
    """An internal numerical check failed (e.g. a state norm drifted or a spectrum is off)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def memory_limit_bytes() -> int:
    """Physical memory, or the address-space limit of this process if that is lower."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limit = min(limit, soft)
    return limit


def check_dense_fits(rows: int, cols: int, itemsize: int, what: str) -> None:
    """Raise ValueError, before allocating, if a dense rows x cols array cannot fit in memory."""
    nbytes = rows * cols * itemsize
    limit = memory_limit_bytes()
    if nbytes > limit:
        raise ValueError(
            f"{what} needs a dense {rows} x {cols} array of {nbytes / 2**30:.1f} GiB, "
            f"more than the {limit / 2**30:.1f} GiB of memory available"
        )


def even_sector_dim(n_spins: int) -> int:
    """Dimension of the even-index Dicke sector, which holds |J,J> and every pulse-pair state."""
    return n_spins // 2 + 1


@dataclass(frozen=True)
class SpinOperators:
    """Band data of the collective angular-momentum operators for a fixed spin number.

    ``ladder[k]`` couples basis indices k and k+1 (the raising-operator matrix
    element between m = J-k-1 and m = J-k); it lets observables be applied in
    O(N) without touching dense matrices.  ``twist_band[k]`` couples k and
    k+2 in J_x^2 - J_y^2 = (J+^2 + J-^2)/2, its only nonzero entries.
    """

    n_spins: int
    dim: int
    jz_sq_diag: np.ndarray
    m_values: np.ndarray
    ladder: np.ndarray
    twist_band: np.ndarray

    @property
    def total_spin(self) -> float:
        return self.n_spins / 2.0

    def _dense(self, what: str) -> None:
        check_dense_fits(self.dim, self.dim, 16, f"dense {what} at N={self.n_spins}")

    @cached_property
    def jx(self) -> np.ndarray:
        self._dense("J_x")
        jp = np.diag(self.ladder, 1)
        return _frozen(((jp + jp.T) / 2.0).astype(complex))

    @cached_property
    def jy(self) -> np.ndarray:
        self._dense("J_y")
        jp = np.diag(self.ladder, 1)
        return _frozen((jp - jp.T) / 2j)

    @cached_property
    def jz(self) -> np.ndarray:
        self._dense("J_z")
        return _frozen(np.diag(self.m_values).astype(complex))

    @cached_property
    def twist_xy(self) -> np.ndarray:
        """J_x^2 - J_y^2 from its +/-2 diagonals; every other entry is exactly zero."""
        self._dense("J_x^2 - J_y^2")
        return _frozen(np.diag(self.twist_band, 2) + np.diag(self.twist_band, -2))


@dataclass(frozen=True)
class DickeState:
    """Complex amplitudes over |J,m>, m = J ... -J."""

    n_spins: int
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@lru_cache(maxsize=8)
def build_operators(n_spins: int) -> SpinOperators:
    """Band data of J_x, J_y, J_z and the xy twisting generator J_x^2 - J_y^2.

    Ladder convention: J+|J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>, with
    J_x = (J+ + J-)/2 and J_y = (J+ - J-)/(2i).  Only O(N) arrays are built
    here; the routines that make a dense array check that it fits first.
    """
    if not isinstance(n_spins, (int, np.integer)) or isinstance(n_spins, bool):
        raise ValueError(f"n_spins must be a positive integer, got {n_spins!r}")
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")

    n = int(n_spins)
    dim = n + 1
    j = n / 2.0
    m = j - np.arange(dim)
    # ladder[k] = <J,m[k]| J+ |J,m[k+1]>
    ladder = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    twist_band = ladder[:-1] * ladder[1:] / 2.0  # (J+^2 + J-^2)/2, only +/-2 diagonals

    return SpinOperators(
        n_spins=n,
        dim=dim,
        jz_sq_diag=_frozen(m**2),
        m_values=_frozen(m),
        ladder=_frozen(ladder),
        twist_band=_frozen(twist_band),
    )


def even_sector_state(n_spins: int, amplitudes: np.ndarray) -> DickeState:
    """The state with these even-index amplitudes and exact zeros at every odd index."""
    amps = np.zeros(n_spins + 1, dtype=complex)
    amps[0::2] = amplitudes
    return DickeState(n_spins, _frozen(amps))


def coherent_state_z(n_spins: int) -> DickeState:
    """The |J,J> state: every spin polarized along +z."""
    ops = build_operators(n_spins)
    amps = np.zeros(ops.dim, dtype=complex)
    amps[0] = 1.0
    return DickeState(n_spins, _frozen(amps))


def coherent_state_x(n_spins: int) -> DickeState:
    """exp(-i pi/2 J_y)|J,J>, every spin along +x: amplitudes sqrt(C(N, k)) / 2^(N/2) > 0.

    Built from log-factorials relative to the largest binomial and then
    normalized, which removes their common roundoff; no rotation matrix is needed.
    """
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_spins + 1)])
    log_c = log_fact[-1] - (log_fact + log_fact[::-1])
    amps = np.exp(0.5 * (log_c - log_c.max()))
    return DickeState(n_spins, _frozen((amps / np.linalg.norm(amps)).astype(complex)))


def apply_jx(ops: SpinOperators, amps: np.ndarray) -> np.ndarray:
    """J_x |psi> using only the tridiagonal structure; O(N)."""
    out = np.zeros_like(amps)
    out[:-1] += ops.ladder * amps[1:]
    out[1:] += ops.ladder * amps[:-1]
    out *= 0.5
    return out


def apply_jy(ops: SpinOperators, amps: np.ndarray) -> np.ndarray:
    """J_y |psi>; O(N)."""
    out = np.zeros_like(amps)
    out[:-1] += ops.ladder * amps[1:]
    out[1:] -= ops.ladder * amps[:-1]
    out *= -0.5j
    return out


def apply_jz(ops: SpinOperators, amps: np.ndarray) -> np.ndarray:
    return ops.m_values * amps
