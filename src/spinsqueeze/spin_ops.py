"""Collective spin operators in the symmetric J = N/2 sector, as O(N) band data.

Everything downstream shares one basis convention: |J,m> ordered from m = J
down to m = -J, so the fully z-polarized state is the first basis vector and
Jz is diagonal with descending entries.  Only band data is built per spin
number; no dense (N+1) x (N+1) operator is built anywhere in the library.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class NumericalConsistencyError(RuntimeError):
    """An internal numerical check failed (e.g. a state norm drifted or a spectrum is off)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def memory_limit_bytes() -> int:
    """Physical memory, or what the address-space limit of this process leaves unmapped if that is lower."""
    page = os.sysconf("SC_PAGE_SIZE")
    limit = page * os.sysconf("SC_PHYS_PAGES")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        try:
            with open("/proc/self/statm") as statm:  # Linux: the mapped size, in pages, comes first
                mapped = int(statm.read().split()[0]) * page
        except (OSError, ValueError, IndexError):
            mapped = 0
        limit = min(limit, soft - mapped)
    return limit


def check_fits(nbytes: int, need: str) -> None:
    """Raise ValueError, before allocating, if `nbytes` cannot fit in memory; `need` says what needs them."""
    limit = memory_limit_bytes()
    if nbytes > limit:
        raise ValueError(
            f"{need} {nbytes / 2**30:.1f} GiB, more than the {limit / 2**30:.1f} GiB of memory available"
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


@lru_cache(maxsize=8)
def build_operators(n_spins: int) -> SpinOperators:
    """Band data of J_x, J_y, J_z and the xy twisting generator J_x^2 - J_y^2.

    Ladder convention: J+|J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>, with
    J_x = (J+ + J-)/2 and J_y = (J+ - J-)/(2i).  Only O(N) arrays are built
    here, after a check that they fit: at most four arrays of N + 1 floats,
    temporaries included, are alive at once.  Dense arrays are checked too.
    """
    if not isinstance(n_spins, (int, np.integer)) or isinstance(n_spins, bool):
        raise ValueError(f"n_spins must be a positive integer, got {n_spins!r}")
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")

    n = int(n_spins)
    dim = n + 1
    check_fits(4 * 8 * dim, f"operator band data at N={n} needs")
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
