import numpy as np
import pytest
from scipy.linalg import expm

from spinsqueeze import build_operators
from spinsqueeze.spin_ops import DickeState, _frozen


@pytest.fixture(scope="session")
def ops20():
    return build_operators(20)


def random_state(n_spins: int, seed: int) -> DickeState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_spins + 1) + 1j * rng.normal(size=n_spins + 1)
    amps /= np.linalg.norm(amps)
    return DickeState(n_spins, _frozen(amps))


def rotated(state: DickeState, axis: str, angle: float) -> DickeState:
    """exp(-i angle J_axis)|psi> from scipy's expm of the dense generator."""
    ops = build_operators(state.n_spins)
    generator = ops.jx if axis == "x" else ops.jy
    return DickeState(state.n_spins, _frozen(expm(-1j * angle * generator) @ state.amplitudes))


def oat_evolved(state: DickeState, chi: float, t: float) -> DickeState:
    """exp(-i chi t J_z^2)|psi>: J_z^2 is diagonal, so one phase per amplitude."""
    phases = np.exp(-1j * chi * t * build_operators(state.n_spins).jz_sq_diag)
    return DickeState(state.n_spins, _frozen(state.amplitudes * phases))


def mean_spin(state: DickeState) -> np.ndarray:
    """(<J_x>, <J_y>, <J_z>) from the dense operators."""
    ops, amps = build_operators(state.n_spins), state.amplitudes
    return np.array([np.vdot(amps, op @ amps).real for op in (ops.jx, ops.jy, ops.jz)])
