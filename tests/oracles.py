"""Reference paths the tests hold the production engine to; no library code calls them.

All but the last work at small N, in the full (N+1)-dimensional Dicke basis
or on dense matrices, where the library keeps O(N) band data and even-sector
factorizations:

* the dense J_x, J_y, J_z and J_x^2 - J_y^2; full-dimension states, their
  rotations and mean spins, and `squeezing_parameter` of any state;
* `factorize`, `propagator`, `apply` and `reconstruction_error` on a
  `DenseFactorization`; the full parity-block factorization of J_x^2 - J_y^2
  (`twist_factorization`, `evolve_twist`);
* the dense h x h pair eigenvectors V of the even-sector J_x^2 from the J_x
  recurrence (`wigner_pair_vectors`, `dense_pair_vectors`), and the
  library's half-size store expanded to V by its symmetries
  (`expanded_pair_vectors`);
* the per-period unitary `schedule_unitary` (pulses by scipy's expm), the
  phase-stripped `unitary_distance` and the order fit built on both;
* the twist window mirrored into full eigenvectors (`mirrored_window`,
  `full_window`), and free twisting and pulse pairs one state at a time
  (`evolve_free`, `pair_twist`, `pair_evolve`), the amplitude path that the
  banded pair moments and the batched traces are checked against;
* at any N, whole pulse traces (`chebyshev_pulse_trace`): free steps as
  exact phases and pulse pairs by the Chebyshev series of exp(-i tau J_b^2)
  (`chebyshev_evolve`, `bessel_j`), from the oracle's own ladder, with xi^2
  from the full Dicke amplitudes.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from spinsqueeze.experiments import FitResult, _loglog_fit
from spinsqueeze.propagate import (
    pair_amplitudes,
    pair_factorization,
    real_product,
    step_phases,
    twist_window,
)
from spinsqueeze.schedules import compile_scheme, delta_t_for
from spinsqueeze.spin_ops import SpinOperators, _frozen, build_operators, check_fits
from spinsqueeze.squeezing import MEAN_SPIN_EPS_FACTOR, MeanSpinVanishing, SqueezingSample

UNITARITY = 1e-9  # ||U^dagger U - 1||_2 of `schedule_unitary`'s pulses
RECONSTRUCTION = 1e-8  # `reconstruction_error` of `twist_factorization`
HALF_PI = math.pi / 2.0


# -- dense operators and full-dimension states -------------------------------------


def _dense(ops: SpinOperators, what: str) -> None:
    check_fits(16 * ops.dim**2, f"dense {what} at N={ops.n_spins} needs")


def dense_jx(ops: SpinOperators) -> np.ndarray:
    _dense(ops, "J_x")
    jp = np.diag(ops.ladder, 1)
    return _frozen(((jp + jp.T) / 2.0).astype(complex))


def dense_jy(ops: SpinOperators) -> np.ndarray:
    _dense(ops, "J_y")
    jp = np.diag(ops.ladder, 1)
    return _frozen((jp - jp.T) / 2j)


def dense_jz(ops: SpinOperators) -> np.ndarray:
    _dense(ops, "J_z")
    return _frozen(np.diag(ops.m_values).astype(complex))


def dense_twist_xy(ops: SpinOperators) -> np.ndarray:
    """J_x^2 - J_y^2 from its +/-2 diagonals; every other entry is exactly zero."""
    _dense(ops, "J_x^2 - J_y^2")
    return _frozen(np.diag(ops.twist_band, 2) + np.diag(ops.twist_band, -2))


@dataclass(frozen=True)
class DickeState:
    """Complex amplitudes over |J,m>, m = J ... -J."""

    n_spins: int
    amplitudes: np.ndarray


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


def random_state(n_spins: int, seed: int) -> DickeState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n_spins + 1) + 1j * rng.normal(size=n_spins + 1)
    amps /= np.linalg.norm(amps)
    return DickeState(n_spins, _frozen(amps))


def rotated(state: DickeState, axis: str, angle: float) -> DickeState:
    """exp(-i angle J_axis)|psi> from scipy's expm of the dense generator."""
    ops = build_operators(state.n_spins)
    generator = dense_jx(ops) if axis == "x" else dense_jy(ops)
    return DickeState(state.n_spins, _frozen(expm(-1j * angle * generator) @ state.amplitudes))


def oat_evolved(state: DickeState, chi: float, t: float) -> DickeState:
    """exp(-i chi t J_z^2)|psi>: J_z^2 is diagonal, so one phase per amplitude."""
    phases = np.exp(-1j * chi * t * build_operators(state.n_spins).jz_sq_diag)
    return DickeState(state.n_spins, _frozen(state.amplitudes * phases))


def mean_spin(state: DickeState) -> np.ndarray:
    """(<J_x>, <J_y>, <J_z>) from the dense operators."""
    ops, amps = build_operators(state.n_spins), state.amplitudes
    return np.array([np.vdot(amps, op @ amps).real for op in (dense_jx(ops), dense_jy(ops), dense_jz(ops))])


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


# -- eigenfactorizations, unitaries and the order fit ------------------------------


@dataclass(frozen=True)
class DenseFactorization:
    """Hermitian factorization H = V diag(w) V^dagger, reused for any evolution time."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def factorize(matrix: np.ndarray) -> DenseFactorization:
    w, v = np.linalg.eigh(matrix)
    return DenseFactorization(_frozen(w), _frozen(v))


def propagator(fac: DenseFactorization, t: float) -> np.ndarray:
    """Dense matrix exp(-i H t)."""
    phases = np.exp(-1j * t * fac.eigenvalues)
    return (fac.eigenvectors * phases) @ fac.eigenvectors.conj().T


def apply(fac: DenseFactorization, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) |psi> via two `real_product`s; for real eigenvectors only."""
    coeffs = real_product(fac.eigenvectors, amplitudes, transpose=True)
    coeffs *= np.exp(-1j * t * fac.eigenvalues)
    return real_product(fac.eigenvectors, coeffs)


def reconstruction_error(fac: DenseFactorization, matrix: np.ndarray) -> float:
    rebuilt = (fac.eigenvectors * fac.eigenvalues) @ fac.eigenvectors.conj().T
    return float(np.max(np.abs(rebuilt - matrix)))


@lru_cache(maxsize=8)
def twist_factorization(n_spins: int) -> DenseFactorization:
    """Eigendecomposition of J_x^2 - J_y^2, solved block-by-block.

    The generator only couples basis indices two apart, so even and odd index
    sets diagonalize independently; each block is the symmetric tridiagonal
    matrix of every other `twist_band` value, and the two half-size solves
    are reassembled into one factorization.
    """
    ops = build_operators(n_spins)
    dim = ops.dim
    check_fits(8 * dim**2, f"twist factorization at N={n_spins} needs")
    values = np.empty(dim)
    vectors = np.zeros((dim, dim))
    col = 0
    for start in (0, 1):
        idx = np.arange(start, dim, 2)
        if idx.size == 0:
            continue
        band = ops.twist_band[start::2]
        w, v = np.linalg.eigh(np.diag(band, 1) + np.diag(band, -1))
        values[col : col + idx.size] = w
        vectors[np.ix_(idx, np.arange(col, col + idx.size))] = v
        col += idx.size
    return DenseFactorization(_frozen(values), _frozen(vectors))


def evolve_twist(state: DickeState, chi: float, t: float) -> DickeState:
    """Exact exp(-i chi (J_x^2 - J_y^2) t) applied to the state."""
    fac = twist_factorization(state.n_spins)
    amps = apply(fac, state.amplitudes, chi * t)
    return DickeState(state.n_spins, _frozen(amps))


def unitary_distance(u1: np.ndarray, u2: np.ndarray) -> float:
    """Spectral-norm distance between unitaries with the global phase stripped.

    The phase is fixed from the trace of u2^dagger u1; if that trace vanishes
    the comparison is phase-degenerate and proceeds unaligned.
    """
    if u1.shape != u2.shape:
        raise ValueError(f"shape mismatch: {u1.shape} vs {u2.shape}")
    overlap = np.sum(u2.conj() * u1)
    if abs(overlap) < 1e-15 * u1.shape[0]:
        warnings.warn("phase-alignment degenerate: tr(u2^dagger u1) = 0", RuntimeWarning)
        phase = 1.0
    else:
        phase = overlap / abs(overlap)
    return float(np.linalg.norm(u1 - phase * u2, 2))


def schedule_unitary(ops: SpinOperators, segments, chi: float) -> np.ndarray:
    """Multiply one period's segments (time ordered) into a dense unitary."""
    u = np.eye(ops.dim, dtype=complex)
    for seg in segments:
        if seg.kind == "free":
            u = np.exp(-1j * chi * seg.duration * ops.jz_sq_diag)[:, None] * u
        else:
            generator = dense_jx(ops) if seg.axis == "x" else dense_jy(ops)
            u = expm(-1j * seg.sign * HALF_PI * generator) @ u
    return u


def trotter_order_fit(
    scheme: str,
    n_spins: int,
    window: tuple[float, float] = (1e-3, 1e-1),
    points: int = 8,
    chi: float = 1.0,
    order: int = 2,
) -> FitResult:
    """Slope of log one-period error vs log delta_t.

    An ideal order-p symmetric product formula has a one-period error of
    O(delta_t^(p+1)) and so gives slope p+1: 2 for liu1, 3 for schemeA.

    The window is given in the dimensionless combination delta_t * chi * J.
    The reference for one period of step delta_t is the exact twisting unitary
    exp(-i chi delta_t (Jx^2 - Jy^2)), compared after stripping the global
    phase that the compiled period accumulates from the conserved J^2 term.
    """
    ops = build_operators(n_spins)
    fac = twist_factorization(n_spins)
    j = n_spins / 2.0
    dt_values = np.geomspace(window[0], window[1], points) / (chi * j)
    distances = []
    for dt in dt_values:
        schedule = compile_scheme(scheme, float(dt), 1, order)
        period = schedule_unitary(ops, schedule.segments, chi)
        reference = propagator(fac, chi * float(dt))
        distances.append(unitary_distance(period, reference))
    return _loglog_fit(dt_values, np.array(distances))


# -- the full-dimension squeezing parameter ----------------------------------------


def transverse_basis(direction: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal pair spanning the plane perpendicular to `direction`.

    The first vector is built from the canonical axis least aligned with the
    direction.  Components within 64 eps of `scale`, the size their roundoff
    scales with (J for a mean spin, whatever |<J>| is), count as zero and
    ties go to the lowest axis, so roundoff does not pick the axis.
    """
    u = direction / np.linalg.norm(direction)
    zero = np.abs(direction) <= 64 * np.finfo(float).eps * scale
    seed = np.zeros(3)
    seed[int(np.argmin(np.where(zero, 0.0, np.abs(u))))] = 1.0
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
    """Evaluate xi^2 = 2 lambda_min(C) / J from the 2x2 transverse covariance of any state.

    `basis` overrides the deterministic transverse pair (the eigenvalues, and
    hence xi^2, cannot depend on that choice).  Raises MeanSpinVanishing when
    |<J>| <= 1e-8 * J, where no transverse plane exists.  Production traces use
    the sector kernels `sector_moments` and `twist_moments`; this full-dimension
    path is their oracle.
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

    n1, n2 = transverse_basis(mean, j) if basis is None else basis
    w1 = n1[0] * vx + n1[1] * vy + n1[2] * vz
    w2 = n2[0] * vx + n2[1] * vy + n2[2] * vz
    m1 = float(np.vdot(amps, w1).real)
    m2 = float(np.vdot(amps, w2).real)
    c11 = float(np.vdot(w1, w1).real) - m1 * m1
    c22 = float(np.vdot(w2, w2).real) - m2 * m2
    c12 = float(np.vdot(w1, w2).real) - m1 * m2

    lam_min = (c11 + c22) / 2.0 - math.hypot((c11 - c22) / 2.0, c12)
    xi2 = 2.0 * max(lam_min, 0.0) / j
    return SqueezingSample(t=t, xi2=xi2, mean_spin=mean)


# -- the twist window and pulse pairs, one state at a time -------------------------


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


def full_window(n_spins: int) -> DenseFactorization:
    """`twist_window` of N spins as the full eigenvector window, by `mirrored_window`."""
    win = twist_window(n_spins)
    return DenseFactorization(*mirrored_window(win.values, win.even, win.odd))


def evolve_free(ops: SpinOperators, amps: np.ndarray, chi: float, t: float) -> np.ndarray:
    """exp(-i chi J_z^2 t) on an even-sector amplitude vector."""
    return amps * step_phases(ops.n_spins, "", [chi * t])[0]


def pair_twist(n_spins: int, coeffs: np.ndarray, chi: float, ts) -> np.ndarray:
    """The eigen-coefficients exp(-i chi t m^2) c of a pair's state at each time t into it, one row per t.

    `coeffs` are the `pair_coefficients` c of the state the pair starts from.
    Between the two pulses the true state is the opening pulse applied to
    V times a row; at t = tau, the pair's free time, the closing pulse undoes
    it.  A row's bits do not depend on the other times.
    """
    return step_phases(n_spins, "y", chi * np.asarray(ts, dtype=float)) * coeffs


def pair_evolve(n_spins: int, axis: str, coeffs: np.ndarray, chi: float, t: float) -> np.ndarray:
    """exp(-i chi t J_b^2) psi from the `pair_coefficients` of psi, with b the axis twisted about.

    At t = tau, the pair's free time, this is the state after the pair.
    """
    return pair_amplitudes(n_spins, axis, pair_twist(n_spins, coeffs, chi, [t])[0])


# -- the pair eigenvectors as a dense h x h matrix ----------------------------------


_HUGE = 1e150  # a recurring column that passes it is scaled by 1/_HUGE


def wigner_pair_vectors(ladder: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Unit even-sector eigenvectors of J_x^2, one column per m = mu, from the J_x recurrence.

    Column m solves (L[k-1] d[k-1] + L[k] d[k+1]) / 2 = m d[k], L = ladder,
    from d[0] = 1 at m_z = J down to the middle, k = 0 ... N//2: each step
    recurs into the growing solution, which is stable.  Two rows are held;
    row k goes to V[k/2] when k is even, and its mirror
    d[N-k] = (-1)^(J-m) d[k] goes to V[(N-k)/2] when N-k is even, which
    covers odd N.  A column passing _HUGE is scaled down; the rows written
    before that are scaled in one pass after the loop, with the norms.
    """
    n = ladder.size
    h = mu.size
    sign = np.where(np.rint(n / 2.0 - mu) % 2 == 0, 1.0, -1.0)
    vectors = np.empty((h, h))
    norm2 = np.zeros(h)
    events = []  # (rows written from the top, first row written from the bottom, columns)
    top, bottom = 0, h
    prev, cur = np.zeros(h), np.ones(h)
    for k in range(n // 2 + 1):
        if k % 2 == 0:
            vectors[top] = cur
            top += 1
            norm2 += cur * cur
        if (n - k) % 2 == 0 and n - k != k:
            bottom -= 1
            np.multiply(cur, sign, out=vectors[bottom])
            norm2 += cur * cur
        if k == n // 2:
            break
        nxt = 2.0 * mu * cur
        if k:
            nxt -= ladder[k - 1] * prev
        nxt /= ladder[k]
        prev, cur = cur, nxt
        big = np.abs(cur) > _HUGE
        if big.any():
            cols = np.flatnonzero(big)
            cur[cols] /= _HUGE
            prev[cols] /= _HUGE
            norm2[cols] /= _HUGE**2
            events.append((top, bottom, cols))
    scale = 1.0 / np.sqrt(norm2)
    for later_top, later_bottom, cols in reversed(events):
        vectors[later_top:top] *= scale
        vectors[bottom:later_bottom] *= scale
        scale[cols] /= _HUGE
        top, bottom = later_top, later_bottom
    vectors[:top] *= scale
    vectors[bottom:] *= scale
    return vectors


def dense_pair_vectors(n_spins: int) -> np.ndarray:
    """`wigner_pair_vectors` of N spins, columns m = J mod 1, ..., J."""
    ops, h = build_operators(n_spins), n_spins // 2 + 1
    check_fits(8 * h**2, f"dense pair eigenvectors at N={n_spins} need")
    return wigner_pair_vectors(ops.ladder, ops.m_values[:h][::-1])


def expanded_pair_vectors(n_spins: int) -> np.ndarray:
    """The dense V that `pair_factorization`'s half-size store holds, by V's symmetries.

    Even N: rows m_z and -m_z agree up to the column sign (-1)^(J-m), and the
    store is V's top rows (with the middle one) of the columns of each sign.
    Odd N: the store is V_E, V's columns 0, 2, ..., and V_O = W V_E / D
    (`propagate.OddPairing`) gives columns 1, 3, ....
    """
    fac = pair_factorization(n_spins)
    store, pairing = fac.store, fac.pairing
    h = n_spins // 2 + 1
    v = np.zeros((h, h))
    if n_spins % 2:
        v[:, 0::2] = store[0]
        v[:, 1::2] = pairing.apply(store[0])[:, : h // 2] * pairing.inverse_d
        return v
    half = h // 2
    plus = (n_spins // 2 - np.arange(h)) % 2 == 0  # columns m with (-1)^(J-m) = +1
    v[: h - half, plus], v[h - half :, plus] = store[0], store[0][:half][::-1]
    v[:half, ~plus], v[h - half :, ~plus] = store[1], -store[1][::-1]
    return v


# -- the Chebyshev propagator: the large-N oracle of pulse traces ------------------


def _even_sector_bands(n_spins: int, ladder: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and first off-diagonal of J_x^2 on the even-index Dicke states k = 0, 2, ..., from the ladder.

    With l_k = <k-1|J_+|k>, J_x^2 = (J_+^2 + J_-^2 + J_+ J_- + J_- J_+) / 4 has
    the diagonal (l_k^2 + l_(k+1)^2) / 4 and <k|J_x^2|k+2> = l_(k+1) l_(k+2) / 4.
    J_y^2 is the same band with its off-diagonal negated.
    """
    k = np.arange(0, n_spins + 1, 2)
    return (ladder[k] ** 2 + ladder[k + 1] ** 2) / 4.0, ladder[k[:-1] + 1] * ladder[k[:-1] + 2] / 4.0


def bessel_j(x: float, count: int) -> np.ndarray:
    """J_0(x), ..., J_(count - 1)(x) by Miller's backward recurrence in extended precision.

    J_(k-1) = (2k / x) J_k - J_(k+1) from 60 orders past the last one wanted,
    normalized by J_0 + 2 (J_2 + J_4 + ...) = 1.  Where numpy's longdouble is
    the x87 80-bit type, the values are within 1e-17 of 40-digit mpmath up to
    x = 1100; scipy's `jv` is off by up to 1e-14 there, which the Chebyshev
    series below turns into errors of 1e-12 in a pulse trace's xi^2.
    """
    if x == 0.0:
        return (np.arange(count) == 0).astype(float)  # J_k(0) = delta_k0
    x = np.longdouble(x)
    start = count + 60
    values = np.zeros(start + 2, dtype=np.longdouble)
    values[start] = 1e-30
    for k in range(start, 0, -1):
        values[k - 1] = 2 * k / x * values[k] - values[k + 1]
    return (values[:count] / (values[0] + 2 * values[2::2].sum())).astype(float)


def chebyshev_evolve(psi: np.ndarray, diag: np.ndarray, off: np.ndarray, center: float, tau: float) -> np.ndarray:
    """exp(-i tau A) psi for the real tridiagonal A = (diag, off) with spectrum in [0, 2 center].

    Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984): with c = a = center,
    exp(-i tau A) psi = e^(-i tau c) sum_k (2 - delta_k0) (-i)^k J_k(tau a) T_k((A - c)/a) psi,
    each T_k psi one banded product by the three-term recurrence.  The series
    stops past tau a where |J_k(tau a)| < 1e-20.
    """
    x = tau * center
    orders = np.arange(int(x + 20.0 * np.cbrt(x) + 40.0))
    bessel = bessel_j(x, orders.size)
    terms = max(2, int(np.flatnonzero((np.abs(bessel) >= 1e-20) | (orders <= x))[-1]) + 1)
    weights = bessel[:terms] * (-1j) ** (orders[:terms] % 4) * np.where(orders[:terms] == 0, 1.0, 2.0)
    d, e = (diag - center) / center, off / center

    def scaled(v: np.ndarray) -> np.ndarray:
        out = d * v
        out[:-1] += e * v[1:]
        out[1:] += e * v[:-1]
        return out

    previous, current = psi, scaled(psi)
    total = weights[0] * previous + weights[1] * current
    for weight in weights[2:]:
        previous, current = current, 2.0 * scaled(current) - previous
        total += weight * current
    return np.exp(-1j * x) * total


def _sector_xi2(n_spins: int, ladder: np.ndarray, psi: np.ndarray) -> tuple[float, float]:
    """xi^2 and <J_z> of an even-sector state from its full Dicke amplitudes and J_(+/-) psi.

    The mean spin lies along z, so xi^2 = 2 ||(cos t J_x + sin t J_y) psi||^2 / J
    at the angle t of the smaller eigenvector of the 2 x 2 Gram matrix of J_x psi
    and J_y psi: a sum of squares, not a difference of the two variances.
    """
    full = np.zeros(n_spins + 1, dtype=complex)
    full[0::2] = psi
    raised, lowered = np.zeros_like(full), np.zeros_like(full)
    raised[:-1] = ladder[1:-1] * full[1:]
    lowered[1:] = ladder[1:-1] * full[:-1]
    jx, jy = (raised + lowered) / 2.0, (raised - lowered) / 2j
    gxx, gyy, gxy = np.vdot(jx, jx).real, np.vdot(jy, jy).real, np.vdot(jx, jy).real
    angle = 0.5 * math.atan2(2.0 * gxy, gxx - gyy) + HALF_PI
    w = math.cos(angle) * jx + math.sin(angle) * jy
    jz = float(np.dot(n_spins / 2.0 - np.arange(n_spins + 1), np.abs(full) ** 2))
    return 4.0 * float(np.vdot(w, w).real) / n_spins, jz


def chebyshev_pulse_trace(spec) -> tuple[np.ndarray, np.ndarray]:
    """xi^2 and <J_z> at every sample of a pulse run: free steps as exact phases, pairs by `chebyshev_evolve`.

    Runs the compiled period of `spec` from |J,J> on the even sector, from its
    own ladder, sharing no code with `propagate`.  A sample inside a pair is the
    state in the frame of the pair's opening pulse, exp(-i s J_b^2) psi at
    s into the pair (b = x in a y pair, y in an x pair), whose xi^2 is the
    lab frame's; <J_z> is also read in that frame.
    """
    n = spec.n_spins
    delta_t = delta_t_for(spec.scheme, spec.t_total, spec.n_cycles, spec.order)
    steps = compile_scheme(spec.scheme, delta_t, 1, spec.order).steps
    period = spec.t_total / spec.n_cycles
    offsets = [i * period / (spec.subsamples + 1) for i in range(1, spec.subsamples + 1)]
    ladder = np.sqrt(np.arange(n + 2) * (n + 1.0 - np.arange(n + 2)))  # l_k, zero at k = 0 and N + 1
    diag, off = _even_sector_bands(n, ladder)
    m_squared = (n / 2.0 - np.arange(0, n + 1, 2)) ** 2
    center = n * n / 8.0  # J^2 / 2: J_x^2 and J_y^2 have spectra in [0, J^2]

    def evolve(psi: np.ndarray, axis: str, s: float) -> np.ndarray:
        if not axis:
            return psi * np.exp(-1j * s * m_squared)
        return chebyshev_evolve(psi, diag, off if axis == "y" else -off, center, s)

    psi = np.zeros(n // 2 + 1, dtype=complex)
    psi[0] = 1.0
    samples = [_sector_xi2(n, ladder, psi)]
    for _ in range(spec.n_cycles):
        start, at = 0.0, 0
        for i, step in enumerate(steps):
            last = i == len(steps) - 1
            while at < len(offsets) and (last or offsets[at] < start + step.duration):
                s = min(offsets[at] - start, step.duration)
                samples.append(_sector_xi2(n, ladder, evolve(psi, step.axis, s)))
                at += 1
            psi = evolve(psi, step.axis, step.duration)
            start += step.duration
        samples.append(_sector_xi2(n, ladder, psi))
    xi2, jz = zip(*samples)
    return np.array(xi2), np.array(jz)
