"""Exact unitary time evolution.

Every pulse schedule starts from |J,J> and is a sequence of free z^2
twisting and pulse pairs (a +/- pi/2 pulse about a, free time tau, the
inverse pulse).  A pair about y is exp(-i chi tau J_x^2) and a pair about x
is exp(-i chi tau J_y^2); both, like free twisting, keep the state in the
even-index Dicke sector of dimension N//2 + 1.  On that sector J_x^2 is real
symmetric tridiagonal and J_y^2 is the same matrix in the (-1)^i gauge, so
the pulse engine is

* free twisting: diagonal phases on the even sector, O(N);
* pair evolution: one cached factorization of J_x^2 per spin number, its
  exact eigenvalues m^2 and its eigenvectors V from the three-term Wigner-d
  recurrence in numpy alone (`pair_factorization`), applied as two products
  per pair, V^T psi (`pair_coefficients`) and V times the phased
  coefficients (`pair_amplitudes`), each one pass over V (`real_product`);
* phases: every step is diagonal in its own basis, the Dicke basis for
  free twisting and V for a pair, so its evolution is the phases
  exp(-i chi t lambda) of its eigenvalues (`step_phases`), which depend only
  on the time into it;
* moments: J_z, J(J+1) - J_z^2 and J_+^2 are banded in both bases
  (`Bands`: `dicke_bands`, and `pair_bands` in closed forms in O(N)), so a
  sample is summed from a step's phased coefficients with no back-transform;
* `pulse_frame`: the 3x3 signed permutation that maps the mean spin of a
  state inside a pair back from the frame rotated by the opening pulse.

Ideal xy twisting from |J,J> stays in that sector too, where J_x^2 - J_y^2
is tridiagonal with zero diagonal, so its spectrum is +/-lambda with
mirrored vectors.  `twist_window` keeps only the lambda >= 0 that |J,J>
overlaps, split into even-row and odd-row vectors (`TwistWindow`), solved
in numpy alone (`tridiagonal`): twisting from |J,J> is a real cos product
on the even rows and an imaginary sin product on the odd ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import tolerances
from .spin_ops import (
    NumericalConsistencyError,
    _frozen,
    build_operators,
    check_dense_fits,
    even_sector_dim,
)

TWIST_WINDOW_HALF_WIDTH = 96  # of the first window at every N; it doubled at most once at the N measured up to 10^5


SMALL_GEMM_MNK = 10**6  # OpenBLAS's small-matrix dgemm path (SkylakeX kernels) takes M*N*K up to this
PRODUCT_BLOCK_ROWS = 64  # taller row blocks ran no faster


def real_product(matrix: np.ndarray, vector: np.ndarray, transpose: bool = False) -> np.ndarray:
    """matrix @ vector, or matrix.T @ vector with `transpose`, for a real matrix: one pass over it.

    The complex vector is read as an n x 2 real array (its real and imaginary
    parts side by side), so the matrix is read once, not once per part as by
    two GEMVs.  One unblocked two-column GEMM packs the matrix and is slower
    than the GEMV pair from about 1000 rows, so the product runs in row
    blocks, each GEMM small enough (M N K <= SMALL_GEMM_MNK) for OpenBLAS's
    small-matrix kernel, which runs on the calling thread: the result's bits
    do not depend on the BLAS thread count.  matrix @ vector writes each
    block's rows straight into the output; matrix.T @ vector adds the blocks'
    matrix[block].T @ vector[block] in row order.
    """
    rows, cols = matrix.shape
    pairs = np.ascontiguousarray(vector, dtype=complex).view(float).reshape(-1, 2)
    out = np.empty(cols if transpose else rows, dtype=complex)
    out_pairs = out.view(float).reshape(-1, 2)
    block = max(1, min(PRODUCT_BLOCK_ROWS, SMALL_GEMM_MNK // (2 * cols)))
    if not transpose:
        for lo in range(0, rows, block):
            np.matmul(matrix[lo : lo + block], pairs, out=out_pairs[lo : lo + block])
        return out
    np.matmul(matrix[:block].T, pairs[:block], out=out_pairs)
    partial = np.empty_like(out_pairs)
    for lo in range(block, rows, block):
        out_pairs += np.matmul(matrix[lo : lo + block].T, pairs[lo : lo + block], out=partial)
    return out


@dataclass(frozen=True)
class EigenFactorization:
    """Hermitian factorization H = V diag(w) V^dagger, reused for any evolution time."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class TwistWindow:
    """The eigenpairs lambda >= 0 of the even block of J_x^2 - J_y^2 that |J,J> overlaps, split by row parity.

    `values` ascend, with 0 first at odd h = N//2 + 1; `even` holds the
    orthonormal sqrt 2 v(lambda)[0::2] (the null vector itself at 0), `odd`
    the orthonormal sqrt 2 v(lambda)[1::2] of the lambda > 0.  The block has
    zero diagonal, so v(-lambda) = diag((-1)^i) v(lambda), and twisting from
    |J,J> is, with the overlaps c = even[0],
    psi(t)[0::2] = even (c cos(lambda t)) and psi(t)[1::2] = -i odd (c sin(lambda t)).
    """

    values: np.ndarray
    even: np.ndarray
    odd: np.ndarray


@lru_cache(maxsize=32)  # an entry is (N//2 + 1) x ~100 floats, 4 MB at N = 10^4
def twist_window(n_spins: int) -> TwistWindow:
    """The `TwistWindow` of N spins, solved in numpy alone (`tridiagonal.window_eigenpairs`).

    The number of lambda > 0 starts at TWIST_WINDOW_HALF_WIDTH at every N and
    doubles until the largest one's |<J,J|v>| <= TWIST_WINDOW_EDGE (its
    mirror's is the same), or the window is the whole block.  If the captured
    weight |even[0]|^2 is then off 1 by more than TWIST_WINDOW_WEIGHT, it
    raises NumericalConsistencyError, not truncating.  The banded residual of
    every solved vector and the orthogonality probes of `even` and `odd`
    (`_check_eigenpairs`) guard the solve.  Both are column-major, the faster
    layout for the GEMMs with their transposes that build twisted states.
    """
    band = build_operators(n_spins).twist_band[0::2]
    h = band.size + 1
    count = min(TWIST_WINDOW_HALF_WIDTH, h // 2)
    # Imported on first use: pulse runs never solve a window, so they do not load the solver.
    from .tridiagonal import window_eigenpairs

    while True:
        w, even, odd = window_eigenpairs(band, count, f"twist window at N={n_spins}")
        if count == h // 2 or abs(even[0, -1]) / math.sqrt(2.0) <= tolerances.TWIST_WINDOW_EDGE:
            break
        count = min(2 * count, h // 2)
    missing = abs(float(even[0] @ even[0]) - 1.0)
    if not missing <= tolerances.TWIST_WINDOW_WEIGHT:
        raise NumericalConsistencyError(
            f"twist window {h // 2 - count}..{(h - 1) // 2 + count} of {h} at N={n_spins} "
            f"misses weight {missing:.1e}"
        )
    vectors = np.zeros((h, w.size))  # the solved v(lambda), lambda >= 0
    vectors[0::2] = even
    vectors[1::2, h % 2 :] = odd
    vectors[:, h % 2 :] /= math.sqrt(2.0)
    scale = 2.0 * float(band.max()) if band.size else 1.0
    residual = _tridiagonal_residual(np.zeros(h), band, vectors, w) / scale
    _check_eigenpairs(f"twist window at N={n_spins}", residual, even, odd)
    return TwistWindow(_frozen(w), _frozen(even), _frozen(odd))


def _check_eigenpairs(what: str, residual: float, *bases: np.ndarray) -> None:
    """Raise NumericalConsistencyError unless `residual` and every basis X pass the PAIR bounds.

    `residual` is a banded residual |T V - V diag(values)| over about ||T||;
    X^T X = 1 is probed as |X^T X z - z| with a fixed z.
    """
    drifts = [0.0]
    for x in bases:
        z = np.cos(np.arange(x.shape[1]))  # a fixed probe with no special relation to the columns
        drifts.append(np.abs(np.einsum("ij,i->j", x, np.einsum("ij,j->i", x, z)) - z).max(initial=0.0))
    drift = float(np.max(drifts))  # NaN-propagating, unlike the builtin max
    if not (residual <= tolerances.PAIR_RESIDUAL and drift <= tolerances.PAIR_ORTHOGONALITY):
        raise NumericalConsistencyError(f"{what}: residual {residual:.1e}, orthogonality drift {drift:.1e}")


# -- even-sector pulse engine ----------------------------------------------------


@lru_cache(maxsize=2)  # an entry is h x h floats, 0.8 GB at N = 2*10^4; a run uses one N
def pair_factorization(n_spins: int) -> EigenFactorization:
    """Eigendecomposition of J_x^2 on the even-index sector, the generator of a y pulse pair.

    On that sector J_x^2 = (J+^2 + J-^2 + J+J- + J-J+)/4 is real symmetric
    tridiagonal: diagonal (ladder[k-1]^2 + ladder[k]^2)/4 and off-diagonal
    ladder[k] ladder[k+1]/4 at even k.  J_y^2 differs only in the sign of
    the off-diagonal, i.e. by the gauge diag((-1)^i), so this one
    factorization serves pairs about both axes.

    Its eigenvalues are the exact m^2, m = J mod 1, ..., J, and the column of
    m^2 is the even rows of the J_x eigenvector of eigenvalue m, i.e. of the
    Wigner matrix d^J(pi/2) (`_wigner_pair_vectors`).  They are built by
    elementwise numpy alone, with no LAPACK or BLAS call, so they, and every
    pulse trace built on them, do not depend on the BLAS thread count.  The
    banded residual and an orthogonality probe are checked against
    `tolerances.PAIR_RESIDUAL` and `tolerances.PAIR_ORTHOGONALITY`.
    """
    ops = build_operators(n_spins)
    h = even_sector_dim(n_spins)
    check_dense_fits(h, h, 8, f"pair factorization at N={n_spins}")
    mu = ops.m_values[:h][::-1]  # J mod 1, ..., J
    vectors = _wigner_pair_vectors(ops.ladder, mu)
    squares = np.zeros(ops.dim + 1)
    squares[1:-1] = ops.ladder**2
    diag = (squares[:-1] + squares[1:])[0::2] / 4.0
    off = ops.twist_band[0::2] / 2.0
    residual = _tridiagonal_residual(diag, off, vectors, mu**2) / ops.total_spin**2
    _check_eigenpairs(f"pair eigenvectors at N={n_spins}", residual, vectors)
    return EigenFactorization(_frozen(mu**2), _frozen(vectors))


_HUGE = 1e150  # a recurring column that passes it is scaled by 1/_HUGE


def _wigner_pair_vectors(ladder: np.ndarray, mu: np.ndarray) -> np.ndarray:
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


def _tridiagonal_residual(diag, off, vectors, values, rows: int = 8) -> float:
    """max |T V - V diag(values)| of the symmetric tridiagonal T = (diag, off), `rows` rows at a time."""
    h = diag.size
    worst = [0.0]
    for lo in range(0, h, rows):
        hi = min(lo + rows, h)
        r = (diag[lo:hi, None] - values) * vectors[lo:hi]
        up, down = min(hi, h - 1), max(lo, 1)  # rows with a neighbour below, above
        r[: up - lo] += off[lo:up, None] * vectors[lo + 1 : up + 1]
        r[down - lo :] += off[down - 1 : hi - 1, None] * vectors[down - 1 : hi - 1]
        worst.append(np.abs(r, out=r).max())
    return float(np.max(worst))  # NaN-propagating, unlike the builtin max


def _gauge(amps: np.ndarray) -> np.ndarray:
    """diag((-1)^i) applied to an even-sector vector."""
    out = amps.copy()
    out[1::2] *= -1.0
    return out


def pair_coefficients(n_spins: int, axis: str, amps: np.ndarray) -> np.ndarray:
    """Eigen-coefficients of an even-sector state for a pair of pulses about `axis`.

    A pair about y twists with J_x^2, one about x with J_y^2 (the gauged J_x^2).
    """
    fac = pair_factorization(n_spins)
    return real_product(fac.eigenvectors, _gauge(amps) if axis == "x" else amps, transpose=True)


def step_phases(n_spins: int, axis: str, chi: float, ts) -> np.ndarray:
    """The phases exp(-i chi t lambda) of a step's basis at each time t into it, one row per t.

    lambda are the even-sector eigenvalues of the step's generator: J_z^2 in
    the Dicke basis for free twisting (no axis), the pair's m^2 in V for a
    pair about either axis.  A row's bits do not depend on the other times.
    """
    values = pair_factorization(n_spins).eigenvalues if axis else build_operators(n_spins).jz_sq_diag[0::2]
    rates = -1j * chi * np.asarray(ts, dtype=float)
    phases = rates[:, None] * values
    return np.exp(phases, out=phases)  # in place: a phase table is built without a second copy


def pair_amplitudes(n_spins: int, axis: str, coeffs: np.ndarray) -> np.ndarray:
    """The even-sector state V c of eigen-coefficients c of a pair about `axis`: undoes `pair_coefficients`."""
    amps = real_product(pair_factorization(n_spins).eigenvectors, coeffs)
    return _gauge(amps) if axis == "x" else amps


@dataclass(frozen=True)
class Bands:
    """The even-sector moment operators A in a basis W, as the nonzero diagonals of W^T A W.

    Each field maps an offset to `np.diag(W^T A W, offset)` up to its last
    nonzero entry:
    * `jz`: A = J_z;
    * `transverse`: A = J(J+1) - J_z^2;
    * `twist`: A = J_+^2, whose mean is P.
    W is real, so the first two are symmetric and keep only the offsets >= 0.
    Every other entry is zero, and `squeezing.sector_moments` sums only these.
    """

    jz: dict[int, np.ndarray]
    transverse: dict[int, np.ndarray]
    twist: dict[int, np.ndarray]


def _bands(**fields: dict) -> Bands:
    """`Bands` of the given diagonals, each cut after its last nonzero entry and left out if none is left."""

    def nonzero(diagonals: dict) -> dict:
        cut = {offset: np.trim_zeros(d, "b") for offset, d in diagonals.items()}
        return {offset: _frozen(d) for offset, d in cut.items() if d.size}

    return Bands(**{name: nonzero(diagonals) for name, diagonals in fields.items()})


@lru_cache(maxsize=2)  # O(N) floats an entry
def dicke_bands(n_spins: int) -> Bands:
    """The `Bands` of the Dicke basis, where free twisting is diagonal.

    J_z and J(J+1) - J_z^2 are diagonal there, and J_+^2 is the first
    super-diagonal ladder[2i] ladder[2i+1] = 2 twist_band[2i].
    """
    ops = build_operators(n_spins)
    j = ops.total_spin
    return _bands(
        jz={0: ops.m_values[0::2]},
        transverse={0: j * (j + 1.0) - ops.jz_sq_diag[0::2]},
        twist={1: 2.0 * ops.twist_band[0::2]},
    )


@lru_cache(maxsize=4)  # O(N) floats an entry: both axes of two spin numbers
def pair_bands(n_spins: int, axis: str) -> Bands:
    """The `Bands` of the eigenvectors V of a pair about `axis`, from closed forms in O(N).

    Column m of V is the even part of the J_x eigenvectors of eigenvalue
    +/-m, and J_z acts on those as a ladder: Z = V^T J_z V is tridiagonal with
    zero diagonal and super-diagonal sqrt(J(J+1) - m(m+1))/2 (times sqrt 2 at
    m = 0, even N), except Z = (J + 1/2)/2 at m = 1/2, odd N, where +/-1/2
    meet.  With D = diag(m^2) = V^T J_x^2 V, J_y^2 = J(J+1) - J_x^2 - J_z^2 and
    J_x J_y + J_y J_x = i [J_x^2, J_z], the other two are J(J+1) - Z^2 and
    J_+^2 = 2 D + Z^2 - J(J+1) - [D, Z], both of width 2.  A pair about x acts
    in the gauge diag((-1)^i), which only flips the sign of J_+^2.  No matrix
    product is made, so the bands do not depend on the BLAS thread count.
    """
    if axis == "x":
        bands = pair_bands(n_spins, "y")
        return replace(bands, twist={offset: _frozen(-d) for offset, d in bands.twist.items()})
    ops = build_operators(n_spins)
    h = even_sector_dim(n_spins)
    jj = ops.total_spin * (ops.total_spin + 1.0)
    mu = ops.m_values[:h][::-1]
    z0 = np.zeros(h)
    z1 = np.sqrt(jj - mu[:-1] * (mu[:-1] + 1.0)) / 2.0
    if n_spins % 2:
        z0[0] = (ops.total_spin + 0.5) / 2.0
    elif h > 1:
        z1[0] *= math.sqrt(2.0)
    sq0 = z0**2  # the diagonals of Z^2 at offsets 0, 1, 2
    sq0[:-1] += z1**2
    sq0[1:] += z1**2
    sq1 = z1 * (z0[:-1] + z0[1:])
    sq2 = z1[:-1] * z1[1:]
    comm = (2.0 * mu[:-1] + 1.0) * z1  # [Z, D] above the diagonal: (mu_(a+1)^2 - mu_a^2) Z_(a, a+1)
    t1, t2 = -sq1, -sq2
    return _bands(  # z0, and with it sq1, is zero past its first entry
        jz={0: z0, 1: z1},
        transverse={0: jj - sq0, 1: t1, 2: t2},
        twist={-2: sq2, -1: sq1 - comm, 0: 2.0 * mu**2 + sq0 - jj, 1: sq1 + comm, 2: sq2},
    )


def pulse_frame(axis: str, sign: int) -> np.ndarray:
    """Signed permutation P with <J>(exp(-i sign pi/2 J_axis) psi) = P <J>(psi).

    The rotation by sign * pi/2 about the axis, acting on 3-vectors (Rodrigues'
    formula with cos = 0).
    """
    n = np.array([axis == "x", axis == "y", False], dtype=float)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    return np.outer(n, n) + sign * cross
