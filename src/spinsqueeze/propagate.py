"""Exact unitary time evolution.

Every pulse schedule starts from |J,J> and is a sequence of free z^2
twisting and pulse pairs (a +pi/2 pulse about a, free time tau, the
inverse pulse).  A pair about y is exp(-i chi tau J_x^2) and a pair about x
is exp(-i chi tau J_y^2); both, like free twisting, keep the state in the
even-index Dicke sector of dimension N//2 + 1.  On that sector J_x^2 is real
symmetric tridiagonal and J_y^2 is the same matrix in the (-1)^i gauge, so
the pulse engine is

* free twisting: diagonal phases on the even sector, O(N);
* pair evolution: one cached factorization of J_x^2 per spin number, its
  exact eigenvalues m^2 and its eigenvectors V from the three-term Wigner-d
  recurrence in numpy alone (`pair_factorization`), kept half-size by V's
  symmetries and checked once that store is built, applied as two products
  per pair, V^T psi (`pair_coefficients`) and V times the phased
  coefficients (`pair_amplitudes`);
* phases: every step is diagonal in its own basis, the Dicke basis for
  free twisting and V for a pair, so its evolution is the phases
  exp(-i chi t lambda) of its eigenvalues (`step_phases`), which depend only
  on the time into it;
* moments: J_z, J(J+1) - J_z^2 and J_+^2 are banded in both bases
  (`Bands`: `dicke_bands`, and `pair_bands` in closed forms in O(N)), so a
  sample is summed from a step's phased coefficients with no back-transform.

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
    SpinOperators,
    _frozen,
    build_operators,
    check_fits,
    even_sector_dim,
)

TWIST_WINDOW_HALF_WIDTH = 96  # of the first window at every N; it doubled at most once at the N measured up to 10^5


SMALL_GEMM_MNK = 10**6  # OpenBLAS's small-matrix dgemm path (SkylakeX kernels) takes M*N*K up to this
PRODUCT_BLOCK_ROWS = 64  # taller row blocks ran no faster


def real_product(matrix: np.ndarray, vector: np.ndarray, transpose: bool = False) -> np.ndarray:
    """matrix @ vector, or matrix.T @ vector with `transpose`, for a real matrix: one pass over it.

    The complex vector is read as an n x 2 real array (its real and imaginary
    parts side by side), so the matrix is read once, not once per part as by
    two GEMVs; an n x c complex `vector` is read as n x 2c, c vectors in one
    pass.  One unblocked two-column GEMM packs the matrix and is slower
    than the GEMV pair from about 1000 rows, so the product runs in row
    blocks, each GEMM small enough (M N K <= SMALL_GEMM_MNK) for OpenBLAS's
    small-matrix kernel, which runs on the calling thread: the result's bits
    do not depend on the BLAS thread count.  matrix @ vector writes each
    block's rows straight into the output; matrix.T @ vector adds the blocks'
    matrix[block].T @ vector[block] in row order.
    """
    rows, cols = matrix.shape
    vector = np.ascontiguousarray(vector, dtype=complex)
    pairs = vector.view(float).reshape(len(vector), -1)
    out = np.empty((cols if transpose else rows, *vector.shape[1:]), dtype=complex)
    out_pairs = out.view(float).reshape(len(out), -1)
    block = max(1, min(PRODUCT_BLOCK_ROWS, SMALL_GEMM_MNK // (pairs.shape[1] * cols)))
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
    """J_x^2 on the even sector: eigenvalues m^2, m = J mod 1, ..., J, and eigenvectors V, half-size.

    `store` holds about h^2 / 2 numbers of V.  Even N: rows m_z and -m_z agree up to the column sign
    (-1)^(J-m), so V is two blocks of its top rows (and middle row), one per sign, acting on
    psi_top +/- psi_mirror; `pairing` is None.  Odd N: the store is V_E, V's columns m = 1/2, 5/2, ...;
    the others are V_O = W V_E / D (`pairing`), so a product is one pass over V_E with two vectors."""

    eigenvalues: np.ndarray
    store: tuple[np.ndarray, ...]
    pairing: OddPairing | None


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
    grams = [(x.shape[1], lambda z, x=x: np.einsum("ij,i->j", x, np.einsum("ij,j->i", x, z))) for x in (even, odd)]
    _check_eigenpairs(f"twist window at N={n_spins}", residual, *grams)  # einsum, with no BLAS call
    return TwistWindow(_frozen(w), _frozen(even), _frozen(odd))


def _check_eigenpairs(what: str, residual: float, *round_trips) -> None:
    """Raise NumericalConsistencyError unless `residual` and every basis X pass the PAIR bounds.

    `residual` is a banded residual |T V - V diag(values)| over about ||T||;
    X^T X = 1 is probed as |X^T X z - z| with a fixed z, X^T X applied by
    each (columns, function) of `round_trips`.
    """
    drifts = [0.0]
    for size, round_trip in round_trips:
        z = np.cos(np.arange(size))  # a fixed probe with no special relation to the columns
        drifts.append(np.abs(round_trip(z) - z).max(initial=0.0))
    drift = float(np.max(drifts))  # NaN-propagating, unlike the builtin max
    if not (residual <= tolerances.PAIR_RESIDUAL and drift <= tolerances.PAIR_ORTHOGONALITY):
        raise NumericalConsistencyError(f"{what}: residual {residual:.1e}, orthogonality drift {drift:.1e}")


# -- even-sector pulse engine ----------------------------------------------------


@lru_cache(maxsize=2)  # an entry is about h^2 / 2 floats, 0.4 GB at N = 2*10^4; a run uses one N
def pair_factorization(n_spins: int) -> EigenFactorization:
    """Eigendecomposition of J_x^2 on the even-index sector, the generator of a y pulse pair.

    On that sector J_x^2 = (J+^2 + J-^2 + J+J- + J-J+)/4 is real symmetric
    tridiagonal: diagonal (ladder[k-1]^2 + ladder[k]^2)/4 and off-diagonal
    ladder[k] ladder[k+1]/4 at even k.  J_y^2 differs only in the sign of
    the off-diagonal, i.e. by the gauge diag((-1)^i), so this one
    factorization serves pairs about both axes.

    Its eigenvalues are the exact m^2, m = J mod 1, ..., J, and the column of
    m^2 is the even rows of the J_x eigenvector of eigenvalue m, i.e. of the
    Wigner matrix d^J(pi/2), held half-size (`EigenFactorization`) as
    `_wigner_pair_vectors` writes it by elementwise numpy alone, so no pulse
    trace depends on the BLAS thread count.  The finished store is then
    checked: the banded residual |J_x^2 V - V diag(m^2)| / J^2 of every row of
    V (`_tridiagonal_residual`) and an orthogonality probe through the store's
    products, against `tolerances.PAIR_RESIDUAL` and `tolerances.PAIR_ORTHOGONALITY`.
    """
    check_fits(pair_store_bytes(n_spins), f"pair factorization at N={n_spins} needs a half-size store of")
    ops = build_operators(n_spins)
    h = even_sector_dim(n_spins)
    values = _frozen(ops.m_values[:h][::-1] ** 2)
    store = tuple(_frozen(block) for block in _wigner_pair_vectors(ops))
    fac = EigenFactorization(values, store, _odd_pairing(n_spins) if n_spins % 2 else None)

    squares = np.concatenate(([0.0], ops.ladder**2, [0.0]))  # ladder[k-1]^2 at k, zero past both ends
    diag, off = (squares[0 : 2 * h : 2] + squares[1 : 2 * h : 2]) / 4.0, ops.twist_band[0::2] / 2.0

    def residual(block: np.ndarray, columns: slice, sign: float = 0.0) -> float:
        """Of a block of V's top r rows; with a sign, V continues with its row r = sign * row h-1-r, the
        block's own row if h-1-r < r and otherwise the zero middle row of the sign -1 block at odd h."""
        r = len(block)
        below = sign * block[h - 1 - r] if sign and h - 1 - r < r else None
        return _tridiagonal_residual(diag[:r], off[:r], block, values[columns], below)

    if n_spins % 2:
        worst = residual(store[0], slice(0, None, 2))  # V_E holds all h rows
    else:
        worst = np.max([residual(*part) for part in zip(store, _column_parities(h), (1.0, -1.0))])
    round_trip = (h, lambda z: _coefficients(fac, _amplitudes(fac, z)))
    _check_eigenpairs(f"pair eigenvectors at N={n_spins}", float(worst) / ops.total_spin**2, round_trip)
    return fac


def _pair_store_shapes(n_spins: int) -> list[tuple[int, int]]:
    """Shapes of `EigenFactorization.store`: the blocks of sign +1 and -1 at even N, V_E at odd N."""
    h = even_sector_dim(n_spins)
    if n_spins % 2 == 0:
        return [(h - h // 2, h - h // 2), (h // 2, h // 2)]
    return [(h, h - h // 2)]


def pair_store_bytes(n_spins: int) -> int:
    """Bytes of the pair eigenvectors' half-size store of N spins, about 4 h^2."""
    return 8 * sum(rows * cols for rows, cols in _pair_store_shapes(n_spins))


def _column_parities(h: int) -> tuple[slice, slice]:
    """At even N = 2 (h - 1), V's columns of mirror sign +1 (m = J, J - 2, ...) and -1, each ascending in m."""
    first = (h - 1) % 2
    return slice(first, None, 2), slice(1 - first, None, 2)


@dataclass(frozen=True)
class OddPairing:
    """At odd N, the map of V's columns m = 1/2, 5/2, ... (V_E) onto m = 3/2, 7/2, ... (V_O).

    W = J_z + s R (J+ - J-)/2 on the even sector, R the reversal m_z -> -m_z and
    s = (-1)^((N-1)/2), is a sparse real operator that J_x^2 commutes with, and
    in V it couples only columns m and m + 1 for m = 1/2, 5/2, ..., by
    D = sqrt(J(J+1) - m(m+1)): W V_E = V_O D, with the last column of V_E sent
    to 0 when h is odd.  So V_O = W V_E / D: V^T psi is V_E^T psi and
    V_E^T (W psi) / D, and V c is a + W b for [a, b] = V_E [c_E, c_O / D].
    `diagonal`, `mirror` and `mirror_next` apply W (`apply`); `inverse_d` is 1/D.
    """

    diagonal: np.ndarray
    mirror: np.ndarray
    mirror_next: np.ndarray
    inverse_d: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x: J_z x plus s R (J+ - J-)/2 x, whose row j reads x[h-1-j] and x[h-j]; x may hold columns."""
        rows = (slice(None),) + (None,) * (x.ndim - 1)
        rev = x[::-1]
        out = self.diagonal[rows] * x + self.mirror[rows] * rev
        out[1:] += self.mirror_next[rows] * rev[:-1]
        return out


def _odd_pairing(n_spins: int) -> OddPairing:
    """The `OddPairing` of odd N spins, from the ladder in O(N)."""
    ops = build_operators(n_spins)
    h, j = even_sector_dim(n_spins), ops.total_spin
    s = 1.0 if (n_spins // 2) % 2 == 0 else -1.0
    m = ops.m_values[:h][::-1][0 : h - 1 : 2]  # 1/2, 5/2, ... with a partner m + 1
    return OddPairing(
        _frozen(ops.m_values[0::2]),
        _frozen(-s / 2.0 * ops.ladder[0::2][::-1]),  # the (J+ - J-)/2 term from x[h-1-j]
        _frozen(s / 2.0 * ops.ladder[1::2][::-1]),  # and from x[h-j], j >= 1
        _frozen(1.0 / np.sqrt(j * (j + 1.0) - m * (m + 1.0))),
    )


_HUGE = 1e150  # a recurring column that passes it is scaled by 1/_HUGE


def _wigner_pair_vectors(ops: SpinOperators) -> list[np.ndarray]:
    """The store of V (`EigenFactorization`) from the J_x recurrence.

    Column m solves (L[k-1] d[k-1] + L[k] d[k+1]) / 2 = m d[k], L = ladder,
    from d[0] = 1 at m_z = J down to the middle, k = 0 ... N//2: each step
    recurs into the growing solution, which is stable.  Row k is V's row k/2
    at even k and its mirror d[N-k] = (-1)^(J-m) d[k] V's row (N-k)/2 when
    N-k is even, which covers odd N; it goes straight into the store.  At odd
    N only the stored columns V_E recur.  Two rows are held.  A column passing
    _HUGE is scaled down; the rows stored before that are scaled after the
    loop, with the norms.
    """
    n, j, ladder = ops.n_spins, ops.total_spin, ops.ladder
    h = even_sector_dim(n)
    mu = ops.m_values[:h][::-1]  # J mod 1, ..., J
    cols = mu[0::2] if n % 2 else np.concatenate([mu[parity] for parity in _column_parities(h)])
    sign = np.where(np.rint(j - cols) % 2 == 0, 1.0, -1.0)
    store = [np.empty(shape) for shape in _pair_store_shapes(n)]
    lead = len(store[0])  # the sign +1 columns, which lead `cols`, at even N

    def targets(k: int) -> list[tuple[np.ndarray, slice]]:
        """The store rows that hold recurrence row k, each with its columns of the recurrence."""
        if n % 2:
            return [(store[0][k // 2 if k % 2 == 0 else (n - k) // 2], slice(None))]
        halves = (slice(0, lead), slice(lead, None))
        return [(block[k // 2], at) for block, at in zip(store, halves) if k % 2 == 0 and k // 2 < len(block)]

    norm2 = np.zeros(cols.size)
    events = []  # (first row after a scaling, its columns)
    prev, cur = np.zeros(cols.size), np.ones(cols.size)  # d[-1], d[0]
    for k in range(n // 2 + 1):
        for target, at in targets(k):
            np.multiply(cur[at], sign[at] if k % 2 else 1.0, out=target)
        for _ in range((k % 2 == 0) + ((n - k) % 2 == 0 and n - k != k)):  # once per V row that row k gives
            norm2 += cur * cur
        if k == n // 2:
            break
        nxt = 2.0 * cols * cur
        nxt -= ladder[k - 1] * prev  # d[-1] = 0
        nxt /= ladder[k]
        prev, cur = cur, nxt
        if np.abs(cur).max() > _HUGE:
            at = np.flatnonzero(np.abs(cur) > _HUGE)
            prev[at] /= _HUGE
            cur[at] /= _HUGE
            norm2[at] /= _HUGE**2
            events.append((k + 1, at.tolist()))  # a list takes a fifth of a small array's memory
    scale = 1.0 / np.sqrt(norm2)
    for k in range(n // 2, -1, -1):
        while events and events[-1][0] > k:
            scale[events.pop()[1]] /= _HUGE
        for target, at in targets(k):
            target *= scale[at]
    return store


def _tridiagonal_residual(diag, off, vectors, values, below=None, rows: int = 8) -> float:
    """max |T V - V diag(values)| of the symmetric tridiagonal T = (diag, off), `rows` rows at a time.

    With `below`, V is the top rows of a taller V that continues with that row, coupled to V's last
    row by off[-1]; without it, the row below is zero or there is none.
    """
    h = diag.size
    worst = [0.0]
    for lo in range(0, h, rows):
        hi = min(lo + rows, h)
        r = (diag[lo:hi, None] - values) * vectors[lo:hi]
        up, down = min(hi, h - 1), max(lo, 1)  # rows with a neighbour below, above
        r[: up - lo] += off[lo:up, None] * vectors[lo + 1 : up + 1]
        r[down - lo :] += off[down - 1 : hi - 1, None] * vectors[down - 1 : hi - 1]
        if hi == h and below is not None:
            r[-1] += off[h - 1] * below
        worst.append(np.abs(r, out=r).max())
    return float(np.max(worst))  # NaN-propagating, unlike the builtin max


def _gauge(amps: np.ndarray) -> np.ndarray:
    """diag((-1)^i) applied to an even-sector vector."""
    out = amps.copy()
    out[1::2] *= -1.0
    return out


def pair_coefficients(n_spins: int, axis: str, amps: np.ndarray) -> np.ndarray:
    """Eigen-coefficients V^T psi of an even-sector state for a pair of pulses about `axis`.

    A pair about y twists with J_x^2, one about x with J_y^2 (the gauged J_x^2).
    """
    return _coefficients(pair_factorization(n_spins), _gauge(amps) if axis == "x" else amps)


def _coefficients(fac: EigenFactorization, psi: np.ndarray) -> np.ndarray:
    """V^T psi from the factorization's store, in V's column order m = J mod 1, ..., J."""
    h, half, store, pairing = psi.size, psi.size // 2, fac.store, fac.pairing
    coeffs = np.empty(h, dtype=complex)
    if pairing is not None:  # V_E^T [psi, W psi] in one pass: V_E^T psi and D V_O^T psi
        both = np.empty((h, 2), dtype=complex)
        both[:, 0], both[:, 1] = psi, pairing.apply(psi)
        both = real_product(store[0], both, transpose=True)
        coeffs[0::2], coeffs[1::2] = both[:, 0], both[:half, 1] * pairing.inverse_d
        return coeffs
    for block, columns, fold in zip(store, _column_parities(h), (1.0, -1.0)):
        folded = psi[: len(block)].astype(complex)  # at odd h, the middle row is its own mirror
        folded[:half] += fold * psi[::-1][:half]
        coeffs[columns] = real_product(block, folded, transpose=True)
    return coeffs


def _amplitudes(fac: EigenFactorization, coeffs: np.ndarray) -> np.ndarray:
    """V c from the factorization's store: undoes `_coefficients`."""
    h, half, store, pairing = coeffs.size, coeffs.size // 2, fac.store, fac.pairing
    if pairing is not None:  # V_E [c_E, c_O / D] in one pass, then V_E c_E + W V_E c_O / D
        both = np.zeros((h - half, 2), dtype=complex)  # at odd h, V_E's last column has no partner
        both[:, 0], both[:half, 1] = coeffs[0::2], coeffs[1::2] * pairing.inverse_d
        both = real_product(store[0], both)
        return both[:, 0] + pairing.apply(both[:, 1])
    psi = np.empty(h, dtype=complex)
    plus, minus = (real_product(block, coeffs[columns]) for block, columns in zip(store, _column_parities(h)))
    psi[: h - half] = plus
    psi[:half] += minus
    psi[h - half :] = (plus[:half] - minus)[::-1]
    return psi


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
    amps = _amplitudes(pair_factorization(n_spins), coeffs)
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

