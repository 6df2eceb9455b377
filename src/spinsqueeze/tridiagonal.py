"""The smallest positive eigenpairs of a symmetric tridiagonal matrix with zero diagonal, in numpy alone.

`propagate.twist_window` solves the middle of the spectrum of the even block
of J_x^2 - J_y^2 with `window_eigenpairs`.  Every step is elementwise numpy or
`np.einsum` without `optimize`, with no LAPACK or BLAS call, so the result's
bytes do not depend on the BLAS thread count, and no scipy is needed.  Only
`twist_window` imports this module, on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .spin_ops import NumericalConsistencyError, check_fits

STURM_BLOCK = 64  # pivot rows a sweep holds at once
MULTISECTION_SHIFTS = 4  # shifts per wanted eigenvalue in an isolating sweep, at least 7 per bracket
TIGHTENING_SWEEPS = 2  # multisection sweeps after isolation: each makes Newton's start 8 times closer
NEWTON_SWEEPS = 100  # more than bisection alone needs to reach roundoff


def window_eigenpairs(band: np.ndarray, count: int, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `count` smallest positive eigenpairs of the symmetric tridiagonal T with zero diagonal and off-diagonal `band`.

    D T D = -T with D = diag((-1)^i), so the spectrum is +/-lambda with
    v(-lambda) = D v(lambda), and at odd size 0 is an eigenvalue whose vector
    lives on the even rows.  The basis (v(lambda) +/- v(-lambda)) / sqrt 2
    splits by rows: the even-row vectors sqrt 2 v[0::2] are orthonormal, and
    so are the odd-row ones sqrt 2 v[1::2].  Returned are the values, the
    even-row and the odd-row vectors, ascending, with 0 and the null vector
    (`_null_vector`) first at odd size; no mirror is formed.  The lambda > 0
    are solved by `_positive_eigenvalues` and `_twisted_vectors`, then each
    row set is orthogonalized once (`_orthogonalize`).  Both vector sets are
    column-major.  `what` names the solve in the error raised when its arrays
    cannot fit in memory.
    """
    h = band.size + 1
    check_fits(4 * 8 * h * count, f"{what} needs at its peak four {h} x {count} float arrays, in all")
    values = _positive_eigenvalues(band, count)
    vectors = _twisted_vectors(band, values)
    even = math.sqrt(2.0) * vectors[0::2]
    if h % 2:
        values = np.concatenate([[0.0], values])
        even = np.column_stack([_null_vector(band), even])
    odd = math.sqrt(2.0) * vectors[1::2]
    return values, np.asfortranarray(_orthogonalize(even)), np.asfortranarray(_orthogonalize(odd))


def _positive_eigenvalues(band: np.ndarray, count: int) -> np.ndarray:
    """The `count` smallest positive eigenvalues of T (zero diagonal, off-diagonal `band`), ascending.

    Every wanted eigenvalue keeps a bracket [a, b) from Sturm counts
    (`_sturm_sweep`).  Multisection splits each bracket into equal parts, all
    brackets in one sweep, until each holds its eigenvalue alone, and
    TIGHTENING_SWEEPS more times.  Newton's method on log|det(T - s)| then
    converges quadratically, its iterates narrowing the brackets; a Newton
    point outside its bracket is replaced by the midpoint, and one closer than
    4 eps ||T|| to the last ends the search.  A shift where a pivot vanishes
    exactly has no slope and moves one ulp toward its eigenvalue: at even N the
    block is persymmetric, and the eigenvectors odd under its reversal make a
    leading block share their eigenvalue.
    """
    h = band.size + 1
    if count == 0:
        return np.zeros(0)
    b2 = [0.0] + (band * band).tolist()  # b2[i] couples pivot i to pivot i - 1
    index = (h + 1) // 2 + np.arange(count)  # of each wanted eigenvalue in the ascending spectrum
    norm = 2.0 * float(band.max())  # Gershgorin: every eigenvalue lies in (-norm, norm)
    a, b = np.zeros(count), np.full(count, norm)
    below_a, below_b = np.full(count, h // 2), np.full(count, h)  # eigenvalues below a and b
    tighten = TIGHTENING_SWEEPS
    while True:
        todo = np.flatnonzero(below_b - below_a > 1)
        if todo.size == 0:
            if not tighten:
                break
            tighten -= 1
            todo = np.arange(count)
        starts = np.sort(a[todo])
        distinct = 1 + np.count_nonzero(starts[1:] != starts[:-1])  # np.unique would import numpy.ma
        parts = max(8, MULTISECTION_SHIFTS * count // distinct + 1)
        shifts = a[todo, None] + (b - a)[todo, None] * (np.arange(1, parts) / parts)
        unique, inverse = np.unique(shifts, return_inverse=True)
        below = _sturm_sweep(b2, unique)[0][inverse.reshape(shifts.shape)]
        grid = np.column_stack([a[todo], shifts, b[todo]])
        below = np.column_stack([below_a[todo], below, below_b[todo]])
        first = np.argmax(below > index[todo, None], axis=1)  # the first point past the eigenvalue
        rows = np.arange(todo.size)
        a[todo], below_a[todo] = grid[rows, first - 1], below[rows, first - 1]
        b[todo], below_b[todo] = grid[rows, first], below[rows, first]
    tol = 4.0 * np.finfo(float).eps * norm
    s = 0.5 * (a + b)
    active = np.arange(count)
    for _ in range(NEWTON_SWEEPS):
        if active.size == 0:
            return s
        x = s[active]
        below, slope = _sturm_sweep(b2, x, slopes=True)
        left = below <= index[active]  # x is at or below its eigenvalue
        lo, hi = np.where(left, x, a[active]), np.where(left, b[active], x)
        a[active], b[active] = lo, hi
        with np.errstate(divide="ignore"):
            step = 1.0 / slope
        new = x - step
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        inside = (new >= lo) & (new <= hi)
        new = np.where(inside | done, np.clip(new, lo, hi), 0.5 * (lo + hi))
        s[active] = np.where(np.isnan(step), np.nextafter(x, np.where(left, np.inf, -np.inf)), new)
        active = active[~done]
    raise NumericalConsistencyError(f"tridiagonal eigenvalues: {active.size} not converged in {NEWTON_SWEEPS} sweeps")


def _sturm_sweep(b2: list, shifts: np.ndarray, slopes: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """For each shift s: how many eigenvalues of T lie below s, and with `slopes` d/ds log|det(T - s)|.

    T - s = L diag(d) L^T has the pivots d_0 = -s, d_i = -s - b2[i] / d_(i-1)
    (b2[0] = 0), as many of them negative as there are eigenvalues below s.
    The slope is sum_i q_i with q_i = d_i'/d_i, from the stable recurrence
    q_i = (t_i q_(i-1) - 1) / d_i, t_i = b2[i] / d_(i-1); the derivatives d_i'
    themselves overflow.  A zero pivot makes the next one infinite, which keeps
    the count right; its slope is NaN.  Each row is a few elementwise ops over
    all shifts, STURM_BLOCK rows held at a time.
    """
    m = shifts.size
    neg = -shifts
    pivots = np.empty((STURM_BLOCK, m))
    ratios = np.empty((STURM_BLOCK, m)) if slopes else None
    t = np.empty(m)
    below = np.zeros(m, dtype=np.intp)
    slope = np.zeros(m) if slopes else None
    prev_d, prev_q = np.ones(m), np.zeros(m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, len(b2), STURM_BLOCK):
            block = b2[start : start + STURM_BLOCK]
            if slopes:
                for b2_i, d, q in zip(block, pivots, ratios):
                    np.divide(b2_i, prev_d, out=t)
                    np.subtract(neg, t, out=d)
                    np.multiply(t, prev_q, out=q)
                    np.subtract(q, 1.0, out=q)
                    np.divide(q, d, out=q)
                    prev_d, prev_q = d, q
                slope += ratios[: len(block)].sum(axis=0)
            else:
                for b2_i, d in zip(block, pivots):
                    np.divide(b2_i, prev_d, out=d)
                    np.subtract(neg, d, out=d)
                    prev_d = d
            below += np.count_nonzero(np.signbit(pivots[: len(block)]), axis=0)  # -0 pairs with +inf
    return below, slope


def _twisted_vectors(band: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of T for its eigenvalues `values`, one column each, by one inverse-iteration step.

    T - s, s = lambda, is factored from the top, L diag(d+) L^T, and from the
    bottom, U diag(d-) U^T.  The two meet at the twist row r that minimizes
    |d+_r + d-_r + s| = 1 / |(T - s)^-1_rr|, a row where the eigenvector is
    large.  The inverse-iteration step from e_r is then z_r = 1,
    z_i = -(b_i / d+_i) z_(i+1) above r and z_i = -(b_(i-1) / d-_i) z_(i-1)
    below it (Parlett & Dhillon 2000), each a pass over the rows for all
    columns at once.  A top-down LDL^T step alone fails here: at even N the
    block is persymmetric, and its eigenvectors odd under the reversal vanish
    at the middle row, where a top-down pivot vanishes too.  An exactly zero
    pivot becomes `tiny`, which rounding absorbs into any other pivot, so the
    ratios across it stay finite.
    """
    h = band.size + 1
    count = values.size
    b2 = (band * band).tolist()
    neg = -values
    tiny = 1e-200 * float(band.max(initial=0.0))
    top = np.empty((h, count))
    bottom = np.empty((h, count))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        top[0] = neg
        for b2_i, prev, d in zip(b2, top, top[1:]):
            np.divide(b2_i, prev, out=d)
            np.subtract(neg, d, out=d)
            d += tiny
        bottom[-1] = neg
        for b2_i, prev, d in zip(b2[::-1], bottom[::-1], bottom[-2::-1]):
            np.divide(b2_i, prev, out=d)
            np.subtract(neg, d, out=d)
            d += tiny
        twist = np.abs(top + bottom + values).argmin(axis=0)
        np.divide(-band[:, None], top[:-1], out=top[:-1])  # now z_i / z_(i+1) above the twist
        np.divide(-band[:, None], bottom[1:], out=bottom[1:])  # now z_i / z_(i-1) below it
    starts: dict[int, list[int]] = {}
    for col, row in enumerate(twist.tolist()):
        starts.setdefault(row, []).append(col)
    bottom[0] = 0.0
    top[-1] = 0.0
    for z, rows in ((bottom, range(h)), (top, range(h - 1, -1, -1))):
        prev = None
        for i in rows:  # z_i = ratio_i z_prev: 0 until the twist row, 1 there
            row = z[i]
            if prev is not None:
                row *= prev
            cols = starts.get(i)
            if cols:
                row[cols] = 1.0
            prev = row
    vectors = bottom
    vectors += top
    vectors[twist, np.arange(count)] = 1.0
    vectors /= np.sqrt(np.einsum("ij,ij->j", vectors, vectors))
    return vectors


def _null_vector(band: np.ndarray) -> np.ndarray:
    """The even rows of T's unit null vector at odd size; its odd rows are zero.

    Row 2j+1 of T x = 0 gives x_(2j+2) = -(b_(2j) / b_(2j+1)) x_(2j), summed in
    logs so that no product over- or underflows.
    """
    logs = np.concatenate([[0.0], np.cumsum(np.log(band[0::2]) - np.log(band[1::2]))])
    x = np.exp(logs - logs.max())
    x[1::2] *= -1.0
    return x / math.sqrt(float(np.einsum("i,i->", x, x)))


def _orthogonalize(x: np.ndarray) -> np.ndarray:
    """The first-order symmetric orthogonalization x (I - E/2) with E = x^T x - I, by einsum, not BLAS."""
    gram = np.einsum("ij,ik->jk", x, x)
    gram[np.diag_indices_from(gram)] -= 1.0
    return x - 0.5 * np.einsum("ij,jk->ik", x, gram)
