"""Numerical tolerances.

NORM_DRIFT bounds |norm - 1| of a pulse trace's state at every period
boundary; the TWIST_WINDOW bounds are those of `propagate.twist_window`.
The PAIR bounds hold the banded residual and the orthogonality probe of
both numpy eigensolvers: `propagate.pair_factorization` (measured up to
N = 2*10^4: residual 3.5e-15, probe 1.5e-13) and `propagate.twist_window`
(residual over ||T|| <= 2.6e-16, probe <= 9.9e-15, N = 400 to 2*10^4; its
solve takes 0.017, 0.023, 0.044, 0.30 and 0.85 s at N = 400, 800, 2000,
10^4 and 2*10^4 on one BLAS thread, against 0.021, 0.040, 0.093, 0.66 and
3.3 s with scipy's `stebz`).
UNITARITY and RECONSTRUCTION are the bounds the tests hold the small-N
oracles to: ||U^dagger U - 1||_2 of `schedule_unitary`'s pulses and
`EigenFactorization.reconstruction_error`.
"""

from __future__ import annotations

UNITARITY = 1e-9
RECONSTRUCTION = 1e-8
NORM_DRIFT = 1e-10
TWIST_WINDOW_EDGE = 1e-15  # largest |<J,J|v>| of the window's end vectors
TWIST_WINDOW_WEIGHT = 1e-13  # largest |1 - weight of |J,J> in the window|
PAIR_RESIDUAL = 1e-13  # largest |T V - V diag(w)| / ||T|| of the eigensolvers (J^2 for the pairs)
PAIR_ORTHOGONALITY = 1e-12  # largest |V^T V z - z| of its probe z, entries in [-1, 1]
