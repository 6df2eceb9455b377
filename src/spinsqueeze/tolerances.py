"""Numerical tolerances.

NORM_DRIFT bounds |norm - 1| of a pulse trace's state at every period
boundary; the TWIST_WINDOW bounds are those of `propagate.twist_window`.
The PAIR bounds hold the banded residual and the orthogonality probe of
both numpy eigensolvers, `propagate.pair_factorization` and
`propagate.twist_window` (the latter probes its even-row and odd-row
vectors each).
"""

from __future__ import annotations

NORM_DRIFT = 1e-10
TWIST_WINDOW_EDGE = 1e-15  # largest |<J,J|v>| of the window's end vectors
TWIST_WINDOW_WEIGHT = 1e-13  # largest |1 - weight of |J,J> in the window|
PAIR_RESIDUAL = 1e-13  # largest |T V - V diag(w)| / ||T|| of the eigensolvers (J^2 for the pairs)
PAIR_ORTHOGONALITY = 1e-12  # largest |V^T V z - z| of its probe z, entries in [-1, 1]
