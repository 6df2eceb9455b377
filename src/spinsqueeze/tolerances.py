"""Numerical tolerances.

NORM_DRIFT is fixed: pulse traces check |norm - 1| against it at every period
boundary; so are the TWIST_WINDOW bounds of `propagate.twist_window`.  The unitarity
and reconstruction tolerances of the small-N reference checks scale with one
global strictness knob: ``set_strictness`` multiplies both at once (values
above 1.0 loosen, below 1.0 tighten).
"""

from __future__ import annotations

UNITARITY = 1e-9
RECONSTRUCTION = 1e-8
NORM_DRIFT = 1e-10
TWIST_WINDOW_EDGE = 1e-15  # largest |<J,J|v>| of the window's end vectors
TWIST_WINDOW_WEIGHT = 1e-13  # largest |1 - weight of |J,J> in the window|

_strictness = 1.0


def set_strictness(value: float) -> None:
    global _strictness
    if not value > 0:
        raise ValueError(f"strictness must be positive, got {value}")
    _strictness = float(value)


def get_strictness() -> float:
    return _strictness


def unitarity_tol() -> float:
    return UNITARITY * _strictness


def reconstruction_tol() -> float:
    return RECONSTRUCTION * _strictness
