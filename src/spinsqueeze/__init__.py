"""Spin squeezing with pulse-compiled twisting dynamics."""

from .spin_ops import build_operators, coherent_state_z
from .propagate import evolve_twist, twist_factorization, unitary_distance
from .squeezing import find_optimum, squeezing_parameter
from .experiments import run_trace, tat_optimum, time_cost

__all__ = [
    "build_operators",
    "coherent_state_z",
    "evolve_twist",
    "find_optimum",
    "run_trace",
    "squeezing_parameter",
    "tat_optimum",
    "time_cost",
    "twist_factorization",
    "unitary_distance",
]
