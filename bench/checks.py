"""Output checks of the benchmark, independent of the library's own numerics.

* `oracle_trace` recomputes a trace at small N with dense J matrices built
  here, ``scipy.linalg.expm`` for every free segment, pulse and ideal
  evolution, and xi^2 from ``eigvalsh`` of the transverse covariance.
* `trace_problems` checks the invariants every emitted trace must satisfy.
* The workload-specific checks (fit windows, CSV layout) live with the
  workloads; each check returns a list of problems, empty when it passes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.linalg import expm

XI2_START_TOL = 1e-12
MEAN_SPIN_TOL = 1e-12
ORACLE_REL_TOL = 1e-10
TIME_REL_TOL = 1e-12


def dense_spin(n_spins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jx, Jy, Jz in the Dicke basis ordered m = J, J-1, ..., -J."""
    j = n_spins / 2.0
    m = j - np.arange(n_spins + 1)
    raising = np.diag(np.sqrt((j - m[1:]) * (j + m[1:] + 1.0)), 1)  # J+|m> ~ |m+1>
    jx = (raising + raising.T) / 2.0
    jy = (raising - raising.T) / 2.0j
    return jx.astype(complex), jy, np.diag(m).astype(complex)


def xi2_of(state: np.ndarray, ops) -> float:
    """Kitagawa-Ueda xi^2 of one state: 2 lambda_min(transverse covariance) / J."""
    applied = [op @ state for op in ops]
    mean = np.array([np.vdot(state, v).real for v in applied])
    second = np.array([[np.vdot(a, b).real for b in applied] for a in applied])
    cov = (second + second.T) / 2.0 - np.outer(mean, mean)
    plane = np.linalg.svd(mean[None, :])[2][1:]  # orthonormal pair perpendicular to mean
    lam_min = np.linalg.eigvalsh(plane @ cov @ plane.T)[0]
    j = (len(state) - 1) / 2.0
    return 2.0 * max(lam_min, 0.0) / j


def sample_times(n_cycles: int, period: float, subsamples: int) -> list[float]:
    times = [0.0]
    for cycle in range(n_cycles):
        times.extend(cycle * period + k * period / (subsamples + 1) for k in range(1, subsamples + 2))
    return times


def oracle_trace(
    n_spins: int,
    n_cycles: int,
    t_total: float,
    subsamples: int,
    segments=None,
    ideal: str | None = None,
    rate: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(times, xi2) of a pulse schedule (`segments` of one period) or an ideal run.

    For a pulse schedule, interior samples sit at equal fractions of the
    period's free-evolution time, taken before any pulse at the same instant.
    `rate` is chi for free and ideal-OAT evolution and chi/divisor for ideal-TAT.
    """
    jx, jy, jz = dense_spin(n_spins)
    ops = (jx, jy, jz)
    period = t_total / n_cycles
    times = sample_times(n_cycles, period, subsamples)
    start = np.zeros(n_spins + 1, dtype=complex)
    start[0] = 1.0
    if ideal == "ideal-TAT":
        gen = jx @ jx - jy @ jy
        states = [expm(-1j * rate * t * gen) @ start for t in times]
    elif ideal == "ideal-OAT":
        start = expm(-1j * (math.pi / 2.0) * jy) @ start
        states = [expm(-1j * rate * t * (jz @ jz)) @ start for t in times]
    else:
        states = _pulse_states(segments, n_cycles, subsamples, jx, jy, jz, rate, start)
    return np.array(times), np.array([xi2_of(s, ops) for s in states])


def _pulse_states(segments, n_cycles, subsamples, jx, jy, jz, chi, state):
    axis_op = {"x": jx, "y": jy}
    twist = jz @ jz
    free_time = sum(s.duration for s in segments if s.kind == "free")
    offsets = [k * free_time / (subsamples + 1) for k in range(1, subsamples + 1)]
    steps = [
        expm(-1j * chi * s.duration * twist)
        if s.kind == "free"
        else expm(-1j * s.sign * (math.pi / 2.0) * axis_op[s.axis])
        for s in segments
    ]
    states = [state]
    for _ in range(n_cycles):
        elapsed = 0.0
        pending = list(offsets)
        for seg, step in zip(segments, steps):
            if seg.kind == "free":
                while pending and pending[0] <= elapsed + seg.duration:
                    partial = pending.pop(0) - elapsed
                    states.append(expm(-1j * chi * partial * twist) @ state)
                elapsed += seg.duration
            state = step @ state
        states.append(state)
    return states


def compare_to_oracle(times, xi2, oracle_times, oracle_xi2) -> tuple[float, list[str]]:
    """Largest relative xi^2 deviation and the problems found."""
    times, xi2 = np.asarray(times, dtype=float), np.asarray(xi2, dtype=float)
    if times.shape != oracle_times.shape:
        return math.inf, [f"{times.size} samples, oracle has {oracle_times.size}"]
    problems = []
    time_dev = float(np.max(np.abs(times - oracle_times)) / max(oracle_times[-1], 1e-300))
    if not time_dev <= TIME_REL_TOL:
        problems.append(f"sample times deviate by {time_dev:.3e} of t_total")
    dev = float(np.max(np.abs(xi2 - oracle_xi2) / np.abs(oracle_xi2)))
    if not dev <= ORACLE_REL_TOL:
        problems.append(f"xi2 deviates from the expm oracle by {dev:.3e} (relative)")
    return dev, problems


def trace_problems(xi2, mean_spin, n_spins: int) -> list[str]:
    """Invariants of every emitted trace: xi2(0) = 1, xi2 finite and >= 0, |<J>| <= J."""
    xi2 = np.asarray(xi2, dtype=float)
    mean_spin = np.asarray(mean_spin, dtype=float).reshape(-1, 3)
    j = n_spins / 2.0
    problems = []
    if xi2.size == 0:
        return ["empty trace"]
    if not abs(xi2[0] - 1.0) <= XI2_START_TOL:
        problems.append(f"xi2(0) = {xi2[0]!r}, want 1 within {XI2_START_TOL:g}")
    if not np.all(np.isfinite(xi2)):
        problems.append("xi2 has non-finite values")
    elif np.any(xi2 < 0.0):
        problems.append(f"xi2 has negative values (min {xi2.min():.3e})")
    length = np.linalg.norm(mean_spin, axis=1)
    if not np.all(length <= j * (1.0 + MEAN_SPIN_TOL)):
        problems.append(f"|<J>| reaches {np.nanmax(length)!r} > J = {j}")
    return problems


def digest(xi2) -> dict:
    """Summary of an xi^2 series for diffing outputs between commits."""
    xi2 = np.asarray(xi2, dtype=float)
    text = ",".join(f"{v:.9e}" for v in xi2)
    return {
        "samples": int(xi2.size),
        "xi2_min": float(xi2.min()),
        "argmin": int(xi2.argmin()),
        "xi2_last": float(xi2[-1]),
        "xi2_sum": float(xi2.sum()),
        "sha256_9e": hashlib.sha256(text.encode()).hexdigest()[:16],
    }
