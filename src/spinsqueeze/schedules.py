"""Compile twisting pulse schedules from Trotter-Suzuki product formulas.

A schedule describes one period as time-ordered steps, repeated n_cycles
times.  A step is free z^2 twisting or a pulse pair: a +pi/2 pulse about x
or y, free twisting, then the inverse pulse (Liu et al., PRL 107, 013601,
2011), the unit the even-sector engine runs.  The flat list of free segments
and instantaneous pulses (`Schedule.segments`), the period length `t_c` and
the pulse count are read off the steps.  `SCHEME_ORDERS` is the one table of
pulse schemes; every period is the product formula of its scheme's order,
compiled by `compile_scheme` from one ordered coefficient list:

* "liu1": order 1, one first-order block, pulses at delta_t and 3*delta_t;
* "schemeA": order 2, the symmetrized block, pulses at delta_t/2 and 5*delta_t/2;
* "schemeB": order 4, the triple-jump pattern (s, 1 - 2s, s) merged into 4
  free steps and 3 pulse pairs;
* "general": any even order by recursive triplet expansion.

Negative coefficients are realized by swapping the twisting axis instead of
reversing time.  `strength_divisor`, 3 * sum |c_i|, is the period length over
delta_t and the divisor of chi in the effective Hamiltonian, defined here only.

The axis swap maps H = Jx^2 - Jy^2 to -H but leaves the third-order term
[H, [H, Jz^2]] of each block unchanged, so the triple-jump cancellation fails
and every compiled period above order 2 has a one-period error of O(delta_t^3)
whatever its coefficient pattern's order: (delta_t^3 / 12) * sum |c_i|^3 *
[H, [H, Jz^2]] to leading order.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_ORDER = 20
# The pulse schemes, each with its product-formula order; "general" takes its order as given.
SCHEME_ORDERS = {"liu1": 1, "schemeA": 2, "schemeB": 4, "general": None}


@dataclass(frozen=True)
class Segment:
    kind: str  # "free" | "pulse"
    duration: float = 0.0
    axis: str = ""
    sign: int = 0


def free(duration: float) -> Segment:
    if duration < 0:
        raise ValueError(f"free segment duration must be >= 0, got {duration}")
    return Segment("free", duration=duration)


def pulse(axis: str, sign: int) -> Segment:
    if axis not in ("x", "y") or sign not in (1, -1):
        raise ValueError(f"pulse must be ('x'|'y', +1|-1), got ({axis!r}, {sign!r})")
    return Segment("pulse", axis=axis, sign=sign)


@dataclass(frozen=True)
class Step:
    """Free z^2 twisting (no axis), or a pulse pair about `axis`.

    A pair is the +pi/2 pulse, `duration` of free twisting, then the inverse pulse.
    """

    duration: float
    axis: str = ""


@dataclass(frozen=True)
class Schedule:
    """One compiled period, as steps, plus its repetition count."""

    scheme: str
    order: int
    steps: tuple[Step, ...]
    delta_t: float
    n_cycles: int

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The period as time-ordered free segments and instantaneous pulses."""
        out: list[Segment] = []
        for step in self.steps:
            if step.axis:
                out += [pulse(step.axis, 1), free(step.duration), pulse(step.axis, -1)]
            else:
                out.append(free(step.duration))
        return tuple(out)

    @property
    def t_c(self) -> float:
        """Period length: the steps' durations summed in time order."""
        return sum(step.duration for step in self.steps)

    @property
    def pulses_per_period(self) -> int:
        return 2 * sum(1 for step in self.steps if step.axis)


def level_param(m: int) -> float:
    """Splitting coefficient for the recursion step from order 2m-2 to 2m."""
    return 1.0 / (2.0 - 2.0 ** (1.0 / (2 * m - 1)))


def ts_coefficients(order: int) -> tuple[float, ...]:
    """Signed block coefficients of the recursive even-order product formula, time ordered."""
    if order % 2 != 0 or order < 2:
        raise ValueError(f"Trotter-Suzuki order must be a positive even integer, got {order}")
    if order > MAX_ORDER:
        raise ValueError(
            f"order {order} exceeds {MAX_ORDER}; block coefficients grow too large to be useful"
        )
    leaves = [1.0]
    for m in range(order // 2, 1, -1):
        k = level_param(m)
        expanded = []
        for c in leaves:
            expanded.extend((k * c, (1.0 - 2.0 * k) * c, k * c))
        leaves = expanded
    return tuple(leaves)


def _block(coefficient: float, delta_t: float, order: int) -> list[Step]:
    """The block of one signed coefficient: free twisting then the pair at order 1, else split around it.

    Positive coefficients twist about x (a y pulse pair around the long step);
    negative ones twist about y (an x pair), which realizes the sign flip
    without negative evolution times.
    """
    c = abs(coefficient)
    axis = "y" if coefficient > 0 else "x"
    if order == 1:
        return [Step(c * delta_t), Step(2.0 * c * delta_t, axis)]
    return [Step(c * delta_t / 2.0), Step(2.0 * c * delta_t, axis), Step(c * delta_t / 2.0)]


def _normalize(steps: list[Step]) -> list[Step]:
    """Merge adjacent free steps."""
    out: list[Step] = []
    for step in steps:
        if out and not step.axis and not out[-1].axis:
            out[-1] = Step(out[-1].duration + step.duration)
        else:
            out.append(step)
    return out


def _formula(scheme: str, order: int) -> tuple[int, tuple[float, ...]]:
    """The order pulse `scheme` runs at when asked for `order`, and its signed block coefficients.

    The one lookup of compiler and divisor.  A named scheme takes 2 (the
    default) or its own order, and refuses any other, which it would ignore;
    "general" takes the even orders `ts_coefficients` expands.  Order 1 has
    one block of coefficient 1, as order 2 has.
    """
    if scheme not in SCHEME_ORDERS:
        raise ValueError(f"unknown pulse scheme {scheme!r}")
    own = SCHEME_ORDERS[scheme]
    if own is None:
        return order, ts_coefficients(order)
    if order not in (2, own):
        raise ValueError(f"field 'order' must be one of {sorted({2, own})} for scheme {scheme!r}, got {order!r}")
    return own, ts_coefficients(max(own, 2))


def compile_scheme(scheme: str, delta_t: float, n_cycles: int, order: int = 2) -> Schedule:
    """One period of a pulse scheme: the blocks of its coefficients, adjacent free steps merged."""
    if not delta_t > 0:
        raise ValueError(f"delta_t must be positive, got {delta_t}")
    if not isinstance(n_cycles, int) or isinstance(n_cycles, bool) or n_cycles < 1:
        raise ValueError(f"n_cycles must be a positive integer, got {n_cycles!r}")
    order, coefficients = _formula(scheme, order)
    steps = [step for c in coefficients for step in _block(c, delta_t, order)]
    return Schedule(scheme, order, tuple(_normalize(steps)), delta_t, n_cycles)


def strength_divisor(scheme: str, order: int = 2) -> float:
    """Period length over delta_t, also the divisor d of chi in the effective chi/d (Jx^2 - Jy^2).

    A block of coefficient c lasts 3 |c| delta_t at either order, so d = 3 sum |c_i|.
    """
    return 3.0 * sum(abs(c) for c in _formula(scheme, order)[1])


def delta_t_for(scheme: str, t_total: float, n_cycles: int, order: int = 2) -> float:
    """Solve for the step delta_t that fits n_cycles periods into t_total."""
    return t_total / (n_cycles * strength_divisor(scheme, order))


def schedule_to_text(schedule: Schedule) -> str:
    """Line-oriented serialization: header, then one FREE/PULSE line per segment."""
    lines = [
        f"# scheme={schedule.scheme} order={schedule.order}"
        f" delta_t={schedule.delta_t:.17g} t_c={schedule.t_c:.17g}"
        f" n_cycles={schedule.n_cycles}"
    ]
    for seg in schedule.segments:
        if seg.kind == "free":
            lines.append(f"FREE {seg.duration:.17g}")
        else:
            lines.append(f"PULSE {seg.axis} {seg.sign:+d}")
    return "\n".join(lines) + "\n"
