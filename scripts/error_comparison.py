#!/usr/bin/env python3
"""Relative-error curves of the two- and six-pulse schedules at matched pulse budget.

Runs each scheme against its effective twisting reference over 1.5x the time
to the optimum (about 100 pulses each: 50 cycles of the two-pulse period,
17 of the six-pulse one) and writes seq/eff/err CSV triples.
"""

import argparse
from pathlib import Path

from spinsqueeze.cli import emit_trace_csv, error_curve_csv
from spinsqueeze.experiments import (
    ExperimentSpec,
    effective_counterpart,
    relative_error_curve,
    run_trace,
    tat_optimum,
)
from spinsqueeze.schedules import strength_divisor


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-spins", type=int, default=1250)
    parser.add_argument("--out", default="results/error_comparison")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ideal = tat_optimum(args.n_spins)

    for scheme, n_cycles in (("schemeA", 50), ("schemeB", 17)):
        d = strength_divisor(scheme)
        spec = ExperimentSpec(scheme, args.n_spins, n_cycles, 1.5 * d * ideal.t_opt)
        trace_seq = run_trace(spec)
        trace_eff = run_trace(effective_counterpart(spec))
        emit_trace_csv(trace_seq, out / f"{scheme}_seq.csv")
        emit_trace_csv(trace_eff, out / f"{scheme}_eff.csv")
        curve = relative_error_curve(trace_seq, trace_eff)
        (out / f"{scheme}_err.csv").write_text(error_curve_csv(curve), newline="\n")
        pre_opt = curve.relative_errors[curve.times <= d * ideal.t_opt]
        print(
            f"{scheme} (N_p={n_cycles * spec.schedule.pulses_per_period}): "
            f"max pre-optimum rel err = {pre_opt.max():.4f} -> {out}/{scheme}_*.csv"
        )


if __name__ == "__main__":
    main()
