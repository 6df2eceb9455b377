#!/usr/bin/env python3
"""Cycle-count convergence of the first- and second-order pulse schedules.

Reproduces the headline comparison: the symmetrized two-pulse period reaches
the twisting optimum with ~50 cycles, while the first-order split needs on
the order of a thousand.  Emits one trace CSV per scheme plus a convergence
table under the output directory.
"""

import argparse
import time
from pathlib import Path

from spinsqueeze.cli import emit_trace_csv
from spinsqueeze.experiments import ExperimentSpec, nc_convergence, run_trace, tat_optimum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-spins", type=int, default=1250)
    parser.add_argument("--nc-list", default="10,50,200,1000")
    parser.add_argument("--out", default="results/convergence")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nc_list = [int(v) for v in args.nc_list.split(",")]

    ideal = tat_optimum(args.n_spins)
    t_total = 3.0 * ideal.t_opt  # strobe grid ends exactly on the effective optimum
    print(f"N={args.n_spins}: ideal xi2_min={ideal.xi2_min:.6g} at chi*t={ideal.t_opt:.6g}")

    for scheme in ("liu1", "schemeA"):
        start = time.time()
        rows = nc_convergence(scheme, args.n_spins, t_total, nc_list)
        table = out / f"{scheme}_convergence.csv"
        with table.open("w", newline="\n") as fh:
            fh.write("n_cycles,xi2_best_strobe,rel_error\n")
            for row in rows:
                fh.write(f"{row.n_cycles},{row.xi2_best_strobe:.12g},{row.rel_error:.12g}\n")
        print(f"{scheme}: " + "  ".join(f"Nc={r.n_cycles}:{r.rel_error:.3f}" for r in rows)
              + f"  ({time.time() - start:.1f}s) -> {table}")

        trace = run_trace(ExperimentSpec(scheme, args.n_spins, max(nc_list), t_total))
        emit_trace_csv(trace, out / f"{scheme}_trace.csv")


if __name__ == "__main__":
    main()
