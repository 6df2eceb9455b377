#!/usr/bin/env python3
"""Print the metrics of benchmark records side by side, as a markdown table.

    python3 bench/table.py .bench_out/pulse_strobe-seed1-trace1.json [other.json ...]

Each record is a file bench/run.py writes to .bench_out/; give two records of
the same workload and seed from two commits to compare them.
"""

import json
import sys
from pathlib import Path


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(Path(p).read_text()) for p in paths]
    names = list(dict.fromkeys(name for r in records for name in r["metrics"]))
    heads = [f"{r['workload']} seed {r['seed']} ({r['repetitions']} reps)" for r in records]
    print("| metric | unit | " + " | ".join(heads) + " |")
    print("|---|---|" + "---:|" * len(records))
    for name in names:
        unit = next(r["metrics"][name]["unit"] for r in records if name in r["metrics"])
        cells = [f"{r['metrics'][name]['value']:.4g}" if name in r["metrics"] else "" for r in records]
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    print("| error_rate | fraction | " + " | ".join(f"{r['error_rate']:g}" for r in records) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
