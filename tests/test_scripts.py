"""The reproduction scripts run end to end at small N and write their CSVs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsqueeze

ROOT = Path(__file__).resolve().parent.parent
TRACE_HEADER = "t,xi2,jx,jy,jz"


@pytest.mark.parametrize(
    "script, args, headers",
    [
        ("scaling_study.py", ["--n-list", "20,40,80"],
         {"scaling.csv": "n,xi2_min_twist_xy,xi2_min_twist_z"}),
        ("convergence_study.py", ["--n-spins", "40", "--nc-list", "5,10"],
         {f"{scheme}_{kind}.csv": header
          for scheme in ("liu1", "schemeA")
          for kind, header in (("convergence", "n_cycles,xi2_best_strobe,rel_error"),
                               ("trace", TRACE_HEADER))}),
        ("error_comparison.py", ["--n-spins", "40"],
         {f"{scheme}_{kind}.csv": header
          for scheme in ("schemeA", "schemeB")
          for kind, header in (("seq", TRACE_HEADER), ("eff", TRACE_HEADER),
                               ("err", "t,relative_error"))}),
    ],
    ids=["scaling", "convergence", "error"],
)
def test_script_writes_its_csvs(script, args, headers, tmp_path):
    out = tmp_path / "scaling.csv" if script == "scaling_study.py" else tmp_path
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(headers)
    for name, header in headers.items():
        assert (tmp_path / name).read_text().splitlines()[0] == header
