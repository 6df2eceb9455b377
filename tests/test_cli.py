import ast
import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinsqueeze
from spinsqueeze import experiments
from spinsqueeze.cli import main, trace_csv
from spinsqueeze.config import parse_config, parse_sampling
from spinsqueeze.experiments import ExperimentSpec, oat_optimum, run_trace
from spinsqueeze.spin_ops import build_operators
from spinsqueeze.squeezing import SqueezingTrace

from oracles import coherent_state_z, squeezing_parameter


MINIMAL = {"scheme": "schemeA", "n_spins": 1250, "n_cycles": 50}


def test_parse_minimal_config():
    spec, out = parse_config(MINIMAL)
    assert (spec.scheme, spec.n_spins, spec.n_cycles) == ("schemeA", 1250, 50)
    assert spec.chi == 1.0
    assert spec.sampling == "stroboscopic"
    assert out is None


def test_parse_rejects_zero_spins():
    with pytest.raises(ValueError, match="n_spins"):
        parse_config({**MINIMAL, "n_spins": 0})


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="pulse_shape"):
        parse_config({**MINIMAL, "pulse_shape": "square"})


def test_parse_reports_missing_keys():
    with pytest.raises(ValueError, match="n_cycles"):
        parse_config({"scheme": "schemeA", "n_spins": 10})


def test_parse_rejects_type_mismatch():
    with pytest.raises(ValueError, match="n_spins"):
        parse_config({**MINIMAL, "n_spins": "many"})
    with pytest.raises(ValueError, match="chi"):
        parse_config({**MINIMAL, "chi": -2.0})


def test_parse_sampling_tags():
    assert parse_sampling("stroboscopic") == ("stroboscopic", 0)
    assert parse_sampling("fine(8)") == ("fine", 8)
    with pytest.raises(ValueError):
        parse_sampling("fine(0)")
    with pytest.raises(ValueError):
        parse_sampling("sometimes")


def test_parse_config_resolves_default_time():
    spec, _ = parse_config({"scheme": "schemeA", "n_spins": 20, "n_cycles": 5})
    assert spec.t_total > 0
    assert spec.sampling == "stroboscopic"


def test_trace_csv_empty_trace_is_header_only():
    empty = SqueezingTrace((), "schemeA", 4, 1, "stroboscopic")
    assert trace_csv(empty) == "t,xi2,jx,jy,jz\n"


def test_trace_csv_coherent_row():
    ops = build_operators(4)
    sample = squeezing_parameter(coherent_state_z(4), ops, t=0.0)
    trace = SqueezingTrace((sample,), "schemeA", 4, 1, "stroboscopic")
    lines = trace_csv(trace).splitlines()
    assert lines[0] == "t,xi2,jx,jy,jz"
    assert lines[1] == "0,1,0,0,2"


def test_trace_csv_round_trips_to_12_digits():
    trace = run_trace(ExperimentSpec("schemeA", 18, 6, 0.2))
    text = trace_csv(trace)
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == len(trace.samples)
    for row, sample in zip(rows, trace.samples):
        assert float(row["t"]) == pytest.approx(sample.t, rel=1e-11, abs=1e-12)
        assert float(row["xi2"]) == pytest.approx(sample.xi2, rel=1e-11)
        assert float(row["jz"]) == pytest.approx(sample.mean_spin[2], rel=1e-11, abs=1e-12)


def test_simulate_writes_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--scheme", "schemeA", "--n-spins", "16", "--n-cycles", "6",
            "--t-total", "0.25"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"t,xi2,jx,jy,jz\n")


def test_simulate_honors_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scheme": "schemeA", "n_spins": 16, "n_cycles": 4,
                                  "t_total": 0.25}))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--n-cycles", "6",
                 "--out", str(out)]) == 0
    n_rows = len(out.read_text().splitlines()) - 1
    assert n_rows == 7  # n_cycles came from the flag, not the file


def test_flags_complete_a_partial_config_file(tmp_path):
    """Flags are laid over the file before the one parse, so they may supply required keys."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scheme": "schemeA", "n_cycles": 0, "t_total": 0.25}))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(config), "--n-spins", "16", "--n-cycles", "6",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 7


@pytest.mark.parametrize(
    "text, message",
    [("[16, 6]", "config document must be a flat object, got list"), ('{"scheme": ', "is not valid JSON")],
    ids=["list", "invalid"],
)
def test_malformed_config_file_exits_2(tmp_path, capsys, text, message):
    """The file's shape is checked before the flags are laid over it."""
    config = tmp_path / "run.json"
    config.write_text(text)
    assert main(["simulate", "--config", str(config), "--n-cycles", "6"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, name):
    """A config file that cannot be read is bad input, not a runtime error."""
    assert main(["simulate", "--config", str(tmp_path / name)]) == 2
    captured = capsys.readouterr()
    assert "error: cannot read config file" in captured.err
    assert "runtime error" not in captured.err
    assert captured.out == ""


def test_config_file_with_the_removed_strictness_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scheme": "schemeA", "n_spins": 16, "n_cycles": 4,
                                  "strictness": 2.0}))
    assert main(["simulate", "--config", str(config)]) == 2
    assert "unknown config keys: strictness" in capsys.readouterr().err


REMOVED_NAMES = {
    "schedules": ["compile_scheme_a", "compile_scheme_b", "_COMPILERS", "period_in_delta_t_units",
                  "ScheduleStats", "schedule_stats", "_finish", "TsCoefficients", "S_PARAM"],
    "experiments": ["strength_divisor", "run_many", "_pair_steps", "_Step", "_interior_offsets",
                    "trotter_order_fit", "SAMPLE_BUFFER_ROWS", "PAIR_BLOCK_ENTRIES"],
    "propagate": ["rotate", "rotation_matrix", "_rotation_factorization", "rotation_propagator",
                  "Propagator", "evolve_oat", "spectral_norm_estimate", "frobenius_norm",
                  "twist_factorization", "evolve_twist", "schedule_unitary", "unitary_distance", "HALF_PI",
                  "free_phases", "pair_phases", "PairBands"],
    "spin_ops": ["expectation", "state_from_amplitudes", "mean_spin_vector", "DickeState",
                 "even_sector_state", "coherent_state_z", "coherent_state_x", "apply_jx", "apply_jy",
                 "apply_jz"],
    "squeezing": ["squeezing_parameter", "transverse_basis", "even_sector_moments", "pair_sector_moments",
                  "sector_samples"],
    "tolerances": ["UNITARITY", "RECONSTRUCTION"],
    "config": ["FORMATS"],
}
# Members of library classes that moved to the test oracles as functions, or were deleted.
REMOVED_MEMBERS = {
    "propagate.EigenFactorization": ["of", "propagator", "apply", "reconstruction_error"],
    "spin_ops.SpinOperators": ["jx", "jy", "jz", "twist_xy", "_dense"],
    "propagate.Bands": ["transverse", "twist"],
}


def test_import_and_api_guard(tmp_path):
    """One fresh process: the CLI import loads no process machinery, the package root
    re-exports nothing but its submodules, removed names are defined nowhere in their old
    modules (experiments imports `strength_divisor` from schedules, its one definition),
    removed class members are gone, and a config's `format` key is unknown (exit 2)."""
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**MINIMAL, "n_spins": 8, "n_cycles": 2, "format": "csv"}))
    script = f"""
import importlib, sys, types
import spinsqueeze, spinsqueeze.cli
loaded = {{"multiprocessing", "concurrent.futures.process"}} & set(sys.modules)
assert not loaded, loaded
exported = [name for name, value in vars(spinsqueeze).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)]
assert not exported, exported
for module, names in {REMOVED_NAMES!r}.items():
    mod = importlib.import_module("spinsqueeze." + module)
    defined = [name for name in names if hasattr(mod, name)
               and getattr(getattr(mod, name), "__module__", mod.__name__) == mod.__name__]
    assert not defined, (module, defined)
for owner, names in {REMOVED_MEMBERS!r}.items():
    module, _, cls = owner.partition(".")
    owner_cls = getattr(importlib.import_module("spinsqueeze." + module), cls)
    fields = getattr(owner_cls, "__dataclass_fields__", {{}})  # a field without a default is no class attribute
    kept = [name for name in names if hasattr(owner_cls, name) or name in fields]
    assert not kept, (owner, kept)
sys.exit(spinsqueeze.cli.main(["simulate", "--config", {str(config)!r}]))
"""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 2, result.stderr
    assert "unknown config keys: format" in result.stderr


def test_pulse_run_imports_no_scipy(tmp_path):
    """Every CLI path needs numpy alone: a pulse trace and each subcommand below load no scipy.

    Each runs in its own interpreter.  The ideal-TAT reference (timecost,
    scaling, simulate ideal-TAT, a default t_total, compare, converge) solves
    the twist window, the pulse runs the pair factorization.
    """
    runs = [
        "from spinsqueeze.experiments import ExperimentSpec, run_trace\n"
        "run_trace(ExperimentSpec('schemeA', 41, 5, 0.05, sampling='fine', subsamples=2))"
    ] + [
        f"assert spinsqueeze.cli.main({argv!r}) == 0"
        for argv in (
            ["timecost", "--n-spins", "200"],
            ["scaling", "--scheme", "ideal-TAT", "--n-list", "20,41,80"],
            ["simulate", "--scheme", "ideal-TAT", "--n-spins", "101", "--n-cycles", "5"],
            ["simulate", "--scheme", "schemeA", "--n-spins", "101", "--n-cycles", "5"],
            ["compare", "--scheme", "schemeA", "--n-spins", "60", "--n-cycles", "5", "--out", str(tmp_path / "cmp")],
            ["converge", "--scheme", "schemeA", "--n-spins", "40", "--nc-list", "5,10"],
            ["schedule", "--scheme", "schemeB", "--n-spins", "40", "--n-cycles", "2"],
        )
    ]
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for run in runs:
        script = f"""
import sys
import spinsqueeze.cli
{run}
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, (run, result.stderr)


def test_no_library_module_imports_scipy():
    """No module of the package imports scipy, at its top or inside a function: numpy is its one dependency."""
    importers = []
    for path in sorted(Path(spinsqueeze.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else []
            else:
                continue
            importers += [f"{path.name}:{node.lineno}" for m in modules if m.partition(".")[0] == "scipy"]
    assert not importers, importers


def test_compare_emits_three_files(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--scheme", "schemeA", "--n-spins", "16", "--n-cycles", "5",
                 "--t-total", "0.2", "--out", str(out)])
    assert code == 0
    for name in ("seq.csv", "eff.csv", "err.csv"):
        assert (out / name).exists()
    err_lines = (out / "err.csv").read_text().splitlines()
    assert err_lines[0] == "t,relative_error"
    assert len(err_lines) == 1 + 6


def test_schedule_text_output(tmp_path):
    out = tmp_path / "schedule.txt"
    code = main(["schedule", "--scheme", "schemeB", "--n-spins", "16", "--n-cycles", "3",
                 "--t-total", "0.3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# scheme=schemeB order=4")
    assert sum(1 for ln in lines if ln.startswith("PULSE")) == 6
    assert sum(1 for ln in lines if ln.startswith("FREE")) == 7


def test_converge_table(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--scheme", "schemeA", "--n-spins", "20",
                 "--t-total", "0.3", "--nc-list", "4,8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_cycles,xi2_best_strobe,rel_error"
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "8"]


def test_converge_takes_its_cycle_counts_from_nc_list_alone(tmp_path, capsys):
    """A config file's n_cycles is replaced by the sweep's counts; --n-cycles is no converge flag."""
    argv = ["converge", "--scheme", "schemeA", "--n-spins", "20", "--t-total", "0.3", "--nc-list", "4,8"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n_cycles": 999}))
    assert main(argv + ["--config", str(config)]) == 0
    assert capsys.readouterr().out == table
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--n-cycles", "999"])
    assert exc.value.code == 2


@pytest.mark.parametrize("nc_list", ["5,0", "0,5", "5,-3"])
def test_converge_checks_every_cycle_count_before_any_trace(nc_list, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_trace", None)  # a trace would raise TypeError: exit 1
    argv = ["converge", "--scheme", "schemeA", "--n-spins", "20", "--t-total", "0.3", "--nc-list", nc_list]
    assert main(argv) == 2
    assert "field 'n_cycles' must be >= 1" in capsys.readouterr().err


def test_converge_checks_every_sample_count_before_any_trace(monkeypatch, capsys):
    """A cycle count whose samples memory cannot hold exits 2 before the first count's trace runs."""
    monkeypatch.setattr(experiments, "run_trace", None)  # a trace would raise TypeError: exit 1
    argv = ["converge", "--scheme", "schemeA", "--n-spins", "20", "--t-total", "0.3",
            "--nc-list", "5,1000000000000"]
    assert main(argv) == 2
    assert "samples need" in capsys.readouterr().err


def test_timecost_output(capsys):
    assert main(["timecost", "--n-spins", "60"]) == 0
    out = capsys.readouterr().out
    assert "schemeA" in out and "schemeB" in out and "ratio" in out


@pytest.mark.parametrize("chi", ["-1", "0", "nan"])
@pytest.mark.parametrize(
    "command",
    [["timecost", "--n-spins", "100"], ["scaling", "--scheme", "ideal-TAT", "--n-list", "30,60,120"]],
    ids=["timecost", "scaling"],
)
def test_chi_of_timecost_and_scaling_must_be_finite_and_positive(command, chi, capsys):
    assert main([*command, "--chi", chi]) == 2
    captured = capsys.readouterr()
    assert "field 'chi' must be finite and positive" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    [["simulate", "--scheme", "schemeA", "--n-spins", "0", "--n-cycles", "4"],
     ["timecost", "--n-spins", "0"],
     ["scaling", "--scheme", "ideal-TAT", "--n-list", "0,20,40"]],
    ids=["simulate", "timecost", "scaling"],
)
def test_spin_numbers_of_every_command_obey_the_config_rule(command, capsys):
    assert main(command) == 2
    captured = capsys.readouterr()
    assert "field 'n_spins' must be >= 1, got 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    [["simulate", "--scheme", "ideal-TAT", "--n-spins", "1", "--n-cycles", "4"],
     ["compare", "--scheme", "schemeA", "--n-spins", "1", "--n-cycles", "4", "--out", "unused"],
     ["timecost", "--n-spins", "1"]],
    ids=["simulate", "compare", "timecost"],
)
def test_one_spin_without_a_run_length_exits_2_naming_the_cause(command, capsys):
    """One spin never squeezes, so a run length or time cost taken from the optimum is refused."""
    assert main(command) == 2
    captured = capsys.readouterr()
    assert "n_spins = 1 has no squeezing optimum" in captured.err
    assert captured.out == ""


def test_one_spin_with_a_run_length_stays_unsqueezed(capsys):
    assert main(["simulate", "--scheme", "ideal-TAT", "--n-spins", "1", "--n-cycles", "2", "--t-total", "0.5"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("order", ["0", "3", "7"])
@pytest.mark.parametrize("scheme", ["general", "schemeA", "ideal-TAT"])
def test_order_of_scaling_obeys_the_config_rule(scheme, order, capsys):
    assert main(["scaling", "--scheme", scheme, "--order", order, "--n-list", "20,40,80"]) == 2
    captured = capsys.readouterr()
    assert f"field 'order' must be an even integer >= 2, got {order}" in captured.err
    assert captured.out == ""


def test_scaling_runs_general_at_a_valid_order(capsys):
    assert main(["scaling", "--scheme", "general", "--order", "4", "--n-list", "20,40,80"]) == 0
    assert capsys.readouterr().out.startswith("scheme=general exponent=")


def test_scaling_needs_three_distinct_spin_numbers(capsys):
    """Repeated N make the log-log design singular: no fit is printed."""
    assert main(["scaling", "--n-list", "20,20,20"]) == 2
    captured = capsys.readouterr()
    assert "at least 3 distinct spin numbers" in captured.err
    assert captured.out == ""


def test_scaling_command(capsys):
    assert main(["scaling", "--scheme", "ideal-OAT", "--n-list", "30,60,120"]) == 0
    out = capsys.readouterr().out
    assert "exponent=" in out


def test_scaling_csv_holds_the_fitted_minima(tmp_path, capsys):
    """Refitting the CSV rows of a pulse-scheme scaling run gives the printed exponent."""
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--scheme", "schemeA", "--n-list", "20,40,80", "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.split("exponent=")[1].split()[0])
    lines = out.read_text().splitlines()
    assert lines[0] == "n,xi2_min"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(rows[:, 0], [20, 40, 80])
    exponent = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 1]), 1)[0]
    assert abs(exponent - printed) <= 5e-5
    ideal_oat = [oat_optimum(n).xi2_min for n in (20, 40, 80)]
    assert not np.allclose(rows[:, 1], ideal_oat, rtol=1e-3)


def _cli_bytes(args: list[str], threads: str, tmp_path) -> bytes:
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = tmp_path / f"out-{threads}.csv"
    argv = [arg.replace("{out}", str(out)) for arg in args]
    result = subprocess.run(
        [sys.executable, "-m", "spinsqueeze.cli", *argv], env=env, capture_output=True, check=True
    )
    return result.stdout + (out.read_bytes() if "{out}" in args else b"")


@pytest.mark.parametrize(
    "args",
    [
        ["timecost", "--n-spins", "300"],
        ["scaling", "--scheme", "ideal-TAT", "--n-list", "60,121,240", "--out", "{out}"],
        ["simulate", "--scheme", "schemeB", "--n-spins", "1250", "--n-cycles", "17", "--out", "{out}"],
        ["simulate", "--scheme", "schemeB", "--n-spins", "1250", "--n-cycles", "17",
         "--sampling", "fine(8)", "--out", "{out}"],
        ["timecost", "--n-spins", "4000"],
        ["simulate", "--scheme", "ideal-TAT", "--n-spins", "2000", "--n-cycles", "50", "--out", "{out}"],
        ["simulate", "--scheme", "schemeA", "--n-spins", "1250", "--n-cycles", "50",
         "--sampling", "fine(8)", "--out", "{out}"],
        ["simulate", "--scheme", "ideal-TAT", "--n-spins", "1250", "--n-cycles", "50",
         "--sampling", "fine(8)", "--out", "{out}"],
        ["simulate", "--scheme", "schemeA", "--n-spins", "2001", "--n-cycles", "50", "--out", "{out}"],
        ["simulate", "--scheme", "schemeB", "--n-spins", "2000", "--n-cycles", "17",
         "--sampling", "fine(8)", "--out", "{out}"],
    ],
)
def test_optimum_search_output_is_thread_count_independent(args, tmp_path):
    """timecost, scaling and simulate print and write the same bytes with 1 and 2 BLAS threads."""
    assert _cli_bytes(args, "1", tmp_path) == _cli_bytes(args, "2", tmp_path)


def _limit_address_space():
    limit = 3 * 2**30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_run_too_large_for_memory_exits_2_before_allocating():
    """N = 100000 would need a 20 GB even-sector block: rejected at once, not killed."""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    argv = ["simulate", "--scheme", "schemeA", "--n-spins", "100000", "--n-cycles", "1",
            "--t-total", "0.001"]
    result = subprocess.run(
        [sys.executable, "-m", "spinsqueeze.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=5,
        preexec_fn=_limit_address_space,
    )
    assert result.returncode == 2, result.stderr
    assert "memory" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scheme", "ideal-OAT", "--n-spins", "4", "--n-cycles", "1000000000000"],
        ["compare", "--scheme", "schemeA", "--n-spins", "4", "--n-cycles", "3",
         "--sampling", "fine(1000000000000)", "--out", "{out}"],
    ],
)
def test_more_samples_than_memory_holds_exit_2_at_once(argv, tmp_path, capsys):
    """10^12 samples are refused before the first one is built, not run until killed."""
    argv = [arg.replace("{out}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    assert "samples need" in capsys.readouterr().err
    assert not (tmp_path / "seq.csv").exists()


def test_closed_form_oat_run_at_large_n_fits_the_same_limit():
    """ideal-OAT builds no dense array: N = 100000 runs under the 3 GiB limit that refuses schemeA."""
    src = Path(spinsqueeze.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    argv = ["simulate", "--scheme", "ideal-OAT", "--n-spins", "100000", "--n-cycles", "5"]
    result = subprocess.run(
        [sys.executable, "-m", "spinsqueeze.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    assert rows[0] == "t,xi2,jx,jy,jz" and len(rows) == 7


def test_validation_errors_exit_2():
    assert main(["simulate", "--scheme", "schemeA", "--n-spins", "0", "--n-cycles", "5"]) == 2
    assert main(["simulate", "--scheme", "schemeA", "--n-cycles", "5"]) == 2  # missing n_spins
    assert main(["compare", "--scheme", "schemeA", "--n-spins", "8", "--n-cycles", "2"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
