"""Command-line front end: argv and the --config document to one checked run, then CSV or schedule text.

Every subcommand is a thin shell over the library; nothing here computes
physics.  Run flags are generated from `KEY_TYPES`, laid over the --config
file's flat JSON object and parsed once by `parse_config` (`converge` sets
n_cycles to the largest count of --nc-list), in this order: the keys and
their JSON types (compare needs `out`); each field's rule and, for the
`TRACE_COMMANDS`, every rule of `experiments.validate_spec`, memory
included; the command's schemes (`COMMAND_SCHEMES`).  Only then is a
missing t_total derived from the squeezing optimum, so no refusal waits for
an optimum scan; a given one keeps the checked spec, and its compiled period
(`experiments.ExperimentSpec.schedule`), as the run's.  `scaling` leaves its
checks to `experiments.scaling_fit`; `timecost` checks its flags, and
`converge` its cycle counts, with `experiments.check_field`.
Exit codes: 0 success, 2 validation error (any ValueError), 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    ExperimentSpec,
    check_field,
    default_t_total,
    effective_counterpart,
    nc_convergence,
    relative_error_curve,
    run_trace,
    scaling_fit,
    tat_optimum,
    time_cost,
    validate_spec,
)
from .schedules import SCHEME_ORDERS, schedule_to_text, strength_divisor
from .squeezing import SqueezingTrace

# The JSON type of each key of a run document, in the order the CLI lists
# them; an integer is accepted where a number is.
KEY_TYPES = {
    "scheme": str,
    "n_spins": int,
    "n_cycles": int,
    "chi": float,
    "t_total": float,
    "sampling": str,
    "order": int,
    "out": str,
}
REQUIRED_KEYS = ("scheme", "n_spins", "n_cycles")
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}

_FINE_RE = re.compile(r"^fine\((0*[1-9]\d*)\)$")  # k >= 1

# The commands that run traces, whose runs pass `validate_spec` before a default t_total is derived
# (schedule runs none, so no trace's memory need refuses it).
TRACE_COMMANDS = ("simulate", "compare", "converge")
# The schemes of the commands that take fewer than every scheme, and how a refusal names them.
_PULSE_ONLY = (tuple(SCHEME_ORDERS), f"a pulse scheme, one of {tuple(SCHEME_ORDERS)}")
COMMAND_SCHEMES = {
    "compare": ((*SCHEME_ORDERS, "ideal-TAT"), "a pulse scheme or ideal-TAT"),
    "converge": _PULSE_ONLY,  # its error is measured against the TAT optimum
    "schedule": _PULSE_ONLY,
}


def parse_sampling(tag: str) -> tuple[str, int]:
    """Split a sampling tag into (mode, subsamples): 'stroboscopic' or 'fine(k)'."""
    if tag == "stroboscopic":
        return "stroboscopic", 0
    match = _FINE_RE.match(tag)
    if match:
        return "fine", int(match.group(1))
    raise ValueError(f"sampling must be 'stroboscopic' or 'fine(k)', got {tag!r}")


def _flat_object(document) -> dict:
    if not isinstance(document, dict):
        raise ValueError(f"config document must be a flat object, got {type(document).__name__}")
    unknown = sorted(set(document) - set(KEY_TYPES))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return document


def _typed(key: str, value):
    kind = KEY_TYPES[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"field '{key}' must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def parse_config(document: dict, command: str = "simulate") -> tuple[ExperimentSpec, str | None]:
    """The checked run of `command` that a flat key-value document describes, and its output path (None: stdout).

    A run without t_total is validated at t_total = 1: the memory need counts
    distinct step durations, which do not depend on the time scale.  Only a
    run that passes every check gets its t_total from the squeezing optimum.
    """
    _flat_object(document)
    missing = [k for k in REQUIRED_KEYS if k not in document]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    values = {key: _typed(key, document[key]) for key in KEY_TYPES if key in document}
    out = values.pop("out", None)
    if command == "compare" and out is None:
        raise ValueError("compare writes seq.csv/eff.csv/err.csv and needs --out DIR")
    sampling, subsamples = parse_sampling(values.pop("sampling", "stroboscopic"))
    fields = {k: check_field(k, v) for k, v in values.items()}
    spec = ExperimentSpec(**{"t_total": 1.0, **fields}, sampling=sampling, subsamples=subsamples)
    if command in TRACE_COMMANDS:
        validate_spec(spec)
    schemes, takes = COMMAND_SCHEMES.get(command, (None, None))
    if schemes is not None and spec.scheme not in schemes:
        raise ValueError(f"{command} needs {takes}, got {spec.scheme!r}")
    if "t_total" not in fields:
        spec = replace(spec, t_total=default_t_total(spec.scheme, spec.n_spins, spec.chi, spec.order))
    return spec, out


def load_config(path: str | Path) -> dict:
    """The flat object a JSON config file holds, not yet parsed: flags may still override it."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    return _flat_object(document)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def trace_csv(trace: SqueezingTrace) -> str:
    lines = ["t,xi2,jx,jy,jz"]
    lines.extend(",".join(_fmt(v) for v in (s.t, s.xi2, *s.mean_spin)) for s in trace.samples)
    return "\n".join(lines) + "\n"


def emit_trace_csv(trace: SqueezingTrace, destination) -> None:
    """Write the trace as CSV with LF terminators and 12 significant digits."""
    _emit(destination, trace_csv(trace))


def error_curve_csv(curve) -> str:
    lines = ["t,relative_error"]
    for t, err in zip(curve.times, curve.relative_errors):
        lines.append(f"{_fmt(t)},{_fmt(err)}")
    return "\n".join(lines) + "\n"


def _emit(destination, text: str) -> None:
    """`text` to the file at `destination` with LF line ends, or to stdout when it is None."""
    if destination is None:
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, newline="\n")


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One flag per config key, --n-spins for n_spins, typed as the key's JSON type."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), type=KEY_TYPES[key], dest=key)


def _add_run_flags(parser: argparse.ArgumentParser, keys=tuple(KEY_TYPES)) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    _add_flags(parser, keys)


def _run(args: argparse.Namespace, **fixed) -> tuple[ExperimentSpec, str | None]:
    """The checked run and output path of the subcommand's flags laid over the --config file's object.

    `fixed` values replace both, for keys the subcommand sets itself.
    """
    document = load_config(args.config) if args.config else {}
    flags = {key: getattr(args, key, None) for key in KEY_TYPES}
    document.update((key, value) for key, value in {**flags, **fixed}.items() if value is not None)
    return parse_config(document, args.command)


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec, out = _run(args)
    _emit(out, trace_csv(run_trace(spec)))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    spec_seq, out = _run(args)
    spec_eff = effective_counterpart(spec_seq)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_seq = run_trace(spec_seq)
    trace_eff = run_trace(spec_eff)
    emit_trace_csv(trace_seq, out_dir / "seq.csv")
    emit_trace_csv(trace_eff, out_dir / "eff.csv")
    curve = relative_error_curve(trace_seq, trace_eff)
    _emit(out_dir / "err.csv", error_curve_csv(curve))
    print(f"wrote {out_dir}/seq.csv, eff.csv, err.csv")
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    nc_list = [check_field("n_cycles", int(v)) for v in args.nc_list.split(",")]
    spec, out = _run(args, n_cycles=max(nc_list))  # the sweep's counts are the run's; the largest needs the most
    rows = nc_convergence(spec.scheme, spec.n_spins, spec.chi, spec.t_total, nc_list, spec.order)
    lines = ["n_cycles,xi2_best_strobe,rel_error"]
    lines.extend(f"{r.n_cycles},{_fmt(r.xi2_best_strobe)},{_fmt(r.rel_error)}" for r in rows)
    _emit(out, "\n".join(lines) + "\n")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    n_list = [int(v) for v in args.n_list.split(",")]
    fit = scaling_fit(args.scheme, n_list, chi=args.chi, order=args.order)  # it validates every N's run
    print(f"scheme={args.scheme} exponent={fit.exponent:.4f} intercept={fit.intercept:.4f} r2={fit.r_squared:.6f}")
    if args.out:
        lines = ["n,xi2_min"]
        lines.extend(f"{n},{_fmt(xi2_min)}" for n, xi2_min in zip(n_list, fit.y))
        _emit(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    spec, out = _run(args)
    _emit(out, schedule_to_text(spec.schedule))
    return 0


def _cmd_timecost(args: argparse.Namespace) -> int:
    if args.n_spins is None:
        raise ValueError("timecost needs --n-spins")
    n_spins = check_field("n_spins", args.n_spins)
    chi = check_field("chi", args.chi)
    lines = ["scheme,divisor,t_opt,total_time"]
    opt = tat_optimum(n_spins)
    for scheme in ("schemeA", "schemeB"):
        d = strength_divisor(scheme)
        lines.append(f"{scheme},{_fmt(d)},{_fmt(opt.t_opt / chi)},{_fmt(time_cost(scheme, n_spins, chi))}")
    ratio = strength_divisor("schemeB") / strength_divisor("schemeA")
    text = "\n".join(lines) + "\n" + f"# ratio schemeB/schemeA = {_fmt(ratio)}\n"
    _emit(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Simulate spin squeezing driven by compiled twisting pulse schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one experiment and emit its trace CSV")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="sequence vs effective dynamics plus error curve")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("converge", help="sweep the cycle count and tabulate convergence")
    _add_run_flags(p, [key for key in KEY_TYPES if key != "n_cycles"])
    p.add_argument(
        "--nc-list", required=True, help="comma-separated cycle counts; they replace a config file's n_cycles"
    )
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("scaling", help="fit the spin-number scaling of the optimal squeezing")
    _add_flags(p, ("scheme",))
    p.add_argument("--n-list", required=True, help="comma-separated spin numbers")
    _add_flags(p, ("chi", "order", "out"))
    p.set_defaults(func=_cmd_scaling, scheme="ideal-TAT", chi=1.0, order=2)

    p = sub.add_parser("schedule", help="emit the compiled pulse schedule as text")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("timecost", help="total time to optimal squeezing per scheme")
    _add_flags(p, ("n_spins", "chi", "out"))
    p.set_defaults(func=_cmd_timecost, chi=1.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
