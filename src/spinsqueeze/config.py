"""Run configuration: strict key-value parsing shared by the CLI and config files."""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .experiments import ExperimentSpec, IDEAL_SCHEMES, PULSE_SCHEMES, default_t_total


class ConfigError(ValueError):
    """A configuration document failed validation."""


REQUIRED_KEYS = ("scheme", "n_spins", "n_cycles")
OPTIONAL_KEYS = ("chi", "t_total", "sampling", "order", "out")
KNOWN_KEYS = REQUIRED_KEYS + OPTIONAL_KEYS

_FINE_RE = re.compile(r"^fine\((\d+)\)$")


@dataclass(frozen=True)
class RunConfig:
    scheme: str
    n_spins: int
    n_cycles: int
    chi: float = 1.0
    t_total: float | None = None  # None: derive from the squeezing optimum
    sampling: str = "stroboscopic"
    order: int = 2
    out: str | None = None


def parse_sampling(tag: str) -> tuple[str, int]:
    """Split a sampling tag into (mode, subsamples): 'stroboscopic' or 'fine(k)'."""
    if tag == "stroboscopic":
        return "stroboscopic", 0
    match = _FINE_RE.match(tag)
    if match:
        k = int(match.group(1))
        if k >= 1:
            return "fine", k
    raise ConfigError(f"sampling must be 'stroboscopic' or 'fine(k)', got {tag!r}")


def _require(document: dict, key: str, kind, label: str):
    value = document[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"field '{key}' must be {label}, got {value!r}")
    return value


def finite_positive(key: str, value: float) -> float:
    """The value of field `key` if it is finite and positive; the rule for chi and t_total."""
    if not value > 0 or not math.isfinite(value):
        raise ConfigError(f"field '{key}' must be finite and positive, got {value}")
    return value


def parse_config(document: dict) -> RunConfig:
    """Validate a flat key-value document; unknown keys are rejected by name."""
    if not isinstance(document, dict):
        raise ConfigError(f"config document must be a flat object, got {type(document).__name__}")
    unknown = sorted(set(document) - set(KNOWN_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k in REQUIRED_KEYS if k not in document]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    scheme = _require(document, "scheme", str, "a string")
    if scheme not in PULSE_SCHEMES + IDEAL_SCHEMES:
        raise ConfigError(
            f"field 'scheme' must be one of {PULSE_SCHEMES + IDEAL_SCHEMES}, got {scheme!r}"
        )
    n_spins = _require(document, "n_spins", int, "a positive integer")
    if n_spins < 1:
        raise ConfigError(f"field 'n_spins' must be >= 1, got {n_spins}")
    n_cycles = _require(document, "n_cycles", int, "a positive integer")
    if n_cycles < 1:
        raise ConfigError(f"field 'n_cycles' must be >= 1, got {n_cycles}")

    chi = 1.0
    if "chi" in document:
        chi = finite_positive("chi", _require(document, "chi", float, "a positive number"))
    t_total = None
    if "t_total" in document:
        t_total = finite_positive("t_total", _require(document, "t_total", float, "a positive number"))
    sampling = "stroboscopic"
    if "sampling" in document:
        sampling = _require(document, "sampling", str, "a sampling tag")
        parse_sampling(sampling)
    order = 2
    if "order" in document:
        order = _require(document, "order", int, "an even integer >= 2")
        if order < 2 or order % 2 != 0:
            raise ConfigError(f"field 'order' must be an even integer >= 2, got {order}")
    out = None
    if "out" in document:
        out = _require(document, "out", str, "a path string")

    return RunConfig(
        scheme=scheme,
        n_spins=n_spins,
        n_cycles=n_cycles,
        chi=chi,
        t_total=t_total,
        sampling=sampling,
        order=order,
        out=out,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return parse_config(document)


def to_spec(config: RunConfig) -> ExperimentSpec:
    """Resolve a RunConfig into a concrete ExperimentSpec, filling the default run length."""
    mode, k = parse_sampling(config.sampling)
    t_total = config.t_total
    if t_total is None:
        t_total = default_t_total(config.scheme, config.n_spins, config.chi, config.order)
    return ExperimentSpec(
        scheme=config.scheme,
        n_spins=config.n_spins,
        n_cycles=config.n_cycles,
        t_total=t_total,
        chi=config.chi,
        sampling=mode,
        subsamples=k,
        order=config.order,
    )
