"""Run documents: one flat JSON object of eight keys, parsed once into an ExperimentSpec.

This module owns the document's shape and each key's JSON type (`KEY_TYPES`);
the value rules are `experiments.check_field`'s, which `run_trace` applies too.
Every fault in a document raises ValueError.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .experiments import ExperimentSpec, check_field, default_t_total


# The JSON type of each key, in the order the CLI lists them; an integer is
# accepted where a number is.
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

_FINE_RE = re.compile(r"^fine\((\d+)\)$")


def parse_sampling(tag: str) -> tuple[str, int]:
    """Split a sampling tag into (mode, subsamples): 'stroboscopic' or 'fine(k)'."""
    if tag == "stroboscopic":
        return "stroboscopic", 0
    match = _FINE_RE.match(tag)
    if match:
        k = int(match.group(1))
        if k >= 1:
            return "fine", k
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


def parse_config(document: dict) -> tuple[ExperimentSpec, str | None]:
    """The run a flat key-value document describes, and its output path (None: stdout).

    Every value passes its JSON type and its field's rule before a missing
    t_total is derived from the squeezing optimum.
    """
    _flat_object(document)
    missing = [k for k in REQUIRED_KEYS if k not in document]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    values = {key: _typed(key, document[key]) for key in KEY_TYPES if key in document}
    fields = {k: check_field(k, v) for k, v in values.items() if k not in ("sampling", "out")}
    sampling, subsamples = parse_sampling(values.get("sampling", "stroboscopic"))
    if "t_total" not in fields:
        fields["t_total"] = default_t_total(
            fields["scheme"], fields["n_spins"], fields.get("chi", 1.0), fields.get("order", 2)
        )
    return ExperimentSpec(**fields, sampling=sampling, subsamples=subsamples), values.get("out")


def load_config(path: str | Path) -> dict:
    """The flat object a JSON config file holds, not yet parsed: flags may still override it."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    return _flat_object(document)
