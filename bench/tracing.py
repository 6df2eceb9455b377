"""Outside-in span tracing of the spinsqueeze package.

`install` rebinds, in every loaded ``spinsqueeze`` module, each public
function the package defines to a span-recording wrapper named
``<layer>.<function>``.  Private helpers stay unwrapped, so their time counts
to the layer of the public function that called them.  Nothing inside the
package changes: a later rename or deletion only changes the span list.

Spans (name, phase, start, end, parent) stay in memory until `Tracer.dump`.
A layer's self time is the duration of its spans minus the time covered by
their direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import sys
import time
from collections import defaultdict

PACKAGE = "spinsqueeze"

LAYERS = ("spin_ops", "propagate", "schedules", "squeezing", "experiments", "cli")
# Layers whose public functions are lru-cached on the parent commit; their
# cache metrics are always reported, as 0 when a layer has no cache left.
CACHED_LAYERS = ("spin_ops", "propagate", "experiments")
# Modules outside the six layers are folded into the layer that drives them:
# config is the CLI's parser, and tolerances only holds the config knob.
MODULE_LAYER = {"config": "cli", "tolerances": "cli"}
HARNESS = "harness"
MAX_HARNESS_SHARE = 0.05  # of a phase's wall time spent outside every span


def layer_of(module_name: str) -> str:
    short = module_name.rpartition(".")[2] if module_name != PACKAGE else PACKAGE
    return MODULE_LAYER.get(short, short)


def array_bytes(value) -> int:
    """nbytes of the arrays in a value: a bare array or the fields of a dataclass."""
    if hasattr(value, "nbytes") and hasattr(value, "dtype"):
        return int(value.nbytes)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return sum(array_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.phases: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack = [-1]
        self.phase = "setup"
        self.phase_bounds: dict[str, tuple[float, float]] = {}
        self._phase_start = time.perf_counter()
        self.cached: dict[str, object] = {}  # span name -> lru-cached original
        self.cache_marks: dict[str, dict[str, tuple[int, int]]] = {}
        self.cached_bytes: dict[str, int] = defaultdict(int)  # layer -> bytes
        self.pulses: dict[str, int] = defaultdict(int)  # phase -> pulses compiled

    # -- phases ---------------------------------------------------------------

    def _cache_snapshot(self) -> dict[str, tuple[int, int]]:
        return {n: (f.cache_info().hits, f.cache_info().misses) for n, f in self.cached.items()}

    def begin(self, phase: str) -> None:
        self.phase = phase
        self._phase_start = time.perf_counter()
        self.cache_marks[phase] = self._cache_snapshot()

    def end(self) -> None:
        self.phase_bounds[self.phase] = (self._phase_start, time.perf_counter())
        before = self.cache_marks[self.phase]
        after = self._cache_snapshot()
        self.cache_marks[self.phase] = {
            n: (after[n][0] - before[n][0], after[n][1] - before[n][1]) for n in after
        }

    # -- spans ----------------------------------------------------------------

    def wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        cached = hasattr(fn, "cache_info")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.names)
            parent = self._stack[-1]
            self.names.append(name)
            self.phases.append(self.phase)
            self.parents.append(parent)
            self.ends.append(0.0)
            self._stack.append(sid)
            misses = fn.cache_info().misses if cached else 0
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[sid] = time.perf_counter()
                self._stack.pop()
            if cached and fn.cache_info().misses > misses:
                self.cached_bytes[layer] += array_bytes(result)
            if layer == "schedules" and (parent < 0 or not self.names[parent].startswith("schedules.")):
                self.pulses[self.phase] += getattr(result, "pulses_per_period", 0) * getattr(
                    result, "n_cycles", 0
                )
            return result

        if cached:
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
            self.cached[name] = fn
        return traced

    def install(self) -> None:
        """Wrap every public package function in every loaded package module."""
        wrappers: dict[int, object] = {}
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or not (owner == PACKAGE or owner.startswith(PACKAGE + "."))
                ):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(f"{layer_of(owner)}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[id(obj)])

    # -- reduction ------------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, layer) -> self time; spans are single-threaded, so children nest."""
        child_time = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[sid] - self.starts[sid]
        out: dict[tuple[str, str], float] = defaultdict(float)
        for sid, name in enumerate(self.names):
            duration = self.ends[sid] - self.starts[sid]
            out[(self.phases[sid], name.partition(".")[0])] += duration - child_time[sid]
        for phase, (start, stop) in self.phase_bounds.items():
            covered = sum(
                self.ends[sid] - self.starts[sid]
                for sid, parent in enumerate(self.parents)
                if parent < 0 and self.phases[sid] == phase
            )
            out[(phase, HARNESS)] = (stop - start) - covered
        return out

    def layer_calls(self) -> dict[tuple[str, str], int]:
        """(phase, layer) -> calls into the layer from the harness or another layer."""
        out: dict[tuple[str, str], int] = defaultdict(int)
        for sid, name in enumerate(self.names):
            layer = name.partition(".")[0]
            parent = self.parents[sid]
            if parent < 0 or self.names[parent].partition(".")[0] != layer:
                out[(self.phases[sid], layer)] += 1
        return out

    def span_counts(self, phase: str) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for sid, name in enumerate(self.names):
            if self.phases[sid] == phase:
                out[name] += 1
        return dict(out)

    def accounting(self, phase: str) -> dict:
        """Layer self times plus harness time against the phase's wall time.

        The sum holds when spans nest; the harness share stays small only if
        the wrappers caught the package's work, which is what makes the
        per-layer split trustworthy.
        """
        start, stop = self.phase_bounds[phase]
        layers = {layer: t for (p, layer), t in self.self_times().items() if p == phase}
        negative = [k for k, v in layers.items() if k != HARNESS and v < -1e-6]
        total = sum(layers.values())
        wall = stop - start
        return {
            "wall_s": wall,
            "accounted_s": total,
            "self_s": layers,
            "ok": not negative
            and abs(total - wall) <= 1e-3 * max(wall, 1e-3)
            and layers.get(HARNESS, 0.0) <= MAX_HARNESS_SHARE * wall,
        }

    def cache_deltas(self, phase: str) -> dict[str, dict[str, int]]:
        """layer -> hits/misses of its lru-cached public functions in one phase."""
        out: dict[str, dict[str, int]] = {}
        for name, (hits, misses) in self.cache_marks.get(phase, {}).items():
            entry = out.setdefault(name.partition(".")[0], {"hits": 0, "misses": 0})
            entry["hits"] += hits
            entry["misses"] += misses
        return out

    def function_misses(self, phase: str, functions: tuple[str, ...]) -> int:
        marks = self.cache_marks.get(phase, {})
        return sum(marks[f][1] for f in functions if f in marks)

    def dump(self, path) -> None:
        """Write every span as gzip CSV: id, name, phase, parent, start, end (s from phase 0)."""
        origin = min((b[0] for b in self.phase_bounds.values()), default=0.0)
        with gzip.open(path, "wt", newline="\n") as fh:
            fh.write("id,name,phase,parent,start_s,end_s\n")
            for sid, name in enumerate(self.names):
                fh.write(
                    f"{sid},{name},{self.phases[sid]},{self.parents[sid]},"
                    f"{self.starts[sid] - origin:.9f},{self.ends[sid] - origin:.9f}\n"
                )
