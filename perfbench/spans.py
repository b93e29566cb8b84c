"""In-memory spans around calls into randfan's layers, and the per-layer metrics made from them.

The program is not instrumented.  While a traced pass runs, `patched()`
swaps selected module attributes of the `randfan` package for wrappers that
open a span around the original call, so the spans sit exactly where one
layer calls into the next.  Each span records its name, start and end
(`perf_counter_ns`), its parent span and the command it belongs to; spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    command: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Collects spans; a worker thread's outermost span hangs off the
    innermost span open on the main thread (the sweep that started it)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.command: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            sid = next(self._ids)
        attrs: dict = {}
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, self.command, attrs))

    def span_docs(self, extra: dict):
        for s in self.spans:
            yield {"id": s.id, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                   "parent": s.parent, "command": s.command, **s.attrs, **extra}


def _wrap(tracer: Tracer, fn, name: str, after=None, label=None):
    """A stand-in for `fn` that records a span around each call.  `label`
    refines the span name from the arguments; `after` records counts from
    the result once the span is closed, so its cost is not in the span."""

    @functools.wraps(fn, updated=())
    def wrapper(*args, **kwargs):
        span_name = label(name, args, kwargs) if label else name
        cache_info = getattr(fn, "cache_info", None)
        misses = cache_info().misses if cache_info else None
        with tracer.span(span_name) as attrs:
            out = fn(*args, **kwargs)
        if cache_info:
            attrs["cold"] = cache_info().misses > misses
        if after:
            after(attrs, args, kwargs, out)
        return out

    return wrapper


def _universe_attrs(attrs, args, kwargs, out):
    attrs["h"] = int(out.h)
    attrs["n_rays"] = len(out)


def _render_label(name, args, kwargs):
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "?")
    return f"{name}.{fmt}"


def _render_attrs(attrs, args, kwargs, out):
    attrs["rows"] = len(args[0])


def _write_attrs(attrs, args, kwargs, out):
    attrs["bytes"] = len(args[1].encode("utf-8"))


def _sample_attrs(attrs, args, kwargs, out):
    attrs["h"] = int(args[0].h)
    attrs["kept"] = out.n_rays


def _sweep_attrs(attrs, args, kwargs, out):
    attrs["workers"] = kwargs.get("workers", 1)


def _fan_attrs(attrs, args, kwargs, out):
    attrs["n_cones"] = out.n_cones
    attrs["singular_cones"] = int(np.count_nonzero(out.cone_indices >= 2))


#: (module, attribute, span name, after, label).  Each entry is the name under
#: which one layer calls into the next; an attribute a module no longer has
#: is skipped, and the metrics it fed read 0.
TARGETS = (
    ("randfan.cli", "enumerate_rays", "lattice.enumerate_rays", _universe_attrs, None),
    ("randfan.blowdown", "enumerate_rays", "lattice.enumerate_rays", _universe_attrs, None),
    ("randfan.sampling", "enumerate_rays", "lattice.enumerate_rays", _universe_attrs, None),
    ("randfan.cli", "blowdown_table", "blowdown.blowdown_table", None, None),
    ("randfan.experiments", "blowdown_table", "blowdown.blowdown_table", None, None),
    ("randfan.blowdown", "epsilon_of", "blowdown.epsilon_of", None, None),
    ("randfan.cli", "conjecture_report", "experiments.conjecture_report", None, None),
    ("randfan.cli", "blowdown_rows", "experiments.blowdown_rows", None, None),
    ("randfan.cli", "render", "experiments.render", _render_attrs, _render_label),
    ("randfan.experiments", "render", "experiments.render", _render_attrs, _render_label),
    ("randfan.cli", "write_text", "experiments.write_text", _write_attrs, None),
    ("randfan.experiments", "write_text", "experiments.write_text", _write_attrs, None),
    ("randfan.cli", "run_threshold_sweep", "experiments.sweep", _sweep_attrs, None),
    ("randfan.cli", "run_density_sweep", "experiments.sweep", _sweep_attrs, None),
    ("randfan.experiments", "run_trial", "experiments.run_trial", None, None),
    ("randfan.experiments", "_aggregate", "experiments.aggregate", None, None),
    ("randfan.experiments", "sample_fan", "sampling.sample_fan", _sample_attrs, None),
    ("randfan.sampling", "Fan", "fans.Fan", _fan_attrs, None),
    ("randfan.experiments", "delta_k", "fans.delta_k", None, None),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route the calls listed in TARGETS through span-recording wrappers."""
    saved = []
    try:
        for mod_name, attr, name, after, label in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, name, after, label))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def clear_caches() -> None:
    """Drop every memoized result in the package, as a fresh process starts."""
    for mod_name in ("randfan.lattice", "randfan.blowdown", "randfan.sampling",
                     "randfan.fans", "randfan.experiments"):
        mod = importlib.import_module(mod_name)
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear) and getattr(obj, "__module__", None) == mod_name:
                clear()


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the union of the children's intervals, per span."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start - covered) / 1e9
    return out


TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def p50_and_tail(values_s: list[float]) -> tuple[float, float, float, int]:
    """Median and tail in ms, by nearest rank.  The tail is the highest of
    TAIL_LEVELS with at least ten samples beyond it (the median if none)."""
    n = len(values_s)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    vals = sorted(values_s)

    def rank(pct):
        return vals[max(0, math.ceil(pct / 100 * n) - 1)]

    tail_pct = next((p for p in TAIL_LEVELS if n - math.ceil(p / 100 * n) >= 10), 50.0)
    return rank(50) * 1e3, rank(tail_pct) * 1e3, tail_pct, n


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass of a workload.  A call that
    raised has a span but none of the counts taken from its result."""
    self_s = _self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total_self(name):
        return sum(self_s[s.id] for s in named(name))

    enum = named("lattice.enumerate_rays")
    cold = [s for s in enum if s.attrs.get("cold")]
    distinct = {s.attrs["h"]: s.attrs["n_rays"] for s in cold}
    n_rays = sum(distinct.values())
    samples = named("sampling.sample_fan")
    drawn = sum(distinct.get(s.attrs.get("h"), 0) for s in samples)
    kept = sum(s.attrs.get("kept", 0) for s in samples)
    fans = named("fans.Fan")
    trials = named("experiments.run_trial")
    sweeps = named("experiments.sweep")
    worker_time = sum(s.attrs.get("workers", 1) * s.dur for s in sweeps)
    fan_p50, fan_tail, fan_pct, fan_n = p50_and_tail([s.dur for s in samples])
    trial_p50, trial_tail, trial_pct, trial_n = p50_and_tail([s.dur for s in trials])
    return {
        "lattice.enumerate_rays.s": sum(s.dur for s in cold),
        "lattice.enumerate_rays.cold_calls": len(cold),
        "lattice.enumerate_rays.cache_hits": len(enum) - len(cold),
        "lattice.n_rays": n_rays,
        "lattice.coords_mb_computed": n_rays * 16 / 1e6,
        "blowdown.blowdown_table.s": total_self("blowdown.blowdown_table"),
        "blowdown.epsilon_of.s": total_self("blowdown.epsilon_of"),
        "experiments.conjecture_report.s": total_self("experiments.conjecture_report"),
        "experiments.blowdown_rows.s": total_self("experiments.blowdown_rows"),
        "experiments.render.csv.s": total_self("experiments.render.csv"),
        "experiments.render.json.s": total_self("experiments.render.json"),
        "experiments.write_text.s": total_self("experiments.write_text"),
        "experiments.rows_emitted": sum(s.attrs.get("rows", 0) for s in spans if s.name.startswith("experiments.render.")),
        "experiments.bytes_written": sum(s.attrs.get("bytes", 0) for s in named("experiments.write_text")),
        "sampling.sample_fan.p50_ms": fan_p50,
        "sampling.sample_fan.tail_ms": fan_tail,
        "sampling.sample_fan.tail_pct": fan_pct,
        "sampling.sample_fan.samples": fan_n,
        "sampling.rays_kept": kept,
        "sampling.drop_fraction": (drawn - kept) / drawn if drawn else 0.0,
        "fans.Fan.s": sum(s.dur for s in fans),
        "fans.classify.s": sum(s.dur for s in named("fans.delta_k")),
        "fans.n_cones": sum(s.attrs.get("n_cones", 0) for s in fans),
        "fans.singular_cones": sum(s.attrs.get("singular_cones", 0) for s in fans),
        "experiments.run_trial.p50_ms": trial_p50,
        "experiments.run_trial.tail_ms": trial_tail,
        "experiments.run_trial.tail_pct": trial_pct,
        "experiments.run_trial.samples": trial_n,
        "experiments.aggregate.s": sum(s.dur for s in named("experiments.aggregate")),
        "experiments.sweep.parallel_efficiency": sum(s.dur for s in trials) / worker_time if worker_time else 0.0,
    }


def sweep_overhead(spans: list[Span], commands) -> float:
    """Sweep wall time not spent inside run_trial, over the given commands;
    meaningful for sweeps that ran on one worker."""
    picked = [s for s in spans if s.command in commands]
    sweep = sum(s.dur for s in picked if s.name == "experiments.sweep")
    trials = sum(s.dur for s in picked if s.name == "experiments.run_trial")
    return sweep - trials
