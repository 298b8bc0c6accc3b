"""Spans around the public functions of each layer, recorded from outside.

``installed(tracer)`` replaces each function in ``TRACED`` by a wrapper in
every ``qkd_eve_lab`` module that holds it (``from .core_stats import
p_single`` binds a second name), and restores the originals on exit.  The
source is not edited and no private function is wrapped.  Spans stay in
memory; the layer metrics below are computed from them after the pass.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from qkd_eve_lab.keyrate import EveModel
from qkd_eve_lab.montecarlo import SimConfig


@dataclass
class Span:
    name: str
    label: object  # eavesdropper model for keyrate spans, SimConfig for simulate
    start: float
    parent: int  # index of the enclosing span, -1 at the top
    end: float = 0.0
    size: int = 0  # number of rate points returned by keyrate.curve

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str, label: object = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, label, perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()


def _model(args: tuple, kwargs: dict) -> str | None:
    for arg in (*args, *kwargs.values()):
        if isinstance(arg, EveModel):
            return arg.value
    return None


def _sim_config(args: tuple, kwargs: dict) -> SimConfig | None:
    return args[0] if args else kwargs.get("cfg")


# (module, public function, label extractor)
TRACED = (
    ("cli", "main", None),
    ("config", "load_settings", None),
    ("keyrate", "curve", _model),
    ("keyrate", "max_distance", _model),
    ("keyrate", "net_rate", _model),
    ("keyrate", "qber_model", None),
    ("keyrate", "luetkenhaus_rate", None),
    ("strategy_b", "max_stealth_info", None),
    ("strategy_a", "allocate", None),
    ("core_stats", "p_single", None),
    ("montecarlo", "simulate", _sim_config),
    ("verify", "oracle_suite", None),
)


def _wrap(fn, tracer: Tracer, name: str, label_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name, label_of(args, kwargs) if label_of else None)
        try:
            out = fn(*args, **kwargs)
            if name == "keyrate.curve":
                tracer.spans[index].size = len(out)
            return out
        finally:
            tracer.close(index)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every function in ``TRACED`` into ``tracer`` inside the block."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "qkd_eve_lab" or n.startswith("qkd_eve_lab.")]
    patched = []
    try:
        for module_name, fn_name, label_of in TRACED:
            original = getattr(importlib.import_module(f"qkd_eve_lab.{module_name}"), fn_name)
            wrapper = _wrap(original, tracer, f"{module_name}.{fn_name}", label_of)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    patched.append((module, fn_name, original))
        yield tracer
    finally:
        for module, fn_name, original in reversed(patched):
            setattr(module, fn_name, original)


# ------------------------------------------------------------------ layer metrics

def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _of(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def self_time(spans: list[Span], index: int) -> float:
    """Duration of a span minus the durations of its direct children."""
    children = sum(s.duration for s in spans if s.parent == index)
    return spans[index].duration - children


def _nearest(spans: list[Span], names: set[str]) -> list[int]:
    """For each span, the index of itself or its closest ancestor in ``names``."""
    out: list[int] = []
    for i, s in enumerate(spans):  # parents precede children
        if s.name in names:
            out.append(i)
        else:
            out.append(out[s.parent] if s.parent >= 0 else -1)
    return out


def analytic_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-model cost and call counts of the rates pass."""
    anc = _nearest(spans, {"keyrate.curve", "keyrate.max_distance"})
    below = Counter((s.name, anc[i]) for i, s in enumerate(spans) if anc[i] != i)
    out: dict[str, tuple[float, str]] = {}
    for model in (m.value for m in EveModel):
        curves = [i for i, s in enumerate(spans) if s.name == "keyrate.curve" and s.label == model]
        finds = [i for i, s in enumerate(spans)
                 if s.name == "keyrate.max_distance" and s.label == model]
        points = sum(spans[i].size for i in curves)
        qber_calls = sum(below[("keyrate.qber_model", i)] for i in curves)
        net_calls = sum(below[("keyrate.net_rate", i)] for i in finds)
        out[f"keyrate.curve_ms.{model}"] = (1e3 * _mean([spans[i].duration for i in curves]), "ms")
        out[f"keyrate.max_distance_ms.{model}"] = (
            1e3 * _mean([spans[i].duration for i in finds]), "ms")
        out[f"keyrate.net_rate_calls_per_max_distance.{model}"] = (
            net_calls / len(finds) if finds else 0.0, "count")
        out[f"keyrate.qber_model_calls_per_point.{model}"] = (
            qber_calls / points if points else 0.0, "count")
    out["keyrate.luetkenhaus_rate_ms_per_call"] = (
        1e3 * _mean([s.duration for s in _of(spans, "keyrate.luetkenhaus_rate")]), "ms")
    stealth = _of(spans, "strategy_b.max_stealth_info")
    out["strategy_b.max_stealth_info_calls"] = (len(stealth), "count")
    out["strategy_b.max_stealth_info_ms_per_call"] = (1e3 * _mean([s.duration for s in stealth]), "ms")
    alloc = _of(spans, "strategy_a.allocate")
    out["strategy_a.allocate_calls"] = (len(alloc), "count")
    out["strategy_a.allocate_ms_per_call"] = (1e3 * _mean([s.duration for s in alloc]), "ms")
    out["core_stats.p_single_calls"] = (len(_of(spans, "core_stats.p_single")), "count")
    mains = [i for i, s in enumerate(spans) if s.name == "cli.main"]
    out["cli.self_ms"] = (1e3 * sum(self_time(spans, i) for i in mains), "ms")
    return out


def sim_spans(spans: list[Span]) -> list[Span]:
    return _of(spans, "montecarlo.simulate")


def mpulses_per_s(spans: list[Span]) -> float:
    """Pulses simulated per second of simulate() calls, in millions."""
    pulses = sum(s.label.n_pulses for s in spans)
    seconds = sum(s.duration for s in spans)
    return pulses / seconds / 1e6


def photon_fraction(spans: list[Span]) -> float:
    """Pulse-weighted share of pulses with n >= 1 photons, 1 - exp(-mu) per config."""
    pulses = sum(s.label.n_pulses for s in spans)
    carrying = sum(s.label.n_pulses * -math.expm1(-s.label.system.source.mu) for s in spans)
    return carrying / pulses


def chunks(spans: list[Span]) -> int:
    """Batches the simulations were cut into (batch starts on 4-pulse boundaries)."""
    total = 0
    for s in spans:
        batch = max(4, s.label.batch_size - s.label.batch_size % 4)
        total += -(-s.label.n_pulses // batch)
    return total
