"""Spans around calls into gatemem, recorded from the benchmark's side.

``Tracer.install`` replaces public functions at the module attribute
their callers look them up through (``gatemem.nonmarkov.diamond_sdp``,
``gatemem.pipeline.mle_estimate``, ...) with wrappers that record one
span per call: name, start, end, parent span and a few attributes read
off the arguments or the result (SDP iterations and gap, MLE iterations,
Monte-Carlo sample counts, bytes written).  Spans stay in memory until
the run ends.  ``uninstall`` puts the original functions back.

A layer's self time is the duration of its spans minus the part covered
by their child spans, so the self times of all layers add up to the
traced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from gatemem.exceptions import ConvergenceError, GatememError


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, **self.attrs}


def _mle_attrs(bound, result, error):
    exact = all(r.shots is None for r in bound.arguments["records"])
    attrs = {"kind": "exact" if exact else "finite"}
    if isinstance(error, ConvergenceError):
        attrs.update(iterations=int(error.iterations), capped=1)
    elif error is None:
        attrs["iterations"] = int(result.iterations)
    return attrs


def _sdp_attrs(bound, result, error):
    if error is None:
        return {"iterations": int(result.iterations), "gap": float(result.gap)}
    return {}


def _avg_attrs(bound, result, error):
    return {"samples": int(bound.arguments["m_samples"])}


def _dump_attrs(bound, result, error):
    return {} if error else {"bytes": os.path.getsize(bound.arguments["path"])}


#: (module, attribute, span name, attribute reader) for every wrapped call site.
SITES = (
    ("gatemem.pipeline", "sample_counts", "simulator.sample_counts", None),
    ("gatemem.pipeline", "mle_estimate", "tomography.mle", _mle_attrs),
    ("gatemem.pipeline", "process_tomography", "tomography.process_tomography", None),
    ("gatemem.pipeline", "reconstruct_channel", "pipeline.reconstruct_channel", None),
    ("gatemem.nonmarkov", "diamond_sdp", "sdp", _sdp_attrs),
    ("gatemem.nonmarkov", "diamond_distance", "nonmarkov.diamond_distance", None),
    ("gatemem.nonmarkov", "avg_trace_distance", "nonmarkov.avg_trace_distance", _avg_attrs),
    ("gatemem.nonmarkov", "conditional_map", "nonmarkov.conditional_map", None),
    ("gatemem.nonmarkov", "cp_violation", "nonmarkov.cp_violation", None),
    ("gatemem.nonmarkov", "memory_scan", "nonmarkov.memory_scan", None),
    ("gatemem.nonmarkov", "invert", "channels.invert", None),
    ("gatemem.nonmarkov", "compose", "channels.compose", None),
    ("gatemem.errprop", "propagate_statistics", "errprop.propagate_statistics", None),
    ("gatemem.errprop", "spam_scaling", "errprop.spam_scaling", None),
    ("gatemem.serialize", "dump_json", "serialize.dump_json", _dump_attrs),
    ("gatemem.serialize", "atomic_write_text", "serialize.atomic_write_text", None),
    ("gatemem.serialize", "load_json", "serialize.load_json", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, **attrs) -> None:
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        self._stack.pop()

    def _wrap(self, name, fn, reader):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if name == "errprop.propagate_statistics":
                bound.arguments["pipeline"] = tracer._trial_spans(bound.arguments["pipeline"])
            span = tracer.open(name)
            try:
                result = fn(*bound.args, **bound.kwargs)
            except BaseException as err:
                tracer.close(span, error=type(err).__name__, failed=1,
                             **(reader(bound, None, err) if reader else {}))
                raise
            tracer.close(span, **(reader(bound, result, None) if reader else {}))
            return result

        return traced

    def _trial_spans(self, pipeline_fn):
        """Span every trial of an error-propagation call; the first call
        computes the point estimate and is not a trial."""
        calls = [0]

        def trial(records):
            calls[0] += 1
            if calls[0] == 1:
                return pipeline_fn(records)
            span = self.open("errprop.trial")
            try:
                value = pipeline_fn(records)
            except GatememError:
                self.close(span, failed=1)
                raise
            self.close(span)
            return value

        return trial

    def install(self) -> None:
        if self._saved:
            return
        for module_name, attr, name, reader in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, reader))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {s.id: (s.end - s.start) - covered[s.id] for s in spans}


def _pct(values, q):
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def _group(span: Span) -> str:
    """Span name, split by MLE kind (``tomography.mle.finite`` / ``.exact``)."""
    return span.name + ("." + span.attrs["kind"] if "kind" in span.attrs else "")


def counts(spans: list[Span]) -> dict[str, int]:
    """Work counts that a deterministic program repeats exactly."""
    out = defaultdict(int)
    for span in spans:
        key = _group(span)
        out[key + ".calls"] += 1
        for attr in ("iterations", "samples", "capped", "failed"):
            if attr in span.attrs:
                out[f"{key}.{attr}"] += int(span.attrs[attr])
    return dict(out)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers named as in BENCHMARK.json's ``per_layer`` list
    (the ``cli.*`` and ``trace.*`` entries are measured by the runner)."""
    own = self_times(spans)
    groups = defaultdict(list)
    for span in spans:
        groups[_group(span)].append(span)

    def busy(key):
        return float(sum(own[s.id] for s in groups[key]))

    def durations(key):
        return [s.end - s.start for s in groups[key]]

    def attr(key, name):
        return [s.attrs[name] for s in groups[key] if name in s.attrs]

    m: dict[str, float] = {}
    solve = durations("sdp")
    iters = attr("sdp", "iterations")
    p50 = _pct(solve, 50)
    m.update({
        "sdp.solves": len(solve),
        "sdp.busy_s": busy("sdp"),
        "sdp.solve_p50_s": p50,
        "sdp.solve_p90_s": _pct(solve, 90),
        "sdp.solve_max_s": max(solve, default=0.0),
        "sdp.tail_ratio": max(solve) / p50 if solve and p50 > 0 else 0.0,
        "sdp.iters_total": sum(iters),
        "sdp.iters_p50": _pct(iters, 50),
        "sdp.iters_max": max(iters, default=0),
        "sdp.gap_max": max(attr("sdp", "gap"), default=0.0),
    })
    avg = "nonmarkov.avg_trace_distance"
    samples = sum(attr(avg, "samples"))
    m.update({
        f"{avg}.calls": len(groups[avg]),
        f"{avg}.busy_s": busy(avg),
        f"{avg}.samples": samples,
        f"{avg}.ns_per_sample": busy(avg) * 1e9 / samples if samples else 0.0,
    })
    for key in ("nonmarkov.diamond_distance", "nonmarkov.conditional_map",
                "pipeline.reconstruct_channel", "simulator.sample_counts",
                "channels.invert", "channels.compose", "serialize.dump_json",
                "serialize.atomic_write_text", "serialize.load_json"):
        m[f"{key}.calls"] = len(groups[key])
        m[f"{key}.busy_s"] = busy(key)
    for key in ("nonmarkov.cp_violation", "nonmarkov.memory_scan",
                "tomography.process_tomography", "errprop.spam_scaling"):
        m[f"{key}.busy_s"] = busy(key)
    for kind in ("finite", "exact"):
        key = f"tomography.mle.{kind}"
        its = attr(key, "iterations")
        m[f"{key}.calls"] = len(groups[key])
        m[f"{key}.busy_s"] = busy(key)
        m[f"{key}.iters_total"] = sum(its)
        m[f"{key}.iters_max"] = max(its, default=0)
        if kind == "finite":
            m[f"{key}.iters_p50"] = _pct(its, 50)
        else:
            m[f"{key}.capped"] = sum(attr(key, "capped"))
    trials = durations("errprop.trial")
    m.update({
        "errprop.trials": len(trials),
        "errprop.failed_trials": sum(attr("errprop.trial", "failed")),
        "errprop.failed_calls": sum(attr("errprop.spam_scaling", "failed"))
        + sum(attr("errprop.propagate_statistics", "failed")),
        "errprop.trial_p50_s": _pct(trials, 50),
        "errprop.trial_max_s": max(trials, default=0.0),
    })
    m["serialize.dump_json.bytes"] = sum(attr("serialize.dump_json", "bytes"))
    return m
