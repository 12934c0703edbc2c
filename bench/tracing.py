"""Span tracing of the jscc layers, applied from outside the package.

`install` wraps every public function of the jscc modules and the
`encode`/`decode` methods of every concrete codec class, so a run records a
span per call without any edit to the package.  `Patch.remove` puts every
original back.  `Trace` turns the recorded spans into per-layer numbers.

A span is (id, parent id, name, start ns, end ns, thread id, rows,
segments).  The parent is the innermost open span of the same thread.  Worker
threads of `harness.estimate_point` start with an empty stack; their spans take
the single open `harness.estimate_point` span as parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass

LAYERS = ("numrep", "channel", "codecs", "harness", "analysis", "svgplot", "cli")
POINT_SPAN = "harness.estimate_point"
CODEC_METHODS = ("encode", "decode")


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_points = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rows: int = 0, segments: int = 0):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
            if stack:
                parent = stack[-1]
            elif (threading.current_thread() is not threading.main_thread()
                  and len(self._open_points) == 1):
                parent = self._open_points[0]
            else:
                parent = 0
            if name == POINT_SPAN:
                self._open_points.append(sid)
        stack.append(sid)
        return sid, parent, name, rows, segments, time.perf_counter_ns()

    def end(self, token) -> None:
        t1 = time.perf_counter_ns()
        sid, parent, name, rows, segments, t0 = token
        self._stack().pop()
        with self._lock:
            if name == POINT_SPAN:
                self._open_points.remove(sid)
            self.spans.append((sid, parent, name, t0, t1,
                               threading.get_ident(), rows, segments))

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


def _layer_of(module_name: str) -> str:
    return module_name.split(".")[1]


def _wrap_function(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(token)
        if isinstance(result, types.FunctionType) and result.__closure__:
            # A factory such as analysis.constellation_sampler hands back a
            # closure that does the work; trace its calls as a child name.
            return _wrap_function(tracer, f"{name}.{result.__name__}", result)
        return result

    return traced


def _wrap_method(tracer: Tracer, method: str, fn):
    @functools.wraps(fn)
    def traced(self, x, *args, **kwargs):
        token = tracer.begin(f"codecs.{type(self).__name__}.{method}",
                             rows=len(x), segments=getattr(self, "segments", 0))
        try:
            return fn(self, x, *args, **kwargs)
        finally:
            tracer.end(token)

    return traced


def codec_classes() -> list:
    """Every subclass of jscc.codecs.base.Codec, depth first."""
    from jscc.codecs.base import Codec

    found, todo = [], list(Codec.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Patch:
    """Record of every attribute replaced by `install`."""

    def __init__(self):
        self.replaced = []  # (owner, attribute, original)

    def set(self, owner, attr: str, value) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def jscc_modules() -> dict:
    import jscc.cli  # noqa: F401  (loads every layer)

    return {name: mod for name, mod in sys.modules.items()
            if name.startswith("jscc.") and _layer_of(name) in LAYERS}


def install(tracer: Tracer) -> Patch:
    """Wrap public jscc functions and codec encode/decode with spans.

    A function is traced under "<layer>.<name>", where the layer is the jscc
    module that defines it.  Every module-level binding of it is replaced,
    including re-exports and `from x import f` copies, so calls through any
    of them are seen.
    """
    modules = jscc_modules()
    wrappers = {}
    for mod_name, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod_name):
                name = f"{_layer_of(mod_name)}.{obj.__name__}"
                wrappers[obj] = _wrap_function(tracer, name, obj)
    patch = Patch()
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                patch.set(mod, attr, wrappers[obj])
    for cls in codec_classes():
        for method in CODEC_METHODS:
            if method in vars(cls):
                patch.set(cls, method, _wrap_method(tracer, method, vars(cls)[method]))
    return patch


# ---------------------------------------------------------------------------
# analysis of recorded spans


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    t0: int
    t1: int
    thread: int
    rows: int
    segments: int

    @property
    def seconds(self) -> float:
        return (self.t1 - self.t0) * 1e-9


def _union_ns(intervals) -> int:
    total, end = 0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


class Trace:
    """Queries over one run's spans."""

    def __init__(self, spans):
        self.spans = [Span(*s) for s in spans]
        self.by_id = {s.id: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s.parent, []).append(s)

    @classmethod
    def load(cls, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data["spans"]), data["meta"]

    def ancestors(self, span: Span):
        node = self.by_id.get(span.parent)
        while node is not None:
            yield node
            node = self.by_id.get(node.parent)

    def named(self, name: str, under: str | None = None) -> list:
        out = [s for s in self.spans if s.name == name]
        if under is not None:
            out = [s for s in out if any(a.name == under for a in self.ancestors(s))]
        return out

    def outermost(self, name: str) -> list:
        """Spans of a name that are not nested in another span of that name."""
        return [s for s in self.named(name)
                if all(a.name != name for a in self.ancestors(s))]

    def total_s(self, name: str) -> float:
        return sum(s.seconds for s in self.outermost(name))

    def self_s(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = [(max(c.t0, span.t0), min(c.t1, span.t1))
                for c in self.children.get(span.id, ())]
        covered = _union_ns((lo, hi) for lo, hi in kids if hi > lo)
        return (span.t1 - span.t0 - covered) * 1e-9

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(self.self_s(s) for s in self.spans if s.name.startswith(prefix))

    def names(self) -> set:
        return {s.name for s in self.spans}


def span_metrics(trace: Trace, meta: dict) -> dict:
    """Every per-layer figure one traced run yields, as name -> (value, unit).

    Figures for layers the run never entered are left out.
    """
    m = {"process.import_s": (meta["import_s"], "s"),
         "trace.spans": (len(trace.spans), "count")}
    names = trace.names()
    for layer in LAYERS:
        if any(n.startswith(layer + ".") for n in names):
            m[f"{layer}.self_s"] = (trace.layer_self_s(layer), "s")

    for name in ("numrep.draw_source", "channel.batch_rng", "channel.awgn"):
        batch = trace.named(name, under=POINT_SPAN)
        if batch:
            m[f"{name}.p50_ms"] = (percentile([s.seconds for s in batch], 50) * 1e3, "ms")

    for cls in sorted({n.split(".")[1] for n in names
                       if n.startswith("codecs.") and n.endswith(CODEC_METHODS)}):
        for method in CODEC_METHODS:
            name = f"codecs.{cls}.{method}"
            if name not in names:
                continue
            batch = [s.seconds * 1e3 for s in trace.named(name, under=POINT_SPAN)]
            if batch:
                m[f"{name}.p50_ms"] = (percentile(batch, 50), "ms")
                if method == "decode":
                    m[f"{name}.p90_ms"] = (percentile(batch, 90), "ms")
            m[f"{name}.total_s"] = (trace.total_s(name), "s")

    shift = trace.outermost("codecs.ShiftMapCodec.decode")
    if shift:
        work = sum(s.segments * s.rows for s in shift)
        m["codecs.ShiftMapCodec.dense_segment_samples"] = (work, "count")
        m["codecs.ShiftMapCodec.decode.ns_per_segment_sample"] = (
            sum(s.seconds for s in shift) * 1e9 / work, "ns")

    norms = trace.outermost("codecs.measure_normalization")
    if norms:
        m["codecs.measure_normalization.calls"] = (len(norms), "count")
        m["codecs.measure_normalization.total_s"] = (trace.total_s("codecs.measure_normalization"), "s")
    if "codecs.build_codec" in names:
        m["codecs.build_codec.total_ms"] = (trace.total_s("codecs.build_codec") * 1e3, "ms")

    points = trace.named(POINT_SPAN)
    if points:
        ms = [s.seconds * 1e3 for s in points]
        m["harness.estimate_point.self_s"] = (sum(trace.self_s(s) for s in points), "s")
        m["harness.point.p50_ms"] = (statistics.median(ms), "ms")
        m["harness.point.max_ms"] = (max(ms), "ms")
        m["harness.batches_run"] = (len(trace.named("channel.batch_rng", under=POINT_SPAN)), "count")

    box = trace.outermost("analysis.boxcount_dimension")
    if box:
        m["analysis.boxcount_dimension.total_s"] = (trace.total_s("analysis.boxcount_dimension"), "s")
        m["analysis.boxcount_dimension.self_s"] = (sum(trace.self_s(s) for s in box), "s")
    if "analysis.constellation_sampler.sample" in names:
        m["analysis.constellation_sampler.total_s"] = (
            trace.total_s("analysis.constellation_sampler.sample"), "s")

    for name, metric, scale, unit in (
            ("cli.write_curve_csv", "cli.write_curve_csv.total_ms", 1e3, "ms"),
            ("svgplot.svg_document", "svgplot.svg_document.ms", 1e3, "ms")):
        if name in names:
            m[metric] = (trace.total_s(name) * scale, unit)
    if "cli.run_simulate" in names:
        m["cli.run_simulate.self_s"] = (
            sum(trace.self_s(s) for s in trace.named("cli.run_simulate")), "s")
    return m
