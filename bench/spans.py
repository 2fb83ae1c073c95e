"""Span tracing from outside the program.

A traced op swaps public stagecal names for timing wrappers at the places
they are looked up, records one span per call (name, start, end, parent span,
op id, plus a few computed counts), and restores the originals afterwards.
Spans stay in memory; forked children send theirs to the parent when they
exit. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "calibration", "geometry", "imaging", "spectral")

SOLVERS = (
    "calibration.solve_m",
    "calibration.solve_q",
    "calibration.solve_n",
    "calibration.q_objective",
    "calibration.compute_black_level",
    "calibration.condition_number",
    "calibration.chart_error",
)

WRITERS = ("write_png16", "write_pfm", "write_chart_csv")


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _digest(value) -> str:
    """Identity of an argument list, for counting distinct calls."""
    h = hashlib.sha1()

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(repr((v.shape, v.dtype.str)).encode())
            h.update(np.ascontiguousarray(v).data)
        elif isinstance(v, (list, tuple)):
            for item in v:
                feed(item)
        elif hasattr(v, "__dataclass_fields__"):
            for f in v.__dataclass_fields__:
                feed(getattr(v, f))
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def _key(args, kwargs, result):
    return {"key": _digest((args, sorted(kwargs.items())))}


def _file_bytes(index, name):
    def meta(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}

    return meta


def _panel_bytes(args, kwargs, result):
    return {"bytes": result.data.nbytes}


def _chart_pixels(args, kwargs, result):
    image = _arg(args, kwargs, 0, "image")
    return {"pixels": image.width * image.height}


def _transform_name(args, kwargs):
    return "calibration.transform_content." + _arg(args, kwargs, 1, "mode")


def _gamut_before(args, kwargs):
    counter = _arg(args, kwargs, 3, "counter")
    return counter.out_of_gamut if counter is not None else 0


def _gamut_after(args, kwargs, result, before):
    counter = _arg(args, kwargs, 3, "counter")
    return {"out_of_gamut": counter.out_of_gamut - before if counter is not None else 0}


class Wrap:
    """One name to replace: ``module.attr`` gets a span named ``name``."""

    def __init__(self, module, attr, name=None, meta=None, before=None):
        self.module, self.attr = module, attr
        self.name = name or f"{module.split('.')[-1]}.{attr}"
        self.meta, self.before = meta, before


def _cli_wraps():
    """Every layer function the cli module imports, plus LinearImage construction."""
    layer_of = {
        "calibration": ("build_sl", "build_srl", "chart_error", "compute_black_level",
                        "condition_number", "predict_lit_chart", "q_objective",
                        "solve_m", "solve_n", "solve_q"),
        "geometry": ("compute_beta", "panel_form_factor_analytic", "read_env_pfm",
                     "w_avg_from_env", "w_avg_from_white"),
        "imaging": ("extract_chart", "read_chart_csv", "read_pfm", "render_comparison_chart",
                    "sample_roi", "write_chart_csv", "write_pfm", "write_png16",
                    "LinearImage"),
        "spectral": ("make_scene", "oracle_calibration", "write_scene"),
    }
    special = {
        "compute_beta": _key,
        "predict_lit_chart": _key,
        "read_pfm": _file_bytes(0, "path"),
        "read_chart_csv": _file_bytes(0, "path"),
        "write_pfm": _file_bytes(0, "path"),
        "write_png16": _file_bytes(0, "path"),
        "write_chart_csv": _file_bytes(0, "path"),
        "extract_chart": _chart_pixels,
    }
    wraps = [
        Wrap("stagecal.cli", attr, f"{layer}.{attr}", special.get(attr))
        for layer, attrs in layer_of.items()
        for attr in attrs
    ]
    wraps.append(Wrap("stagecal.cli", "transform_content", _transform_name,
                      _gamut_after, _gamut_before))
    wraps += [Wrap("stagecal.cli", attr) for attr in ("load_config", "run_solve", "run_oracle")]
    return wraps


WRAPS = _cli_wraps() + [
    Wrap("stagecal.geometry", "build_panel_env", meta=_panel_bytes),
    Wrap("stagecal.geometry", "diffuse_convolve"),
    # read_env_pfm reads through this name; the read is imaging work
    Wrap("stagecal.geometry", "read_pfm", "imaging.read_pfm", _file_bytes(0, "path")),
    Wrap("stagecal.calibration", "predict_lit_chart", meta=_key),
    Wrap("stagecal.calibration", "condition_number"),
    Wrap("stagecal.calibration", "transform_content", _transform_name,
         _gamut_after, _gamut_before),
    Wrap("stagecal.spectral", "integrate_response"),
]


class Tracer:
    """Collects spans in memory; ``installed()`` swaps wrappers in and out."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.op = None
        self._prefix = f"{os.getpid()}."
        self._count = 0

    def forked(self) -> None:
        """Called in a forked child: keep the open stack, drop inherited spans."""
        self.spans = []
        self._prefix = f"{os.getpid()}."

    def _open(self):
        self._count += 1
        sid = self._prefix + str(self._count)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start) -> dict:
        end = time.perf_counter()
        self.stack.pop()
        span = {"id": sid, "parent": parent, "name": name, "start": start, "end": end, "op": self.op}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def wrap(self, fn, spec: Wrap):
        def traced(*args, **kwargs):
            name = spec.name(args, kwargs) if callable(spec.name) else spec.name
            before = spec.before(args, kwargs) if spec.before else None
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start)["error"] = True
                raise
            span = self._close(sid, parent, name, start)
            # computed counts are taken after the span has ended
            if spec.before:
                span.update(spec.meta(args, kwargs, result, before))
            elif spec.meta:
                span.update(spec.meta(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, wraps=WRAPS):
        saved = []
        try:
            for spec in wraps:
                module = importlib.import_module(spec.module)
                original = getattr(module, spec.attr)
                saved.append((module, spec.attr, original))
                setattr(module, spec.attr, self.wrap(original, spec))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def op_profile(spans: list[dict]) -> dict:
    """Per-name totals for the spans of one op.

    ``bench.op`` spans are the timed segments of the op; their summed duration
    is the op time that layer shares are taken of.
    """
    selfs = self_times(spans)
    prof = defaultdict(lambda: defaultdict(float))
    keys = defaultdict(set)
    for s in spans:
        p = prof[s["name"]]
        p["calls"] += 1
        p["ms"] += 1e3 * (s["end"] - s["start"])
        p["self_ms"] += 1e3 * selfs[s["id"]]
        for field in ("bytes", "pixels", "out_of_gamut"):
            p[field] += s.get(field, 0)
        p["errors"] += bool(s.get("error"))
        if "key" in s:
            keys[s["name"]].add(s["key"])
    for name, distinct in keys.items():
        prof[name]["unique"] = len(distinct)
    return prof


def layer_metrics(prof: dict) -> dict:
    """The per-layer metric values of one op, from its profile."""

    def get(name, field):
        return prof[name][field] if name in prof else 0.0

    op_ms = get("bench.op", "ms")
    m = {}
    for layer in LAYERS + ("bench",):
        self_ms = sum(p["self_ms"] for n, p in prof.items() if n.split(".")[0] == layer)
        m[f"{layer}.self_ms"] = self_ms
        m[f"{layer}.share"] = self_ms / op_ms if op_ms else 0.0
        if layer != "bench":
            m[f"{layer}.errors"] = sum(p["errors"] for n, p in prof.items() if n.split(".")[0] == layer)
    for name in ("geometry.build_panel_env", "geometry.diffuse_convolve", "imaging.read_pfm",
                 "imaging.LinearImage", "imaging.extract_chart", "imaging.sample_roi",
                 "imaging.read_chart_csv", "imaging.render_comparison_chart",
                 "imaging.write_png16", "imaging.write_pfm", "imaging.write_chart_csv",
                 "calibration.transform_content.in_frustum",
                 "calibration.transform_content.out_of_frustum",
                 "calibration.transform_content.post", "spectral.make_scene",
                 "spectral.oracle_calibration", "spectral.write_scene", "cli.run_solve",
                 "cli.run_oracle", "cli.load_config"):
        m[f"{name}.self_ms"] = get(name, "self_ms")
    for name in ("geometry.compute_beta", "geometry.w_avg_from_env"):
        m[f"{name}.ms"] = get(name, "ms")
    for name in ("geometry.compute_beta", "calibration.predict_lit_chart",
                 "spectral.integrate_response"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("geometry.compute_beta", "calibration.predict_lit_chart"):
        calls = get(name, "calls")
        m[f"{name}.unique_ratio"] = get(name, "unique") / calls if calls else 0.0
    m["geometry.build_panel_env.bytes"] = get("geometry.build_panel_env", "bytes")
    m["imaging.read_pfm.bytes"] = get("imaging.read_pfm", "bytes")
    m["imaging.extract_chart.pixels"] = get("imaging.extract_chart", "pixels")
    m["imaging.bytes_written"] = sum(get(f"imaging.{w}", "bytes") for w in WRITERS)
    m["calibration.transform_content.out_of_gamut"] = sum(
        get(f"calibration.transform_content.{mode}", "out_of_gamut")
        for mode in ("in_frustum", "out_of_frustum", "post")
    )
    m["calibration.solvers.self_ms"] = sum(get(n, "self_ms") for n in SOLVERS)
    return m
