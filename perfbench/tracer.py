"""Span tracer for the benchmark's traced run.

`Tracer.install()` replaces the public functions of each crossratio layer,
and the element operations of `fields`, with wrappers that record one span
per call: (name, start, end, parent span, request id).  A function is
replaced wherever a crossratio module holds it, so `from .ratio import
cross_ratio` in `verify` is traced too.  `uninstall()` puts every original
object back.  Spans stay in memory until `write()`; self time and the
per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter

LAYERS = ("fields", "ratio", "plane", "verify", "cli", "svg")
# Element and Field methods traced as field operations: (class, attribute, span name).
FIELD_METHODS = (
    ("Element", "__add__", "add"),
    ("Element", "__sub__", "sub"),
    ("Element", "__neg__", "neg"),
    ("Element", "__mul__", "mul"),
    ("Element", "inv", "inv"),
    ("Element", "__eq__", "eq"),
    ("Element", "__str__", "format"),
    ("Field", "parse", "parse"),
    ("RationalField", "__eq__", "eq"),
    ("GaloisField", "__eq__", "eq"),
    ("QuaternionField", "__eq__", "eq"),
)


def payload_bits(value) -> int:
    """Bit size of an element payload: its largest integer, numerator or denominator."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, tuple):
        return max((payload_bits(part) for part in value), default=0)
    if hasattr(value, "numerator"):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return 0


def self_times(parent, start, end) -> array:
    """Each span's duration minus the time its direct children cover."""
    own = array("d", (e - s for s, e in zip(start, end)))
    for index, up in enumerate(parent):
        if up >= 0:
            own[up] -= end[index] - start[index]
    return own


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.request_id = -1
        self.mul_operand_bits = array("L")
        self.samples_run = 0
        self.redraws = 0
        self.check_s: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn, before=None, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, clock = self._stack, time.perf_counter
        span_name, parent, request, start, end = (
            self.span_name, self.parent, self.request, self.start, self.end
        )

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[index], end[index] = t0, t1
            if after is not None:
                after(args, result, t1 - t0)
            return result

        return functools.update_wrapper(traced, fn)

    def _record_mul(self, args):
        for operand in args[:2]:
            self.mul_operand_bits.append(payload_bits(getattr(operand, "value", operand)))

    def _record_check(self, args, record, seconds):
        self.samples_run += record["samples_run"]
        self.redraws += record["redraws"]
        self.check_s[record["name"]] += seconds

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Trace every layer; names that no longer exist are listed in `missing`."""
        modules = {layer: importlib.import_module(f"crossratio.{layer}") for layer in LAYERS}
        fields = modules["fields"]
        for cls_name, attr, span in FIELD_METHODS:
            cls = getattr(fields, cls_name, None)
            if cls is None or attr not in cls.__dict__:
                self.missing.append(f"fields.{cls_name}.{attr}")
                continue
            before = self._record_mul if span == "mul" else None
            self._patch(cls, attr, self._wrap(f"fields.{span}", cls.__dict__[attr], before))
        namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "crossratio"]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                after = self._record_check if (layer, attr) == ("verify", "run_check") else None
                wrapper = self._wrap(f"{layer}.{attr}", fn, after=after)
                for namespace in namespaces:
                    for name, value in list(vars(namespace).items()):
                        if value is fn:
                            self._patch(namespace, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def metrics(self, check_names) -> dict[str, tuple[float, str]]:
        """Per-layer counts and times of everything recorded so far, with units."""
        ids = Counter(self.span_name)
        calls = Counter({self.names[nid]: n for nid, n in ids.items()})
        layer_of = [name.split(".")[0] for name in self.names]
        layer_self = Counter()
        for nid, seconds in zip(self.span_name, self_times(self.parent, self.start, self.end)):
            layer_self[layer_of[nid]] += seconds
        svg_s = sum(
            e - s
            for nid, s, e in zip(self.span_name, self.start, self.end)
            if layer_of[nid] == "svg"
        )
        drawn = self.samples_run + self.redraws
        counts = {
            "fields.mul.calls": calls["fields.mul"],
            "fields.inv.calls": calls["fields.inv"],
            "fields.addsub.calls": calls["fields.add"] + calls["fields.sub"],
            "fields.eq.calls": calls["fields.eq"],
            "fields.parse.calls": calls["fields.parse"],
            "fields.format.calls": calls["fields.format"],
            "ratio.cross_ratio.calls": calls["ratio.cross_ratio"],
            "ratio.ratio3.calls": calls["ratio.ratio3"],
            "ratio.solve_fourth_point.calls": calls["ratio.solve_fourth_point"],
            "plane.line_through.calls": calls["plane.line_through"],
            "plane.intersect.calls": calls["plane.intersect"],
            "plane.construct.calls": calls["plane.construct_sum"] + calls["plane.construct_product"],
            "plane.generate_desargues.calls": calls["plane.generate_desargues_config"],
            "verify.run_check.calls": calls["verify.run_check"],
            "verify.samples_run": self.samples_run,
            "verify.redraws": self.redraws,
            "cli.main.calls": calls["cli.main"],
            "svg.render.calls": calls["svg.render_construction"],
        }
        out = {name: (value, "count") for name, value in counts.items()}
        for layer in ("fields", "ratio", "plane", "verify", "cli"):
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        out["svg.render_s"] = (svg_s, "s")
        bits = statistics.median(self.mul_operand_bits) if self.mul_operand_bits else 0
        out["fields.mul.operand_bits_p50"] = (bits, "bit")
        # 0 when nothing was drawn at all
        out["verify.accept_ratio"] = (self.samples_run / drawn if drawn else 0.0, "ratio")
        for name in check_names:
            out[f"verify.check.{name}.s"] = (self.check_s[name], "s")
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped TSV: name, start, end, parent index, request id."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as sink:
            sink.write("name\tstart\tend\tparent\trequest\n")
            for row in zip(self.span_name, self.start, self.end, self.parent, self.request):
                sink.write(f"{self.names[row[0]]}\t{row[1]:.9f}\t{row[2]:.9f}\t{row[3]}\t{row[4]}\n")
