"""Span tracing of dehnkit's public functions, installed from outside.

The program is not edited: the tracer rebinds each target function at
every module that imported it (``surgery.cokernel``, ``cli.cokernel``,
``dehnkit.verify_family`` and so on) and patches ``__init__`` or a
method on a class, so every call site reaches the wrapper.  Each call
becomes a span (id, name, start, end, parent, op).  Spans live in memory
and are written out at the end of the run.  Calls, inclusive time and
self time (a span's duration minus its child spans) are aggregated for
every call, also after the stored spans reach their cap.
"""

from __future__ import annotations

import json
from time import perf_counter

# Stored spans are capped so a long traced run stays small in memory;
# aggregates keep counting past the cap.
SPAN_CAP = 100_000

# (metric name, module, attribute).  "Class.method" patches the method on
# the class; "Class.__init__" traces the constructor.
TARGETS = (
    ("matrices.smith_normal_form", "matrices", "smith_normal_form"),
    ("matrices.cokernel", "matrices", "cokernel"),
    ("matrices.IntegerMatrix", "matrices", "IntegerMatrix.__init__"),
    ("surgery.verify_family", "surgery", "verify_family"),
    ("surgery.certify_family", "surgery", "certify_family"),
    ("surgery.build_presentation", "surgery", "build_presentation"),
    ("surgery.fill_remaining", "surgery", "fill_remaining"),
    ("surgery.mn_framed_link", "surgery", "mn_framed_link"),
    ("surgery.resolve_fillings", "surgery", "FramedLink.resolve_fillings"),
    ("twobridge.family_schubert", "twobridge", "family_schubert"),
    ("twobridge.continued_fraction", "twobridge", "continued_fraction"),
    ("slopes.Slope", "slopes", "Slope.__init__"),
    ("slopes.fixed_slopes", "slopes", "fixed_slopes"),
    ("cli.main", "cli", "main"),
)


def _bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.entries() for x in row),
               default=0)


class Tracer:
    """Collects spans and counters while installed on a dehnkit import."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.snf_durations: list[float] = []
        self.counts = {
            "snf_calls": 0,
            "snf_under_cokernel": 0,
            "transform_bits_max": 0,
            "det_bits_max": 0,
            "slope_candidates": 0,
            "fixed_slope_hits": 0,
        }
        self._stack: list[list] = []
        self._next_id = 0
        self._origin = perf_counter()
        self._restore: list[tuple] = []
        self._cokernel_id = -1

    # -- aggregation ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one target."""
        i = self.names.index(name)
        return self.calls[i], self.total[i], self.self_time[i]

    def _wrap(self, fn, nid: int, after=None):
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [nid, sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                total[nid] += duration
                self_time[nid] += duration - frame[2]
                parent = -1
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, nid, start - self._origin,
                                       end - self._origin, parent, self.op))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- layer counters -------------------------------------------------

    def _after_snf(self, args, form, duration):
        counts = self.counts
        counts["snf_calls"] += 1
        if any(frame[0] == self._cokernel_id for frame in self._stack):
            counts["snf_under_cokernel"] += 1
        self.snf_durations.append(duration)
        bits = max(_bits(form.u), _bits(form.v))
        counts["transform_bits_max"] = max(counts["transform_bits_max"], bits)
        det = 1
        for d in form.diagonal:
            if d:
                det *= d
        counts["det_bits_max"] = max(counts["det_bits_max"], det.bit_length())

    def _after_fixed(self, args, found, duration):
        self.counts["fixed_slope_hits"] += len(found)

    def _counted_candidates(self, generate):
        counts = self.counts

        def counted(*args, **kwargs):
            for slope in generate(*args, **kwargs):
                counts["slope_candidates"] += 1
                yield slope

        return counted

    # -- installation ---------------------------------------------------

    def _rebind(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self, package) -> None:
        """Wrap every target in the dehnkit package and its submodules."""
        modules = [package] + [
            getattr(package, m)
            for m in ("matrices", "slopes", "twobridge", "surgery", "cli")
        ]
        after = {
            "matrices.smith_normal_form": self._after_snf,
            "slopes.fixed_slopes": self._after_fixed,
        }
        for name, module_name, attr in TARGETS:
            nid = self._name_id(name)
            if name == "matrices.cokernel":
                self._cokernel_id = nid
            owner = getattr(package, module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(original, nid, after.get(name)))
            else:
                original = getattr(owner, attr)
                self._rebind(modules, original,
                             self._wrap(original, nid, after.get(name)))
        slopes = package.slopes
        self._rebind(modules, slopes.canonical_slopes,
                     self._counted_candidates(slopes.canonical_slopes))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path, meta: dict) -> None:
        """Write the stored spans as one JSON document."""
        doc = dict(meta)
        doc.update(
            names=self.names,
            fields=["id", "name", "start_s", "end_s", "parent", "op"],
            spans=self.spans,
            dropped=self.dropped,
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
