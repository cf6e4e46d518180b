"""Spans and counts recorded from outside gsg, at its module boundaries.

``Tracer.install`` replaces every public function (each module's
``__all__``, plus ``gsg.cli.main``) in every gsg module namespace that holds
it, the defining module included, so nested calls become child spans.  A
span records name, start, end, parent span and request id in flat arrays
kept in memory; ``write`` stores them at the end of the run.

Count-only hooks sit on the ``GroupElement``, ``ColoredValue`` and
``MixedRadixNumber`` constructors and on ``statistics.is_negative``.  Each
count is keyed by the innermost open span, so a ratio such as candidates
built per digit unranked is measured where the work happens.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("mixed_radix", "subexceedant", "group_core", "statistics", "verify", "cli")
COUNTED_CLASSES = ("GroupElement", "ColoredValue", "MixedRadixNumber")
COUNT_ONLY = ("is_negative",)
# span arrays as written by Tracer.write: perf_counter seconds, indices, flags
SPAN_FIELDS = [
    ("start", "d"), ("end", "d"), ("parent", "i"), ("name", "i"), ("request", "i"), ("failed", "b"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.request = array("i")
        self.failed = array("b")
        self.open: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()  # (counter, innermost span name or "") -> n
        self.digits_unranked = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _innermost(self) -> str:
        return self.names[self.name[self.open[-1]]] if self.open else ""

    def _span(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        request, failed, open_spans = self.request, self.failed, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(open_spans[-1] if open_spans else -1)
            name.append(nid)
            request.append(self.request_id)
            failed.append(0)
            end.append(0.0)
            open_spans.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                open_spans.pop()

        return traced

    def _count_only(self, qualname: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[(qualname, self._innermost())] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_digits(self, traced):
        # unrank(r, m, n) fills n digits
        @functools.wraps(traced)
        def sized(*args, **kwargs):
            self.digits_unranked += args[2] if len(args) > 2 else kwargs["n"]
            return traced(*args, **kwargs)

        return sized

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if (key == "gsg" or key.startswith("gsg.")) and mod is not None
        ]
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            public = getattr(mod, "__all__", ["main"] if layer == "cli" else [])
            for attr in public:
                obj = getattr(mod, attr)
                qualname = f"{layer}.{attr}"
                if isinstance(obj, type) and attr in COUNTED_CLASSES:
                    self._hook_constructor(obj, qualname)
                    continue
                if not isinstance(obj, types.FunctionType) or obj.__module__ != mod.__name__:
                    continue
                if attr in COUNT_ONLY:
                    replacement = self._count_only(qualname, obj)
                else:
                    replacement = self._span(qualname, obj)
                    if qualname == "statistics.unrank":
                        replacement = self._count_digits(replacement)
                for ns in modules:
                    if ns.__dict__.get(attr) is obj:
                        setattr(ns, attr, replacement)
                        self._undo.append((ns, attr, obj))

    def _hook_constructor(self, cls: type, qualname: str) -> None:
        original = cls.__init__
        counts = self.counts

        def __init__(obj, *args, **kwargs):
            counts[(qualname, self._innermost())] += 1
            original(obj, *args, **kwargs)

        cls.__init__ = __init__
        self._undo.append((cls, "__init__", original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ summary

    def count(self, counter: str, inside: str | None = None) -> int:
        return sum(
            n for (name, where), n in self.counts.items()
            if name == counter and (inside is None or where == inside)
        )

    def by_name(self) -> dict[str, dict]:
        """Calls, total, self time and failures per span name."""
        total = len(self.start)
        covered = array("d", [0.0]) * total
        start, end, parent = self.start, self.end, self.parent
        for i in range(total):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
            for name in self.names
        }
        for i in range(total):
            row = out[self.names[self.name[i]]]
            duration = end[i] - start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
            row["errors"] += self.failed[i]
        return out

    def by_layer(self, names: dict[str, dict]) -> dict[str, dict]:
        """Sums of :meth:`by_name` rows over each layer's span names."""
        out = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for name, row in names.items():
            layer = out[name.partition(".")[0]]
            for key in layer:
                layer[key] += row[key]
        return out

    def write(self, path) -> None:
        """Spans, gzip'd: a JSON header line, then each array's raw bytes."""
        arrays = [getattr(self, field) for field, _ in SPAN_FIELDS]
        header = {"names": self.names, "spans": len(self.start), "fields": SPAN_FIELDS}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for values in arrays:
                fh.write(values.tobytes())


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Inverse of :meth:`Tracer.write`: span names and one array per field."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["spans"]
        fields = {}
        for field, code in header["fields"]:
            values = array(code)
            values.frombytes(fh.read(count * values.itemsize))
            fields[field] = values
    return header["names"], fields
