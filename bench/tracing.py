"""In-memory spans around the benchmark's calls into the program.

A span has a name, a start, an end, a parent span and the id of the
operation it belongs to.  Spans are kept in a list while the run goes and
written out when it ends.  A layer's self time is its span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# prefix of the stderr line on which a traced child process reports its spans
PROBE_MARK = "#bench-probe "


class Tracer:
    """Records spans when on; costs one attribute test per call when off."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list = []   # [name, start, end, parent index, op id]
        self._stack: list = []
        self.op_id = 0
        self.counts: dict = {}
        self.merged: dict = {}  # self times reported by traced child processes

    def call(self, name: str, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, module, attr: str, name: str, on_result=None):
        """Rebind ``module.attr`` to a spanned version, so calls the program
        makes to it internally are recorded as child spans.  Returns a
        function that restores the original."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        setattr(module, attr, traced)
        return lambda: setattr(module, attr, original)

    def wrap_internal_calls(self):
        """Span the calls the program makes inside itself that the layer
        figures need: ``tokenize`` under every parse, and ``build_library``
        with the parses it makes of every library entry (``get_entry``
        calls it on every lookup).  The library's parses are named like
        the benchmark's own, so all parsing counts as parser time.
        Returns a function that restores the originals."""
        import dnsk.parser
        import dnsk.theorems

        restore = [
            self.wrap(dnsk.parser, "tokenize", "parser.tokenize",
                      lambda toks: self.count("parser.tokens", len(toks))),
            self.wrap(dnsk.theorems, "build_library", "theorems.build_library"),
            self.wrap(dnsk.theorems, "parse_formula", "parser.parse_formula"),
            self.wrap(dnsk.theorems, "parse_proof", "parser.parse_proof"),
        ]
        return lambda: [undo() for undo in reversed(restore)]

    def merge(self, self_times: dict, counts: dict) -> None:
        """Fold in the self times and counts a traced child reported."""
        for name, (busy, calls) in self_times.items():
            b, c = self.merged.get(name, (0.0, 0))
            self.merged[name] = (b + busy, c + calls)
        for name, n in counts.items():
            self.count(name, n)

    def self_times(self) -> dict:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = dict(self.merged)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            busy, calls = out.get(name, (0.0, 0))
            out[name] = (busy + (end - start) - child[i], calls + 1)
        return out

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
