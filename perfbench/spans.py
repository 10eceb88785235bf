"""In-memory spans around calls into the library's public functions.

A span is ``[name, parent, start, end, op]``: ``name`` is ``layer.function``,
``parent`` the index of the enclosing span (-1 at the top), and ``op`` the
request the span belongs to. Functions are wrapped by rebinding module
attributes, so calls between modules are traced too; ``restore`` undoes it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.errors: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts, errors = self.spans, self._stack, self.counts, self.errors

        def traced(*args, **kwargs):
            if count is not None:
                counts[name] += count(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                rec[3] = perf_counter()
                stack.pop()

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, count))
        self._undo.append((module, attr, original))

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _ms(self, span, factors: list[float]) -> float:
        _, _, start, end, op = span
        return (end - start) * 1e3 * factors[op]

    def totals(self, factors: list[float]) -> tuple[dict, dict, dict]:
        """Calibrated ms per span name (inclusive), per layer (self time),
        and call counts per span name; ``factors[op]`` calibrates op."""
        inclusive: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        layer_self: defaultdict[str, float] = defaultdict(float)
        for span in self.spans:
            name, parent = span[0], span[1]
            ms = self._ms(span, factors)
            inclusive[name] += ms
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += ms
            if parent >= 0:
                layer_self[self.spans[parent][0].split(".", 1)[0]] -= ms
        return inclusive, layer_self, calls

    def under(self, name: str, ops: set[int], factors: list[float]) -> float:
        """Calibrated ms of spans called ``name`` in the given ops."""
        return sum(self._ms(s, factors) for s in self.spans if s[0] == name and s[4] in ops)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, parent, start, end, op in self.spans:
                handle.write(
                    json.dumps({"op": op, "name": name, "parent": parent,
                                "start": start, "end": end}) + "\n"
                )
