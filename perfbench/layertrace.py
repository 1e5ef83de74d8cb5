"""Layer tracing from the outside: spans around gwrdp's public functions.

A ``Tracer`` replaces a function, in every module namespace it is called
through, with a wrapper that records a span (layer, function, start, end,
parent span). Spans nest on a stack, so a layer's self time is its
spans' durations minus the part their child spans cover. ``restore()``
puts the original functions back. Nothing inside gwrdp changes.

``Capture`` is the untraced counterpart: it keeps a reference to selected
arguments and results (one call per command) for the correctness checks.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    ident: int
    parent: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0   # time covered by direct child spans

    def as_dict(self) -> dict:
        return {"id": self.ident, "parent": self.parent, "layer": self.layer,
                "name": self.name, "start": self.start, "end": self.end}


@dataclass
class Tracer:
    """Records spans and per-function counts while installed."""

    spans: list[Span] = field(default_factory=list)
    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list[Span] = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def span(self, layer: str, name: str, func: Callable,
             observe: Callable | None = None) -> Callable:
        """Wrap ``func``; ``observe(tracer, args, kwargs, result)`` may add
        counts once the call returns."""
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            sp = Span(len(tracer.spans), parent.ident if parent else -1,
                      layer, name, time.perf_counter())
            tracer.spans.append(sp)
            tracer._stack.append(sp)
            try:
                result = func(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                tracer._stack.pop()
                took = sp.end - sp.start
                if parent is not None:
                    parent.child += took
                key = f"{layer}.{name}"
                tracer.calls[key] += 1
                tracer.self_s[key] += took - sp.child
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self, owners, attr: str, layer: str, name: str | None = None,
                observe: Callable | None = None):
        """Wrap ``attr`` on each owner (module or class) it is looked up on,
        keeping whatever that owner holds now inside the wrapper."""
        for owner in owners:
            current = getattr(owner, attr)
            self._patched.append((owner, attr, current))
            setattr(owner, attr, self.span(layer, name or attr, current, observe))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")


class Capture:
    """Keeps what one command passed to or got from selected functions."""

    def __init__(self):
        self.seen: dict[str, list] = defaultdict(list)
        self._patched: list = []

    def install(self, owner, attr: str, keep: Callable):
        """Replace ``owner.attr`` with a pass-through that stores
        ``keep(args, kwargs, result)``."""
        original = getattr(owner, attr)
        seen = self.seen[attr]

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.append(keep(args, kwargs, result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def take(self, attr: str) -> list:
        out = list(self.seen[attr])
        self.seen[attr].clear()
        return out

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
