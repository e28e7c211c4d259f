"""Spans and counters recorded from outside the program.

`instrument` replaces layer functions at the module attributes the pipeline
looks them up by, and restores them on exit. A timed function records a span
(name, start, end, parent). A hot per-candidate function that is timed
(`engine.analytic_metrics`) adds into one rolled-up span per parent, so 65k
calls cost one record. The hottest scalar calls are only counted. Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from dataclasses import asdict, dataclass
from time import perf_counter

from subarch import cli, config, engine, metrics, space, toynet

# (span name, module, attribute) of the layer boundaries that are timed.
TIMED = (
    ("config.load", config, "load_config"),
    ("config.load", config, "apply_overrides"),
    ("engine.extract", cli, "run_extraction"),
    ("engine.render", cli, "render_json"),
    ("space.enumerate", engine, "enumerate_space"),
    ("engine.rank", engine, "rank_candidates"),
    ("toynet.forward", toynet, "forward"),
    ("toynet.block", toynet, "_encoder_block"),
    ("toynet.attention", toynet, "attention"),
    ("toynet.softmax", toynet, "softmax"),
    ("toynet.gelu", toynet, "gelu"),
    ("toynet.layer_norm", toynet, "layer_norm"),
)
ROLLED_UP = (("metrics.attach", engine, "analytic_metrics"),)
COUNTED = (
    ("space.validate", space, "validate"),
    ("engine.w_coefficient", engine, "w_coefficient"),
    ("costs.count", metrics, "param_count"),
    ("costs.count", metrics, "flop_count"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    dur: float = 0.0  # end - start, or the summed call time of a rolled-up span
    calls: int = 1


class Tracer:
    """Spans and counts of one operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._rolled: dict[tuple[int | None, str], Span] = {}

    def _new(self, name: str, start: float) -> Span:
        span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, start)
        self.spans.append(span)
        return span

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._new(name, perf_counter())
            self._stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.dur = span.end - span.start
                self._stack.pop()

        return wrapper

    def rolled_up(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                key = (self._stack[-1] if self._stack else None, name)
                span = self._rolled.get(key)
                if span is None:
                    span = self._rolled[key] = self._new(name, start)
                    span.calls = 0
                span.end = end
                span.dur += end - start
                span.calls += 1

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the `name` spans minus that of their direct children."""
        ids = {s.id for s in self.spans if s.name == name}
        children = sum(s.dur for s in self.spans if s.parent in ids)
        return self.total(name) - children

    def top_level(self) -> float:
        return sum(s.dur for s in self.spans if s.parent is None)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the pipeline's layer calls through `tracer` until the block exits."""
    saved = []
    try:
        for kinds, wrap in ((TIMED, tracer.timed), (ROLLED_UP, tracer.rolled_up),
                            (COUNTED, tracer.counted)):
            for name, module, attr in kinds:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrap(name, getattr(module, attr)))
        build = toynet.ToyNet.__dict__["build"]
        saved.append((toynet.ToyNet, "build", build))
        toynet.ToyNet.build = classmethod(tracer.timed("toynet.build", build.__func__))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
