"""Timing hooks installed from outside the package.

Both hooks replace a function at the module attribute its caller looks it
up through (``migfilter.calibrate.forward_pass`` as called by ``em_fit``,
``migfilter.cli.run_filter`` as called by the ``filter`` command, ...) and
put the original back on exit, so the package itself is never edited.

* :class:`StageClock` sums wall time per pipeline stage, rescaled to a
  reference machine speed.  Traced and untraced passes both use it; on a
  handful of calls per pass it splits an entry point such as
  ``rolling_backtest`` into its fit, filter and scoring stages.
* :class:`SpanRecorder` is the traced run: one span per call of every
  listed public function, with its parent, kept in memory and written out at
  the end; self times are span durations minus the time of child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

perf = time.perf_counter


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace ``getattr(owner, attr)`` by ``make_wrapper(name, original)``
    for every ``(owner, attr, name)`` in ``targets``; restore on exit."""
    saved = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class StageClock:
    """Wall time per named stage, optionally rescaled to a reference
    machine speed by a :class:`speed.SpeedSampler` that runs meanwhile.

    Each timed interval leaves out the time the sampler spent inside it.
    """

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.intervals: list[tuple[str, float, float, float]] = []  # stage, start, end, spent

    def _spent(self) -> float:
        return self.sampler.spent if self.sampler else 0.0

    @contextlib.contextmanager
    def stage(self, name: str):
        start, spent = perf(), self._spent()
        try:
            yield
        finally:
            self.intervals.append((name, start, perf(), self._spent() - spent))

    def wrapping(self, targets):
        """Charge every call of the target functions to their stage."""

        def make(stage, original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                with self.stage(stage):
                    return original(*args, **kwargs)

            return timed

        return patched(targets, make)

    def seconds(self, scaled: bool = True) -> dict[str, float]:
        """Seconds per stage, rescaled when ``scaled`` and a sampler ran."""
        out: dict[str, float] = {}
        for stage, start, end, spent in self.intervals:
            wall = end - start - spent
            if scaled and self.sampler:
                wall *= self.sampler.factor(start, end)
            out[stage] = out.get(stage, 0.0) + wall
        return out


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class SpanRecorder:
    """In-memory spans plus call counters for one traced pass."""

    spans: list[Span] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    kept: dict[str, list] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(
            Span(name, perf(), parent=self._stack[-1] if self._stack else -1)
        )
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = perf()

    def tracing(self, span_targets, count_targets=(), keep=()):
        """Record a span around each call of ``span_targets`` and count the
        calls of ``count_targets`` (cheap enough for per-step functions).
        For span names in ``keep``, the first argument and the result of
        each call are kept, so counts can be read from them."""

        def make_span(name, original):
            kept = self.kept.setdefault(name, []) if name in keep else None

            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name):
                    result = original(*args, **kwargs)
                if kept is not None:
                    kept.append((args[0] if args else None, result))
                return result

            return traced

        def make_count(name, original):
            @functools.wraps(original)
            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return original(*args, **kwargs)

            return counted

        stack = contextlib.ExitStack()
        stack.enter_context(patched(span_targets, make_span))
        stack.enter_context(patched(count_targets, make_count))
        return stack

    def self_ms(self) -> dict[str, float]:
        """Self time per span name in milliseconds: each span's duration
        minus the durations of its direct children (children are nested
        and sequential, so their durations are the time they cover)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + 1e3 * (s.end - s.start - covered)
        return out

    def total_ms(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + 1e3 * (s.end - s.start)
        return out


def write_spans(path, meta: dict, recorders) -> None:
    """Write the spans of traced passes as JSON: per pass, the call counts
    and ``[name, start, end, parent index]`` for every span."""
    doc = {
        **meta,
        "passes": [
            {"calls": r.calls, "spans": [[s.name, s.start, s.end, s.parent] for s in r.spans]}
            for r in recorders
        ],
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)
