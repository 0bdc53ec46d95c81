"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: `instrument` replaces each
public dtameta function named in a target list with a wrapper that opens a
span around the call, in every dtameta module namespace that holds it, so
calls between modules are seen too. Calls that stay inside a module through
private helpers are not seen; their time is the caller's self time.

A span is a tuple (name, parent, start_ns, end_ns, phase, op_kind); parent is
the index of the enclosing span or -1. Nothing is aggregated while the run
is timed; `self_times` and `summarize` work on the finished list.
"""

from __future__ import annotations

import collections
import contextlib
import time
import warnings
from typing import Callable, Iterable, Sequence

NAME, PARENT, START, END, PHASE, KIND = range(6)


class Tracer:
    """Records spans column by column: one list per field, so a run with
    100k spans adds no objects for the garbage collector to scan."""

    def __init__(self) -> None:
        self.columns: tuple[list, ...] = ([], [], [], [], [], [])
        self.counters: collections.Counter = collections.Counter()
        self.phase = ""
        self.op_kind = ""
        self._stack: list[int] = []

    @property
    def spans(self) -> list[tuple]:
        return list(zip(*self.columns))

    def begin(self, name: str) -> int:
        cols = self.columns
        idx = len(cols[NAME])
        cols[NAME].append(name)
        cols[PARENT].append(self._stack[-1] if self._stack else -1)
        cols[END].append(0)
        cols[PHASE].append(self.phase)
        cols[KIND].append(self.op_kind)
        self._stack.append(idx)
        cols[START].append(time.perf_counter_ns())
        return idx

    def end(self, idx: int) -> None:
        self.columns[END][idx] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (innermost open span is {popped})")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(
        self,
        name: str,
        fn: Callable,
        suffix: Callable[..., str] | None = None,
        count_warnings: bool = False,
        observe: Callable | None = None,
    ) -> Callable:
        """Return fn wrapped in a span.

        suffix(*args, **kwargs) extends the span name (used to bucket b_star
        by n). count_warnings records every warning the call emits under
        `warning.<span name>.<category>` and re-emits it, so the caller's own
        warning handling sees exactly what it would have seen untraced.
        observe(tracer, args, kwargs, result) adds counters from a result.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            label = name + suffix(*args, **kwargs) if suffix is not None else name
            idx = tracer.begin(label)
            try:
                if not count_warnings:
                    result = fn(*args, **kwargs)
                else:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        try:
                            result = fn(*args, **kwargs)
                        finally:
                            for w in caught:
                                tracer.counters[f"warning.{name}.{w.category.__name__}"] += 1
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            finally:
                tracer.end(idx)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def instrument(
    tracer: Tracer,
    modules: Sequence,
    targets: Iterable[tuple[object, str, str, dict]],
) -> Callable[[], None]:
    """Wrap each target and return a function that restores the originals.

    A target is (owner, attribute, span name, wrap options). The wrapper
    replaces the attribute on its owner and every binding of the same object
    in `modules`, which covers `from .x import f` imports.
    """
    undo: list[tuple[object, str, object]] = []
    for owner, attr, span_name, opts in targets:
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, orig, **opts)
        holders = [owner] + [m for m in modules if m is not owner]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is orig:
                    undo.append((holder, key, orig))
                    setattr(holder, key, wrapped)

    def restore() -> None:
        for holder, key, orig in reversed(undo):
            setattr(holder, key, orig)

    return restore


def self_times(spans: Sequence[Sequence]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns."""
    child = [0] * len(spans)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[END] - sp[START]
    return [sp[END] - sp[START] - child[i] for i, sp in enumerate(spans)]


def base_name(label: str) -> str:
    """Span name without its bucket suffix ("regions.b_star@n<=16" -> "regions.b_star")."""
    return label.split("@", 1)[0]


def summarize(spans: Sequence[Sequence], keep: Sequence[bool] | None = None):
    """Per-name totals over the spans whose keep flag is set (all by default):
    {name: (calls, total_ns, self_ns)}. Self time is taken over all spans."""
    selfs = self_times(spans)
    out: dict[str, list[int]] = {}
    for i, (sp, self_ns) in enumerate(zip(spans, selfs)):
        if keep is not None and not keep[i]:
            continue
        row = out.setdefault(sp[NAME], [0, 0, 0])
        row[0] += 1
        row[1] += sp[END] - sp[START]
        row[2] += self_ns
    return {k: tuple(v) for k, v in out.items()}
