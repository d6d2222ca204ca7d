"""In-memory span recording around calls into the program's modules.

A span is one call through a wrapped module attribute: its name, start and
end (``time.perf_counter`` seconds), the index of the enclosing span, the op
it belongs to, and an optional work count taken from the call's result.
Spans stay in memory until the run ends; ``self_times`` then subtracts from
each span the part of its interval that its children cover.

Only the benchmark's traced process creates a ``Tracer``; ``restore`` puts
every wrapped attribute back.
"""
from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# span record layout
NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op_id = -1
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span; used for the benchmark's own op spans."""
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def wrap(
        self,
        module: Any,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, Any], int]] = None,
        wrap_result: Optional[Callable[["Tracer", Any], Any]] = None,
    ) -> None:
        """Replace ``module.attr`` with a version that records a span per call.

        ``count(args, result)`` gives the span's work count; ``wrap_result``
        may wrap a returned callable so that its calls are traced too.
        """
        orig = getattr(module, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count is not None:
                tracer.spans[idx][COUNT] = count(args, out)
            if wrap_result is not None:
                out = wrap_result(tracer, out)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span: duration minus the part of its interval its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        kids = children.get(i)
        cov = covered(kids, s[START], s[END]) if kids else 0.0
        out.append(s[END] - s[START] - cov)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def write_spans(path, spans: Sequence[list], selfs: Sequence[float]) -> None:
    """One CSV line per span, times in microseconds from the first span."""
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,name,start_us,end_us,parent,op,count,self_us\n")
        for i, (s, st) in enumerate(zip(spans, selfs)):
            cnt = "" if s[COUNT] is None else s[COUNT]
            fh.write(
                f"{i},{s[NAME]},{(s[START] - t0) * 1e6:.1f},{(s[END] - t0) * 1e6:.1f},"
                f"{s[PARENT]},{s[OP]},{cnt},{st * 1e6:.1f}\n"
            )
