"""In-memory span recorder for the traced benchmark run.

A :class:`Tracer` replaces library functions with timing wrappers at every
name a caller looks the function up by (a module attribute bound to the same
function object, or a method on its class).  Each call records one span:
name, start, end, parent span, request id and a few attributes.  Spans stay in
memory until the run ends; :func:`self_times` then charges each span its
duration minus the part covered by its children.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each child clipped to its parent."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [s.duration - _union_length(children.get(i, ())) for i, s in enumerate(spans)]


class Tracer:
    """Records spans for wrapped functions; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, annotate=None):
        """Timing wrapper around ``fn``.  ``annotate(bound_args, result,
        error)`` runs after the span's end time is taken and returns extra
        attributes, so its cost is not charged to the span."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request)
            self.spans.append(span)
            self._stack.append(idx)
            result = error = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = _standard_attrs(bound.arguments)
                if error is not None:
                    span.attrs["error"] = type(error).__name__
                if annotate is not None:
                    span.attrs.update(annotate(bound.arguments, result, error))

        return wrapper

    def install(self, fn, name: str, owners, annotate=None) -> None:
        """Replace ``fn`` by its wrapper at every attribute of ``owners``
        (modules or classes) that is bound to ``fn`` itself."""
        wrapper = self.wrap(fn, name, annotate)
        found = False
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is fn:
                    self._restore.append((owner, attr, value))
                    setattr(owner, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"no binding of {name} found to wrap")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


def _standard_attrs(arguments: dict) -> dict:
    """v, w, family and policy, wherever the call's arguments carry them."""
    attrs = {}
    params = arguments.get("params")
    if params is not None and hasattr(params, "posting"):
        attrs.update(v=params.v, w=params.w, family=params.posting.kind)
    for key in ("v", "w"):
        if isinstance(arguments.get(key), int):
            attrs[key] = arguments[key]
    posting = arguments.get("posting", arguments.get("self"))
    if hasattr(posting, "kind"):
        attrs["family"] = posting.kind
    config = arguments.get("config")
    if hasattr(config, "policy"):
        attrs["policy"] = config.policy
    return attrs
