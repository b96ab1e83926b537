"""Outside-in tracing: wrap the public functions of each layer at run time.

Nothing under ``src/`` knows it is traced.  :class:`Tracer` replaces a
function or method with a wrapper that times the call on a per-thread
stack of open frames, so each call's *self time* is its duration minus
the time its traced children took.  Two kinds of layer:

* span layers record one span per call — name, start, end, parent span
  and the root span of the request it belongs to — kept in memory and
  written out when the benchmark ends;
* hot layers (leaves called thousands of times per request) record no
  span; their calls and times are aggregated per layer and charged to
  the enclosing frame as covered time.

:func:`self_times` recomputes span self times from the exported tree
(duration minus the union of child intervals minus hot-leaf time); the
benchmark checks it against the inline figures.

``slowdown`` makes a layer's wrapper spin after each call for
``factor - 1`` times the call's self time: the 2x-slowdown self-test
uses it to check that a workload's wall time moves by that layer's
traced share.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class _Frame:
    name: str
    start: float
    span_id: int
    root_id: int
    child_s: float = 0.0
    hot_s: float = 0.0


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    """Wraps layer entry points; collects spans and per-layer statistics."""

    def __init__(self, slowdown: dict[str, float] | None = None) -> None:
        self.spans: list[tuple] = []
        self.layers: dict[str, LayerStats] = {}
        self.slowdown = dict(slowdown or {})
        self._local = threading.local()
        # Reentrant: a reference sample taken from a signal handler may
        # charge time while the interrupted frame holds the lock.
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: Time covered by outermost frames (any thread): the traced part
        #: of a window; the rest is unattributed.
        self.root_s = 0.0

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, name: str, span: bool) -> _Frame:
        stack = self._stack()
        span_id = next(self._ids) if span else 0
        root = stack[0].root_id if stack else span_id
        frame = _Frame(name, time.perf_counter(), span_id, root)
        stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, count: bool = True, note=None) -> None:
        factor = self.slowdown.get(frame.name)
        if factor:
            spin_until = time.perf_counter() + (factor - 1.0) * (
                time.perf_counter() - frame.start - frame.child_s
            )
            while time.perf_counter() < spin_until:
                pass
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            parent = stack[-1]
            parent.child_s += duration
            if not frame.span_id:
                parent.hot_s += duration
        with self._lock:
            if not stack:
                self.root_s += duration
            stats = self.layers.get(frame.name)
            if stats is None:
                stats = self.layers[frame.name] = LayerStats()
            stats.calls += count
            stats.self_s += duration - frame.child_s
            stats.total_s += duration
            if note is not None:
                stats.extra[note] = stats.extra.get(note, 0) + 1
            if frame.span_id:
                parent_id = stack[-1].span_id if stack else 0
                self.spans.append(
                    (
                        frame.span_id,
                        parent_id,
                        frame.root_id,
                        frame.name,
                        frame.start,
                        end,
                        frame.hot_s,
                    )
                )

    def charge(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` spent in the current thread to a hot pseudo-layer.

        The host reference calls this for samples it takes inside a
        traced window, so the interrupted layer's self time excludes them.
        """
        stack = self._stack()
        if stack:
            stack[-1].child_s += seconds
            stack[-1].hot_s += seconds
        with self._lock:
            stats = self.layers.setdefault(name, LayerStats())
            stats.calls += 1
            stats.self_s += seconds
            stats.total_s += seconds

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, hot: bool = False, classify=None):
        """A wrapper timing ``fn`` as layer ``name``.

        ``classify(result)`` names an outcome counter (for example
        ``"success"``) added to the layer's ``extra`` counts.
        """
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._push(name, span=not hot)
            note = None
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    note = classify(result)
                return result
            finally:
                tracer._pop(frame, note=note)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def wrap_coroutine(self, name: str, fn):
        """A wrapper for an ``async def``: times only the coroutine's steps.

        Time the coroutine spends suspended (awaiting I/O or another
        task) is not its own, so each step between two suspensions is a
        frame of its own and the layer's self time is the sum of steps.
        """
        tracer = self

        async def traced(*args, **kwargs):
            return await _Stepped(tracer, name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, hot=False, classify=None, coro=False):
        """Replace ``owner.attr`` (and every ``repro`` module global bound to it)."""
        original = getattr(owner, attr)
        if coro:
            wrapper = self.wrap_coroutine(name, original)
        else:
            wrapper = self.wrap(name, original, hot=hot, classify=classify)
        self.replace(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # Module functions are also bound by ``from module import name``
        # in their callers; rebind those globals too.
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, key, wrapper)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`unpatch`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, tuple[int, float, float, dict]]:
        with self._lock:
            return {
                name: (s.calls, s.self_s, s.total_s, dict(s.extra))
                for name, s in self.layers.items()
            }


class _Stepped:
    """Awaitable driving a coroutine one timed step at a time."""

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self._tracer, self._name, self._coro = tracer, name, coro

    def __await__(self):
        steps = self._coro.__await__()
        value, error, first = None, None, True
        while True:
            frame = self._tracer._push(self._name, span=False)
            try:
                if error is not None:
                    yielded = steps.throw(error)
                else:
                    yielded = steps.send(value)
            except StopIteration as stop:
                self._tracer._pop(frame, count=first)
                return stop.value
            except BaseException:
                self._tracer._pop(frame, count=first)
                raise
            self._tracer._pop(frame, count=first)
            first = False
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # delivered into the coroutine
                value, error = None, exc


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    ``spans`` are ``(id, parent_id, root_id, name, start, end, hot_s)``
    tuples.  Child intervals are merged before subtracting, so
    overlapping children (threads) are not counted twice, and hot-leaf
    time aggregated into the span (``hot_s``) is subtracted as well.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    result = {}
    for span in spans:
        span_id, start, end, hot = span[0], span[4], span[5], span[6]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered - hot
    return result
