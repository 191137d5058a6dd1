"""Span tracing of the program's layers, installed from outside ``src/``.

:class:`Tracer` replaces public entry points of the layer modules with
timing wrappers (and puts the originals back on :meth:`Tracer.remove`).
Two kinds of wrapper exist:

* a **span** wraps a coarse boundary (a parse, a plan, a mechanism run,
  a commit, a wire request).  Each span keeps its name, start, end,
  parent span and op id; spans stay in memory until :meth:`Tracer.dump`
  writes them out.
* a **leaf timer** wraps a hot, fine-grained call (record decode, B-tree
  lookup, Pagelog read).  Recording one span per call would cost more
  than the call itself, so leaf calls are summed per name (calls and
  nanoseconds) and their time is charged to the enclosing span as child
  time.  Functions returning iterators are timed inside each ``next``.

A span's self time is its duration minus the time its child spans and
outermost leaf calls cover.  Nested leaf calls (a Pagelog read inside a
B-tree scan) count toward their own totals but are subtracted from the
enclosing span only once.  Times are per thread and include waits for
the interpreter lock, so on threaded workloads the per-layer totals can
add up to more than the wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

_now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread",
                 "child_ns")

    def __init__(self, span_id: int, name: str, start: int,
                 parent: Optional[int], op: Optional[int],
                 thread: str) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return max(self.duration_ns - self.child_ns, 0)

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "op": self.op,
                "thread": self.thread, "self_ns": self.self_ns}


class _ThreadState(threading.local):
    """Per-thread span stack and leaf totals (no lock on the hot path)."""

    def __init__(self, registry: list) -> None:
        self.stack: List[Span] = []
        self.leaf_depth = 0
        self.op: Optional[int] = None
        #: set while the benchmark checks an answer: wrappers call through
        self.paused = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.ns: Dict[str, int] = defaultdict(int)
        # The dicts, not this object: a thread-local's attributes vanish
        # when its thread ends, and other threads see their own.
        registry.append({"calls": self.calls, "ns": self.ns})


class Tracer:
    """Wraps layer entry points; collects spans, leaf totals and counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._threads: List[Dict[str, Dict[str, int]]] = []
        self._state = _ThreadState(self._threads)
        self._latch = threading.Lock()
        #: free-form counters fed by on_result hooks (entries scanned, ...)
        self.counts: Dict[str, float] = defaultdict(float)
        self._patches: List[tuple] = []

    # -- op context ---------------------------------------------------------

    def set_op(self, op: Optional[int]) -> None:
        """Tag spans opened on this thread with ``op`` from now on."""
        self._state.op = op

    @property
    def op(self) -> Optional[int]:
        return self._state.op

    def pause(self, paused: bool) -> bool:
        """Stop (or resume) recording on this thread; returns the old
        setting.  Answer checks run paused so they stay out of the
        per-layer figures."""
        state = self._state
        previous, state.paused = state.paused, paused
        return previous

    def add(self, name: str, value: float) -> None:
        with self._latch:
            self.counts[name] += value

    # -- span and leaf bookkeeping -------------------------------------------

    def open(self, name: str) -> Span:
        state = self._state
        parent = state.stack[-1].id if state.stack else None
        span = Span(next(self._ids), name, _now(), parent, state.op,
                    threading.current_thread().name)
        state.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _now()
        state = self._state
        state.stack.pop()
        # Inside a leaf call the leaf's own time already covers this span.
        if state.stack and state.leaf_depth == 0:
            state.stack[-1].child_ns += span.duration_ns
        self.spans.append(span)

    def _leaf_done(self, state: _ThreadState, name: str, depth: int,
                   elapsed: int, calls: int) -> None:
        state.leaf_depth = depth
        state.calls[name] += calls
        state.ns[name] += elapsed
        # Only the outermost leaf is charged to the enclosing span.
        if depth == 0 and state.stack:
            state.stack[-1].child_ns += elapsed

    # -- wrapper factories ----------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable,
                     on_result: Optional[Callable] = None,
                     on_enter: Optional[Callable] = None) -> Callable:
        tracer = self

        state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if state.paused:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(args, result)
            return result
        return traced

    def leaf_wrapper(self, name: str, fn: Callable,
                     on_result: Optional[Callable] = None) -> Callable:
        tracer = self
        state = self._state

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if state.paused:
                return fn(*args, **kwargs)
            depth = state.leaf_depth
            state.leaf_depth = depth + 1
            started = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leaf_done(state, name, depth, _now() - started, 1)
            if on_result is not None:
                on_result(args, result)
            return result
        return timed

    def iter_wrapper(self, name: str, fn: Callable,
                     pick: Callable[[Any], Any] = lambda r: r,
                     rebuild: Callable[[Any, Iterator], Any] = (
                         lambda r, it: it)) -> Callable:
        """Leaf timer for a call returning an iterator (or a value that
        holds one: ``pick`` extracts it, ``rebuild`` puts the timed
        iterator back).  The call and every ``next`` are timed."""
        tracer = self
        state = self._state

        def timed_next(inner: Iterator) -> Iterator:
            try:
                while True:
                    depth = state.leaf_depth
                    state.leaf_depth = depth + 1
                    started = _now()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._leaf_done(state, name, depth,
                                          _now() - started, 0)
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if state.paused:
                return fn(*args, **kwargs)
            depth = state.leaf_depth
            state.leaf_depth = depth + 1
            started = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leaf_done(state, name, depth, _now() - started, 1)
            return rebuild(result, timed_next(iter(pick(result))))
        return timed

    # -- installation ------------------------------------------------------------

    def patch_method(self, owner: type, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def patch_function(self, module: Any, attr: str,
                       wrapper: Callable) -> None:
        """Replace a module-level function everywhere it was imported by
        name, so ``from x import f`` call sites see the wrapper too."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def remove(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries over what was recorded ---------------------------------------

    @property
    def leaf_calls(self) -> Dict[str, int]:
        return self._merged("calls")

    @property
    def leaf_ns(self) -> Dict[str, int]:
        return self._merged("ns")

    def _merged(self, attr: str) -> Dict[str, int]:
        total: Dict[str, int] = defaultdict(int)
        for totals in list(self._threads):
            for name, value in list(totals[attr].items()):
                total[name] += value
        return total

    def spans_named(self, *names: str) -> List[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def outermost_ms(self, *names: str) -> float:
        """Summed duration of the named spans, skipping any whose parent
        is itself one of the named spans (nested re-entry)."""
        wanted = set(names)
        by_id = {s.id: s for s in self.spans}
        total = 0
        for span in self.spans:
            if span.name not in wanted:
                continue
            parent = by_id.get(span.parent)
            if parent is not None and parent.name in wanted:
                continue
            total += span.duration_ns
        return total / 1e6

    def self_ms(self, *names: str) -> float:
        return sum(s.self_ns for s in self.spans_named(*names)) / 1e6

    def leaf_ms(self, name: str) -> float:
        return self.leaf_ns.get(name, 0) / 1e6

    def dump(self, path: str) -> int:
        """Write every span as one JSON line; returns the count."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")
            out.write(json.dumps({
                "leaf_calls": dict(self.leaf_calls),
                "leaf_ns": dict(self.leaf_ns),
                "counts": dict(self.counts),
            }) + "\n")
        return len(self.spans)
