"""In-memory span tracing of the program's layers, from the outside.

The benchmark never edits the program.  A :class:`Tracer` replaces a
public function at the module (or class) binding its caller actually
uses — ``repro.phase2.fk_assignment.build_conflict_graph``, say — with
a wrapper that records a span around the call, and puts every original
back on :meth:`Tracer.uninstall`.  Spans carry a name, start, end, the
enclosing span, the op id, the pid and the thread; they stay in memory
and are written out once, when the run ends.

Forked pool workers inherit the installed wrappers.  A worker keeps its
own spans and appends them to ``spans-<pid>.jsonl`` in the tracer's
directory each time one of its root spans closes (a pool worker exits
without running ``atexit`` hooks); :meth:`Tracer.spans` merges those
files with the parent's spans.  ``time.perf_counter`` reads the system
monotonic clock, so parent and worker timestamps share one timeline.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: ``(args, kwargs) -> attrs`` computed before the call.
BeforeHook = Callable[[tuple, dict], Dict[str, object]]
#: ``(args, kwargs, result, attrs) -> None`` adds attrs after the call.
AfterHook = Callable[[tuple, dict, object, Dict[str, object]], None]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    span_id: int = 0
    parent_id: Optional[int] = None
    op: Optional[int] = None
    pid: int = 0
    tid: int = 0
    #: The FK column of the edge solve this span belongs to, if any.
    edge: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        #: The op id stamped on new spans; the benchmark's loop sets it.
        self.op: Optional[int] = None
        self._pid = self.main_pid
        self._spans: List[Span] = []
        self._stacks: Dict[int, List[Span]] = defaultdict(list)
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._removed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _after_fork(self) -> None:
        """A forked worker starts with no spans of its own."""
        self._pid = os.getpid()
        self._spans = []
        self._stacks = defaultdict(list)
        self._lock = threading.Lock()
        self._next_id = self._pid << 32

    def open(self, name: str, edge: Optional[str] = None) -> Span:
        if os.getpid() != self._pid:
            self._after_fork()
        tid = threading.get_ident()
        stack = self._stacks[tid]
        parent = stack[-1] if stack else None
        if edge is None and parent is not None:
            edge = parent.edge
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = Span(
            name=name,
            start=time.perf_counter(),
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            op=self.op,
            pid=self._pid,
            tid=tid,
            edge=edge,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stacks[span.tid]
        stack.pop()
        with self._lock:
            self._spans.append(span)
        if not stack and self._pid != self.main_pid:
            self._flush_worker()

    def _flush_worker(self) -> None:
        with self._lock:
            spans, self._spans = self._spans, []
        path = self.directory / f"spans-{self._pid}.jsonl"
        with path.open("a") as handle:
            for span in spans:
                handle.write(json.dumps(asdict(span)) + "\n")

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event (an empty span) carrying ``attrs``."""
        span = self.open(name)
        span.attrs.update(attrs)
        self.close(span)

    # -- wrapping ------------------------------------------------------

    def wrapper(
        self,
        fn: Callable,
        name: str,
        before: Optional[BeforeHook] = None,
        after: Optional[AfterHook] = None,
        edge_of: Optional[Callable[[tuple, dict], Optional[str]]] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` around every call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            edge = edge_of(args, kwargs) if edge_of else None
            span = tracer.open(name, edge)
            try:
                if before is not None:
                    span.attrs.update(before(args, kwargs))
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result, span.attrs)
                return result
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span)

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        make: Callable[[Callable], Callable],
    ) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until uninstall.

        ``owner`` is a module or a class; static and class methods keep
        their descriptor kind.
        """
        raw = _binding(owner, attr)
        if isinstance(raw, staticmethod):
            replacement: object = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Patch ``owner.attr`` with a :meth:`wrapper` named ``name``."""
        self.patch(owner, attr, lambda fn: self.wrapper(fn, name, **hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
            self._removed.append((owner, attr, raw))

    def leftover_wrappers(self) -> List[str]:
        """Bindings that lost their original object after uninstall."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, raw in self._removed
            if _binding(owner, attr) is not raw
        ]

    # -- reading -------------------------------------------------------

    def spans(self) -> List[Span]:
        """Every span: the parent's, then each worker file's."""
        with self._lock:
            out = list(self._spans)
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                out.append(Span(**json.loads(line)))
        return out


def _binding(owner: object, attr: str) -> object:
    """The object bound at ``owner.attr``, descriptors unresolved."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``span_id → duration − time covered by its direct children``.

    Children run inside their parent on the same thread, one after
    another, so the covered time is the sum of their durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration
    return {
        span.span_id: max(0.0, span.duration - covered[span.span_id])
        for span in spans
    }


def chrome_trace(
    spans: List[Span], origin: float, main_pid: int
) -> Dict[str, object]:
    """The spans as Chrome trace-event JSON, one timeline per process."""
    events: List[Dict[str, object]] = []
    for pid in sorted({span.pid for span in spans}):
        label = "benchmark" if pid == main_pid else f"pool worker {pid}"
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": label},
            }
        )
    for span in sorted(spans, key=lambda s: (s.pid, s.start)):
        args: Dict[str, object] = {"op": span.op, "span": span.span_id}
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        if span.edge is not None:
            args["edge"] = span.edge
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "ph": "X",
                "ts": round((span.start - origin) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
