"""A thread-aware span recorder on the program's stage-hook API.

``repro.core.stages.add_stage_hook`` calls a hook with ``(event, name)``
at every stage boundary: filter stages, ``tune/<CODE>`` around a tuning
pass, and the serving writer's ``wal/*`` and ``serving/*`` boundaries,
which fire on the writer thread.  The recorder keeps one span stack per
thread and one lock around the shared span list, keeps everything in
memory, and writes JSON lines only when asked at the end.  The
benchmark's own spans around public calls go through :meth:`span`.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: List[Span] = []
        #: Boundaries that only ever fire "enter" (``wal/append#<seq>``,
        #: the chaos suite's injection point) are counted, not spanned.
        self.points: Dict[str, int] = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def __call__(self, event: str, name: str) -> None:
        if "#" in name:
            with self._lock:
                self.points[name.split("#", 1)[0]] += 1
            return
        if event == "enter":
            self.enter(name)
        else:
            self.exit(name)

    def enter(self, name: str) -> None:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name, time.perf_counter(), parent))

    def exit(self, name: str) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if not any(entry[1] == name for entry in stack):
            return  # an exit whose enter was never seen
        thread = threading.get_ident()
        while stack:
            span_id, span_name, start, parent = stack.pop()
            span = Span(span_id, span_name, start, end, parent, thread)
            with self._lock:
                self.spans.append(span)
            if span_name == name:
                return

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit(name)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(span._asdict()) + "\n")


class SpanIndex:
    """Lookups over a finished recording: children, ancestry, self time."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.by_id = {span.id: span for span in spans}
        self.child_seconds: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                self.child_seconds[span.parent] += span.seconds

    def self_seconds(self, span: Span) -> float:
        """Duration minus the part its child spans cover."""
        return span.seconds - self.child_seconds.get(span.id, 0.0)

    def ancestors(self, span: Span):
        parent = span.parent
        while parent is not None:
            node = self.by_id.get(parent)
            if node is None:
                return
            yield node
            parent = node.parent

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))
