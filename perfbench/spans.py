"""In-memory spans for the traced run, and self times derived from them.

A span is ``(id, name, op, parent, start, end)``.  Spans are kept in a
list while the run executes and written out once, at the end.  A span's
self time is its duration minus the durations of its child spans.

Some layers run inside a call the benchmark cannot open from outside
(the matcher inside ``ig_match_sweep``, the edge-state patch inside
``warm_partition``).  The benchmark times those by replaying the same
public calls on the same inputs right after the outer call, and records
the replayed spans as children of the outer span, so the outer span's
self time is what remains once its inner layers are taken out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, str, str, Optional[int], float, float]


class Tracer:
    """Span recorder; ``span`` nests under the innermost open span
    unless a ``parent`` id is given."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        #: ``counts[op][name]`` — per-op counters recorded with the spans.
        self.counts: Dict[str, Dict[str, float]] = defaultdict(dict)

    @contextmanager
    def span(
        self, name: str, op: str, parent: Optional[int] = None
    ) -> Iterator[int]:
        sid = len(self.spans)
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append((sid, name, op, parent, time.perf_counter(), 0.0))
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            s = self.spans[sid]
            self.spans[sid] = (s[0], s[1], s[2], s[3], s[4], time.perf_counter())

    def add(
        self, name: str, op: str, parent: Optional[int], start: float, end: float
    ) -> None:
        """Record an already-timed span (hot loops time with bare
        ``perf_counter`` calls instead of a context manager)."""
        self.spans.append((len(self.spans), name, op, parent, start, end))

    def count(self, op: str, name: str, value: float) -> None:
        self.counts[op][name] = self.counts[op].get(name, 0) + value

    def per_op_times(self) -> Dict[str, Dict[str, Tuple[float, float]]]:
        """``{op: {name: (total_s, self_s)}}`` summed over each op's spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, Tuple[float, float]]] = defaultdict(dict)
        for sid, name, op, _, start, end in self.spans:
            total, own = out[op].get(name, (0.0, 0.0))
            duration = end - start
            out[op][name] = (total + duration, own + duration - child_time[sid])
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, op, parent, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": sid, "name": name, "op": op, "parent": parent,
                     "start": start, "end": end}
                ) + "\n")
