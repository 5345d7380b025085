"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``[name, start, end, parent, case]``: ``name`` is
``<layer>.<fn>`` (or ``case`` for the root span of one case), times are
``time.process_time`` seconds like every time the benchmark takes,
``parent`` is the index of the enclosing span (-1 for a root) and ``case``
the index of the case the span belongs to.  Spans stay in memory until
``write`` is called at the end of the run.

With tracing off, ``call`` is a plain call, so the untraced run pays one
extra Python frame per layer call and nothing else.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Tuple


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._case = -1

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def begin_case(self, case: int) -> None:
        self._case = case
        if self.enabled:
            self._open("case")

    def end_case(self) -> None:
        while self._stack:
            self._close()

    def _open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent, self._case])
        self._stack.append(len(self.spans) - 1)

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.process_time()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")


def self_times(spans) -> Dict[str, Tuple[float, int]]:
    """Per span name: (total self time in seconds, number of spans).

    Self time is a span's duration minus the part of it covered by its
    direct children; the run is single-threaded, so children never overlap.
    A span left open by an interrupted case counts as zero length.
    """
    spans = [[n, s, s if e is None else e, p, c] for n, s, e, p, c in spans]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        acc = out.setdefault(name, [0.0, 0])
        acc[0] += (end - start) - child_time[i]
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}
