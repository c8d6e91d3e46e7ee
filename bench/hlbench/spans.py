"""Spans recorded around the benchmark's calls into each layer.

A traced run wraps every public call the workloads make.  Each span is
(name, start, end, parent, op id, ok); a call's parent is the op span
that made it.  Spans stay in memory, in flat arrays, and are written out
once when the run ends.  An untraced run uses the package functions
directly, so it pays nothing for this module.
"""

from __future__ import annotations

import statistics
import time
from array import array

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.ok = array("b")
        self._current = NO_PARENT
        self._current_op = NO_PARENT

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _append(self, name_id, start, end, ok) -> int:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._current)
        self.op.append(self._current_op)
        self.ok.append(ok)
        return len(self.name) - 1

    def begin_op(self, name: str, op_id: int) -> int:
        """Open the op span; calls until `end_op` become its children."""
        self._current_op = op_id
        span = self._append(self._name_id(name), time.perf_counter(), 0.0, 1)
        self._current = span
        return span

    def end_op(self, span: int, ok: bool) -> None:
        self.end[span] = time.perf_counter()
        self.ok[span] = ok
        self._current = NO_PARENT
        self._current_op = NO_PARENT

    def wrap(self, name: str, fn):
        """`fn` with a span recorded around every call."""
        name_id = self._name_id(name)
        clock = time.perf_counter

        def traced(*args):
            start = clock()
            ok = 0
            try:
                result = fn(*args)
                ok = 1
                return result
            finally:
                self._append(name_id, start, clock(), ok)

        return traced

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                own[parent] -= self.end[i] - self.start[i]
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, busy seconds (self time), median ms, failures."""
        own = self.self_times()
        groups: dict[int, list[int]] = {}
        for i, name_id in enumerate(self.name):
            groups.setdefault(name_id, []).append(i)
        out = {}
        for name_id, spans in groups.items():
            out[self.names[name_id]] = {
                "calls": len(spans),
                "busy_s": sum(own[i] for i in spans),
                "p50_ms": 1000 * statistics.median(self.end[i] - self.start[i] for i in spans),
                "fail": sum(1 for i in spans if not self.ok[i]),
                "total_s": sum(self.end[i] - self.start[i] for i in spans),
            }
        return out

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op,ok\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.op[i]},{self.ok[i]}\n"
                )
