"""In-memory spans around the benchmark's calls into each layer, and the ledger.

A span is ``[name, op, parent, start_ns, end_ns]``: the layer's name, the id
of the operation (or preparation step) it belongs to, the index of the
enclosing span (``-1`` for a root), and its interval on :data:`clock_ns`.
Spans stay in memory while the workload runs and are written out at the end,
so the only cost a traced call pays is two clock reads and a list append.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

#: The clock every time of the benchmark is read from: this process's CPU
#: time.  The load is one thread that neither sleeps nor waits on I/O, so on a
#: core of its own its CPU time is its wall time.  On a shared virtual machine
#: the wall clock also runs while the hypervisor serves other tenants (steal
#: time), which comes and goes over minutes and is not the program's doing.
clock_ns = time.process_time_ns

#: Name of the root span of one closed-loop operation.
OP = "op"
#: Name of the root span of one preparation step (per system, per matrix).
PREP = "prep"
#: Ledger row for time inside the timed run that no layer span covers.
OTHER = "other"


class Recorder:
    """Span list plus the stack of currently open spans."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self._op = -1

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; roots start a new op id."""
        parent = self._open[-1] if self._open else -1
        if parent < 0:
            self._op += 1
        idx = len(self.spans)
        span = [name, self._op, parent, 0, 0]
        self.spans.append(span)
        self._open.append(idx)
        span[3] = clock_ns()
        return idx

    def end(self, idx: int, name: str | None = None) -> None:
        """Close span ``idx``; ``name`` relabels it once its outcome is known."""
        t = clock_ns()
        span = self.spans[idx]
        span[4] = t
        if name is not None:
            span[0] = name
        self._open.pop()

    def write_jsonl(self, path: Path) -> None:
        keys = ("name", "op", "parent", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def ledger(spans: List[list], wall_ns: int) -> Dict[str, dict]:
    """Self time, call count and share of ``wall_ns`` for every layer.

    A span's self time is its duration minus the durations of its direct
    children.  Root spans (ops and preparation) are not layers: their self
    time is glue between layer calls and goes to ``other``, as does the part
    of ``wall_ns`` outside every root span (the loop between operations).
    The rows therefore add up to ``wall_ns`` exactly.
    """
    child_ns: Counter = Counter()
    for name, _op, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    root_ns = 0
    for idx, (name, _op, parent, start, end) in enumerate(spans):
        own = end - start - child_ns[idx]
        if parent < 0:
            root_ns += end - start
            self_ns[OTHER] += own
        else:
            self_ns[name] += own
            calls[name] += 1
    self_ns[OTHER] += wall_ns - root_ns
    return {
        name: {
            "self_ns": ns,
            "self_s": ns / 1e9,
            "calls": calls[name],
            "share": ns / wall_ns if wall_ns else 0.0,
        }
        for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])
    }
