"""Machine-speed reference for the end-to-end timings.

The shared boxes this benchmark runs on change speed by up to 2x over
minutes, with the same code and the same work (see README "Stability"),
so raw seconds from two runs minutes apart differ more than any bound a
regression check could use.  A run therefore also times a fixed reference
job again and again between its ops: a pure-Python count of partitions
that imports nothing from burnside, so no change to the package can move
it.  Every op's time is scaled by REFERENCE_S / (the reference's local
time), which gives the seconds it would take on a box where the reference
takes REFERENCE_S.

The reference runs the way the ops run, because each kind of op tracks
the box's speed best through a reference of its own kind:

- "process": a fresh Python process, as a CLI op is; interpreter start,
  imports and page faults slow down with the rest of the box.
- "inline": a call in the long-lived process that answers the queries, as
  a library-session query is.

Measured on a shared 2-core box, scaling by a reference of the other kind
removed far less of the drift than scaling by one of the same kind.

`local(refs, k)` is the median of the reference timings nearest the gap
before refs[k], WINDOW on each side, so that one unlucky reference timing
does not decide an op, while a drift over seconds to minutes is followed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

COUNT_CODE = """\
def count(n, largest, parts, counts):
    if n == 0:
        counts[parts] = counts.get(parts, 0) + 1
        return
    for first in range(min(n, largest), 0, -1):
        count(n - first, first, parts + 1, counts)
"""
# partitions of 36 in a fresh process: about 0.12 s, two thirds of it start-up
PROCESS_CODE = COUNT_CODE + """\
counts = {}
count(36, 36, 0, counts)
assert sum(counts.values()) == 17977, counts
"""
INLINE_N = 31  # partitions of 31 in the calling process: about 0.011 s
REFERENCE_S = {"process": 0.12, "inline": 0.011}
WINDOW = 2  # reference timings on each side of an op that set its speed
TIMEOUT_S = 30.0

_namespace: dict = {}
exec(COUNT_CODE, _namespace)
_count = _namespace["count"]


def reference(kind: str = "process") -> float:
    """Wall time of one run of the reference job of the given kind."""
    start = time.perf_counter()
    if kind == "inline":
        counts: dict = {}
        _count(INLINE_N, INLINE_N, 0, counts)
    else:
        # with pipes, run() waits in select() until the child exits; without
        # them a timeout makes it poll waitpid() with sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", PROCESS_CODE], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=TIMEOUT_S)
    return time.perf_counter() - start


def local(refs: list, k: int) -> float:
    """Reference time around the gap before refs[k]: the median of up to
    WINDOW timings on each side of it."""
    return statistics.median(refs[max(0, k - WINDOW): k + WINDOW])


def scale(refs: list, k: int, kind: str = "process") -> float:
    """Factor that turns seconds spent in the gap before refs[k] into
    reference seconds."""
    return REFERENCE_S[kind] / local(refs, k)
