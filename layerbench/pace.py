"""A fixed reference job, timed beside the program, to scale its timings.

On a shared host the speed of a core changes by 20-50% from one moment to
the next and drifts over minutes, for a pure-Python job as much as for the
program, and CPU time changes with wall time. No repeat scheme inside one
run removes that: two runs made minutes apart time the same op
differently. So every timing of an op comes with a timing of a fixed job
that does not use rcbound, made just before it, and the op's time is
scaled by

    REFERENCE_MS / (the reference job's time)

which reads the op in ms of a host on which the job takes REFERENCE_MS.
The job does the kind of work the program does (dict and set lookups, a
breadth-first search, small lists), and how often it runs is fixed by the
workload, not by the program's speed. A change to rcbound cannot change
the job, so it moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import time

# the reference job's usual time on a 2-core x86-64 VM (Xeon, 2.1 GHz),
# timed in the harness between forked ops
REFERENCE_MS = 1.0

_ORDER = 300


def _job() -> int:
    """Build a circulant graph and search it breadth-first from a few
    vertices. It builds its own objects, so a forked child copies none of
    its parent's pages to run it."""
    adj = {v: {(v + 1) % _ORDER, (v - 1) % _ORDER, (v + 7) % _ORDER, (v - 7) % _ORDER}
           for v in range(_ORDER)}
    total = 0
    for source in range(0, _ORDER, 60):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    return total


_EXPECTED = _job()


def reference_ms() -> float:
    """Wall time of one run of the reference job, in ms."""
    t0 = time.perf_counter()
    total = _job()
    ms = 1000 * (time.perf_counter() - t0)
    if total != _EXPECTED:
        raise AssertionError("reference job gave a different answer")
    return ms


def scaled(ms: float, ref_ms: float) -> float:
    """An op's time in ms of a host on which the reference job takes
    REFERENCE_MS, given the job's time just before the op."""
    return ms * REFERENCE_MS / ref_ms
