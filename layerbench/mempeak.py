"""Color a list of graphs in one fresh process, for its peak RSS.

    python3 layerbench/mempeak.py OPS.jsonl

Each line of OPS.jsonl is {"n": ..., "edges": [[u, v], ...], "exact": bool}.
The process imports rcbound from src/, then builds each graph with
make_graph and runs rc_exact (when asked) and run_constructive on it, one
graph after another, and prints its peak RSS in MB. The peak is what a
user pays for the interpreter, the program and the hungriest of these ops,
whose freed memory the next op reuses. It is read from VmHWM, the high-water
mark of this process's own address space: getrusage would also count the
parent's memory, which the process shared between fork and exec.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path

HEADROOM_MB = 256  # address space the ops may add; a safety net, not a measure

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import rcbound  # noqa: E402


def main(path: str) -> None:
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    cap = size + (HEADROOM_MB << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    with open(path) as fh:
        for line in fh:
            op = json.loads(line)
            g = rcbound.make_graph(op["n"], [tuple(e) for e in op["edges"]])
            if op["exact"]:
                rcbound.rc_exact(g)
            rcbound.run_constructive(g)
    with open("/proc/self/status") as fh:
        hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(hwm_kb / 1024)


if __name__ == "__main__":
    main(sys.argv[1])
