"""Run ops in isolated child processes, trace layer calls, derive metrics.

Each op runs in a forked child with an address-space cap and a timeout, so
an op that runs out of memory or time is recorded with that outcome and the
pass goes on. Ops run one at a time: the harness process plus at most one
child. The harness times the reference job (pace.py) just before it forks
the child. The child times the op, reports it, then runs the independent
output check untimed and reports the verdict. A row's RSS growth is the
child's peak before the check less what it shared with the harness at
fork; ops small enough to live in the harness's free heap show none.

Tracing wraps the public functions of the rcbound modules from outside by
replacing module attributes, so calls between modules go through the
wrappers too. Spans live in memory until the run ends.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import json
import os
import resource
import select
import signal
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from check import color_bound, op_problem
from pace import reference_ms, scaled

OP_TIMEOUT_S = 7.0          # per-op wall-time limit, enforced inside the child
OP_HEADROOM_MB = 32         # address space an op may add to the forked harness;
                            # ops that succeed add under 2 MB of resident memory
KILL_GRACE_S = 3.0          # parent kills a child this long after its limit
CHECK_TIMEOUT_S = 60.0      # limit on the untimed output check

TRACED_MODULES = ("graphs", "connectivity", "rainbow", "construct", "cli")
# called for every edge the program touches; a span each would swamp the trace
UNTRACED = {"norm_edge"}

FAILED = ("error", "oom", "timeout", "wrong")


class OpTimeout(BaseException):
    """Raised inside the child when the op passes OP_TIMEOUT_S. A
    BaseException, so no `except Exception` in the program swallows it."""


class Tracer:
    """Records one span per call of each wrapped function.

    A span is [name, start, end, parent index, flag]; the flag marks a
    checker call that returned a witness or a repair search that succeeded.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, qualname: str, fn):
        spans_of = self
        flag_of = {"rainbow.find_rainbow_witness": lambda r: r is not None,
                   "construct.repair_step": lambda r: r is not None}.get(qualname)

        def traced(*args, **kwargs):
            stack = spans_of._stack
            span = [qualname, time.perf_counter(), 0.0, stack[-1] if stack else -1, False]
            index = len(spans_of.spans)
            spans_of.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if flag_of is not None:
                    span[4] = flag_of(result)
                return result
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self, rcb) -> None:
        """Wrap every public plain function of the traced modules, in every
        rcbound namespace that holds it."""
        modules = {name: getattr(rcb, name) for name in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNTRACED
                        and not inspect.isgeneratorfunction(fn)):
                    wrappers[fn] = self.wrap(f"{short}.{name}", fn)
        for mod in (rcb, *modules.values()):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, name, wrappers[value])


@dataclass
class OpRow:
    id: str
    n: int
    m: int
    outcome: str
    ms: float
    k: int | None
    bound: int
    rss_growth_mb: float | None  # None when the child was killed before it reported
    detail: str = ""
    ref_ms: float = 0.0    # the reference job, timed just before the op (see pace.py)
    digest: str = ""       # sha256 of the op's colorings and trace lines
    fallback_steps: int = 0
    repaired_steps: int = 0
    spans: list = field(default_factory=list)

    def public(self) -> dict:
        return {"id": self.id, "n": self.n, "m": self.m, "outcome": self.outcome,
                "ms": round(self.ms, 3), "k": self.k, "bound": self.bound,
                "rss_growth_mb": None if self.rss_growth_mb is None else round(self.rss_growth_mb, 2),
                "ref_ms": round(self.ref_ms, 4),
                "detail": self.detail}


def _colors(coloring) -> list[list[int]]:
    return [[u, v, c] for (u, v), c in sorted(coloring.colors.items())]


def _execute(rcb, case) -> dict:
    """The timed op: rc_exact (when asked) and run_constructive."""
    g = case.graph
    t0 = time.perf_counter()
    exact = rcb.rc_exact(g) if case.exact else None
    result = rcb.run_constructive(g)
    ms = 1000 * (time.perf_counter() - t0)
    out = {"ms": ms, "k": result.colors_used, "kappa": result.kappa,
           "colors": _colors(result.coloring), "trace": result.trace_lines(),
           "fallback_steps": sum(rec.fallback for rec in result.trace),
           "repaired_steps": sum(rec.repaired for rec in result.trace)}
    if exact is not None:
        out["exact_k"], out["exact_colors"] = exact[0], _colors(exact[1])
    return out


def _digest(case, result: dict) -> str:
    text = [case.id, json.dumps(result["colors"]), *result["trace"]]
    if "exact_colors" in result:
        text.append(json.dumps(result["exact_colors"]))
    return hashlib.sha256(("\n".join(text) + "\n").encode()).hexdigest()


def _on_alarm(signum, frame):
    raise OpTimeout()


def _child(rcb, case, tracer: Tracer | None, wfd: int, inner: int) -> None:
    """Body of the forked child: time the op `inner` times, each under
    OP_TIMEOUT_S, report its fastest time and last output, then check that
    output."""
    with open("/proc/self/statm") as fh:
        size, resident = (int(f) * os.sysconf("SC_PAGE_SIZE") for f in fh.read().split()[:2])
    cap = size + (OP_HEADROOM_MB << 20)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    if tracer is not None:
        tracer.reset()
    signal.signal(signal.SIGALRM, _on_alarm)
    times = []
    try:
        for _ in range(inner):
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            result = _execute(rcb, case)
            signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(result["ms"])
        result["ms"] = min(times)
        result["outcome"] = "ok"
    except OpTimeout:
        result = {"outcome": "timeout", "detail": f"over {OP_TIMEOUT_S:g} s"}
    except MemoryError:
        result = {"outcome": "oom", "detail": f"over {OP_HEADROOM_MB} MB headroom"}
    except Exception as exc:  # the op's typed failure; the pass goes on
        result = {"outcome": "error", "detail": f"{type(exc).__name__}: {exc}"}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    result.setdefault("ms", 1000 * (time.perf_counter() - t0))
    # the fork starts the child's peak at the harness's resident size
    result["rss_growth_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                               - resident) / (1 << 20)
    if tracer is not None:
        result["spans"] = [[name, s - t0, e - t0, p, f] for name, s, e, p, f in tracer.spans]
    report = {key: value for key, value in result.items() if key not in ("colors", "trace")}
    if result["outcome"] == "ok":
        report["digest"] = _digest(case, result)
        report.pop("exact_colors", None)
    write_line(wfd, report)
    if result["outcome"] == "ok":
        g = case.graph
        write_line(wfd, {"problem": op_problem(g.n, g.edges, result)})


def write_line(fd: int, obj) -> None:
    view = memoryview(json.dumps(obj).encode() + b"\n")
    while view:
        view = view[os.write(fd, view):]


def forked(body, limit_s: float, then_s: float = KILL_GRACE_S):
    """Run body(write_fd) in a forked child and collect the JSON lines it
    writes. The first line must arrive within limit_s, the rest within
    then_s after it; past a deadline the child is killed.
    Returns (objects, killed, wait status)."""
    # the child's collections then pass over none of the harness's objects,
    # however many rows the harness has kept by now
    gc.freeze()
    rfd, wfd = os.pipe()
    # fork, not spawn: the harness has no threads, and the child must see
    # the already imported (and, when tracing, wrapped) program
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            body(wfd)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    buf, killed = b"", False
    deadline = time.perf_counter() + limit_s
    while True:
        wait = deadline - time.perf_counter()
        if wait <= 0:
            killed = True
            os.kill(pid, signal.SIGKILL)
            break
        if not select.select([rfd], [], [], wait)[0]:
            continue
        chunk = os.read(rfd, 1 << 16)
        if not chunk:
            break
        if b"\n" not in buf and b"\n" in chunk:
            deadline = time.perf_counter() + then_s
        buf += chunk
    os.close(rfd)
    _, status = os.waitpid(pid, 0)
    lines = buf.split(b"\n")[:-1]  # a line without its newline is incomplete
    return [json.loads(line) for line in lines], killed, status


def run_op(rcb, case, tracer: Tracer | None = None, inner: int = 1) -> OpRow:
    """Time the reference job, then run one case in a forked child,
    `inner` times (tracing wants one), and return its row."""
    g = case.graph
    ref_ms = reference_ms()
    start = time.perf_counter()
    results, killed, status = forked(
        lambda wfd: _child(rcb, case, tracer, wfd, inner),
        inner * OP_TIMEOUT_S + KILL_GRACE_S, CHECK_TIMEOUT_S)
    row = OpRow(case.id, g.n, g.m, "error", 1000 * (time.perf_counter() - start), None,
                color_bound(g.n), None, ref_ms=ref_ms)
    if not results:
        row.outcome = "timeout" if killed else "error"
        row.detail = "killed at the hard limit" if killed else f"child wait status {status}"
        return row
    result = results[0]
    row.outcome, row.ms = result["outcome"], result["ms"]
    row.rss_growth_mb = result["rss_growth_mb"]
    row.detail = result.get("detail", "")
    row.spans = result.get("spans", [])
    if row.outcome != "ok":
        return row
    row.k = result["k"]
    row.fallback_steps = result["fallback_steps"]
    row.repaired_steps = result["repaired_steps"]
    problem = results[1]["problem"] if len(results) > 1 else "the output check did not finish"
    if problem is not None:
        row.outcome, row.detail = "wrong", problem
        return row
    row.digest = result["digest"]
    return row


def run_pass(rcb, cases, tracer: Tracer | None = None) -> list[OpRow]:
    return [run_op(rcb, case, tracer) for case in cases]


def fingerprint(rows: list[OpRow]) -> str:
    """sha256 over the colorings and trace lines of the ops that succeeded,
    by way of each op's own digest."""
    h = hashlib.sha256()
    for row in rows:
        if row.outcome == "ok":
            h.update(row.digest.encode())
    return h.hexdigest()


def end_to_end(runs: list[list[OpRow]], setup_times: list[float], peak_mb: float) -> dict:
    """End-to-end metrics from every repeat of every op (runs[i] holds op
    i's repeats; how many is set by the op's graph and the run length).

    Timings take each op at the median of its repeats, each repeat scaled
    by the reference job timed just before it (see pace.py); set-up times
    are not scaled. The tail is the highest percentile with at least ten
    ops beyond it. An op fails when any repeat fails. peak_mb is measured
    apart, in a fresh process (see mempeak.py). A successful op passed the
    independent check of kappa >= 3, so color_ratio takes every one.
    """
    best = sorted(statistics.median(scaled(row.ms, row.ref_ms) for row in reps)
                  for reps in runs)
    ok = [reps[0] for reps in runs if all(row.outcome == "ok" for row in reps)]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(best) / 1000,
        "op_ms_p50": statistics.median(best),
        "op_ms_tail": best[max(len(best) - 11, 0)],
        "ok_share": len(ok) / len(runs),
        "peak_rss_mb": peak_mb,
        "color_ratio": (sum(row.k for row in ok) / sum(row.bound for row in ok)
                        if ok else float("nan")),
    }


CHECK = "rainbow.find_rainbow_witness"
# the nearest of these ancestors decides which bucket a checker call counts in
CHECK_CONTEXT = {"construct.repair_step": "repair", "construct.apply_extension": "move",
                 "construct.seed_subgraph": "move", "construct.final_absorb": "move",
                 "construct.run_constructive": "final"}


def per_layer(rows: list[OpRow], setup_spans: list, traced_wall_s: float,
              untraced_wall_s: float, cli_bench_s: float) -> dict:
    """Per-layer metrics of one traced pass, from its spans and returned traces."""
    total_ms, self_ms, check_ms = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, flagged = Counter(), Counter()
    for row in rows:
        spans = row.spans
        for name, s, e, parent, flag in spans:
            dur = 1000 * (e - s)
            total_ms[name] += dur
            self_ms[name] += dur
            if parent >= 0:
                self_ms[spans[parent][0]] -= dur
            calls[name] += 1
            flagged[name] += bool(flag)
            if name == CHECK:
                up = parent
                while up >= 0 and spans[up][0] not in CHECK_CONTEXT:
                    up = spans[up][3]
                bucket = CHECK_CONTEXT[spans[up][0]] if up >= 0 else "other"
                check_ms[bucket] += dur
                calls[f"check.{bucket}"] += 1

    op_ms = sum(row.ms for row in rows)
    attempts = calls["check.repair"]
    kappa, fan = "connectivity.vertex_connectivity", "connectivity.find_fan"
    return {
        "connectivity.kappa_ms": total_ms[kappa],
        "connectivity.kappa_calls": calls[kappa],
        "connectivity.kappa_share": total_ms[kappa] / op_ms if op_ms else 0.0,
        "connectivity.fan_ms": total_ms[fan],
        "connectivity.fan_calls": calls[fan],
        "construct.seed_ms": total_ms["construct.seed_subgraph"],
        "construct.rounds": calls["construct.classify_extension"],
        "construct.classify_self_ms": self_ms["construct.classify_extension"],
        "construct.apply_self_ms": self_ms["construct.apply_extension"],
        "construct.repair_calls": calls["construct.repair_step"],
        "construct.repair_ms": total_ms["construct.repair_step"],
        "construct.repair_attempts": attempts,
        "construct.repair_yield": flagged["construct.repair_step"] / attempts if attempts else 0.0,
        "construct.final_absorb_ms": total_ms["construct.final_absorb"],
        "construct.fallback_steps": sum(row.fallback_steps for row in rows),
        "construct.repaired_steps": sum(row.repaired_steps for row in rows),
        "rainbow.check_calls": calls[CHECK],
        "rainbow.check_ms": total_ms[CHECK],
        "rainbow.check_reject_share": flagged[CHECK] / calls[CHECK] if calls[CHECK] else 0.0,
        "rainbow.move_check_ms": check_ms["move"],
        "rainbow.repair_check_ms": check_ms["repair"],
        "rainbow.final_check_ms": check_ms["final"],
        "rainbow.exact_ms": total_ms["rainbow.rc_exact"],
        "rainbow.exact_calls": calls["rainbow.rc_exact"],
        "graphs.gen_ms": sum(1000 * (e - s) for name, s, e, parent, _ in setup_spans
                             if parent < 0 and name.startswith("graphs.")),
        "cli.bench_s": cli_bench_s,
        "trace_overhead_s": traced_wall_s - untraced_wall_s,
    }
