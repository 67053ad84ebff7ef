#!/usr/bin/env python3
"""Layered benchmark of rcbound: end-to-end metrics, or per-layer metrics
with --trace 1.

    python3 layerbench/run.py --workload families --seed 1 --seconds 50 --trace 0

The program is imported from the src/ directory beside layerbench/. One op
colors one graph (and, on small_exact, also solves it exactly). Ops run one
at a time, each in its own capped child process (a closed loop with one
client). An untraced run makes a fixed number of rounds over the
workload's ops (see measure()): --seconds divided by the workload's nominal
round cost, at least one. The count does not depend on how fast the
program runs, so two versions of it are measured with the same estimator.
A traced run makes one untraced and one traced pass and times `rcbound
bench`.

Op times are measured inside each op's process, so the harness's forking
and the untimed output checks are left out. Each op's timing comes with a
timing of a fixed reference job made just before it, and is scaled by it
(pace.py), so that a host that runs slower for a while does not read as a
slower program. wall_s sums the ops over a pass, each op at the median of
its scaled repeats. setup_s is the median of 2 * SETUP_REPS imports and
generations, half made before the ops and half after them, so that one slow
spell of the host does not set it. It is not scaled: importing (reading
and unmarshalling modules) does not keep pace with the reference job, and
scaled it spread more from run to run. peak_rss_mb is the peak RSS of one
fresh process that colors every graph whose op succeeded, one after
another (mempeak.py): forked ops share the harness's memory and reuse its
free heap, so their own peaks cannot show what an op needs. Per-op rows,
spans and the report are written under layerbench/out/. The last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 12  # before the ops, and as many again after them
CLI_BENCH_LIMIT_S = 120.0
MEM_PASS_LIMIT_S = 120.0

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "ok_share": "ratio", "peak_rss_mb": "MB", "color_ratio": "ratio",
}

# per-layer metric -> (unit, which end-to-end metric it should move, on which workload)
PER_LAYER = {
    "connectivity.kappa_ms": ("ms", "wall_s, op_ms_p50 on families; per-call overhead only on small_exact"),
    "connectivity.kappa_calls": ("count", "as connectivity.kappa_ms"),
    "connectivity.kappa_share": ("ratio", "as connectivity.kappa_ms (kappa ms / op ms)"),
    "connectivity.fan_ms": ("ms", "as connectivity.kappa_ms"),
    "connectivity.fan_calls": ("count", "as connectivity.kappa_ms"),
    "construct.seed_ms": ("ms", "op_ms_p50 on families"),
    "construct.rounds": ("count", "op_ms_p50 on families"),
    "construct.classify_self_ms": ("ms", "op_ms_p50 on families"),
    "construct.apply_self_ms": ("ms", "op_ms_p50 on families"),
    "construct.repair_calls": ("count", "ok_share, peak_rss_mb, wall_s on families (its out-of-memory Q6 ops)"),
    "construct.repair_ms": ("ms", "as construct.repair_calls"),
    "construct.repair_attempts": ("count", "as construct.repair_calls"),
    "construct.repair_yield": ("ratio", "as construct.repair_calls"),
    "construct.final_absorb_ms": ("ms", "as construct.repair_calls"),
    "construct.fallback_steps": ("count", "color_ratio, op_ms_p50 on families"),
    "construct.repaired_steps": ("count", "color_ratio, op_ms_p50 on families"),
    "rainbow.check_calls": ("count", "passing checks: op_ms_p50 on families; failing checks: ok_share, peak_rss_mb, wall_s on families"),
    "rainbow.check_ms": ("ms", "as rainbow.check_calls"),
    "rainbow.check_reject_share": ("ratio", "as rainbow.check_calls"),
    "rainbow.move_check_ms": ("ms", "op_ms_p50 on families"),
    "rainbow.repair_check_ms": ("ms", "ok_share, peak_rss_mb, wall_s on families"),
    "rainbow.final_check_ms": ("ms", "op_ms_p50 on families"),
    "rainbow.exact_ms": ("ms", "wall_s, op_ms_p50 on small_exact; zero on families"),
    "rainbow.exact_calls": ("count", "wall_s, op_ms_p50 on small_exact; zero on families"),
    "graphs.gen_ms": ("ms", "setup_s on every workload"),
    "cli.bench_s": ("s", "none: `rcbound bench` on the builtin corpus, timed whole"),
    "trace_overhead_s": ("s", "none: traced wall_s minus untraced wall_s"),
}


def import_rcbound():
    """A fresh import of rcbound from ./src, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "rcbound" or m.startswith("rcbound.")]:
        del sys.modules[name]
    rcb = importlib.import_module("rcbound")
    importlib.import_module("rcbound.cli")
    if Path(rcb.__file__).resolve().parent != SRC / "rcbound":
        raise ImportError(f"rcbound imported from {rcb.__file__}, not from {SRC}")
    return rcb


def set_up(build, seed: int):
    """Import rcbound afresh and generate the cases, SETUP_REPS times.
    Returns the last import, its cases and every set-up time."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        rcb = import_rcbound()
        cases = build(rcb, seed)
        times.append(time.perf_counter() - t0)
    return rcb, cases, times


def run_cli_bench(harness, rcb, seed: int) -> tuple[float, int]:
    """`rcbound bench` on the builtin corpus in a capped child: (seconds, exit code)."""
    out = OUT / f"cli-bench-s{seed}.csv"

    def body(wfd):
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            code = rcb.cli.main(["bench", "--seed", str(seed), "--out", str(out)])
        harness.write_line(wfd, {"s": time.perf_counter() - t0, "code": code})

    results, _, _ = harness.forked(body, CLI_BENCH_LIMIT_S)
    if not results:
        return CLI_BENCH_LIMIT_S, -1
    return results[0]["s"], results[0]["code"]


def measure(harness, rcb, cases, plan, rounds: int) -> list[list]:
    """Make `rounds` rounds of `plan` (see workloads.Plan). One timing of an
    op can read twice another on a shared machine, so the ops that set
    op_ms_p50 and op_ms_tail get extra sweeps, and every op's repeats are
    spread over the run. The counts depend on the graphs alone. Returns
    each op's repeats."""
    runs = [[] for _ in cases]
    for _ in range(rounds):
        for sweep in range(plan.sweeps):
            for reps, case in zip(runs, cases):
                if sweep == 0 or case.graph.n in plan.swept:
                    reps.append(harness.run_op(rcb, case, inner=plan.inner))
    return runs


def memory_peak_mb(cases, path: Path) -> float:
    """Peak RSS in MB of mempeak.py coloring `cases` in one fresh process."""
    with open(path, "w") as fh:
        for case in cases:
            g = case.graph
            fh.write(json.dumps({"n": g.n, "edges": sorted(g.edges), "exact": case.exact}) + "\n")
    done = subprocess.run([sys.executable, str(HERE / "mempeak.py"), str(path)],
                          capture_output=True, text=True, check=True, timeout=MEM_PASS_LIMIT_S)
    return float(done.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rcbound" / "__init__.py").is_file():
        print(f"error: no rcbound sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import pace
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    plan = workloads.WORKLOADS[args.workload]
    workloads.six_vertex_edge_sets()  # enumeration of input edge sets, outside set-up
    OUT.mkdir(exist_ok=True)

    rcb, cases, setup_times = set_up(plan.build, args.seed)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if args.trace:
        cli_bench_s, cli_code = run_cli_bench(harness, rcb, args.seed)
        untraced = harness.run_pass(rcb, cases)
        tracer = harness.Tracer()
        tracer.install(rcb)
        cases = plan.build(rcb, args.seed)
        setup_spans = tracer.spans
        tracer.reset()
        traced = harness.run_pass(rcb, cases, tracer)
        runs = [list(pair) for pair in zip(untraced, traced)]
        wall = [sum(row.ms for row in p) / 1000 for p in (untraced, traced)]
        metrics = harness.per_layer(traced, setup_spans, wall[1], wall[0], cli_bench_s)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        cli_code = 0
        runs = measure(harness, rcb, cases, plan, max(1, int(args.seconds // plan.round_s)))
        passed = [case for case, reps in zip(cases, runs)
                  if all(row.outcome == "ok" for row in reps)]
        peak_mb = memory_peak_mb(passed, OUT / f"{stem}.mem.jsonl")
        setup_times += set_up(plan.build, args.seed)[2]
        metrics = harness.end_to_end(runs, setup_times, peak_mb)
        units = END_TO_END

    rows = [row for reps in runs for row in reps]
    failed = [row for row in rows if row.outcome != "ok"]
    wrong = [row for row in rows if row.outcome == "wrong"]
    first = [reps[0] for reps in runs]
    fingerprint = harness.fingerprint(first)
    with open(OUT / f"{stem}.ops.jsonl", "w") as fh:
        for reps in runs:
            for i, row in enumerate(reps):
                fh.write(json.dumps({"repeat": i, **row.public()}) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for op, spans in [("setup", setup_spans)] + [(row.id, row.spans) for row in traced]:
                for name, s, e, parent, flag in spans:
                    fh.write(json.dumps({"op": op, "name": name, "start": s, "end": e,
                                         "parent": parent, "flag": flag}) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(cases)} repeats={min(map(len, runs))}..{max(map(len, runs))} "
          f"op_limit={harness.OP_TIMEOUT_S:g}s/{harness.OP_HEADROOM_MB}MB")
    shown = first if len(cases) <= 64 else [row for row in first if row.outcome != "ok"]
    for row in shown:
        print(f"  op {row.id} n={row.n} m={row.m} {row.outcome} {row.ms:.1f}ms k={row.k} "
              f"bound={row.bound} rss_growth={row.public()['rss_growth_mb']}MB "
              f"{row.detail}".rstrip())
    print(f"per-op rows: {OUT / (stem + '.ops.jsonl')}")
    counts = {o: sum(row.outcome == o for row in rows) for o in harness.FAILED}
    print(f"failed runs: {len(failed)} of {len(rows)} ("
          + ", ".join(f"{o} {c}" for o, c in counts.items()) + ")")
    print(f"fingerprint = sha256:{fingerprint} (informational)")
    if args.trace:
        print(f"untraced wall_s = {wall[0]:.4f} s, traced wall_s = {wall[1]:.4f} s")
        if cli_code != 0:
            print(f"rcbound bench exited with code {cli_code}")
    else:
        print(f"op_ms_tail is p{100 * max(len(cases) - 10, 0) / len(cases):.1f} "
              f"of {len(cases)} ops, each at the median of its scaled repeats"
              + (" (fewer than 20 ops: no tail to speak of)" if len(cases) < 20 else ""))
        print(f"fail_share = {1 - metrics['ok_share']:.4f} (ops with a failed repeat)")
        print(f"wall_s and op_ms_* are in ms of a host on which the reference job takes "
              f"{pace.REFERENCE_MS:g} ms (see pace.py)")
    for name, value in metrics.items():
        where = f"  [moves: {PER_LAYER[name][1]}]" if args.trace else ""
        print(f"{name} = {value:.6g} {units[name]}{where}")

    report = {"correct": not wrong and cli_code == 0, "attempted": len(rows),
              "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (OUT / f"{stem}.report.json").write_text(json.dumps(
        {**report, "workload": args.workload, "seed": args.seed,
         "fingerprint": fingerprint, "setup_times_s": setup_times}, indent=1) + "\n")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
