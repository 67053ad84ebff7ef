"""Command line surface: generate, construct, check, exact-solve, query, bench.

Exit codes are a stable contract: 0 success, 1 negative verdict, 2 input
or usage error, 3 connectivity precondition failed, 4 internal
construction failure, 5 exact-search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from .connectivity import find_fan, vertex_connectivity
from .construct import ConstructionError, PreconditionError, run_constructive
from .graphs import Graph, GraphFormatError, gen_family, parse_graph, serialize_graph
from .rainbow import (BudgetExhaustedError, NoColoringError, find_rainbow_witness,
                      parse_coloring, rc_exact, serialize_coloring)

CSV_HEADER = ["graph_id", "n", "m", "kappa", "constructive_k", "bound",
              "exact_k", "checker_ok", "gen_ms", "construct_ms", "exact_ms"]


def _load_graph(path: str) -> Graph:
    return parse_graph(Path(path).read_text())


def cmd_gen(args) -> int:
    params = {
        "cycle": (args.n,), "complete": (args.n,), "wheel": (args.n,),
        "prism": (args.n,), "petersen": (), "random3c": (args.n, args.extra),
    }[args.family]
    g = gen_family(args.family, *params, seed=args.seed)
    if args.output is None:
        sys.stdout.write(serialize_graph(g))
    else:
        Path(args.output).write_text(serialize_graph(g))
    return 0


def cmd_construct(args) -> int:
    g = _load_graph(args.graph)
    try:
        result = run_constructive(g, force=args.force)
    except ConstructionError as exc:
        if args.trace:
            for rec in exc.trace:
                print(rec.format())
        raise
    if args.output:
        Path(args.output).write_text(serialize_coloring(result.coloring))
    if args.trace:
        for line in result.trace_lines():
            print(line)
    bound = str(result.bound) if result.bound_guaranteed else "n/a"
    print(f"k={result.colors_used} bound={bound} ok")
    return 0


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    coloring = parse_coloring(Path(args.coloring).read_text(), g)
    witness = find_rainbow_witness(g, coloring)
    if witness is None:
        print("rainbow-connected")
        return 0
    print(f"NOT rainbow-connected: witness {witness[0]} {witness[1]}")
    return 1


def cmd_exact(args) -> int:
    g = _load_graph(args.graph)
    try:
        k, coloring = rc_exact(g, max_colors=args.max_colors, node_budget=args.node_budget)
    except NoColoringError as exc:
        print(exc)
        return 1
    if args.output:
        Path(args.output).write_text(serialize_coloring(coloring))
    print(f"k={k}")
    return 0


def cmd_kappa(args) -> int:
    print(vertex_connectivity(_load_graph(args.graph)))
    return 0


def cmd_fan(args) -> int:
    g = _load_graph(args.graph)
    fan = find_fan(g, args.x, args.targets, args.k)
    if fan is None:
        print("insufficient")
        return 1
    for path in fan:
        print(" ".join(map(str, path)))
    return 0


def builtin_corpus(seed: int):
    """The benchmark corpus: (graph_id, (family, params, seed)) pairs,
    deterministic for a seed. layerbench's small_exact workload reads this
    recipe shape and builds each graph with gen_family(family, *params,
    seed=seed)."""
    entries = []
    for n in range(4, 9):
        entries.append((f"K{n}", ("complete", (n,), 0)))
    for n in range(5, 10):
        entries.append((f"W{n}", ("wheel", (n,), 0)))
    for k in range(3, 6):
        entries.append((f"prism{k}", ("prism", (k,), 0)))
    entries.append(("petersen", ("petersen", (), 0)))
    sizes = [10, 13, 16, 20, 24, 28, 31, 34, 37, 40]
    for i, n in enumerate(sizes):
        extra = n // 4
        entries.append((f"random3c-n{n}-e{extra}-s{seed + i}",
                        ("random3c", (n, extra), seed + i)))
    return entries


def _corpus_from_dir(path: str):
    files = sorted(Path(path).glob("*.txt"))
    if not files:
        raise GraphFormatError(f"no *.txt graphs under {path}")
    return [(f.stem, ("file", (str(f),), 0)) for f in files]


def _build(recipe) -> Graph:
    family, params, seed = recipe
    if family == "file":
        return _load_graph(params[0])
    return gen_family(family, *params, seed=seed)


def cmd_bench(args) -> int:
    if args.corpus == "builtin":
        corpus = builtin_corpus(args.seed)
    else:
        corpus = _corpus_from_dir(args.corpus)
    rows = []
    for graph_id, recipe in corpus:
        t0 = time.perf_counter()
        try:
            g = _build(recipe)
        except GraphFormatError as exc:
            print(f"error: corpus graph {graph_id}: {exc}", file=sys.stderr)
            return 2
        gen_ms = round(1000 * (time.perf_counter() - t0))

        t0 = time.perf_counter()
        try:
            result = run_constructive(g)
        except PreconditionError as exc:
            print(f"error: corpus graph {graph_id} rejected: {exc}", file=sys.stderr)
            return 3
        construct_ms = round(1000 * (time.perf_counter() - t0))

        exact_k: int | str = "skipped"
        exact_ms = 0
        if g.n <= args.exact_max_n:
            t0 = time.perf_counter()
            exact_k, _ = rc_exact(g)
            exact_ms = round(1000 * (time.perf_counter() - t0))
            if exact_k > result.colors_used:
                print(f"error: corpus graph {graph_id}: exact {exact_k} exceeds "
                      f"constructive {result.colors_used}", file=sys.stderr)
                return 4
        # checker_ok: run_constructive raises unless the checker accepts
        # the coloring and it keeps the bound
        rows.append([graph_id, g.n, g.m, result.kappa, result.colors_used,
                     result.bound, exact_k, True, gen_ms, construct_ms, exact_ms])

    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    print(f"bench ok: {len(rows)} graphs", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcbound",
        description="Rainbow connection colorings with a guaranteed budget "
                    "on 3-connected graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph from a named family")
    p.add_argument("family", choices=["cycle", "complete", "wheel", "prism",
                                      "petersen", "random3c"])
    p.add_argument("n", type=int, nargs="?", default=0,
                   help="size parameter (unused for petersen)")
    p.add_argument("--extra", type=int, default=0,
                   help="extra random edges (random3c only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("construct", help="color a graph within the budget")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="write the coloring file here")
    p.add_argument("--trace", action="store_true", help="print the step trace")
    p.add_argument("--force", action="store_true",
                   help="attempt graphs below connectivity 3 (bound not guaranteed)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="verify a coloring file against its graph")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("exact", help="exact minimum color count (exponential)")
    p.add_argument("graph")
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=10 ** 8)
    p.add_argument("-o", "--output", help="write the optimal coloring here")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("kappa", help="vertex connectivity")
    p.add_argument("graph")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("fan", help="internally disjoint paths into a vertex set")
    p.add_argument("graph")
    p.add_argument("x", type=int)
    p.add_argument("targets", type=int, nargs="+")
    p.add_argument("-k", type=int, default=3, help="fan width (default 3)")
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("bench", help="run the corpus and emit a CSV report")
    p.add_argument("--corpus", default="builtin",
                   help="'builtin' or a directory of *.txt edge lists")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--exact-max-n", type=int, default=8,
                   help="run the exact solver only up to this order")
    p.add_argument("--out", help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhaustedError as exc:
        print(f"budget-exhausted at k={exc.k}")
        return 5
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
