"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 2 walks every labeled 3-connected graph on 6 vertices by
default (a couple of minutes of work at most); `pytest --sample` audits a
fixed 500-instance random subset instead.
"""

import random
import time

import pytest

from rcbound.cli import builtin_corpus, _build
from rcbound.connectivity import check_fan, find_fan, vertex_connectivity
from rcbound.construct import move_budget, run_constructive, color_bound
from rcbound.graphs import gen_family, make_graph, norm_edge
from rcbound.rainbow import EdgeColoring, find_rainbow_witness, rc_exact

from _oracles import brute_rainbow_witness
from test_construct import SYNTHETIC, script_fault, state_on
from test_graphs import graph_from_mask
from rcbound.construct import classify_extension, seed_subgraph

BENCH_SEED = 42


def corpus_graphs():
    return [(gid, _build(recipe)) for gid, recipe in builtin_corpus(BENCH_SEED)]


def report(criterion, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_bound_at_desk_scale():
    t0 = time.perf_counter()
    failures = []
    for gid, g in corpus_graphs():
        res = run_constructive(g)
        if 5 * res.colors_used > 3 * g.n + 3:
            failures.append(f"{gid}: bound broken")
        if find_rainbow_witness(g, res.coloring) is not None:
            failures.append(f"{gid}: checker rejected")
    elapsed = time.perf_counter() - t0
    report("1 bound-at-desk-scale", not failures and elapsed < 10.0,
           f"({len(corpus_graphs())} graphs in {elapsed:.2f}s) {failures}")


def test_criterion_2_exhaustive_small_graph_check(sample_mode):
    survivors = []
    for mask in range(1 << 15):
        g = graph_from_mask(6, mask)
        if g.m < 9 or min(map(len, g.adj)) < 3:
            continue
        if vertex_connectivity(g) >= 3:
            survivors.append(g)
    if sample_mode:
        survivors = random.Random(20260811).sample(survivors, 500)
    violations = []
    for g in survivors:
        k_exact, _ = rc_exact(g)
        res = run_constructive(g)
        if k_exact > color_bound(6):
            violations.append((g.edges, k_exact, "bound"))
        if k_exact > res.colors_used:
            violations.append((g.edges, k_exact, res.colors_used))
    label = "sample-500" if sample_mode else "full"
    report("2 exhaustive-small-graph", not violations,
           f"({label}: {len(survivors)} graphs, bound {color_bound(6)}) {violations[:3]}")


def test_criterion_3_known_value_goldens():
    bad = []
    for n in range(2, 7):
        if rc_exact(gen_family("complete", n))[0] != 1:
            bad.append(f"K{n}")
    # the ceil(n/2) cycle formula starts at n=4; a triangle is complete, rc 1
    if rc_exact(gen_family("cycle", 3))[0] != 1:
        bad.append("C3")
    for n in range(4, 9):
        if rc_exact(gen_family("cycle", n))[0] != (n + 1) // 2:
            bad.append(f"C{n}")
    for n in range(3, 7):
        path = make_graph(n, [(i, i + 1) for i in range(n - 1)])
        if rc_exact(path)[0] != n - 1:
            bad.append(f"P{n}")
    report("3 known-value-goldens", not bad, str(bad))


def test_criterion_4_fan_property_suite():
    graphs = [g for _, g in corpus_graphs() if vertex_connectivity(g) >= 3]
    rng = random.Random(1000)
    failures = 0
    for trial in range(1000):
        g = graphs[trial % len(graphs)]
        x = rng.randrange(g.n)
        pool = [v for v in range(g.n) if v != x]
        targets = rng.sample(pool, rng.randint(3, len(pool)))
        fan = find_fan(g, x, targets, 3)
        if fan is None:
            failures += 1
            continue
        try:
            check_fan(g, fan, x, targets, 3)
        except ValueError:
            failures += 1
    report("4 fan-property-suite", failures == 0, f"({failures} failures of 1000)")


def test_criterion_5_checker_oracle_equivalence():
    rng = random.Random(2000)
    disagreements = 0
    small = [(gid, g) for gid, g in corpus_graphs() if g.n <= 7]
    for gid, g in small:
        for _ in range(50):
            col = EdgeColoring({e: rng.randint(1, g.m) for e in g.edges})
            if find_rainbow_witness(g, col) != brute_rainbow_witness(g, col.colors):
                disagreements += 1
    report("5 checker-oracle-equivalence", disagreements == 0,
           f"({len(small)} graphs x 50 colorings, {disagreements} disagreements)")


def test_criterion_6_budget_ledger_audit():
    bad = []
    for gid, g in corpus_graphs():
        res = run_constructive(g)
        prev_h, prev_k = 0, 0
        for rec in res.trace:
            dv, dk = rec.h - prev_h, rec.k - prev_k
            if rec.kind.startswith("seed"):
                pass  # the nucleus only needs the running invariant below
            elif rec.kind == "final_absorb":
                allowed = {0: 0, 1: 1, 2: 2, 3: 2}[dv]
                if dk > allowed:
                    bad.append(f"{gid}: final step spent {dk} colors on {dv} vertices")
            elif rec.kind in ("ear", "ear_fallback"):
                # an ear's length varies: at least 4 vertices, ceil(dv/2) colors
                if dv < 4 or dk > (dv + 1) // 2:
                    bad.append(f"{gid}: {rec.kind} moved ({dv}, {dk})")
            else:
                row = {"four_leaves": (4, 2), "tripod": (4, 2),
                       "arch_111": (4, 2), "arch_112": (5, 3),
                       "arch_122": (6, 3), "arch_113": (6, 3),
                       "fork_leaves": (4, 2), "fork_fork": (4, 2),
                       "fallback_absorb": (4, 2)}[rec.kind]
                if (dv, dk) != row and not (dv == row[0] and dk <= row[1]):
                    bad.append(f"{gid}: {rec.kind} moved ({dv}, {dk}), table row {row}")
            if rec.kind == "final_absorb":
                if 5 * rec.k > 3 * g.n + 3:
                    bad.append(f"{gid}: terminal budget 5k > 3n+3")
            elif 5 * rec.k > 3 * rec.h - 1:
                bad.append(f"{gid}: running budget broken at step {rec.index}")
            prev_h, prev_k = rec.h, rec.k
    report("6 budget-ledger-audit", not bad, str(bad[:3]))


def test_criterion_7_step_validity_per_kind():
    # each scripted move commits with no checker call; script_fault runs
    # the local test of its proof on the patch and the full checker on H
    outcomes = {}

    state = seed_subgraph(gen_family("complete", 7))
    plan = classify_extension(state)
    outcomes["four_leaves"] = (plan.kind == "four_leaves"
                               and script_fault(state, plan) is None)

    ears = {3: [(0, 4), (4, 5), (5, 1), (5, 6), (6, 7), (7, 2)],
            4: [(0, 4), (4, 5), (5, 6), (6, 1), (6, 7), (7, 8), (8, 2)],
            5: [(0, 4), (4, 5), (5, 6), (6, 1), (6, 7), (7, 8), (8, 9), (9, 2)]}
    for st_sum, extra in ears.items():
        state = state_on(extra)
        plan = classify_extension(state)
        outcomes[f"ear_{st_sum}"] = (plan.kind == "ear" and len(plan.vertices) == st_sum + 1
                                     and script_fault(state, plan) is None)

    for kind in ("tripod", "arch_111", "arch_112", "arch_122", "arch_113",
                 "fork_leaves", "fork_fork"):
        extra, dv, dk = SYNTHETIC[kind]
        state = state_on(extra)
        plan = classify_extension(state)
        h0, k0 = state.h, state.colors_used
        outcomes[kind] = (plan.kind == kind and script_fault(state, plan) is None
                          and (state.h - h0, state.colors_used - k0) == (dv, dk)
                          and (len(plan.vertices), move_budget(len(plan.vertices)))
                          == (dv, dk))

    # the published four-leaves variant marks a first link for only three of
    # the four vertices; verify it directly against the checker as well
    state = seed_subgraph(gen_family("complete", 7))
    patch = {}
    for i, w in enumerate((3, 4, 5, 6)):
        links = sorted(norm_edge(w, q) for q in (0, 1, 2))
        for j, e in enumerate(links):
            patch[e] = 2 if i < 3 and j == 0 else 3
    coloring = dict(state.coloring)
    coloring.update(patch)
    sub = make_graph(7, sorted(coloring))
    outcomes["four_leaves_asym"] = find_rainbow_witness(
        sub, EdgeColoring(coloring), vertices=range(7)) is None

    bad = sorted(k for k, ok in outcomes.items() if not ok)
    report("7 step-validity-per-kind", not bad, f"({len(outcomes)} checks) {bad}")
