import itertools
import random
import subprocess
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rcbound import construct, graphs, rainbow
from rcbound.cli import _build, builtin_corpus
from rcbound.construct import (ConstructionError, ExtensionPlan, GrowState, PreconditionError,
                               apply_extension, classify_extension, color_bound,
                               ear_color_sequence, REUSE, final_absorb, move_budget,
                               repair_step, run_constructive, seed_subgraph)
from rcbound.connectivity import find_fan, vertex_connectivity
from rcbound.graphs import gen_family, make_graph, norm_edge, parse_graph
from rcbound.rainbow import EdgeColoring, find_rainbow_witness, rc_exact

from _capped import run_capped
from _oracles import (brute_connected, clash_first_witness, has_rainbow_path,
                      layerbench_graphs, local_patch_fault, reach_order_by_rescan,
                      record_repair_searches, record_scripted_moves, reference_repair_step,
                      sparse_draws)
from test_connectivity import (CONSTRUCTION_FAN_GRAPHS, EAR_FALLBACK_GRAPH,
                               generalized_petersen, hypercube, mobius_ladder, relabeled)
from test_graphs import graph_from_mask

CORPUS = Path(__file__).resolve().parent / "corpus"

# the Moebius ladder on 200 vertices, as an expression for capped children
MOBIUS_200 = ("make_graph(200, [(i, (i + 1) % 200) for i in range(200)]"
              " + [(i, i + 100) for i in range(100)])")

C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]

C4_COLORS = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}

# a sparse 3-connected graph on nine vertices with rc = 3, seeded by the
# triangle {0, 3, 7}
SPARSE_NINE_EDGES = [(0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (1, 5), (1, 6), (1, 8),
                     (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (3, 7), (4, 5), (4, 6),
                     (4, 7), (4, 8), (6, 7), (6, 8)]

# GP(32, 3) under the vertex labeling that the layered benchmark's families
# workload draws for seed 313 (seeds 153 and 365 give two more such
# labelings): seven ears grow H to 52 vertices, then repair finds no
# coloring for a fallback absorption
GP32_3_RELABELED_EDGES = [(0, 52), (0, 54), (0, 55), (1, 12), (1, 13), (1, 37), (2, 13),
                          (2, 39), (2, 41), (3, 5), (3, 50), (3, 63), (4, 34), (4, 36), (4, 51),
                          (5, 21), (5, 47), (6, 36), (6, 53), (6, 61), (7, 18), (7, 37),
                          (7, 39), (8, 19), (8, 23), (8, 48), (9, 14), (9, 52), (9, 58),
                          (10, 12), (10, 14), (10, 38), (11, 46), (11, 57), (11, 63), (12, 25),
                          (13, 44), (14, 59), (15, 35), (15, 45), (15, 63), (16, 39), (16, 58),
                          (16, 60), (17, 21), (17, 32), (17, 56), (18, 30), (18, 42), (19, 43),
                          (19, 51), (20, 26), (20, 28), (20, 44), (21, 45), (22, 34), (22, 43),
                          (22, 49), (23, 25), (23, 61), (24, 35), (24, 57), (24, 60), (25, 27),
                          (26, 50), (26, 57), (27, 53), (27, 59), (28, 41), (28, 60), (29, 37),
                          (29, 38), (29, 58), (30, 38), (30, 40), (31, 32), (31, 34), (31, 62),
                          (32, 33), (33, 47), (33, 49), (35, 56), (36, 40), (40, 59), (41, 42),
                          (42, 50), (43, 54), (44, 46), (45, 62), (46, 62), (47, 54), (48, 49),
                          (48, 56), (51, 55), (52, 53), (55, 61)]


def count_calls(monkeypatch, name="find_rainbow_witness"):
    """A list that gains the positional arguments of each call to the
    construct function `name` (by default the checker)."""
    calls = []
    real = getattr(construct, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(construct, name, counted)
    return calls


def count_searches(monkeypatch):
    """A list that gains the name of each rainbow search the checker runs:
    its first-walk pass or its exact search."""
    calls = []
    for name in ("_first_walk_misses", "_rainbow_reach"):
        real = getattr(rainbow, name)
        monkeypatch.setattr(rainbow, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def traced_repairs(trace) -> int:
    """The repair searches a trace shows: fallback absorptions, and a final
    absorption that adds a vertex."""
    return sum(rec.kind == "fallback_absorb" or (rec.kind == "final_absorb" and rec.added != ())
               for rec in trace)


def scripted(kind: str) -> bool:
    """True for the kinds that commit a scripted move unchecked."""
    return not kind.startswith("seed") and kind not in ("fallback_absorb", "final_absorb")


def h_witness(state):
    """The full checker's witness for the grown subgraph H, on a graph and
    a coloring built afresh from the state's coloring (None when H is
    rainbow connected)."""
    sub = make_graph(state.host.n, sorted(state.coloring))
    return find_rainbow_witness(sub, EdgeColoring(state.coloring), vertices=state.vertices)


def script_fault(state, plan):
    """Apply a scripted plan and return what is wrong with the move, or
    None: it must make no checker call, its patch must meet the local test
    of a scripted move, and H plus the patch must pass the full checker."""
    hset, k = frozenset(state.vertices), state.colors_used
    calls = []
    real = construct.find_rainbow_witness
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "find_rainbow_witness",
                   lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        apply_extension(state, plan)
    patch = {e: state.coloring[e] for e, _ in plan.slots}
    if calls:
        return f"{len(calls)} checker calls"
    fault = local_patch_fault(hset, k, plan.vertices, patch)
    if fault is not None:
        return f"local test: {fault}"
    witness = h_witness(state)
    return witness and f"checker witness {witness}"


def state_on(extra_edges, n=None):
    """A C4 nucleus {0,1,2,3} inside a host with the given extra edges."""
    size = n or max(max(e) for e in extra_edges) + 1
    g = make_graph(size, C4_EDGES + list(extra_edges))
    state = GrowState(g, {0, 1, 2, 3}, dict(C4_COLORS), 2)
    assert construct._try_coloring(state, (), {}) is None
    return state


class TestSeed:
    def test_only_a_grown_state_hands_h_to_the_checker(self, monkeypatch):
        # a state seeded from an empty H passes its own H, uncopied, and
        # H's palette size as the checker's core, here to a repair
        # candidate's check; a state made around a given H passes no core
        cores = []
        real = construct.find_rainbow_witness

        def recorded(*args, core, core_colors, **kwargs):
            cores.append((core, None if core is None else set(core), core_colors))
            return real(*args, core=core, core_colors=core_colors, **kwargs)

        monkeypatch.setattr(construct, "find_rainbow_witness", recorded)
        state = seed_subgraph(gen_family("complete", 7))
        assert state.grown and len(cores) == 1 and cores[0][1:] == (set(), 0)
        apply_extension(state, ExtensionPlan("fallback_absorb", (3, 4, 5, 6), ()))
        assert cores[1][0] is state.vertices and cores[1][1:] == ({0, 1, 2}, 1)
        assert state_on([(4, 0), (4, 1), (4, 2)]).grown is False
        assert cores[-1] == (None, None, 2)

    def test_triangle_seed(self):
        state = seed_subgraph(gen_family("complete", 4))
        assert state.h == 3 and state.colors_used == 1
        assert 5 * state.colors_used <= 3 * state.h - 1
        assert state.trace[0].kind == "seed_triangle"

    def test_square_seed(self):
        # K3,3 has girth 4 and connectivity 3
        g = make_graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
        state = seed_subgraph(g)
        assert state.h == 4 and state.colors_used == 2
        assert state.trace[0].kind == "seed_cycle"

    def test_pendant_five_cycle_seed(self):
        state = seed_subgraph(gen_family("petersen"))
        assert state.h == 6 and state.colors_used == 3
        assert 5 * state.colors_used <= 3 * state.h - 1
        assert state.trace[0].kind == "seed_pendant_cycle"

    @pytest.mark.parametrize("perm", [list(range(10)), [(3 * v + 7) % 10 for v in range(10)]])
    def test_pendant_color_is_scripted(self, perm, monkeypatch):
        g = make_graph(10, [(perm[u], perm[v]) for u, v in gen_family("petersen").edges])
        calls = count_calls(monkeypatch)
        state = seed_subgraph(g)
        degree = Counter(v for e in state.coloring for v in e)
        pendant = [c for e, c in state.coloring.items() if min(degree[v] for v in e) == 1]
        assert pendant == [3]
        assert len(calls) == 1

    def test_failing_seed_check_names_pair(self, monkeypatch):
        monkeypatch.setattr(construct, "cycle_color_sequence", lambda n: [1] * n)
        with pytest.raises(ConstructionError, match=r"at pair \(0, 3\)"):
            seed_subgraph(make_graph(8, [(u, u | b) for u in range(8) for b in (1, 2, 4)
                                         if not u & b]))

    def test_acyclic_rejected(self):
        with pytest.raises(PreconditionError, match="acyclic"):
            seed_subgraph(make_graph(4, [(0, 1), (1, 2), (2, 3)]))


class TestEarColorSequence:
    # the names give s + t, the ear's length beyond the center; q = s + t + 1
    def test_even_four(self):
        assert ear_color_sequence(5) == [1, 2, 3, 1, 2, 3]

    def test_odd_three(self):
        assert ear_color_sequence(4) == [1, 2, REUSE, 1, 2]

    def test_odd_five(self):
        assert ear_color_sequence(6) == [1, 2, 3, REUSE, 1, 2, 3]

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 4"):
            ear_color_sequence(3)


class TestMoveBudget:
    @pytest.mark.parametrize("q", range(4, 13))
    def test_half_rounded_up_keeps_invariant(self, q):
        assert move_budget(q) == (q + 1) // 2
        assert 5 * move_budget(q) <= 3 * q

    @pytest.mark.parametrize("q", range(-1, 4))
    def test_fewer_than_four_rejected(self, q):
        with pytest.raises(ValueError, match="at least 4"):
            move_budget(q)


SYNTHETIC = {
    # kind -> (extra edges over the C4 nucleus, expected vertex/color deltas)
    "ear": ([(0, 4), (4, 5), (5, 1), (5, 6), (6, 7), (7, 2)], 4, 2),
    "tripod": ([(0, 4), (4, 5), (5, 1), (5, 6), (6, 2), (5, 7), (7, 3)], 4, 2),
    "arch_111": ([(0, 4), (4, 5), (5, 1), (5, 6), (6, 2),
                  (7, 0), (7, 1), (7, 2)], 4, 2),
    "arch_112": ([(0, 4), (4, 5), (5, 1), (5, 6), (6, 2),
                  (7, 0), (7, 1), (7, 8), (8, 2)], 5, 3),
    "arch_122": ([(0, 4), (4, 5), (5, 1), (5, 6), (6, 2),
                  (7, 0), (8, 1), (7, 8), (7, 9), (9, 2)], 6, 3),
    "arch_113": ([(0, 4), (4, 5), (5, 1), (5, 6), (6, 2),
                  (7, 0), (7, 1), (7, 8), (8, 9), (9, 2)], 6, 3),
    "fork_leaves": ([(4, 0), (4, 1), (4, 5), (5, 2),
                     (6, 0), (6, 1), (6, 2), (7, 0), (7, 1), (7, 3)], 4, 2),
    "fork_fork": ([(4, 0), (4, 1), (4, 5), (5, 2),
                   (6, 0), (6, 1), (6, 7), (7, 3)], 4, 2),
}


class TestClassify:
    @pytest.mark.parametrize("kind", sorted(SYNTHETIC))
    def test_kind_selected(self, kind):
        extra, _, _ = SYNTHETIC[kind]
        assert classify_extension(state_on(extra)).kind == kind

    def test_four_leaves_in_k7(self):
        state = seed_subgraph(gen_family("complete", 7))
        plan = classify_extension(state)
        assert plan.kind == "four_leaves"
        assert plan.vertices == (3, 4, 5, 6)

    def test_ear_params(self):
        # center 5 links straight to 1; the ear runs 0-4-5-6-7-2 (s = 1, t = 2)
        plan = classify_extension(state_on(SYNTHETIC["ear"][0]))
        assert plan.vertices == (4, 5, 6, 7)
        assert plan.slots == (((0, 4), 1), ((4, 5), 2), ((5, 6), REUSE),
                              ((6, 7), 1), ((2, 7), 2), ((1, 5), REUSE))

    def test_long_path_shifts_center_to_tripod(self):
        extra = [(4, 0), (4, 1), (4, 5), (5, 6), (6, 2), (5, 7), (7, 3)]
        assert classify_extension(state_on(extra)).kind == "tripod"

    def test_long_path_shifts_center_to_arch(self):
        extra = [(4, 0), (4, 1), (4, 5), (5, 0), (5, 6), (6, 2),
                 (7, 1), (7, 2), (7, 3)]
        plan = classify_extension(state_on(extra))
        assert plan.kind == "arch_111"
        assert set(plan.vertices) == {4, 5, 6, 7}

    def test_long_path_shift_without_link_or_tripod_falls_back(self):
        # 4's fan (4,0), (4,7), (4,5,2,3) shifts the center to 5, which has
        # no link into the seed {0, 3, 7}, and 5's only other neighbour 1
        # has none either: no tripod, and no e0 for an arch
        state = seed_subgraph(make_graph(9, SPARSE_NINE_EDGES))
        assert state.vertices == {0, 3, 7}
        assert classify_extension(state) == ExtensionPlan("fallback_absorb", (2, 4, 5, 1), ())

    def test_long_path_shift_without_link_skips_arch(self):
        # as above, but leaf 7 would complete an arch_111 if 5 had a link
        # into H to play e0
        extra = [(4, 0), (4, 1), (4, 5), (5, 6), (6, 2), (7, 0), (7, 1), (7, 2)]
        assert classify_extension(state_on(extra)) == ExtensionPlan(
            "fallback_absorb", (4, 5, 6, 7), ())

    @pytest.mark.parametrize("lens, fan", [
        ([1, 1, 2], ((7, 1), (7, 2), (7, 5, 0))),
        ([1, 2, 2], ((7, 1), (7, 5, 0), (7, 8, 2))),
        ([1, 1, 3], ((7, 1), (7, 3), (7, 8, 6, 2))),
    ], ids=["1-1-2", "1-2-2", "1-1-3"])
    def test_arch_companion_through_the_base_is_skipped(self, lens, fan):
        # center 4 links H through e0 = (1, 4) and joins u1 = 5 and v1 = 6;
        # companion 7's fan runs through the base {4, 5, 6}, so the dispatch
        # passes it over for the 1-1-1 companion 9
        edges = {(1, 4), (4, 5), (4, 6), (0, 5), (2, 6), (1, 9), (2, 9), (3, 9)}
        edges |= {norm_edge(a, b) for p in fan for a, b in zip(p, p[1:])}
        state = state_on(sorted(edges), n=10)
        fans = {7: fan, 9: ((9, 1), (9, 2), (9, 3))}
        assert [len(p) - 1 for p in fan] == lens
        plan = construct._companion_dispatch(state, fans, center=4, e0=(1, 4),
                                             u1=5, a=0, v1=6, b=2)
        assert (plan.kind, plan.vertices) == ("arch_111", (4, 5, 6, 9))

    def test_fallback_absorb_needs_four_reachable_vertices(self):
        # H is the seed triangle of one K4; the other K4 is cut off from it,
        # so H reaches only vertex 3
        g = make_graph(8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                           (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)])
        state = seed_subgraph(g)
        assert state.vertices == {0, 1, 2}
        with pytest.raises(ConstructionError,
                           match="outside vertices unreachable from the grown subgraph") as info:
            construct._fallback_absorb_plan(state)
        assert info.value.trace == tuple(state.trace)
        assert [rec.kind for rec in info.value.trace] == ["seed_triangle"]

    def test_unlinked_fans_wait_for_the_ear_fallback_scan(self, monkeypatch):
        # per classify_extension call: its plan kind and whether each fan
        # read's source has a neighbour in H, for kept and fresh fans alike
        rounds: list[list] = []
        real_read, real_classify = construct._read_fan, construct.classify_extension

        def recorded_read(state, w, hset):
            rounds[-1][1].append(not hset.isdisjoint(state.host.adj[w]))
            return real_read(state, w, hset)

        def recorded_classify(state):
            rounds.append([None, []])
            plan = real_classify(state)
            rounds[-1][0] = plan.kind
            return plan

        monkeypatch.setattr(construct, "_read_fan", recorded_read)
        monkeypatch.setattr(construct, "classify_extension", recorded_classify)
        for _, g in CONSTRUCTION_FAN_GRAPHS:
            run_constructive(g)
        for kind, linked in rounds:
            if kind not in ("ear_fallback", "fallback_absorb"):
                assert all(linked), kind
        # the ear-fallback round does read the unlinked vertices' fans
        assert any(kind == "ear_fallback" and not all(linked) for kind, linked in rounds)

    @pytest.mark.parametrize("g, wheel", [
        *(pytest.param(relabeled(gen_family("wheel", n), seed) if seed
                       else gen_family("wheel", n), True, id=f"wheel{n}-{seed}")
          for n in (32, 48) for seed in (0, 1, 2)),
        *(pytest.param(g, False, id=name) for name, g in [
            ("q5", hypercube(5)), ("gp24_3", generalized_petersen(24, 3)),
            ("prism24", gen_family("prism", 24)), ("mobius48", mobius_ladder(48)),
            ("random3c120", gen_family("random3c", 120, 30, seed=0)),
            ("ear_fallback", EAR_FALLBACK_GRAPH)])])
    def test_fan_reading_stops_only_where_no_fan_could_win(self, g, wheel, monkeypatch):
        # each round reads a label-order prefix of the linked vertices; where
        # it stops short, no unread linked vertex's fan has a larger s + t,
        # so none could have won (a tie goes to the lower label, read first)
        read = []  # (vertex, fan) per fan read in the current round
        stops = 0
        real_read, real_classify = construct._read_fan, construct.classify_extension

        def recorded_read(state, w, hset):
            fan = real_read(state, w, hset)
            read.append((w, fan))
            return fan

        def recorded_classify(state):
            nonlocal stops
            read.clear()
            plan = real_classify(state)
            hset = frozenset(state.vertices)
            ext = state.externals()
            linked = [w for w in ext if not hset.isdisjoint(g.adj[w])]
            ws = [w for w, _ in read]
            k = sum(w in linked for w in ws)
            assert ws[:k] == linked[:k]
            if k < len(linked):
                _, p1, p2 = read[-1][1]
                st = len(p1) + len(p2) - 4
                assert (len(ws), st) == (k, len(ext) - 1)
                assert (plan.kind, plan.vertices) == ("ear", tuple(ext))
                for w in linked[k:]:
                    fan = find_fan(g, w, hset, 3)
                    assert fan is None or len(fan[1]) + len(fan[2]) - 4 <= st
                stops += 1
            return plan

        monkeypatch.setattr(construct, "_read_fan", recorded_read)
        monkeypatch.setattr(construct, "classify_extension", recorded_classify)
        run_constructive(g)
        # a wheel's first rim fan runs around the rim, and its ear ends the rounds
        assert stops == wheel

    @pytest.mark.parametrize("n", [32, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wheel_reads_one_fan(self, n, seed, monkeypatch):
        g = gen_family("wheel", n)
        searches = count_calls(monkeypatch, "find_fan")
        run_constructive(relabeled(g, seed) if seed else g)
        assert len(searches) == 1

    def test_needs_four_externals(self):
        state = state_on([(4, 0), (4, 1), (4, 2)], n=5)
        with pytest.raises(ValueError, match="4 outside"):
            classify_extension(state)


class TestApply:
    @pytest.mark.parametrize("kind", sorted(SYNTHETIC))
    def test_scripted_coloring_passes(self, kind):
        extra, dv, dk = SYNTHETIC[kind]
        state = state_on(extra)
        h0, k0 = state.h, state.colors_used
        plan = classify_extension(state)
        assert script_fault(state, plan) is None
        assert (state.h - h0, state.colors_used - k0) == (dv, dk)
        assert (len(plan.vertices), move_budget(len(plan.vertices))) == (dv, dk)
        assert 5 * state.colors_used <= 3 * state.h - 1

    def test_commit_refuses_a_gap_in_fresh_colors(self):
        # H uses colors 1 and 2, so a patch whose only fresh color is 4 skips 3
        state = state_on(SYNTHETIC["arch_111"][0])
        before = (set(state.vertices), dict(state.coloring), state.colors_used, len(state.trace))
        with pytest.raises(AssertionError, match=r"fresh colors not contiguous: \[4\]"):
            construct._commit(state, "arch_111", (4,), {(0, 4): 4})
        assert (state.vertices, state.coloring, state.colors_used, len(state.trace)) == before

    def test_four_leaves_budget(self):
        state = seed_subgraph(gen_family("complete", 7))
        assert script_fault(state, classify_extension(state)) is None
        assert (state.h, state.colors_used) == (7, 3)

    @pytest.mark.parametrize("st_sum,extra", [
        (3, [(0, 4), (4, 5), (5, 1), (5, 6), (6, 7), (7, 2)]),
        (4, [(0, 4), (4, 5), (5, 6), (6, 1), (6, 7), (7, 8), (8, 2)]),
        (5, [(0, 4), (4, 5), (5, 6), (6, 1), (6, 7), (7, 8), (8, 9), (9, 2)]),
        (6, [(0, 4), (4, 5), (5, 6), (6, 7), (7, 1), (7, 8), (8, 9),
             (9, 10), (10, 2)]),
    ])
    def test_ear_lengths(self, st_sum, extra):
        state = state_on(extra)
        plan = classify_extension(state)
        assert plan.kind == "ear" and len(plan.vertices) == st_sum + 1
        assert script_fault(state, plan) is None
        assert state.trace[-1].new_colors == (st_sum + 2) // 2

    def test_four_leaves_asymmetric_variant_also_valid(self):
        # variant that colors a first link for only three of the four
        # vertices and everything else with the second color
        state = seed_subgraph(gen_family("complete", 7))
        patch = {}
        for i, w in enumerate((3, 4, 5, 6)):
            links = sorted(norm_edge(w, q) for q in (0, 1, 2))
            for j, e in enumerate(links):
                patch[e] = 2 if i < 3 and j == 0 else 3
        coloring = dict(state.coloring)
        coloring.update(patch)
        sub = make_graph(7, sorted(coloring))
        assert find_rainbow_witness(sub, EdgeColoring(coloring)) is None

    @pytest.mark.parametrize("kind", sorted(SYNTHETIC))
    def test_move_check_searches_from_added_vertices_only(self, kind, monkeypatch):
        # a growth check of a script's patch searches from its added
        # vertices only; committing the script searches nothing
        state = state_on(SYNTHETIC[kind][0])
        plan = classify_extension(state)
        patch = {e: 1 if slot == REUSE else state.colors_used + slot for e, slot in plan.slots}
        searches = []
        real = rainbow._first_walk_misses

        def counted(adjc, source, targets, *rest):
            searches.append(source)
            return real(adjc, source, targets, *rest)

        monkeypatch.setattr(rainbow, "_first_walk_misses", counted)
        assert construct._try_coloring(state, plan.vertices, patch) is None
        assert searches == sorted(plan.vertices)
        searches.clear()
        apply_extension(state, plan)
        assert searches == [] and state.coloring.items() >= patch.items()

    @pytest.mark.parametrize("patch", [
        {(0, 4): 3, (1, 4): 3, (2, 4): 3, (0, 1): 3},  # recolors an edge of H
        {(0, 4): 3, (1, 4): 3, (2, 4): 3, (0, 2): 3},  # new edge between old vertices
        {(0, 4): 3, (1, 4): 3, (4, 2): 3},  # a reversed key: H's coloring keeps u < v
    ])
    def test_patch_guard(self, patch):
        # every step commits through _commit, which refuses a patch key
        # that is not a normalized edge at an added vertex and leaves the
        # state as it was; a growth check refuses it before its layout
        # would list an edge twice
        state = state_on([(4, 0), (4, 1), (4, 2), (0, 2)], n=5)
        before = (set(state.vertices), dict(state.coloring), state.colors_used, len(state.trace))
        with pytest.raises(AssertionError, match="added vertex"):
            construct._try_coloring(state, (4,), patch)
        with pytest.raises(AssertionError, match="added vertex"):
            construct._commit(state, "four_leaves", (4,), patch)
        assert (state.vertices, state.coloring, state.colors_used, len(state.trace)) == before

    def test_overspent_script_rejected(self, monkeypatch):
        # a leaf link moved to a third fresh slot still passes the checker
        # (a color used once breaks no path), but 4 vertices may take only 2
        state = seed_subgraph(gen_family("complete", 7))
        repairs = count_calls(monkeypatch, "repair_step")
        plan = classify_extension(state)
        slots = ((plan.slots[0][0], 3),) + plan.slots[1:]
        assert sorted({slot for _, slot in slots}) == [1, 2, 3]
        before = (state.h, state.colors_used, dict(state.coloring), list(state.trace))
        with pytest.raises(ConstructionError, match="spent 3 fresh colors"):
            apply_extension(state, replace(plan, slots=slots))
        assert repairs == []
        # the refused move leaves no trace in the state
        assert (state.h, state.colors_used, state.coloring, state.trace) == before

    def test_three_vertex_plan_rejected(self):
        state = seed_subgraph(gen_family("complete", 7))
        slots = tuple((norm_edge(w, q), 1) for w in (3, 4, 5) for q in (0, 1, 2))
        with pytest.raises(ValueError, match="at least 4"):
            apply_extension(state, ExtensionPlan("four_leaves", (3, 4, 5), slots))

    def test_repeated_vertex_rejected(self):
        # 3, 3, 3, 4, 5 would size the budget for five vertices but grow H
        # by three; refusing it keeps every committed move at 4 or more new
        # vertices, which is why run_constructive needs no progress guard
        state = seed_subgraph(gen_family("complete", 7))
        slots = tuple((norm_edge(w, q), slot) for w, slot in ((3, 1), (4, 2), (5, 3))
                      for q in (0, 1, 2))
        before = (state.h, state.colors_used, dict(state.coloring), list(state.trace))
        with pytest.raises(ValueError, match="twice"):
            apply_extension(state, ExtensionPlan("four_leaves", (3, 3, 3, 4, 5), slots))
        assert (state.h, state.colors_used, state.coloring, state.trace) == before

    def test_slotless_plan_is_one_repair_search(self, monkeypatch):
        state = seed_subgraph(gen_family("complete", 7))
        searches = count_calls(monkeypatch, "repair_step")
        apply_extension(state, ExtensionPlan("fallback_absorb", (3, 4, 5, 6), ()))
        assert [args[1:] for args in searches] == [((3, 4, 5, 6), range(2, 4))]
        step = state.trace[-1]
        assert (step.kind, step.added, step.h) == ("fallback_absorb", (3, 4, 5, 6), 7)
        assert step.fallback
        assert 0 < step.new_colors <= move_budget(4)
        assert find_rainbow_witness(state.host, EdgeColoring(state.coloring)) is None

    def test_broken_script_fails_the_final_check(self, monkeypatch):
        # a scripted move commits unchecked. With every slot 1, the four
        # leaves of a triangle joined to four independent vertices carry
        # one fresh color on all their links, so no rainbow path joins two
        # of them; the run ends in the final check's typed failure with
        # the trace, forced or not, and returns no coloring. (In K7 the
        # leaves' own edges take color 1 at the end and join them.)
        g = make_graph(7, [(0, 1), (0, 2), (1, 2)] + [(h, w) for w in range(3, 7) for h in range(3)])
        real = construct.classify_extension

        def broken(state):
            plan = real(state)
            return replace(plan, slots=tuple((e, 1) for e, _ in plan.slots))

        monkeypatch.setattr(construct, "classify_extension", broken)
        repairs = count_calls(monkeypatch, "repair_step")
        calls = count_calls(monkeypatch)
        for force in (False, True):
            calls.clear()
            with pytest.raises(ConstructionError,
                               match=r"final coloring failed verification at \(3, 4\)") as info:
                run_constructive(g, force=force)
            assert [(rec.kind, rec.added, rec.new_colors) for rec in info.value.trace] == [
                ("seed_triangle", (0, 1, 2), 1), ("four_leaves", (3, 4, 5, 6), 1),
                ("final_absorb", (), 0)]
            # the seed's check and the final check; the move made none
            assert len(calls) == 2
        assert repairs == []

    def test_failed_search_leaves_state(self, monkeypatch):
        state = seed_subgraph(gen_family("complete", 7))
        monkeypatch.setattr(construct, "repair_step", lambda *args: None)
        before = (state.h, state.colors_used, dict(state.coloring), list(state.trace))
        with pytest.raises(ConstructionError, match="repair failed on a fallback absorption"):
            apply_extension(state, ExtensionPlan("fallback_absorb", (3, 4, 5, 6), ()))
        assert (state.h, state.colors_used, state.coloring, state.trace) == before

    @pytest.mark.parametrize("h,k,budgets", [(3, 1, range(2, 4)), (20, 1, range(2, 6))])
    def test_failed_repair_retries_up_to_the_slack(self, h, k, budgets, monkeypatch):
        # one repair search, over budgets from ceil(4/2) = 2 up to
        # floor((3(h + 4) - 1) / 5) - k fresh colors (3 after a triangle
        # seed), and never past 4 + 1
        g = gen_family("complete", h + 4)
        state = GrowState(g, set(range(h)), {e: 1 for e in g.edges if max(e) < h}, k)
        tried = []
        monkeypatch.setattr(construct, "repair_step", lambda s, added, b: tried.append(b))
        with pytest.raises(ConstructionError, match="repair failed on a fallback absorption"):
            apply_extension(state, ExtensionPlan("fallback_absorb", tuple(range(h, h + 4)), ()))
        assert tried == [budgets]

    @pytest.mark.parametrize("vertices,slots,message", [
        ((3, 4, 5, 7), (), "outside the host"),
        ((3, 4, 5, -1), (), "outside the host"),
        ((3, 4, 5, 6), (((3, 4), 1), ((3, 9), 1)), "missing edge"),
    ])
    def test_bad_plan_leaves_state(self, vertices, slots, message, monkeypatch):
        state = seed_subgraph(gen_family("complete", 7))
        repairs = count_calls(monkeypatch, "repair_step")
        before = (state.h, state.colors_used, dict(state.coloring), list(state.trace))
        with pytest.raises(ValueError, match=message):
            apply_extension(state, ExtensionPlan("four_leaves", vertices, slots))
        assert (state.h, state.colors_used, state.coloring, state.trace) == before
        assert repairs == []

    def test_plan_state_mismatch_rejected(self):
        state = state_on(SYNTHETIC["ear"][0])
        plan = classify_extension(state)
        apply_extension(state, plan)
        with pytest.raises(ValueError, match="already inside"):
            apply_extension(state, plan)


# inputs whose scripted moves the local test runs over, each with the number
# of scripted moves its construction commits
SCRIPT_INPUTS = {
    "families-1-3": (lambda: [g for seed in (1, 2, 3) for g in layerbench_graphs("families", seed)],
                     297),
    "corpus": (lambda: [_build(recipe) for _, recipe in builtin_corpus(42)], 57),
    "small_exact-1": (lambda: layerbench_graphs("small_exact", 1), 7),
    "sparse-300": (lambda: sparse_draws(300), 458),
    "ear-fallback": (lambda: [EAR_FALLBACK_GRAPH], 1),
}


class TestScriptProofs:
    # a scripted move commits on its plan builder's proof that the patch
    # meets (a) and (b) of the construct module docstring; the local test
    # (local_patch_fault) checks both by enumerating routes and paths

    @pytest.mark.parametrize("name", sorted(SCRIPT_INPUTS))
    def test_committed_scripts_meet_the_local_test(self, name):
        build, count = SCRIPT_INPUTS[name]
        moves = record_scripted_moves(build())
        assert len(moves) == count
        assert [(sorted(hset), added, patch) for _, _, hset, added, patch, k in moves
                if local_patch_fault(hset, k, added, patch) is not None] == []

    def test_mutant_tripod_fails_the_local_test(self):
        # f2 on (c, x1) moved to f1: v1 = 6 and x1 = 7 enter H on f1 alone,
        # and the patch joins them only through the center on REUSE twice.
        # The checker rejects the mutant as well
        state = state_on(SYNTHETIC["tripod"][0])
        plan = classify_extension(state)
        assert plan.kind == "tripod" and ((3, 7), 2) in plan.slots
        patch = {e: 1 if slot == REUSE else state.colors_used + slot for e, slot in plan.slots}
        assert local_patch_fault(state.vertices, state.colors_used, plan.vertices, patch) is None
        patch[(3, 7)] = state.colors_used + 1
        assert local_patch_fault(state.vertices, state.colors_used, plan.vertices,
                                 patch) == ("pair", 6, 7)
        assert construct._try_coloring(state, plan.vertices, patch) is not None


class TestRepair:
    def test_single_leaf_one_color(self):
        state = state_on([(4, 0), (4, 1), (4, 2)], n=5)
        patch = repair_step(state, [4], range(1, 2))
        assert patch == {(0, 4): 3, (1, 4): 3, (2, 4): 3}

    def test_zero_budget_fails(self):
        # every path from vertex 3 repeats color 1, so a fresh color is needed
        g = make_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        state = GrowState(g, {0, 1, 2}, {(0, 1): 1, (1, 2): 1, (0, 2): 1}, 1)
        assert repair_step(state, [3], range(0, 1)) is None
        assert repair_step(state, [3], range(1, 2)) == {(0, 3): 2}

    def test_unlinked_vertex_fails(self):
        # 5 reaches H only through 6, which is not added: every candidate
        # leaves 5 without a colored edge, and the checker rejects it
        state = state_on([(4, 0), (4, 1), (4, 2), (5, 6), (6, 0), (6, 1), (6, 2)])
        assert repair_step(state, [4, 5], range(2, 3)) is None

    def test_deterministic(self):
        a = repair_step(state_on([(4, 0), (4, 1), (4, 2)], n=5), [4], range(2, 3))
        b = repair_step(state_on([(4, 0), (4, 1), (4, 2)], n=5), [4], range(2, 3))
        assert a == b

    def test_inside_vertex_rejected(self):
        state = state_on([(4, 0), (4, 1), (4, 2)], n=5)
        with pytest.raises(ValueError, match="outside"):
            repair_step(state, [0], range(1, 2))

    def test_star_patterns_in_label_order(self, monkeypatch):
        # 4 owns the inner edge (4, 5); "alt" alternates the first two
        # fresh colors over a vertex's links into H in edge order. Of the
        # 4 ** 2 label pairs, (4, 3), (4, 4), (4, 1) and (1, 4) only swap
        # the fresh colors 3 and 4 of an earlier pair, so they are skipped.
        # Each patch is checked in its final colors: the fresh ones
        # renumbered by first appearance over the sorted edges
        state = state_on([(4, 0), (4, 1), (4, 5), (5, 2), (5, 3)])
        tried = []
        monkeypatch.setattr(construct, "_try_coloring",
                            lambda state, added, patch: tried.append(patch) or (0, 1))
        assert repair_step(state, [4, 5], range(2, 3)) is None
        assert len(tried) == 4 ** 2 - 4
        assert tried[0] == dict.fromkeys([(0, 4), (1, 4), (2, 5), (3, 5), (4, 5)], 3)
        # labels (4, "alt") follow (3, "alt"): 4 on fresh color 4 is no
        # renaming of either; renumbered, 4's color comes first and is 3
        assert tried[4] == {(0, 4): 3, (1, 4): 3, (2, 5): 4, (3, 5): 3, (4, 5): 3}
        # labels (1, 3): the inner edge follows 4
        assert tried[5] == {(0, 4): 1, (1, 4): 1, (2, 5): 3, (3, 5): 3, (4, 5): 1}
        # labels ("alt", "alt"): (0, 4) is the first edge and keeps color 3
        assert tried[-1] == {(0, 4): 3, (1, 4): 4, (2, 5): 3, (3, 5): 4, (4, 5): 4}

    def test_accepted_patch_renumbered_in_edge_order(self):
        # the accepted labels give 4 color 3 and 5 color 4; renumbering by
        # first appearance over the sorted edges hands color 3 to (0, 5)
        state = state_on([(4, 1), (4, 2), (5, 0), (5, 3)])
        assert repair_step(state, [4, 5], range(2, 3)) == {(0, 5): 3, (1, 4): 4, (2, 4): 4,
                                                           (3, 5): 3}

    def test_color_clash_skips_the_checker(self, monkeypatch):
        # the first labels give the non-adjacent 4 and 5 the one fresh color
        # 3 on all their edges, so every 4-5 path starts and ends on 3
        state = state_on([(4, 1), (4, 2), (5, 0), (5, 3)])
        calls = count_calls(monkeypatch)
        searches = count_searches(monkeypatch)
        first = dict.fromkeys([(1, 4), (2, 4), (0, 5), (3, 5)], 3)
        # one first-walk pass from 4 misses 5, and the checker's
        # color-clash bound then rejects the pair without an exact search
        assert construct._try_coloring(state, (4, 5), first) == (4, 5)
        assert len(calls) == 1 and searches == ["_first_walk_misses"]
        # the repair search skips those labels without a check, and the
        # next labels (3, 4) are the first it checks and accepts
        calls.clear()
        assert repair_step(state, [4, 5], range(2, 3)) == {(0, 5): 3, (1, 4): 4, (2, 4): 4,
                                                           (3, 5): 3}
        assert len(calls) == 1

    def test_negative_budget_rejected(self, monkeypatch):
        # fresh[:b] would slice from the end of the palette
        state = state_on([(4, 0), (4, 1), (4, 2)], n=5)
        calls = count_calls(monkeypatch)
        with pytest.raises(ValueError, match="non-negative"):
            repair_step(state, [4], range(-1, 2))
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda m: st.tuples(
        st.just(m), st.sets(st.sampled_from([(u, w) for w in range(4, 4 + m)
                                             for u in range(w)]), min_size=1))),
           st.integers(0, 3), st.integers(0, 2))
    # budget 1 offers no alternating star, even where the widest palette has two colors
    @example(drawn=(2, {(0, 4), (3, 4), (0, 5)}), low=1, width=1)
    def test_one_search_equals_the_per_budget_searches(self, drawn, low, width):
        # the widened search returns what searches at each budget in turn
        # return first, checks no patch twice up to a renaming of its fresh
        # colors, and so makes no more checker calls than they do
        (m, extra), budgets = drawn, range(low, low + width + 1)
        state = state_on(sorted(extra), n=4 + m)
        added = list(range(4, 4 + m))
        real, tried = construct._try_coloring, []

        def recorded(state, added, patch):
            tried.append(patch)
            return real(state, added, patch)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_try_coloring", recorded)
            one = repair_step(state, added, budgets)
            single = len(tried)
            each = [repair_step(state, added, range(b, b + 1)) for b in budgets]
        # the accepted patches agree
        assert one == next((found for found in each if found is not None), None)
        assert single <= len(tried) - single
        keys = []
        for patch in tried[:single]:
            # state_on's H uses colors 1 and 2, so fresh colors start at 3
            remap = {}
            keys.append(tuple(remap.setdefault(c, 3 + len(remap)) if c > 2 else c
                              for _, c in sorted(patch.items())))
        assert len(set(keys)) == single

    @settings(max_examples=150, deadline=None)
    @given(st.integers(4, 7).flatmap(
        lambda n: st.tuples(st.builds(graph_from_mask, st.just(n),
                                      st.integers(0, (1 << (n * (n - 1) // 2)) - 1)),
                            st.integers(max(1, n - 5), n - 1))),
           st.integers(0, 4), st.integers(0, 1), st.randoms(use_true_random=False))
    # the adjacent added 2 and 3 take color 3 on all their edges
    @example(drawn=(graph_from_mask(5, 984), 3), low=0, width=1, rng=random.Random(30))
    # the non-adjacent added 1 and 4 take one color each, 1 and 2
    @example(drawn=(graph_from_mask(5, 827), 1), low=2, width=1, rng=random.Random(62))
    # the added 3 links to all of H = {0, 1, 2}, and the accepted patch gives
    # it the alternating star: colors 4, 5, 4 on its links, 5 on (3, 4)
    @example(drawn=(graph_from_mask(5, 679), 3), low=2, width=0, rng=random.Random(0))
    def test_skipped_patterns_fail_the_check(self, drawn, low, width, rng):
        # H is a BFS prefix of the host with random colors on its edges, and
        # up to four other vertices are added, maybe one with no edge to H
        # or to another added vertex. repair_step returns the patch of a
        # search that checks every pattern up to a renaming, and checks just
        # the patterns of that search it does not skip. A skipped pattern
        # gives two non-adjacent added vertices one color on all their
        # edges, and _try_coloring rejects it
        (g, h), colors = drawn, [1, 2, 3]
        order, seen = [0], {0}
        for u in order:
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        hset = set(order[:h])
        outside = sorted(set(range(g.n)) - hset)
        added = tuple(sorted(rng.sample(outside, rng.randint(1, min(4, len(outside))))))
        coloring = {e: rng.choice(colors) for e in g.edges if set(e) <= hset}
        state = GrowState(g, hset, coloring, max(coloring.values(), default=0))
        budgets = range(low, low + width + 1)
        want, checked = reference_repair_step(g, hset, coloring, state.colors_used, added,
                                              budgets)

        def skipped(patch):
            at = {w: {c for e, c in patch.items() if w in e} for w in added}
            return any(at[u] and at[w] and len(at[u] | at[w]) == 1
                       for u, w in itertools.combinations(added, 2) if not g.has_edge(u, w))

        real, tried = construct._try_coloring, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_try_coloring",
                       lambda *args: tried.append(args[2]) or real(*args))
            found = repair_step(state, added, budgets)
        assert found == want
        assert tried == [patch for patch in checked if not skipped(patch)]
        for patch in filter(skipped, checked):
            assert construct._try_coloring(state, added, patch) is not None

    def test_recorded_searches_replay(self):
        # the repair searches of a slice of the six-vertex graphs, recorded
        # for in-process replays, accept on replay the patch they accepted:
        # each recorded state is a copy the construction's later steps leave
        six = [g for g in (graph_from_mask(6, mask) for mask in range(3, 1 << 15, 29))
               if min(map(len, g.adj)) >= 3 and vertex_connectivity(g) >= 3]
        searches = record_repair_searches(six)
        assert len(searches) == len(six)  # each closes with a final absorption
        for state, added, budgets, patch in searches:
            found = repair_step(state, added, budgets)
            assert found == patch

    def test_failure_is_bounded(self, monkeypatch):
        # a triangle hung off vertex 4: reaching 0 from 6 takes three
        # distinct colors, but one fresh color plus color 1 gives two
        state = state_on([(4, 0), (4, 1), (4, 2), (4, 3), (4, 5), (5, 6), (6, 7), (5, 7)])
        calls = count_calls(monkeypatch)
        assert repair_step(state, [4, 5, 6, 7], range(1, 2)) is None
        assert 0 < len(calls) <= 2 ** 4


class TestReachOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9).flatmap(
        lambda n: st.tuples(st.builds(graph_from_mask, st.just(n),
                                      st.integers(0, (1 << (n * (n - 1) // 2)) - 1)),
                            st.sets(st.integers(0, n - 1)), st.sets(st.integers(0, n - 1)))))
    def test_matches_the_rescanning_order(self, drawn):
        # the four vertices a fallback absorption takes are the first four
        # of the order that rescans the pool at every step
        g, hset, pool = drawn
        state = GrowState(g, set(hset), {}, 0)
        want = reach_order_by_rescan(g, hset, pool)
        assert construct._first_four(state, pool) == tuple(want[:4])


class TestColorClash:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(4, 7).flatmap(
        lambda n: st.tuples(st.builds(graph_from_mask, st.just(n),
                                      st.integers(0, (1 << (n * (n - 1) // 2)) - 1)),
                            st.integers(1, n - 1))),
           st.booleans(), st.randoms(use_true_random=False))
    def test_clash_pair_has_no_rainbow_path(self, drawn, star, rng):
        # H is a BFS prefix of the host with random colors on its edges;
        # the added vertices get a star patch (one color per vertex) or a
        # random one over their edges into H and among themselves
        (g, h), colors = drawn, [1, 2, 3]
        assume(brute_connected(g))
        order, seen = [0], {0}
        for u in order:
            for w in g.adj[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        hset = set(order[:h])
        added = tuple(sorted(rng.sample(order[h:], rng.randint(1, g.n - h))))
        aset = set(added)
        coloring = {e: rng.choice(colors) for e in g.edges if set(e) <= hset}
        label = {w: rng.choice(colors) for w in added}
        patch = {e: label[min(set(e) & aset)] if star else rng.choice(colors)
                 for e in g.edges if set(e) & aset and set(e) <= hset | aset}
        full = {**coloring, **patch}
        sub = make_graph(g.n, sorted(full))
        universe = hset | aset
        assume(brute_connected(sub, universe))
        state = GrowState(g, hset, coloring, max(coloring.values(), default=0))
        adjc = rainbow.ColoredLayout.build(sub, full).adj
        for u in added:
            pair = rainbow._color_clash(adjc, u, universe)
            if pair is not None:
                assert u in pair and set(pair) <= universe
                assert not has_rainbow_path(sub, full, *pair)
        # the check reports the first source's clash pair, else the first
        # source's lowest partner that no rainbow path joins
        witness = find_rainbow_witness(sub, EdgeColoring(full), vertices=universe, sources=aset)
        assert witness == clash_first_witness(
            sub, full, universe, aset, lambda u: rainbow._color_clash(adjc, u, universe))
        # the growth check reports the witness of the public call
        assert construct._try_coloring(state, added, patch) == witness

    @pytest.mark.parametrize("accepted", ["k4_seed", "repair_patch"])
    def test_accepted_check_skips_the_bound(self, accepted, monkeypatch):
        # a pass that misses nothing proves its source has no clash pair,
        # so an accepted growth check never runs the bound
        clashes = []
        real = rainbow._color_clash
        monkeypatch.setattr(rainbow, "_color_clash",
                            lambda *args: clashes.append(args[1]) or real(*args))
        if accepted == "k4_seed":
            seed_subgraph(gen_family("complete", 4))
        else:
            state = state_on([(4, 1), (4, 2), (5, 0), (5, 3)])
            patch = {(0, 5): 3, (1, 4): 4, (2, 4): 4, (3, 5): 3}
            assert construct._try_coloring(state, (4, 5), patch) is None
        assert clashes == []


    def test_unreachable_pair_without_a_shared_color(self, monkeypatch):
        # H is the triangle {0, 1, 2} in color 1. Added 3 links to 0, 1, 2
        # on color 2; added 4 links to 0, 1 and to 5 on color 3; added 5
        # links to 1, 2 on color 2. The single-colored 3 and 4 differ in
        # color, yet 5 is entered only on color 2 or from the
        # single-colored 4, so no rainbow path leaves 3 for 5: 3's pass
        # misses 5, and the bound then rejects the pair without an exact search
        h_colors = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        patch = {(0, 3): 2, (1, 3): 2, (2, 3): 2, (0, 4): 3, (1, 4): 3, (4, 5): 3,
                 (1, 5): 2, (2, 5): 2}
        g = make_graph(6, [*h_colors, *patch])
        state = GrowState(g, {0, 1, 2}, dict(h_colors), 1)
        searches = count_searches(monkeypatch)
        assert construct._try_coloring(state, (3, 4, 5), patch) == (3, 5)
        assert searches == ["_first_walk_misses"]
        assert not has_rainbow_path(g, {**h_colors, **patch}, 3, 5)

    def test_walk_from_a_pendant_of_its_only_neighbour(self, monkeypatch):
        # H is the triangle {0, 1, 2} in color 1; added 4 links to 0, 1, 2
        # and to the pendant 3, all on color 3. Every single-colored vertex
        # (3 and 4) is a source or its neighbour, yet the walk from 3 stops
        # at 4, so no rainbow path joins 3 to H: 3's pass misses 0, 1 and
        # 2, and the bound then rejects (0, 3) without an exact search
        h_colors = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        patch = {(0, 4): 3, (1, 4): 3, (2, 4): 3, (3, 4): 3}
        g = make_graph(5, [*h_colors, *patch])
        state = GrowState(g, {0, 1, 2}, dict(h_colors), 1)
        searches = count_searches(monkeypatch)
        assert construct._try_coloring(state, (3, 4), patch) == (0, 3)
        assert searches == ["_first_walk_misses"]


class TestFinalAbsorb:
    def test_k4_last_vertex(self):
        state = seed_subgraph(gen_family("complete", 4))
        final_absorb(state)
        assert state.colors_used == 2
        assert set(state.coloring) == set(state.host.edges)

    def test_noop_colors_leftovers(self):
        g = gen_family("complete", 4)
        state = GrowState(g, set(range(4)),
                          {(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 2, (1, 3): 2}, 2)
        final_absorb(state)
        assert state.coloring[(2, 3)] == 1
        assert state.colors_used == 2

    def test_too_many_rejected(self):
        state = seed_subgraph(gen_family("complete", 8))
        with pytest.raises(ValueError, match="at most 3"):
            final_absorb(state)


class TestRunConstructive:
    def test_k4(self):
        res = run_constructive(gen_family("complete", 4))
        assert res.colors_used == 2 <= res.bound == 3

    def test_wheel6_dominates_exact(self):
        g = gen_family("wheel", 6)
        res = run_constructive(g)
        assert res.colors_used <= color_bound(6) == 4
        assert rc_exact(g)[0] <= res.colors_used

    def test_petersen(self):
        g = gen_family("petersen")
        res = run_constructive(g)
        assert res.colors_used <= res.bound == 6
        assert rc_exact(g)[0] == 3 <= res.colors_used
        assert find_rainbow_witness(g, res.coloring) is None

    @pytest.mark.parametrize("recolor, message", [
        # one color on every edge leaves two rim vertices without a rainbow path
        (lambda edges: dict.fromkeys(edges, 1),
         r"final coloring failed verification at \(\d+, \d+\)"),
        # a distinct color on every edge is rainbow connected but takes all 14
        (lambda edges: {e: i + 1 for i, e in enumerate(edges)},
         "color total 14 breaks the bound 5"),
    ], ids=["unverified", "over_bound"])
    def test_final_failure_carries_the_trace(self, recolor, message, monkeypatch):
        g = gen_family("wheel", 8)
        trace = run_constructive(g).trace
        real = construct.final_absorb

        def recolored(state):
            real(state)
            state.coloring.update(recolor(sorted(state.coloring)))

        monkeypatch.setattr(construct, "final_absorb", recolored)
        with pytest.raises(ConstructionError, match=message) as info:
            run_constructive(g)
        assert info.value.trace == trace

    def test_sparse_nine_vertex_graph(self, monkeypatch):
        g = make_graph(9, SPARSE_NINE_EDGES)
        assert vertex_connectivity(g) == 3 and rc_exact(g)[0] == 3
        calls = count_calls(monkeypatch)
        res = run_constructive(g)
        assert res.colors_used <= res.bound == 6
        # the fallback absorption's repair search fails at 2 fresh colors and
        # succeeds at 3. It checks no renaming of a patch it already rejected,
        # and no patch that puts one color on every edge at two non-adjacent
        # added vertices
        assert "kind=fallback_absorb added=2,4,5,1 new_colors=3" in res.trace_lines()[1]
        assert len(calls) == 27

    @pytest.mark.parametrize("name", ["regular-s5-2700", "regular-s5-2823"])
    def test_failed_fallback_retries_another_four_set(self, name, monkeypatch):
        # regular draws whose first fallback 4-set colors under no star
        # pattern; dropping one of its vertices gives a set that does
        g = parse_graph((CORPUS / f"{name}.txt").read_text())
        tried = []
        real = construct._fallback_sets

        def recorded(state, first):
            # first comes first and no set comes twice
            sets = []
            tried.append(sets)
            for take in real(state, first):
                assert take == first if not sets else take not in sets
                assert set(take).isdisjoint(state.vertices)
                sets.append(take)
                yield take

        monkeypatch.setattr(construct, "_fallback_sets", recorded)
        res = run_constructive(g)
        assert res.colors_used <= res.bound
        retried = [sets for sets in tried if len(sets) > 1]
        assert retried and all(len(sets) <= 5 for sets in retried)
        assert any(rec.kind == "fallback_absorb" and rec.added == retried[-1][-1]
                   for rec in res.trace)

    @pytest.mark.xfail(strict=True, raises=ConstructionError,
                       reason="ROADMAP item 2: no 4-set the bounded retry tries colors; "
                              "15 of the 31 reachable 4-sets do")
    def test_sparse_draw_beyond_the_retry(self):
        g = parse_graph((CORPUS / "sparse-s11-1193.txt").read_text())
        res = run_constructive(g)
        assert res.colors_used <= res.bound

    def test_relabeled_gp32_3(self):
        g = make_graph(64, GP32_3_RELABELED_EDGES)
        assert g.m == 96 and vertex_connectivity(g) == 3
        res = run_constructive(g)
        assert res.colors_used <= res.bound == 39

    def test_ear_fallback_pinned(self):
        g = EAR_FALLBACK_GRAPH
        assert vertex_connectivity(g) == 3
        res = run_constructive(g)
        assert [rec.kind for rec in res.trace] == ["seed_triangle", "ear_fallback",
                                                   "final_absorb"]
        assert res.trace[1].fallback
        assert res.colors_used == res.bound == 6
        assert find_rainbow_witness(g, res.coloring) is None

    @pytest.mark.parametrize("n,extra,seed,k,bound", [(120, 30, 3, 61, 72),
                                                     (160, 40, 2, 82, 96),
                                                     (120, 30, 9, 62, 72),
                                                     (200, 50, 2, 104, 120)])
    def test_hard_random3c_in_bounded_time_and_memory(self, n, extra, seed, k, bound):
        # final-absorption candidates whose exhaustive check once ran past
        # 20 s (100 s for the first two); the checker's color-clash bound
        # now rejects them without a search
        setup = ("from rcbound.construct import run_constructive\n"
                 "from rcbound.graphs import gen_family\n"
                 f"g = gen_family('random3c', {n}, {extra}, seed={seed})\n")
        body = "r = run_constructive(g)\nprint(r.colors_used, r.bound)\n"
        assert run_capped(setup, body, headroom_mb=64, timeout=60) == [str(k), str(bound)]

    @pytest.mark.parametrize("graph,k,bound", [
        pytest.param("gen_family('prism', 100)", 101, 120, id="prism100"),
        pytest.param("gen_family('prism', 150)", 151, 180, id="prism150"),
        pytest.param(MOBIUS_200, 101, 120, id="mobius200"),
    ])
    def test_long_ladder_checks_in_bounded_time(self, graph, k, bound):
        # exact searches on these long ladders once took about 130 s in the
        # final check of prism 100 and 110 s in that of the Moebius ladder,
        # and prism 150's move checks took 35 s, while layouts listed each
        # vertex's edges by label. Listed in the order they were colored,
        # the edges lead every check's first-walk passes along H's growth,
        # and the passes settle every pair without an exact search
        setup = ("from rcbound.construct import run_constructive\n"
                 "from rcbound.graphs import gen_family, make_graph\n"
                 "from rcbound.rainbow import find_rainbow_witness\n"
                 f"g = {graph}\n")
        body = ("r = run_constructive(g)\n"
                "print(r.colors_used, r.bound, find_rainbow_witness(g, r.coloring))\n")
        assert run_capped(setup, body, headroom_mb=64, timeout=60) == [str(k), str(bound), "None"]

    @pytest.mark.parametrize("graph,seed", [
        pytest.param("gen_family('prism', 100)", 1, id="prism100-s1"),
        pytest.param(MOBIUS_200, 3, id="mobius200-s3"),
        pytest.param(MOBIUS_200, 9, id="mobius200-s9"),
    ])
    def test_relabeled_ladder_checks_in_bounded_time(self, graph, seed):
        # long ladders under a shuffle of their labels, drawn the way
        # layerbench relabels its families: growth orders that once left
        # the final check (prism 100, Moebius-200 s = 3; ROADMAP item 1)
        # or a final-absorption check (Moebius-200 s = 9; item 11) exact
        # searches of a minute or more. Each now constructs in under 1 s;
        # run_constructive raises unless its own final check passes
        setup = ("import random\n"
                 "from rcbound.construct import run_constructive\n"
                 "from rcbound.graphs import gen_family, make_graph\n"
                 f"p = {graph}\n"
                 "perm = list(range(p.n))\n"
                 f"random.Random({seed}).shuffle(perm)\n"
                 "g = make_graph(p.n, [(perm[u], perm[v]) for u, v in p.edges])\n")
        body = ("r = run_constructive(g)\n"
                "print(r.colors_used, r.bound)\n")
        k, bound = run_capped(setup, body, headroom_mb=64, timeout=60)
        assert int(k) <= int(bound) == 120

    @pytest.mark.parametrize("graph, seed", [
        pytest.param(gen_family("prism", 100), 1, id="prism100-s1"),
        pytest.param(gen_family("prism", 100), 3, id="prism100-s3"),
        pytest.param(mobius_ladder(200), 3, id="mobius200-s3")])
    def test_relabeled_ladder_grows_without_exact_searches(self, graph, seed, monkeypatch):
        # H's layout lists each vertex's edges in the order they were
        # colored, and on relabeled ladders the first-walk passes then
        # settle every pair of every check. With layouts sorted by label,
        # prism 100 (s = 3) and Moebius-200 (s = 3) ran 53 and 51 exact
        # searches, in the same colorings
        searches = count_searches(monkeypatch)
        run_constructive(relabeled(graph, seed))
        assert searches and "_rainbow_reach" not in searches

    @pytest.mark.xfail(strict=True, raises=subprocess.TimeoutExpired,
                       reason="ROADMAP item 1: the checker falls back on exact searches that "
                              "take 16-18 s on this relabeled prism 80 coloring")
    def test_relabeled_ladder_coloring_checks_in_bounded_time(self):
        # relabeled prism 80 (s = 1) with the coloring the construction gave
        # while kept fans were searched again: both first-walk passes miss
        # a few pairs, and each needs an exact search. Capped at 5 s while
        # the cliff stands; item 1 makes this a plain test
        setup = ("from rcbound.graphs import parse_graph\n"
                 "from rcbound.rainbow import find_rainbow_witness, parse_coloring\n"
                 f"g = parse_graph(open({str(CORPUS / 'prism80-relabeled1.txt')!r}).read())\n"
                 "c = parse_coloring(open("
                 f"{str(CORPUS / 'prism80-relabeled1.coloring')!r}).read(), g)\n")
        body = "print(find_rainbow_witness(g, c))\n"
        assert run_capped(setup, body, headroom_mb=64, timeout=5) == ["None"]

    def test_low_connectivity_refused(self):
        with pytest.raises(PreconditionError, match="force"):
            run_constructive(gen_family("cycle", 8))

    def test_force_still_verified(self):
        res = run_constructive(gen_family("cycle", 8), force=True)
        assert not res.bound_guaranteed
        assert find_rainbow_witness(gen_family("cycle", 8), res.coloring) is None

    def test_force_falls_back_to_spanning_tree(self, caplog):
        # an 8-cycle with the chord (0, 2): the seed triangle reaches the
        # path 3..7 at both ends, and no 4-set of it that the fallback
        # absorption tries colors
        g = make_graph(8, [(0, 1), (0, 2), (0, 7), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                           (6, 7)])
        res = run_constructive(g, force=True)
        assert "repair failed on a fallback absorption" in caplog.text
        assert [rec.kind for rec in res.trace] == ["spanning_tree"]
        assert res.colors_used == g.n - 1 and res.kappa == 2
        assert find_rainbow_witness(g, res.coloring) is None

    def test_force_refuses_disconnected(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(PreconditionError, match="disconnected"):
            run_constructive(g, force=True)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_force_colors_every_small_connected_graph(self, n):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = graph_from_mask(n, mask)
            if not brute_connected(g):
                continue
            res = run_constructive(g, force=True)
            assert find_rainbow_witness(g, res.coloring) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 7).flatmap(
        lambda n: st.builds(graph_from_mask, st.just(n),
                            st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))
    def test_force_colors_connected_graphs(self, g):
        assume(brute_connected(g))
        res = run_constructive(g, force=True)
        assert find_rainbow_witness(g, res.coloring) is None

    def test_single_vertex_refused(self):
        with pytest.raises(PreconditionError, match="connectivity 0 < 3"):
            run_constructive(make_graph(1, []))

    def test_force_single_vertex_gets_empty_coloring(self, monkeypatch):
        calls = count_calls(monkeypatch)
        res = run_constructive(make_graph(1, []), force=True)
        assert res.coloring.colors == {} and res.colors_used == 0 and res.kappa == 0
        assert [rec.kind for rec in res.trace] == ["spanning_tree"]
        assert len(calls) == 1

    def test_force_triangle_seeds_and_closes(self):
        for g, kinds, k in [
            (gen_family("complete", 3), ["seed_triangle", "final_absorb"], 1),
            # the 5-cycle has no pendant to take, so its seed keeps 3 colors
            # over the budget 5k <= 3h - 1 instead of a spanning tree's 4
            (gen_family("cycle", 5), ["seed_cycle", "final_absorb"], 3),
        ]:
            res = run_constructive(g, force=True)
            assert [rec.kind for rec in res.trace] == kinds
            assert res.colors_used == k
            assert find_rainbow_witness(g, res.coloring) is None

    @pytest.mark.parametrize("edges", [
        [(0, 1)],
        [(0, 1), (1, 2)],
        [(0, 1), (0, 2), (0, 3), (0, 4)],
    ])
    def test_force_tree_gets_spanning_tree(self, edges):
        g = make_graph(max(map(max, edges)) + 1, edges)
        res = run_constructive(g, force=True)
        assert [rec.kind for rec in res.trace] == ["spanning_tree"]
        assert res.colors_used == g.n - 1
        assert find_rainbow_witness(g, res.coloring) is None

    @pytest.mark.parametrize("family,n,kind", [("prism", 4, "fallback_absorb"),
                                               ("complete", 4, "final_absorb")])
    def test_trace_counts_repair_searches(self, family, n, kind, monkeypatch):
        repairs = count_calls(monkeypatch, "repair_step")
        res = run_constructive(gen_family(family, n))
        assert kind in [rec.kind for rec in res.trace]
        assert len(repairs) == traced_repairs(res.trace) == 1

    def test_trace_counts_repair_searches_on_corpus(self, monkeypatch):
        repairs = count_calls(monkeypatch, "repair_step")
        for gid, recipe in builtin_corpus(42):
            repairs.clear()
            res = run_constructive(_build(recipe))
            assert len(repairs) == traced_repairs(res.trace), gid

    def test_kept_layout_matches_a_rebuild(self, monkeypatch):
        # over the builtin corpus and two inputs whose accepted repair
        # patch renumbers its fresh colors, every checked step commits the
        # patch it checked last, and after its commit the layout that
        # check read is the layout built afresh from the coloring the
        # state kept, bits included: H's coloring, then the patch
        real = construct._commit
        tries = count_calls(monkeypatch, "_try_coloring")
        checks = count_calls(monkeypatch)
        commits, checked_patches = [], []

        def checked(state, kind, added, patch):
            read = checks[-1][1] if tries else None
            if tries:
                assert tries[-1][2] == patch, kind
                checked_patches.append((kind, patch))
            tries.clear()
            real(state, kind, added, patch)
            commits.append(state.h)
            if read is not None:
                fresh = rainbow.ColoredLayout.build(state.host, state.coloring)
                assert read.adj == fresh.adj and read.bits == fresh.bits, kind

        monkeypatch.setattr(construct, "_commit", checked)
        inputs = [(gid, _build(recipe)) for gid, recipe in builtin_corpus(42)]
        # a fallback absorption that widens to 3 fresh colors
        inputs.append(("sparse-nine", make_graph(9, SPARSE_NINE_EDGES)))
        for gid, g in inputs:
            commits.clear()
            res = run_constructive(g)
            assert len(commits) == len(res.trace), gid
        # test_accepted_patch_renumbered_in_edge_order's search, committed
        commits.clear()
        final_absorb(state_on([(4, 1), (4, 2), (5, 0), (5, 3)]))
        assert commits == [6]
        # its labels give 4 color 3 and 5 color 4, checked renumbered
        assert checked_patches[-1] == ("final_absorb", {(0, 5): 3, (1, 4): 4, (2, 4): 4,
                                                        (3, 5): 3})

    @pytest.mark.parametrize("name,checks,scripts", [("corpus", 41, 57), ("sparse-nine", 26, 0),
                                                     ("families-1", 51, 98), ("prism-3", 2, 0),
                                                     ("wheel-12", 1, 1)],
                             ids=["corpus", "sparse-nine", "families-1", "prism-3", "wheel-12"])
    def test_one_layout_per_check(self, name, checks, scripts, monkeypatch):
        # every growth check builds one layout, from H's coloring followed
        # by the patch, and no graph or EdgeColoring: each vertex lists its
        # H edges before its patch edges, and every H color's bit lies below
        # 1 << core_colors, as the checker's core promise asks. A scripted
        # move builds nothing and calls no checker, a checked step commits
        # the patch it checked last, and after every commit H passes a full
        # check on a graph and a coloring built afresh. sparse-nine's
        # fallback absorption widens to 3 fresh colors
        inputs = {"corpus": lambda: [_build(recipe) for _, recipe in builtin_corpus(42)],
                  "sparse-nine": lambda: [make_graph(9, SPARSE_NINE_EDGES)],
                  "prism-3": lambda: [gen_family("prism", 3)],
                  "wheel-12": lambda: [gen_family("wheel", 12)],
                  "families-1": lambda: layerbench_graphs("families", 1)}[name]()
        made, steps = Counter(), Counter()  # builds and calls; committed steps
        quiet, reads, tried = [], [], []  # the checker's layouts; the patches checked
        real_build, real_graph = rainbow.ColoredLayout.build, graphs.make_graph
        real_post = rainbow.EdgeColoring.__post_init__
        real_check, real_try = construct.find_rainbow_witness, construct._try_coloring
        real_apply, real_commit = construct.apply_extension, construct._commit

        def count(kind):
            if not quiet:
                made[kind] += 1

        def check(g, layout, **kwargs):
            count("check")
            reads.append((layout, kwargs.get("core_colors")))
            return real_check(g, layout, **kwargs)

        def try_coloring(state, added, patch):
            before = made.copy()
            count("attempt")
            witness = real_try(state, added, patch)
            assert made - before == Counter(attempt=1, layout=1, check=1)
            layout, core_colors = reads[-1]
            assert core_colors == state.colors_used
            assert all(layout.bits[c] < 1 << core_colors for c in state.coloring.values())
            for v, listed in enumerate(layout.adj):
                late = [norm_edge(v, w) in patch for w, _ in listed]
                assert late == sorted(late), v
            tried.append(patch)
            return witness

        def apply(state, plan):
            before = made.copy()
            real_apply(state, plan)
            if plan.slots:
                assert made == before, plan.kind
                steps["script"] += 1
            return state

        def commit(state, kind, added, patch):
            if not scripted(kind) and tried:
                assert tried[-1] == patch, kind
                steps["checked"] += 1
            tried.clear()
            real_commit(state, kind, added, patch)
            quiet.append(kind)
            assert h_witness(state) is None, kind
            quiet.pop()

        monkeypatch.setattr(rainbow.ColoredLayout, "build", classmethod(
            lambda cls, *args: count("layout") or real_build(*args)))
        monkeypatch.setattr(rainbow.EdgeColoring, "__post_init__",
                            lambda self: count("coloring") or real_post(self))
        for mod in (graphs, construct, rainbow):
            monkeypatch.setattr(mod, "make_graph", raising=False,
                                value=lambda *args: count("graph") or real_graph(*args))
        for fn_name, fn in [("find_rainbow_witness", check), ("_try_coloring", try_coloring),
                            ("apply_extension", apply), ("_commit", commit)]:
            monkeypatch.setattr(construct, fn_name, fn)
        for g in inputs:
            run_constructive(g)
        assert (made["attempt"], steps["script"]) == (checks, scripts)
        assert steps["checked"] >= len(inputs)

    def test_progress_and_trace_format(self):
        g = gen_family("random3c", 20, 5, seed=3)
        res = run_constructive(g)
        hs = [rec.h for rec in res.trace]
        assert hs == sorted(hs)
        assert len(res.trace) <= g.n
        line = res.trace[0].format()
        assert line.startswith("step=0 kind=seed")
        for rec in res.trace:
            assert f"budget_lhs={5 * rec.k}" in rec.format()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(7, 9), st.integers(0, 3), st.integers(0, 10 ** 6))
    def test_bound_and_domination_randomized(self, n, extra, seed):
        g = gen_family("random3c", n, extra, seed=seed)
        res = run_constructive(g)
        assert 5 * res.colors_used <= 3 * n + 3
        assert find_rainbow_witness(g, res.coloring) is None
        assert rc_exact(g)[0] <= res.colors_used
