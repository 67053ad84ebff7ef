import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rcbound import rainbow
from rcbound.connectivity import vertex_connectivity
from rcbound.construct import cycle_color_sequence, run_constructive
from rcbound.graphs import GraphFormatError, gen_family, make_graph, norm_edge
from rcbound.rainbow import (BudgetExhaustedError, ColoredLayout, EdgeColoring, NoColoringError,
                             _rainbow_reach, _witness_walk, find_rainbow_witness, parse_coloring,
                             rc_exact, serialize_coloring)

from _capped import run_capped
from _oracles import (bfs_first_walks, brute_connected, brute_diameter, brute_rainbow_witness,
                      brute_rc, canonical_colorings, core_rule_soak, has_capped_rainbow_path,
                      has_rainbow_path, layerbench_graphs, record_growth_checks,
                      reference_rc_exact)
from test_graphs import graph_from_mask


# the pinned Q6 labeling of the families benchmark, as child-process setup
Q6_PINNED = """
import random
from rcbound.construct import run_constructive
from rcbound.graphs import make_graph
edges = [(v, v | 1 << b) for v in range(64) for b in range(6) if not v & 1 << b]
perm = list(range(64))
random.Random(1).shuffle(perm)
g = make_graph(64, [(perm[u], perm[v]) for u, v in edges])
"""


def c6_striped():
    return EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 3,
                         (3, 4): 1, (4, 5): 2, (0, 5): 3})


def incidence(g):
    """Per vertex its (neighbour, edge id) pairs, edges numbered as in g.edges."""
    inc = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append((v, i))
        inc[v].append((u, i))
    return inc


def k3m(m):
    """K3,m with sides 0..2 and 3..m+2."""
    return make_graph(m + 3, [(i, j) for i in range(3) for j in range(3, m + 3)])


def joined(g, coloring, u, v):
    """A pair query: one checker call on the universe {u, v} with source u."""
    return find_rainbow_witness(g, coloring, vertices={u, v}, sources={u}) is None


class TestRainbowPath:
    def test_striped_c6_antipodal(self):
        g = gen_family("cycle", 6)
        col = c6_striped()
        # oracle: one of the two arcs must be rainbow
        assert brute_rainbow_witness(g, col.colors) is None
        assert joined(g, col, 0, 3)

    def test_monochrome_path_fails(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        col = EdgeColoring({e: 1 for e in g.edges})
        assert not joined(g, col, 0, 3)

    def test_same_vertex(self):
        g = gen_family("cycle", 5)
        col = EdgeColoring({e: 1 for e in g.edges})
        assert joined(g, col, 2, 2)

    def test_out_of_range(self):
        g = gen_family("cycle", 5)
        col = EdgeColoring({e: 1 for e in g.edges})
        with pytest.raises(ValueError, match="0..4"):
            joined(g, col, 0, 9)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2 ** 21 - 1), st.integers(1, 6),
           st.randoms(use_true_random=False))
    def test_matches_path_enumeration(self, n, mask, palette, rng):
        # any graph, connected or not; u == v counts as joined
        g = graph_from_mask(n, mask % (1 << (n * (n - 1) // 2)))
        col = EdgeColoring({e: rng.randint(1, palette) for e in g.edges})
        u, v = rng.randrange(n), rng.randrange(n)
        assert joined(g, col, u, v) == (u == v or has_rainbow_path(g, col.colors, u, v))


class TestRainbowReach:
    """The checker's search `_rainbow_reach` and rc_exact's walk search
    `_witness_walk`, which runs the same search on a partial coloring."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2 ** 21 - 1), st.integers(1, 6),
           st.booleans(), st.randoms(use_true_random=False))
    def test_matches_path_enumeration(self, n, mask, palette, with_source, rng):
        # any graph, connected or not; the target set may be empty and may
        # hold the source, which counts as reached
        g = graph_from_mask(n, mask % (1 << (n * (n - 1) // 2)))
        col = EdgeColoring({e: rng.randint(1, palette) for e in g.edges})
        source = rng.randrange(n)
        targets = set(rng.sample(range(n), rng.randint(0, n))) - {source}
        if with_source:
            targets.add(source)
        asked = set(targets)
        reached = _rainbow_reach(ColoredLayout.build(g, col.colors).adj, source, targets)
        assert targets == asked
        assert reached == {t for t in targets
                           if t == source or has_rainbow_path(g, col.colors, source, t)}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.integers(0, 2 ** 21 - 1), st.integers(1, 6),
           st.integers(1, 4), st.randoms(use_true_random=False))
    def test_capped_wildcard_walks_match_paths(self, n, mask, palette, max_len, rng):
        # rc_exact's walk search on a partial coloring: color 0 marks an
        # uncolored edge, which never blocks a walk
        g = graph_from_mask(n, mask % (1 << (n * (n - 1) // 2)))
        col = [rng.randint(0, palette) for _ in g.edges]
        colored = {e: c for e, c in zip(g.edges, col) if c}
        inc, source = incidence(g), rng.randrange(n)
        for target in set(range(n)) - {source}:
            walk = _witness_walk(inc, col, source, target, max_len)
            assert (walk is not None) == has_capped_rainbow_path(g, colored, source, target,
                                                                 max_len)
            if walk is not None:
                assert len(walk) <= max_len
                at = source
                for e in walk:
                    u, v = g.edges[e]
                    assert at in (u, v)
                    at = u + v - at
                assert at == target
                used = [col[e] for e in walk if col[e]]
                assert len(set(used)) == len(used)

    def test_source_among_targets(self):
        g = make_graph(3, [(1, 2)])
        adjc = ColoredLayout.build(g, {(1, 2): 1}).adj
        assert _rainbow_reach(adjc, 0, {0}) == {0}
        assert _rainbow_reach(adjc, 0, {0, 1}) == {0}
        assert _rainbow_reach(adjc, 1, {1, 2}) == {1, 2}  # returns on reaching 2
        assert _rainbow_reach(adjc, 1, set()) == set()

    def test_kept_walk_colors_are_a_subset_of_the_dropped(self):
        # 0-1 and 1-3 share color 1; 0-2 and 2-1 are uncolored. The direct
        # walk reaches 1 first with colors {1}, the uncolored walk 0-2-1 one
        # level later with none, and only the latter goes on to 3. A rule
        # dropping the later walk because {} is a subset of {1} misses 3.
        g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
        col = [1, 0, 0, 1]
        assert _witness_walk(incidence(g), col, 0, 3, 3) == [1, 2, 3]
        assert _witness_walk(incidence(g), col, 0, 3, 2) is None

    def test_pinned_q6_in_bounded_memory(self):
        # Q6 under one fixed labeling, whose final absorption once made
        # failing checks that held about 150 MB of search states; the
        # construction must finish within 64 MB of address space above what
        # the process holds when it starts. Pass-through wrappers count the
        # exact searches and color-clash bounds it runs: none of either, as
        # its seed, repair and final checks all pass on first-walk passes
        body = ("from rcbound import rainbow\n"
                "calls = {'_rainbow_reach': 0, '_color_clash': 0}\n"
                "def counted(name, real):\n"
                "    def call(*args):\n"
                "        calls[name] += 1\n"
                "        return real(*args)\n"
                "    return call\n"
                "for name in calls:\n"
                "    setattr(rainbow, name, counted(name, getattr(rainbow, name)))\n"
                "r = run_constructive(g)\n"
                "print(r.colors_used, r.bound, *calls.values())\n")
        assert run_capped(Q6_PINNED, body, headroom_mb=64, timeout=120) == ["33", "39", "0", "0"]

    def test_pinned_q6_searches_in_bounded_memory(self):
        # the same run's coloring with the last absorbed vertex's edges
        # recolored to one color, for each color in turn, checked from that
        # vertex with the checker's color-clash bound turned off, so the
        # failing candidates reach the exact search; the stub counts its
        # calls to show that it stood in for the bound. Every verdict is the
        # full check's, and all of it fits in the same 64 MB
        body = ("from rcbound import rainbow\n"
                "from rcbound.rainbow import EdgeColoring, find_rainbow_witness\n"
                "stubbed, searches = [], []\n"
                "rainbow._color_clash = lambda *args: stubbed.append(args)\n"
                "real = rainbow._rainbow_reach\n"
                "rainbow._rainbow_reach = lambda *args: searches.append(args) or real(*args)\n"
                "r = run_constructive(g)\n"
                "v = r.trace[-1].added[-1]\n"
                "failing = []\n"
                "for c in range(1, r.colors_used + 1):\n"
                "    col = EdgeColoring({e: c if v in e else d\n"
                "                        for e, d in r.coloring.colors.items()})\n"
                "    before = len(searches)\n"
                "    witness = find_rainbow_witness(g, col, sources={v})\n"
                "    if witness:\n"
                "        failing.append(len(searches) - before)\n"
                "    assert (witness is None) == (find_rainbow_witness(g, col) is None), c\n"
                "print(r.colors_used, r.bound, len(failing) > 0, len(stubbed) > 0,\n"
                "      all(failing))\n")
        assert run_capped(Q6_PINNED, body, headroom_mb=64,
                          timeout=120) == ["33", "39", "True", "True", "True"]


class TestWitness:
    def test_complete_monochrome_ok(self):
        g = gen_family("complete", 4)
        assert find_rainbow_witness(g, EdgeColoring({e: 1 for e in g.edges})) is None

    def test_c5_monochrome_witness(self):
        g = gen_family("cycle", 5)
        col = EdgeColoring({e: 1 for e in g.edges})
        assert find_rainbow_witness(g, col) == (0, 2)

    def test_striped_c6_ok(self):
        assert find_rainbow_witness(gen_family("cycle", 6), c6_striped()) is None

    def test_full_check_skips_the_color_clash_bound(self, monkeypatch):
        # every vertex of the monochrome C5 has one color and is cut off
        # from the two it does not touch; only a check from sources asks
        # the bound, and a full one reports the smallest failing pair
        g = gen_family("cycle", 5)
        col = EdgeColoring({e: 1 for e in g.edges})
        bounds = []
        real = rainbow._color_clash
        monkeypatch.setattr(rainbow, "_color_clash",
                            lambda *args: bounds.append(args) or real(*args))
        assert find_rainbow_witness(g, col) == (0, 2)
        assert find_rainbow_witness(g, col, vertices=[0, 1, 2, 3, 4]) == (0, 2)
        assert bounds == []
        assert find_rainbow_witness(g, col, sources={2, 4}) == (0, 2)
        assert len(bounds) == 1

    def test_disconnected_gets_a_witness(self):
        # no colored path joins 0 to 2, so the searches report that pair,
        # as the brute oracle does, in full and in sources mode
        g = make_graph(4, [(0, 1), (2, 3)])
        col = EdgeColoring({e: 1 for e in g.edges})
        assert find_rainbow_witness(g, col) == brute_rainbow_witness(g, col.colors) == (0, 2)
        assert find_rainbow_witness(g, col, sources={3}) == (0, 3)

    def test_wrong_edge_set_rejected(self):
        g = gen_family("cycle", 5)
        with pytest.raises(ValueError, match="edge set"):
            find_rainbow_witness(g, EdgeColoring({(0, 1): 1}))

    @pytest.mark.parametrize("color", [0, -3])
    def test_non_positive_color_rejected(self, color):
        g = gen_family("cycle", 5)
        col = EdgeColoring({e: color if e == (0, 1) else 1 for e in g.edges})
        with pytest.raises(ValueError, match="positive"):
            find_rainbow_witness(g, col)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 6), st.integers(0, 2 ** 15 - 1), st.randoms(use_true_random=False))
    def test_matches_path_enumeration(self, n, mask, rng):
        # any graph, connected or not, edgeless included
        g = graph_from_mask(n, mask % (1 << (n * (n - 1) // 2)))
        col = EdgeColoring({e: rng.randint(1, max(1, g.m // 2)) for e in g.edges})
        assert find_rainbow_witness(g, col) == brute_rainbow_witness(g, col.colors)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 2 ** 21 - 1), st.randoms(use_true_random=False))
    def test_sources_match_path_enumeration(self, n, mask, rng):
        g = graph_from_mask(n, mask % (1 << (n * (n - 1) // 2)))
        col = EdgeColoring({e: rng.randint(1, max(1, g.m // 2)) for e in g.edges})
        sources = set(rng.sample(range(n), rng.randint(1, n)))
        failing = {(u, v) for u, v in combinations(range(n), 2)
                   if (u in sources or v in sources)
                   and not has_rainbow_path(g, col.colors, u, v)}
        witness = find_rainbow_witness(g, col, sources=sources)
        assert (witness is None) == (not failing)
        assert witness is None or witness in failing

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 10), st.randoms(use_true_random=False))
    def test_neighbour_order_changes_no_answer(self, n, rng):
        # a grown subgraph's layout lists edges in the order they were
        # colored, a built one in the coloring's order: shuffling every
        # list of a layout must leave full, universe and sources checks
        # with the same answer. Sparse graphs in few colors make the
        # first-walk passes miss, so the order has work to change
        g = make_graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        col = EdgeColoring({e: rng.randint(1, max(1, g.m // 2)) for e in g.edges})
        built = ColoredLayout.build(g, col.colors)
        universe = rng.sample(range(n), rng.randint(1, n))
        sources = set(rng.sample(universe, rng.randint(1, len(universe))))
        for _ in range(3):
            shuffled = ColoredLayout(g, [rng.sample(lst, len(lst)) for lst in built.adj],
                                     built.bits)
            for kwargs in ({}, {"vertices": universe},
                           {"vertices": universe, "sources": sources}):
                assert (find_rainbow_witness(g, shuffled, **kwargs)
                        == find_rainbow_witness(g, built, **kwargs)), kwargs

    # a two-sided trap: the first walk from 0 to 3 runs 0-1-3 with colors
    # {1, 2} and the first from 6 runs 6-4-3 with {1, 3}, so neither pass
    # gets past 3 to the other end; only the walk 0-2-3-5-6 joins them
    TRAP = make_graph(7, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)])
    TRAP_COLORS = {(0, 1): 1, (1, 3): 2, (0, 2): 3, (2, 3): 4, (3, 4): 3, (3, 5): 5,
                   (4, 6): 1, (5, 6): 2}

    @pytest.mark.parametrize("recolor, witness", [({}, None), ({(3, 5): 4}, (0, 6))],
                             ids=["passing", "failing"])
    def test_first_walk_trap(self, recolor, witness, monkeypatch):
        g, colors = self.TRAP, {**self.TRAP_COLORS, **recolor}
        searched = []
        real = rainbow._rainbow_reach

        def recorded(adjc, source, targets, *args):
            searched.append((source, set(targets)))
            return real(adjc, source, targets, *args)

        monkeypatch.setattr(rainbow, "_rainbow_reach", recorded)
        assert find_rainbow_witness(g, EdgeColoring(colors)) == witness
        assert brute_rainbow_witness(g, colors) == witness
        assert searched == [(0, {6})]

    @pytest.mark.parametrize("sources", [None], ids=["all"])
    def test_pass_from_the_other_end_settles_a_pair(self, sources, monkeypatch):
        # the first walk from 0 to 3 takes colors {1, 2}, which the edge 3-4
        # repeats; the pass from source 4 reaches 0 along 4-3-2-0, so no
        # exact search runs
        g = make_graph(5, [(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)])
        colors = {(0, 1): 1, (1, 3): 2, (0, 2): 3, (2, 3): 4, (3, 4): 1}
        searched = []
        real = rainbow._rainbow_reach
        monkeypatch.setattr(rainbow, "_rainbow_reach",
                            lambda *args: searched.append(args) or real(*args))
        assert rainbow._first_walk_misses(ColoredLayout.build(g, colors).adj,
                                          0, {1, 2, 3, 4}) == {4}
        assert find_rainbow_witness(g, EdgeColoring(colors), sources=sources) is None
        assert searched == []

    def test_sources_skip_pairs_between_other_vertices(self):
        # monochrome C5 fails at (0, 2); from source 4 only 4-1 and 4-2 fail
        g = gen_family("cycle", 5)
        col = EdgeColoring({e: 1 for e in g.edges})
        assert find_rainbow_witness(g, col, sources={4}) == (1, 4)
        assert find_rainbow_witness(g, col, vertices=[0, 1, 4]) == (1, 4)
        assert find_rainbow_witness(g, col, vertices=[0, 1, 4], sources={0}) is None

    def test_sources_outside_universe_rejected(self):
        g = gen_family("cycle", 5)
        col = EdgeColoring({e: 1 for e in g.edges})
        with pytest.raises(ValueError, match="sources"):
            find_rainbow_witness(g, col, vertices=[0, 1, 2], sources={3})

    def test_empty_universe_rejected(self):
        g = gen_family("cycle", 5)
        with pytest.raises(ValueError, match="empty"):
            find_rainbow_witness(g, EdgeColoring({e: 1 for e in g.edges}), vertices=[])

    def test_universe_past_last_vertex_rejected(self):
        g = gen_family("cycle", 5)
        with pytest.raises(ValueError, match="0..4"):
            find_rainbow_witness(g, EdgeColoring({e: 1 for e in g.edges}), vertices=[7])

    def test_negative_universe_vertex_rejected(self):
        # -1 must not wrap around to vertex 4
        g = gen_family("cycle", 5)
        with pytest.raises(ValueError, match="0..4"):
            find_rainbow_witness(g, EdgeColoring({e: 1 for e in g.edges}), vertices=[-1, 0])


class TestCore:
    # H is the star 0-1, 0-2, 0-3 in colors 1, 2, 3: rainbow connected in
    # its own colors, which take the low three bits of a layout built from
    # H's coloring followed by a patch
    STAR = {(0, 1): 1, (0, 2): 2, (0, 3): 3}
    H = {0, 1, 2, 3}

    def grown(self, patch):
        g = make_graph(6, list(self.STAR) + list(patch))
        return g, ColoredLayout.build(g, self.STAR, patch)

    def test_clean_route_settles_the_core(self, monkeypatch):
        # 4's first walk into H takes color 2 at 0, which blocks 0-2, so the
        # pass alone misses 2; its walk 4-1 in fresh color 4 enters H clean,
        # and 4-1-0-2 is rainbow
        g, layout = self.grown({(0, 4): 2, (1, 4): 4})
        assert rainbow._first_walk_misses(layout.adj, 4, self.H) == {2}
        assert rainbow._first_walk_misses(layout.adj, 4, self.H, 0b111, self.H) == set()
        searched = []
        real = rainbow._rainbow_reach
        monkeypatch.setattr(rainbow, "_rainbow_reach",
                            lambda *args: searched.append(args[1]) or real(*args))
        universe = self.H | {4}
        assert find_rainbow_witness(g, layout, vertices=universe, sources={4}, core=self.H,
                                    core_colors=3) is None
        assert searched == []
        assert find_rainbow_witness(g, layout, vertices=universe, sources={4}) is None
        assert searched == [4]

    def test_reused_color_route_leaves_the_core_open(self, monkeypatch):
        # 4 enters H only by 0-4 in color 1, H's own color 1 (REUSE), so 1 is
        # cut off behind it from 4 and from 5; the rule must not fire, and
        # the exact search reports today's witness
        g, layout = self.grown({(0, 4): 1, (4, 5): 4})
        searched = []
        real = rainbow._rainbow_reach
        monkeypatch.setattr(rainbow, "_rainbow_reach",
                            lambda *args: searched.append(args[1]) or real(*args))
        universe = self.H | {4, 5}
        assert find_rainbow_witness(g, layout, vertices=universe, sources={4, 5},
                                    core=self.H, core_colors=3) == (1, 4)
        assert searched == [4]
        assert find_rainbow_witness(g, layout, vertices=universe, sources={4, 5}) == (1, 4)
        colors = {**self.STAR, (0, 4): 1, (4, 5): 4}
        assert not has_rainbow_path(make_graph(6, list(colors)), colors, 1, 4)

    def test_full_check_tests_an_all_ones_mask(self, monkeypatch):
        g = gen_family("prism", 5)
        coloring = run_constructive(g).coloring
        masks = []
        real = rainbow._first_walk_misses
        monkeypatch.setattr(rainbow, "_first_walk_misses",
                            lambda *args: masks.append(args[3:]) or real(*args))
        assert find_rainbow_witness(g, coloring) is None
        assert masks and all(rest == (-1, None) for rest in masks)

    def test_growth_checks_agree_with_and_without_the_core(self):
        # families seed 1 of the layered benchmark and a slice of the
        # six-vertex graphs: each growth check's patch recolored at random
        # from H's colors 1, 2, k and fresh ones, checked both ways
        six = [g for g in (graph_from_mask(6, mask) for mask in range(3, 1 << 15, 7))
               if min(map(len, g.adj)) >= 3 and vertex_connectivity(g) >= 3]
        rng = random.Random(41)
        fam = core_rule_soak(record_growth_checks(layerbench_graphs("families", 1)), rng, 40)
        small = core_rule_soak(record_growth_checks(six), rng, 12)
        assert fam["differ"] == small["differ"] == []
        assert fam["checks"] > 4000 and fam["failing"] > 1000 and small["failing"] > 0
        # the core settles pairs that would go to the exact search
        assert fam["core_searches"] < fam["plain_searches"]


class TestColoredLayout:
    @pytest.mark.parametrize("colors, witness", [((10 ** 30, 10 ** 30), (0, 2)),
                                                 ((1, 10 ** 30), None),
                                                 ((5, 2), None)])
    def test_huge_color_id_takes_one_bit(self, colors, witness):
        # C4 in two colors alternating, or in one: the public check and the
        # check of the built layout give one verdict, and building numbers
        # the colors by first appearance (5 before 2 in the last case), not
        # by id
        g = gen_family("cycle", 4)
        first, second = colors
        full = {(0, 1): first, (2, 3): first, (1, 2): second, (0, 3): second}
        assert find_rainbow_witness(g, EdgeColoring(full)) == witness
        layout = ColoredLayout.build(g, full)
        assert layout.bits == {c: 1 << i for i, c in enumerate(dict.fromkeys(colors))}
        assert find_rainbow_witness(g, layout) == witness

    def test_layout_checks_keep_the_universe_checks(self):
        # only the layout's colored edges count: vertex 3 has none, so the
        # first pair it is in fails
        g = gen_family("cycle", 5)
        layout = ColoredLayout.build(g, {(0, 1): 1, (1, 2): 2})
        assert find_rainbow_witness(g, layout) == (0, 3)
        assert find_rainbow_witness(g, layout, vertices=[0, 1, 2]) is None
        with pytest.raises(ValueError, match="sources"):
            find_rainbow_witness(g, layout, vertices=[0, 1, 2], sources={3})
        with pytest.raises(ValueError, match="0..4"):
            find_rainbow_witness(g, layout, vertices=[5])
        with pytest.raises(ValueError, match="host"):
            find_rainbow_witness(gen_family("cycle", 5), layout, vertices=[0, 1, 2])


class TestCycleColoring:
    def test_triangle_single_color(self):
        assert cycle_color_sequence(3) == [1, 1, 1]

    def test_six(self):
        assert cycle_color_sequence(6) == [1, 2, 3, 1, 2, 3]

    def test_seven(self):
        assert cycle_color_sequence(7) == [1, 2, 3, 4, 1, 2, 3]

    @pytest.mark.parametrize("n", range(3, 13))
    def test_verified_and_tight(self, n):
        # a forced run seeds H with the whole cycle, so it returns the
        # script's coloring after the seed check and the final check
        result = run_constructive(gen_family("cycle", n), force=True)
        seq = cycle_color_sequence(n)
        assert result.coloring.colors == {norm_edge(i, (i + 1) % n): seq[i] for i in range(n)}
        assert result.colors_used == (1 if n == 3 else (n + 1) // 2)

    def test_too_short(self):
        with pytest.raises(ValueError):
            cycle_color_sequence(2)


class TestRcExact:
    def test_single_vertex(self):
        assert rc_exact(gen_family("complete", 1)) == (0, EdgeColoring({}))

    def test_k4(self):
        k, col = rc_exact(gen_family("complete", 4))
        assert k == 1 and col.num_colors == 1

    @pytest.mark.parametrize("n,expected", [(5, 3), (6, 3), (8, 4)])
    def test_cycles(self, n, expected):
        assert rc_exact(gen_family("cycle", n))[0] == expected

    def test_k50_one_color(self):
        # 1 225 edges, one search level each: deeper than Python's stack
        assert rc_exact(gen_family("complete", 50))[0] == 1

    def test_path5(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert rc_exact(g)[0] == 4

    def test_trees_need_all_colors(self):
        star = make_graph(5, [(0, i) for i in range(1, 5)])
        assert rc_exact(star)[0] == 4
        spider = make_graph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
        assert rc_exact(spider)[0] == 5

    def test_petersen(self):
        # golden recorded from a completed run of this solver
        assert rc_exact(gen_family("petersen"))[0] == 3

    def test_coloring_verifies(self):
        for fam, args in [("cycle", (7,)), ("wheel", (6,)), ("prism", (3,))]:
            g = gen_family(fam, *args)
            k, col = rc_exact(g)
            assert col.num_colors == k
            assert find_rainbow_witness(g, col) is None

    def test_diameter_lower_bound(self):
        for fam, args in [("cycle", (6,)), ("prism", (4,)), ("wheel", (7,))]:
            g = gen_family(fam, *args)
            assert rc_exact(g)[0] >= brute_diameter(g)

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhaustedError) as info:
            rc_exact(gen_family("petersen"), node_budget=10)
        assert info.value.k == 3
        assert "budget-exhausted at k=3" in str(info.value)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="node_budget"):
            rc_exact(gen_family("petersen"), node_budget=-1)

    def test_max_colors_too_small(self):
        with pytest.raises(ValueError, match="no rainbow-connected") as info:
            rc_exact(gen_family("cycle", 6), max_colors=2)
        assert isinstance(info.value, NoColoringError)

    def test_cap_above_edge_count_is_no_cap(self):
        # Petersen has m = 15 edges
        assert rc_exact(gen_family("petersen"), max_colors=20)[0] == 3

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="max_colors"):
            rc_exact(gen_family("petersen"), max_colors=-1)

    # node counts of complete runs: a probe that prunes more or less than
    # the test for k-capped walks with distinct colored edges changes them
    @pytest.mark.parametrize("g,k,nodes", [
        (gen_family("petersen"), 3, 31),
        (gen_family("prism", 4), 3, 18),
        (gen_family("cycle", 7), 4, 104),
        (gen_family("wheel", 7), 2, 17),
        (make_graph(6, [(i, j) for i in range(3) for j in range(3, 6)]), 2, 11),
        (gen_family("random3c", 10, 2, seed=42), 2, 35),
        (k3m(5), 2, 818),
        (k3m(6), 2, 4953),
        (k3m(7), 2, 24414),
        (k3m(8), 2, 109064),
        (make_graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]),
         2, 44),
        (gen_family("wheel", 8), 3, 102),
        (gen_family("wheel", 9), 3, 54),
        (gen_family("prism", 5), 3, 67),
    ], ids=["petersen", "prism4", "C7", "W7", "K33", "random3c-n10-e2-s42", "K35", "K36", "K37",
            "K38", "moebius8", "W8", "W9", "prism5"])
    def test_pinned_node_counts(self, g, k, nodes):
        assert rc_exact(g, node_budget=nodes)[0] == k
        with pytest.raises(BudgetExhaustedError) as info:
            rc_exact(g, node_budget=nodes - 1)
        assert (info.value.k, info.value.nodes) == (k, nodes)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            rc_exact(make_graph(4, [(0, 1), (2, 3)]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9), st.lists(st.integers(0, 7), min_size=8, max_size=8),
           st.integers(0, 9), st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=8))
    def test_first_walks_are_the_breadth_first_paths(self, n, parents, cut, extra):
        # a tree that hangs each vertex v > 0 from an earlier one, less the
        # edge to `cut` (disconnected when 0 < cut < n), plus a few extra
        # edges: pairs at every distance from 1 to 8, and n = 1 and 2
        edges = {(parents[v - 1] % v, v) for v in range(1, n) if v != cut}
        edges.update(norm_edge(u, v) for u, v in extra if u != v and max(u, v) < n)
        g = make_graph(n, sorted(edges))
        try:
            expected = bfs_first_walks(g)
        except ValueError:
            with pytest.raises(ValueError, match="connected"):
                rc_exact(g)
            return
        kept = []
        pair_walks = rainbow._pair_walks

        def spy(g, inc):
            out = pair_walks(g, inc)
            kept.append(out)
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rainbow, "_pair_walks", spy)
            if g.m:
                # the search stops at its first node, at k = the lower bound
                with pytest.raises(BudgetExhaustedError) as info:
                    rc_exact(g, node_budget=0)
                assert (info.value.k, info.value.nodes) == (expected[2], 1)
            else:
                assert rc_exact(g) == (0, EdgeColoring({}))
        ends, walks, _, _, lower = kept[0]
        assert (ends, [list(walk) for walk in walks], lower) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 5), st.integers(0, 2 ** 10 - 1))
    def test_matches_brute_force(self, n, mask):
        g = graph_from_mask(n, mask % (1 << (n * (n - 1) // 2)))
        if g.m == 0 or not brute_connected(g) or g.m > 7:
            return
        assert rc_exact(g)[0] == brute_rc(g)

    @staticmethod
    def matches_the_probe_that_keeps_no_walks(g, rng):
        """The same search with every non-adjacent pair probed afresh at
        every node: the same coloring within the same node count, and the
        budget runs out at the same (k, node) wherever it is set below the
        full count. Returns k."""
        k, colors, nodes = reference_rc_exact(g)
        assert rc_exact(g, node_budget=nodes) == (k, EdgeColoring(colors))
        budget = rng.randrange(nodes)
        k_out, _, at = reference_rc_exact(g, budget)
        with pytest.raises(BudgetExhaustedError) as info:
            rc_exact(g, node_budget=budget)
        assert (info.value.k, info.value.nodes) == (k_out, at) == (k_out, budget + 1)
        return k

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_the_probe_that_keeps_no_walks(self, seed):
        rng = random.Random(seed)
        g = make_graph(1, [])
        while g.m == 0 or not brute_connected(g):
            n, p = rng.randint(4, 6), rng.choice([0.4, 0.6, 0.8])
            g = make_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        self.matches_the_probe_that_keeps_no_walks(g, rng)

    @pytest.mark.parametrize("g", [gen_family("wheel", 6), gen_family("prism", 3)],
                             ids=["W6", "prism-3"])
    def test_k2_rejects_a_pair_without_two_step_walks(self, g):
        # rc = 2. The search rejects each node where a pair's two-step
        # walks all broke, as the reference probe does: a pair mended from
        # its three-step walks would keep such nodes alive, and the search
        # would need more nodes than the reference to find its coloring
        assert self.matches_the_probe_that_keeps_no_walks(g, random.Random(0)) == 2

    @staticmethod
    def spy_on_searches(monkeypatch):
        """Every `_witness_walk` call from now on, as (source, target, k,
        walk found), the search itself still answering."""
        calls = []

        def spy(inc, col, source, target, k):
            walk = _witness_walk(inc, col, source, target, k)
            calls.append((source, target, k, walk))
            return walk

        monkeypatch.setattr(rainbow, "_witness_walk", spy)
        return calls

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_probe_that_keeps_no_walks_past_two_steps(self, seed, monkeypatch):
        # sparse graphs of diameter >= 3, so rc >= 3 and a broken pair's
        # walks are not all two-step walks: at k = 3 its listed three-step
        # walks are the rest, and only at k >= 4 does the walk search run
        rng = random.Random(seed)
        g = make_graph(2, [])
        while not brute_connected(g) or brute_diameter(g) < 3:
            n = rng.randint(7, 8)
            g = make_graph(n, rng.sample(list(combinations(range(n), 2)), n + rng.randint(0, 2)))
        searches = self.spy_on_searches(monkeypatch)
        assert self.matches_the_probe_that_keeps_no_walks(g, rng) >= 3
        assert all(k >= 4 for _, _, k, _ in searches)

    @pytest.mark.parametrize("g,nodes", [(k3m(5), 818), (k3m(6), 4953)], ids=["K35", "K36"])
    def test_two_step_walks_mend_every_pair_at_k2(self, g, nodes, monkeypatch):
        # rc = 2 and every non-adjacent pair has common neighbours: a broken
        # walk is mended from the pair's two-step walks or the node rejected
        calls = []
        monkeypatch.setattr(rainbow, "_witness_walk", lambda *args: calls.append(args))
        assert rc_exact(g, node_budget=nodes)[0] == 2
        assert calls == []

    def test_broken_two_step_walks_send_a_pair_to_its_three_step_walks(self, monkeypatch):
        # K4 on 0, 2, 3, 4 less the edge (0, 2), with a pendant 1 at 0:
        # rc = 3, and node 7 paints 1, 1, 2, 1, 2 on the edges (0, 1), (0, 3),
        # (0, 4), (2, 3), (2, 4). Both two-step walks 0-3-2 and 0-4-2 then
        # carry one color each, so the pair (0, 2) takes its first
        # three-step walk 0-3-4-2, over the uncolored edge (3, 4), with no
        # walk search
        g = make_graph(5, [(0, 1), (0, 3), (0, 4), (2, 3), (2, 4), (3, 4)])
        pair_walks = rainbow._pair_walks
        mends = []

        class Kept(list):
            """A pair's kept walks, logging each walk written in."""
            def __setitem__(self, p, walk):
                mends[-1].append((self.ends[p], list(walk)))
                super().__setitem__(p, walk)

        def logged(g, inc):
            ends, walks, *rest = pair_walks(g, inc)
            walks = Kept(walks)
            walks.ends = ends
            mends.append([])
            return (ends, walks, *rest)

        monkeypatch.setattr(rainbow, "_pair_walks", logged)
        searches = self.spy_on_searches(monkeypatch)
        for budget in (6, 7):
            with pytest.raises(BudgetExhaustedError) as info:
                rc_exact(g, node_budget=budget)
            assert (info.value.k, info.value.nodes) == (3, budget + 1)
        before, through = mends
        assert through[:len(before)] == before
        assert through[len(before):] == [((0, 2), [1, 5, 4])]
        assert self.matches_the_probe_that_keeps_no_walks(g, random.Random(0)) == 3
        assert searches == []

    def test_the_walk_search_mends_walks_from_k4(self, monkeypatch):
        # C7 has diameter 3 and rc = 4: at k = 4 a pair three edges apart
        # whose path breaks has one other walk, four edges the other way
        # round, which only the walk search finds
        searches = self.spy_on_searches(monkeypatch)
        assert self.matches_the_probe_that_keeps_no_walks(gen_family("cycle", 7),
                                                           random.Random(0)) == 4
        assert searches and all(k == 4 for _, _, k, _ in searches)
        assert any(walk is not None and len(walk) == 4 for _, _, _, walk in searches)

    @pytest.mark.parametrize("fam,args", [("cycle", (5,)), ("cycle", (6,)),
                                          ("prism", (3,))])
    def test_no_canonical_coloring_below_optimum(self, fam, args):
        g = gen_family(fam, *args)
        k, _ = rc_exact(g)
        assert k >= 2
        for vec in canonical_colorings(g.m, k - 1):
            colors = dict(zip(g.edges, vec))
            assert brute_rainbow_witness(g, colors) is not None


class TestColoringIO:
    def test_round_trip(self):
        g = gen_family("cycle", 6)
        col = c6_striped()
        text = serialize_coloring(col)
        back = parse_coloring(text, g)
        assert back.colors == col.colors

    def test_header_is_distinct_count(self):
        col = EdgeColoring({(0, 1): 1, (1, 2): 5, (0, 2): 1})
        text = serialize_coloring(col)
        assert text.splitlines()[0] == "2"

    def test_two_keys_for_one_edge_rejected(self):
        # (1, 0) and (0, 1) name one edge, in either order; keeping either
        # color silently would hand the checker a coloring nobody wrote
        with pytest.raises(ValueError, match="same edge"):
            EdgeColoring({(0, 1): 1, (1, 0): 2, (1, 2): 1, (0, 2): 1})
        with pytest.raises(ValueError, match="same edge"):
            EdgeColoring({(1, 0): 2, (0, 1): 1, (1, 2): 1, (0, 2): 1})
        assert EdgeColoring({(1, 0): 2, (2, 1): 1}).colors == {(0, 1): 2, (1, 2): 1}
        # a reversed key after normalized ones is still normalized
        reversed_last = EdgeColoring({(0, 1): 2, (0, 2): 3, (2, 1): 1}).colors
        assert list(reversed_last.items()) == [((0, 1), 2), ((0, 2), 3), ((1, 2), 1)]

    def test_normalized_keys_are_copied(self):
        # a dict whose keys are all normalized is copied as it stands: equal
        # colors in a dict of the coloring's own, which the caller's later
        # writes do not reach
        given = {(0, 1): 1, (1, 2): 5, (0, 2): 1}
        col = EdgeColoring(given)
        assert col.colors == given and col.colors is not given
        given[(0, 1)] = 7
        given[(2, 3)] = 1
        del given[(1, 2)]
        assert col.colors == {(0, 1): 1, (1, 2): 5, (0, 2): 1}

    def test_missing_edge_rejected(self):
        g = gen_family("cycle", 5)
        text = "1\n" + "\n".join(f"{u} {v} 1" for u, v in g.edges[:-1]) + "\n"
        with pytest.raises(ValueError, match="missing"):
            parse_coloring(text, g)

    def test_foreign_edge_rejected(self):
        g = gen_family("cycle", 5)
        with pytest.raises(ValueError, match="not in the host"):
            parse_coloring("1\n0 2 1\n", g)

    def test_color_out_of_range(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="outside"):
            parse_coloring("2\n0 1 3\n", g)

    def test_empty_coloring_round_trip(self):
        g = make_graph(1, [])
        assert parse_coloring(serialize_coloring(EdgeColoring({})), g).colors == {}
        with pytest.raises(ValueError, match="outside"):
            parse_coloring("0\n0 1 1\n", make_graph(2, [(0, 1)]))


    @pytest.mark.parametrize("text,message", [
        ("1 2\n0 1 1\n", "line 1: first line must be the color count"),
        ("x\n0 1 1\n", "line 1: color count must be an integer"),
        ("-1\n0 1 1\n", "line 1: color count must be non-negative, got -1"),
        ("1\n0 1\n", "line 2: coloring line must be 'u v c'"),
        ("1\n0 1 1 1\n", "line 2: coloring line must be 'u v c'"),
        ("1\n0 1 a\n", "line 2: coloring line must hold three integers"),
        ("1\n0 b 1\n", "line 2: coloring line must hold three integers"),
        ("1\n0 1 1\n1 0 1\n", r"line 3: edge \(0, 1\) colored twice"),
        ("", "no color count line"),
        ("# comment only\n", "no color count line"),
        # endpoints outside 0..9 on the 10-vertex host; -1 would index vertex 9
        ("1\n99 0 1\n", "line 2: vertex index out of range 0..9"),
        ("1\n-1 4 1\n", "line 2: vertex index out of range 0..9"),
        ("1\n0 -1 1\n", "line 2: vertex index out of range 0..9"),
    ])
    def test_malformed_document(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_coloring(text, gen_family("petersen"))


def test_checker_vs_oracle_on_themed_colorings():
    rng = random.Random(123)
    for fam, args in [("complete", (5,)), ("wheel", (6,)), ("prism", (3,)),
                      ("cycle", (7,))]:
        g = gen_family(fam, *args)
        for _ in range(10):
            col = EdgeColoring({e: rng.randint(1, 4) for e in g.edges})
            assert find_rainbow_witness(g, col) == brute_rainbow_witness(g, col.colors)
