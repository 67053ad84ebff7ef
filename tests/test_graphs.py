from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rcbound.graphs import (GraphFormatError, gen_family, make_graph, parse_graph,
                            serialize_graph, shortest_cycle)

from _capped import run_capped
from _oracles import brute_connected, brute_girth, brute_shortest_cycle


def graph_from_mask(n, mask):
    pairs = list(combinations(range(n), 2))
    return make_graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])


def ladder(rungs):
    """Two paths 0..r-1 and r..2r-1 joined by the rungs (i, i + r)."""
    r = rungs
    return make_graph(2 * r, [(i, i + r) for i in range(r)] + [(i, i + 1) for i in range(r - 1)]
                      + [(r + i, r + i + 1) for i in range(r - 1)])


st_small_graph = st.integers(3, 7).flatmap(
    lambda n: st.builds(graph_from_mask, st.just(n),
                        st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


class TestParse:
    def test_triangle(self):
        g = parse_graph("3 3\n0 1\n1 2\n0 2\n")
        assert g.n == 3 and g.edges == ((0, 1), (0, 2), (1, 2))

    def test_path4(self):
        g = parse_graph("4 3\n0 1\n1 2\n2 3\n")
        assert g.m == 3

    def test_comments_and_blanks(self):
        g = parse_graph("# corpus entry\n\n3 1\n# edge\n0 2\n")
        assert g.edges == ((0, 2),)

    def test_reversed_endpoints_accepted(self):
        g = parse_graph("3 1\n2 0\n")
        assert g.edges == ((0, 2),)

    def test_duplicate_edge_line(self):
        with pytest.raises(GraphFormatError, match="line 3.*duplicate"):
            parse_graph("3 2\n0 1\n0 1\n")

    def test_self_loop(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("3 1\n1 1\n")

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError, match="line 2.*range"):
            parse_graph("3 1\n0 3\n")

    def test_bad_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("3\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphFormatError, match="expected 2"):
            parse_graph("3 2\n0 1\n")

    def test_too_many_edges(self):
        with pytest.raises(GraphFormatError, match="more than"):
            parse_graph("3 1\n0 1\n1 2\n")

    def test_vertex_bound_reached(self):
        # n = 2m + 1 vertices: m disjoint edges and one isolated vertex
        assert parse_graph("1 0\n").n == 1
        assert parse_graph("5 2\n0 1\n2 3\n").n == 5

    def test_huge_header_refused_before_allocating(self):
        # without the bound this 13-byte document asks for about 80 GB
        body = ("try:\n    parse_graph('1000000000 0\\n')\n"
                "except GraphFormatError:\n    print('refused')\n")
        setup = "from rcbound.graphs import GraphFormatError, parse_graph\n"
        assert run_capped(setup, body, headroom_mb=64, timeout=60) == ["refused"]


    @pytest.mark.parametrize("text,message", [
        ("a 3\n", "line 1: header must be two integers"),
        ("3 1.5\n0 1\n", "line 1: header must be two integers"),
        ("0 0\n", "line 1: vertex count must be positive, got 0"),
        ("3 -1\n", "line 1: edge count must be non-negative, got -1"),
        ("6 2\n0 1\n2 3\n", r"line 1: vertex count 6 exceeds 2m \+ 1 = 5"),
        ("3 1\n0 1 2\n", "line 2: edge line must be 'u v'"),
        ("3 1\n0\n", "line 2: edge line must be 'u v'"),
        ("3 1\n0 x\n", "line 2: edge endpoints must be integers"),
        ("", "no header line"),
        ("# only a comment\n\n", "no header line"),
    ])
    def test_malformed_document(self, text, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_graph(text)


class TestMakeGraph:
    @pytest.mark.parametrize("n,edges,message", [
        (0, [], "at least one vertex, got n=0"),
        (-2, [], "at least one vertex"),
        (3, [(0, 3)], r"edge \(0, 3\) out of range for n=3"),
        (3, [(-1, 2)], "out of range"),
        (3, [(1, 1)], "self-loop at vertex 1"),
        (3, [(0, 1), (2, 1), (1, 0)], r"duplicate edge \(0, 1\)"),
    ])
    def test_rejected(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            make_graph(n, edges)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.sampled_from(list(combinations(range(n), 2)))),
        st.randoms(use_true_random=False))))
    def test_neighbours_ascend_whatever_the_edge_order(self, drawn):
        # shortest_cycle's proof and the flow's scan order read each
        # neighbour list in ascending order
        n, edges, rnd = drawn
        listed = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
        rnd.shuffle(listed)
        g = make_graph(n, listed)
        assert g.edges == tuple(sorted(edges))
        for v in range(n):
            assert list(g.adj[v]) == sorted({u for e in edges for u in e if v in e} - {v})


class TestSerialize:
    def test_triangle(self):
        g = make_graph(3, [(1, 2), (0, 1), (0, 2)])
        assert serialize_graph(g) == "3 3\n0 1\n0 2\n1 2\n"

    def test_single_vertex(self):
        assert serialize_graph(make_graph(1, [])) == "1 0\n"

    def test_c5(self):
        text = serialize_graph(gen_family("cycle", 5))
        assert text.splitlines()[0] == "5 5"
        assert len(text.splitlines()) == 6

    @settings(max_examples=60, deadline=None)
    @given(st_small_graph)
    def test_round_trip(self, g):
        text = serialize_graph(g)
        if g.n <= 2 * g.m + 1:
            assert parse_graph(text) == g
        else:  # two or more isolated vertices: refused at the header
            with pytest.raises(GraphFormatError, match="line 1: vertex count"):
                parse_graph(text)


class TestGirth:
    """The girth is the length of shortest_cycle; forests are refused by
    TestShortestCycle::test_acyclic_rejected."""

    def test_petersen(self):
        # frozen against the exhaustive cycle enumerator
        pet = gen_family("petersen")
        assert brute_girth(pet) == 5
        assert len(shortest_cycle(pet)) == 5

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        assert len(shortest_cycle(gen_family("cycle", n))) == n

    @settings(max_examples=60, deadline=None)
    @given(st_small_graph)
    def test_matches_oracle(self, g):
        want = brute_girth(g)
        if want is not None:
            assert len(shortest_cycle(g)) == want


class TestShortestCycle:
    def test_k4(self):
        assert shortest_cycle(gen_family("complete", 4)) == [0, 1, 2]

    def test_c7_whole(self):
        assert shortest_cycle(gen_family("cycle", 7)) == [0, 1, 2, 3, 4, 5, 6]

    def test_c1200_whole(self):
        # the whole cycle is the seed: each root's search runs 600 levels deep
        assert shortest_cycle(gen_family("cycle", 1200)) == list(range(1200))

    def test_prism_triangle(self):
        cyc = shortest_cycle(gen_family("prism", 3))
        assert len(cyc) == 3 == brute_girth(gen_family("prism", 3))

    def test_acyclic_rejected(self):
        with pytest.raises(ValueError, match="acyclic"):
            shortest_cycle(make_graph(3, [(0, 1), (1, 2)]))

    def test_deterministic_and_valid(self):
        g = gen_family("random3c", 12, 4, seed=9)
        a, b = shortest_cycle(g), shortest_cycle(g)
        assert a == b
        assert len(a) == brute_girth(g)
        closed = a + [a[0]]
        assert all(g.has_edge(u, v) for u, v in zip(closed, closed[1:]))

    def test_lexicographically_smallest(self):
        # two triangles; {0, 2, 3} loses to {0, 1, 4} on the second vertex
        g = make_graph(5, [(0, 2), (2, 3), (0, 3), (0, 1), (1, 4), (0, 4)])
        assert shortest_cycle(g) == [0, 1, 4]

    def test_even_girth_not_first_closure(self):
        # the root's search closes [0, 3, 2, 4] before the smaller 4-cycle
        g = make_graph(6, [(0, 1), (0, 3), (0, 4), (1, 5), (2, 3), (2, 4), (4, 5)])
        assert shortest_cycle(g) == [0, 1, 5, 4]

    @settings(max_examples=100, deadline=None)
    @given(st_small_graph)
    def test_matches_oracle(self, g):
        want = brute_shortest_cycle(g)
        if want is None:
            with pytest.raises(ValueError, match="acyclic"):
                shortest_cycle(g)
        else:
            assert shortest_cycle(g) == want


class TestGenFamily:
    def test_complete4(self):
        g = gen_family("complete", 4)
        assert g.n == 4 and g.m == 6

    def test_cycle5(self):
        g = gen_family("cycle", 5)
        assert g.m == 5 and all(g.degree(v) == 2 for v in range(5))

    def test_wheel(self):
        g = gen_family("wheel", 6)
        assert g.n == 6 and g.degree(0) == 5
        assert all(g.degree(v) == 3 for v in range(1, 6))

    def test_prism(self):
        g = gen_family("prism", 3)
        assert g.n == 6 and g.m == 9 and len(shortest_cycle(g)) == 3

    def test_petersen(self):
        g = gen_family("petersen")
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_random3c_deterministic(self):
        a = gen_family("random3c", 20, 5, seed=42)
        b = gen_family("random3c", 20, 5, seed=42)
        assert a == b
        c = gen_family("random3c", 20, 5, seed=43)
        assert a != c

    def test_random3c_shape(self):
        g = gen_family("random3c", 15, 4, seed=1)
        assert g.n == 15 and g.m == 6 + 3 * 11 + 4
        assert min(map(len, g.adj)) >= 3 and brute_connected(g)

    def test_random3c_without_extra_lists_no_pairs(self):
        # only extra edges draw from the n(n - 1)/2 vertex pairs; listing
        # them for n = 20000 alone would take gigabytes
        body = "print(gen_family('random3c', 20000).m)\n"
        setup = "from rcbound.graphs import gen_family\n"
        assert run_capped(setup, body, headroom_mb=64, timeout=60) == ["59994"]

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            gen_family("torus", 4)

    def test_bad_params(self):
        for family, params, message in [
                ("cycle", (2,), "cycle needs"),
                ("wheel", (3,), "wheel needs"),
                ("prism", (2,), "prism needs"),
                ("random3c", (3,), "random3c needs"),
                ("random3c", (4, 10), "only 0 non-edges"),  # K4 has no free non-edges
                ("cycle", (5, 6), "takes 1 parameter"),
                ("petersen", (10,), "takes 0 parameter"),
                ("complete", (0,), "complete needs n >= 1"),
                ("random3c", (8, 2, 1), "random3c takes n and optional"),
                ("random3c", (8, -1), "extra edge count must be non-negative")]:
            with pytest.raises(ValueError, match=message):
                gen_family(family, *params)
