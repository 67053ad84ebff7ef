import hashlib
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from rcbound import connectivity, construct
from rcbound.connectivity import check_fan, find_fan, vertex_connectivity
from rcbound.graphs import gen_family, make_graph

from _oracles import (brute_has_disjoint_paths, brute_vertex_connectivity,
                      pairwise_vertex_connectivity)
from test_graphs import graph_from_mask, ladder, st_small_graph

st_graph_n2to6 = st.integers(2, 6).flatmap(
    lambda n: st.builds(graph_from_mask, st.just(n),
                        st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


class TestVertexConnectivity:
    def test_complete(self):
        for n in range(2, 7):
            assert vertex_connectivity(gen_family("complete", n)) == n - 1

    def test_cycle(self):
        assert vertex_connectivity(gen_family("cycle", 5)) == 2

    def test_petersen(self):
        pet = gen_family("petersen")
        # frozen against the exhaustive cut enumerator
        assert brute_vertex_connectivity(pet) == 3
        assert vertex_connectivity(pet) == 3

    def test_wheels_and_prisms(self):
        for n in range(5, 10):
            assert vertex_connectivity(gen_family("wheel", n)) == 3
        for k in range(3, 6):
            assert vertex_connectivity(gen_family("prism", k)) == 3

    def test_disconnected(self):
        assert vertex_connectivity(make_graph(4, [(0, 1), (2, 3)])) == 0

    def test_random3c_corpus_seeds(self):
        for i, n in enumerate([10, 13, 16, 20, 24, 28, 31, 34, 37, 40]):
            g = gen_family("random3c", n, n // 4, seed=42 + i)
            assert vertex_connectivity(g) >= 3

    def test_one_vertex_gives_zero(self):
        assert vertex_connectivity(make_graph(1, [])) == 0

    @settings(max_examples=80, deadline=None)
    @given(st_graph_n2to6)
    def test_matches_cut_enumerator(self, g):
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)
        assert pairwise_vertex_connectivity(g) == brute_vertex_connectivity(g)


def closed_fan(g, u, v, k):
    """The flow vertex_connectivity runs for a non-adjacent pair (u, v) with
    nothing settled yet: up to k paths from v into u's closed neighbourhood."""
    return connectivity._flow_paths(g, v, {u, *g.adj[u]}, k)


class TestDisjointPaths:
    # a fan from v into u's closed neighbourhood, for non-adjacent u and v:
    # fewer than k paths means no k internally disjoint u-v paths exist
    def test_c6_insufficient(self):
        assert len(closed_fan(gen_family("cycle", 6), 0, 3, 3)) < 3

    def test_c6_two_paths(self):
        paths = closed_fan(gen_family("cycle", 6), 0, 3, 2)
        assert paths == [[3, 2, 1], [3, 4, 5]]

    def test_petersen_all_pairs(self):
        pet = gen_family("petersen")
        for u in range(10):
            for v in range(10):
                if v != u and v not in pet.adj[u]:
                    assert len(closed_fan(pet, u, v, 3)) == 3

    def test_backs_a_path_out_of_a_vertex(self):
        # the first path is 8-3-0-9; the second search enters 9 and must
        # step back through 0, cancelling both path edges at 0
        g = make_graph(13, [(0, 3), (0, 9), (1, 2), (1, 3), (1, 7), (2, 7), (2, 9),
                            (2, 10), (3, 5), (3, 7), (3, 8), (3, 11), (4, 5), (4, 6),
                            (5, 9), (6, 9), (7, 10), (8, 10), (9, 12), (10, 11), (11, 12)])
        assert connectivity._flow_paths(g, 8, {4, 9}, 1) == [[8, 3, 0, 9]]
        paths = connectivity._flow_paths(g, 8, {4, 9}, 2)
        assert paths == [[8, 3, 5, 4], [8, 10, 2, 9]]

    @settings(max_examples=60, deadline=None)
    @given(st_graph_n2to6, st.integers(1, 3), st.randoms(use_true_random=False))
    def test_matches_family_search(self, g, k, rng):
        # the exact step of vertex_connectivity: the closed-neighbourhood fan
        # is k wide exactly when k internally disjoint u-v paths exist
        apart = [(u, v) for u in range(g.n) for v in range(g.n)
                 if u != v and v not in g.adj[u]]
        if not apart:
            return
        u, v = rng.choice(apart)
        assert (len(closed_fan(g, u, v, k)) == k) == brute_has_disjoint_paths(g, u, v, k)


class TestFindFan:
    def test_k4_direct_edges(self):
        fan = find_fan(gen_family("complete", 4), 0, [1, 2, 3], 3)
        assert fan == ((0, 1), (0, 2), (0, 3))

    def test_wheel_fan(self):
        g = gen_family("wheel", 6)
        fan = find_fan(g, 1, [3, 4], 2)
        assert fan is not None
        check_fan(g, fan, 1, [3, 4], 2)

    def test_reroutes_a_blocking_path(self):
        # the first shortest path 0-1-2 takes the only target that 3 reaches;
        # the second search must cancel the edge 1-2 to find the fan
        g = make_graph(5, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3)])
        assert find_fan(g, 0, [2, 4], 2) == ((0, 1, 4), (0, 3, 2))

    def test_c5_insufficient(self):
        assert find_fan(gen_family("cycle", 5), 0, [2, 3, 4], 3) is None

    def test_source_in_targets_rejected(self):
        with pytest.raises(ValueError, match="target set"):
            find_fan(gen_family("complete", 4), 0, [0, 1, 2], 3)

    @pytest.mark.parametrize("x,targets", [(99, [1, 2, 3]), (-1, [5, 6, 7])])
    def test_source_out_of_range_rejected(self, x, targets):
        with pytest.raises(ValueError, match="vertex out of range"):
            find_fan(gen_family("petersen"), x, targets, 3)

    @pytest.mark.parametrize("targets,k,message", [
        ([1, 2, 10], 3, "target out of range"),
        ([-1, 2, 3], 3, "target out of range"),
        ([1, 2, 3], 0, "fan width must be positive"),
    ])
    def test_bad_targets_or_width_rejected(self, targets, k, message):
        with pytest.raises(ValueError, match=message):
            find_fan(gen_family("petersen"), 0, targets, k)

    def test_small_target_set_rejected(self):
        with pytest.raises(ValueError, match="smaller than"):
            find_fan(gen_family("complete", 4), 0, [1, 2], 3)

    # the Petersen fan from 0 into {7, 8, 9} is (0,4,9), (0,5,7), (0,1,6,8);
    # each corruption breaks one invariant and passes every earlier one
    @pytest.mark.parametrize("paths,message", [
        (((0, 4, 9), (0, 5, 7)), "expected 3 paths, got 2"),
        (((4, 9), (0, 5, 7), (0, 1, 6, 8)), "does not start at 0"),
        (((0, 4, 3, 4, 9), (0, 5, 7), (0, 1, 6, 8)), "repeats a vertex"),
        (((0, 9), (0, 5, 7), (0, 1, 6, 8)), r"missing edge \(0, 9\)"),
        (((0, 4, 3), (0, 5, 7), (0, 1, 6, 8)), "does not end in the target set"),
        (((0, 4, 9), (0, 5, 7, 9), (0, 1, 6, 8)), "touches the target set"),
        (((0, 4, 9), (0, 5, 7), (0, 1, 6, 9)), "terminals are not pairwise distinct"),
        (((0, 4, 9), (0, 5, 7), (0, 4, 3, 8)), r"share \[4\]"),
        (((), (0, 5, 7), (0, 1, 6, 8)), "does not start at 0"),
    ])
    def test_check_fan_refuses_corrupted_fan(self, paths, message):
        g = gen_family("petersen")
        assert find_fan(g, 0, [7, 8, 9], 3) == ((0, 4, 9), (0, 5, 7), (0, 1, 6, 8))
        with pytest.raises(ValueError, match=message):
            check_fan(g, paths, 0, [7, 8, 9], 3)

    def test_monotone_in_width(self):
        g = gen_family("random3c", 12, 3, seed=5)
        rng = random.Random(0)
        for _ in range(30):
            x = rng.randrange(g.n)
            pool = [v for v in range(g.n) if v != x]
            targets = rng.sample(pool, rng.randint(3, len(pool)))
            if find_fan(g, x, targets, 3) is not None:
                for smaller in (1, 2):
                    assert find_fan(g, x, targets, smaller) is not None

    @settings(max_examples=150, deadline=None)
    @given(st_small_graph, st.integers(1, 3), st.randoms(use_true_random=False))
    def test_none_exactly_when_no_paths_to_joined_vertex(self, g, k, rng):
        # a fan exists iff k disjoint paths reach a new vertex s joined to
        # all of T: each such path can be cut at the first T vertex it meets
        x = rng.randrange(g.n)
        pool = [v for v in range(g.n) if v != x]
        if len(pool) < k:
            return
        targets = rng.sample(pool, rng.randint(k, len(pool)))
        joined = make_graph(g.n + 1, list(g.edges) + [(y, g.n) for y in targets])
        fan = find_fan(g, x, targets, k)
        assert (fan is None) == (not brute_has_disjoint_paths(joined, x, g.n, k))

    def test_freed_vertex_loses_its_in_edge(self):
        # the second search enters the first path at 3, runs back through 2
        # to 1 and leaves along 1 -> 8, so 2 leaves the flow; the third
        # search enters 2 from the chain 12..16 and must not step back to 1
        assert find_fan(FREED_VERTEX_GRAPH, 0, [4, 11, 22], 2) == (
            (0, 1, 8, 9, 10, 11), (0, 5, 6, 7, 3, 4))
        # 11 and 22 are reachable only through 1, so there is no third path
        assert find_fan(FREED_VERTEX_GRAPH, 0, [4, 11, 22], 3) is None

    def test_three_connected_always_succeeds(self):
        rng = random.Random(7)
        for seed in range(4):
            g = gen_family("random3c", 11, 3, seed=seed)
            for _ in range(40):
                x = rng.randrange(g.n)
                pool = [v for v in range(g.n) if v != x]
                targets = rng.sample(pool, rng.randint(3, len(pool)))
                fan = find_fan(g, x, targets, 3)
                assert fan is not None
                check_fan(g, fan, x, targets, 3)


# a first path 0-1-2-3-4, then a second search that enters it at 3 and
# leaves it at 1 for 8..11, which frees 2; a third search reaches 2 through
# 12..16 while 1 still passes the rerouted path 0-1-8-9-10-11, and 22 hangs
# off 1 behind 17..21
FREED_VERTEX_GRAPH = make_graph(23, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7),
                                     (7, 3), (1, 8), (8, 9), (9, 10), (10, 11), (0, 12),
                                     (12, 13), (13, 14), (14, 15), (15, 16), (16, 2), (1, 17),
                                     (17, 18), (18, 19), (19, 20), (20, 21), (21, 22)])


def complete_bipartite(a: int, b: int):
    return make_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def hypercube(d: int):
    return make_graph(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                               if not v >> b & 1])


def generalized_petersen(n: int, k: int):
    """GP(n, k): an outer n-cycle, spokes, and an inner cycle of step k."""
    return make_graph(2 * n, [(i, (i + 1) % n) for i in range(n)]
                      + [(i, n + i) for i in range(n)]
                      + [(n + i, n + (i + k) % n) for i in range(n)])


def mobius_ladder(n: int):
    """An n-cycle plus its n/2 long diagonals."""
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)]
                      + [(i, i + n // 2) for i in range(n // 2)])


FAN_GRAPHS = [
    ("prism6", gen_family("prism", 6)),
    ("wheel8", gen_family("wheel", 8)),
    ("petersen", gen_family("petersen")),
    ("random3c", gen_family("random3c", 16, 4, seed=3)),
    ("k3_5", complete_bipartite(3, 5)),
    ("ladder5", ladder(5)),
    ("cycle7", gen_family("cycle", 7)),
]

KAPPA_GRAPHS = [
    ("two_triangles", make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
    ("bowtie", make_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])),
    ("star", make_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
    ("cycle7", gen_family("cycle", 7)),
    ("ladder5", ladder(5)),
    ("prism6", gen_family("prism", 6)),
    ("petersen", gen_family("petersen")),
    ("k3_5", complete_bipartite(3, 5)),
    ("k4_4", complete_bipartite(4, 4)),
    ("wheel8", gen_family("wheel", 8)),
    ("complete6", gen_family("complete", 6)),
    ("random3c", gen_family("random3c", 16, 4, seed=3)),
]

# Any change to path choice, path order, a None verdict or a kappa value
# moves this digest; a change meant to alter them re-pins it and says why.
FLOW_SHA256 = "85c668c1f8be4375813e56f1f35f3b11be9d5a7d3e7ab50985c282e4ae7491f1"


def flow_fingerprint_lines():
    for name, g in FAN_GRAPHS:
        rng = random.Random(sum(map(ord, name)))
        for _ in range(16):
            x = rng.randrange(g.n)
            pool = [v for v in range(g.n) if v != x]
            targets = sorted(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            for k in range(1, min(3, len(targets)) + 1):
                fan = find_fan(g, x, targets, k)
                yield f"fan {name} {x} {targets} {k} {fan}"
        for _ in range(8):
            u, v = rng.sample(range(g.n), 2)
            if v in g.adj[u]:
                continue
            for k in range(1, 5):
                paths = closed_fan(g, u, v, k)
                yield f"paths {name} {u} {v} {k} {paths if len(paths) == k else None}"
    for name, g in KAPPA_GRAPHS:
        yield f"kappa {name} {vertex_connectivity(g)}"


class TestFlowFingerprint:
    def test_kappa_values_cover_low_connectivity(self):
        kappas = {name: vertex_connectivity(g) for name, g in KAPPA_GRAPHS}
        assert {kappas["two_triangles"], kappas["bowtie"], kappas["ladder5"],
                kappas["prism6"], kappas["k4_4"]} == {0, 1, 2, 3, 4}

    def test_flow_outputs_pinned(self):
        digest = hashlib.sha256()
        for line in flow_fingerprint_lines():
            digest.update((line + "\n").encode())
        assert digest.hexdigest() == FLOW_SHA256


# v = 1 (degree 4) reaches its two non-neighbours 0 and 6 by 4 disjoint paths
# each, but {0, 3, 6} separates its neighbours 2 and 4: only the
# neighbour-pair phase finds kappa = 3
NEIGHBOUR_PAIR_GRAPH = make_graph(7, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
                                      (1, 4), (1, 5), (2, 3), (2, 6), (3, 6), (4, 5), (4, 6),
                                      (5, 6)])


# an octahedron on 0..5 (no edges 0-1, 2-3, 4-5) and a K5 on 4..8: around
# v = 0 (degree 4) the fan from 1 certifies kappa(0, 1) >= 4 before {4, 5}
# cuts 6 off from 0, so best drops below the degree after a mark
OCTAHEDRON_K5 = make_graph(9, [(u, w) for u, w in combinations(range(6), 2)
                               if (u, w) not in ((0, 1), (2, 3), (4, 5))]
                           + list(combinations(range(4, 9), 2)))
# two K5s sharing 3 and 4: degree 4, kappa 2
TWO_K5 = make_graph(8, set(combinations(range(5), 2)) | set(combinations(range(3, 8), 2)))


def named(graphs):
    return [pytest.param(g, id=name) for name, g in graphs]


def count_calls(monkeypatch, name):
    """A list that gains one entry per call of connectivity's `name`."""
    calls = []
    real = getattr(connectivity, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(connectivity, name, counted)
    return calls


class TestPairReduction:
    def test_neighbour_pairs_find_kappa(self):
        g = NEIGHBOUR_PAIR_GRAPH
        assert min(range(g.n), key=g.degree) == 1
        for w in (0, 6):
            assert len(closed_fan(g, 1, w, 4)) == 4
        assert len(closed_fan(g, 2, 4, 4)) < 4
        assert vertex_connectivity(g) == brute_vertex_connectivity(g) == 3

    @pytest.mark.parametrize("g, kappa", [
        pytest.param(gen_family("wheel", 32), 3, id="wheel32"),
        pytest.param(hypercube(5), 5, id="q5"),
        pytest.param(generalized_petersen(24, 3), 3, id="gp24_3"),
        pytest.param(gen_family("random3c", 40, 10, seed=0), 3, id="random3c40"),
    ])
    def test_flow_count_bounded(self, g, kappa, monkeypatch):
        # every non-adjacent pair would be hundreds on each of these; the
        # reduction examines few, and greedy fans settle each without a flow
        delta = min(map(len, g.adj))
        fans = count_calls(monkeypatch, "_greedy_fan")
        flows = count_calls(monkeypatch, "_flow_paths")
        assert vertex_connectivity(g) == kappa
        assert 0 < len(fans) <= g.n - 1 - delta + comb(delta, 2)
        assert len(flows) == 0

    def test_greedy_trap_runs_the_flow(self, monkeypatch):
        # around vertex 0 (degree 2) the greedy fan from 1 into {0, 2, 4}
        # first takes 1-3-2, which holds 3, the only way left from 1 to 4, so
        # it stops at one path; the flow into the same set finds the fan
        # 1-3-4, 1-5-2
        g = make_graph(6, [(0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)])
        assert not connectivity._greedy_fan(g, 1, {0, 2, 4}, 2)
        assert find_fan(g, 1, {0, 2, 4}, 2) is not None
        assert connectivity._flow_paths(g, 1, {0, 2, 4}, 2) == [[1, 3, 4], [1, 5, 2]]
        flows = count_calls(monkeypatch, "_flow_paths")
        assert vertex_connectivity(g) == brute_vertex_connectivity(g) == 2
        assert len(flows) > 0

    @pytest.mark.parametrize("g, first_fans", [
        # 1 is marked at best = 4, then 6's flow drops best to 2
        pytest.param(OCTAHEDRON_K5, [(1, 4, True), (6, 4, False), (7, 2, True)],
                     id="octahedron_k5"),
        # 5's flow drops best to 2 at once; 6 and 7 reach v's neighbours 3, 4
        pytest.param(TWO_K5, [(5, 4, False), (6, 2, True), (7, 2, True)], id="two_k5"),
    ])
    def test_answer_drops_below_degree_after_marks(self, g, first_fans, monkeypatch):
        fans = []  # (source, width, verdict) of each greedy fan
        real = connectivity._greedy_fan

        def recorded(g, x, marked, want):
            fans.append((x, want, real(g, x, marked, want)))
            return fans[-1][-1]

        monkeypatch.setattr(connectivity, "_greedy_fan", recorded)
        assert vertex_connectivity(g) == pairwise_vertex_connectivity(g) == 2
        assert fans[:3] == first_fans

    @settings(max_examples=200, deadline=None)
    @given(st_small_graph, st.integers(1, 4), st.randoms(use_true_random=False))
    def test_greedy_fan_is_a_fan(self, g, want, rng):
        x = rng.randrange(g.n)
        pool = [v for v in range(g.n) if v != x]
        marked = set(rng.sample(pool, rng.randint(1, len(pool))))
        if want > len(marked):
            return
        if connectivity._greedy_fan(g, x, marked, want):
            assert find_fan(g, x, marked, want) is not None

    @pytest.mark.parametrize("g", named(dict(FAN_GRAPHS + KAPPA_GRAPHS).items()))
    def test_matches_pairwise_on_pinned_graphs(self, g):
        assert vertex_connectivity(g) == pairwise_vertex_connectivity(g)

    @pytest.mark.parametrize("g", named(
        [(f"wheel{n}", gen_family("wheel", n)) for n in range(4, 25)]
        + [(f"prism{k}", gen_family("prism", k)) for k in range(3, 13)]
        + [(f"mobius{n}", mobius_ladder(n)) for n in range(6, 25, 2)]
        + [(f"k3_{m}", complete_bipartite(3, m)) for m in range(1, 10)]
        + [(f"gp{n}_2", generalized_petersen(n, 2)) for n in range(5, 13)]
        + [(f"gp{n}_3", generalized_petersen(n, 3)) for n in range(7, 13)]
        + [(f"random3c{n}_{extra}_{seed}", gen_family("random3c", n, extra, seed=seed))
           for n in (8, 16, 24, 32, 40) for extra in (0, n // 4) for seed in range(2)]))
    def test_matches_pairwise_on_families(self, g):
        assert vertex_connectivity(g) == pairwise_vertex_connectivity(g)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(7, 12).flatmap(
        lambda n: st.builds(graph_from_mask, st.just(n),
                            st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))
    def test_matches_pairwise_on_random_graphs(self, g):
        assert vertex_connectivity(g) == pairwise_vertex_connectivity(g)


# 3, 4 and 5 are three 3-link leaves of the seed triangle, one too few for
# four_leaves; 6..9 reach it only through them, so no fan mixes a direct link
# with a longer path and 6's fan becomes an ear with no center link
EAR_FALLBACK_GRAPH = make_graph(10, [(0, 1), (1, 2), (0, 2)]
                                + [(u, v) for u in (3, 4, 5) for v in (0, 1, 2)]
                                + [(3, 6), (4, 7), (5, 8), (6, 7), (7, 8), (6, 8), (6, 9),
                                   (7, 9), (8, 9)])

# The fans the construction really reads: every fan classify_extension takes
# for an outside vertex w while run_constructive colors these graphs, whether
# kept from an earlier round and cut to H or found by find_fan(host, w, H, 3)
# now, with its answer. H grows to most of the graph, so these target sets are far
# larger than the ones FLOW_SHA256 covers. Outside vertices with no link
# into H are read only in a round that reaches the ear-fallback scan, as the
# last graph's does.
CONSTRUCTION_FAN_GRAPHS = [
    ("wheel32", gen_family("wheel", 32)),
    ("q5", hypercube(5)),
    ("gp16_2", generalized_petersen(16, 2)),
    ("mobius32", mobius_ladder(32)),
    ("k3_9", complete_bipartite(3, 9)),
    ("ear_fallback", EAR_FALLBACK_GRAPH),
]
FAN_QUERY_SHA256 = "10a21ef751a72f9c2d71beb2f035af8990022c725bf5c19951b119799eccf275"


def record_fan_reads(monkeypatch, check=None):
    """A list that gains one line per fan classify_extension reads, kept or
    fresh: source, sorted targets, width and fan. `check`, when given, gets
    each read's state, source, targets and fan, and whether it was kept."""
    lines = []
    real = construct._read_fan

    def recorded(state, w, hset):
        kept = w in state.fans
        fan = real(state, w, hset)
        if check is not None:
            check(state, w, hset, fan, kept)
        lines.append(f"{w} {sorted(hset)} 3 {fan}")
        return fan

    monkeypatch.setattr(construct, "_read_fan", recorded)
    return lines


def relabeled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestConstructionFanQueries:
    def test_fan_queries_pinned(self, monkeypatch):
        lines = record_fan_reads(monkeypatch)
        digest = hashlib.sha256()
        for name, g in CONSTRUCTION_FAN_GRAPHS:
            lines.clear()
            construct.run_constructive(g)
            assert lines, f"{name} read no fan"
            digest.update(f"# {name} {len(lines)}\n".encode())
            digest.update("".join(line + "\n" for line in lines).encode())
        assert digest.hexdigest() == FAN_QUERY_SHA256

    def test_kept_fans_spare_searches(self, monkeypatch):
        lines = record_fan_reads(monkeypatch)
        searches = []
        real = construct.find_fan

        def counted(*args):
            searches.append(1)
            return real(*args)

        monkeypatch.setattr(construct, "find_fan", counted)
        for _, g in CONSTRUCTION_FAN_GRAPHS:
            construct.run_constructive(g)
        assert 0 < len(searches) < len(lines)

    @pytest.mark.parametrize("g", named([
        ("q5", hypercube(5)), ("gp24_3", generalized_petersen(24, 3)),
        ("random3c120", gen_family("random3c", 120, 30, seed=0))]))
    def test_every_read_is_a_fan_with_its_links(self, g, monkeypatch):
        # kept or fresh, a read is a fan into the current H whose one-edge
        # paths are min(links, 3) of w's links into H; some kept reads are
        # cut fans that a fresh search would not return
        kept_reads, cut_reads = [], []

        def check(state, w, hset, fan, kept):
            if fan is None:
                return
            check_fan(state.host, fan, w, hset, 3)
            links = len(hset.intersection(state.host.adj[w]))
            assert sum(len(p) == 2 for p in fan) == min(links, 3)
            kept_reads.append(kept)
            cut_reads.append(kept and fan != find_fan(state.host, w, hset, 3))

        record_fan_reads(monkeypatch, check)
        for seed in (0, 1, 2):
            construct.run_constructive(relabeled(g, seed) if seed else g)
        assert any(kept_reads) and not all(kept_reads) and any(cut_reads)


# w = 0 reaches the first H {4, 5, 6} only by the 2-step paths through 1, 2
# and 3, and links into H once 1 or 7 joins it
CUT_FAN_GRAPH = make_graph(8, [(0, 1), (0, 2), (0, 3), (0, 7), (1, 4), (2, 5), (3, 6), (4, 7),
                               (4, 5), (5, 6), (4, 6)])


class TestCutFans:
    def kept_state(self, monkeypatch):
        state = construct.GrowState(CUT_FAN_GRAPH, {4, 5, 6}, {}, 0)
        assert construct._read_fan(state, 0, frozenset({4, 5, 6})) == (
            (0, 1, 4), (0, 2, 5), (0, 3, 6))
        searches = []
        real = construct.find_fan

        def counted(*args):
            searches.append(args)
            return real(*args)

        monkeypatch.setattr(construct, "find_fan", counted)
        return state, searches

    def test_cut_at_a_new_link_is_kept(self, monkeypatch):
        state, searches = self.kept_state(monkeypatch)
        fan = construct._read_fan(state, 0, frozenset({1, 4, 5, 6}))
        assert fan == ((0, 1), (0, 2, 5), (0, 3, 6)) and not searches
        assert state.fans[0] == fan

    def test_cut_fan_without_a_direct_link_is_searched_again(self, monkeypatch):
        # 7 joins H off every kept path: the cut fan has no one-edge path
        # though 0 links H once, so a fresh search takes the link 0-7
        state, searches = self.kept_state(monkeypatch)
        fan = construct._read_fan(state, 0, frozenset({4, 5, 6, 7}))
        assert fan == ((0, 7), (0, 1, 4), (0, 2, 5)) and len(searches) == 1
        assert state.fans[0] == fan

    def test_only_an_absorbed_vertex_drops_its_fan(self):
        # 0's search entered 7, and 0 keeps its fan when 7 joins H
        state = construct.GrowState(CUT_FAN_GRAPH, {4, 5, 6}, {}, 0)
        construct._read_fan(state, 0, frozenset({4, 5, 6}))
        construct._commit(state, "ear", (7,), {}, state.layout)
        assert set(state.fans) == {0}
        construct._commit(state, "ear", (0,), {}, state.layout)
        assert state.fans == {}
