"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (path enumeration, subset
enumeration, full coloring products) so it shares no code path with the
library implementations it validates. The recording helpers at the end
are the exception: they record the construction's growth checks, to
replay them through the library checker, whose answer without a core is
the reference for its answer with one, or its repair searches, to time
`repair_step` on them in-process.
"""

from __future__ import annotations

import copy
import importlib
import random
import sys
from itertools import combinations, product
from pathlib import Path

from rcbound import construct, rainbow
from rcbound.graphs import Graph, gen_family, make_graph, norm_edge
from rcbound.rainbow import find_rainbow_witness

LAYERBENCH = Path(__file__).resolve().parents[1] / "layerbench"


def all_simple_paths(g: Graph, u: int, v: int):
    """Every simple u-v path as a vertex list (DFS enumeration)."""
    out = []
    stack = [(u, [u])]
    while stack:
        node, path = stack.pop()
        for w in g.adj[node]:
            if w == v:
                out.append(path + [v])
            elif w not in path:
                stack.append((w, path + [w]))
    return out


def brute_diameter(g: Graph) -> int:
    """Largest distance over all vertex pairs, each distance the fewest
    edges of a simple path (connected graphs with two or more vertices)."""
    return max(min(len(p) - 1 for p in all_simple_paths(g, u, v))
               for u, v in combinations(range(g.n), 2))


def has_rainbow_path(g: Graph, colors: dict, u: int, v: int) -> bool:
    """True when some simple u-v path repeats no color."""
    for path in all_simple_paths(g, u, v):
        cs = [colors[norm_edge(a, b)] for a, b in zip(path, path[1:])]
        if len(set(cs)) == len(cs):
            return True
    return False


def has_capped_rainbow_path(g: Graph, colors: dict, u: int, v: int,
                            max_len: int) -> bool:
    """True when some simple u-v path of at most max_len edges repeats no
    color among its colored edges; edges missing from `colors` are
    uncolored and never clash."""
    for path in all_simple_paths(g, u, v):
        if len(path) - 1 > max_len:
            continue
        cs = [colors[e] for e in map(norm_edge, path, path[1:]) if e in colors]
        if len(set(cs)) == len(cs):
            return True
    return False


def brute_rainbow_witness(g: Graph, colors: dict, vertices=None):
    """Lexicographically smallest pair with no rainbow path, else None."""
    verts = sorted(vertices) if vertices is not None else range(g.n)
    for u, v in combinations(verts, 2):
        if not has_rainbow_path(g, colors, u, v):
            return (u, v)
    return None


def clash_first_witness(g: Graph, colors: dict, universe, sources, bound):
    """The pair a sources-restricted check reports: `bound(u)`, the
    color-clash bound's pair for source u or None, over the sources in
    ascending order first; then, per source in ascending order, its lowest
    partner in the universe minus the earlier sources that no rainbow
    path joins, as (min, max); else None."""
    order = sorted(sources)
    for u in order:
        pair = bound(u)
        if pair is not None:
            return pair
    done = set()
    for u in order:
        done.add(u)
        for w in sorted(set(universe) - done):
            if not has_rainbow_path(g, colors, u, w):
                return (min(u, w), max(u, w))
    return None


def brute_rc(g: Graph, max_colors: int | None = None) -> int:
    """Minimum colors by trying every coloring outright (tiny graphs only)."""
    m = g.m
    if m == 0:
        return 0
    if max_colors is None:
        max_colors = m
    for k in range(1, max_colors + 1):
        for combo in product(range(1, k + 1), repeat=m):
            colors = dict(zip(g.edges, combo))
            if brute_rainbow_witness(g, colors) is None:
                return k
    raise AssertionError("no coloring found up to max_colors")


def reference_rc_exact(g: Graph, node_budget: int | None = None):
    """rc_exact's search with a feasibility probe that keeps nothing: at
    every node, every non-adjacent pair is probed afresh for a path of at
    most k edges whose colored edges differ. Connected graphs with edges
    only. Returns (k, colors, nodes) for the first coloring found, or
    (k, None, nodes) when node number node_budget + 1 comes up at k."""
    m, edges = g.m, g.edges
    far = [(u, v) for u, v in combinations(range(g.n), 2) if v not in g.adj[u]]
    lower = brute_diameter(g)
    col = [0] * m
    nodes = 0
    for k in range(lower, m + 1):
        used = [0] * (m + 1)
        i = 0
        while 0 <= i < m:
            c = col[i] + 1
            if c > min(used[i] + 1, k):
                col[i] = 0
                i -= 1
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return k, None, nodes
            col[i] = c
            used[i + 1] = max(used[i], c)
            colored = {edges[j]: col[j] for j in range(m) if col[j]}
            if k - used[i + 1] <= m - i - 1 and all(
                    has_capped_rainbow_path(g, colored, u, v, k) for u, v in far):
                i += 1
        if i == m:
            return k, dict(zip(edges, col)), nodes
    raise AssertionError("m distinct colors always suffice")


def bfs_first_walks(g: Graph):
    """rc_exact's first walks as one breadth-first search per vertex gives
    them: (pairs, walks, diameter), with per non-adjacent pair u < t, in
    ascending order, the search from u's path to t as edge ids (edges
    numbered as in g.edges, each vertex's read in that order), and the
    largest eccentricity, at least 1. ValueError on a disconnected graph."""
    n = g.n
    inc = [[] for _ in range(n)]
    for i, (u, v) in enumerate(g.edges):
        inc[u].append((v, i))
        inc[v].append((u, i))
    ends, walks, lower = [], [], 1
    for u in range(n):
        path = [None] * n
        path[u] = []
        queue = [u]
        for v in queue:
            for w, e in inc[v]:
                if path[w] is None:
                    path[w] = path[v] + [e]
                    queue.append(w)
        if len(queue) < n:
            raise ValueError("disconnected")
        lower = max(lower, len(path[queue[-1]]))
        for t in range(u + 1, n):
            if len(path[t]) > 1:
                ends.append((u, t))
                walks.append(path[t])
    return ends, walks, lower


def brute_shortest_cycle(g: Graph) -> list[int] | None:
    """The canonical shortest cycle via exhaustive DFS by target length,
    then start, then sorted adjacency: the first cycle found starts at its
    smallest vertex and is lexicographically smallest. None for forests."""
    for length in range(3, g.n + 1):
        for start in range(g.n):
            path = [start]
            if _cycle_of_length(g, start, length, path, {start}):
                return path
    return None


def brute_girth(g: Graph) -> int | None:
    """Shortest cycle length via exhaustive DFS by target length."""
    cycle = brute_shortest_cycle(g)
    return None if cycle is None else len(cycle)


def _cycle_of_length(g, start, length, path, seen):
    if len(path) == length:
        return start in g.adj[path[-1]]
    for w in g.adj[path[-1]]:
        if w <= start or w in seen:
            continue
        path.append(w)
        seen.add(w)
        if _cycle_of_length(g, start, length, path, seen):
            return True
        path.pop()
        seen.discard(w)
    return False


def brute_vertex_connectivity(g: Graph) -> int:
    """Smallest vertex set whose removal disconnects (or n-1 when none)."""
    if not _connected_after(g, set()):
        return 0
    for size in range(1, g.n - 1):
        for cut in combinations(range(g.n), size):
            if not _connected_after(g, set(cut)):
                return size
    return g.n - 1


def brute_connected(g: Graph, vertices=None) -> bool:
    """True when the subgraph of g induced by `vertices` (every vertex by
    default) is connected."""
    keep = set(range(g.n)) if vertices is None else set(vertices)
    return _connected_after(g, set(range(g.n)) - keep)


def _connected_after(g: Graph, removed: set) -> bool:
    rest = [v for v in range(g.n) if v not in removed]
    if len(rest) <= 1:
        return True
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def pairwise_vertex_connectivity(g: Graph) -> int:
    """kappa as the fewest internally disjoint paths over every non-adjacent
    pair (n - 1 when there is none), each count from its own max flow."""
    pairs = [(u, v) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    if not pairs:
        return g.n - 1
    return min(_local_connectivity(g, u, v) for u, v in pairs)


def _local_connectivity(g: Graph, s: int, t: int) -> int:
    """Most s-t paths sharing only s and t (Menger): unit flow on the split
    network where vertex v is the arc 2v -> 2v+1 and edge uv the arcs
    2u+1 -> 2v and 2v+1 -> 2u, from s's out-half to t's in-half."""
    cap = {(2 * v, 2 * v + 1): 1 for v in range(g.n)}
    for u, v in g.edges:
        cap[(2 * u + 1, 2 * v)] = cap[(2 * v + 1, 2 * u)] = 1
    for a, b in list(cap):
        cap.setdefault((b, a), 0)
    out = {a: [] for a in range(2 * g.n)}
    for a, b in cap:
        out[a].append(b)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while True:
        prev = {source: source}
        stack = [source]
        while stack and sink not in prev:
            a = stack.pop()
            for b in out[a]:
                if b not in prev and cap[(a, b)] > 0:
                    prev[b] = a
                    stack.append(b)
        if sink not in prev:
            return flow
        b = sink
        while b != source:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1


def brute_has_disjoint_paths(g: Graph, x: int, y: int, k: int) -> bool:
    """Does some family of k pairwise internally disjoint x-y paths exist?"""
    paths = [tuple(p) for p in all_simple_paths(g, x, y)]

    def extend(chosen, used_internal, rest):
        if len(chosen) == k:
            return True
        for i, p in enumerate(rest):
            interior = set(p[1:-1])
            if interior & used_internal:
                continue
            if extend(chosen + [p], used_internal | interior, rest[i + 1:]):
                return True
        return False

    return extend([], set(), paths)


def reach_order_by_rescan(g: Graph, hset, pool) -> list[int]:
    """The vertices of `pool` that hset reaches through pool vertices, each
    step rescanning the pool for the lowest label next to hset or to a
    vertex already taken."""
    reach, pool, order = set(hset), set(pool), []
    while True:
        near = [w for w in pool if any(q in reach for q in g.adj[w])]
        if not near:
            return order
        w = min(near)
        order.append(w)
        pool.discard(w)
        reach.add(w)


def canonical_colorings(m: int, k: int):
    """All canonical color vectors of length m with at most k colors
    (entry i is at most one more than the running maximum)."""
    vec = [0] * m

    def rec(i, top):
        if i == m:
            yield tuple(vec)
            return
        for c in range(1, min(top + 1, k) + 1):
            vec[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(0, 0)


def reference_repair_step(g: Graph, hset, coloring: dict, colors_used: int, added,
                          budgets):
    """repair_step's search with nothing skipped: for each budget b in turn,
    every label combination of the star patterns (the first b fresh colors,
    color 1, then the alternating star when b >= 2), its fresh colors
    renumbered by first appearance over the sorted edges, is checked unless
    an earlier one renumbers the same, by path enumeration over every pair
    with an added vertex. An added vertex's star colors the inner edges it
    owns (their smaller end) and its links into H; the alternating star
    puts the second fresh color on its inner edges and alternates the first
    two over its links in ascending order. Returns (the first patch every
    such pair has a rainbow path under, or None, the patches checked)."""
    added = sorted(added)
    hset, aset = set(hset), set(added)
    fresh = [colors_used + 1 + i for i in range(max(budgets, default=0))]
    own = {w: [(w, q) for q in g.adj[w] if q > w and q in aset] for w in added}
    links = {w: [norm_edge(w, q) for q in g.adj[w] if q in hset] for w in added}
    universe = sorted(hset | aset)
    seen, checked = set(), []
    for b in budgets:
        options = fresh[:b] + [1] + (["alt"] if b >= 2 else [])
        for combo in product(options, repeat=len(added)):
            patch = {}
            for w, label in zip(added, combo):
                for e in own[w]:
                    patch[e] = fresh[1] if label == "alt" else label
                for i, e in enumerate(links[w]):
                    patch[e] = fresh[i % 2] if label == "alt" else label
            remap = {}
            for e in sorted(patch):
                if patch[e] > colors_used:
                    patch[e] = remap.setdefault(patch[e], colors_used + 1 + len(remap))
            key = tuple(sorted(patch.items()))
            if key in seen:
                continue
            seen.add(key)
            checked.append(patch)
            full = {**coloring, **patch}
            sub = make_graph(g.n, sorted(full))
            if all(has_rainbow_path(sub, full, u, v)
                   for u in added for v in universe if v != u):
                return patch, checked
    return None, checked


def layerbench_graphs(workload: str, seed: int) -> list[Graph]:
    """The graphs of the layered benchmark's workload ("families" or
    "small_exact") for `seed`, built by its own workloads module."""
    import rcbound.cli  # workloads takes the package with its cli module loaded
    sys.path.insert(0, str(LAYERBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(LAYERBENCH))
    return [case.graph for case in getattr(workloads, workload)(rcbound, seed)]


def relabeled_scan() -> list[Graph]:
    """Prism 100, Moebius-200, GP(100, 3), GP(100, 2), Q7 and wheel 200,
    each under the labelings s = 1..10, shuffled by random.Random(s) as the
    layered benchmark relabels its families: 60 graphs."""
    gp = [[(i, (i + 1) % 100) for i in range(100)] + [(i, 100 + i) for i in range(100)]
          + [(100 + i, 100 + (i + k) % 100) for i in range(100)] for k in (3, 2)]
    bases = [gen_family("prism", 100),
             make_graph(200, [(i, (i + 1) % 200) for i in range(200)]
                        + [(i, i + 100) for i in range(100)]),
             make_graph(200, gp[0]), make_graph(200, gp[1]),
             make_graph(128, [(v, v | 1 << b) for v in range(128) for b in range(7)
                              if not v >> b & 1]),
             gen_family("wheel", 200)]
    out = []
    for g in bases:
        for s in range(1, 11):
            perm = list(range(g.n))
            random.Random(s).shuffle(perm)
            out.append(make_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    return out


def record_growth_checks(graphs) -> list[tuple]:
    """The growth checks that constructing each graph makes on a grown
    subgraph H with at least one vertex, each as (host, H's kept layout,
    H's vertices, the added vertices, the patch, H's colors used). A
    construction that fails keeps the checks it made."""
    checks = []
    real = construct._try_coloring

    def recorded(state, added, patch):
        if state.grown and state.vertices and added:
            checks.append((state.host, state.layout, frozenset(state.vertices),
                           added, dict(patch), state.colors_used))
        return real(state, added, patch)

    construct._try_coloring = recorded
    try:
        for g in graphs:
            try:
                construct.run_constructive(g)
            except construct.ConstructionError:
                pass
    finally:
        construct._try_coloring = real
    return checks


def record_repair_searches(graphs) -> list[tuple]:
    """The repair searches that constructing each graph makes, each as (a
    copy of the state it searched from, the added vertices, the budgets,
    the patch it accepted or None), so that repair_step can be replayed on
    them in-process. A construction that fails keeps the searches it made."""
    searches = []
    real = construct.repair_step

    def recorded(state, added, budgets):
        snap = copy.copy(state)
        snap.vertices, snap.coloring = set(state.vertices), dict(state.coloring)
        snap.trace, snap.fans = list(state.trace), dict(state.fans)
        found = real(state, added, budgets)
        searches.append((snap, tuple(added), budgets, found and found[0]))
        return found

    construct.repair_step = recorded
    try:
        for g in graphs:
            try:
                construct.run_constructive(g)
            except construct.ConstructionError:
                pass
    finally:
        construct.repair_step = real
    return searches


def core_rule_soak(checks, rng, tries: int) -> dict:
    """Recolor each recorded growth check's patch `tries` times at random,
    each edge from {1, 2, k, k+1, ..., k+4} for H's k colors, and check
    each recoloring twice with the library checker: with H as its core (a
    clean route into H settles all of H) and without. The check without a
    core is the reference here. Returns the checks made, how many of them
    fail, the exact searches each side ran, and the recolorings whose two
    verdicts or witnesses differ."""
    out = {"checks": 0, "failing": 0, "plain_searches": 0, "core_searches": 0, "differ": []}
    real = rainbow._rainbow_reach
    side = "plain_searches"

    def counted(*args):
        out[side] += 1
        return real(*args)

    rainbow._rainbow_reach = counted
    try:
        for host, layout, hset, added, patch, k in checks:
            universe, sources = hset.union(added), set(added)
            palette = [1, 2, k] + [k + i for i in range(1, 5)]
            for _ in range(tries):
                recolored = {e: rng.choice(palette) for e in patch}
                grown = layout.extended(recolored)
                side = "plain_searches"
                plain = find_rainbow_witness(host, grown, vertices=universe, sources=sources)
                side = "core_searches"
                ruled = find_rainbow_witness(host, grown, vertices=universe, sources=sources,
                                             core=hset, core_colors=len(layout.bits))
                out["checks"] += 1
                out["failing"] += plain is not None
                if ruled != plain:
                    out["differ"].append((sorted(hset), added, recolored, plain, ruled))
    finally:
        rainbow._rainbow_reach = real
    return out
