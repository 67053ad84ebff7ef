"""Vertex connectivity and internally disjoint path search.

Disjoint paths come from unit-capacity augmentation with vertex
capacities (Even & Tarjan), kept on the graph itself: the flow is the set
of directed edges that carry a unit, stored as each vertex's one used
out-edge (the source has several) and its one used in-edge, so a search
steps back along a used edge without scanning the neighbours. Every
vertex but the source passes at most one path, so two paths meet only at
the source. A path stops at the first target it touches, and a target
ends at most one path. Augmentation follows a shortest residual path in
a fixed scan order, which keeps the returned paths short and the output
deterministic. Each search stops when it queues a target with room
rather than when it pops it; the queue is FIFO and a state's predecessor
is fixed when it is queued, so the path found is the same.

Vertex connectivity examines few pairs: around one vertex v of minimum
degree d it takes the pairs (v, w) for every w not adjacent to v and the
non-adjacent pairs of v's neighbours, at most n - 1 - d + C(d, 2) pairs
instead of every non-adjacent pair (Esfahanian & Hakimi, "On
computing the connectivity of graphs and digraphs", 1984). A minimum
separator that misses v leaves some w cut off from v; one that holds v is
minimal, so v has a neighbour on each of its sides.

Each of those pairs (a, b) is non-adjacent, and before its flow it gets a
greedy fan from b into the vertices known to be well linked to a: a, its
neighbours and the ends of the pairs settled with a. A fan as wide as the
current answer shows that the pair cannot lower it (see
`vertex_connectivity`), and its flow is skipped; one that falls short
proves nothing, since a greedy path may take a vertex two others need,
and a flow from b into the same set decides. The fan query runs the
flow alone, so the paths it returns are the flow's.
"""

from __future__ import annotations

from collections.abc import Collection, Container, Iterable
from itertools import combinations

from .graphs import Graph


def _flow_paths(g: Graph, x: int, targets: Collection[int], want: int) -> list[list[int]]:
    """Up to `want` pairwise internally disjoint paths from x into targets,
    shortest first, ties in lexicographic order. The targets must be
    distinct, and only membership is read, so their order is unused.

    The flow is the set of directed edges that carry a unit. Every vertex
    but x and the targets passes at most one path, so four records hold
    it: `succ`, each vertex's used out-edge; `pred`, its used in-edge;
    `out_x`, the used edges out of x; and `is_target`, 1 for a target that
    can still end a path and 2 once one ends there. A vertex other than x
    is on a path exactly when succ[v] >= 0: targets end paths and never
    get an out-edge. The search runs over vertex halves: state 2v enters v
    and 2v+1 leaves it. Leaving v it steps back into v if v is on a path,
    then along each unused edge. Entering v it passes a free non-target v,
    then steps back along the used edge into v. Neighbours go in ascending
    order, and no step enters x.

    The search ends when it queues the entering half of a target with room.
    Waiting to pop that state gives the same path: the queue is FIFO, so
    the first such state queued is the first one popped, and prev[state]
    is fixed when a state is queued, so the walk back to x is the same.
    """
    adj = g.adj
    is_target = bytearray(g.n)
    for t in targets:
        is_target[t] = 1
    succ = [-1] * g.n
    pred = [-1] * g.n
    out_x: set[int] = set()
    src = 2 * x + 1
    for _ in range(want):
        prev = [-1] * (2 * g.n)
        prev[src] = prev[src - 1] = src
        queue = [src]
        end = -1
        for state in queue:
            v = state >> 1
            if state & 1:
                if succ[v] >= 0 and prev[state - 1] == -1:
                    prev[state - 1] = state
                    queue.append(state - 1)
                used = out_x if v == x else (succ[v],)
                for b in adj[v]:
                    if prev[2 * b] == -1 and b not in used:
                        prev[2 * b] = state
                        if is_target[b] == 1:
                            end = b
                            break
                        queue.append(2 * b)
                if end >= 0:
                    break
            else:
                if not is_target[v] and succ[v] < 0 and prev[state + 1] == -1:
                    prev[state + 1] = state
                    queue.append(state + 1)
                a = pred[v]
                if a >= 0 and prev[2 * a + 1] == -1:
                    prev[2 * a + 1] = state
                    queue.append(2 * a + 1)
        if end < 0:
            break
        is_target[end] = 2
        state = 2 * end
        while state != src:
            before = prev[state]
            u, v = before >> 1, state >> 1
            if u != v and state & 1:  # back along v -> u, cancelling its unit
                # the walk's next step sets u's new in-edge when a
                # neighbour's leaving half labeled u's entering half. When
                # u's own leaving half did, the path runs back along the
                # flow through u and u leaves the flow, so only this store
                # clears its in-edge: a stale one would let a later search
                # step from u's entering half along v -> u, which carries
                # no unit, and route a second path through v
                pred[u] = -1
                if succ[v] == u:  # v may already hold its new out-edge
                    succ[v] = -1
            elif u != v:  # along u -> v; a step between v's halves changes no record
                pred[v] = u
                if u == x:
                    out_x.add(v)
                else:
                    succ[u] = v
            state = before

    paths: list[list[int]] = []
    for first in out_x:
        path = [x, first]
        while not is_target[path[-1]]:
            v = path[-1]
            if succ[v] < 0:
                raise AssertionError(f"flow enters vertex {v} but never leaves it")
            path.append(succ[v])
        paths.append(path)
    return sorted(paths, key=lambda p: (len(p), p))


def _greedy_fan(g: Graph, x: int, marked: Container[int], want: int) -> bool:
    """True when `want` breadth-first searches from x each reach a marked
    vertex, each stopping at the first one it labels and avoiding x and
    every vertex of the paths found before it: a fan of width `want` into
    `marked`. False proves nothing, since a path taken early may hold a
    vertex that two others need. Labels live in a dict, so a search costs
    only what it touches."""
    adj = g.adj
    # x and every vertex of the paths found so far; the first searches
    # would take x's marked neighbours, one edge each, so those go in at once
    taken = {x, *(b for b in adj[x] if b in marked)}
    for _ in range(want + 1 - len(taken)):
        prev = dict.fromkeys(taken, x)
        queue = [x]
        end = -1
        for u in queue:
            for b in adj[u]:
                if b not in prev:
                    prev[b] = u
                    if b in marked:
                        end = b
                        break
                    queue.append(b)
            if end >= 0:
                break
        if end < 0:
            return False
        while end != x:
            taken.add(end)
            end = prev[end]
    return True


def find_fan(g: Graph, x: int, targets: Iterable[int],
             k: int) -> tuple[tuple[int, ...], ...] | None:
    """A k-fan from x into the target set, as a tuple of its k paths (each
    a vertex tuple from x to a target), or None when none exists.

    Any graph whose vertex connectivity is at least k admits one whenever
    the target set has at least k vertices, so None on such a graph
    signals a bug. Among valid fans the search prefers short paths
    (shortest-path augmentation) with deterministic tie-breaking. A
    frozenset of targets is used as it is, without a copy.
    """
    tset = frozenset(targets)
    if not 0 <= x < g.n:
        raise ValueError(f"vertex out of range 0..{g.n - 1}: source {x}")
    if tset and (min(tset) < 0 or max(tset) >= g.n):
        raise ValueError(f"target out of range 0..{g.n - 1}")
    if x in tset:
        raise ValueError("source must not belong to the target set")
    if k < 1:
        raise ValueError(f"fan width must be positive, got {k}")
    if len(tset) < k:
        raise ValueError(f"target set smaller than fan width: {len(tset)} < {k}")
    paths = _flow_paths(g, x, tset, k)
    if len(paths) < k:
        return None
    fan = tuple(map(tuple, paths))
    check_fan(g, fan, x, tset, k)
    return fan


def check_fan(g: Graph, fan: tuple, x: int, targets: Iterable[int], k: int) -> None:
    """Raise ValueError unless fan, a tuple of paths, satisfies all
    structural invariants. It takes time in the fan's length only when
    `targets` is a frozenset, which is used without a copy."""
    tset = frozenset(targets)
    if len(fan) != k:
        raise ValueError(f"expected {k} paths, got {len(fan)}")
    seen = {x}  # every vertex of the paths checked so far
    for i, p in enumerate(fan):
        if not p or p[0] != x:
            raise ValueError(f"path {p} does not start at {x}")
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"path {p} uses a missing edge ({a}, {b})")
        if p[-1] not in tset:
            raise ValueError(f"path {p} does not end in the target set")
        if any(v in tset for v in p[1:-1]):
            raise ValueError(f"path {p} touches the target set before its end")
        for v in p[1:]:
            if v not in seen:
                seen.add(v)
            elif v == x or p.count(v) > 1:
                raise ValueError(f"path {p} repeats a vertex")
            elif v == p[-1]:  # an earlier path ends at v too, as no path touches tset early
                raise ValueError(f"terminals are not pairwise distinct: {[q[-1] for q in fan]}")
            else:
                q = next(q for q in fan[:i] if v in q)
                raise ValueError(f"paths {q} and {p} share {sorted(set(q) & set(p) - {x})}")


def vertex_connectivity(g: Graph) -> int:
    """kappa(g), exact, from at most n - 1 - d + C(d, 2) pairs around a
    vertex v of minimum degree d (the lowest label on ties), each settled
    by a greedy fan when the fan reaches the current answer and by a flow
    otherwise.

    kappa is the smaller of d and the fewest internally disjoint paths over
    the pairs (v, w) with w not adjacent to v and the non-adjacent pairs of
    v's neighbours (Esfahanian & Hakimi); a complete graph has no such pair
    and gives d = n - 1, so the one-vertex graph gives 0.

    Why this is exact: take a minimum separator S. If v is not in S, a side
    of S holds no neighbour of v, and any w there has kappa(v, w) <= |S|.
    If v is in S, v has a neighbour on each side because S is minimal;
    those two are not adjacent and S separates them.

    The fans are the fan lemma run backwards. Let T be a vertex set in
    which each t is a, or a neighbour of a, or has kappa(a, t) >= k, and
    take x outside T and not adjacent to a. If x has k paths into T that
    share only x and end at distinct vertices, then kappa(a, x) >= k.
    Proof: a separator S of fewer than k vertices that avoids a and x
    misses at least one of these paths entirely, since the paths share
    only x and so no vertex of S lies on two of them. That path's end t is
    joined to a in G - S: t is a, or t is adjacent to a, or S is too small
    to separate t from a. So x, which reaches t along the path, is joined
    to a too, and no set of fewer than k vertices separates a from x.

    So the fan of a pair (a, b) has width `best` and aims at a, its
    neighbours and the ends of the pairs settled with a before it. A mark
    made at a higher best stays valid after a flow lowers best.

    When the greedy fan falls short, the flow asks the same question
    exactly: its widest fan from b into that set, capped at best, has
    width min(kappa(a, b), best), which is the new best.
    At most: a j-fan gives kappa(a, b) >= j by the proof above, since
    every mark t has kappa(a, t) >= the current best >= j.
    At least: take j internally disjoint paths from b to a. The last inner
    vertex of each is a neighbour of a, so in the set, and b is not in it.
    Cutting each path at its first vertex in the set leaves j paths that
    share only b and end at distinct vertices, a j-fan.
    """
    v = min(range(g.n), key=g.degree)
    near, best = g.adj[v], g.degree(v)
    pairs = [(v, w) for w in range(g.n) if w != v and w not in near]
    pairs += [(x, y) for x, y in combinations(near, 2) if not g.has_edge(x, y)]
    linked: dict[int, set[int]] = {}  # a -> a, its neighbours and the b settled with it
    for a, b in pairs:
        if best == 0:
            break
        if a not in linked:
            linked[a] = {a, *g.adj[a]}
        if not _greedy_fan(g, b, linked[a], best):
            best = len(_flow_paths(g, b, linked[a], best))
        linked[a].add(b)
    return best
