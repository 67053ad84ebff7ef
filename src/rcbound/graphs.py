"""Simple undirected graphs: construction, edge-list I/O, generators, shortest cycle.

Vertices are dense integer ids 0..n-1. A Graph is immutable after
construction and safe to share across threads; every generator is a pure
function of its arguments (randomness only through an explicit seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Malformed text document; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[Edge, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, normalizing edge orientation and rejecting
    self-loops, duplicates and out-of-range endpoints."""
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    seen: set[Edge] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = norm_edge(u, v)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
    sorted_edges = tuple(sorted(seen))
    # the sorted edges give v its lower neighbours (u, v) in order of u, then
    # its higher ones (v, w) in order of w, so each list comes out ascending
    neigh: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted_edges:
        neigh[u].append(v)
        neigh[v].append(u)
    return Graph(n, sorted_edges, tuple(map(tuple, neigh)))


def document_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-split fields) for each line of a text
    document that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def int_fields(fields: list[str], lineno: int, count: int, shape: str,
               not_int: str) -> list[int]:
    """The fields as integers: GraphFormatError(shape) unless there are
    exactly `count` of them, GraphFormatError(not_int) when one is not an
    integer."""
    if len(fields) != count:
        raise GraphFormatError(shape, lineno)
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise GraphFormatError(not_int, lineno) from None


def check_vertices(n: int, lineno: int, *vs: int) -> None:
    """GraphFormatError unless every vertex index lies in 0..n-1."""
    if not all(0 <= v < n for v in vs):
        raise GraphFormatError(f"vertex index out of range 0..{n - 1}", lineno)


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: first meaningful line is the header "n m", then exactly m lines
    "u v". Blank lines and lines starting with '#' are ignored anywhere.
    Endpoints may appear in either order; self-loops, duplicates and
    out-of-range indices are errors reported with their line number. A
    header with n > 2m + 1 is refused before any edge line is read: such a
    graph has two or more isolated vertices, and the check keeps a short
    document from asking for memory in proportion to n.
    """
    lines = document_lines(text)
    lineno, fields = next(lines, (None, None))
    if fields is None:
        raise GraphFormatError("document contains no header line")
    n, m = int_fields(fields, lineno, 2, "header must be 'n m'", "header must be two integers")
    if n < 1:
        raise GraphFormatError(f"vertex count must be positive, got {n}", lineno)
    if m < 0:
        raise GraphFormatError(f"edge count must be non-negative, got {m}", lineno)
    if n > 2 * m + 1:
        raise GraphFormatError(f"vertex count {n} exceeds 2m + 1 = {2 * m + 1}: two or more "
                               "vertices would touch no edge", lineno)
    edges: set[Edge] = set()
    for lineno, fields in lines:
        if len(edges) == m:
            raise GraphFormatError(f"more than the declared {m} edge lines", lineno)
        u, v = int_fields(fields, lineno, 2, "edge line must be 'u v'",
                          "edge endpoints must be integers")
        check_vertices(n, lineno, u, v)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        e = norm_edge(u, v)
        if e in edges:
            raise GraphFormatError(f"duplicate edge {e}", lineno)
        edges.add(e)
    if len(edges) != m:
        raise GraphFormatError(f"expected {m} edges, found {len(edges)}")
    return make_graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Edge-list text with edges in sorted order; parse(serialize(g)) == g
    whenever g.n <= 2 * g.m + 1, the bound parse_graph enforces."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def shortest_cycle(g: Graph) -> list[int]:
    """A shortest cycle as an open vertex list (closing edge implied).

    Deterministic: the result starts at the smallest vertex lying on any
    shortest cycle and is the lexicographically smallest such sequence.

    One BFS per root, roots in label order (Itai and Rodeh's girth
    search). A non-tree edge (u, w) seen from root r closes the two tree
    paths into a walk of length dist[u] + dist[w] + 1. A root's search
    stops at the first u with 2 * dist[u] >= the best length, and the
    roots stop after a triangle. The walk is rebuilt only when it is shorter than the best,
    or when it ties an even best that starts at r; it is read from r
    towards r's smaller neighbour on it, and kept when shorter or
    lexicographically smaller.

    Why that is the canonical cycle C. Let L be the girth and r* = C[0].
    A closure of length L is a cycle through its root: tree paths sharing
    more than the root would leave a shorter cycle. So roots below r* meet
    only longer walks, r* meets L (C's closing edge leaves a vertex at
    depth (L - 1) // 2, below the stop), and later roots can only tie,
    with cycles that start at a larger vertex. BFS over sorted adjacency
    discovers each depth in the lexicographic order of the tree paths, so
    each tree path is the lexicographically smallest shortest path from
    the root. On a shortest cycle graph distance equals distance along the
    cycle, and up to depth (L - 1) // 2 a shortest path from the root is
    unique, since two would close a cycle shorter than L.
    - Odd L = 2m + 1: both arcs of C are unique paths, so both are tree
      paths, and the first closure of length L that r*'s search meets is
      C. An earlier one would be a shortest cycle smaller than C: either
      its first arc is a smaller tree path, or it has the same arc and a
      smaller partner in adjacency order. Odd ties need no rebuild.
    - Even L = 2m: the arcs up to depth m - 1 are unique. The tree parent
      of C's far vertex x is C's neighbour of x on its smaller arc: a
      parent y discovered earlier would give a smaller shortest cycle
      through y. So C is a closure of length L, the smallest of them, but
      not always the first met: on the edges (0, 1), (0, 3), (0, 4),
      (1, 5), (2, 3), (2, 4), (4, 5) the first is [0, 3, 2, 4] and C is
      [0, 1, 5, 4]. Hence the even ties.
    """
    best_len, best = 2 * g.n, []  # any closed walk is shorter than 2n
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        queue = [root]
        for u in queue:  # the queue grows while it is read
            du = dist[u]
            if 2 * du >= best_len:
                break
            for w in g.adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    c = du + dist[w] + 1
                    if c < best_len or (c == best_len and c % 2 == 0 and best[0] == root):
                        # root..u, then w..(root's other neighbour)
                        down, up = [u], [w]
                        while down[-1] != root:
                            down.append(parent[down[-1]])
                        while parent[up[-1]] != root:
                            up.append(parent[up[-1]])
                        cyc = down[::-1] + up
                        if cyc[-1] < cyc[1]:
                            cyc[1:] = cyc[:0:-1]
                        if c < best_len or cyc < best:
                            best_len, best = c, cyc
        if best_len == 3:
            break
    if not best:
        raise ValueError("graph is acyclic: no cycle to return")
    return best


def gen_family(family: str, *params: int, seed: int = 0) -> Graph:
    """Deterministic generators for the test families.

    Families: cycle n>=3; complete n>=1; wheel n>=4 (hub 0 plus an
    (n-1)-cycle rim); prism k>=3 (two k-cycles joined by a perfect
    matching); petersen; random3c n>=4 with an optional count of extra
    edges (grown from K4 by joining each new vertex to 3 existing ones,
    which keeps the graph 3-connected, then adding uniformly chosen
    non-edges, from a list of the n(n - 1)/2 pairs made only when extra > 0).
    """
    def need(count: int) -> tuple[int, ...]:
        if len(params) != count:
            raise ValueError(f"family {family!r} takes {count} parameter(s), got {len(params)}")
        return params

    if family == "cycle":
        (n,) = need(1)
        if n < 3:
            raise ValueError(f"cycle needs n >= 3, got {n}")
        return make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        (n,) = need(1)
        if n < 1:
            raise ValueError(f"complete needs n >= 1, got {n}")
        return make_graph(n, combinations(range(n), 2))
    if family == "wheel":
        (n,) = need(1)
        if n < 4:
            raise ValueError(f"wheel needs n >= 4, got {n}")
        rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
        spokes = [(0, i) for i in range(1, n)]
        return make_graph(n, rim + spokes)
    if family == "prism":
        (k,) = need(1)
        if k < 3:
            raise ValueError(f"prism needs k >= 3, got {k}")
        outer = [(i, (i + 1) % k) for i in range(k)]
        inner = [(k + i, k + (i + 1) % k) for i in range(k)]
        rungs = [(i, k + i) for i in range(k)]
        return make_graph(2 * k, outer + inner + rungs)
    if family == "petersen":
        need(0)
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        return make_graph(10, outer + spokes + inner)
    if family == "random3c":
        if len(params) == 1:
            n, extra = params[0], 0
        elif len(params) == 2:
            n, extra = params
        else:
            raise ValueError(f"random3c takes n and optional extra edge count, got {params}")
        if n < 4:
            raise ValueError(f"random3c needs n >= 4, got {n}")
        if extra < 0:
            raise ValueError(f"extra edge count must be non-negative, got {extra}")
        rng = random.Random(seed)
        edges = {norm_edge(u, v) for u, v in combinations(range(4), 2)}
        for v in range(4, n):
            for u in rng.sample(range(v), 3):
                edges.add(norm_edge(u, v))
        if extra:
            free = sorted(e for e in combinations(range(n), 2) if e not in edges)
            if extra > len(free):
                raise ValueError(f"cannot add {extra} extra edges, only {len(free)} non-edges left")
            edges.update(rng.sample(free, extra))
        return make_graph(n, edges)
    raise ValueError(f"unknown family {family!r}")

