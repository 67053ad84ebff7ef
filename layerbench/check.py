"""Independent output check: shares no code with rcbound.

Graphs arrive as a vertex count and an edge list, colorings as
[u, v, c] triples, so nothing here depends on the program's types.
"""

from __future__ import annotations

from itertools import combinations


def color_bound(n: int) -> int:
    return (3 * n + 3) // 5


def _neighbor_masks(n: int, edges) -> list[int]:
    nb = [0] * n
    for u, v in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


def _connected_without(n: int, nb: list[int], removed: int) -> bool:
    alive = ((1 << n) - 1) & ~removed
    if not alive:
        return True
    start = alive & -alive
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        fresh = nb[low.bit_length() - 1] & alive & ~seen
        seen |= fresh
        frontier |= fresh
    return seen == alive


def kappa_at_least_3(n: int, edges) -> bool:
    """True when n >= 4 and no set of at most two vertices disconnects the graph."""
    if n < 4:
        return False
    nb = _neighbor_masks(n, edges)
    if any(bin(m).count("1") < 3 for m in nb):
        return False
    return all(_connected_without(n, nb, sum(1 << v for v in cut))
               for size in range(3) for cut in combinations(range(n), size))


def diameter(n: int, edges) -> int | None:
    """Largest BFS distance, or None when the graph is disconnected."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    far = 0
    for s in range(n):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < n:
            return None
        far = max(far, max(dist.values()))
    return far


def rainbow_gap(n: int, colored) -> tuple[int, int] | None:
    """First pair (s, t), s < t, with no rainbow path, or None.

    Breadth-first search over (vertex, used-color bitmask) states from each
    source; a state is new when its exact mask has not reached that vertex.
    """
    bit_of = {c: 1 << i for i, c in enumerate(sorted({c for _, _, c in colored}))}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, c in colored:
        adj[u].append((v, bit_of[c]))
        adj[v].append((u, bit_of[c]))
    for s in range(n - 1):
        missing = set(range(s + 1, n))
        seen: list[set[int]] = [set() for _ in range(n)]
        seen[s].add(0)
        layer = [(s, 0)]
        while layer and missing:
            nxt = []
            for v, mask in layer:
                for w, bit in adj[v]:
                    if mask & bit:
                        continue
                    grown = mask | bit
                    if grown in seen[w]:
                        continue
                    seen[w].add(grown)
                    missing.discard(w)
                    nxt.append((w, grown))
            layer = nxt
        if missing:
            return s, min(missing)
    return None


def coloring_problem(n: int, edges, colored, k: int) -> str | None:
    """Why `colored` is not a valid rainbow coloring of the graph with
    exactly k colors, or None when it is."""
    host = {(min(u, v), max(u, v)) for u, v in edges}
    got = [(min(u, v), max(u, v)) for u, v, _ in colored]
    if len(got) != len(set(got)) or set(got) != host:
        return "coloring does not cover exactly the host edges"
    palette = {c for _, _, c in colored}
    if any(not isinstance(c, int) or c < 1 for c in palette):
        return "color ids must be positive integers"
    if len(palette) != k:
        return f"reported {k} colors, coloring uses {len(palette)}"
    gap = rainbow_gap(n, colored)
    if gap is not None:
        return f"no rainbow path between {gap[0]} and {gap[1]}"
    return None


def op_problem(n: int, edges, result: dict) -> str | None:
    """Check one successful op's outputs; None when every check passes."""
    problem = coloring_problem(n, edges, result["colors"], result["k"])
    if problem is not None:
        return f"constructive: {problem}"
    kappa3 = kappa_at_least_3(n, edges)
    if kappa3 != (result["kappa"] >= 3):
        return f"program reports kappa={result['kappa']}, but kappa >= 3 is {kappa3}"
    if kappa3 and result["k"] > color_bound(n):
        return f"k={result['k']} exceeds floor((3n+3)/5)={color_bound(n)}"
    if "exact_k" in result:
        problem = coloring_problem(n, edges, result["exact_colors"], result["exact_k"])
        if problem is not None:
            return f"exact: {problem}"
        if result["exact_k"] > result["k"]:
            return f"exact rc {result['exact_k']} exceeds constructive k={result['k']}"
        diam = diameter(n, edges)
        if diam is not None and result["exact_k"] < diam:
            return f"exact rc {result['exact_k']} below the diameter {diam}"
    return None
