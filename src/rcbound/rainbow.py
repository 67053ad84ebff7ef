"""Rainbow connectivity: the checker, coloring I/O and the exact solver.

A path is rainbow when all its edge colors differ, and a coloring makes a
graph rainbow connected when every vertex pair is joined by some rainbow
path. The checker's exact search (`_rainbow_reach`) runs over (vertex,
used-color bit mask) states, and so does the exact solver's walk search
(`_witness_walk`), which reads a partial coloring and keeps the walk it
finds. The solver mends a pair's broken walk with one of the pair's
two-step or three-step walks when one is still valid, and searches only
when none is and k >= 4 (at k <= 3 it never searches: those are all the
pair's walks of at most k edges). Both searches run one walk length at a
time and drop a walk whose colors hold those of a walk already kept at
the same vertex: the dropped walk is no shorter and can only go where the
kept one goes. The pruning is exact, so it changes no answer, and a
failing check holds a few masks per vertex instead of every color set
that reaches it.

The checker runs a cheaper pass first. From each source, a breadth-first
search keeps only the first rainbow walk to reach each vertex, with that
walk's colors, and extends it along edges of colors it lacks. Each kept
walk follows the search tree, so it is a rainbow path: every vertex the
pass reaches is rainbow connected to the source. A missed target may
still be reached by a later walk that the pass dropped. A path read
backwards is a path, so a pair of sources that the pass from one end
misses is settled when the pass from the other end reaches it; the exact
search runs only on the pairs the passes left open. Its reached set does
not depend on which other targets it is given, so the witness is the one
the exact search alone would report.

A growth check may also name a core, the grown subgraph H, whose pairs
are joined by rainbow paths in H's own colors. A pass that reaches H by
a walk with none of H's colors settles all of H at once: that walk and
H's path to any vertex of H share no color, so together they hold a
rainbow path. Only pairs with a rainbow path are settled that way, so no
answer changes; the exact search is spared the H vertices that the first
walks alone would miss.

A check restricted to sources also runs a cheap proof of failure, the
color-clash bound (`_color_clash`), on each source whose pass misses a
vertex and whose edges share one color. The repair search skips the
candidates that would most often fail that way, two non-adjacent added
vertices with one color on all their edges, before any check; the bound
still rejects a few others. A pass that misses nothing proves that its
source has no clash pair, so an accepted check never pays for the bound.
A full check skips it and keeps its lexicographically smallest witness.

The searches read a ColoredLayout. The checker builds one from a (Graph,
EdgeColoring) pair or takes one that a growing subgraph keeps and extends
by each candidate patch, so a growth check rebuilds nothing. A grown
subgraph's layout lists each vertex's edges in the order they were
colored. That order changes no answer (see find_rainbow_witness), only
how many pairs the passes settle: constructions of prisms of 80 to 150
rungs and of Moebius-200, under eleven labelings each, leave the exact
search no pair to decide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Edge, Graph, GraphFormatError, check_vertices, document_lines, int_fields,
                     norm_edge)


@dataclass
class EdgeColoring:
    """Total assignment of positive color ids to the edges of a host graph."""
    colors: dict[Edge, int]

    def __post_init__(self) -> None:
        colors = {norm_edge(u, v): c for (u, v), c in self.colors.items()}
        if len(colors) != len(self.colors):
            raise ValueError("two keys name the same edge")
        self.colors = colors

    @property
    def num_colors(self) -> int:
        return len(set(self.colors.values()))


class BudgetExhaustedError(RuntimeError):
    """The exact search ran out of its node budget while testing some k."""

    def __init__(self, k: int, nodes: int):
        super().__init__(f"budget-exhausted at k={k} after {nodes} nodes")
        self.k = k
        self.nodes = nodes


class NoColoringError(ValueError):
    """No coloring with at most max_colors colors makes the graph rainbow
    connected: a verdict on valid input, not an input error."""


def _require_covers(g: Graph, coloring: EdgeColoring) -> None:
    if set(coloring.colors) != set(g.edges):
        raise ValueError("coloring does not cover exactly the host edge set")
    if any(c < 1 for c in coloring.colors.values()):
        raise ValueError("color ids must be positive")


class ColoredLayout:
    """The colored edges of a host graph: `adj` holds per vertex its
    (neighbour, color bit) pairs in the order their edges were added.
    `build` and `extended` number colors by one rule: each new color
    takes the next bit where it first appears, so a mask holds one bit
    per color used whatever the color ids are (color 1 and color 10**30
    need two bits), and a layout extended by patches equals the layout
    built from their union in the same order. Only which colors are
    equal, not their bits nor the lists' order, sets a search's answer."""

    __slots__ = ("host", "adj", "bits")

    def __init__(self, host: Graph, adj: list[list[tuple[int, int]]], bits: dict[int, int]):
        self.host, self.adj, self.bits = host, adj, bits

    @classmethod
    def build(cls, g: Graph, coloring: EdgeColoring) -> ColoredLayout:
        """The layout of a coloring of edges of g (the caller checks them)."""
        bits: dict[int, int] = {}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for (u, v), c in coloring.colors.items():
            bit = bits.setdefault(c, 1 << len(bits))
            adj[u].append((v, bit))
            adj[v].append((u, bit))
        return cls(g, adj, bits)

    def extended(self, patch: dict[Edge, int]) -> ColoredLayout:
        """This layout with the patch's edges added after its own, in the
        patch's order; a patch edge must be an uncolored host edge and its
        color at least 1 (ValueError otherwise). Each added edge gives its
        endpoints new lists, so this layout stays as it was."""
        n, adj, bits = self.host.n, self.adj.copy(), self.bits
        for (u, v), c in patch.items():
            if not (0 <= u < n and 0 <= v < n and v in self.host.adj[u]):
                raise ValueError(f"edge {(u, v)} is not in the host graph")
            if c < 1:
                raise ValueError("color ids must be positive")
            for w, _ in adj[u]:
                if w == v:
                    raise ValueError(f"edge {(u, v)} is already colored")
            bit = bits.get(c)
            if bit is None:
                if bits is self.bits:
                    bits = bits.copy()
                bit = bits[c] = 1 << len(bits)
            adj[u] = adj[u] + [(v, bit)]
            adj[v] = adj[v] + [(u, bit)]
        return ColoredLayout(self.host, adj, bits)


def _rainbow_reach(adjc: list[list[tuple[int, int]]], source: int,
                   targets: set[int]) -> set[int]:
    """Vertices of `targets` reachable from source along rainbow walks; the
    source counts as reached. The search returns as soon as the last
    target is reached, without finishing the current level.

    States are (vertex, used-color mask) pairs, explored one level (walk
    length) at a time. A walk reaching w with colors `new` is dropped when
    a walk kept at w has colors m with m & new == m: every continuation
    of the dropped walk avoids m as well, so it also runs from the kept
    walk. The reached set is therefore the one a search of every state
    would return."""
    remaining = set(targets)
    remaining.discard(source)
    kept = {source: [0]}  # vertex -> masks of the walks kept there
    frontier = [(source, 0)]
    while frontier and remaining:
        nxt = []
        for v, mask in frontier:
            for w, bit in adjc[v]:
                if mask & bit:
                    continue
                new = mask | bit
                masks = kept.get(w)
                if masks is None:
                    kept[w] = [new]
                    if w in remaining:
                        remaining.discard(w)
                        if not remaining:
                            return set(targets)
                else:
                    for m in masks:
                        if m & new == m:
                            break
                    else:
                        masks.append(new)
                        nxt.append((w, new))
                    continue
                nxt.append((w, new))
        frontier = nxt
    return targets - remaining


def _witness_walk(inc: list[list[tuple[int, int]]], col: list[int], source: int,
                  target: int, k: int) -> list[int] | None:
    """The edge ids, in order from source, of one walk of at most k edges
    from source to a different target whose colored edges have distinct
    colors; None when there is none. `inc[v]` holds v's (neighbour, edge
    id) pairs and col[e] is edge e's color, 0 while it is uncolored; an
    uncolored edge never blocks a walk and adds no color.

    The search is `_rainbow_reach`'s over (vertex, used-color mask) states,
    one level at a time, with its dominance rule: a walk reaching w with
    colors `new` is dropped when a walk kept at w has colors m with
    m & new == m. Every continuation of the dropped walk avoids m as well,
    so it also runs from the kept walk, which came from this level or an
    earlier one: it is no longer, and the continuation stays within k. An
    uncolored edge leaves both masks as they are. So a walk is found
    whenever a search of every state finds one. Each state carries its
    walk as a chain of (edge id, earlier chain) pairs."""
    kept = {source: [0]}  # vertex -> masks of the walks kept there
    frontier = [(source, 0, None)]
    for _ in range(k):
        nxt = []
        for v, mask, trail in frontier:
            for w, e in inc[v]:
                c = col[e]
                if c:
                    bit = 1 << c
                    if mask & bit:
                        continue
                    new = mask | bit
                else:
                    new = mask
                if w == target:
                    walk = [e]
                    while trail:
                        e, trail = trail
                        walk.append(e)
                    walk.reverse()
                    return walk
                masks = kept.get(w)
                if masks is None:
                    kept[w] = [new]
                else:
                    for m in masks:
                        if m & new == m:
                            break
                    else:
                        masks.append(new)
                        nxt.append((w, new, (e, trail)))
                    continue
                nxt.append((w, new, (e, trail)))
        frontier = nxt
    return None


def _first_walk_misses(adjc: list[list[tuple[int, int]]], source: int,
                       targets: set[int], core_mask: int = -1, core=None) -> set[int]:
    """Vertices of `targets` that a breadth-first pass from source misses
    when it keeps only the first rainbow walk to reach each vertex. Every
    vertex it reaches lies on that walk, a path in the search tree, so it
    has a rainbow path; a missed target may still have one through a
    later walk, which `_rainbow_reach` decides.

    The first time the pass labels a vertex of `core` by a walk with no
    color bit of `core_mask`, every core vertex counts as reached (see
    find_rainbow_witness), and the pass goes on for the other targets
    only. With the default mask of every bit that never happens, and the
    test costs one AND per labelled vertex."""
    mask_at = [-1] * len(adjc)  # vertex -> its first walk's colors, -1 unreached
    mask_at[source] = 0
    queue = [source]
    remaining = len(targets)
    for v in queue:
        mask = mask_at[v]
        for w, bit in adjc[v]:
            if mask_at[w] < 0 and not mask & bit:
                new = mask_at[w] = mask | bit
                queue.append(w)
                if not new & core_mask and w in core:
                    # the targets left: those outside the core not labelled yet
                    core_mask, targets = -1, targets.difference(core, queue)
                    remaining = len(targets)
                    if not remaining:
                        return set()
                elif w in targets:
                    remaining -= 1
                    if not remaining:
                        return set()
    return {t for t in targets if mask_at[t] < 0}


def _one_color(adj: list[tuple[int, int]]) -> int:
    """The color bit all of a vertex's edges carry; 0 for two or none."""
    bits = {bit for _, bit in adj}
    return bits.pop() if len(bits) == 1 else 0


def _color_clash(adjc: list[list[tuple[int, int]]], u: int, universe) -> Edge | None:
    """A pair of source u and a universe vertex that no rainbow path joins,
    found without a rainbow search, or None, which proves nothing.

    Let u's edges all carry one color c. A rainbow path from u leaves u
    on c and never uses c again; its first inner vertex is a neighbour of
    u, and each later inner vertex is entered and left on two different
    colors. So a walk from u that steps to u's neighbours, then follows
    only edges not colored c, and goes on from a vertex only when it is a
    neighbour of u or carries more than one color, reaches every end of a
    rainbow path from u: a universe vertex it never reaches has no
    rainbow path to u. (A non-adjacent w whose edges all carry c is the
    simplest case: no edge enters it.) The lowest such w comes back with
    u as (min, max). The other vertices' colors are read only when u has
    one color, and only those that the walk reaches."""
    c = _one_color(adjc[u])
    if not c:
        return None
    near = {w for w, _ in adjc[u]}
    seen = near | {u}
    stack = list(near)
    while stack:
        for y, bit in adjc[stack.pop()]:
            if bit != c and y not in seen:
                seen.add(y)
                if not _one_color(adjc[y]):
                    stack.append(y)
    missed = [w for w in universe if w not in seen]
    if missed:
        w = min(missed)
        return (min(u, w), max(u, w))
    return None


def find_rainbow_witness(g: Graph, coloring: EdgeColoring | ColoredLayout,
                         vertices=None, sources=None, core=None,
                         core_colors: int = 0) -> Edge | None:
    """None when every pair is rainbow connected, otherwise the
    lexicographically smallest failing pair.

    `vertices` restricts the pair universe to a non-empty subset of
    0..n-1 (used to verify a subgraph). A universe vertex that no colored
    path joins to a source fails with it, so a disconnected one has a witness.

    `sources`, a subset of the universe, restricts the check to the pairs
    with at least one end in it, and a failing pair comes back as (min,
    max) with one end in the sources, not necessarily the smallest. Of
    the sources in ascending order, the first that the color-clash bound
    (_color_clash) proves failing comes back with its lowest clash
    partner, without an exact search. Otherwise one search runs from each
    source in ascending order, aimed at every universe vertex except the
    sources already searched, and the pair is the first source that misses
    one with its lowest missed vertex.

    The bound runs on a source only after its first-walk pass (below)
    misses a vertex, and that finds the same pair:
    - A clash pair (u, w) has no rainbow path. So u's pass misses w: w is
      either still a target, or an earlier source whose own pass missed
      u and so is aimed at again from u. A source whose pass misses
      nothing has no clash pair.
    - So the first source, in ascending order, whose bound finds a vertex
      is the first that has a clash pair, with the same lowest vertex. It
      still comes back before any exact search.
    - When no source has a clash pair, the passes and the exact search
      run as they would without the bound.

    A first-walk pass runs from each source, aimed also at the earlier
    sources whose pass missed it: a pair of sources that one end's pass
    misses is settled when the other end's pass reaches it. Then the exact
    search runs from each source, in the same order, on the pairs the
    passes left open. The passes only ever settle pairs that have a
    rainbow path, so the first source with a failing pair and its lowest
    failing partner are those of one exact search per source. Nor does
    the order of the layout's lists change an answer, only the work: a
    pass settles only pairs that have a rainbow path, the exact search's
    reached set and the clash verdict ignore the order, and a source with
    a clash pair misses a vertex in its pass in any order (above).

    `coloring` may also be a ColoredLayout over g, such as a growing
    subgraph's kept layout: then only its colored edges count, as if g
    had no others, and its edges are taken as checked when it was built.

    `core`, a set of vertices given with a layout, is the caller's promise
    that every two core vertices are joined by a rainbow path whose colors
    all have bits below 1 << core_colors: a grown subgraph H, rainbow
    connected in its own layout, whose colors ColoredLayout.extended keeps
    in the low bits. The set is read, not copied. The first time a source's
    pass labels a core vertex v by a walk P with none of those bits, every
    core vertex counts as reached from that source, and the pass goes on
    only for its other targets and the earlier sources it is aimed at.
    That settles only pairs that have a rainbow path: for a core vertex t,
    P and the promised rainbow path Q from v to t use disjoint color sets,
    so P followed by Q is a walk with no repeated color, and cutting its
    closed sub-walks leaves a rainbow path from the source to t. So the
    passes still settle only pairs with a rainbow path, as above, and every
    verdict and witness, the color-clash bound's included, are those of the
    check without `core`. Without `core` the pass tests an all-ones mask,
    which every walk meets, so a full check runs as it always has.
    """
    if isinstance(coloring, ColoredLayout):
        if coloring.host is not g:
            raise ValueError("layout is not over this host graph")
        adjc = coloring.adj
    else:
        _require_covers(g, coloring)
        adjc = ColoredLayout.build(g, coloring).adj
    verts = sorted(vertices) if vertices is not None else list(range(g.n))
    if not verts:
        raise ValueError("vertex universe is empty")
    if verts[0] < 0 or verts[-1] >= g.n:
        raise ValueError(f"vertex universe must lie in 0..{g.n - 1}")
    targets = set(verts)
    order = verts if sources is None else sorted(sources)
    if not targets.issuperset(order):
        raise ValueError("sources must lie inside the vertex universe")
    # a walk with no bit of core_mask enters the core clean
    core_mask = (1 << core_colors) - 1 if core else -1
    missed_by: dict[int, set[int]] = {}  # source -> open targets its pass missed
    aims: dict[int, set[int]] = {}  # target -> sources whose pass missed it
    for u in order:
        targets.discard(u)
        back = aims.pop(u, None)
        if not targets and not back:
            continue
        missed = _first_walk_misses(adjc, u, targets | back if back else targets,
                                    core_mask, core)
        if missed and sources is not None and (clash := _color_clash(adjc, u, verts)):
            return clash
        if back:  # a pass from u that reaches s settles the pair (s, u)
            for s in back - missed:
                missed_by[s].discard(u)
            missed -= back
        if missed:
            missed_by[u] = missed
            for w in missed:
                aims.setdefault(w, set()).add(u)
    for u, missed in missed_by.items():
        missing = missed and missed - _rainbow_reach(adjc, u, missed)
        if missing:
            w = min(missing)
            return (min(u, w), max(u, w))
    return None


def parse_coloring(text: str, g: Graph) -> EdgeColoring:
    """Parse a coloring document against its host graph.

    Format: first meaningful line is the palette size k, then one line
    "u v c" per host edge with 1 <= c <= k. Comment and blank lines, and
    endpoints outside 0..n-1, follow the edge-list rules. The edge set
    must match the host exactly.
    """
    lines = document_lines(text)
    lineno, fields = next(lines, (None, None))
    if fields is None:
        raise GraphFormatError("document contains no color count line")
    (k,) = int_fields(fields, lineno, 1, "first line must be the color count",
                      "color count must be an integer")
    if k < 0:
        raise GraphFormatError(f"color count must be non-negative, got {k}", lineno)
    colors: dict[Edge, int] = {}
    for lineno, fields in lines:
        u, v, c = int_fields(fields, lineno, 3, "coloring line must be 'u v c'",
                             "coloring line must hold three integers")
        check_vertices(g.n, lineno, u, v)
        e = norm_edge(u, v)
        if not g.has_edge(u, v):
            raise GraphFormatError(f"edge {e} is not in the host graph", lineno)
        if e in colors:
            raise GraphFormatError(f"edge {e} colored twice", lineno)
        if not 1 <= c <= k:
            raise GraphFormatError(f"color {c} outside 1..{k}", lineno)
        colors[e] = c
    missing = set(g.edges) - set(colors)
    if missing:
        raise GraphFormatError(f"host edges missing from coloring: {sorted(missing)[:3]}")
    return EdgeColoring(colors)


def serialize_coloring(coloring: EdgeColoring) -> str:
    """Coloring text with edges sorted. Color ids already forming a dense
    1..k range are kept; anything else is renumbered by first appearance."""
    items = sorted(coloring.colors.items())
    used = {c for _, c in items}
    if used == set(range(1, len(used) + 1)):
        remap = {c: c for c in used}
    else:
        remap = {}
        for _, c in items:
            if c not in remap:
                remap[c] = len(remap) + 1
    lines = [str(len(remap))]
    lines.extend(f"{u} {v} {remap[c]}" for (u, v), c in items)
    return "\n".join(lines) + "\n"


def _three_steps(inc: list[list[tuple[int, int]]], u: int, t: int) -> list[tuple[int, int, int]]:
    """The walks u-x-y-t of three edges as edge id triples, in `inc` order."""
    return [(e, f, h) for x, e in inc[u] for y, f in inc[x] for z, h in inc[y] if z == t]


def _pair_walks(g: Graph, inc: list[list[tuple[int, int]]]
                ) -> tuple[list[tuple[int, int]], list, list, list, int]:
    """rc_exact's set-up: per non-adjacent pair u < t, in ascending order,
    the pair, its first walk, its two-step walks and its three-step walks,
    each walk a tuple or list of edge ids from u; then the diameter (1 with
    no non-adjacent pair). `inc[v]` holds v's (neighbour, edge id) pairs.
    ValueError when g is disconnected.

    A pair with a two-step walk lists its three-step walks only when they
    are first needed (None until then). A pair four or more edges apart
    lists neither (an empty tuple each), and its first walk is the path to
    it of a breadth-first search from u, which runs only for a u with such
    a pair; any other pair's first walk is the first walk it lists, the
    path that search would keep (see rc_exact)."""
    n = g.n
    ends: list[tuple[int, int]] = []
    walks: list = []
    twos: list = []
    threes: list = []
    lower = 1
    for u in range(n):
        near = g.adj[u]
        path = None
        for t in range(u + 1, n):
            if t in near:
                continue
            ends.append((u, t))
            if path is None or len(path[t]) < 4:
                steps = [(e, f) for x, e in inc[u] for y, f in inc[x] if y == t]
                if steps:
                    walks.append(steps[0])
                    twos.append(steps)
                    threes.append(None)
                    if lower < 2:
                        lower = 2
                    continue
                steps = _three_steps(inc, u, t)
                if steps:
                    walks.append(steps[0])
                    twos.append(())
                    threes.append(steps)
                    if lower < 3:
                        lower = 3
                    continue
            if path is None:
                # the pair is four or more edges apart: one breadth-first
                # search from u gives u's eccentricity and its far pairs' walks
                path = [None] * n
                path[u] = []
                queue = [u]
                for v in queue:
                    for w, e in inc[v]:
                        if path[w] is None:
                            path[w] = path[v] + [e]
                            queue.append(w)
                if len(queue) < n:
                    raise ValueError("rc_exact requires a connected graph")
                lower = max(lower, len(path[queue[-1]]))
            walks.append(path[t])
            twos.append(())
            threes.append(())
    return ends, walks, twos, threes, lower


def rc_exact(g: Graph, max_colors: int | None = None,
             node_budget: int = 10 ** 8) -> tuple[int, EdgeColoring]:
    """Smallest k admitting a rainbow-connected coloring, with one coloring;
    NoColoringError (a ValueError) when no k up to `max_colors` works. A
    cap of m or more is no cap (m distinct colors always suffice); a
    negative cap is a ValueError.

    k runs upward from the diameter. For each k the search walks canonical
    colorings depth-first (edge i may use at most one more color than the
    maximum used before it, which quotients out color permutations) and
    returns the lexicographically smallest success. Every node is vetted
    with an optimistic feasibility probe: each non-adjacent pair needs a
    walk of at most k edges whose colored edges have distinct colors (a
    valid walk), else the subtree dies. `node_budget` caps the total
    number of assignments tried; running past it raises
    BudgetExhaustedError rather than truncating.

    The probe keeps one valid walk per non-adjacent pair, and per edge the
    pairs whose walk uses it (its watchers). Each pair u < t lists its
    two-step walks u-x-t, one per common neighbour x, and when it has
    none, its three-step walks u-x-y-t (`_pair_walks`). Its first walk is
    the first walk it lists, or for a pair four or more edges apart the
    path of a breadth-first search from u. Either way it is the path that
    search keeps, a shortest path with no colored edge and at most
    diameter <= k edges, and the longest first walk gives the diameter:
    the search reads each vertex's edges in `inc` order, and

    - at distance 2 it reaches t first from the first neighbour x of u,
      in that order, that is adjacent to t: the first two-step walk listed.
    - At distance 3 every three-step walk u-x-y-t has x at distance 1 and
      y at distance 2, and the search reaches t from the first y in its
      queue adjacent to t. The first walk listed, u-x0-y0-t, has y0
      labelled from x0 (an earlier neighbour of u adjacent to y0 would
      list an earlier walk), and any other such y joins the queue after
      y0, since the walk through y and the vertex it was labelled from is
      listed later. So the search keeps u-x0-y0-t.

    Painting edge i rechecks only i's watchers. A watcher whose walk broke
    takes its first two-step walk whose two edges do not carry one color;
    when there is none and k >= 3, its first three-step walk with no color
    twice on its colored edges, listed the first time one is needed; when
    there is none of those either and k >= 4, a walk from `_witness_walk`.
    A pair left without a walk rejects the node. The verdicts are those of
    searching every pair at every node, by this invariant: before edge i
    is painted, every kept walk is valid once edge i is taken as uncolored.

    - It holds at edge 0 of each k: every edge is uncolored, and a kept
      walk is a first walk or was found for a smaller k.
    - Painting edge i with color c changes only the walks through i, which
      are exactly i's watchers. Valid with i uncolored, such a walk breaks
      when another of its edges has color c or it uses i twice, which is
      when c occurs twice among its colors: the recheck. So when every
      watcher passes or gets a new walk, every pair has a valid walk; when
      a pair is left without one, it has none. Either way the verdict is
      that of searching every pair.
    - A new walk is valid. A two-step walk has two different edges and
      2 <= k of them (k is at least the diameter, which is at least 2
      when a non-adjacent pair exists), so it is valid exactly when its
      edges do not carry one color. A three-step walk u-x-y-t of a
      non-adjacent pair has four different vertices (y = u or x = t would
      make u and t adjacent), so three different edges, and it is tried
      only at k >= 3: it is valid exactly when no color occurs twice on
      its colored edges. A walk from `_witness_walk` is valid by that
      search.
    - A pair is left without one only when it has none. A walk of at
      most three edges between non-adjacent u and t is a two-step walk
      or a three-step walk, and the pair lists them all when it needs
      them: at k = 2 its two-step walks are all its walks of at most k
      edges, and at k = 3 its two- and three-step walks are. At k >= 4,
      `_witness_walk` found none.
    - Edges after i are uncolored whenever the search stands at i, so
      after an accept the next paint is of the uncolored edge i + 1, and
      every walk is valid: the invariant holds there.
    - After a reject (by the probe or by the color-count cut, which
      rechecks nothing) the watchers of i that were not rechecked all
      contain i and are valid with i uncolored; every other walk is valid
      as it stands. So the invariant holds for the next color of i, and
      when i's colors run out it is reset to uncolored, which breaks no
      walk and leaves every walk valid: the invariant holds for the
      previous edge's next paint.

    The invariant holds whichever valid walks are kept, so each node's
    verdict, the search tree, the returned (k, coloring) and
    BudgetExhaustedError's (k, nodes) do not depend on which walks are
    kept, nor on whether a listed walk or a search mends a broken one.
    """
    m = g.m
    max_colors = m if max_colors is None else min(max_colors, m)
    if max_colors < 0:
        raise ValueError(f"max_colors must be non-negative, got {max_colors}")
    if node_budget < 0:
        raise ValueError(f"node_budget must be non-negative, got {node_budget}")

    n, edges = g.n, g.edges
    inc: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (neighbour, edge id)
    for i, (u, v) in enumerate(edges):
        inc[u].append((v, i))
        inc[v].append((u, i))
    ends, walks, twos, threes, lower = _pair_walks(g, inc)
    if m == 0:
        return 0, EdgeColoring({})
    col = [0] * m
    watch: list[set[int]] = [set() for _ in range(m)]  # edge -> its watchers
    for p, walk in enumerate(walks):
        for e in walk:
            watch[e].add(p)
    nodes = 0

    def search(k: int) -> bool:
        """Depth-first over the edges in order; col[i] is edge i's color
        (0 while uncolored) and used[i] the highest color before edge i.
        After painting edge i with c, every watcher of i must keep or find
        a valid walk; the recheck stops at the first that cannot."""
        nonlocal nodes
        used = [0] * (m + 1)
        i = 0
        while 0 <= i < m:
            c = col[i] + 1
            top = used[i]
            if c > top + 1 or c > k:
                col[i] = 0  # every color tried: back to the previous edge
                i -= 1
                continue
            nodes += 1
            if nodes > node_budget:
                raise BudgetExhaustedError(k, nodes)
            col[i] = c
            if c > top:
                top = c
            used[i + 1] = top
            # every color must still be reachable with the edges left
            if k - top > m - i - 1:
                continue
            # every non-adjacent pair must keep a valid walk; the watchers are
            # read from a snapshot, since mending a walk changes them
            for p in list(watch[i]) if watch[i] else ():
                walk = walks[p]
                seen = False
                for e in walk:
                    if col[e] == c:
                        if seen:
                            break
                        seen = True
                else:
                    continue  # c occurs once on the walk, at i: still valid
                for e, f in twos[p]:
                    a = col[e]
                    if not a or a != col[f]:
                        found = (e, f)
                        break
                else:
                    if k == 2:  # the two-step walks are all of the pair's walks
                        break
                    steps = threes[p]
                    if steps is None:
                        steps = threes[p] = _three_steps(inc, *ends[p])
                    for e, f, h in steps:
                        a, b, d = col[e], col[f], col[h]
                        if (not a or a != b and a != d) and (not b or b != d):
                            found = (e, f, h)
                            break
                    else:
                        # at k = 3 the listed walks are all of the pair's walks
                        found = None if k == 3 else _witness_walk(inc, col, *ends[p], k)
                        if found is None:
                            break
                for e in walk:
                    watch[e].discard(p)
                for e in found:
                    watch[e].add(p)
                walks[p] = found
            else:
                i += 1
        return i == m

    # a failed search leaves every edge uncolored again
    for k in range(lower, max_colors + 1):
        if search(k):
            return k, EdgeColoring({edges[i]: col[i] for i in range(m)})
    raise NoColoringError(f"no rainbow-connected coloring with at most {max_colors} colors")
