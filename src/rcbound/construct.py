"""Budgeted growth of a rainbow-connected subgraph, ending in a full coloring.

The driver keeps a connected subgraph H that is rainbow connected under a
partial coloring and never spends more than (3h - 1) / 5 colors on h
vertices (5k <= 3h - 1 in exact integers). While at least four vertices
remain outside, one bulk move fires per round. Every move obeys one rule,
move_budget: q >= 4 added vertices may take at most ceil(q/2) fresh
colors, so the budget survives by arithmetic alone. The last at most three
vertices are absorbed with at most two extra colors, which lands the
total at 5k <= 3n + 3, i.e. k <= floor((3n + 3) / 5). A scripted move
over its budget is refused. Every growth step commits through one path:
fresh colors follow H's palette without a gap, and each step adds one
trace line. The seed and each repair patch (a fallback or final
absorption) are checked once by the rainbow-connectivity checker; a
repair failure aborts with a ConstructionError that carries the full
trace. A scripted move commits unchecked, on a proof in its plan
builder's docstring. Call a color fresh when the move adds it (slots 1,
2, 3 are f1, f2, f3; REUSE is color 1), and a route of an added vertex a
path of patch edges with distinct fresh colors through added vertices
into H. Each script meets
  (a) every added vertex has a route;
  (b) every two added vertices are joined by a path of patch edges with
      distinct colors, or have routes with disjoint colors.
Then H plus the patch is rainbow connected when H is so in its own
colors. A patch colors only new edges at added vertices, so pairs inside
H keep their paths. An added vertex reaches a vertex of H by its route
and H's path on from the route's end, and two added vertices under (b)
by one route, H's path between the two ends and the other route. H's
paths use only H's colors, which no route carries, so each such walk
repeats no color and holds a rainbow path; routes may end at one vertex.
A growth check covers only the pairs with an added vertex, for the same
reason, and since H's kept layout makes H rainbow connected in H's own
colors, a check's pass from an added vertex that reaches H by a walk
with none of those colors settles every vertex of H at once (see
_try_coloring). The finished coloring gets one full check, with no such
shortcut.

Move kinds
  four_leaves      four outside vertices, three host links each
  ear              a path between two H-vertices with q >= 4 outside
                   vertices inside it
  tripod           a center reaching H by three 2-step paths
  arch_1xy         a 2-2 double bridge plus a companion whose own link
                   profile is 1xy (4, 5 or 6 vertices)
  fork_leaves      a fork (two direct links and one 2-step path) plus two
                   3-link companions
  fork_fork        a fork plus a fork-shaped companion
  ear_fallback     an ear found from a vertex with no direct link into H
  fallback_absorb  four reachable outside vertices by repair search alone
  final_absorb     the closing move for the last r <= 3 vertices
  spanning_tree    a failed forced run's fallback: distinct BFS tree colors
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Iterator
from dataclasses import dataclass, field

from .connectivity import check_fan, find_fan, vertex_connectivity
from .graphs import Edge, Graph, norm_edge, shortest_cycle
from .rainbow import ColoredLayout, EdgeColoring, find_rainbow_witness

log = logging.getLogger(__name__)

REUSE = 0  # slot id meaning "color 1 of H"; positive slots are fresh colors

FOUR_LEAVES = "four_leaves"
EAR = "ear"
EAR_FALLBACK = "ear_fallback"
TRIPOD = "tripod"
ARCH_111 = "arch_111"
ARCH_112 = "arch_112"
ARCH_122 = "arch_122"
ARCH_113 = "arch_113"
FORK_LEAVES = "fork_leaves"
FORK_FORK = "fork_fork"
FALLBACK_ABSORB = "fallback_absorb"
FINAL_ABSORB = "final_absorb"
SPANNING_TREE = "spanning_tree"


class PreconditionError(ValueError):
    """Input violates a stated precondition (typically connectivity)."""


class ConstructionError(RuntimeError):
    """The construction could not complete; carries the step trace."""

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = tuple(trace)


def color_bound(n: int) -> int:
    """The guaranteed ceiling floor((3n + 3) / 5) on colors used."""
    return (3 * n + 3) // 5


@dataclass(frozen=True)
class StepRecord:
    index: int
    kind: str
    added: tuple[int, ...]
    new_colors: int
    h: int
    k: int
    repaired: bool = False  # no step sets it; the benchmark harness reads it

    @property
    def fallback(self) -> bool:
        return self.kind in (EAR_FALLBACK, FALLBACK_ABSORB)

    def format(self) -> str:
        return (f"step={self.index} kind={self.kind} "
                f"added={','.join(map(str, self.added)) or '-'} "
                f"new_colors={self.new_colors} h={self.h} k={self.k} "
                f"budget_lhs={5 * self.k} budget_rhs={3 * self.h - 1}")


@dataclass(frozen=True)
class ExtensionPlan:
    """One bulk move: vertices to absorb plus an edge -> color-slot script."""
    kind: str
    vertices: tuple[int, ...]
    slots: tuple[tuple[Edge, int], ...]


@dataclass
class GrowState:
    """Mutable growth state: the subgraph's vertices, its coloring (whose
    keys are the subgraph's edges) and the step trace. The trace records
    every repair search: a fallback_absorb step, or a final_absorb step
    that adds a vertex. `fans` keeps each outside vertex's last 3-fan into
    H until _commit absorbs that vertex; each read cuts it to the H of its
    round (see _read_fan). `layout` is the checker's colored layout of
    `coloring`, built when the state is made; each commit then adopts the
    layout extended by the patch it commits (see _extend), the one its
    accepted check read when it has one, so a step builds one layout and
    after each commit `layout` equals ColoredLayout.build of `coloring`.
    final_absorb's color-1 leftovers, added after the last commit, stay
    out of it.

    `grown` records that the state was made with an empty H, as
    seed_subgraph makes it. Then every vertex of H came in through a step
    that was either checked on the layout it commits or is a scripted move
    proved in the module docstring's terms, and layouts only gain edges,
    so `layout` joins every two vertices of H by a rainbow path in H's own
    colors: the invariant that lets _try_coloring hand H to the checker as
    a core. A state made around a given H promises nothing of it: its
    checks run without a core, and a scripted move keeps H plus the patch
    rainbow connected only where H was."""
    host: Graph
    vertices: set[int]
    coloring: dict[Edge, int]
    colors_used: int
    trace: list[StepRecord] = field(default_factory=list)
    fans: dict[int, tuple] = field(default_factory=dict)
    layout: ColoredLayout = field(init=False, repr=False, compare=False)
    grown: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.layout = ColoredLayout.build(self.host, EdgeColoring(self.coloring))
        self.grown = not self.vertices

    @property
    def h(self) -> int:
        return len(self.vertices)

    def externals(self) -> list[int]:
        return sorted(set(range(self.host.n)) - self.vertices)


def move_budget(q: int) -> int:
    """Fresh colors a move that adds q >= 4 vertices may take: ceil(q/2).

    This one rule keeps the invariant 5k <= 3h - 1 of the grown subgraph.
    Every seed meets it: a triangle gives 5 <= 8, a 4-cycle 10 <= 11, a
    cycle of length L >= 6 takes ceil(L/2) colors with 5 * ceil(L/2) <=
    3L - 1, and a 5-cycle always gets its pendant (15 <= 17), because a
    shortest cycle is induced and in a 3-connected graph each of its
    vertices has a third neighbour off it. A move then adds 3q to the
    right side and at most 5 * ceil(q/2) <= 3q to the left, which holds
    for every q >= 4 (10 <= 12, 15 <= 15, ...). So apply_extension's
    refusal of an over-budget script is the only budget check a growth
    step needs. A repair may also use the invariant's slack:
    apply_extension's one repair search takes the budgets from ceil(q/2)
    up to floor((3(h + q) - 1) / 5) - k, and at most q + 1, the most
    fresh colors q star patterns can use (the alternating star two, each
    other star one).
    """
    if q < 4:
        raise ValueError(f"a move must add at least 4 vertices, adds {q}")
    return (q + 1) // 2


def cycle_color_sequence(n: int) -> list[int]:
    """Colors for the edges of an n-cycle in cyclic order, using the fewest
    colors that keep the cycle rainbow connected: 1 for a triangle,
    ceil(n/2) otherwise (each color on two antipodal-ish edges)."""
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    if n == 3:
        return [1, 1, 1]
    half = n // 2
    if n % 2 == 0:
        return list(range(1, half + 1)) * 2
    return list(range(1, half + 2)) + list(range(1, half + 1))


def ear_color_sequence(q: int) -> list[int]:
    """Color slots for the q+1 edges of a path through q >= 4 outside
    vertices; the center's direct host link, when there is one, takes
    REUSE.

    The path takes move_budget(q) fresh slots. Even q+1: they fill the
    first half and repeat in the same order on the second half. Odd q+1:
    they fill the first half, REUSE takes the middle edge, then the fresh
    run repeats.
    """
    fresh = list(range(1, move_budget(q) + 1))
    return fresh + fresh if q % 2 == 1 else fresh + [REUSE] + fresh


def seed_subgraph(g: Graph) -> GrowState:
    """Initial H: a triangle when one exists, else the shortest cycle, with
    a pendant vertex attached when the shortest cycle has length five
    (its budget needs the sixth vertex). Connectivity is not checked here:
    run_constructive is the input gate."""
    try:
        cycle = shortest_cycle(g)
    except ValueError:
        raise PreconditionError("input is acyclic") from None
    glen = len(cycle)
    kind = "seed_triangle" if glen == 3 else "seed_cycle"
    pendant: dict[Edge, int] = {}
    if glen == 5:
        on_cycle = set(cycle)
        for i, v in enumerate(cycle):
            outside = [w for w in g.adj[v] if w not in on_cycle]
            if outside:
                # attachment first, so the cycle colors 1,2,3,1,2 run from it;
                # pendant color 1 or 2 would repeat on both routes to one of
                # the attachment's cycle neighbors, so the pendant gets 3
                cycle = cycle[i:] + cycle[:i]
                pendant = {norm_edge(v, min(outside)): 3}
                kind = "seed_pendant_cycle"
                break
    seq = cycle_color_sequence(glen)
    coloring = {norm_edge(cycle[i], cycle[(i + 1) % glen]): seq[i] for i in range(glen)}
    coloring.update(pendant)
    state = GrowState(g, set(), {}, 0)
    added = tuple(sorted({v for e in coloring for v in e}))
    witness, layout = _try_coloring(state, added, coloring)
    if witness is not None:
        raise ConstructionError(
            f"grown subgraph lost rainbow connectivity at pair {witness}", state.trace)
    _commit(state, kind, added, coloring, layout)
    return state


def classify_extension(state: GrowState) -> ExtensionPlan:
    """Choose the next bulk move.

    The outside vertices with a link into H get a 3-fan into H in label
    order: a fan kept from an earlier round cut to the current H, or a
    fresh shortest-path search where the cut fan lacks a direct link that
    a fresh one would have (_read_fan). Vertices
    whose fan mixes a direct link with a longer path drive the move
    choice: the one with the largest combined interior s + t wins, the
    lower label on a tie, long combinations become ears and short ones the
    scripted small moves. Reading stops at the first fan with s + t =
    |ext| - 1: the inner vertices of its two longer paths are distinct
    outside vertices other than its source, so no fan has more, a later
    vertex can at best tie and lose, and |ext| >= 4 makes s + t >= 3, so
    that fan's ear is the move, which reads no other fan. When only 3-link
    leaves remain, four of them are absorbed at once. Only when neither applies
    do the vertices with no link into H get their fans, the long ones
    becoming ears with no center link. Configurations none of the scripts
    cover fall back to a repair-searched absorption and are flagged in the
    trace.
    """
    host = state.host
    ext = state.externals()
    if len(ext) < 4:
        raise ValueError(f"classification needs at least 4 outside vertices, have {len(ext)}")
    hset = frozenset(state.vertices)
    # only vertices with a link into H and a fan, in label order, up to the
    # first whose fan takes every other outside vertex; each fan's path lengths
    fans = {}
    for w in ext:
        if not hset.isdisjoint(host.adj[w]) and (fan := _read_fan(state, w, hset)) is not None:
            fans[w] = fan
            if len(fan[1]) + len(fan[2]) - 3 == len(ext):
                break

    leaves: list[int] = []
    mixed: list[tuple[int, int]] = []  # (s + t, vertex)
    for w, (_, p1, p2) in fans.items():
        # a fan read for w has min(links, 3) one-edge paths (_read_fan), so a
        # linked w's shortest path is a link and a 3-link w is a leaf
        if len(p2) == 2:
            leaves.append(w)
        else:
            mixed.append((len(p1) + len(p2) - 4, w))

    if not mixed and len(leaves) >= 4:
        return _four_leaves_plan(fans, leaves[:4])

    if mixed:
        st, x = max(mixed, key=lambda item: (item[0], -item[1]))
        p0, p1, p2 = fans[x]
        s = len(p1) - 2
        e0 = norm_edge(x, p0[1])
        if st >= 3:
            return _ear_plan(EAR, p1, p2, e0)
        if st == 2:
            if s == 1:
                return _companion_dispatch(state, fans, center=x, e0=e0,
                                           u1=p1[1], a=p1[2], v1=p2[1], b=p2[2])
            # s == 0, t == 2: shift the center onto the long path's first
            # vertex, whose lowest link into H (if any) becomes e0
            v1, v2, b = p2[1], p2[2], p2[3]
            links = [q for q in host.adj[v1] if q in hset]
            return _companion_dispatch(state, fans, center=v1,
                                       e0=norm_edge(v1, links[0]) if links else None,
                                       u1=x, a=p1[1], v1=v2, b=b)
        # st == 1: a fork (two direct links, one 2-step path)
        v1, b = p2[1], p2[2]
        e1 = norm_edge(x, p1[1])
        twins = [w for w in leaves if w != v1]
        if len(twins) >= 2:
            return _fork_leaves_plan(x, v1, b, e0, e1, fans, twins[0], twins[1])
        for w, fan in fans.items():
            if w in (x, v1) or [len(p) - 1 for p in fan] != [1, 1, 2]:
                continue
            vp = fan[2][1]
            if vp not in (x, v1):
                return _fork_fork_plan(x, v1, b, e0, e1, w, fan)
        return _fallback_absorb_plan(state)

    # an unlinked vertex's fan has no 1-step path, so no branch above reads it
    longs = {w: fan for w in ext if hset.isdisjoint(host.adj[w])
             and (fan := _read_fan(state, w, hset)) is not None}
    st, w = max(((len(p1) + len(p2) - 4, w) for w, (_, p1, p2) in longs.items()),
                key=lambda item: (item[0], -item[1]), default=(0, -1))
    if st >= 3:
        return _ear_plan(EAR_FALLBACK, longs[w][1], longs[w][2], e0=None)
    return _fallback_absorb_plan(state)


def _read_fan(state: GrowState, w: int, hset: frozenset[int]) -> tuple | None:
    """A 3-fan from w into H = hset with min(|N(w) & H|, 3) one-edge paths,
    or None when w has no 3-fan into H.

    A fan kept in state.fans is cut to the current H: each path stops at
    its first vertex in H, and the paths are sorted by (length, path). The
    cut is a fan into H. The kept fan was a fan into an earlier H0, and H
    only grows, so H0 is a subset of H: its paths share only w and end at
    distinct vertices of H0, so each path meets H, and the cut paths still
    share only w, end at distinct vertices of H and have their inner
    vertices outside H. The cut fan is checked again against H all the
    same. It is kept and returned unless it has fewer one-edge paths than
    min(|N(w) & H|, 3); then a fresh search replaces it. That keeps what
    classify_extension reads from a fan: a fresh search has that many,
    since each of the flow's searches takes w's lowest unused link into H
    first and no search enters w to cancel it, so a linked vertex's
    shortest path is a link and a vertex with three links is a [1, 1, 1]
    leaf. A vertex with no fan gets a search each time it is read."""
    host = state.host
    kept = state.fans.get(w)
    if kept is not None:
        cut = (p[:next(i for i, v in enumerate(p) if v in hset) + 1] for p in kept)
        fan = tuple(sorted(cut, key=lambda p: (len(p), p)))
        check_fan(host, fan, w, hset, 3)
        if sum(len(p) == 2 for p in fan) >= min(len(hset.intersection(host.adj[w])), 3):
            state.fans[w] = fan
            return fan
    fan = find_fan(host, w, hset, 3)
    if fan is not None:
        state.fans[w] = fan
    return fan


def _four_leaves_plan(fans, picked: list[int]) -> ExtensionPlan:
    """Four leaves, each with f1 on its first link into H and f2 on the
    other two. (a) A leaf's links are its routes, on f1 and on f2. (b) Two
    leaves take routes on f1 and on f2."""
    slots: list[tuple[Edge, int]] = []
    for w in picked:
        # a leaf's fan is three links sorted by their ends in H, so by edge
        links = [norm_edge(w, p[1]) for p in fans[w]]
        slots.append((links[0], 1))
        slots.extend((e, 2) for e in links[1:])
    return ExtensionPlan(FOUR_LEAVES, tuple(picked), tuple(slots))


def _ear_plan(kind: str, p1, p2, e0: Edge | None) -> ExtensionPlan:
    """An ear: the path v0, ..., v(q+1) from p1's end in H through the
    center to p2's end, a distinct fan end, whose q inner vertices are
    added; edge vi v(i+1) takes slot i of ear_color_sequence(q), and e0,
    when given, REUSE. Let m = ceil(q/2) and r = q + 1 - m (m for odd q,
    m + 1 for even). The first i <= m edges carry f1..fi, the last l <= m
    the top l fresh colors, and any r consecutive edges repeat no color
    (f1..fm twice, or around one REUSE edge). (a) vi takes its route to v0
    when i <= m, else to v(q+1), on q + 1 - i < r edges. (b) vi and vj,
    i < j, join along the ear when j - i <= r; otherwise their routes to
    v0 and to v(q+1) take f1..fi and the top q + 1 - j colors, and
    i + q + 1 - j < m. e0 serves neither."""
    added = tuple(sorted(set(p1[:-1]) | set(p2[:-1])))
    walk = list(reversed(p1)) + list(p2[1:])  # terminal(p1) .. x .. terminal(p2)
    seq = ear_color_sequence(len(added))
    slots = [(norm_edge(walk[i], walk[i + 1]), seq[i]) for i in range(len(walk) - 1)]
    if e0 is not None:
        slots.append((e0, REUSE))
    return ExtensionPlan(kind, added, tuple(slots))


def _companion_dispatch(state: GrowState, fans, center: int, e0: Edge | None,
                        u1: int, a: int, v1: int, b: int) -> ExtensionPlan:
    """Pick the fourth vertex joining a 2-2 double bridge around `center`:
    a tripod companion first, else (when the center links H through e0) an
    arch companion.

    The arch scripts share a base: u1 reaches a on f1, the center H
    through e0 on f1 and v1 reaches b on f2, their routes; u1-center f2 and
    center-v1 f1 join the three in the patch. The companion w, with the
    inner vertices of its fan, takes:
      arch_111  links f1, f1, f2: routes on f1 and on f2.
      arch_112  links f1, f2, w-vp f1, vp-bp f3: w as in arch_111, vp's
                route on f3.
      arch_122  ap-up f1, up-w f2, w-vp f1, w's link f3, vp-bp f3: routes
                w {f3}, vp {f3}, up {f1} and {f2, f3} (through w).
      arch_113  vp-vq f1, w-vp f2, w's links f3, vq-bp f3: routes w {f3},
                vq {f3}, vp {f1, f3} and {f2, f3}.
    (b) The added vertices beyond the base form a path in the patch on f1
    and f2 (w-vp; up-w-vp; w-vp-vq). A base route takes f1 (u1, center)
    or f2 (v1), and every other added vertex has a route that misses
    either one. e0's end may be a or b, and a companion's fan may end at
    any of them: (a) and (b) ask nothing of the ends."""
    host = state.host
    base = {center, u1, v1}
    for w in host.adj[center]:
        if w in base or w in state.vertices:
            continue
        into_h = [q for q in host.adj[w] if q in state.vertices]
        if into_h:
            return _tripod_plan(a=a, u1=u1, center=center, v1=v1, b=b,
                                x1=w, c=min(into_h))
    if e0 is None:
        return _fallback_absorb_plan(state)
    arch = [(norm_edge(a, u1), 1), (e0, 1), (norm_edge(center, v1), 1),
            (norm_edge(u1, center), 2), (norm_edge(v1, b), 2)]
    for w, fan in fans.items():
        joining = {v for p in fan for v in p[:-1]}  # w and its fan's inner vertices
        if not base.isdisjoint(joining):
            continue
        lens = [len(p) - 1 for p in fan]
        links = [norm_edge(w, p[1]) for p in fan]
        added = tuple(sorted(base | joining))
        if lens == [1, 1, 1]:
            slots = arch + [(links[0], 1), (links[1], 1), (links[2], 2)]
            return ExtensionPlan(ARCH_111, added, tuple(slots))
        if lens == [1, 1, 2]:
            vp, bp = fan[2][1], fan[2][2]
            slots = arch + [(links[0], 1), (norm_edge(w, vp), 1),
                            (links[1], 2), (norm_edge(vp, bp), 3)]
            return ExtensionPlan(ARCH_112, added, tuple(slots))
        if lens == [1, 2, 2]:
            up, ap = fan[1][1], fan[1][2]
            vp, bp = fan[2][1], fan[2][2]
            slots = arch + [(norm_edge(ap, up), 1), (norm_edge(w, vp), 1),
                            (norm_edge(up, w), 2), (links[0], 3), (norm_edge(vp, bp), 3)]
            return ExtensionPlan(ARCH_122, added, tuple(slots))
        if lens == [1, 1, 3]:
            vp, vq, bp = fan[2][1], fan[2][2], fan[2][3]
            slots = arch + [(norm_edge(vp, vq), 1), (norm_edge(w, vp), 2),
                            (links[0], 3), (links[1], 3), (norm_edge(vq, bp), 3)]
            return ExtensionPlan(ARCH_113, added, tuple(slots))
    return _fallback_absorb_plan(state)


def _tripod_plan(a: int, u1: int, center: int, v1: int, b: int,
                 x1: int, c: int) -> ExtensionPlan:
    """A tripod: u1 and v1 reach H at a and b on f1, x1 at c on f2, and
    the center joins u1 on f2, v1 and x1 on REUSE. (a) u1, v1 and x1 take
    their links, the center the route center-u1-a on f2, f1. (b) Every pair
    with the center or u1 joins in the patch (u1 reaches v1 and x1 through
    the center on f2, REUSE); v1 and x1 take routes on f1 and f2. c may
    be a or b."""
    slots = [(norm_edge(a, u1), 1), (norm_edge(b, v1), 1),
             (norm_edge(u1, center), 2), (norm_edge(c, x1), 2),
             (norm_edge(v1, center), REUSE), (norm_edge(center, x1), REUSE)]
    return ExtensionPlan(TRIPOD, tuple(sorted({center, u1, v1, x1})), tuple(slots))


def _fork_leaves_plan(x: int, v1: int, b: int, e0: Edge, e1: Edge,
                      fans, x1: int, x2: int) -> ExtensionPlan:
    """A fork x (e0 f1, e1 f2, x-v1 f1, v1-b f2) and two leaves with links
    f1, f1, f2, none of them v1. (a) x and each leaf have routes on f1 and
    on f2, v1 on f2. (b) x and v1 are adjacent; every other pair takes
    routes on f1 and f2."""
    slots = [(e0, 1), (norm_edge(x, v1), 1), (e1, 2), (norm_edge(v1, b), 2)]
    for w in (x1, x2):
        links = [norm_edge(w, p[1]) for p in fans[w]]
        slots.extend([(links[0], 1), (links[1], 1), (links[2], 2)])
    return ExtensionPlan(FORK_LEAVES, tuple(sorted({x, v1, x1, x2})), tuple(slots))


def _fork_fork_plan(x: int, v1: int, b: int, e0: Edge, e1: Edge,
                    x1: int, fan) -> ExtensionPlan:
    """A fork x with e0, e1, x-v1 and v1-b on f1, and a fork x1 with its
    links, x1-vp and vp-bp on f2, where x1 and vp lie outside {x, v1}. (a)
    x and v1 have routes on f1 (e0; v1-b), x1 and vp on f2 (a link;
    vp-bp). (b) x and v1 are adjacent, as are x1 and vp; every other pair
    takes routes on f1 and f2."""
    vp, bp = fan[2][1], fan[2][2]
    links = [norm_edge(x1, p[1]) for p in fan]
    slots = [(e0, 1), (e1, 1), (norm_edge(x, v1), 1), (norm_edge(v1, b), 1),
             (links[0], 2), (links[1], 2), (norm_edge(x1, vp), 2), (norm_edge(vp, bp), 2)]
    return ExtensionPlan(FORK_FORK, tuple(sorted({x, v1, x1, vp})), tuple(slots))


def _first_four(state: GrowState, pool) -> tuple[int, ...]:
    """The first four vertices of `pool` that H reaches through pool
    vertices (fewer when H reaches fewer), each step taking the lowest
    label next to H or to a vertex already taken."""
    adj, reach, pool = state.host.adj, set(state.vertices), sorted(pool)
    take: list[int] = []
    for _ in range(4):
        w = next((w for w in pool if w not in take and not reach.isdisjoint(adj[w])), None)
        if w is None:
            break
        take.append(w)
        reach.add(w)
    return tuple(take)


def _fallback_absorb_plan(state: GrowState) -> ExtensionPlan:
    """Four outside vertices reachable from H, to be colored by repair search."""
    take = _first_four(state, state.externals())
    if len(take) < 4:
        raise ConstructionError("outside vertices unreachable from the grown subgraph",
                                state.trace)
    return ExtensionPlan(FALLBACK_ABSORB, take, ())


def _fallback_sets(state: GrowState, first: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The 4-sets a fallback absorption tries in turn: `first`, then for
    each vertex of `first` the first four vertices H reaches among the
    outside vertices without it. Each set is yielded once, so at most
    five."""
    yield first
    ext = state.externals()
    tried = {first}
    for v in first:
        take = _first_four(state, [w for w in ext if w != v])
        if len(take) == 4 and take not in tried:
            tried.add(take)
            yield take


def _extend(state: GrowState, added, patch: dict[Edge, int]) -> ColoredLayout:
    """H's kept layout extended by a patch that colors only new edges at
    added vertices: extending refuses an edge H colors (ValueError), and
    the assertion an edge that touches no added vertex."""
    for u, v in patch:
        if u not in added and v not in added:
            raise AssertionError(f"patch edge {(u, v)} is not a new edge at an added vertex")
    return state.layout.extended(patch)


def _try_coloring(state: GrowState, added: tuple[int, ...],
                  patch: dict[Edge, int]) -> tuple[Edge | None, ColoredLayout]:
    """Check H plus the patch with one checker call on H's kept layout
    extended by the patch (_extend); with vertices added, only the pairs
    that touch them. Returns the witness (None when the check passes) and
    the layout the check read, which _commit adopts for an accepted step.
    A grown state's H goes to the checker as its core, with H's palette as
    the layout's first len(state.layout.bits) color bits
    (ColoredLayout.extended numbers the patch's new colors after them): H
    is rainbow connected in those colors, since each step that grew it was
    checked or proved (GrowState), so a pass from an added vertex that
    reaches H by a walk with none of H's colors settles all of H at once."""
    aset = set(added)
    layout = _extend(state, aset, patch)
    core = state.vertices if state.grown else None
    return find_rainbow_witness(state.host, layout, vertices=state.vertices | aset,
                                sources=aset or None, core=core,
                                core_colors=len(state.layout.bits)), layout


def _commit(state: GrowState, kind: str, added: tuple[int, ...], patch: dict[Edge, int],
            layout: ColoredLayout) -> None:
    """Commit one checked or proved growth step: its fresh colors must
    follow the palette of H without a gap. No step reaches this over its
    budget: a seed and a repair patch stay inside theirs by construction,
    and apply_extension refuses an over-budget script. Then H grows and
    adopts `layout`, the layout of H plus the patch, the kept fans of the
    absorbed vertices are dropped, and the step is recorded. The other
    kept fans stay: _read_fan cuts them to the grown H."""
    fresh = sorted({c for c in patch.values() if c > state.colors_used})
    used = len(fresh)
    if fresh != list(range(state.colors_used + 1, state.colors_used + 1 + used)):
        raise AssertionError(f"fresh colors not contiguous: {fresh}")
    state.layout = layout
    state.vertices.update(added)
    state.coloring.update(patch)
    state.colors_used += used
    for v in added:
        state.fans.pop(v, None)
    state.trace.append(StepRecord(len(state.trace), kind, added, used,
                                  state.h, state.colors_used))


def repair_step(state: GrowState, added_vertices,
                budgets: range) -> tuple[dict[Edge, int], ColoredLayout] | None:
    """Search for a coloring of every edge incident to the added vertices
    using at most b fresh colors plus color 1 of H, for each budget b of
    `budgets` in turn.

    Each added vertex gets a star pattern: one color from the fresh
    palette or color 1 on all its edges, or (with two fresh colors) the
    first two fresh colors alternating over its links into H. The stars
    are built once, for the widest palette. At budget b the labels (the
    first b fresh colors, color 1, then the alternating star when b >= 2)
    are tried in a fixed lexicographic order. One pass over each added
    vertex's host neighbours lists the candidate edges once, sorted, each
    tagged with its owner and the color its owner's alternating star gives
    it, so a label combination fills one color list by reading each
    edge's owner label, or the tag where that label is the alternating
    star. Its fresh colors, renumbered by
    first appearance, give the candidate's final form, and each such
    patch goes through _try_coloring once over all budgets: the checker
    reads only which colors are equal, so a patch that renames the fresh
    colors of one already tried gets its verdict. A search thus costs at
    most the sum over b of (b + 2) ** len(added) checker calls, each on
    H's kept layout extended by the candidate patch, and accepts the
    patch that searches at each budget in turn would.

    A combination that puts one color c on every candidate edge at u and
    at w, for two added vertices u and w that are not adjacent in the host
    and both have candidate edges, is skipped before it is renumbered or
    checked. c is read from the filled colors: an inner edge takes its
    owner's label. The skip changes no answer. No edge of H touches an
    added vertex, so in the candidate layout u's colored edges are exactly
    its candidate edges, and so are w's. A u-w path then has at least two
    edges, and its first and last both carry c, so no rainbow path joins
    u and w and _try_coloring would reject the patch. The first accepted
    patch, and with it every coloring, trace and fingerprint, is the one
    the unskipped search finds. Other patches that cut a vertex off from a
    single-colored added one are still rejected by the checker's
    color-clash bound after one first-walk pass, without the exact search.
    Returns the first accepted patch, as checked, with the layout its
    check read, or None when no pattern works; the caller then aborts
    with a ConstructionError. No caller adds a vertex that the added
    vertices do not join to H (plans follow fans into H, _first_four takes
    fallback vertices that H reaches, and final_absorb takes the rest of a
    connected host); such a vertex fails every check.
    """
    added = tuple(sorted(added_vertices))
    if set(added) & state.vertices:
        raise ValueError("added vertices must lie outside the grown subgraph")
    if any(b < 0 for b in budgets):
        raise ValueError(f"repair budgets must be non-negative, got {budgets}")
    log.info("repair search over %d vertices with budgets %s", len(added), budgets)

    host, hset, aset = state.host, state.vertices, set(added)
    base = state.colors_used
    fresh = [base + 1 + i for i in range(max(budgets, default=0))]

    # every candidate edge once, tagged with its owner's index and the color
    # the owner's alternating star gives it: an added vertex owns its inner
    # edges to larger added vertices (the second fresh color) and its links
    # into H (the first two fresh colors in turn, in host order). Without
    # two fresh colors no budget offers that star, and the tags are 0
    first, second = fresh[:2] if len(fresh) >= 2 else (0, 0)
    tagged = []
    for j, w in enumerate(added):
        linked = 0
        for q in host.adj[w]:
            if q in hset:
                tagged.append((norm_edge(w, q), j, second if linked & 1 else first))
                linked += 1
            elif q > w and q in aset:
                tagged.append(((w, q), j, second))
    tagged.sort()
    cand = [e for e, _, _ in tagged]
    owner = [j for _, j, _ in tagged]
    alt = [a for _, _, a in tagged]
    # the non-adjacent added pairs whose ends both have candidate edges, each
    # with the positions of all those edges, inner ones owned by others too
    apart = []
    pairs = [(u, w) for u, w in itertools.combinations(added, 2) if not host.has_edge(u, w)]
    if pairs:
        at: dict[int, list[int]] = {w: [] for w in added}
        for i, (u, w) in enumerate(cand):
            if u in at:
                at[u].append(i)
            if w in at:
                at[w].append(i)
        apart = [at[u] + at[w] for u, w in pairs if at[u] and at[w]]
    tried: set[tuple[int, ...]] = set()
    for b in budgets:
        # label 0 is the alternating star
        options = [*fresh[:b], 1] + ([0] if b >= 2 else [])
        for combo in itertools.product(options, repeat=len(added)):
            colors = [combo[j] or a for j, a in zip(owner, alt)]
            # a pair whose edges all share one color has no rainbow path
            one_color = False
            for pair in apart:
                c = colors[pair[0]]
                for i in pair:
                    if colors[i] != c:
                        break
                else:
                    one_color = True
                    break
            if one_color:
                continue
            # fresh colors renumbered by first appearance in edge order
            remap: dict[int, int] = {}
            key = tuple([remap.setdefault(c, base + 1 + len(remap)) if c > base else c
                         for c in colors])
            if key in tried:
                continue
            tried.add(key)
            patch = dict(zip(cand, key))
            witness, layout = _try_coloring(state, added, patch)
            if witness is None:
                return patch, layout
    return None


def apply_extension(state: GrowState, plan: ExtensionPlan) -> GrowState:
    """Absorb the plan's vertices: refuse a script over move_budget, then
    commit the scripted coloring unchecked, on its plan builder's proof
    (see the module docstring). A plan with no slots is colored by repair
    search alone, over the 4-sets of _fallback_sets in turn, and commits
    the first that colors; each search widens its palette while the
    invariant allows (see move_budget)."""
    added = plan.vertices
    if len(set(added)) < len(added):
        raise ValueError("plan lists a vertex twice")
    if set(added) & state.vertices:
        raise ValueError("plan adds vertices already inside the grown subgraph")
    if any(not (0 <= v < state.host.n) for v in added):
        raise ValueError("plan adds vertices outside the host")
    budget = move_budget(len(added))
    for e, _ in plan.slots:
        if not state.host.has_edge(*e):
            raise ValueError(f"plan colors a missing edge {e}")

    patch = {e: (1 if slot == REUSE else state.colors_used + slot) for e, slot in plan.slots}
    used = len({c for c in patch.values() if c > state.colors_used})
    if used > budget:
        raise ConstructionError(
            f"{plan.kind} spent {used} fresh colors, its budget allows {budget}", state.trace)
    if plan.slots:
        layout = _extend(state, added, patch)
    else:
        most = min((3 * (state.h + len(added)) - 1) // 5 - state.colors_used, len(added) + 1)
        for added in _fallback_sets(state, added):
            if (found := repair_step(state, added, range(budget, most + 1))) is not None:
                break
        else:
            raise ConstructionError("repair failed on a fallback absorption", state.trace)
        patch, layout = found
    _commit(state, plan.kind, added, patch, layout)
    return state


def final_absorb(state: GrowState) -> GrowState:
    """Close the construction: absorb the last r <= 3 outside vertices with
    at most two fresh colors (one when r = 1), then give every remaining
    host edge inside H color 1 so the coloring becomes total. The absorbed
    patch is checked by the repair search; the total coloring is checked by
    run_constructive."""
    ext = tuple(state.externals())
    r = len(ext)
    if r > 3:
        raise ValueError(f"final absorption handles at most 3 vertices, got {r}")
    patch, layout = {}, state.layout
    if r:
        found = repair_step(state, ext, range(min(r, 2), min(r, 2) + 1))
        if found is None:
            raise ConstructionError("repair failed during final absorption", state.trace)
        patch, layout = found
    _commit(state, FINAL_ABSORB, ext, patch, layout)
    # leftovers add color-1 edges and recolor none, so no rainbow path is lost
    for e in state.host.edges:
        state.coloring.setdefault(e, 1)
    return state


@dataclass(frozen=True)
class ConstructionResult:
    coloring: EdgeColoring
    colors_used: int
    bound: int
    kappa: int
    bound_guaranteed: bool
    trace: tuple[StepRecord, ...]

    def trace_lines(self) -> list[str]:
        return [rec.format() for rec in self.trace]


def spanning_tree_coloring(g: Graph) -> tuple[dict[Edge, int], StepRecord]:
    """The forced-run fallback for connected g: colors 1..n-1 on a BFS tree
    from vertex 0 in discovery order and color 1 elsewhere, so tree paths
    are rainbow. Returns the coloring and its trace step."""
    coloring = dict.fromkeys(g.edges, 1)
    order, seen = [0], {0}
    for u in order:
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
                coloring[norm_edge(u, w)] = len(order) - 1
    return coloring, StepRecord(0, SPANNING_TREE, tuple(order), g.n - 1, g.n, g.n - 1)


def run_constructive(g: Graph, force: bool = False) -> ConstructionResult:
    """Produce a full rainbow-connected coloring of g with at most
    floor((3n + 3) / 5) colors, guaranteed when g is 3-connected.

    With force=True connected lower-connectivity inputs are attempted
    anyway, falling back to spanning_tree_coloring when the construction
    fails or the graph has no cycle to seed it; the checker guarantee still
    holds for whatever comes back, the color bound does not.
    """
    # K1 is connected with kappa 0: refused without force, colored with it
    kappa = vertex_connectivity(g)
    if kappa == 0 and g.n > 1:
        raise PreconditionError("graph is disconnected; no coloring is rainbow connected")
    if kappa < 3 and not force:
        raise PreconditionError(
            f"vertex connectivity {kappa} < 3; pass force to attempt anyway")
    guaranteed = kappa >= 3
    try:
        state = seed_subgraph(g)
        # a committed move adds at least 4 distinct outside vertices (fewer,
        # repeated or inside ones are refused), so every round grows H
        while state.host.n - state.h >= 4:
            apply_extension(state, classify_extension(state))
        final_absorb(state)
        colors, trace = state.coloring, state.trace
    except (ConstructionError, PreconditionError) as exc:
        if guaranteed:
            raise
        log.warning("forced construction failed (%s); coloring a spanning tree", exc)
        colors, step = spanning_tree_coloring(g)
        trace = [step]

    coloring = EdgeColoring(colors)
    witness = find_rainbow_witness(g, coloring)
    if witness is not None:
        raise ConstructionError(f"final coloring failed verification at {witness}", trace)
    k = coloring.num_colors
    bound = color_bound(g.n)
    if guaranteed and k > bound:
        raise ConstructionError(f"color total {k} breaks the bound {bound}", trace)
    return ConstructionResult(coloring, k, bound, kappa, guaranteed, tuple(trace))
