"""Brauer graphs and their algebras.

A Brauer graph is a finite connected multigraph with a multiplicity at
each vertex and a cyclic order on the half-edges around each vertex.
Its algebra lives on the quiver whose vertices are the edges of the
graph: every non-truncated graph vertex contributes one arrow per
incident half-edge, pointing at the next edge around, and the relations
identify full turns around the two ends of an edge, cut off a turn past
a truncated end, and kill every composite that is not a consecutive
step of some turn.

The presentation is read off the graph, with no bound walk and no
minimisation.  The bound is one more than the longest full turn power,
max(2, max of val(v)*m(v) + 1 over the spinning vertices).  The cut-off
turn C^m x, x the first arrow of C, is kept exactly when x ends at an
edge with a truncated end: otherwise C^m x = x C'^m, C' the turn at the
next half, and C'^m is identified with a turn that x kills in length 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BrauerValidationError
from .ideal import (
    AlgebraPresentation,
    IdealPresentation,
    ZeroRelation,
    _check_type,
    linear_relation,
)
from .quiver import _LABEL, Path, quiver


@dataclass(frozen=True)
class Half:
    """One end of an edge; slot picks which of the two."""

    edge: str
    slot: int


@dataclass(frozen=True)
class BrauerGraph:
    vertices: tuple[tuple[str, int], ...]  # (vertex id, multiplicity)
    edges: tuple[tuple[str, str, str], ...]  # (edge id, end 0, end 1)
    orders: tuple[tuple[str, tuple[Half, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "_mult", dict(self.vertices))
        object.__setattr__(self, "_ends", {e: (a, b) for e, a, b in self.edges})
        object.__setattr__(self, "_order", dict(self.orders))
        valency: dict[str, int] = {}
        for _, a, b in self.edges:
            valency[a] = valency.get(a, 0) + 1
            valency[b] = valency.get(b, 0) + 1
        object.__setattr__(self, "_valency", valency)
        object.__setattr__(self, "_checked", False)  # brauer_graph sets it, having checked more

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e for e, _, _ in self.edges)

    def multiplicity(self, v: str) -> int:
        return self._mult[v]

    def is_loop(self, e: str) -> bool:
        a, b = self._ends[e]
        return a == b

    def valency(self, v: str) -> int:
        """Number of half-edges at v: a loop at v gives two, and a vertex
        no edge reaches none."""
        return self._valency.get(v, 0)

    def is_truncated(self, v: str) -> bool:
        return self.valency(v) * self._mult[v] == 1

    def order(self, v: str) -> tuple[Half, ...]:
        return self._order[v]


def _parse_token(g_edges: dict[str, tuple[str, str]], v: str, token: str) -> tuple[Half | None, str | None]:
    deco = token[-1] if token and token[-1] in "^~" else None
    eid = token[:-1] if deco else token
    if eid not in g_edges:
        return None, f"order at {v}: unknown edge {eid!r}"
    a, b = g_edges[eid]
    loop = a == b
    if loop and deco is None:
        return None, f"order at {v}: loop {eid} needs ^ or ~ to pick a half"
    if not loop and deco is not None:
        return None, f"order at {v}: {eid} is not a loop, bare id expected"
    if loop:
        return Half(eid, 0 if deco == "^" else 1), None
    if v == a:
        return Half(eid, 0), None
    if v == b:
        return Half(eid, 1), None
    return None, f"order at {v}: edge {eid} is not incident"


def brauer_graph(vertices, edges, orders=None) -> BrauerGraph:
    """Validating constructor.

    vertices: iterable of (id, multiplicity); edges: iterable of
    (id, end, end); orders: optional {vertex: [half tokens]} where a
    token is the edge id, with ^ / ~ picking a loop's halves. Omitted
    orders default to declaration order.  All problems are collected and
    raised together.
    """
    diags: list[str] = []

    def listed(items, what: str) -> list:
        try:
            return list(items)
        except TypeError:
            diags.append(f"{what}: expected an iterable, got {items!r}")
            return []

    vlist: list[tuple[str, int]] = []
    for item in listed(vertices, "vertices"):
        try:
            if isinstance(item, str):  # it would unpack into its characters
                raise ValueError
            v, m = item
        except (TypeError, ValueError):
            diags.append(f"vertex {item!r}: expected an (id, multiplicity) pair")
            continue
        try:
            n = int(m)
        except (TypeError, ValueError):
            n = None
        # int() truncates 2.5 and reads True as 1; a string must parse whole
        if n is None or isinstance(m, bool) or (not isinstance(m, str) and n != m):
            diags.append(f"vertex {v}: multiplicity must be an integer, got {m!r}")
            n = 1  # keeps v declared for the edge checks
        vlist.append((str(v), n))
    elist = []
    for item in listed(edges, "edges"):
        try:
            if isinstance(item, str):
                raise ValueError
            e, a, b = item
        except (TypeError, ValueError):
            diags.append(f"edge {item!r}: expected an (id, end, end) triple")
            continue
        elist.append((str(e), str(a), str(b)))

    vids = [v for v, _ in vlist]
    if len(set(vids)) != len(vids):
        diags.append("duplicate vertex ids")
    for v, m in vlist:
        if not _LABEL.match(v):
            diags.append(f"bad vertex id {v!r}")
        if m < 1:
            diags.append(f"vertex {v}: multiplicity must be at least 1, got {m}")
    eids = [e for e, _, _ in elist]
    if len(set(eids)) != len(eids):
        diags.append("duplicate edge ids")
    if set(eids) & set(vids):
        diags.append("edge and vertex ids must not overlap")
    known = set(vids)
    for e, a, b in elist:
        if not _LABEL.match(e):
            diags.append(f"bad edge id {e!r}")
        for end in (a, b):
            if end not in known:
                diags.append(f"edge {e}: undeclared endpoint {end!r}")
    if not elist:
        diags.append("graph has no edges")
    if diags:
        raise BrauerValidationError(diags)

    # connectivity over the multigraph
    adj: dict[str, set[str]] = {v: set() for v in vids}
    for _, a, b in elist:
        adj[a].add(b)
        adj[b].add(a)
    stack, seen = [vids[0]], {vids[0]}
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if seen != set(vids):
        diags.append("graph is not connected")

    ends = {e: (a, b) for e, a, b in elist}
    incident: dict[str, list[Half]] = {v: [] for v in vids}
    for e, a, b in elist:
        incident[a].append(Half(e, 0))
        incident[b].append(Half(e, 1))

    ring_map: dict[str, tuple[Half, ...]] = {}
    try:
        given = dict(orders or {})
    except (TypeError, ValueError):
        diags.append(f"orders: expected a mapping from vertex ids to token lists, got {orders!r}")
        given = {}
    for stray in set(given) - set(vids):
        diags.append(f"order for undeclared vertex {stray!r}")
    for v in vids:
        if v not in given:
            ring_map[v] = tuple(incident[v])
            continue
        ring: list[Half] = []
        for token in listed(given[v], f"order at {v}"):
            h, err = _parse_token(ends, v, str(token))
            if err:
                diags.append(err)
            elif h in ring:
                diags.append(f"order at {v}: half-edge {token} repeated")
            else:
                ring.append(h)
        if sorted(ring, key=lambda h: (h.edge, h.slot)) != sorted(
            incident[v], key=lambda h: (h.edge, h.slot)
        ):
            diags.append(f"order at {v} must list each incident half-edge once")
        ring_map[v] = tuple(ring)
    if diags:
        raise BrauerValidationError(diags)
    g = BrauerGraph(tuple(vlist), tuple(elist), tuple((v, ring_map[v]) for v in vids))
    object.__setattr__(g, "_checked", True)
    return g


# -- the algebra ---------------------------------------------------------------


def _check_graph(g: BrauerGraph) -> None:
    """Reject a graph built without brauer_graph that the entries cannot
    read: no edge, an edge end that is no declared vertex, or a spinning
    vertex whose order does not list its halves, as many as its valency.
    A half listed twice makes brauer_algebra's arrow ids collide.  A graph
    from brauer_graph passed all this when it was built."""
    _check_type(g, BrauerGraph)
    if g._checked:
        return
    diags = [f"edge {e}: undeclared endpoint {v!r}" for e, a, b in g.edges for v in (a, b) if v not in g._mult]
    if not g.edges:
        diags.append("graph has no edges")
    for v in g.vertex_ids:
        ring = g._order.get(v, ())
        if not (g.is_truncated(v) or len(ring) == g.valency(v)
                and all(g._ends.get(h.edge, ())[h.slot:h.slot + 1] == (v,) for h in ring)):
            diags.append(f"order at {v} must list each incident half-edge once")
    if diags:
        raise BrauerValidationError(diags)


def _arrow_id(g: BrauerGraph, v: str, h: Half) -> str:
    if g.is_loop(h.edge):
        return f"{v}_{h.edge}" + ("h" if h.slot == 0 else "t")
    return f"{v}_{h.edge}"


@dataclass
class BrauerAlgebra:
    graph: BrauerGraph
    algebra: AlgebraPresentation
    cycles: dict[tuple[str, Half], Path]  # full turn starting at that half


def brauer_algebra(g: BrauerGraph) -> BrauerAlgebra:
    """Quiver, relations, and bookkeeping for the algebra of a Brauer graph.

    The longest nonzero paths are the full turns C_v^m(v), so the bound
    is max(2, max of val(v)*m(v) + 1 over the spinning vertices), with no
    bound walk.  The relation C^m x at a truncated end, x the first arrow
    of the turn C, is kept exactly when x ends at an edge with a truncated
    end.  Otherwise it is redundant: C^m x = x C'^m for the turn C' at the
    next half, C'^m equals the turn at the other end of x's target edge,
    and x followed by that turn's first arrow is a zero relation of length
    2.  Every other relation listed is needed, so nothing is minimised.
    Each full turn is built once, one Path per half, and the relations are
    read off the turns and the arrows with no validation by Quiver.path.
    """
    _check_graph(g)
    spinning = [v for v in g.vertex_ids if not g.is_truncated(v)]
    identified = {e for e, a, b in g.edges if not (g.is_truncated(a) or g.is_truncated(b))}

    made: set[str] = set()
    arrows = []
    cycles: dict[tuple[str, Half], Path] = {}
    for v in spinning:
        ring = g.order(v)
        ids = [_arrow_id(g, v, h) for h in ring]
        for i, h in enumerate(ring):
            aid = ids[i]
            if aid in made:
                raise BrauerValidationError(
                    [f"generated arrow id {aid} collides; rename vertices or edges"]
                )
            made.add(aid)
            arrows.append((aid, h.edge, ring[(i + 1) % len(ring)].edge))
            cycles[(v, h)] = Path(tuple(ids[i:] + ids[:i]), h.edge, h.edge)
    if set(a for a, _, _ in arrows) & set(g.edge_ids):
        raise BrauerValidationError(
            ["a generated arrow id collides with an edge id; rename"]
        )
    q = quiver(g.edge_ids, arrows)

    zero = []
    linear = []
    for e, a, b in g.edges:
        ha = Half(e, 0)
        hb = Half(e, 1)
        spin_a = not g.is_truncated(a)
        spin_b = not g.is_truncated(b)
        if spin_a and spin_b:
            ca = cycles[(a, ha)].arrows * g.multiplicity(a)
            cb = cycles[(b, hb)].arrows * g.multiplicity(b)
            linear.append(linear_relation(q, [(1, Path(ca, e, e)), (-1, Path(cb, e, e))]))
        elif spin_a or spin_b:
            v, h = (a, ha) if spin_a else (b, hb)
            turn = cycles[(v, h)].arrows * g.multiplicity(v)
            first = q.arrow(turn[0])
            if first.target not in identified:
                zero.append(ZeroRelation(Path(turn + (first.id,), e, first.target)))
        # both ends truncated: the lone edge of a two-point graph, no arrows

    consecutive = {(c.arrows[0], c.arrows[1 % len(c)]) for c in cycles.values()}
    for x in q.arrows:
        for y in q.arrows_from(x.target):
            if (x.id, y.id) not in consecutive:
                zero.append(ZeroRelation(Path((x.id, y.id), x.source, y.target)))

    longest = max((g.valency(v) * g.multiplicity(v) for v in spinning), default=1)
    ideal = IdealPresentation(tuple(zero), tuple(linear), max(2, longest + 1))
    return BrauerAlgebra(g, AlgebraPresentation(q, ideal), cycles)


# -- classification and dimension ----------------------------------------------


@dataclass(frozen=True)
class BrauerShape:
    kind: str
    params: tuple[int, ...]
    is_ump: bool


def classify(g: BrauerGraph) -> BrauerShape:
    """Which of the unique-maximal-path shapes the graph produces.

    Exactly the one-edge graphs qualify: a bare edge, an edge with one
    spinning end (nilpotent loop), an edge with two (a pair of nilpotent
    loops with identified powers), or a loop (two alternating arrows)."""
    _check_graph(g)
    if len(g.edges) > 1:
        return BrauerShape("multiple-edges", (len(g.edges),), False)
    e, a, b = g.edges[0]
    if a == b:
        return BrauerShape("alternating-loop", (g.multiplicity(a),), True)
    spinning = [v for v in (a, b) if not g.is_truncated(v)]
    if not spinning:
        return BrauerShape("point", (), True)
    if len(spinning) == 1:
        return BrauerShape("nilpotent-loop", (g.multiplicity(spinning[0]),), True)
    m, n = sorted((g.multiplicity(a), g.multiplicity(b)), reverse=True)
    return BrauerShape("two-nilpotent-loops", (m, n), True)


def brauer_dimension(g: BrauerGraph) -> int:
    """Dimension of the algebra: one per edge, a full grid per spinning
    vertex, minus one per edge whose two full turns get identified."""
    _check_graph(g)
    both_spin = sum(1 for _, a, b in g.edges if not g.is_truncated(a) and not g.is_truncated(b))
    grids = sum(g.valency(v) ** 2 * g.multiplicity(v) for v in g.vertex_ids if not g.is_truncated(v))
    return len(g.edges) + grids - both_spin

