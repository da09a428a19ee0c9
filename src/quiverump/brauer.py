"""Brauer graphs and their algebras.

A Brauer graph is a finite connected multigraph with a multiplicity at
each vertex and a cyclic order on the half-edges around each vertex.
Its algebra lives on the quiver whose vertices are the edges of the
graph: every non-truncated graph vertex contributes one arrow per
incident half-edge, pointing at the next edge around, and the relations
identify full turns around the two ends of an edge, cut off a turn past
a truncated end, and kill every composite that is not a consecutive
step of some turn.

A BrauerGraph is checked once, when built, so each one is a Brauer graph:
brauer_graph only reads raw input into one, and the entries take any.

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
    """A Brauer graph, checked when built: ids are labels, vertex ids and
    edge ids distinct and unshared, multiplicities ints of at least 1, edge
    ends declared vertices, and there is an edge; once those hold, the graph
    is connected and each vertex's order lists its incident halves once (a
    truncated vertex may omit it).  BrauerValidationError lists every problem."""

    vertices: tuple[tuple[str, int], ...]  # (vertex id, multiplicity)
    edges: tuple[tuple[str, str, str], ...]  # (edge id, end 0, end 1)
    orders: tuple[tuple[str, tuple[Half, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "_mult", dict(self.vertices))
        object.__setattr__(self, "_ends", {e: (a, b) for e, a, b in self.edges})
        object.__setattr__(self, "_order", dict(self.orders))
        object.__setattr__(self, "_incident", _incident(self.edges))
        diags = self._diagnostics()
        if diags:
            raise BrauerValidationError(diags)

    def _diagnostics(self) -> list[str]:
        # the ids, multiplicities and ends first; connectivity and orders once those hold
        vids = self.vertex_ids
        diags = []
        if len(self._mult) != len(vids):
            diags.append("duplicate vertex ids")
        for v, m in self.vertices:
            if not (isinstance(v, str) and _LABEL.match(v)):
                diags.append(f"bad vertex id {v!r}")
            if not isinstance(m, int) or isinstance(m, bool):
                diags.append(f"vertex {v}: multiplicity must be an integer, got {m!r}")
            elif m < 1:
                diags.append(f"vertex {v}: multiplicity must be at least 1, got {m}")
        if len(self._ends) != len(self.edges):
            diags.append("duplicate edge ids")
        if self._ends.keys() & self._mult.keys():
            diags.append("edge and vertex ids must not overlap")
        for e, a, b in self.edges:
            if not (isinstance(e, str) and _LABEL.match(e)):
                diags.append(f"bad edge id {e!r}")
            diags += [f"edge {e}: undeclared endpoint {end!r}" for end in (a, b) if end not in self._mult]
        if not self.edges:
            diags.append("graph has no edges")
        if diags:
            return diags
        seen, stack = {vids[0]}, [vids[0]]
        while stack:
            for h in self._incident.get(stack.pop(), ()):
                w = self._ends[h.edge][1 - h.slot]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(vids):
            diags.append("graph is not connected")
        for v in vids:
            halves = self._incident.get(v, [])
            ring = self._order.get(v, None if len(halves) * self._mult[v] == 1 else ())  # truncated: optional
            if ring is not None and not (len(ring) == len(halves) and set(ring) == set(halves)):
                diags.append(f"order at {v} must list each incident half-edge once")
        return diags

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
        """Number of half-edges at v: a loop at v gives two."""
        return len(self._incident[v])

    def is_truncated(self, v: str) -> bool:
        return self.valency(v) * self._mult[v] == 1

    def order(self, v: str) -> tuple[Half, ...]:
        return self._order[v]


def _incident(edges) -> dict[str, list[Half]]:
    """The halves at each end of the edges (e, a, b), in edge order: Half(e, 0) at a, Half(e, 1) at b."""
    out: dict[str, list[Half]] = {}
    for e, a, b in edges:
        out.setdefault(a, []).append(Half(e, 0))
        out.setdefault(b, []).append(Half(e, 1))
    return out


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
    """A BrauerGraph read off raw input.

    vertices: iterable of (id, multiplicity), a multiplicity taken as an
    int where it is one exactly (2.0, "3"); edges: iterable of (id, end,
    end); orders: optional {vertex: [half tokens]} where a token is the
    edge id, with ^ / ~ picking a loop's halves.  Omitted orders default to
    declaration order.  The problems of the input and those BrauerGraph
    finds are raised together; the graph returned is valid.
    """
    diags: list[str] = []

    def listed(items, what: str) -> list:
        try:
            return list(items)
        except TypeError:
            diags.append(f"{what}: expected an iterable, got {items!r}")
            return []

    vlist = []
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
            n = m
        # int() truncates 2.5 and reads True as 1, and a string must parse whole: BrauerGraph rejects m as given
        vlist.append((str(v), n if not isinstance(m, bool) and (isinstance(m, str) or n == m) else m))
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
    ends = {e: (a, b) for e, a, b in elist}
    incident = _incident(elist)
    try:
        given = dict(orders or {})
    except (TypeError, ValueError):
        diags.append(f"orders: expected a mapping from vertex ids to token lists, got {orders!r}")
        given = {}
    known = set(vids)
    diags += [f"order for undeclared vertex {v!r}" for v in given if v not in known]
    rings = []
    for v in vids:
        if v not in given:
            rings.append((v, tuple(incident.get(v, ()))))
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
        rings.append((v, tuple(ring)))
    try:
        g = BrauerGraph(tuple(vlist), tuple(elist), tuple(rings))
    except BrauerValidationError as err:
        diags += err.diagnostics
    if diags:
        raise BrauerValidationError(diags)
    return g


# -- the algebra ---------------------------------------------------------------


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
    _check_type(g, BrauerGraph)
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
    _check_type(g, BrauerGraph)
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
    _check_type(g, BrauerGraph)
    both_spin = sum(1 for _, a, b in g.edges if not g.is_truncated(a) and not g.is_truncated(b))
    grids = sum(g.valency(v) ** 2 * g.multiplicity(v) for v in g.vertex_ids if not g.is_truncated(v))
    return len(g.edges) + grids - both_spin

