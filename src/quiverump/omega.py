"""Arrow saturations and the ramifications graph.

Every arrow extends to a canonical longest path through vertices that
admit no branching: while the head of the path has exactly one arrow in
and one arrow out, keep walking, and symmetrically at the tail.  One
walk serves the whole chain it covers.  A forward walk that comes back
to its starting arrow has found a standalone directed cycle, which
contributes one fixed rotation of the full cycle, shared by all its
arrows.

The ramifications graph has the distinct saturations as nodes and an
edge wherever two of them compose without falling into the ideal.  In a
special multiserial algebra a saturation has at most one successor and one
predecessor there, so weak_components walks each component, a line or a
cycle, in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .ideal import AlgebraPresentation, _colkey
from .quiver import Arrow, Path, Quiver


def omega_path(q: Quiver, arrow: Arrow | str) -> Path:
    """The saturation of an arrow: its maximal unbranched extension."""
    a = q.arrow(arrow) if isinstance(arrow, str) else arrow

    def unbranched(v: str) -> bool:
        return len(q.arrows_into(v)) == 1 and len(q.arrows_from(v)) == 1

    def joined(walk: list[Arrow]) -> Path:
        # consecutive arrows of the walk compose, so no validation is needed
        return Path(tuple(x.id for x in walk), walk[0].source, walk[-1].target)

    chain = [a]
    while unbranched(chain[-1].target):
        nxt = q.arrows_from(chain[-1].target)[0]
        if nxt.id == a.id:
            # one rotation per cycle, anchored at its smallest arrow label
            i = min(range(len(chain)), key=lambda k: chain[k].id)
            return joined(chain[i:] + chain[:i])
        chain.append(nxt)
    back = []
    tail = a
    while unbranched(tail.source):
        tail = q.arrows_into(tail.source)[0]
        back.append(tail)
    return joined(back[::-1] + chain)


def omega_map(q: Quiver) -> dict[str, Path]:
    """Saturation of every arrow, keyed by arrow label."""
    out: dict[str, Path] = {}
    for a in q.arrows:
        if a.id not in out:
            w = omega_path(q, a)
            out.update(dict.fromkeys(w.arrows, w))
    return {a.id: out[a.id] for a in q.arrows}


@dataclass(frozen=True)
class RamificationsGraph:
    nodes: tuple[Path, ...]
    edges: tuple[tuple[Path, Path], ...]

    def weak_components(self) -> tuple[tuple[Path, ...], ...]:
        """The components as walks, sorted by their least saturation: a line
        from its saturation with no predecessor, a cycle from the one
        holding its least arrow."""
        succ: dict[Path, Path] = {}
        pred: dict[Path, Path] = {}
        for a, b in self.edges:
            if succ.setdefault(a, b) != b or pred.setdefault(b, a) != a:
                raise InvariantViolation("saturation with two successors or two predecessors")
        comps = []
        seen: set[Path] = set()
        for node in sorted(self.nodes, key=_colkey):
            if node in seen:
                continue
            back = [node]
            while (prev := pred.get(back[-1])) is not None and prev != node:
                back.append(prev)
            # a line starts where the walk back stops; a cycle came back to node
            start = back[-1] if prev is None else min(back, key=lambda w: min(w.arrows))
            walk = [start]
            while (nxt := succ.get(walk[-1])) is not None and nxt != start:
                walk.append(nxt)
            seen.update(walk)
            comps.append(tuple(walk))
        return tuple(comps)


def ramifications_graph(alg: AlgebraPresentation) -> RamificationsGraph:
    """Distinct saturations, joined when their junction survives the ideal.

    A saturation ends at a branching vertex, where every arrow out begins
    a saturation, unless it is a standalone cycle, which only itself
    follows; so the saturations after one are those of the nonzero
    successors of its last arrow."""
    om = omega_map(alg.quiver)
    nodes = sorted(set(om.values()), key=_colkey)
    after = alg._after
    edges = tuple((wa, om[b]) for wa in nodes for b in after[wa.arrows[-1]] if om[b] != wa)
    return RamificationsGraph(tuple(nodes), edges)
