"""Arrow saturations and the ramifications graph.

Every arrow extends to a canonical longest path through vertices that
admit no branching: while the head of the path has exactly one arrow in
and one arrow out, keep walking, and symmetrically at the tail.  So a
saturation starts at an arrow whose source branches, unless it is a
standalone directed cycle, which contributes one fixed rotation of the
full cycle, anchored at its least label and shared by all its arrows.
omega_map finds them all in one pass: one forward walk from each arrow
whose source branches, then one walk around each cycle left over.

The ramifications graph has the distinct saturations as nodes and an
edge wherever two of them compose without falling into the ideal.  In a
special multiserial algebra a saturation has at most one successor and one
predecessor there, so weak_components walks each component, a line or a
cycle, in order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation
from .ideal import AlgebraPresentation, _check_type, _colkey
from .quiver import Arrow, Path, Quiver


def omega_map(q: Quiver) -> dict[str, Path]:
    """Saturation of every arrow, keyed by arrow label, in one pass.

    A saturation that is no standalone cycle starts at an arrow whose
    source branches, so one forward walk from each such arrow finds it.
    The arrows left over lie on standalone cycles, each walked once and
    rotated to its least label.  Consecutive arrows of a walk compose, so
    no path is validated.  InvalidPresentation when q is no Quiver."""
    _check_type(q, Quiver)
    unbranched = {v for v in q.vertex_ids if len(q.arrows_into(v)) == 1 and len(q.arrows_from(v)) == 1}
    out: dict[str, Path] = {}

    def saturate(walk: list[Arrow]) -> None:
        w = Path(tuple(x.id for x in walk), walk[0].source, walk[-1].target)
        out.update(dict.fromkeys(w.arrows, w))

    for a in q.arrows:
        if a.source not in unbranched:
            walk = [a]
            while walk[-1].target in unbranched:
                walk.append(q.arrows_from(walk[-1].target)[0])
            saturate(walk)
    for a in q.arrows:
        if a.id not in out:
            walk = [a]
            while (nxt := q.arrows_from(walk[-1].target)[0]) is not a:
                walk.append(nxt)
            i = min(range(len(walk)), key=lambda k: walk[k].id)
            saturate(walk[i:] + walk[:i])
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
    successors of its last arrow.  InvalidPresentation when alg is no
    AlgebraPresentation."""
    _check_type(alg, AlgebraPresentation)
    om = omega_map(alg.quiver)
    nodes = sorted(set(om.values()), key=_colkey)
    after = alg._after
    edges = tuple((wa, om[b]) for wa in nodes for b in after[wa.arrows[-1]] if om[b] != wa)
    return RamificationsGraph(tuple(nodes), edges)
