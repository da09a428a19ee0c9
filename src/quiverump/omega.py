"""Arrow saturations and the ramifications graph.

Every arrow extends to a canonical longest path through vertices that
admit no branching: while the head of the path has exactly one arrow in
and one arrow out, keep walking, and symmetrically at the tail.  One
walk serves the whole chain it covers.  A forward walk that comes back
to its starting arrow has found a standalone directed cycle, which
contributes one fixed rotation of the full cycle, shared by all its
arrows.

The ramifications graph has the distinct saturations as nodes and an
edge wherever two of them compose without falling into the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideal import AlgebraPresentation, _colkey
from .quiver import Arrow, Path, Quiver


def omega_path(q: Quiver, arrow: Arrow | str) -> Path:
    """The saturation of an arrow: its maximal unbranched extension."""
    a = q.arrow(arrow) if isinstance(arrow, str) else arrow

    def unbranched(v: str) -> bool:
        return q.in_degree(v) == 1 and q.out_degree(v) == 1

    chain = [a]
    while unbranched(chain[-1].target):
        nxt = q.arrows_from(chain[-1].target)[0]
        if nxt.id == a.id:
            # one rotation per cycle, anchored at its smallest arrow label
            i = min(range(len(chain)), key=lambda k: chain[k].id)
            return q.path([x.id for x in chain[i:] + chain[:i]])
        chain.append(nxt)
    back = []
    tail = a
    while unbranched(tail.source):
        tail = q.arrows_into(tail.source)[0]
        back.append(tail)
    return q.path([x.id for x in back[::-1] + chain])


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

    def weak_components(self) -> tuple[frozenset[Path], ...]:
        adj: dict[Path, set[Path]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        comps = []
        left = set(self.nodes)
        while left:
            seed = min(left, key=_colkey)
            comp = {seed}
            stack = [seed]
            while stack:
                for nb in adj[stack.pop()]:
                    if nb not in comp:
                        comp.add(nb)
                        stack.append(nb)
            comps.append(frozenset(comp))
            left -= comp
        return tuple(sorted(comps, key=lambda c: _colkey(min(c, key=_colkey))))


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
