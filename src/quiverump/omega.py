"""Arrow saturations and the ramifications graph.

Every arrow extends to a canonical longest path through vertices that
admit no branching: while the head of the path has exactly one arrow in
and one arrow out, keep walking, and symmetrically at the tail.  A weak
component that is a standalone directed cycle would never stop, so it
instead contributes one fixed rotation of the full cycle, shared by all
its arrows.

The ramifications graph has the distinct saturations as nodes and an
edge wherever two of them compose without falling into the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideal import AlgebraPresentation, _colkey, path_in_ideal
from .quiver import Arrow, Path, Quiver


def _is_cycle_component(q: Quiver, comp: frozenset[str]) -> bool:
    return all(q.in_degree(v) == 1 and q.out_degree(v) == 1 for v in comp)


def omega_path(q: Quiver, arrow: Arrow | str) -> Path:
    """The saturation of an arrow: its maximal unbranched extension."""
    a = q.arrow(arrow) if isinstance(arrow, str) else arrow
    comp = q.weak_component_of(a.source)
    if _is_cycle_component(q, comp):
        # one rotation per cycle, anchored at its smallest arrow label
        start = min(
            (x for x in q.arrows if x.source in comp), key=lambda x: x.id
        )
        chain = [start]
        while True:
            nxt = q.arrows_from(chain[-1].target)[0]
            if nxt.id == start.id:
                break
            chain.append(nxt)
        return q.path([x.id for x in chain])

    chain = [a]
    seen = {a.id}
    while q.out_degree(chain[-1].target) == 1 and q.in_degree(chain[-1].target) == 1:
        nxt = q.arrows_from(chain[-1].target)[0]
        if nxt.id in seen:
            break
        chain.append(nxt)
        seen.add(nxt.id)
    while q.out_degree(chain[0].source) == 1 and q.in_degree(chain[0].source) == 1:
        prev = q.arrows_into(chain[0].source)[0]
        if prev.id in seen:
            break
        chain.insert(0, prev)
        seen.add(prev.id)
    return q.path([x.id for x in chain])


def omega_map(q: Quiver) -> dict[str, Path]:
    """Saturation of every arrow, keyed by arrow label."""
    return {a.id: omega_path(q, a) for a in q.arrows}


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
    """Distinct saturations, joined when their junction survives the ideal."""
    q = alg.quiver
    omegas = omega_map(q)
    nodes: list[Path] = []
    for w in omegas.values():
        if w not in nodes:
            nodes.append(w)
    nodes.sort(key=_colkey)
    edges = []
    for wa in nodes:
        for wb in nodes:
            if wa == wb or wa.target != wb.source:
                continue
            junction = q.path([wa.arrows[-1], wb.arrows[0]])
            if not path_in_ideal(alg, junction):
                edges.append((wa, wb))
    return RamificationsGraph(tuple(nodes), tuple(edges))
