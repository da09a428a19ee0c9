"""Arrow saturations, the ramifications graph and its components.

Every arrow extends to a canonical longest path through vertices that
admit no branching: while the head of the path has exactly one arrow in
and one arrow out, keep walking, and symmetrically at the tail.  So a
saturation starts at an arrow whose source branches, unless it is a
standalone directed cycle, which contributes one fixed rotation of the
full cycle, anchored at its least label and shared by all its arrows.

The ramifications graph joins two saturations that compose outside the
ideal.  In a special multiserial algebra its weak components are lines
and cycles, and saturation_walks reads them straight off the length-2
table with the one walker, _walk, that also gives omega_map its
saturations and weak_components a graph's components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantViolation, NotSpecialMultiserial
from .ideal import AlgebraPresentation, _check_type, _colkey, is_special_multiserial
from .quiver import Path, Quiver


def _walk(arrows: list[str], nxt: dict[str, str], starts) -> list[tuple[list[list[str]], bool]]:
    """Each line of the partial injection nxt on arrows from its head, and
    each cycle from the last start at or before its least arrow (from that
    arrow when it holds no start), cut into runs at the starts, with
    whether it is a cycle.  InvariantViolation when it reaches an arrow twice."""
    heads = set(arrows) - set(nxt.values())
    seen: set[str] = set()
    out = []
    for a in sorted(arrows, key=lambda a: a not in heads):  # the arrows no line reaches lie on cycles
        if a in seen:
            continue
        walk, x = [], a
        while x is not None and not (walk and x == a):
            if x in seen:
                raise InvariantViolation(f"arrow {x} reached twice")
            seen.add(x)
            walk.append(x)
            x = nxt.get(x)
        closed = x is not None
        if closed:
            i = walk.index(min(walk))
            k = next((k for k in range(i, i - len(walk), -1) if walk[k] in starts), i)
            walk = walk[k:] + walk[:k]
        cuts = [k for k, y in enumerate(walk) if k == 0 or y in starts]
        out.append(([walk[b:e] for b, e in zip(cuts, cuts[1:] + [len(walk)])], closed))
    return out


def saturation_walks(alg: AlgebraPresentation) -> list[tuple[tuple[Path, ...], bool]]:
    """The saturation walks of alg's quiver on its length-2 table (_walks).
    Only defined for special multiserial algebras: on any other it raises
    NotSpecialMultiserial with the cached decision's witness, before the
    table is read."""
    res = is_special_multiserial(alg)
    if not res:
        raise NotSpecialMultiserial(res.witness)
    return _walks(alg.quiver, alg._after)


def _walks(q: Quiver, after: dict[str, tuple[str, ...]]) -> list[tuple[tuple[Path, ...], bool]]:
    """Walks of q's arrows through every unbranched vertex and on from each
    other arrow to its first successor in after, cut into saturations, each
    with whether it closes: a cycle whose last arrow composes nonzero with
    its first (only a standalone cycle's may not).  Consecutive arrows of a
    walk compose, so no path is validated."""
    unbranched = {v for v in q.vertex_ids if len(q.arrows_into(v)) == 1 and len(q.arrows_from(v)) == 1}
    nxt = {}
    for a in q.arrows:
        if a.target in unbranched:
            nxt[a.id] = q.arrows_from(a.target)[0].id
        elif after.get(a.id):
            nxt[a.id] = after[a.id][0]
    starts = {a.id for a in q.arrows if a.source not in unbranched}
    return [(tuple(Path(tuple(r), q.arrow(r[0]).source, q.arrow(r[-1]).target) for r in runs),
             closed and bool(after.get(runs[-1][-1])))
            for runs, closed in _walk([a.id for a in q.arrows], nxt, starts)]


def omega_map(q: Quiver) -> dict[str, Path]:
    """Saturation of every arrow, keyed by arrow label: the walks through
    the unbranched vertices alone.  InvalidPresentation when q is no Quiver."""
    _check_type(q, Quiver)
    out = {a: w for sats, _ in _walks(q, {}) for w in sats for a in w.arrows}
    return {a.id: out[a.id] for a in q.arrows}


@dataclass(frozen=True)
class RamificationsGraph:
    nodes: tuple[Path, ...]
    edges: tuple[tuple[Path, Path], ...]

    def weak_components(self) -> tuple[tuple[Path, ...], ...]:
        """The components as walks, sorted by their least saturation: a line
        from its saturation with no predecessor, a cycle from the one
        holding its least arrow."""
        nxt = {x: y for w in self.nodes for x, y in zip(w.arrows, w.arrows[1:])}
        for a, b in self.edges:
            if nxt.setdefault(a.arrows[-1], b.arrows[0]) != b.arrows[0]:
                raise InvariantViolation(f"saturation {a} with two successors")
        first = {w.arrows[0]: w for w in self.nodes}
        walks = _walk([x for w in self.nodes for x in w.arrows], nxt, first)
        return tuple(sorted((tuple(first[r[0]] for r in runs) for runs, _ in walks),
                            key=lambda c: min(map(_colkey, c))))


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
