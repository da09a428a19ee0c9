"""Decomposition of an algebra along its ramifications graph.

Each weak component of the graph is a line or a cycle of saturations
(special multiserial algebras admit nothing else).  A component carries
the subquiver its arrows span, the ideal induced on it, and, when that
ideal is monomial, the classification of its relations into junction
relations (length two, joining two saturation endpoints) and the
remaining ordered relations, from which the maximal nonzero paths of
the component are synthesized without any enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CrossComponentPath,
    InvariantViolation,
    NotAdmissible,
    NotSpecialMultiserial,
    TrivialPath,
)
from .ideal import (
    AlgebraPresentation,
    IdealPresentation,
    LinearRelation,
    RowBasis,
    ZeroRelation,
    _colkey,
    _grow,
    coset_key,
    coset_paths,
    is_special_multiserial,
    linear_relation,
    longest_avoiding,
    minimalize_relations,
    path_in_ideal,
    zero_divisor,
)
from .omega import RamificationsGraph, omega_map, ramifications_graph
from .quiver import Path, concat_all, divides, occurrences


# -- induced ideals -----------------------------------------------------------


def induced_algebra(alg: AlgebraPresentation, arrow_ids: frozenset[str]) -> AlgebraPresentation:
    """Restriction of the algebra to the subquiver on the given arrows,
    with the induced ideal (the full ideal intersected with the paths of
    the subquiver) presented by minimal generators.

    A monomial parent needs no walk.  A subquiver path lies in the ideal
    exactly when one of the parent's zero relations divides it, and every
    arrow of such a relation lies in the subquiver; so the parent's zero
    relations on the subquiver, in the parent's order, generate the
    induced ideal, and its bound is one more than longest_avoiding finds
    (at least 2).  Only when subquiver paths of length alg.bound avoid
    them all, which a hand-made bound cutting below the zero relations
    allows, does a monomial parent fall through to the walk below, which
    adds the truncation relations.

    Otherwise grows the subquiver's paths one layer per length and
    extends only those the parent's engine puts outside the ideal.  A
    visited path in the ideal is generated by the parent's zero relations
    or by the rows of its engine block that stay in the subquiver; the one
    row of a lone path's block (see ideal) is the path, a zero relation.
    A path with a proper prefix in the ideal lies in the ideal through
    that prefix, so it is never visited.  Children of length alg.bound
    that no generator found so far divides close the truncation off, and
    the bound is one more than the longest path outside the ideal (at
    least 2).
    """
    q = alg.quiver
    sub = q.subquiver([a.id for a in q.arrows if a.id in arrow_ids])
    inside = set(arrow_ids)

    def is_sub(p: Path) -> bool:
        return set(p.arrows) <= inside

    def key(p: Path):
        # the span of all embedded identifications is the direct sum of the
        # engine's blocks; re-reducing a block with subquiver columns last
        # leaves the rows that present its intersection with the subquiver
        return ((1 if is_sub(p) else 0,) + _colkey(p))

    zero = [r for r in alg.ideal.zero if is_sub(r.path)]
    if alg.is_monomial:
        try:
            bound = max(longest_avoiding(sub, [r.path for r in zero], alg.bound) + 1, 2)
        except NotAdmissible:
            pass  # the bound cuts below the zero relations: walk, to truncate
        else:
            zero, _, _ = minimalize_relations(sub, zero, (), bound)
            return AlgebraPresentation(sub, IdealPresentation(zero, (), bound))
    linear: list[LinearRelation] = []
    eng = alg._engine
    done: set[Path] = set()

    def in_ideal(p: Path) -> bool:
        # _grow asks once per visited path; the first visit to a block
        # collects its rows inside the subquiver
        if eng.dead(p):
            return True
        blk = eng.block(p)
        if blk is None:
            return False
        if p not in done:
            done.update(blk.members)
            # re-reduce only when that can leave a subquiver row: when every
            # member, so every column, lies in the subquiver, the rows are
            # already reduced in that order, and a block's only row keeps
            # its columns outside the subquiver
            rows = blk.rows
            if len(rows) > 1 and not all(is_sub(m) for m in blk.members):
                basis = RowBasis(key=key)
                for row in rows:
                    basis.add(row)
                rows = basis.rows.values()
            for row in rows:
                if not all(is_sub(c) for c in row):
                    continue
                items = sorted(row.items(), key=lambda kv: _colkey(kv[0]))
                if len(items) == 1:
                    zero.append(ZeroRelation(items[0][0]))
                else:
                    linear.append(linear_relation(sub, [(c, t) for t, c in items]))
        return blk.nf[p] == ()

    outside = _grow(sub, in_ideal, alg.bound - 1)
    divisible = zero_divisor(r.path for r in zero)
    zero.extend(
        ZeroRelation(c)
        for p in outside if len(p) == alg.bound - 1
        for a in sub.arrows_from(p.target)
        if not divisible(c := Path(p.arrows + (a.id,), p.source, a.target))
    )
    bound = len(outside[-1]) + 1 if outside else 2
    zero, linear, _ = minimalize_relations(sub, zero, linear, bound)
    return AlgebraPresentation(sub, IdealPresentation(zero, linear, bound))


# -- components ---------------------------------------------------------------


@dataclass(frozen=True)
class Component:
    id: str
    omegas: tuple[Path, ...]  # in line order, or the cycle's fixed rotation
    shape: str  # "single" | "line" | "cycle"
    algebra: AlgebraPresentation
    omega: Path  # concatenation of the saturations along the order
    closes: bool
    junction_relations: tuple[Path, ...]
    ordered_relations: tuple[Path, ...]  # sorted by start position in omega
    sigma: tuple[int, ...]
    maximal: tuple[Path, ...]
    eta: int
    is_ump: bool | None  # None when the induced ideal is not monomial

    @property
    def arrow_ids(self) -> frozenset[str]:
        return frozenset(a for w in self.omegas for a in w.arrows)


def _order_nodes(g: RamificationsGraph, nodes: frozenset[Path]) -> tuple[list[Path], str]:
    n = len(nodes)
    within = [(a, b) for a, b in g.edges if a in nodes]
    succ = dict(within)
    if len(succ) != len(within):
        raise InvariantViolation("saturation with two nonzero continuations")
    if len(within) == n and n > 0:
        start = min(nodes, key=lambda w: min(w.arrows))
        shape = "cycle"
    elif len(within) == n - 1:
        seen_targets = {b for _, b in within}
        start = min((w for w in nodes if w not in seen_targets), key=_colkey)
        shape = "line" if n > 1 else "single"
    else:
        raise InvariantViolation("component is neither a line nor a cycle")
    order = [start]
    while len(order) < n:
        order.append(succ[order[-1]])
    return order, shape


def divides_power(u: Path, omega: Path) -> bool:
    """Whether u occurs in omega repeated often enough (just omega itself
    when it is not a cycle)."""
    if omega.target != omega.source:
        return bool(divides(u, omega))
    reps = len(u) // len(omega) + 2
    return bool(occurrences(u.arrows, omega.arrows * reps))


def _synthesize_maximal(parent_alg: AlgebraPresentation, omega: Path,
                        srels: list[Path], closes: bool) -> tuple[Path, ...]:
    """Maximal nonzero paths of a component, read off the ordered relations."""
    q = parent_alg.quiver
    w = omega.arrows
    if not srels:
        return (omega,)
    pos = [w.index(s.arrows[0]) for s in srels]
    sig = [len(s) - 1 for s in srels]
    pieces: list[tuple[str, ...]] = []
    if closes:
        wrap = w[pos[-1] + 1:] + w[:pos[0]] + srels[0].arrows[:sig[0]]
        if wrap[0] != w[(pos[-1] + 1) % len(w)]:
            raise InvariantViolation("wrap-around piece does not follow the last ordered relation")
        pieces.append(wrap)
    else:
        head = w[:pos[0]] + srels[0].arrows[:sig[0]]
        if head[0] != w[0]:
            raise InvariantViolation("head piece does not start the component path")
        pieces.append(head)
        pieces.append(srels[-1].arrows[1:] + w[pos[-1] + len(srels[-1].arrows):])
    for i in range(len(srels) - 1):
        piece = w[pos[i] + 1: pos[i + 1]] + srels[i + 1].arrows[:sig[i + 1]]
        if piece[0] != w[pos[i] + 1]:
            raise InvariantViolation("piece does not follow its ordered relation")
        pieces.append(piece)
    out: list[Path] = []
    for arrs in pieces:
        p = q.path(arrs)
        if p not in out:
            out.append(p)
    return tuple(out)


def _eta(omega: Path, targets: list[Path]) -> int:
    if omega.target != omega.source:
        if not all(divides(t, omega) for t in targets):
            raise InvariantViolation("relation escapes the component path")
        return 1
    cap = max((len(t) for t in targets), default=1) // len(omega) + 2
    for exp in range(1, cap + 1):
        if all(occurrences(t.arrows, omega.arrows * exp) for t in targets):
            return exp
    raise InvariantViolation("relation escapes every power of the component path")


def _build_component(alg: AlgebraPresentation, g: RamificationsGraph,
                     cid: str, nodes: frozenset[Path]) -> Component:
    q = alg.quiver
    order, shape = _order_nodes(g, nodes)
    omega = concat_all(order)
    arrow_ids = frozenset(a for w in order for a in w.arrows)
    induced = induced_algebra(alg, arrow_ids)

    closes = False
    if omega.target == omega.source:
        closes = not path_in_ideal(alg, q.path([omega.arrows[-1], omega.arrows[0]]))
    if shape == "cycle" and not closes:
        raise InvariantViolation("cycle component whose path does not close")
    if shape == "line" and len(order) > 1 and closes:
        raise InvariantViolation("line component whose path closes")

    if not induced.is_monomial:
        return Component(cid, tuple(order), shape, induced, omega, closes,
                         (), (), (), (), 0, None)

    rels = [r.path for r in induced.ideal.zero]
    lasts = {x.arrows[-1] for x in order}
    firsts = {x.arrows[0] for x in order}
    junction = tuple(
        r for r in rels
        if len(r) == 2 and r.arrows[0] in lasts and r.arrows[1] in firsts
    )
    srels = [r for r in rels if r not in junction]
    starts = [omega.arrows.index(r.arrows[0]) for r in srels]
    if len(set(starts)) != len(srels):
        raise InvariantViolation("ordered relations must start apart")
    srels = [r for _, r in sorted(zip(starts, srels))]
    sigma = tuple(len(r) - 1 for r in srels)
    maximal = _synthesize_maximal(alg, omega, srels, closes)
    eta = _eta(omega, srels + list(maximal))
    k = len(srels)
    ump = (k == 0) or all(s == 1 for s in sigma) or (k == 1 and closes)
    return Component(cid, tuple(order), shape, induced, omega, closes,
                     junction, tuple(srels), sigma, maximal, eta, ump)


def components(alg: AlgebraPresentation) -> tuple[Component, ...]:
    """Weak components of the ramifications graph, fully analyzed.

    Only defined for special multiserial algebras; anything else raises
    with the violating arrow as witness.
    """
    res = is_special_multiserial(alg)
    if not res:
        raise NotSpecialMultiserial(res.witness)
    g = ramifications_graph(alg)
    return tuple(
        _build_component(alg, g, f"N{i}", nodes)
        for i, nodes in enumerate(g.weak_components(), start=1)
    )


def component_of_path(alg: AlgebraPresentation, comps: tuple[Component, ...],
                      p: Path) -> Component:
    """The component a nonzero path lives in.

    Walks the path arrow by arrow: neighbours must either sit adjacently
    inside one saturation or form a surviving junction between two; a
    junction inside the ideal means the path straddles components."""
    if p.is_trivial:
        raise TrivialPath("trivial paths belong to no component")
    q = alg.quiver
    om = omega_map(q)
    for x, y in zip(p.arrows, p.arrows[1:]):
        wx, wy = om[x], om[y]
        if wx == wy:
            i = wx.arrows.index(x)
            if i + 1 < len(wx.arrows) and wx.arrows[i + 1] == y:
                continue
        if wx.arrows[-1] != x or wy.arrows[0] != y:
            raise InvariantViolation(f"{x}.{y} neither continues a saturation nor joins two")
        if path_in_ideal(alg, q.path([x, y])):
            raise CrossComponentPath(f"{p}: junction {x}.{y} falls in the ideal")
    w0 = om[p.arrows[0]]
    for comp in comps:
        if w0 in comp.omegas:
            return comp
    raise InvariantViolation("saturation missing from every component")


# -- structural relations and global classes ----------------------------------


def omega_relations(alg: AlgebraPresentation) -> tuple[Path, ...]:
    """Zero relations of length above two all of whose proper subpaths
    survive.  Paths grow one arrow at a time from those outside the
    ideal, so a visited path in the ideal has a surviving prefix, and it
    is one of these when its suffix survives too."""
    q = alg.quiver
    out = []

    def in_ideal(p: Path) -> bool:
        if not path_in_ideal(alg, p):
            return False
        if len(p) > 2 and not path_in_ideal(alg, Path(p.arrows[1:], q.arrow(p.arrows[1]).source, p.target)):
            out.append(p)
        return True

    _grow(q, in_ideal, alg.bound)
    return tuple(sorted(out, key=_colkey))


@dataclass(frozen=True)
class MaximalClass:
    representative: Path
    paths: frozenset[Path]
    components: tuple[str, ...]


def global_maximal_classes(alg: AlgebraPresentation,
                           comps: tuple[Component, ...]) -> tuple[MaximalClass, ...]:
    """Residue classes of the synthesized maximal paths of all components.

    Identifications can merge paths from different components into one
    class; the class then records every contributing component."""
    groups: dict[tuple, tuple[set[Path], set[str]]] = {}
    for comp in comps:
        for m in comp.maximal:
            k = coset_key(alg, m)
            paths, ids = groups.setdefault(k, (set(), set()))
            paths.add(m)
            ids.add(comp.id)
    out = []
    for paths, ids in groups.values():
        coset = coset_paths(alg, next(iter(paths)))
        if coset != frozenset(paths):
            raise InvariantViolation("a maximal class holds paths no component synthesized")
        rep = min(coset, key=lambda p: p.arrows)
        out.append(MaximalClass(rep, coset, tuple(sorted(ids))))
    return tuple(sorted(out, key=lambda c: _colkey(c.representative)))
