"""Decomposition of an algebra along its ramifications graph, on positions.

Each weak component of the graph is a line or a cycle of saturations
(special multiserial algebras admit nothing else).  An arrow composes
nonzero with at most one arrow on each side, so every nonzero path of a
component is a window (i, L) of its component path omega: the L arrows
from position i on, read on around omega when it closes.  One sweep finds
l(i), the longest nonzero window at each position.  The maximal paths
and the minimal zero windows (ordered relations, with sigma) follow from
l with no further query, the junction relations (length-2 paths off
omega) from the quiver.  The induced ideal is monomial exactly when the
nonzero windows are independent modulo the ideal, tested per block; its
presentation is built only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    omega: Path  # concatenation of the saturations along the order
    closes: bool  # whether windows read on around omega
    lengths: tuple[int, ...]  # l(i): the longest nonzero window at position i
    junction_relations: tuple[Path, ...]  # the length-2 paths off omega
    ordered_relations: tuple[Path, ...]  # minimal zero windows, by position
    sigma: tuple[int, ...]
    maximal: tuple[Path, ...]  # maximal windows, by position
    eta: int
    is_ump: bool | None  # None when the induced ideal is not monomial
    parent: AlgebraPresentation = field(repr=False, compare=False)

    @property
    def arrow_ids(self) -> frozenset[str]:
        return frozenset(a for w in self.omegas for a in w.arrows)

    @cached_property
    def algebra(self) -> AlgebraPresentation:
        """The induced presentation, built on first use; no verdict needs it."""
        return induced_algebra(self.parent, self.arrow_ids)


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


def _lengths(alg: AlgebraPresentation, window, n: int, closes: bool) -> list[int]:
    """l(i) at each of the n positions of omega, by one two-pointer sweep: a
    suffix of a nonzero window is nonzero, so position i starts at
    max(l(i-1) - 1, 1).  Each query moves the window's end on or closes a
    position: at most 2n + bound queries, none on a window of length bound."""
    out: list[int] = []
    length = 1
    for i in range(n):
        length = max(length - 1, 1)
        cap = alg.bound - 1 if closes else min(n - i, alg.bound - 1)
        while length < cap and not path_in_ideal(alg, window(i, length + 1)):
            length += 1
        out.append(length)
    return out


def _windows_independent(alg: AlgebraPresentation, word: tuple[str, ...], window,
                         lengths: list[int], closes: bool) -> bool:
    """Whether the nonzero windows are linearly independent modulo I, that
    is, whether I meets the component's path algebra in a monomial ideal.

    The engine's blocks are direct summands, so this is decided per block.
    A window holding no relation term is its own coset.  Those holding the
    term at position i, found with no query, are the windows (j, L) that
    start d positions before it with d + len(term) <= L <= l(j)."""
    n = len(lengths)
    pos = {a: i for i, a in enumerate(word[:n])}
    held: set[tuple[int, int]] = set()  # (j, L) of the windows holding a term
    for t in (term.arrows for rel in alg.ideal.linear for term in rel.paths):
        i, k = pos.get(t[0]), len(t)
        if i is not None and k <= lengths[i] and word[i:i + k] == t:
            for d in range(min(n if closes else i + 1, alg.bound - k)):
                held.update(((i - d) % n, L) for L in range(d + k, lengths[(i - d) % n] + 1))
    rows: dict[int, list] = {}  # the normal forms of those windows, by block
    for j, length in held:
        blk = alg._engine.block(p := window(j, length))
        rows.setdefault(id(blk), []).append(blk.nf[p])
    for nfs in rows.values():
        basis = RowBasis()  # one nonzero normal form is independent alone
        if len(nfs) > 1 and not all(basis.add(dict(nf)) for nf in nfs):
            return False
    return True


def _build_component(alg: AlgebraPresentation, g: RamificationsGraph,
                     cid: str, nodes: frozenset[Path]) -> Component:
    q = alg.quiver
    order, shape = _order_nodes(g, nodes)
    omega = concat_all(order)

    closes = omega.target == omega.source and not path_in_ideal(
        alg, q.path([omega.arrows[-1], omega.arrows[0]]))
    if shape == "cycle" and not closes:
        raise InvariantViolation("cycle component whose path does not close")
    if shape == "line" and len(order) > 1 and closes:
        raise InvariantViolation("line component whose path closes")

    # the window (i, L) is the path of the L arrows of omega from position i
    # on, read around omega when it closes
    n = len(omega)
    word = omega.arrows * (alg.bound // n + 2) if closes else omega.arrows
    arrows = [q.arrow(a) for a in word]

    def window(i: int, length: int) -> Path:
        return Path(word[i:i + length], arrows[i].source, arrows[i + length - 1].target)

    ls = _lengths(alg, window, n, closes)
    if not (alg.is_monomial or _windows_independent(alg, word, window, ls, closes)):
        return Component(cid, tuple(order), shape, omega, closes, tuple(ls),
                         (), (), (), (), 0, None, alg)

    # the minimal paths in I: the pairs that leave omega (an arrow has one
    # nonzero continuation), and the windows one longer than l(i) whose
    # suffix survives
    inside, along = set(omega.arrows), set(zip(word, word[1:]))
    junction = tuple(
        Path((x.id, y.id), x.source, y.target)
        for x in arrows[:n] for y in q.arrows_from(x.target)
        if y.id in inside and (x.id, y.id) not in along
    )
    ordered = [window(i, ls[i] + 1) for i in range(n)
               if (closes or i + ls[i] < n) and ls[(i + 1) % n] >= ls[i]]
    sigma = tuple(len(r) - 1 for r in ordered)
    # the maximal windows: those not the suffix of a nonzero window
    maximal = tuple(window(i, ls[i]) for i in range(n)
                    if (ls[i - 1] if closes or i else 0) <= ls[i])
    eta = _eta(omega, ordered + list(maximal))
    k = len(ordered)
    ump = (k == 0) or all(s == 1 for s in sigma) or (k == 1 and closes)
    return Component(cid, tuple(order), shape, omega, closes, tuple(ls),
                     junction, tuple(ordered), sigma, maximal, eta, ump, alg)


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
