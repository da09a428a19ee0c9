"""Decomposition of an algebra along its ramifications graph, on positions.

Each weak component of the graph is a line or a cycle of saturations
(special multiserial algebras admit nothing else), read in order off the
length-2 table with no graph built, so omega is its saturations joined.
The saturations partition the arrows, so the components do too.  An
arrow composes nonzero with at most one arrow on each side, so every
nonzero path of a component is a window (i, L) of its component path
omega: the L arrows from position i on, read on around omega when it
closes.  l(i), the longest nonzero window at each position, comes from
one listing of the zero occurrences along omega when the ideal is
monomial, with no query, and otherwise from one sweep of queries; every
component's maximal paths follow from l with no further query (a lone
arrow that does not close holds no relation word: l = (1,), no sweep).
The windows holding a term copy, the held ones, are listed along omega
by the engine's copy index with no query.  A window holding none has no
engine block, so it is its own coset: only held maximal windows are
grouped by coset queries.  Two maximal paths sharing an arrow are
overlapping windows of one component, so where no two overlap in
distinct classes the verdict builds no arrow set.  The induced ideal is
monomial exactly when the nonzero windows are independent modulo the
ideal, tested per block on the held windows.  Only there does the
paper's test apply: the minimal zero windows (ordered relations, with
sigma) follow from l.  No verdict reads an induced presentation:
induced_algebra builds one for tests and benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .errors import InvalidPresentation, NotSpecialMultiserial
from .ideal import (
    AlgebraPresentation,
    IdealPresentation,
    LinearRelation,
    RowBasis,
    ZeroRelation,
    _FM1,
    _check_type,
    _colkey,
    _grow,
    _minimalize,
    is_special_multiserial,
    linear_relation,
    path_in_ideal,
)
from .omega import saturation_walks
from .oracle import MaximalClass, classes_of, shared_arrow
from .quiver import Path


# -- induced ideals -----------------------------------------------------------


def induced_algebra(alg: AlgebraPresentation, arrow_ids: frozenset[str]) -> AlgebraPresentation:
    """Restriction of the algebra to the subquiver on the given arrows,
    with the induced ideal (the full ideal intersected with the paths of
    the subquiver) presented by minimal generators.

    _grow lists the subquiver paths outside the ideal up to alg.bound - 1
    by extending only those: a path with a prefix in the ideal lies in it,
    so the listing is complete.  The zero relations are the minimal
    subquiver paths in the ideal, truncations at alg.bound included: the
    one-arrow extensions of listed paths that are not listed while the
    extension less its first arrow is.  The linear relations are the rows
    of two or more terms, all in the subquiver, of the blocks of listed
    paths; every term of such a row lies outside the ideal, so no block is
    missed.  The bound is one more than the longest listed path (at least 2).
    """
    _check_type(alg, AlgebraPresentation)
    try:
        if isinstance(arrow_ids, str):  # it would match its substrings
            raise TypeError
        inside = frozenset(arrow_ids)
    except TypeError:
        raise InvalidPresentation(f"arrow ids {arrow_ids!r} are no collection of labels") from None
    sub = alg.quiver.subquiver(inside)  # an unknown id raises UnknownLabel
    eng = alg._engine
    outside = _grow(sub, eng.in_ideal, alg.bound - 1)
    listed = {p.arrows for p in outside}
    zero = [ZeroRelation(Path(w, p.source, a.target)) for p in outside for a in sub.arrows_from(p.target)
            if (w := p.arrows + (a.id,)) not in listed and w[1:] in listed]

    def key(p: Path):
        # the span of all embedded identifications is the direct sum of the
        # engine's blocks; re-reducing a block with subquiver columns last
        # leaves the rows that present its intersection with the subquiver
        return (inside.issuperset(p.arrows),) + _colkey(p)

    linear: list[LinearRelation] = []
    # membership has cached the block of each listed path that has one
    for blk in {id(b): b for p in outside if (b := eng.block(p)) is not None}.values():
        # a member whose normal form is not itself is a pivot, and its normal
        # form less itself is its row negated, a sign no relation and no
        # re-reduction sees
        basis = RowBasis(key=key)
        for m, nf in blk.items():
            if not nf or nf[0][0] != m:
                basis.add(dict(nf + ((m, _FM1),)))
        linear.extend(linear_relation(sub, [(c, t) for t, c in row.items()]) for row in basis.rows.values()
                      if len(row) > 1 and all(inside.issuperset(t.arrows) for t in row))
    bound = len(outside[-1]) + 1 if outside else 2
    zero, linear = _minimalize(sub, zero, linear, bound)
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
    ordered_relations: tuple[Path, ...]  # minimal zero windows, by position
    sigma: tuple[int, ...]
    maximal: tuple[Path, ...]  # maximal windows, by position
    is_ump: bool | None  # None when the induced ideal is not monomial
    starts: tuple[int, ...] = field(repr=False, compare=False)  # of the maximal windows
    held: set[tuple[int, int]] = field(repr=False, compare=False)  # the windows (i, L) holding a term copy


def _lengths(alg: AlgebraPresentation, word: tuple[str, ...], window, n: int, closes: bool) -> list[int]:
    """l(i) at each of the n positions of omega, read along word (omega,
    repeated when it closes).  On a monomial ideal l(i) = min(bound - 1,
    e(j) - i - 1 over j >= i), e(j) the end of the shortest zero relation
    at position j, so one suffix minimum over one listing of the zero
    occurrences gives l with no query.  Otherwise one two-pointer sweep: a
    suffix of a nonzero window is nonzero, so position i starts at
    max(l(i-1) - 1, 1).  Each query moves the window's end on or closes a
    position: at most 2n + bound queries, none on a window of length bound."""
    if alg.is_monomial:
        # windows start before n and stay below the bound; where no zero relation
        # starts, the lister reads the word's length + 1, which caps a line at n - i
        longest = alg.bound - 1
        first = list(accumulate(reversed(alg._engine.zero_ends(word[:n + longest - 1])), min))[::-1]
        return [min(longest, first[i] - i - 1) for i in range(n)]
    out: list[int] = []
    length = 1
    for i in range(n):
        length = max(length - 1, 1)
        cap = alg.bound - 1 if closes else min(n - i, alg.bound - 1)
        while length < cap and not path_in_ideal(alg, window(i, length + 1)):
            length += 1
        out.append(length)
    return out


def _held_windows(alg: AlgebraPresentation, word: tuple[str, ...], window,
                  lengths: list[int], closes: bool) -> tuple[set[tuple[int, int]], bool]:
    """The nonzero windows (j, L) holding a term copy, the held ones, listed
    by the engine's copy index with no query, and whether the nonzero
    windows are independent modulo I, that is, whether I meets the
    component's path algebra in a monomial ideal.  Those holding the copy at
    position i start d positions before it, with d + len(term) <= L <= l(j).
    The blocks are direct summands, so independence is decided per block,
    on the held windows: the others are their own cosets."""
    n = len(lengths)
    head = word[:n + alg.bound - 2]  # a copy kept starts before n and is shorter than the bound
    held: set[tuple[int, int]] = set()  # (j, L) of the windows holding a term
    for _, prefix, suffix in alg._engine.copies(head):
        i, k = len(prefix), len(head) - len(prefix) - len(suffix)
        if i < n and k <= lengths[i]:
            for d in range(min(n if closes else i + 1, alg.bound - k)):
                held.update(((i - d) % n, L) for L in range(d + k, lengths[(i - d) % n] + 1))
    rows: dict[int, list] = {}  # the normal forms of those windows, by block
    for j, length in held:
        blk = alg._engine.block(p := window(j, length))
        rows.setdefault(id(blk), []).append(blk[p])
    for nfs in rows.values():
        basis = RowBasis()  # one nonzero normal form is independent alone
        if len(nfs) > 1 and not all(basis.add(dict(nf)) for nf in nfs):
            return held, False
    return held, True


def _build_component(alg: AlgebraPresentation, cid: str, order: tuple[Path, ...], closes: bool) -> Component:
    if len(order) == 1 and len(order[0]) == 1 and not closes:  # a lone open arrow holds no relation word
        return Component(cid, order, "single", order[0], False, (1,), (), (), order, True, (0,), set())
    shape = "single" if len(order) == 1 else "cycle" if closes else "line"
    omega = Path(tuple(a for w in order for a in w.arrows), order[0].source, order[-1].target)

    # the window (i, L), i < n and L <= bound, is the path of the L arrows of
    # omega from position i on, read around omega when it closes
    n = len(omega)
    word = (omega.arrows * (alg.bound // n + 2))[:n + alg.bound - 1] if closes else omega.arrows
    arrows = [alg.quiver.arrow(a) for a in omega.arrows]

    def window(i: int, length: int) -> Path:
        return Path(word[i:i + length], arrows[i].source, arrows[(i + length - 1) % n].target)

    ls = _lengths(alg, word, window, n, closes)
    # the maximal windows: those not the suffix of a nonzero window
    starts = tuple(i for i in range(n) if (ls[i - 1] if closes or i else 0) <= ls[i])
    held, independent = (set(), True) if alg.is_monomial else _held_windows(alg, word, window, ls, closes)
    ordered, sigma, ump = [], (), None
    if independent:
        # the minimal windows in I: one longer than l(i), with a nonzero suffix
        ordered = [(i, ls[i] + 1) for i in range(n)
                   if (closes or i + ls[i] < n) and ls[(i + 1) % n] >= ls[i]]
        sigma = tuple(L - 1 for _, L in ordered)
        ump = not ordered or all(s == 1 for s in sigma) or (len(ordered) == 1 and closes)
    return Component(cid, order, shape, omega, closes, tuple(ls),
                     tuple(window(*w) for w in ordered), sigma,
                     tuple(window(i, ls[i]) for i in starts), ump,
                     starts, held)


def components(alg: AlgebraPresentation) -> tuple[Component, ...]:
    """Weak components of the ramifications graph, fully analyzed, each
    walked off the length-2 table by omega.saturation_walks, sorted by its
    least saturation.  Only defined for special multiserial algebras: it
    reads the presentation's cached decision, and raises with its witness
    on anything else."""
    res = is_special_multiserial(alg)
    if not res:
        raise NotSpecialMultiserial(res.witness)
    walks = sorted(saturation_walks(alg), key=lambda w: min(map(_colkey, w[0])))
    return tuple(_build_component(alg, f"N{i}", *w) for i, w in enumerate(walks, start=1))


# -- global classes -----------------------------------------------------------


def global_maximal_classes(alg: AlgebraPresentation, comps: tuple[Component, ...]) -> tuple[MaximalClass, ...]:
    """Residue classes of the maximal windows of all components, by
    _colkey of their representatives, each recording its components.

    A window holding no term copy has no block: it is its own class, built
    with no query.  classes_of groups the held ones, which identifications
    can merge across components, and checks that each coset it asks holds
    only given windows: a path congruent to another holds a term."""
    wins = [(c, m, (i, len(m)) in c.held) for c in comps for i, m in zip(c.starts, c.maximal)]
    alone = [MaximalClass(m, frozenset((m,)), (c.id,)) for c, m, held in wins if not held]
    merged = classes_of(alg, {m: (c.id,) for c, m, held in wins if held})
    return tuple(sorted(alone + list(merged), key=lambda c: _colkey(c.representative)))


def maximal_witness(comps: tuple[Component, ...],
                    classes: tuple[MaximalClass, ...]) -> tuple[Path, Path, str] | None:
    """The witness shared_arrow picks in the classes, or None, decided on positions first.

    The arrows partition into components, so two maximal paths sharing an
    arrow are overlapping windows of one component, which a component the
    paper's test refutes has.  Maximal windows have increasing starts and
    ends along omega, read around it when it closes, so if two overlap, so
    do all between them: where no two consecutive ones overlap in distinct
    classes, no arrow set is built.  Distinct windows lie in one class only
    if parallel and held: a term-free window is its own coset."""
    for c in comps:
        if c.is_ump is False:
            return shared_arrow(classes)
        s, m, n = c.starts, c.maximal, len(c.lengths)
        # each window (i, p) and the next (j, q), read one turn on past the last when omega closes
        for k in range(1, len(s) + (c.closes and len(s) > 1)):
            i, p, q, j = s[k - 1], m[k - 1], m[k % len(s)], s[k % len(s)] + n * (k == len(s))
            if j < i + len(p) and not (p[1:] == q[1:] and (i, len(p)) in c.held
                                       and any(p in x.paths and q in x.paths for x in classes)):
                return shared_arrow(classes)
    return None
