"""Brute-force reference computations.

Everything here works by exhaustive path enumeration plus exact linear
algebra; runtimes are exponential in principle and fine in practice
because an admissible ideal caps path length at the bound.

Two routines are independent of the structural code: global_basis
reduces every embedded copy of every identification over all the
coordinates of the truncated quotient at once, and dimension_bruteforce
reads the dimension off it.  The others enumerate paths here but take
membership and cosets from the membership engine in ideal (path_in_ideal,
coset_paths), which the structural code uses too; they check the
structural shortcuts, not the engine.

Enumeration walks the nonzero paths once, extending on the right and
pruning on membership.  That listing is complete, because every prefix
of a nonzero path is nonzero, so a listed path is maximal exactly when
no listed path one arrow longer starts or ends with it: maximal_paths
reads maximality off the listing and asks the engine nothing more.
extensions_die is the definition itself, one query per extension;
ump.quick_non_ump checks its witness with it.

Here live the class layer and the one report type of every route
(UmpReport).  Enumeration groups its maximal paths with classes_of and
finds its witness with shared_arrow; the structural routes hand
classes_of only the maximal windows holding a relation term, with their
component ids, and ask shared_arrow only where two overlapping windows
lie in distinct classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from .errors import InvariantViolation
from .ideal import (
    AlgebraPresentation,
    RowBasis,
    _check_type,
    _colkey,
    coset_paths,
    path_in_ideal,
)
from .quiver import Path, Quiver, occurrences


def _outside(q: Quiver, dead) -> list[Path]:
    """Paths dead() rejects on no prefix, by exhaustive extension one layer
    per length; dead() must reject every path from some length on."""
    out: list[Path] = []
    layer = [Path((a.id,), a.source, a.target) for a in q.arrows]
    while layer:
        keep = [p for p in layer if not dead(p)]
        out.extend(keep)
        layer = [
            Path(p.arrows + (a.id,), p.source, a.target)
            for p in keep
            for a in q.arrows_from(p.target)
        ]
    return out


def _listing(alg: AlgebraPresentation) -> list[Path]:
    """Every nontrivial path outside the ideal, by exhaustive extension on
    the right, one membership query per path asked.

    Pruning on membership is sound and the listing complete: extensions
    of a path in the ideal stay in the ideal, so every prefix of a nonzero
    path is nonzero and is itself listed and extended.  InvalidPresentation
    when alg is no AlgebraPresentation."""
    _check_type(alg, AlgebraPresentation)
    return _outside(alg.quiver, lambda p: path_in_ideal(alg, p))


def nonzero_paths(alg: AlgebraPresentation) -> tuple[Path, ...]:
    """All nontrivial paths outside the ideal, by _colkey: the sorted view
    of the one listing that maximal_paths reads."""
    return tuple(sorted(_listing(alg), key=_colkey))


def extensions_die(alg: AlgebraPresentation, p: Path) -> bool:
    """Whether every one-arrow extension of p, on either side, lies in the
    ideal: p is maximal exactly when it also lies outside it.

    This is the definition, asked of the engine one extension at a time.
    maximal_paths reads the same answer off its listing; quick_non_ump
    checks the two paths of its witness with this."""
    q = alg.quiver
    return all(
        path_in_ideal(alg, Path(p.arrows + (a.id,), p.source, a.target))
        for a in q.arrows_from(p.target)
    ) and all(
        path_in_ideal(alg, Path((a.id,) + p.arrows, a.source, p.target))
        for a in q.arrows_into(p.source)
    )


def maximal_paths(alg: AlgebraPresentation) -> tuple[Path, ...]:
    """Nonzero paths that fall into the ideal under every one-arrow
    extension, by _colkey, read off the one listing of the nonzero paths
    with no further query.

    The listing is complete, so an extension of a listed path is nonzero
    exactly when it is listed: a path is maximal when no listed path one
    arrow longer starts or ends with it.  Only the maximal paths are
    sorted."""
    listed = _listing(alg)
    extended = {w for p in listed if len(p.arrows) > 1 for w in (p.arrows[:-1], p.arrows[1:])}
    return tuple(sorted((p for p in listed if p.arrows not in extended), key=_colkey))


@dataclass(frozen=True)
class MaximalClass:
    """A residue class of maximal paths; a structural class also records
    the components that contributed its paths, an enumerated one none."""

    representative: Path
    paths: frozenset[Path]
    components: tuple[str, ...]


def classes_of(alg: AlgebraPresentation,
               maximal: Mapping[Path, tuple[str, ...]]) -> tuple[MaximalClass, ...]:
    """The given maximal paths grouped into residue classes modulo the
    ideal, each represented by its least arrow sequence: one coset per
    class, asked of the first given path it holds, recording the component
    ids its paths map to (enumeration maps them to ()).

    Maximality is a property of the class, so the given paths must
    exhaust every coset they meet."""
    grouped: set[Path] = set()
    out = []
    for p in maximal:
        if p in grouped:
            continue
        coset = coset_paths(alg, p)
        if not maximal.keys() >= coset:
            raise InvariantViolation("the listed maximal paths do not exhaust their coset")
        grouped |= coset
        comps = tuple(sorted({c for m in coset for c in maximal[m]}))
        out.append(MaximalClass(min(coset, key=lambda p: p.arrows), coset, comps))
    return tuple(sorted(out, key=lambda c: _colkey(c.representative)))


def maximal_classes(alg: AlgebraPresentation) -> tuple[MaximalClass, ...]:
    """Maximal nonzero paths grouped into residue classes modulo the ideal."""
    return classes_of(alg, dict.fromkeys(maximal_paths(alg), ()))


def shared_arrow(classes: Sequence[MaximalClass]) -> tuple[Path, Path, str] | None:
    """The first two paths of distinct classes that share an arrow, with
    the least arrow they share, or None when no two classes do: the
    classes in order, and within each its paths by _colkey."""
    owner: dict[str, int] = {}  # the first class holding each arrow
    first = None  # the least pair of classes that meet, so far
    for k, c in enumerate(classes):
        for a in {a for p in c.paths for a in p.arrows}:
            i = owner.setdefault(a, k)
            if i < k and (first is None or i < first[0]):
                first = (i, k)
        if first is not None and first[0] == 0:
            break  # no later pair comes before (0, k)
    if first is not None:
        for p1, p2 in product(*(sorted(classes[k].paths, key=_colkey) for k in first)):
            if shared := set(p1.arrows) & set(p2.arrows):
                return (p1, p2, min(shared))
    return None


@dataclass(frozen=True)
class UmpReport:
    """A verdict on unique maximal paths, from any route: the structural
    routes fill in per_component, enumeration leaves it empty."""

    is_ump: bool
    # "monomial-corollary" | "main-theorem" | "component-windows" | "oracle"
    route: str
    witness: tuple[Path, Path, str] | None
    per_component: tuple[tuple[str, bool | None], ...]
    classes: tuple[MaximalClass, ...]
    notes: tuple[str, ...] = ()


def ump_bruteforce(alg: AlgebraPresentation) -> UmpReport:
    """Unique maximal path test: no two distinct maximal classes may share
    an arrow, counting every path in each class."""
    classes = maximal_classes(alg)
    witness = shared_arrow(classes)
    return UmpReport(witness is None, "oracle", witness, (), classes)


def global_basis(alg: AlgebraPresentation) -> tuple[list[Path], RowBasis]:
    """Coordinates of the truncated quotient and the reduced span of every
    embedded copy of every identification over them.

    The coordinates are the paths shorter than the bound that no zero
    relation divides; paths killed by identifications are still
    coordinates.  A path lies in the ideal exactly when its coordinate
    vector reduces to zero, and two paths share a coset exactly when their
    reductions agree.  InvalidPresentation when alg is no
    AlgebraPresentation."""
    _check_type(alg, AlgebraPresentation)
    # a path is dead when some window of it is a zero relation
    words = {z.arrows for z in alg.ideal.zero_paths}
    lengths = sorted({len(z) for z in words})

    def dead(p: Path) -> bool:
        w = p.arrows
        return len(w) >= alg.bound or any(w[i:i + k] in words for k in lengths for i in range(len(w) - k + 1))

    live = _outside(alg.quiver, dead)
    coordinates = set(live)  # every path that is not dead
    basis = RowBasis()
    seen: set[tuple] = set()
    for memb in sorted(live, key=_colkey):
        w = memb.arrows
        for rel in alg.ideal.linear:
            for term in rel.paths:
                t = term.arrows
                for pos in occurrences(t, w):
                    prefix, suffix = w[:pos], w[pos + len(t):]
                    if (rel, prefix, suffix) in seen:
                        continue
                    seen.add((rel, prefix, suffix))
                    vec: dict[Path, Fraction] = {}
                    for coef, tp in rel.terms():
                        cand = Path(prefix + tp.arrows + suffix, memb.source, memb.target)
                        if cand in coordinates:
                            vec[cand] = coef
                    basis.add(vec)
    return live, basis


def dimension_bruteforce(alg: AlgebraPresentation) -> int:
    """Vector space dimension of the quotient: the trivial paths plus its
    coordinates less the rank of the global basis."""
    live, basis = global_basis(alg)
    return len(alg.quiver.vertices) + len(live) - len(basis)
