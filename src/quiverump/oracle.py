"""Brute-force reference computations.

Everything here works by exhaustive path enumeration plus exact linear
algebra, with none of the structural shortcuts used elsewhere in the
package; the point is to have an independent answer to compare against.
Runtimes are exponential in principle and fine in practice because an
admissible ideal caps path length at the bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .ideal import (
    AlgebraPresentation,
    RowBasis,
    _colkey,
    coset_key,
    coset_paths,
    path_in_ideal,
)
from .quiver import Path, divides


def nonzero_paths(alg: AlgebraPresentation) -> tuple[Path, ...]:
    """All nontrivial paths outside the ideal, by exhaustive extension.

    Pruning on membership is sound: extensions of a path in the ideal
    stay in the ideal.
    """
    q = alg.quiver
    out: list[Path] = []
    frontier = [Path((a.id,), a.source, a.target) for a in q.arrows]
    while frontier:
        keep = [p for p in frontier if not path_in_ideal(alg, p)]
        out.extend(keep)
        frontier = [
            Path(p.arrows + (a.id,), p.source, a.target)
            for p in keep
            for a in q.arrows_from(p.target)
        ]
    return tuple(sorted(out, key=_colkey))


def maximal_paths(alg: AlgebraPresentation) -> tuple[Path, ...]:
    """Nonzero paths that fall into the ideal under every one-arrow extension."""
    q = alg.quiver
    out = []
    for p in nonzero_paths(alg):
        right = all(
            path_in_ideal(alg, Path(p.arrows + (a.id,), p.source, a.target))
            for a in q.arrows_from(p.target)
        )
        left = all(
            path_in_ideal(alg, Path((a.id,) + p.arrows, a.source, p.target))
            for a in q.arrows_into(p.source)
        )
        if left and right:
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class OracleClass:
    representative: Path
    paths: frozenset[Path]


def maximal_classes(alg: AlgebraPresentation) -> tuple[OracleClass, ...]:
    """Maximal nonzero paths grouped into residue classes modulo the ideal."""
    groups: dict[tuple, list[Path]] = {}
    for p in maximal_paths(alg):
        groups.setdefault(coset_key(alg, p), []).append(p)
    out = []
    for members in groups.values():
        coset = coset_paths(alg, members[0])
        # maximality is a property of the class, so the enumerated members
        # must exhaust the coset
        if coset != frozenset(members):
            raise InvariantViolation("enumerated maximal paths do not exhaust their coset")
        rep = min(coset, key=lambda p: p.arrows)
        out.append(OracleClass(rep, coset))
    return tuple(sorted(out, key=lambda c: _colkey(c.representative)))


@dataclass(frozen=True)
class OracleUmp:
    is_ump: bool
    witness: tuple[Path, Path, str] | None
    classes: tuple[OracleClass, ...]


def ump_bruteforce(alg: AlgebraPresentation) -> OracleUmp:
    """Unique maximal path test: no two distinct maximal classes may share
    an arrow, counting every path in each class."""
    classes = maximal_classes(alg)
    for i, ci in enumerate(classes):
        for cj in classes[i + 1:]:
            for p1 in sorted(ci.paths, key=_colkey):
                for p2 in sorted(cj.paths, key=_colkey):
                    shared = set(p1.arrows) & set(p2.arrows)
                    if shared:
                        return OracleUmp(False, (p1, p2, min(shared)), classes)
    return OracleUmp(True, None, classes)


def _truncation_live(alg: AlgebraPresentation) -> list[Path]:
    # coordinates of the truncated quotient: short and not divisible by a
    # zero relation (paths killed by identifications are still coordinates)
    q = alg.quiver
    zeros = alg.ideal.zero_paths

    def ok(p: Path) -> bool:
        return len(p) < alg.bound and not any(divides(z, p) for z in zeros)

    out: list[Path] = []
    frontier = [p for a in q.arrows
                if ok(p := Path((a.id,), a.source, a.target))]
    while frontier:
        out.extend(frontier)
        frontier = [
            cand
            for p in frontier
            for a in q.arrows_from(p.target)
            if ok(cand := Path(p.arrows + (a.id,), p.source, a.target))
        ]
    return out


def dimension_bruteforce(alg: AlgebraPresentation, include_trivial: bool = True) -> int:
    """Vector space dimension of the quotient, by exhausting coordinates and
    row reducing every embedded copy of every identification."""
    live = _truncation_live(alg)
    base = len(alg.quiver.vertices) if include_trivial else 0
    if alg.is_monomial:
        return base + len(live)
    basis = RowBasis()
    seen: set[tuple] = set()
    for memb in sorted(live, key=_colkey):
        for rel in alg.ideal.linear:
            for term in rel.paths:
                tlen = len(term.arrows)
                for pos in range(len(memb.arrows) - tlen + 1):
                    if memb.arrows[pos:pos + tlen] != term.arrows:
                        continue
                    prefix = memb.arrows[:pos]
                    suffix = memb.arrows[pos + tlen:]
                    ekey = (rel, prefix, suffix)
                    if ekey in seen:
                        continue
                    seen.add(ekey)
                    vec: dict[Path, Fraction] = {}
                    for coef, tp in rel.terms():
                        cand = Path(prefix + tp.arrows + suffix, memb.source, memb.target)
                        if len(cand) < alg.bound and not any(
                            divides(z, cand) for z in alg.ideal.zero_paths
                        ):
                            vec[cand] = vec.get(cand, Fraction(0)) + coef
                    basis.add(vec)
    return base + len(live) - len(basis)
