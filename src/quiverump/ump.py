"""Deciding whether an algebra has unique maximal paths.

A maximal nonzero path is one that dies under every one-arrow extension
on either side; the property asked about is whether distinct residue
classes of maximal paths never share an arrow.  Special multiserial
algebras whose component ideals are monomial get a structural answer
read off the component analysis: the monomial corollary when the whole
ideal is monomial, the main theorem otherwise.  Everything else falls
back to honest enumeration, with a cheap sound refutation attempted
first when the algebra is not special multiserial.

The paper also states the criterion at the level of relations: every
long zero relation whose proper subpaths survive sits on a cyclic
component path and is the only relation dividing its powers.  The two
statements are equivalent, so the "cross-check" route confirms a
structural verdict against this one as well as against enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import (
    Component,
    MaximalClass,
    component_of_path,
    components,
    divides_power,
    global_maximal_classes,
    omega_relations,
)
from .errors import CrossCheckMismatch, InvariantViolation, NotApplicable, NotSpecialMultiserial
from .ideal import AlgebraPresentation, _colkey, coset_key, path_in_ideal
from .oracle import ump_bruteforce
from .quiver import Path

ROUTES = ("auto", "main", "oracle", "cross-check")


@dataclass(frozen=True)
class UmpReport:
    is_ump: bool
    # "monomial-corollary" | "main-theorem" | "oracle"
    route: str
    witness: tuple[Path, Path, str] | None
    per_component: tuple[tuple[str, bool], ...]
    classes: tuple[MaximalClass, ...]
    notes: tuple[str, ...] = ()


# -- cheap sound refutation ----------------------------------------------------


def _saturate(alg: AlgebraPresentation, p: Path) -> Path:
    """Greedy extension to a maximal nonzero path (smallest arrow id first;
    left growth cannot revive a dead right extension, so one pass each way)."""
    q = alg.quiver
    grew = True
    while grew:
        grew = False
        for a in sorted(q.arrows_from(p.target), key=lambda a: a.id):
            cand = Path(p.arrows + (a.id,), p.source, a.target)
            if not path_in_ideal(alg, cand):
                p, grew = cand, True
                break
    grew = True
    while grew:
        grew = False
        for a in sorted(q.arrows_into(p.source), key=lambda a: a.id):
            cand = Path((a.id,) + p.arrows, a.source, p.target)
            if not path_in_ideal(alg, cand):
                p, grew = cand, True
                break
    return p


def _is_maximal(alg: AlgebraPresentation, p: Path) -> bool:
    q = alg.quiver
    if path_in_ideal(alg, p):
        return False
    return all(
        path_in_ideal(alg, Path(p.arrows + (a.id,), p.source, a.target))
        for a in q.arrows_from(p.target)
    ) and all(
        path_in_ideal(alg, Path((a.id,) + p.arrows, a.source, p.target))
        for a in q.arrows_into(p.source)
    )


def quick_non_ump(alg: AlgebraPresentation) -> tuple[Path, Path, str] | None:
    """Advisory search for a refuting pair grown from identification terms.

    Seeds every identification term plus its live one-arrow paddings,
    saturates each seed, and looks for two saturations in distinct
    residue classes sharing an arrow.  A returned witness is validated
    against the definitions, so it is sound for any algebra; None just
    means the shortcut found nothing.
    """
    q = alg.quiver
    seeds: set[Path] = set()
    for rel in alg.ideal.linear:
        for term in rel.paths:
            if not path_in_ideal(alg, term):
                seeds.add(term)
            first, last = term.arrows[0], term.arrows[-1]
            for b in q.arrows_into(q.arrow(first).source):
                pad = q.path([b.id, first])
                if not path_in_ideal(alg, pad):
                    seeds.add(pad)
            for g in q.arrows_from(q.arrow(last).target):
                pad = q.path([last, g.id])
                if not path_in_ideal(alg, pad):
                    seeds.add(pad)
    sats = sorted({_saturate(alg, s) for s in seeds}, key=_colkey)
    for i, u in enumerate(sats):
        for v in sats[i + 1:]:
            if coset_key(alg, u) == coset_key(alg, v):
                continue
            shared = set(u.arrows) & set(v.arrows)
            if not shared:
                continue
            if not (_is_maximal(alg, u) and _is_maximal(alg, v)):
                continue
            return (u, v, min(shared))
    return None


# -- structural routes ---------------------------------------------------------


def _relation_level_verdict(alg: AlgebraPresentation,
                            comps: tuple[Component, ...]) -> bool:
    # every long zero relation with nonzero proper subpaths must sit on a
    # cyclic component path and be its only relation dividing the powers
    for r in omega_relations(alg):
        comp = component_of_path(alg, comps, r)
        w = comp.omega
        if w.target != w.source:
            return False
        divisors = {
            z.path for z in comp.algebra.ideal.zero if divides_power(z.path, w)
        }
        if divisors != {r}:
            return False
    return True


def _witness_from_classes(classes: tuple[MaximalClass, ...]
                          ) -> tuple[Path, Path, str] | None:
    for i, c1 in enumerate(classes):
        a1 = {a for p in c1.paths for a in p.arrows}
        for c2 in classes[i + 1:]:
            shared = a1 & {a for p in c2.paths for a in p.arrows}
            if shared:
                a = min(shared)
                u = min((p for p in c1.paths if a in p.arrows), key=_colkey)
                v = min((p for p in c2.paths if a in p.arrows), key=_colkey)
                return (u, v, a)
    return None


def _structural_report(alg: AlgebraPresentation,
                       comps: tuple[Component, ...],
                       route: str,
                       notes: tuple[str, ...]) -> UmpReport:
    per = tuple((c.id, bool(c.is_ump)) for c in comps)
    verdict = all(v for _, v in per)
    classes = global_maximal_classes(alg, comps)
    witness = None if verdict else _witness_from_classes(classes)
    if not verdict and witness is None:
        raise InvariantViolation("a component fails UMP but no two maximal classes share an arrow")
    return UmpReport(verdict, route, witness, per, classes, notes)


def _oracle_report(alg: AlgebraPresentation, route: str,
                   notes: tuple[str, ...]) -> UmpReport:
    brute = ump_bruteforce(alg)
    classes = tuple(
        MaximalClass(c.representative, c.paths, ()) for c in brute.classes
    )
    return UmpReport(brute.is_ump, route, brute.witness, (), classes, notes)


def _auto(alg: AlgebraPresentation
          ) -> tuple[UmpReport, tuple[Component, ...] | None]:
    """The "auto" route, with the components a structural verdict was
    read off (None when the verdict came from enumeration)."""
    try:
        comps = components(alg)
    except NotSpecialMultiserial:
        w = quick_non_ump(alg)
        if w is not None:
            return UmpReport(
                False, "oracle", w, (), (),
                ("not special multiserial; refuted by identification witness "
                 "without enumeration",),
            ), None
        return _oracle_report(
            alg, "oracle", ("not special multiserial; enumerated",)
        ), None
    if alg.is_monomial:
        return _structural_report(alg, comps, "monomial-corollary", ()), comps
    if all(c.is_ump is not None for c in comps):
        return _structural_report(alg, comps, "main-theorem", ()), comps
    return _oracle_report(
        alg, "oracle", ("component ideals are not all monomial; enumerated",)
    ), None


def ump_report(alg: AlgebraPresentation, route: str = "auto") -> UmpReport:
    """Decide unique maximal paths, via the requested route.

    "auto" reads the verdict off the components of a special multiserial
    algebra whose component ideals are all monomial (reported as
    "monomial-corollary" when the whole ideal is monomial, "main-theorem"
    otherwise) and falls back to enumeration; "main" forces the structural
    route and raises NotApplicable when its hypotheses fail; "oracle"
    forces enumeration; "cross-check" runs "auto" and confirms the verdict
    against enumeration and, when it is structural, against the
    relation-level statement, raising CrossCheckMismatch on disagreement.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")

    if route == "cross-check":
        rep, comps = _auto(alg)
        brute = ump_bruteforce(alg)
        if rep.is_ump != brute.is_ump:
            raise CrossCheckMismatch(
                f"structural route {rep.route} says {rep.is_ump}, "
                f"enumeration says {brute.is_ump}"
            )
        notes = ("verdict confirmed by enumeration",)
        if comps is not None:
            if _relation_level_verdict(alg, comps) != rep.is_ump:
                raise CrossCheckMismatch(
                    f"structural route {rep.route} says {rep.is_ump}, "
                    f"the relation-level statement says {not rep.is_ump}"
                )
            notes += ("verdict confirmed by the relation-level statement",)
        return replace(rep, notes=rep.notes + notes)

    if route == "oracle":
        return _oracle_report(alg, "oracle", ())

    if route == "main":
        try:
            comps = components(alg)
        except NotSpecialMultiserial as exc:
            raise NotApplicable(
                f"structural route needs a special multiserial algebra; {exc.witness}"
            ) from None
        if not all(c.is_ump is not None for c in comps):
            raise NotApplicable(
                "structural route needs every component ideal monomial"
            )
        return _structural_report(alg, comps, "main-theorem", ())

    return _auto(alg)[0]
