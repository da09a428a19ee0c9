"""Deciding whether an algebra has unique maximal paths.

A maximal nonzero path is one that dies under every one-arrow extension
on either side; the property asked about is whether distinct residue
classes of maximal paths never share an arrow.  A special multiserial
algebra is decided on the classes of its components' maximal windows,
and the paper's component test (the monomial corollary, or the main
theorem) explains the verdict where the component ideals are monomial.
Only other algebras are enumerated, after a cheap sound refutation
attempt.  The "oracle" route always enumerates.

Both routes answer with the one report type of the class layer,
oracle.UmpReport, which lives there beside MaximalClass, classes_of and
shared_arrow.
"""

from __future__ import annotations

from dataclasses import replace

from .analysis import components, global_maximal_classes
from .errors import InvariantViolation, NotSpecialMultiserial
from .ideal import AlgebraPresentation, _check_type, _colkey, coset_paths, path_in_ideal
from .oracle import UmpReport, extensions_die, shared_arrow, ump_bruteforce
from .quiver import Path

ROUTES = ("auto", "oracle")


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


def quick_non_ump(alg: AlgebraPresentation) -> tuple[Path, Path, str] | None:
    """Advisory search for a refuting pair grown from identification terms.

    Seeds every identification term plus its live one-arrow paddings,
    each decided by ideal's pair rule with no table, saturates each seed,
    and looks for two saturations in distinct residue classes sharing an
    arrow.  A returned witness is validated against the definitions, so
    it is sound for any algebra; None just means the shortcut found
    nothing.  InvalidPresentation when alg is no AlgebraPresentation.
    """
    _check_type(alg, AlgebraPresentation)
    q = alg.quiver
    seeds: set[Path] = set()
    for rel in alg.ideal.linear:
        for term in rel.paths:
            if not path_in_ideal(alg, term):
                seeds.add(term)
            first, last = q.arrow(term.arrows[0]), q.arrow(term.arrows[-1])
            seeds.update(Path((b.id, first.id), b.source, first.target)
                         for b in q.arrows_into(first.source) if any(alg._composing(b, (first,))))
            seeds.update(Path((last.id, g), last.source, q.arrow(g).target)
                         for g in alg._composing(last, q.arrows_from(last.target)))
    sats = sorted({_saturate(alg, s) for s in seeds}, key=_colkey)
    for i, u in enumerate(sats):
        for v in sats[i + 1:]:
            # a saturation is nonzero, so it has a coset
            shared = set(u.arrows) & set(v.arrows)
            if not shared or v in coset_paths(alg, u):
                continue
            if any(path_in_ideal(alg, p) or not extensions_die(alg, p) for p in (u, v)):
                continue
            return (u, v, min(shared))
    return None


# -- the dispatcher ------------------------------------------------------------


def ump_report(alg: AlgebraPresentation, route: str = "auto") -> UmpReport:
    """Decide unique maximal paths, via the requested route.

    "auto" decides a special multiserial algebra on the classes of its
    components' maximal windows, checked against the paper's test where
    the component ideals are monomial (route "monomial-corollary" or
    "main-theorem" if all are, else "component-windows"); other algebras
    and "oracle" enumerate.  Both raise InvalidPresentation on a non-algebra.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if route == "oracle":
        return ump_bruteforce(alg)
    try:
        comps = components(alg)
    except NotSpecialMultiserial:
        w = quick_non_ump(alg)
        if w is not None:
            notes = ("not special multiserial; refuted by identification witness without enumeration",)
            return UmpReport(False, "oracle", w, (), (), notes)
        return replace(ump_bruteforce(alg), notes=("not special multiserial; enumerated",))
    per = tuple((c.id, c.is_ump) for c in comps)
    classes = global_maximal_classes(alg, comps)
    witness = shared_arrow(classes)
    verdicts = {v for _, v in per}  # None where the test does not apply
    if (False in verdicts) if witness is None else verdicts <= {True}:
        raise InvariantViolation("the component test and the maximal classes disagree")
    route = ("component-windows" if None in verdicts
             else "monomial-corollary" if alg.is_monomial else "main-theorem")
    return UmpReport(witness is None, route, witness, per, classes)
