"""Deciding whether an algebra has unique maximal paths.

A maximal nonzero path is one that dies under every one-arrow extension
on either side; the property asked about is whether distinct residue
classes of maximal paths never share an arrow.  A special multiserial
algebra is decided on the classes of its components' maximal windows,
and the paper's component test (the monomial corollary, or the main
theorem) explains the verdict where the component ideals are monomial.
"auto" routes on the cached special multiserial test.  An algebra that
fails it has an arrow with two nonzero compositions on one side; the two
maximal paths grown from them share that arrow and refute the property
when they lie in distinct classes.  Only where they do not is the
algebra enumerated.  The "oracle" route always enumerates.

Both routes answer with oracle.UmpReport, the structural ones with the
classes and witness that analysis reads off the components' positions.
"""

from __future__ import annotations

from dataclasses import replace

from .analysis import components, global_maximal_classes, maximal_witness
from .errors import InvariantViolation
from .ideal import AlgebraPresentation, coset_paths, is_special_multiserial, path_in_ideal
from .oracle import UmpReport, extensions_die, ump_bruteforce
from .quiver import Path

ROUTES = ("auto", "oracle")


# -- cheap sound refutation ----------------------------------------------------


def _saturate(alg: AlgebraPresentation, p: Path) -> Path:
    """Greedy extension to a maximal nonzero path, by the smallest arrow id
    first, on the right until it dies there, then on the left: left growth
    cannot revive a dead right extension."""
    q = alg.quiver
    for right in (True, False):
        grew = True
        while grew:
            grew = False
            for a in sorted(q.arrows_from(p.target) if right else q.arrows_into(p.source), key=lambda a: a.id):
                cand = (Path(p.arrows + (a.id,), p.source, a.target) if right
                        else Path((a.id,) + p.arrows, a.source, p.target))
                if not path_in_ideal(alg, cand):
                    p, grew = cand, True
                    break
    return p


def quick_non_ump(alg: AlgebraPresentation) -> tuple[Path, Path, str] | None:
    """Refute unique maximal paths from the special multiserial witness.

    The witness is an arrow a with two nonzero compositions on one side
    (ab1 and ab2, or b1a and b2a); saturating each gives two maximal paths
    that share a.  The pair is validated against the definitions, so a
    returned (u, v, a) is sound; None when the algebra is special
    multiserial or the pair fails the check.
    InvalidPresentation when alg is no AlgebraPresentation.
    """
    w = is_special_multiserial(alg).witness
    if w is None:
        return None
    q, a = alg.quiver, alg.quiver.arrow(w.arrow)
    pairs = [(a, q.arrow(b)) if w.side == "right" else (q.arrow(b), a) for b in w.pair]
    u, v = (_saturate(alg, Path((x.id, y.id), x.source, y.target)) for x, y in pairs)
    if u == v or v in coset_paths(alg, u):  # a saturation is nonzero, so it has a coset
        return None
    if any(path_in_ideal(alg, p) or not extensions_die(alg, p) for p in (u, v)):
        return None
    return (u, v, w.arrow)


# -- the dispatcher ------------------------------------------------------------


def ump_report(alg: AlgebraPresentation, route: str = "auto") -> UmpReport:
    """Decide unique maximal paths, via the requested route.

    "auto" asks the cached special multiserial test first.  It decides a
    special multiserial algebra on the classes of its components' maximal
    windows, checked against the paper's test where the component ideals
    are monomial (route "monomial-corollary" or "main-theorem" if all are,
    else "component-windows").  Another algebra is refuted from the test's
    witness where quick_non_ump can, and enumerated otherwise, as "oracle"
    always is.  Both raise InvalidPresentation on a non-algebra.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ROUTES}")
    if route == "oracle":
        return ump_bruteforce(alg)
    if not is_special_multiserial(alg):
        w = quick_non_ump(alg)
        if w is not None:
            notes = ("not special multiserial; refuted from the special multiserial witness without enumeration",)
            return UmpReport(False, "oracle", w, (), (), notes)
        return replace(ump_bruteforce(alg), notes=("not special multiserial; enumerated",))
    comps = components(alg)
    per = tuple((c.id, c.is_ump) for c in comps)
    classes = global_maximal_classes(alg, comps)
    witness = maximal_witness(comps, classes)
    verdicts = {v for _, v in per}  # None where the test does not apply
    if (False in verdicts) if witness is None else verdicts <= {True}:
        raise InvariantViolation("the component test and the maximal classes disagree")
    route = ("component-windows" if None in verdicts
             else "monomial-corollary" if alg.is_monomial else "main-theorem")
    return UmpReport(witness is None, route, witness, per, classes)
