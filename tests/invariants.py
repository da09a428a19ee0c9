"""Checks that hold of every presentation, every induced ideal and every
component, shared by the example tests and the generated ones, and bound
references that list paths."""

from fractions import Fraction

from quiverump.errors import NotAdmissible
from quiverump.ideal import (
    AlgebraPresentation,
    IdealPresentation,
    coset_key,
    coset_paths,
    minimalize_relations,
    path_in_ideal,
)
from quiverump.oracle import global_basis, maximal_paths, nonzero_paths
from quiverump.quiver import Path, divides


def paths_up_to(q, longest):
    """Every path of q of length 1..longest."""
    out = []
    layer = [Path((a.id,), a.source, a.target) for a in q.arrows]
    while layer and len(layer[0]) <= longest:
        out.extend(layer)
        layer = [Path(p.arrows + (a.id,), p.source, a.target) for p in layer for a in q.arrows_from(p.target)]
    return out


def enumerated_bound(q, zero_paths, cap):
    """Least m >= 2 with every path of q of length m divided by a zero path,
    or NotAdmissible(cap) once one of length cap is divided by none.

    Lists the paths no zero path divides, depth first, testing each with
    divides; a divided path is not extended, since its extensions are
    divided too, and the listing stops at the first undivided path of
    length cap (listing every path would cost 6**8 on six loops)."""
    longest = 0
    stack = [Path((a.id,), a.source, a.target) for a in q.arrows]
    while stack:
        p = stack.pop()
        if any(divides(z, p) for z in zero_paths):
            continue
        if len(p) >= cap:
            raise NotAdmissible(cap)
        longest = max(longest, len(p))
        stack.extend(Path(p.arrows + (a.id,), p.source, a.target) for a in q.arrows_from(p.target))
    return max(longest + 1, 2)


def reduced_bound(q, zero, linear, cap):
    """Least m >= 2 with every path of q of length m in the ideal, or
    NotAdmissible(cap) once a path of length cap lies outside it.

    Truncates the presentation at cap + 1 and reduces over the oracle's
    global basis, with no membership engine: the longest path outside the
    span, plus one.  It reads the bound the stage walk of
    admissibility_bound reads, because for L <= cap all paths of length L
    lie in I + R^(L+1), as that walk tests, exactly when all lie in
    I + R^(cap+1)."""
    truncated = AlgebraPresentation(q, IdealPresentation(tuple(zero), tuple(linear), cap + 1))
    live, basis = global_basis(truncated)
    longest = max((len(p) for p in live if basis.reduce({p: Fraction(1)})), default=0)
    if longest >= cap:
        raise NotAdmissible(cap)
    return max(longest + 1, 2)


def check_induced(alg, induced):
    """Each induced presentation holds exactly the subquiver paths of
    length <= alg.bound that alg's ideal holds, and gives each of the
    others the subquiver part of its coset in alg; its bound is the
    least m with every path of length m in its ideal (listed, for a
    monomial one, and reduced over the global basis otherwise), and none
    of its relations is redundant."""
    for sub in induced:
        arrows = set(sub.quiver.arrow_ids)
        for p in paths_up_to(sub.quiver, alg.bound):
            held = path_in_ideal(alg, p)
            assert path_in_ideal(sub, p) == held, p
            if not held:
                assert coset_paths(sub, p) == {m for m in coset_paths(alg, p) if set(m.arrows) <= arrows}, p
        zero, linear = sub.ideal.zero, sub.ideal.linear
        if linear:
            assert sub.bound == reduced_bound(sub.quiver, zero, linear, alg.bound)
        else:
            assert sub.bound == enumerated_bound(sub.quiver, sub.ideal.zero_paths, alg.bound)
        assert minimalize_relations(sub.quiver, zero, linear, sub.bound)[2] == ()


def check_global_basis(alg):
    """On every coordinate of the truncated quotient, path_in_ideal and the
    partition by coset_key agree with the oracle's global basis, which
    reduces every embedded identification at once and shares no block."""
    live, basis = global_basis(alg)
    by_key, by_normal = {}, {}
    for p in live:
        normal = basis.normal_key({p: Fraction(1)})
        assert path_in_ideal(alg, p) == (normal == ()), p
        if normal:
            by_key.setdefault(coset_key(alg, p), set()).add(p)
            by_normal.setdefault(normal, set()).add(p)
    assert {frozenset(c) for c in by_key.values()} == {frozenset(c) for c in by_normal.values()}


def maximal_windows(comp):
    """Arrow sequences of the windows (i, l(i)) of a component that no
    longer nonzero window ends with: l(i-1) <= l(i), where a line has no
    position before its first."""
    n, ls = len(comp.omega), comp.lengths
    word = comp.omega.arrows * (max(ls) // n + 2)
    return {word[i:i + k] for i, k in enumerate(ls) if (ls[i - 1] if comp.closes or i else 0) <= k}


def check_windows(alg, comps):
    """The window lengths of the components against enumeration: they count
    every nonzero path once, their maximal windows are the maximal paths,
    and each component is called monomial exactly when its induced
    presentation (built by induced_algebra) is."""
    assert sum(sum(c.lengths) for c in comps) == len(nonzero_paths(alg))
    assert set().union(*map(maximal_windows, comps)) == {p.arrows for p in maximal_paths(alg)}
    for c in comps:
        assert (c.is_ump is not None) == c.algebra.is_monomial, c.id
        if c.is_ump is not None:
            assert {m.arrows for m in c.maximal} == maximal_windows(c), c.id
