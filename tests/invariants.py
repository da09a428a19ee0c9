"""Checks that hold of every presentation, every induced ideal and every
component, shared by the example tests and the generated ones, bound
references that list paths, the maximal paths by their definition, the
Brauer presentation that the generic builder makes of the full relation
listing, the zero reduction of algebra() against the presentation it
rewrites, the paper's UMP criterion stated on relations, the block cache
that membership reads first, the saturations arrow by arrow and the
components walked on them, and the component objects no verdict reads:
eta, the junction relations and the Brauer component-vertex bijection."""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

import quiverump.oracle
import quiverump.ump
from quiverump.analysis import components, global_maximal_classes, induced_algebra, maximal_witness
from quiverump.brauer import Half, brauer_algebra
from quiverump.errors import NotAdmissible, NotSpecialMultiserial, TrivialPath
from quiverump.ideal import (
    AlgebraPresentation,
    IdealPresentation,
    _Engine,
    _colkey,
    _grow,
    admissibility_bound,
    algebra,
    coset_paths,
    linear_relation,
    live_paths,
    minimalize_relations,
    path_in_ideal,
    zero_divisor,
    zero_relation,
)
from quiverump.omega import omega_map
from quiverump.oracle import (
    classes_of,
    extensions_die,
    global_basis,
    maximal_classes,
    maximal_paths,
    nonzero_paths,
    shared_arrow,
    ump_bruteforce,
)
from quiverump.quiver import Path, occurrences
from quiverump.ump import quick_non_ump, ump_report


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
    occurrences; a divided path is not extended, since its extensions are
    divided too, and the listing stops at the first undivided path of
    length cap (listing every path would cost 6**8 on six loops)."""
    longest = 0
    stack = [Path((a.id,), a.source, a.target) for a in q.arrows]
    while stack:
        p = stack.pop()
        if any(occurrences(z.arrows, p.arrows) for z in zero_paths):
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


def unrewritten(q, zero, linear, cap=64):
    """The presentation of the relations as given, at their bound, with
    none of algebra()'s zero reduction: the relations minimalised, built
    by hand.  Its identifications keep the terms a zero relation divides,
    so its engine meets dead siblings that algebra() would drop."""
    bound = admissibility_bound(q, zero, linear, cap=cap)
    return AlgebraPresentation(q, IdealPresentation(*minimalize_relations(q, zero, linear, bound), bound))


def _class_sets(rep):
    return {c.paths for c in rep.classes}


def check_zero_reduction(q, zero, linear, cap=64):
    """algebra() drops the linear-relation terms the zero relations divide,
    and the ideal stays the same: its bound is admissibility_bound of the
    relations as given, membership and cosets of every path shorter than
    the bound match the global basis of the unrewritten presentation, no
    term it keeps is divisible by one of its zero relations, and both
    presentations get the same verdicts, with the same class sets wherever
    both reports list classes.  Returns the rewritten presentation."""
    alg, raw = algebra(q, zero, linear, cap=cap), unrewritten(q, zero, linear, cap)
    assert alg.bound == raw.bound
    divisible, _ = zero_divisor(alg.ideal.zero_paths)
    assert not any(divisible(t) for rel in alg.ideal.linear for t in rel.paths)
    live, basis = global_basis(raw)
    normal = {p: normal_key(basis, {p: Fraction(1)}) for p in live}
    by_normal = {}
    for p, key in normal.items():
        by_normal.setdefault(key, set()).add(p)
    for p in paths_up_to(q, alg.bound - 1):
        key = normal.get(p, ())  # a path off the coordinates is dead
        assert path_in_ideal(alg, p) == (key == ()), p
        if key:
            assert coset_paths(alg, p) == by_normal[key], p
    for route in quiverump.ump.ROUTES:
        rep, ref = quiverump.ump.ump_report(alg, route), quiverump.ump.ump_report(raw, route)
        assert rep.is_ump == ref.is_ump, route
        if rep.classes and ref.classes:
            assert _class_sets(rep) == _class_sets(ref), route
    return alg


def maximal_by_extension(alg):
    """The maximal paths by their definition: the nonzero paths whose
    one-arrow extensions on either side all lie in the ideal, asked of the
    engine one by one, in the order of nonzero_paths."""
    return tuple(p for p in nonzero_paths(alg) if extensions_die(alg, p))


def cut_at(alg, bound):
    """The presentation of the same relations truncated at a hand-made
    bound, which may lie below the lengths of the relations: then every
    path of length bound - 1 outside the ideal is maximal by length."""
    return AlgebraPresentation(alg.quiver, IdealPresentation(alg.ideal.zero, alg.ideal.linear, bound))


def check_maximal(alg):
    """maximal_paths, read off the one listing of the nonzero paths, equals
    the definition, order included, at the bound of alg and at every
    hand-made bound below it."""
    for bound in range(2, alg.bound + 1):
        cut = cut_at(alg, bound)
        assert maximal_paths(cut) == maximal_by_extension(cut), bound


def brauer_reference(g):
    """The algebra of the Brauer graph g as the generic builder makes it of
    the paper's full relation listing: the full turn powers at the two ends
    of each edge identified, the cut-off turn C^m x at every truncated end,
    and every non-consecutive composite of two arrows, all passed to
    algebra(), which walks the bound up to the longest turn power plus one
    and minimises.  The quiver and the turns are brauer_algebra's."""
    ba = brauer_algebra(g)
    q = ba.algebra.quiver
    powers = {vh: c.arrows * g.multiplicity(vh[0]) for vh, c in ba.cycles.items()}
    zero, linear = [], []
    for e, a, b in g.edges:
        ca, cb = powers.get((a, Half(e, 0))), powers.get((b, Half(e, 1)))
        if ca and cb:
            linear.append(linear_relation(q, [(1, ca), (-1, cb)]))
        elif ca or cb:
            turn = ca or cb
            zero.append(zero_relation(q, turn + turn[:1]))
    consecutive = {(c.arrows[0], c.arrows[1 % len(c)]) for c in ba.cycles.values()}
    zero += [zero_relation(q, [x.id, y.id]) for x in q.arrows for y in q.arrows_from(x.target)
             if (x.id, y.id) not in consecutive]
    longest = max(map(len, powers.values()), default=1)
    return algebra(q, zero, linear, cap=max(2, longest + 1))


@lru_cache(maxsize=64)
def component_algebra(alg, comp):
    """The induced presentation of a component, built by induced_algebra
    once for the checks below to share: equal presentations and equal
    components induce equal presentations."""
    return induced_algebra(alg, frozenset(comp.omega.arrows))


def saturation_algebras(alg):
    """The induced presentations of each saturation's arrows and of the
    whole quiver, for an algebra with no components to restrict to."""
    arrow_sets = {frozenset(w.arrows) for w in omega_map(alg.quiver).values()}
    arrow_sets.add(frozenset(a.id for a in alg.quiver.arrows))
    return [induced_algebra(alg, s) for s in arrow_sets]


def check_induced(alg, induced):
    """Each induced presentation holds exactly the subquiver paths of
    length <= alg.bound that alg's ideal holds, and gives each of the
    others the subquiver part of its coset in alg; its bound is the
    least m with every path of length m in its ideal (listed, for a
    monomial one, and reduced over the global basis otherwise), and none
    of its relations is redundant."""
    for sub in induced:
        arrows = {a.id for a in sub.quiver.arrows}
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
        assert minimalize_relations(sub.quiver, zero, linear, sub.bound) == (zero, linear)


def normal_key(basis, vec):
    """The reference normal form of vec: reduced over a reduced basis, its
    terms in the basis's column order.  The engine reads the normal forms of
    a block's members off its rows instead."""
    return tuple(sorted(basis.reduce(vec).items(), key=lambda kv: basis.key(kv[0])))


def check_global_basis(alg):
    """On every coordinate of the truncated quotient, path_in_ideal and the
    partition by coset_paths agree with the oracle's global basis, which
    reduces every embedded identification at once and shares no block."""
    live, basis = global_basis(alg)
    cosets, by_normal = set(), {}
    for p in live:
        normal = normal_key(basis, {p: Fraction(1)})
        assert path_in_ideal(alg, p) == (normal == ()), p
        if normal:
            cosets.add(coset_paths(alg, p))
            by_normal.setdefault(normal, set()).add(p)
    assert cosets == {frozenset(c) for c in by_normal.values()}


def _answer(alg, p):
    """None for a path in the ideal, else its coset."""
    return None if path_in_ideal(alg, p) else coset_paths(alg, p)


def check_block_cache(alg):
    """Membership reads the block cache before any window scan, which is
    sound only while every cached path is live: so no cached path is dead
    after the full oracle listing and classes, nor after every live path
    is asked shortest first or longest first of a fresh engine, and both
    orders give the same answers."""
    ump_bruteforce(alg)
    live = live_paths(alg)  # shortest first
    shortest, longest = AlgebraPresentation(alg.quiver, alg.ideal), AlgebraPresentation(alg.quiver, alg.ideal)
    answers = {p: _answer(shortest, p) for p in live}
    assert {p: _answer(longest, p) for p in reversed(live)} == answers
    for a in (alg, shortest, longest):
        eng = a._engine
        assert not any(eng.dead(k) for k in eng._blocks)


def count_window_scans(monkeypatch, eng):
    """The arrow sequences an engine's zero-window test, zero-occurrence
    lister and copy listing read from now on, by kind."""
    scans = {"zero": [], "ends": [], "copies": []}
    divisible, ends, copies = eng.zero_divisible, eng.zero_ends, eng.copies

    def counted_divisible(p):
        scans["zero"].append(p.arrows)
        return divisible(p)

    def counted_ends(w):
        scans["ends"].append(w)
        return ends(w)

    def counted_copies(w):
        scans["copies"].append(w)
        return copies(w)

    monkeypatch.setattr(eng, "zero_divisible", counted_divisible)
    monkeypatch.setattr(eng, "zero_ends", counted_ends)
    monkeypatch.setattr(eng, "copies", counted_copies)
    return scans


def _asked(engine, p):
    raise AssertionError(f"a monomial component asked whether {p} lies in the ideal")


def lone_open_arrow(comp):
    """Whether a component is one arrow whose windows do not read on around
    it: a lone arrow that does not close, such as a loop whose square is zero."""
    return len(comp.omega) == 1 and not comp.closes


def check_positional_classes(alg):
    """On fresh copies of a special multiserial presentation, the classes
    the structural route builds off its components' positions equal
    classes_of of every maximal window, each mapped to its component, and
    its witness equals shared_arrow of those classes, also read off the
    positions alone, as if the paper's test applied to no component."""
    comps = components(AlgebraPresentation(alg.quiver, alg.ideal))
    classes = global_maximal_classes(AlgebraPresentation(alg.quiver, alg.ideal), comps)
    expected = classes_of(AlgebraPresentation(alg.quiver, alg.ideal),
                          {m: (c.id,) for c in comps for m in c.maximal})
    assert classes == expected
    assert maximal_witness(comps, classes) == shared_arrow(expected)
    assert maximal_witness([replace(c, is_ump=None) for c in comps], classes) == shared_arrow(expected)


def check_auto_cosets(alg):
    """ump_report(alg, "auto") on a fresh copy of a special multiserial
    presentation asks a coset at most once per maximal path holding a
    relation term, so never on a monomial one: a path holding none is its
    own coset.  Returns the number of cosets asked."""
    terms = [t.arrows for rel in alg.ideal.linear for t in rel.paths]
    held = sum(any(occurrences(t, m.arrows) for t in terms) for m in maximal_paths(alg))
    asked = []
    real = quiverump.oracle.coset_paths
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quiverump.oracle, "coset_paths", lambda a, p: asked.append(p) or real(a, p))
        ump_report(AlgebraPresentation(alg.quiver, alg.ideal), "auto")
    assert len(asked) <= held, (len(asked), held)
    return len(asked)


def check_components_ask_nothing(alg):
    """On a fresh copy of a monomial presentation, components asks the
    engine no membership query and scans no window: the length-2 table is
    read off the relations, each component that is not a lone open arrow
    reads one listing of the zero occurrences along its word, and a lone
    open arrow reads none.  Returns the components, or () when the algebra
    is not special multiserial."""
    assert alg.is_monomial
    fresh = AlgebraPresentation(alg.quiver, alg.ideal)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "in_ideal", _asked)
        scans = count_window_scans(mp, fresh._engine)
        try:
            comps = components(fresh)
        except NotSpecialMultiserial:
            comps = ()
    assert scans["zero"] == scans["copies"] == []
    assert len(scans["ends"]) == sum(not lone_open_arrow(c) for c in comps)
    return comps


def _table_refused(alg):
    raise AssertionError("quick_non_ump read the length-2 table")


def check_quick_non_ump_reads_no_table(alg):
    """quick_non_ump grows its pair from the special multiserial witness
    and saturates it by membership queries, never through the length-2
    table: with the table made to raise, a fresh copy gets the witness it
    gets with the table.  Returns that witness."""
    witness = quick_non_ump(AlgebraPresentation(alg.quiver, alg.ideal))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AlgebraPresentation, "_after", property(_table_refused))
        assert quick_non_ump(AlgebraPresentation(alg.quiver, alg.ideal)) == witness
    return witness


def check_auto_composes_each_arrow_once(alg):
    """On a fresh copy, one ump_report(alg, "auto") asks the pair rule
    (AlgebraPresentation._composing) about the arrows after each arrow at
    most once: the special multiserial test is decided once per
    presentation, and the route, the components and the refutation read
    that one decision.  Returns the arrows asked about, in order."""
    composing = AlgebraPresentation._composing
    asked = []

    def counted(self, a, after):
        asked.append(a.id)
        return composing(self, a, after)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AlgebraPresentation, "_composing", counted)
        ump_report(AlgebraPresentation(alg.quiver, alg.ideal), "auto")
    assert len(asked) == len(set(asked)), asked
    return asked


def check_refutation(alg):
    """A pair quick_non_ump returns, held to enumeration on a fresh copy:
    both paths are maximal, they lie in distinct maximal classes and both
    hold the returned arrow.  Returns the pair, or None."""
    witness = quick_non_ump(alg)
    if witness is not None:
        u, v, arrow = witness
        fresh = AlgebraPresentation(alg.quiver, alg.ideal)
        assert {u, v} <= set(maximal_paths(fresh))
        (cu,) = [c for c in maximal_classes(fresh) if u in c.paths]
        (cv,) = [c for c in maximal_classes(fresh) if v in c.paths]
        assert cu != cv
        assert arrow in u.arrows and arrow in v.arrows
    return witness


def pairwise_shared_arrow(classes):
    """The witness rule by its definition: every two classes in order, and
    within them every two paths by _colkey, until two share an arrow."""
    ordered = [sorted(c.paths, key=_colkey) for c in classes]
    for i, pi in enumerate(ordered):
        for pj in ordered[i + 1:]:
            for p1 in pi:
                for p2 in pj:
                    shared = set(p1.arrows) & set(p2.arrows)
                    if shared:
                        return (p1, p2, min(shared))
    return None


def _no_enumeration(alg):
    raise AssertionError("auto enumerated a special multiserial algebra")


def forbid_enumeration(monkeypatch):
    """Make every route to ump_bruteforce raise from now on."""
    monkeypatch.setattr(quiverump.ump, "ump_bruteforce", _no_enumeration)
    monkeypatch.setattr(quiverump.oracle, "ump_bruteforce", _no_enumeration)


def maximal_windows(comp):
    """Arrow sequences of the windows (i, l(i)) of a component that no
    longer nonzero window ends with: l(i-1) <= l(i), where a line has no
    position before its first."""
    n, ls = len(comp.omega), comp.lengths
    word = comp.omega.arrows * (max(ls) // n + 2)
    return {word[i:i + k] for i, k in enumerate(ls) if (ls[i - 1] if comp.closes or i else 0) <= k}


def eta(comp):
    """The least e >= 1 whose power omega^e holds every ordered relation and
    every maximal window of the component."""
    windows = [w.arrows for w in comp.ordered_relations + comp.maximal]
    e = 1
    while not all(occurrences(w, comp.omega.arrows * e) for w in windows):
        e += 1
    return e


def junction_relations(alg, comp):
    """The length-2 paths x.y of alg's quiver with x and y arrows of omega
    that are not consecutive along omega (read on around it when it
    closes), in the order of x along omega and of y in arrows_from."""
    q, w = alg.quiver, comp.omega.arrows
    along = set(zip(w, w[1:] + (w[:1] if comp.closes else ())))
    return tuple(Path((x, y.id), q.arrow(x).source, y.target) for x in w
                 for y in q.arrows_from(q.arrow(x).target) if y.id in w and (x, y.id) not in along)


def check_windows(alg, comps):
    """The window lengths of the components against enumeration: they count
    every nonzero path once, their maximal windows are the maximal paths
    (which equal maximal_by_extension, order included) and every component
    lists its own, each component is called monomial exactly when its
    induced presentation is, and where it is, that presentation is the
    paper's: no linear relation, and as zero relations the junction
    relations and the ordered relations."""
    assert sum(sum(c.lengths) for c in comps) == len(nonzero_paths(alg))
    assert set().union(*map(maximal_windows, comps)) == {p.arrows for p in maximal_paths(alg)}
    assert maximal_paths(alg) == maximal_by_extension(alg)
    for c in comps:
        sub = component_algebra(alg, c)
        assert (c.is_ump is not None) == sub.is_monomial, c.id
        assert {m.arrows for m in c.maximal} == maximal_windows(c), c.id
        if c.is_ump is not None:
            assert sub.ideal.linear == (), c.id
            assert set(sub.ideal.zero_paths) == set(junction_relations(alg, c) + c.ordered_relations), c.id


def saturations_by_definition(q):
    """The saturation of each arrow by its definition, walked arrow by
    arrow in q's order: forward while the head has one arrow in and one
    out, back while the tail does, and a standalone cycle, which the
    forward walk closes, rotated to its least label."""
    def unbranched(v):
        return len(q.arrows_into(v)) == 1 and len(q.arrows_from(v)) == 1

    out = {}
    for a in q.arrows:
        chain = [a]
        while unbranched(chain[-1].target) and (nxt := q.arrows_from(chain[-1].target)[0]) is not a:
            chain.append(nxt)
        if unbranched(chain[-1].target):  # the walk came back to a
            i = min(range(len(chain)), key=lambda k: chain[k].id)
            chain = chain[i:] + chain[:i]
        else:
            while unbranched(chain[0].source):
                chain.insert(0, q.arrows_into(chain[0].source)[0])
        out[a.id] = q.path(x.id for x in chain)
    return out


def component_orders_by_definition(alg):
    """The weak components of a special multiserial algebra's
    ramifications graph as (saturations, shape, closes), each walked on
    saturation-level successor and predecessor maps built from
    saturations_by_definition and the length-2 table: a line from its
    saturation with no predecessor, a cycle from the one holding its least
    arrow, sorted by their least saturation.  A component closes when its
    path is a cycle whose last arrow composes nonzero with its first."""
    om, after = saturations_by_definition(alg.quiver), alg._after
    nodes = sorted(set(om.values()), key=_colkey)
    succ, pred = {}, {}
    for w in nodes:
        for b in after[w.arrows[-1]]:
            if om[b] != w:
                assert succ.setdefault(w, om[b]) == om[b] and pred.setdefault(om[b], w) == w, w
    out, seen = [], set()
    for node in nodes:
        if node in seen:
            continue
        back = [node]
        while (prev := pred.get(back[-1])) is not None and prev != node:
            back.append(prev)
        # a line starts where the walk back stops; a cycle came back to node
        start = back[-1] if prev is None else min(back, key=lambda w: min(w.arrows))
        walk = [start]
        while (nxt := succ.get(walk[-1])) is not None and nxt != start:
            walk.append(nxt)
        seen.update(walk)
        shape = "single" if len(walk) == 1 else "cycle" if after[walk[-1].arrows[-1]] else "line"
        first, last = walk[0].arrows[0], walk[-1].arrows[-1]
        closes = walk[0].source == walk[-1].target and first in after[last]
        out.append((tuple(walk), shape, closes))
    return out


def check_component_orders(alg, comps):
    """The saturations, shape, closing and order of the components match
    their definition."""
    assert [(c.omegas, c.shape, c.closes) for c in comps] == component_orders_by_definition(alg)


def component_vertex_bijection(ba):
    """The paper's correspondence for a Brauer graph algebra: each
    component of the ramifications graph is a single saturation or a cycle
    whose path is the full turn around exactly one spinning vertex, read
    from some half, and each spinning vertex has exactly one component.
    Returns the (component id, vertex) pairs in component order."""
    g = ba.graph
    turns = {v: ba.cycles[(v, g.order(v)[0])].arrows for v in g.vertex_ids if not g.is_truncated(v)}
    pairs = []
    for comp in components(ba.algebra):
        assert comp.shape in ("single", "cycle"), comp.id
        w = comp.omega.arrows
        matches = [v for v, t in turns.items() if w in {t[i:] + t[:i] for i in range(len(t))}]
        assert len(matches) == 1, (comp.id, matches)
        pairs.append((comp.id, matches[0]))
    assert sorted(v for _, v in pairs) == sorted(turns)
    return tuple(pairs)


def component_of_path(alg, comps, p):
    """The component a path lives in, or None when it straddles two.

    Walks the path arrow by arrow: neighbours either sit adjacently inside
    one saturation or join the last arrow of one to the first of another,
    and such a junction in the ideal means the path straddles components."""
    if p.is_trivial:
        raise TrivialPath("trivial paths belong to no component")
    om = omega_map(alg.quiver)
    for x, y in zip(p.arrows, p.arrows[1:]):
        wx, wy = om[x], om[y]
        if wx == wy:
            i = wx.arrows.index(x)
            if i + 1 < len(wx.arrows) and wx.arrows[i + 1] == y:
                continue
        assert wx.arrows[-1] == x and wy.arrows[0] == y, f"{x}.{y} neither continues a saturation nor joins two"
        if y not in alg._after[x]:
            return None
    (comp,) = [c for c in comps if om[p.arrows[0]] in c.omegas]
    return comp


def divides_power(u, omega):
    """Whether u occurs in omega repeated often enough (just omega itself
    when it is not a cycle)."""
    reps = len(u) // len(omega) + 2 if omega.target == omega.source else 1
    return bool(occurrences(u.arrows, omega.arrows * reps))


def omega_relations(alg):
    """Zero relations of length above two all of whose proper subpaths
    survive.  Paths grow one arrow at a time from those outside the
    ideal, so a visited path in the ideal has a surviving prefix, and it
    is one of these when its suffix survives too."""
    q = alg.quiver
    out = []

    def in_ideal(p):
        if not path_in_ideal(alg, p):
            return False
        if len(p) > 2 and not path_in_ideal(alg, Path(p.arrows[1:], q.arrow(p.arrows[1]).source, p.target)):
            out.append(p)
        return True

    _grow(q, in_ideal, alg.bound)
    return tuple(sorted(out, key=_colkey))


def relation_level_verdict(alg, comps):
    """The paper's UMP criterion stated on relations: every omega relation
    sits on a closed component path and is the only zero relation of that
    component's induced presentation dividing a power of it.  An omega
    relation's junctions are proper subpaths, so it straddles nothing."""
    for r in omega_relations(alg):
        comp = component_of_path(alg, comps, r)
        w = comp.omega
        if w.target != w.source:
            return False
        if {z for z in component_algebra(alg, comp).ideal.zero_paths if divides_power(z, w)} != {r}:
            return False
    return True


def check_relation_level(alg, comps, is_ump):
    """Where the main theorem applies, every component ideal monomial, the
    relation-level statement gives the verdict is_ump; it is equivalent
    to the component test, so it checks that test from the relations."""
    if all(c.is_ump is not None for c in comps):
        assert relation_level_verdict(alg, comps) == is_ump
