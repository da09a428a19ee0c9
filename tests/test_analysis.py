"""Component decomposition on positions, induced ideals, and maximal classes."""

import pytest

import quiverump.analysis
from quiverump.analysis import (
    _lengths,
    components,
    global_maximal_classes,
    induced_algebra,
)
from quiverump.brauer import brauer_algebra, brauer_graph
from quiverump.errors import InvalidPresentation, NotSpecialMultiserial, QuiverError, TrivialPath, UnknownLabel
from quiverump.ideal import (
    AlgebraPresentation,
    IdealPresentation,
    _Engine,
    _colkey,
    algebra,
    is_special_multiserial,
    linear_relation,
    zero_relation,
)
import quiverump.omega
from quiverump.omega import RamificationsGraph, ramifications_graph
from quiverump.oracle import MaximalClass, maximal_classes, maximal_paths, ump_bruteforce
from quiverump.quiver import Path, Quiver, occurrences, quiver
from quiverump.ump import ROUTES, ump_report

from fixtures import (
    ALL_FIXTURES,
    chord_cycle_identified,
    chord_cycle_monomial,
    cycle_fork_tail,
    loop_meets_twocycle,
    loop_spur,
    petal_hub,
    two_loops_line,
)
from invariants import (
    check_component_orders,
    check_components_ask_nothing,
    check_induced,
    check_relation_level,
    check_windows,
    component_algebra,
    component_of_path,
    divides_power,
    eta,
    junction_relations,
    lone_open_arrow,
    omega_relations,
    saturation_algebras,
)
from test_brauer import ALL_GRAPHS


def _zero_strs(alg):
    return {str(r.path) for r in alg.ideal.zero}


def test_components_cycle_fork_tail():
    A = cycle_fork_tail()
    n1, n2 = components(A)

    assert n1.id == "N1" and n2.id == "N2"
    assert [str(w) for w in n1.omegas] == ["dabc", "e"]
    assert n1.shape == "line"
    assert str(n1.omega) == "dabce"
    assert not n1.closes
    assert _zero_strs(component_algebra(A, n1)) == {"cd", "abc"}
    assert component_algebra(A, n1).is_monomial
    assert component_algebra(A, n1).bound == 4
    assert [str(r) for r in junction_relations(A, n1)] == ["cd"]
    assert [str(r) for r in n1.ordered_relations] == ["abc"]
    assert n1.sigma == (2,)
    assert {str(m) for m in n1.maximal} == {"dab", "bce"}
    assert eta(n1) == 1
    assert n1.is_ump is False

    assert [str(w) for w in n2.omegas] == ["f", "gh"]
    assert n2.shape == "line"
    assert str(n2.omega) == "fgh"
    assert _zero_strs(component_algebra(A, n2)) == set()
    assert junction_relations(A, n2) == ()
    assert n2.ordered_relations == ()
    assert {str(m) for m in n2.maximal} == {"fgh"}
    assert n2.is_ump is True


def test_components_two_loops_line():
    A = two_loops_line()
    n1, n2, n3 = components(A)

    assert str(n1.omega) == "a" and n1.shape == "single"
    assert n1.closes
    assert _zero_strs(component_algebra(A, n1)) == {"aaa"}
    assert junction_relations(A, n1) == ()
    assert [str(r) for r in n1.ordered_relations] == ["aaa"]
    assert {str(m) for m in n1.maximal} == {"aa"}
    assert eta(n1) == 3
    assert n1.is_ump is True  # one relation on a closing component

    assert str(n2.omega) == "b" and n2.closes
    assert _zero_strs(component_algebra(A, n2)) == {"bbb"}
    assert {str(m) for m in n2.maximal} == {"bb"}
    assert n2.is_ump is True

    assert [str(w) for w in n3.omegas] == ["c", "de"]
    assert n3.shape == "line" and str(n3.omega) == "cde"
    assert not n3.closes
    assert _zero_strs(component_algebra(A, n3)) == {"ed"}
    assert [str(r) for r in junction_relations(A, n3)] == ["ed"]
    assert n3.ordered_relations == ()
    assert {str(m) for m in n3.maximal} == {"cde"}
    assert eta(n3) == 1
    assert n3.is_ump is True


def test_components_petal_hub():
    A = petal_hub()
    n1, n2 = components(A)

    assert [str(w) for w in n1.omegas] == ["ab", "cd"]
    assert n1.shape == "cycle"
    assert str(n1.omega) == "abcd"
    assert n1.closes
    assert _zero_strs(component_algebra(A, n1)) == {"ba", "dc", "abcda", "dabcd"}
    assert component_algebra(A, n1).bound == 7
    assert {str(r) for r in junction_relations(A, n1)} == {"ba", "dc"}
    assert [str(r) for r in n1.ordered_relations] == ["abcda", "dabcd"]
    assert n1.sigma == (4, 4)
    assert {str(m) for m in n1.maximal} == {"abcd", "bcdabc"}
    assert eta(n1) == 2
    assert n1.is_ump is False  # two long relations on a closing component

    assert n2.shape == "single" and str(n2.omega) == "ef"
    assert n2.closes
    assert _zero_strs(component_algebra(A, n2)) == {"efe", "fef"}
    assert component_algebra(A, n2).bound == 3
    assert junction_relations(A, n2) == ()
    assert [str(r) for r in n2.ordered_relations] == ["efe", "fef"]
    assert {str(m) for m in n2.maximal} == {"ef", "fe"}
    assert eta(n2) == 2
    assert n2.is_ump is False


def test_components_loop_meets_twocycle():
    A = loop_meets_twocycle()
    n1, n2 = components(A)

    assert str(n1.omega) == "a" and n1.closes
    assert _zero_strs(component_algebra(A, n1)) == {"aaa"}
    assert n1.is_ump is True
    assert {str(m) for m in n1.maximal} == {"aa"}

    assert str(n2.omega) == "bc" and n2.shape == "single"
    assert n2.closes
    assert _zero_strs(component_algebra(A, n2)) == {"bcb", "cbc"}
    assert [str(r) for r in n2.ordered_relations] == ["bcb", "cbc"]
    assert {str(m) for m in n2.maximal} == {"bc", "cb"}
    assert n2.is_ump is False


def test_components_reject_non_special():
    for build in (loop_spur, chord_cycle_monomial, chord_cycle_identified):
        with pytest.raises(NotSpecialMultiserial):
            components(build())


@pytest.mark.parametrize("name", sorted(n for n, build in ALL_FIXTURES.items() if build().is_monomial))
def test_monomial_components_ask_no_query(name):
    A = ALL_FIXTURES[name]()
    assert check_components_ask_nothing(A) == (components(A) if is_special_multiserial(A) else ())


def _monomial(arrows, *words):
    q = quiver(sorted({v for _, s, t in arrows for v in (s, t)}), arrows)
    return algebra(q, [zero_relation(q, w) for w in words])


_TWO_CYCLE = [("a", "1", "2"), ("b", "2", "1")]
_THREE_CYCLE = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")]
_LINE = [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")]

# monomial presentations at the edges of the zero-occurrence listing, with
# whether their one component closes and its window lengths
_LISTING_EDGES = {
    "bound_two": (lambda: _monomial(_TWO_CYCLE, "ab", "ba"), False, (1, 1)),
    "bound_two_with_no_relation": (
        lambda: AlgebraPresentation(quiver(["1", "2"], _TWO_CYCLE), IdealPresentation((), (), 2)), False, (1, 1)),
    "relation_across_the_seam": (lambda: _monomial(_THREE_CYCLE, "cab"), True, (4, 3, 2)),
    "relation_longer_than_omega": (lambda: _monomial(_TWO_CYCLE, "ababa"), True, (4, 5)),
    "loop_power": (lambda: _monomial([("x", "1", "1")], "xxxx"), True, (3,)),
    "loop_square_zero": (lambda: _monomial([("x", "1", "1")], "xx"), False, (1,)),
    "line_relation_ending_at_the_last_arrow": (lambda: _monomial(_LINE, "bcd"), False, (3, 2, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(_LISTING_EDGES))
def test_monomial_windows_at_the_edges_of_the_zero_listing(name):
    build, closes, lengths = _LISTING_EDGES[name]
    A = build()
    (comp,) = check_components_ask_nothing(A)
    assert (comp.closes, comp.lengths) == (closes, lengths)
    assert (comp,) == components(A)
    check_windows(A, (comp,))
    assert set(comp.maximal) == set(maximal_paths(A))
    if A.bound == 2:
        assert not any(A._after.values())
    if closes:  # its relation straddles the seam or outgrows omega
        (r,) = A.ideal.zero_paths
        assert not occurrences(r.arrows, comp.omega.arrows)


def _ordered_cases():
    """The structural cases and the monomial presentations at the edges of
    the zero listing, among them a standalone cycle whose seam is zero."""
    return _structural_cases() + [(name, build()) for name, (build, _, _) in sorted(_LISTING_EDGES.items())]


def test_components_follow_their_definition():
    shapes = set()
    for _, A in _ordered_cases():
        comps = components(A)
        check_component_orders(A, comps)
        shapes.update((c.shape, c.closes) for c in comps)
    assert shapes == {("single", False), ("single", True), ("line", False), ("cycle", True)}


def test_a_closed_component_looks_up_each_arrow_of_omega_once(monkeypatch):
    """A window starts before n and is at most bound long, so the arrows
    of a closed omega are looked up once each, never along its repeats."""
    looked = 0
    arrow, build = Quiver.arrow, quiverump.analysis._build_component
    built = []

    def counting(self, aid):
        nonlocal looked
        looked += 1
        return arrow(self, aid)

    def counted(alg, *args):
        nonlocal looked
        looked = 0
        comp = build(alg, *args)
        built.append((looked, len(comp.omega), alg.bound, comp.closes))
        return comp

    monkeypatch.setattr(Quiver, "arrow", counting)
    monkeypatch.setattr(quiverump.analysis, "_build_component", counted)
    for _, A in _ordered_cases():
        components(A)
    assert all(looked <= n + bound - 2 for looked, n, bound, closes in built if closes), built
    assert any(closes and bound > n + 1 for _, n, bound, closes in built)


def test_induced_ideal_restricts_monomial_generators():
    A = cycle_fork_tail()
    sub = induced_algebra(A, frozenset("abcd"))
    assert _zero_strs(sub) == {"cd", "abc"}
    assert sub.bound == 4
    assert set(sub.quiver.vertex_ids) == {"1", "2", "3", "4"}


def test_induced_ideal_projects_identifications():
    # restricting the petal to its four-cycle turns the identification with
    # the outside two-cycle into honest zero relations
    A = petal_hub()
    sub = induced_algebra(A, frozenset("abcd"))
    assert sub.is_monomial
    assert _zero_strs(sub) == {"ba", "dc", "abcda", "dabcd"}
    assert sub.bound == 7


def test_induced_ideal_keeps_loop_power():
    A = two_loops_line()
    sub = induced_algebra(A, frozenset("a"))
    assert _zero_strs(sub) == {"aaa"}
    assert sub.bound == 3



def test_induced_ideal_keeps_identification_inside_subquiver():
    # three tracks xy = uv = st; the block of xy also holds st, which lies
    # outside the subquiver, yet xy - uv survives the restriction
    q = quiver(
        ["1", "2", "3", "4", "5"],
        [("x", "1", "2"), ("y", "2", "3"), ("u", "1", "4"), ("v", "4", "3"),
         ("s", "1", "5"), ("t", "5", "3")],
    )
    lin = [linear_relation(q, [(1, "xy"), (-1, "uv")]),
           linear_relation(q, [(1, "uv"), (-1, "st")])]
    sub = induced_algebra(algebra(q, [], lin), frozenset("xyuv"))
    assert sub.ideal.zero == ()
    assert [str(r) for r in sub.ideal.linear] == ["uv - xy"]
    assert sub.bound == 3


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_induced_ideals_are_the_parent_ideal_on_the_subquiver(name):
    A = ALL_FIXTURES[name]()
    if is_special_multiserial(A):
        comps = components(A)
        check_windows(A, comps)
        check_relation_level(A, comps, ump_bruteforce(A).is_ump)
        induced = [component_algebra(A, c) for c in comps]
    else:
        # no components; restrict to each saturation and to the whole quiver
        induced = saturation_algebras(A)
    check_induced(A, induced)


class _Walked(Exception):
    pass


def test_induced_ideal_truncates_a_bound_below_the_zero_relations():
    # a hand-made presentation: no zero relation divides abc, only the bound
    q = quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")])
    A = AlgebraPresentation(q, IdealPresentation((), (), 3))
    sub = induced_algebra(A, frozenset("abc"))
    assert _zero_strs(sub) == {"abc"}
    assert sub.bound == 3
    check_induced(A, [sub])


def test_induced_algebra_rejects_what_is_no_algebra_or_arrow_set():
    q = quiver(["1", "2", "3"], [("x1", "1", "2"), ("x12", "2", "3")])
    A = algebra(q, [zero_relation(q, ["x1", "x12"])])
    for alg, arrows in ((None, frozenset()), ("ab", frozenset()), (A, "x12"), (A, None), (A, [["x12"]])):
        with pytest.raises(InvalidPresentation):
            induced_algebra(alg, arrows)
    for arrows in ({"zz"}, {"x12", "zz"}):
        with pytest.raises(UnknownLabel):
            induced_algebra(A, frozenset(arrows))
    sub = induced_algebra(A, frozenset({"x12"}))
    assert [a.id for a in sub.quiver.arrows] == ["x12"]
    assert induced_algebra(A, ["x12"]) == induced_algebra(A, iter(["x12"])) == sub


def test_component_of_path_routes_to_owner():
    A = cycle_fork_tail()
    comps = components(A)
    q = A.quiver
    assert component_of_path(A, comps, q.path("dab")).id == "N1"
    assert component_of_path(A, comps, q.path("ce")).id == "N1"
    assert component_of_path(A, comps, q.path("fgh")).id == "N2"
    assert component_of_path(A, comps, q.path("e")).id == "N1"


def test_component_of_path_rejects_straddlers():
    A = cycle_fork_tail()
    comps = components(A)
    q = A.quiver
    assert component_of_path(A, comps, q.path("cf")) is None
    assert component_of_path(A, comps, q.path("eg")) is None
    with pytest.raises(TrivialPath):
        component_of_path(A, comps, Path((), "1", "1"))


def test_divides_power():
    A = petal_hub()
    q = A.quiver
    omega = q.path("abcd")
    assert divides_power(q.path("abcda"), omega)
    assert divides_power(q.path("bcdabc"), omega)
    assert not divides_power(q.path("ef"), omega)
    # a straight component path admits only honest division
    B = cycle_fork_tail()
    w = B.quiver.path("dabce")
    assert divides_power(B.quiver.path("bce"), w)
    assert not divides_power(B.quiver.path("cd"), w)


@pytest.mark.parametrize(
    "build,expected",
    [
        (cycle_fork_tail, {"abc"}),
        (two_loops_line, {"aaa", "bbb"}),
        (petal_hub, {"abcda", "dabcd", "efe", "fef"}),
        (loop_meets_twocycle, {"aaa", "bcb", "cbc"}),
    ],
)
def test_omega_relations_frozen(build, expected):
    A = build()
    assert {str(r) for r in omega_relations(A)} == expected


@pytest.mark.parametrize(
    "build", [cycle_fork_tail, two_loops_line, petal_hub, loop_meets_twocycle]
)
def test_omega_relations_match_long_ordered_relations(build):
    # definition-level search agrees with the per-component classification
    A = build()
    from_components = {
        str(r)
        for comp in components(A)
        for r in comp.ordered_relations
        if len(r) > 2
    }
    assert {str(r) for r in omega_relations(A)} == from_components


def test_global_classes_cycle_fork_tail():
    A = cycle_fork_tail()
    classes = global_maximal_classes(A, components(A))
    as_sets = {frozenset(str(p) for p in c.paths): c.components for c in classes}
    assert as_sets == {
        frozenset({"dab"}): ("N1",),
        frozenset({"bce"}): ("N1",),
        frozenset({"fgh"}): ("N2",),
    }


def test_global_classes_merge_across_components():
    A = two_loops_line()
    classes = global_maximal_classes(A, components(A))
    as_sets = {frozenset(str(p) for p in c.paths): c.components for c in classes}
    assert as_sets == {
        frozenset({"aa", "bb"}): ("N1", "N2"),
        frozenset({"cde"}): ("N3",),
    }
    merged = next(c for c in classes if len(c.paths) == 2)
    assert str(merged.representative) == "aa"


@pytest.mark.parametrize(
    "build",
    [cycle_fork_tail, two_loops_line, petal_hub, loop_meets_twocycle],
)
def test_global_classes_agree_with_enumeration(build):
    A = build()
    structural = global_maximal_classes(A, components(A))
    brute = maximal_classes(A)
    assert {frozenset(c.paths) for c in structural} == {
        frozenset(c.paths) for c in brute
    }
    assert {c.representative for c in structural} == {
        c.representative for c in brute
    }


def test_global_classes_build_each_class_once(monkeypatch):
    built = []
    init = MaximalClass.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MaximalClass, "__init__", counted)
    total = 0
    for name, A in _structural_cases():
        comps = components(A)
        built.clear()
        classes = global_maximal_classes(A, comps)
        assert len(built) == len(classes), name
        total += len(classes)
    assert total > 0


def _structural_cases():
    """Fresh presentations of the special multiserial fixtures and of the
    Brauer graphs of test_brauer."""
    cases = [(name, build()) for name, build in sorted(ALL_FIXTURES.items())]
    cases += [(name, brauer_algebra(build()).algebra) for name, build in sorted(ALL_GRAPHS.items())]
    return [(name, A) for name, A in cases if is_special_multiserial(A)]


def _every_route(A):
    """The report of each route, or the error a route raises."""
    out = {}
    for route in ROUTES:
        try:
            out[route] = ump_report(A, route)
        except QuiverError as err:
            out[route] = repr(err)
    return out


def test_auto_builds_no_induced_presentation(monkeypatch):
    expected = {name: _every_route(A) for name, A in _structural_cases()}

    def refuse(*args, **kwargs):
        raise _Walked("a route built an induced presentation")

    monkeypatch.setattr(quiverump.analysis, "induced_algebra", refuse)
    for name, A in _structural_cases():
        assert _every_route(A) == expected[name], name
    with pytest.raises(_Walked):
        quiverump.analysis.induced_algebra(petal_hub(), frozenset("abcd"))


def _components_and_auto(A):
    try:
        comps = components(A)
    except NotSpecialMultiserial as err:
        comps = repr(err)
    return comps, ump_report(A, "auto")


def test_deciding_builds_no_ramifications_graph(monkeypatch):
    """components and the auto route read the components off the length-2
    table: with the graph and its walk made to raise, every fixture and
    Brauer graph gets the same components and report."""
    cases = {name: build for name, build in ALL_FIXTURES.items()}
    cases.update({name: (lambda b=build: brauer_algebra(b()).algebra) for name, build in ALL_GRAPHS.items()})
    expected = {name: _components_and_auto(build()) for name, build in cases.items()}

    def refuse(*args, **kwargs):
        raise _Walked("the decision route built the ramifications graph")

    monkeypatch.setattr(quiverump.omega, "ramifications_graph", refuse)
    monkeypatch.setattr(RamificationsGraph, "weak_components", refuse)
    for name, build in cases.items():
        assert _components_and_auto(build()) == expected[name], name
    with pytest.raises(_Walked):
        RamificationsGraph((), ()).weak_components()


def test_relation_level_statement_gives_every_structural_verdict():
    for name, A in _structural_cases():
        check_relation_level(A, components(A), ump_bruteforce(A).is_ump)


def test_the_sweep_asks_at_most_two_queries_per_position_plus_the_bound(monkeypatch):
    """A monomial component is read off its zero relations with no query."""
    asked = []  # per sweep: [queries, positions, bound, monomial]
    sweeping = False
    in_ideal = _Engine.in_ideal

    def counting(self, p):
        if sweeping:
            asked[-1][0] += 1
        return in_ideal(self, p)

    def sweep(alg, word, window, n, closes):
        nonlocal sweeping
        asked.append([0, n, alg.bound, alg.is_monomial])
        sweeping = True
        try:
            return _lengths(alg, word, window, n, closes)
        finally:
            sweeping = False

    monkeypatch.setattr(_Engine, "in_ideal", counting)
    monkeypatch.setattr(quiverump.analysis, "_lengths", sweep)
    built = sum(len(components(A)) for _, A in _structural_cases())
    assert len(asked) == built
    assert all(queries <= 2 * n + bound for queries, n, bound, _ in asked), asked
    assert all(queries == 0 for queries, _, _, monomial in asked if monomial), asked
    assert any(queries > 0 for queries, _, _, _ in asked)
    assert any(monomial for *_, monomial in asked)


def _asked_pairs(A):
    """The composable pairs the entry tests ask the engine: the length-2
    linear terms that are no length-2 zero relation, when the bound is
    above 2.  Every relation word has length >= 2, so a pair holds no other."""
    if A.bound == 2:
        return set()
    zero = {p for p in A.ideal.zero_paths if len(p) == 2}
    return {t for rel in A.ideal.linear for t in rel.paths if len(t) == 2 and t not in zero}


def test_the_entry_tests_ask_each_composable_pair_once(monkeypatch):
    """The special multiserial test, the ramifications graph and the
    components read one table of the nonzero length-2 compositions, so
    outside the sweep they ask the engine about a composable pair at most
    once: exactly the pairs that are a length-2 term and no zero relation,
    with the bound above 2, and no other.  A right pass that fails asks no
    pair of an arrow after its witness arrow, nor of the witness arrow after
    its second nonzero successor, and builds no table, not even when the
    auto route goes on to refute or enumerate."""
    asked = []
    sweeping = False
    in_ideal = _Engine.in_ideal

    def counting(self, p):
        if not sweeping:
            asked.append(p)
        return in_ideal(self, p)

    def sweep(*args):
        nonlocal sweeping
        sweeping = True
        try:
            return _lengths(*args)
        finally:
            sweeping = False

    tree = brauer_graph([("u", 2), ("v", 3), ("w", 1), ("x", 2)],
                        [("e1", "u", "v"), ("e2", "v", "w"), ("e3", "v", "x")])
    cases = _structural_cases() + [("brauer_tree", brauer_algebra(tree).algebra)]
    monkeypatch.setattr(_Engine, "in_ideal", counting)
    monkeypatch.setattr(quiverump.analysis, "_lengths", sweep)
    for name, built in cases:
        A = AlgebraPresentation(built.quiver, built.ideal)  # no engine, no table yet
        asked.clear()
        assert is_special_multiserial(A)
        ramifications_graph(A)
        components(A)
        assert sorted(asked, key=_colkey) == sorted(_asked_pairs(A), key=_colkey), name
    assert any(A.is_monomial for _, A in cases) and not all(A.is_monomial for _, A in cases)
    # some pairs are asked, and some pairs of a presentation with terms are not
    assert any(_asked_pairs(A) for _, A in cases)
    assert any(len(_asked_pairs(A)) < sum(len(A.quiver.arrows_from(a.target)) for a in A.quiver.arrows)
               for _, A in cases if not A.is_monomial)

    def third_successor_term():
        # a has nonzero successors b and c, then d, whose ad is a relation term
        q = quiver([str(v) for v in range(7)], [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4"),
                                                ("d", "2", "5"), ("e", "1", "6"), ("f", "6", "5")])
        return algebra(q, [], [linear_relation(q, [(1, "ad"), (-1, "ef")])])

    refuted = []
    for build in (loop_spur, chord_cycle_monomial, chord_cycle_identified, third_successor_term):
        A = build()
        A = AlgebraPresentation(A.quiver, A.ideal)
        asked.clear()
        res = is_special_multiserial(A)
        assert res.witness.side == "right", build.__name__
        w = res.witness
        order = [a.id for a in A.quiver.arrows]
        after = [b.id for b in A.quiver.arrows_from(A.quiver.arrow(w.arrow).target)]
        assert len(set(asked)) == len(asked) and set(asked) <= _asked_pairs(A), build.__name__
        assert all(order.index(p.arrows[0]) < order.index(w.arrow)
                   or p.arrows[0] == w.arrow and after.index(p.arrows[1]) <= after.index(w.pair[1])
                   for p in asked), build.__name__
        assert "_after" not in vars(A), build.__name__
        refuted.append(asked[:])
        B = AlgebraPresentation(A.quiver, A.ideal)
        ump_report(B, "auto")
        assert "_after" not in vars(B), build.__name__
    assert any(refuted)


def test_lone_open_arrows_match_enumeration():
    """A component of one arrow that does not close is built with no word
    and no query; its fields match enumeration in monomial and identified
    presentations alike, a loop whose square is zero included."""
    loop = _LISTING_EDGES["loop_square_zero"][0]()
    # two identified paths of length 2 and a third arrow parallel to both
    q = quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4"),
                                      ("x", "1", "4")])
    chord = algebra(q, [], [linear_relation(q, [(1, "ab"), (-1, "cd")])])
    lone = {True: [], False: []}
    for name, A in _structural_cases() + [("loop_square_zero", loop), ("identified_chord", chord)]:
        comps = components(A)
        check_windows(A, comps)
        check_component_orders(A, comps)
        lone[A.is_monomial] += [c for c in comps if lone_open_arrow(c)]
    assert lone[True] and lone[False]
    (comp,) = components(loop)
    assert lone_open_arrow(comp) and comp.omega.source == comp.omega.target
