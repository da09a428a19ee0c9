"""Component decomposition on positions, induced ideals, and maximal classes."""

import pytest

import quiverump.analysis
from quiverump.analysis import (
    _lengths,
    component_of_path,
    components,
    divides_power,
    global_maximal_classes,
    induced_algebra,
    omega_relations,
)
from quiverump.brauer import brauer_algebra
from quiverump.errors import CrossComponentPath, NotSpecialMultiserial, TrivialPath
from quiverump.ideal import (
    AlgebraPresentation,
    IdealPresentation,
    _Engine,
    algebra,
    is_special_multiserial,
    linear_relation,
)
from quiverump.omega import omega_map
from quiverump.oracle import maximal_classes
from quiverump.quiver import quiver
from quiverump.ump import ump_report

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
from invariants import check_induced, check_windows
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
    assert _zero_strs(n1.algebra) == {"cd", "abc"}
    assert n1.algebra.is_monomial
    assert n1.algebra.bound == 4
    assert [str(r) for r in n1.junction_relations] == ["cd"]
    assert [str(r) for r in n1.ordered_relations] == ["abc"]
    assert n1.sigma == (2,)
    assert {str(m) for m in n1.maximal} == {"dab", "bce"}
    assert n1.eta == 1
    assert n1.is_ump is False

    assert [str(w) for w in n2.omegas] == ["f", "gh"]
    assert n2.shape == "line"
    assert str(n2.omega) == "fgh"
    assert _zero_strs(n2.algebra) == set()
    assert n2.junction_relations == ()
    assert n2.ordered_relations == ()
    assert {str(m) for m in n2.maximal} == {"fgh"}
    assert n2.is_ump is True


def test_components_two_loops_line():
    A = two_loops_line()
    n1, n2, n3 = components(A)

    assert str(n1.omega) == "a" and n1.shape == "single"
    assert n1.closes
    assert _zero_strs(n1.algebra) == {"aaa"}
    assert n1.junction_relations == ()
    assert [str(r) for r in n1.ordered_relations] == ["aaa"]
    assert {str(m) for m in n1.maximal} == {"aa"}
    assert n1.eta == 3
    assert n1.is_ump is True  # one relation on a closing component

    assert str(n2.omega) == "b" and n2.closes
    assert _zero_strs(n2.algebra) == {"bbb"}
    assert {str(m) for m in n2.maximal} == {"bb"}
    assert n2.is_ump is True

    assert [str(w) for w in n3.omegas] == ["c", "de"]
    assert n3.shape == "line" and str(n3.omega) == "cde"
    assert not n3.closes
    assert _zero_strs(n3.algebra) == {"ed"}
    assert [str(r) for r in n3.junction_relations] == ["ed"]
    assert n3.ordered_relations == ()
    assert {str(m) for m in n3.maximal} == {"cde"}
    assert n3.eta == 1
    assert n3.is_ump is True


def test_components_petal_hub():
    A = petal_hub()
    n1, n2 = components(A)

    assert [str(w) for w in n1.omegas] == ["ab", "cd"]
    assert n1.shape == "cycle"
    assert str(n1.omega) == "abcd"
    assert n1.closes
    assert _zero_strs(n1.algebra) == {"ba", "dc", "abcda", "dabcd"}
    assert n1.algebra.bound == 7
    assert {str(r) for r in n1.junction_relations} == {"ba", "dc"}
    assert [str(r) for r in n1.ordered_relations] == ["abcda", "dabcd"]
    assert n1.sigma == (4, 4)
    assert {str(m) for m in n1.maximal} == {"abcd", "bcdabc"}
    assert n1.eta == 2
    assert n1.is_ump is False  # two long relations on a closing component

    assert n2.shape == "single" and str(n2.omega) == "ef"
    assert n2.closes
    assert _zero_strs(n2.algebra) == {"efe", "fef"}
    assert n2.algebra.bound == 3
    assert n2.junction_relations == ()
    assert [str(r) for r in n2.ordered_relations] == ["efe", "fef"]
    assert {str(m) for m in n2.maximal} == {"ef", "fe"}
    assert n2.eta == 2
    assert n2.is_ump is False


def test_components_loop_meets_twocycle():
    A = loop_meets_twocycle()
    n1, n2 = components(A)

    assert str(n1.omega) == "a" and n1.closes
    assert _zero_strs(n1.algebra) == {"aaa"}
    assert n1.is_ump is True
    assert {str(m) for m in n1.maximal} == {"aa"}

    assert str(n2.omega) == "bc" and n2.shape == "single"
    assert n2.closes
    assert _zero_strs(n2.algebra) == {"bcb", "cbc"}
    assert [str(r) for r in n2.ordered_relations] == ["bcb", "cbc"]
    assert {str(m) for m in n2.maximal} == {"bc", "cb"}
    assert n2.is_ump is False


def test_components_reject_non_special():
    for build in (loop_spur, chord_cycle_monomial, chord_cycle_identified):
        with pytest.raises(NotSpecialMultiserial):
            components(build())


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
        induced = [c.algebra for c in comps]
    else:
        # no components; restrict to each saturation and to the whole quiver
        arrow_sets = {frozenset(w.arrows) for w in omega_map(A.quiver).values()}
        arrow_sets.add(frozenset(A.quiver.arrow_ids))
        induced = [induced_algebra(A, s) for s in arrow_sets]
    check_induced(A, induced)


class _Walked(Exception):
    pass


def _no_walk(*args, **kwargs):
    raise _Walked("a monomial parent's induced ideal walked its paths")


def _restrictions(A):
    if is_special_multiserial(A):
        # the induced presentation is lazy: force it, so the walk is tried
        return [(c, c.algebra) for c in components(A)]
    arrow_sets = sorted({frozenset(w.arrows) for w in omega_map(A.quiver).values()}, key=sorted)
    return [induced_algebra(A, s) for s in arrow_sets + [frozenset(A.quiver.arrow_ids)]]


def test_monomial_parents_induce_without_a_walk(monkeypatch):
    monomial = [name for name, build in sorted(ALL_FIXTURES.items()) if build().is_monomial]
    expected = {name: _restrictions(ALL_FIXTURES[name]()) for name in monomial}
    monkeypatch.setattr(quiverump.analysis, "_grow", _no_walk)
    assert any(is_special_multiserial(ALL_FIXTURES[name]()) for name in monomial)
    for name in monomial:
        assert _restrictions(ALL_FIXTURES[name]()) == expected[name], name


def test_induced_ideal_truncates_a_bound_below_the_zero_relations():
    # a hand-made presentation: no zero relation divides abc, only the bound
    q = quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")])
    A = AlgebraPresentation(q, IdealPresentation((), (), 3))
    sub = induced_algebra(A, frozenset("abc"))
    assert _zero_strs(sub) == {"abc"}
    assert sub.bound == 3
    check_induced(A, [sub])


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
    with pytest.raises(CrossComponentPath):
        component_of_path(A, comps, q.path("cf"))
    with pytest.raises(CrossComponentPath):
        component_of_path(A, comps, q.path("eg"))
    with pytest.raises(TrivialPath):
        component_of_path(A, comps, q.trivial("1"))


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


def _structural_cases():
    """Fresh presentations of the special multiserial fixtures and of the
    Brauer graphs of test_brauer."""
    cases = [(name, build()) for name, build in sorted(ALL_FIXTURES.items())]
    cases += [(name, brauer_algebra(build()).algebra) for name, build in sorted(ALL_GRAPHS.items())]
    return [(name, A) for name, A in cases if is_special_multiserial(A)]


def test_auto_builds_no_induced_presentation(monkeypatch):
    expected = {name: ump_report(A, "auto") for name, A in _structural_cases()}

    def refuse(*args, **kwargs):
        raise _Walked("the structural route built an induced presentation")

    monkeypatch.setattr(quiverump.analysis, "induced_algebra", refuse)
    for name, A in _structural_cases():
        assert ump_report(A, "auto") == expected[name], name
    with pytest.raises(_Walked):
        components(petal_hub())[0].algebra


def test_the_sweep_asks_at_most_two_queries_per_position_plus_the_bound(monkeypatch):
    asked = []  # per sweep: [queries, positions, bound]
    sweeping = False
    in_ideal = _Engine.in_ideal

    def counting(self, p):
        if sweeping:
            asked[-1][0] += 1
        return in_ideal(self, p)

    def sweep(alg, window, n, closes):
        nonlocal sweeping
        asked.append([0, n, alg.bound])
        sweeping = True
        try:
            return _lengths(alg, window, n, closes)
        finally:
            sweeping = False

    monkeypatch.setattr(_Engine, "in_ideal", counting)
    monkeypatch.setattr(quiverump.analysis, "_lengths", sweep)
    built = sum(len(components(A)) for _, A in _structural_cases())
    assert len(asked) == built
    assert all(queries <= 2 * n + bound for queries, n, bound in asked), asked
    assert any(queries > 0 for queries, _, _ in asked)
