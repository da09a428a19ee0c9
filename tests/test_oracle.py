import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverump.ideal
import quiverump.oracle
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
from invariants import check_global_basis, check_maximal, count_window_scans, cut_at, pairwise_shared_arrow
from quiverump.errors import InvariantViolation
from quiverump.oracle import (
    MaximalClass,
    classes_of,
    dimension_bruteforce,
    maximal_classes,
    maximal_paths,
    nonzero_paths,
    shared_arrow,
    ump_bruteforce,
)
from quiverump.quiver import Path
from quiverump.ump import ump_report


def _classes_as_sets(alg):
    return {frozenset(str(p) for p in c.paths) for c in maximal_classes(alg)}


def test_maximal_paths_cycle_fork_tail():
    A = cycle_fork_tail()
    assert {str(p) for p in maximal_paths(A)} == {"dab", "bce", "fgh"}
    assert _classes_as_sets(A) == {frozenset({"dab"}), frozenset({"bce"}), frozenset({"fgh"})}


def test_maximal_classes_two_loops_line():
    A = two_loops_line()
    assert _classes_as_sets(A) == {frozenset({"aa", "bb"}), frozenset({"cde"})}


def test_maximal_classes_petal_hub():
    A = petal_hub()
    assert _classes_as_sets(A) == {
        frozenset({"abcd", "ef"}),
        frozenset({"bcdabc"}),
        frozenset({"fe"}),
    }


def test_maximal_classes_loop_spur():
    assert _classes_as_sets(loop_spur()) == {frozenset({"aad"}), frozenset({"cbc"})}


def test_maximal_classes_chord_cycle():
    mono = chord_cycle_monomial()
    assert _classes_as_sets(mono) == {
        frozenset({"ep.al.bt.dl"}),
        frozenset({"ep.gm"}),
    }
    ident = chord_cycle_identified()
    assert _classes_as_sets(ident) == {frozenset({"ep.al.bt.dl", "ep.gm.dl"})}


def test_maximal_classes_loop_meets_twocycle():
    assert _classes_as_sets(loop_meets_twocycle()) == {
        frozenset({"aa", "bc"}),
        frozenset({"cb"}),
    }


def test_ump_verdicts():
    assert not ump_bruteforce(cycle_fork_tail()).is_ump
    assert ump_bruteforce(two_loops_line()).is_ump
    assert not ump_bruteforce(petal_hub()).is_ump
    assert ump_bruteforce(loop_spur()).is_ump
    assert not ump_bruteforce(chord_cycle_monomial()).is_ump
    assert ump_bruteforce(chord_cycle_identified()).is_ump
    assert not ump_bruteforce(loop_meets_twocycle()).is_ump


def test_ump_witnesses_share_an_arrow():
    res = ump_bruteforce(cycle_fork_tail())
    p1, p2, arrow = res.witness
    assert arrow in p1.arrows and arrow in p2.arrows
    assert {str(p1), str(p2)} == {"dab", "bce"} and arrow == "b"

    res = ump_bruteforce(loop_meets_twocycle())
    p1, p2, arrow = res.witness
    assert {str(p1), str(p2)} == {"bc", "cb"}
    assert arrow in p1.arrows and arrow in p2.arrows

    res = ump_bruteforce(chord_cycle_monomial())
    _, _, arrow = res.witness
    assert arrow == "ep"


def test_dimensions():
    assert dimension_bruteforce(cycle_fork_tail()) == 24
    assert dimension_bruteforce(two_loops_line()) == 12
    assert dimension_bruteforce(petal_hub()) == 26
    assert dimension_bruteforce(loop_spur()) == 13
    assert dimension_bruteforce(chord_cycle_monomial()) == 16
    assert dimension_bruteforce(chord_cycle_identified()) == 16
    assert dimension_bruteforce(loop_meets_twocycle()) == 7
    alg = loop_meets_twocycle()
    assert dimension_bruteforce(alg) - len(alg.quiver.vertices) == 5


def test_nonzero_path_counts():
    assert len(nonzero_paths(cycle_fork_tail())) == 17
    assert len(nonzero_paths(two_loops_line())) == 10
    assert len(nonzero_paths(petal_hub())) == 23
    assert len(nonzero_paths(loop_spur())) == 10


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_longest_nonzero_is_one_below_bound(name):
    alg = ALL_FIXTURES[name]()
    longest = max(len(p) for p in nonzero_paths(alg))
    assert longest == alg.bound - 1


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_membership_and_cosets_match_the_global_basis(name):
    check_global_basis(ALL_FIXTURES[name]())


def test_classes_of_rejects_a_part_of_a_coset():
    alg = two_loops_line()
    aa = alg.quiver.path("aa")  # its coset is {aa, bb}
    with pytest.raises(InvariantViolation):
        classes_of(alg, {aa: ()})


@pytest.mark.parametrize("name", ["cycle_fork_tail", "petal_hub"])
def test_classes_of_scans_each_class_once(name, monkeypatch):
    # one coset query per class, asked of its first path: that path's
    # windows are scanned once, or not at all when the listing cached its block
    alg = ALL_FIXTURES[name]()
    maximal = dict.fromkeys(maximal_paths(alg), ())
    cached = set(alg._engine._blocks)
    scans = count_window_scans(monkeypatch, alg._engine)
    classes = classes_of(alg, maximal)
    firsts = [next(p for p in maximal if p in c.paths) for c in classes]
    scanned = sorted(p.arrows for p in firsts if p not in cached)
    assert sorted(scans["zero"]) == scanned
    assert sorted(scans["copies"]) == (scanned if alg.ideal.linear else [])
    assert scans["ends"] == []
    assert any(p in cached for p in firsts) == bool(alg.ideal.linear)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_oracle_route_is_the_bruteforce_report(name):
    alg = ALL_FIXTURES[name]()
    assert ump_report(alg, "oracle") == ump_bruteforce(alg)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_maximal_paths_ask_no_query_beyond_the_listing(name, monkeypatch):
    listed, read = ALL_FIXTURES[name](), ALL_FIXTURES[name]()
    queries = []
    in_ideal = quiverump.ideal._Engine.in_ideal

    def counted(self, p):
        queries.append(p)
        return in_ideal(self, p)

    monkeypatch.setattr(quiverump.ideal._Engine, "in_ideal", counted)
    nonzero_paths(listed)
    walk = len(queries)
    queries.clear()
    maximal_paths(read)
    assert len(queries) == walk


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_bruteforce_asks_no_extension(name, monkeypatch):
    expected = ump_bruteforce(ALL_FIXTURES[name]())

    def refuse(alg, p):
        raise AssertionError("extensions_die called")

    monkeypatch.setattr(quiverump.oracle, "extensions_die", refuse)
    assert ump_bruteforce(ALL_FIXTURES[name]()) == expected


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_maximal_paths_are_those_whose_extensions_die(name):
    check_maximal(ALL_FIXTURES[name]())


def test_a_bound_below_the_relations_makes_the_longest_paths_maximal():
    # cycle_fork_tail has bound 4; a bound of 3 cuts below its zero
    # relation abc, every arrow extends to a nonzero path of length 2, and
    # those six are maximal by length
    cut = cut_at(cycle_fork_tail(), 3)
    assert {str(p) for p in maximal_paths(cut)} == {"ab", "bc", "ce", "da", "fg", "gh"}


def _classes(*words):
    """Classes of made-up paths, one class per space-separated word list."""
    out = []
    for ws in words:
        paths = frozenset(Path(tuple(w), "0", "0") for w in ws.split())
        out.append(MaximalClass(min(paths, key=lambda p: p.arrows), paths, ()))
    return out


def test_shared_arrow_takes_the_first_pair_of_classes_in_order():
    # classes 1 and 2 meet before class 3 meets class 0, yet (0, 3) comes first
    classes = _classes("a", "b", "bc", "da")
    assert shared_arrow(classes) == (Path(("a",), "0", "0"), Path(("d", "a"), "0", "0"), "a")
    # within the first pair, the paths by _colkey and the least shared arrow
    classes = _classes("xy zc", "e", "cz yx")
    assert shared_arrow(classes) == (Path(("x", "y"), "0", "0"), Path(("y", "x"), "0", "0"), "x")
    assert shared_arrow(_classes("ab", "cd", "e")) is None
    assert shared_arrow([]) is None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text("abcdef", min_size=1, max_size=4), min_size=1, max_size=3), max_size=6))
def test_shared_arrow_matches_its_definition(words):
    seen: set[str] = set()
    classes = []
    for ws in words:  # distinct classes hold distinct paths
        ws = [w for w in ws if w not in seen]
        seen.update(ws)
        if ws:
            classes.extend(_classes(" ".join(ws)))
    assert shared_arrow(classes) == pairwise_shared_arrow(classes)
