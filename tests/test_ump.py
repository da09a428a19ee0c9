"""Unique maximal path decisions across every route."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverump

from quiverump.errors import CrossCheckMismatch, NotApplicable
from quiverump.ideal import algebra, linear_relation, zero_relation
from quiverump.oracle import ump_bruteforce
from quiverump.quiver import quiver
from quiverump.ump import quick_non_ump, ump_report

from fixtures import (
    ALL_FIXTURES,
    chord_cycle_identified,
    chord_cycle_monomial,
    cycle_fork_tail,
    loop_meets_twocycle,
    loop_spur,
    parallel_tracks,
    petal_hub,
    two_loops_line,
)

VERDICTS = {
    "cycle_fork_tail": False,
    "two_loops_line": True,
    "petal_hub": False,
    "loop_spur": True,
    "chord_cycle_monomial": False,
    "chord_cycle_identified": True,
    "parallel_tracks": True,
    "loop_meets_twocycle": False,
}


def test_auto_route_monomial_corollary():
    rep = ump_report(cycle_fork_tail())
    assert rep.route == "monomial-corollary"
    assert rep.is_ump is False
    assert rep.per_component == (("N1", False), ("N2", True))
    p1, p2, arrow = rep.witness
    assert {str(p1), str(p2)} == {"dab", "bce"} and arrow == "b"
    assert len(rep.classes) == 3


def test_auto_route_main_theorem_positive():
    rep = ump_report(two_loops_line())
    assert rep.route == "main-theorem"
    assert rep.is_ump is True
    assert rep.witness is None
    assert rep.per_component == (("N1", True), ("N2", True), ("N3", True))
    assert {frozenset(str(p) for p in c.paths) for c in rep.classes} == {
        frozenset({"aa", "bb"}), frozenset({"cde"}),
    }


def test_auto_route_main_theorem_negative():
    rep = ump_report(petal_hub())
    assert rep.route == "main-theorem"
    assert rep.is_ump is False
    assert rep.per_component == (("N1", False), ("N2", False))
    p1, p2, arrow = rep.witness
    assert {str(p1), str(p2)} == {"fe", "ef"} and arrow == "e"


def test_auto_route_loop_meets_twocycle():
    rep = ump_report(loop_meets_twocycle())
    assert rep.route == "main-theorem"
    assert rep.is_ump is False
    assert rep.per_component == (("N1", True), ("N2", False))
    p1, p2, arrow = rep.witness
    assert {str(p1), str(p2)} == {"bc", "cb"} and arrow == "b"


def test_auto_route_falls_back_to_oracle():
    rep = ump_report(loop_spur())
    assert rep.route == "oracle"
    assert rep.is_ump is True
    assert rep.per_component == ()
    assert any("not special multiserial" in n for n in rep.notes)

    rep = ump_report(chord_cycle_monomial())
    assert rep.route == "oracle"
    assert rep.is_ump is False
    assert rep.witness[2] == "ep"

    rep = ump_report(chord_cycle_identified())
    assert rep.route == "oracle"
    assert rep.is_ump is True


@pytest.mark.parametrize("name,build", sorted(ALL_FIXTURES.items()))
def test_forced_oracle_route_agrees(name, build):
    rep = ump_report(build(), route="oracle")
    assert rep.route == "oracle"
    assert rep.is_ump is VERDICTS[name]
    assert rep.per_component == ()


@pytest.mark.parametrize("name,build", sorted(ALL_FIXTURES.items()))
def test_cross_check_route(name, build):
    rep = ump_report(build(), route="cross-check")
    assert rep.is_ump is VERDICTS[name]
    assert "verdict confirmed by enumeration" in rep.notes
    structural = rep.route != "oracle"
    assert ("verdict confirmed by the relation-level statement" in rep.notes) == structural


def test_forced_main_route_on_structural_cases():
    for build in (cycle_fork_tail, two_loops_line, petal_hub, loop_meets_twocycle):
        auto = ump_report(build())
        forced = ump_report(build(), route="main")
        assert forced.route == "main-theorem"
        assert forced.is_ump == auto.is_ump
        assert forced.witness == auto.witness
        assert forced.per_component == auto.per_component
        assert forced.classes == auto.classes


def test_forced_main_route_rejects_unstructured_input():
    with pytest.raises(NotApplicable):
        ump_report(loop_spur(), route="main")
    with pytest.raises(NotApplicable):
        ump_report(chord_cycle_identified(), route="main")


def test_unknown_route_rejected():
    with pytest.raises(ValueError):
        ump_report(cycle_fork_tail(), route="guess")


@pytest.mark.parametrize("liar", ["oracle", "relation-level"])
def test_cross_check_mismatch_raises(monkeypatch, liar):
    import quiverump.ump as ump_mod
    from quiverump.oracle import OracleUmp

    wrong = not VERDICTS["two_loops_line"]
    if liar == "oracle":
        monkeypatch.setattr(ump_mod, "ump_bruteforce", lambda alg: OracleUmp(wrong, None, ()))
    else:
        monkeypatch.setattr(ump_mod, "_relation_level_verdict", lambda alg, comps: wrong)
    with pytest.raises(CrossCheckMismatch):
        ump_report(two_loops_line(), route="cross-check")


def test_quick_refutation_finds_witness():
    w = quick_non_ump(loop_meets_twocycle())
    assert w is not None
    p1, p2, arrow = w
    assert {str(p1), str(p2)} == {"bc", "cb"}
    assert arrow in p1.arrows and arrow in p2.arrows


def test_quick_refutation_stays_silent():
    # identified squares collapse into one class: nothing to refute with
    assert quick_non_ump(two_loops_line()) is None
    # both tracks land in the same class as well
    assert quick_non_ump(parallel_tracks()) is None
    assert quick_non_ump(chord_cycle_identified()) is None
    # no identifications at all, so no seeds
    assert quick_non_ump(loop_spur()) is None


def test_parallel_tracks_merge_into_one_class():
    # each track is its own component with a monomial induced ideal, and the
    # identification merges their maximal paths into one class
    rep = ump_report(parallel_tracks())
    assert rep.route == "main-theorem"
    assert rep.is_ump is True
    assert len(rep.classes) == 1
    only = rep.classes[0]
    assert {str(p) for p in only.paths} == {"xy", "uv"}
    assert only.components == ("N1", "N2")


def test_reports_are_deterministic():
    a = ump_report(petal_hub())
    b = ump_report(petal_hub())
    assert a == b


def _branching_squares():
    """a,c: 1->2 and b,d: 2->3 with ad = cb = 0 and ab = cd."""
    q = quiver(["1", "2", "3"],
               [("a", "1", "2"), ("c", "1", "2"), ("b", "2", "3"), ("d", "2", "3")])
    zero = [zero_relation(q, w) for w in ("ad", "cb")]
    return algebra(q, zero, [linear_relation(q, [(1, "ab"), (-1, "cd")])])


def _loop_with_dead_identification():
    """a,b: 2->0 and a loop c at 0 with ac = bc = c^4 = 0 and cc + ccc = 0.

    Every path of length two is already in the ideal, yet minimisation
    keeps the linear relation."""
    q = quiver(["0", "2"], [("a", "2", "0"), ("b", "2", "0"), ("c", "0", "0")])
    zero = [zero_relation(q, w) for w in ("ac", "bc", "cccc")]
    return algebra(q, zero, [linear_relation(q, [(1, "cc"), (1, "ccc")])])


def _two_arrow_pairs():
    """a,c: 1->2 and b,d: 2->1 with ad = cb = ba = da = dc = 0 and ab = cd.

    Special multiserial with one line component abcd, whose induced ideal
    holds ab - cd but neither ab nor cd: it is not monomial."""
    q = quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2"), ("d", "2", "1")])
    zero = [zero_relation(q, w) for w in ("ad", "cb", "ba", "da", "dc")]
    return algebra(q, zero, [linear_relation(q, [(1, "ab"), (-1, "cd")])])


def test_auto_enumerates_when_a_component_ideal_is_not_monomial():
    alg = _two_arrow_pairs()
    rep = ump_report(alg, "auto")
    assert rep.route == "oracle"
    assert rep.notes == ("component ideals are not all monomial; enumerated",)
    assert rep.is_ump is False
    assert rep.is_ump == ump_bruteforce(alg).is_ump
    with pytest.raises(NotApplicable):
        ump_report(alg, route="main")


@pytest.mark.parametrize("build", [_branching_squares, _loop_with_dead_identification])
def test_auto_agrees_with_enumeration_on_identified_terms(build):
    alg = build()
    assert ump_report(alg, "auto").is_ump == ump_bruteforce(alg).is_ump


def test_cross_check_verdicts_survive_optimized_mode():
    # asserts vanish under python -O; the verdicts must not depend on them
    src = Path(quiverump.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    script = (
        "import json\n"
        "from fixtures import ALL_FIXTURES\n"
        "from quiverump.ump import ump_report\n"
        "print(json.dumps({n: ump_report(b(), 'cross-check').is_ump"
        " for n, b in ALL_FIXTURES.items()}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == VERDICTS
