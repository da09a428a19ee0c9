"""Unique maximal path decisions across every route."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverump
import quiverump.ump

from invariants import (
    check_auto_composes_each_arrow_once,
    check_auto_cosets,
    check_positional_classes,
    check_quick_non_ump_reads_no_table,
    check_refutation,
    check_relation_level,
    forbid_enumeration,
)
from quiverump.analysis import components
from quiverump.errors import InvariantViolation
from quiverump.ideal import algebra, is_special_multiserial, linear_relation, zero_relation
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
    """The route auto takes, cross-checked: its verdict against enumeration
    and, when structural, against the relation-level statement."""
    alg = build()
    rep = ump_report(alg, "auto")
    assert rep.is_ump is VERDICTS[name]
    assert rep.is_ump is ump_bruteforce(alg).is_ump
    if rep.route != "oracle":
        check_relation_level(alg, components(alg), rep.is_ump)


def test_unknown_route_rejected():
    for route in ("guess", "main", "cross-check"):
        with pytest.raises(ValueError):
            ump_report(cycle_fork_tail(), route=route)


@pytest.mark.parametrize("build", [cycle_fork_tail, two_loops_line, petal_hub, loop_meets_twocycle])
def test_relation_level_reference_rejects_a_flipped_verdict(build):
    alg = build()
    comps = components(alg)
    check_relation_level(alg, comps, VERDICTS[build.__name__])
    with pytest.raises(AssertionError):
        check_relation_level(alg, comps, not VERDICTS[build.__name__])


def test_quick_refutation_finds_witness():
    w = quick_non_ump(chord_cycle_monomial())
    assert w is not None
    p1, p2, arrow = w
    assert {str(p1), str(p2)} == {"ep.al.bt.dl", "ep.gm"}
    assert arrow == "ep"


def test_quick_refutation_stays_silent():
    # special multiserial: the test names no witness to grow a pair from
    special = [name for name, build in ALL_FIXTURES.items() if is_special_multiserial(build())]
    assert {"two_loops_line", "parallel_tracks", "loop_meets_twocycle"} <= set(special)
    for name in special:
        assert quick_non_ump(ALL_FIXTURES[name]()) is None, name
    # not special multiserial, but UMP: no refutation exists
    assert quick_non_ump(chord_cycle_identified()) is None
    assert quick_non_ump(loop_spur()) is None


def test_auto_refutes_a_monomial_algebra_that_is_not_special_multiserial(monkeypatch):
    """chord_cycle_monomial has no identification term, yet the special
    multiserial witness alone refutes it without enumeration."""
    alg = chord_cycle_monomial()
    assert alg.is_monomial and not is_special_multiserial(alg)
    forbid_enumeration(monkeypatch)
    rep = ump_report(alg, "auto")
    assert rep.route == "oracle" and rep.is_ump is False
    assert rep.classes == ()
    assert rep.witness[2] == "ep"
    assert rep.notes == ("not special multiserial; refuted from the special multiserial witness without enumeration",)


def test_quick_refutation_builds_no_length2_table():
    witnesses = {}
    for name, build in ALL_FIXTURES.items():
        witnesses[name] = check_quick_non_ump_reads_no_table(build())
        assert check_refutation(build()) == witnesses[name], name
    assert witnesses["chord_cycle_monomial"] is not None


def test_auto_decides_the_compositions_after_each_arrow_once():
    """One auto call asks the pair rule about the arrows after each arrow at
    most once on every fixture, also where the algebra is not special
    multiserial and the route goes on to refute or enumerate it."""
    asked = {name: check_auto_composes_each_arrow_once(build()) for name, build in ALL_FIXTURES.items()}
    assert all(asked.values())
    assert not all(is_special_multiserial(build()) for build in ALL_FIXTURES.values())


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


def _identified_loop_triple():
    """Four loops at one vertex, each composing nonzero only as xy, yz, zx
    and ww, with xy = yz and zx = ww.  The cycle component of x, y and z
    is not monomial (xy - yz), so the paper's test does not apply there.
    Its maximal windows xy, yz and zx are parallel, overlap in turn and
    all hold a term; yz and zx lie in distinct classes and refute."""
    q = quiver(["0"], [(a, "0", "0") for a in "xyzw"])
    zero = [zero_relation(q, a + b) for a in "xyzw" for b in "xyzw" if a + b not in ("xy", "yz", "zx", "ww")]
    zero += [zero_relation(q, w) for w in ("xyz", "yzx", "zxy", "www")]
    return algebra(q, zero, [linear_relation(q, [(1, "xy"), (-1, "yz")]),
                             linear_relation(q, [(1, "zx"), (-1, "ww")])])


def _listed(rep):
    # what every route must agree on; only structural classes name components
    return rep.is_ump, rep.witness, [(c.representative, c.paths) for c in rep.classes]


def test_auto_reads_a_non_monomial_component_off_its_windows():
    alg = _two_arrow_pairs()
    rep, brute = ump_report(alg, "auto"), ump_bruteforce(alg)
    assert rep.route == "component-windows"
    assert rep.notes == ()
    assert rep.per_component == (("N1", None),)
    assert rep.is_ump is False
    assert _listed(rep) == _listed(brute)


def test_auto_never_enumerates_a_special_multiserial_algebra(monkeypatch):
    builds = [_two_arrow_pairs, _identified_loop_triple, *ALL_FIXTURES.values()]
    algs = [alg for alg in (build() for build in builds) if is_special_multiserial(alg)]
    expected = [ump_bruteforce(alg) for alg in algs]
    forbid_enumeration(monkeypatch)
    for alg, brute in zip(algs, expected):
        rep = ump_report(alg, "auto")
        assert rep.route != "oracle"
        assert _listed(rep) == _listed(brute)


def test_positional_classes_and_witness_match_the_class_layer():
    """On every special multiserial fixture, the classes and the witness
    read off the components' positions equal classes_of and shared_arrow,
    and auto asks a coset only of maximal paths holding a term: none on a
    monomial fixture."""
    builds = [_two_arrow_pairs, _identified_loop_triple, *ALL_FIXTURES.values()]
    algs = [alg for alg in (build() for build in builds) if is_special_multiserial(alg)]
    asked = []
    for alg in algs:
        check_positional_classes(alg)
        asked.append((alg.is_monomial, check_auto_cosets(alg)))
    assert (True, 0) in asked and any(n > 0 for _, n in asked)


def test_auto_rejects_a_component_test_the_classes_contradict(monkeypatch):
    """The component test and the maximal classes must agree both ways: a
    component failing UMP needs a witness, and a witness needs a failing
    component."""
    monkeypatch.setattr(quiverump.ump, "maximal_witness", lambda comps, classes: None)
    with pytest.raises(InvariantViolation):
        ump_report(petal_hub())

    def fake(comps, classes):
        p, q = classes[0].representative, classes[-1].representative
        return (p, q, p.arrows[0])

    monkeypatch.setattr(quiverump.ump, "maximal_witness", fake)
    with pytest.raises(InvariantViolation):
        ump_report(two_loops_line())


@pytest.mark.parametrize("build", [_branching_squares, _loop_with_dead_identification])
def test_auto_agrees_with_enumeration_on_identified_terms(build):
    alg = build()
    assert ump_report(alg, "auto").is_ump == ump_bruteforce(alg).is_ump


def test_verdicts_survive_optimized_mode():
    # asserts vanish under python -O; the verdicts must not depend on them
    src = Path(quiverump.__file__).resolve().parent.parent
    tests = Path(__file__).resolve().parent
    script = (
        "import json\n"
        "from fixtures import ALL_FIXTURES\n"
        "from quiverump.ump import ump_report\n"
        "print(json.dumps({r: {n: ump_report(b(), r).is_ump for n, b in ALL_FIXTURES.items()}"
        " for r in ('auto', 'oracle')}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"auto": VERDICTS, "oracle": VERDICTS}
