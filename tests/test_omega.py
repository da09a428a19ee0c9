"""Arrow saturations and the ramifications graph on the golden fixtures."""

import pytest

from quiverump.errors import InvariantViolation, NotSpecialMultiserial
from quiverump.ideal import is_special_multiserial
from quiverump.omega import RamificationsGraph, omega_map, ramifications_graph, saturation_walks
from quiverump.quiver import quiver

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
from invariants import saturations_by_definition


def _omega_strs(q):
    return {a: str(p) for a, p in omega_map(q).items()}


@pytest.mark.parametrize("build", [loop_spur, chord_cycle_monomial, chord_cycle_identified])
def test_saturation_walks_reject_an_algebra_that_is_not_special_multiserial(build):
    # no walk holds only each arrow's first nonzero successor, and no
    # arrow is reached twice: the decision's witness comes before the table
    A = build()
    with pytest.raises(NotSpecialMultiserial) as err:
        saturation_walks(A)
    assert err.value.witness == is_special_multiserial(build()).witness
    assert "_after" not in vars(A)


def test_saturations_cycle_fork_tail():
    A = cycle_fork_tail()
    assert _omega_strs(A.quiver) == {
        "a": "dabc", "b": "dabc", "c": "dabc", "d": "dabc",
        "e": "e", "f": "f", "g": "gh", "h": "gh",
    }


def test_saturations_two_loops_line():
    A = two_loops_line()
    assert _omega_strs(A.quiver) == {
        "a": "a", "b": "b", "c": "c", "d": "de", "e": "de",
    }


def test_saturations_petal_hub():
    A = petal_hub()
    assert _omega_strs(A.quiver) == {
        "a": "ab", "b": "ab", "c": "cd", "d": "cd", "e": "ef", "f": "ef",
    }


def test_saturations_loop_spur():
    A = loop_spur()
    assert _omega_strs(A.quiver) == {"a": "a", "b": "bc", "c": "bc", "d": "d"}


def test_saturations_chord_cycle():
    A = chord_cycle_monomial()
    got = _omega_strs(A.quiver)
    assert got == {
        "al": "al.bt", "bt": "al.bt", "gm": "gm", "dl": "dl.ep", "ep": "dl.ep",
    }


def test_standalone_cycle_rotation():
    # a lone directed cycle saturates to one fixed rotation, anchored at the
    # smallest arrow id, shared by every arrow of the cycle
    q = quiver(
        ["1", "2", "3"],
        [("p", "1", "2"), ("m", "2", "3"), ("k", "3", "1")],
    )
    om = omega_map(q)
    for a in ("p", "m", "k"):
        w = om[a]
        assert w.arrows == ("k", "p", "m")
        assert w.source == "3" and w.target == "3"


def test_lone_loop_is_its_own_rotation():
    q = quiver(["v"], [("z", "v", "v")])
    assert omega_map(q)["z"].arrows == ("z",)


def test_disconnected_union_mixes_rules():
    q = quiver(
        ["1", "2", "3", "4", "5", "6"],
        [("u", "1", "2"), ("v", "2", "1"),
         ("w", "3", "4"), ("x", "4", "3"),
         ("y", "5", "6")],
    )
    got = _omega_strs(q)
    assert got == {"u": "uv", "v": "uv", "w": "wx", "x": "wx", "y": "y"}


def test_embedded_two_cycle_uses_greedy_not_rotation():
    # the e/f two-cycle hangs off the petal hub, so vertex 2 disqualifies the
    # standalone rule; both arrows still agree on the same greedy saturation
    A = petal_hub()
    assert str(omega_map(A.quiver)["f"]) == "ef"


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_saturations_match_their_definition(name):
    q = ALL_FIXTURES[name]().quiver
    assert list(omega_map(q).items()) == list(saturations_by_definition(q).items())


def _edge_strs(g):
    return {(str(a), str(b)) for a, b in g.edges}


def _walks(g):
    return [tuple(str(w) for w in c) for c in g.weak_components()]


def test_graph_cycle_fork_tail():
    A = cycle_fork_tail()
    g = ramifications_graph(A)
    assert {str(n) for n in g.nodes} == {"dabc", "e", "f", "gh"}
    assert _edge_strs(g) == {("dabc", "e"), ("f", "gh")}
    assert _walks(g) == [("dabc", "e"), ("f", "gh")]


def test_graph_two_loops_line():
    A = two_loops_line()
    g = ramifications_graph(A)
    assert {str(n) for n in g.nodes} == {"a", "b", "c", "de"}
    assert _edge_strs(g) == {("c", "de")}
    assert _walks(g) == [("a",), ("b",), ("c", "de")]


def test_graph_petal_hub():
    A = petal_hub()
    g = ramifications_graph(A)
    assert {str(n) for n in g.nodes} == {"ab", "cd", "ef"}
    assert _edge_strs(g) == {("ab", "cd"), ("cd", "ab")}
    assert _walks(g) == [("ab", "cd"), ("ef",)]


def test_graph_loop_spur():
    A = loop_spur()
    g = ramifications_graph(A)
    assert _edge_strs(g) == {("a", "d")}


def test_graph_loop_meets_twocycle():
    A = loop_meets_twocycle()
    g = ramifications_graph(A)
    assert {str(n) for n in g.nodes} == {"a", "bc"}
    assert g.edges == ()
    assert _walks(g) == [("a",), ("bc",)]


def test_graph_never_has_self_edges():
    A = chord_cycle_monomial()
    g = ramifications_graph(A)
    assert all(a != b for a, b in g.edges)
    assert _edge_strs(g) == {
        ("al.bt", "dl.ep"), ("dl.ep", "al.bt"), ("dl.ep", "gm"),
    }


def _loops(labels):
    """Saturations spelled by labels: loops at one vertex, which compose."""
    q = quiver(["1"], [(a, "1", "1") for a in sorted(set("".join(labels)))])
    return [q.path(w) for w in labels]


def test_walk_follows_a_line_listed_out_of_order():
    x, y, z = _loops(["x", "y", "z"])
    g = RamificationsGraph((z, y, x), ((y, z), (x, y)))
    assert _walks(g) == [("x", "y", "z")]


def test_walk_starts_a_cycle_at_its_least_arrow():
    # z comes first by length, but the least arrow, a, lies in ab
    z, cd, ab, uv = _loops(["z", "cd", "ab", "uv"])
    g = RamificationsGraph((z, cd, uv, ab), ((z, cd), (cd, ab), (ab, z)))
    assert _walks(g) == [("ab", "z", "cd"), ("uv",)]


@pytest.mark.parametrize("edges", [((0, 2), (1, 2)), ((0, 1), (0, 2))],
                         ids=["two_predecessors", "two_successors"])
def test_walk_rejects_a_branching_saturation(edges):
    nodes = _loops(["x", "y", "z"])
    g = RamificationsGraph(tuple(nodes), tuple((nodes[a], nodes[b]) for a, b in edges))
    with pytest.raises(InvariantViolation):
        g.weak_components()
