"""Brauer graph algebras: construction, classification, dimension, bijection."""

import pytest

from invariants import component_vertex_bijection, forbid_enumeration
from quiverump import ideal
from quiverump.brauer import (
    BrauerGraph,
    Half,
    brauer_algebra,
    brauer_dimension,
    brauer_graph,
    classify,
)
from quiverump.errors import BrauerValidationError
from quiverump.oracle import dimension_bruteforce, ump_bruteforce
from quiverump.ump import ump_report


def bare_edge():
    return brauer_graph([("u", 1), ("w", 1)], [("e", "u", "w")])


def one_spinning_end(m=3):
    return brauer_graph([("u", m), ("w", 1)], [("e", "u", "w")])


def two_spinning_ends(m=2, n=3):
    return brauer_graph([("u", m), ("w", n)], [("e", "u", "w")])


def loop_edge(m=2):
    return brauer_graph([("v", m)], [("e", "v", "v")], {"v": ["e^", "e~"]})


def path_graph():
    return brauer_graph(
        [("u", 1), ("v", 1), ("w", 1)],
        [("e1", "u", "v"), ("e2", "v", "w")],
    )


def star_graph():
    return brauer_graph(
        [("c", 1), ("x", 1), ("y", 1), ("z", 1)],
        [("e1", "c", "x"), ("e2", "c", "y"), ("e3", "c", "z")],
    )


def theta_graph():
    return brauer_graph(
        [("u", 1), ("w", 1)],
        [("e1", "u", "w"), ("e2", "u", "w")],
    )


def two_leaf_star():
    """A centre of multiplicity 1 between two truncated leaves."""
    return brauer_graph(
        [("v0", 1), ("v1", 1), ("v2", 1)],
        [("e0", "v0", "v1"), ("e1", "v0", "v2")],
    )


def spinning_path():
    """Truncated ends on either side of an edge identifying the turn powers
    at vertices of multiplicity 2 and 3."""
    return brauer_graph(
        [("v0", 1), ("v1", 2), ("v2", 3), ("v3", 1)],
        [("e0", "v0", "v1"), ("e1", "v1", "v2"), ("e2", "v2", "v3")],
        {"v1": ["e0", "e1"], "v2": ["e2", "e1"]},
    )


ALL_GRAPHS = {
    "bare_edge": bare_edge,
    "one_spinning_end": one_spinning_end,
    "two_spinning_ends": two_spinning_ends,
    "loop_edge": loop_edge,
    "path_graph": path_graph,
    "star_graph": star_graph,
    "theta_graph": theta_graph,
    "two_leaf_star": two_leaf_star,
    "spinning_path": spinning_path,
}


def _zeros(alg):
    return {str(r.path) for r in alg.ideal.zero}


def _linears(alg):
    return {str(r) for r in alg.ideal.linear}


# -- validation ----------------------------------------------------------------


def test_rejects_empty_edge_set():
    with pytest.raises(BrauerValidationError) as err:
        brauer_graph([("u", 1)], [])
    assert any("no edges" in d for d in err.value.diagnostics)


def test_rejects_bad_vertex_and_edge_ids():
    with pytest.raises(BrauerValidationError) as err:
        brauer_graph([("u v", 1), ("w", 1)], [("e-1", "u v", "w")])
    assert err.value.diagnostics == ("bad vertex id 'u v'", "bad edge id 'e-1'")


def test_collects_multiple_diagnostics():
    with pytest.raises(BrauerValidationError) as err:
        brauer_graph(
            [("u", 0), ("u", 1), ("v", "x")],
            [("e", "u", "ghost"), ("f", "u", "v")],
        )
    diags = " | ".join(err.value.diagnostics)
    assert "multiplicity must be at least 1" in diags
    assert "vertex v: multiplicity must be an integer, got 'x'" in diags
    assert "duplicate vertex ids" in diags
    assert "undeclared endpoint" in diags


@pytest.mark.parametrize("m", [2.5, True, False])
def test_rejects_non_integral_and_boolean_multiplicities(m):
    with pytest.raises(BrauerValidationError) as err:
        brauer_graph([("v", m), ("w", 1)], [("e", "v", "w")])
    assert err.value.diagnostics == (f"vertex v: multiplicity must be an integer, got {m!r}",)


def test_accepts_integral_multiplicities_of_any_numeric_type():
    g = brauer_graph([("v", 2.0), ("w", "3")], [("e", "v", "w")])
    assert g.vertices == (("v", 2), ("w", 3))


def test_rejects_disconnected_graph():
    with pytest.raises(BrauerValidationError) as err:
        brauer_graph(
            [("u", 1), ("v", 1), ("x", 1), ("y", 1)],
            [("e1", "u", "v"), ("e2", "x", "y")],
        )
    assert any("not connected" in d for d in err.value.diagnostics)


def test_order_token_validation():
    with pytest.raises(BrauerValidationError) as err:
        brauer_graph(
            [("u", 2), ("w", 1)],
            [("e", "u", "w")],
            {"u": ["e^"]},
        )
    assert any("not a loop" in d for d in err.value.diagnostics)

    with pytest.raises(BrauerValidationError) as err:
        brauer_graph([("v", 2)], [("e", "v", "v")], {"v": ["e", "e"]})
    assert any("needs ^ or ~" in d for d in err.value.diagnostics)

    with pytest.raises(BrauerValidationError) as err:
        brauer_graph([("v", 2)], [("e", "v", "v")], {"v": ["e^", "e^"]})
    assert any("repeated" in d for d in err.value.diagnostics)

    with pytest.raises(BrauerValidationError) as err:
        brauer_graph(
            [("u", 1), ("w", 2)],
            [("e", "u", "w")],
            {"w": ["f"]},
        )
    assert any("unknown edge" in d for d in err.value.diagnostics)


@pytest.mark.parametrize(
    "vertices,edges,orders,diagnostic",
    [
        ([("u", 1), ("w", 1)], [("e", "u", "w"), ("e", "u", "w")], None, "duplicate edge ids"),
        ([("u", 1), ("w", 1)], [("u", "u", "w")], None, "edge and vertex ids must not overlap"),
        ([("u", 1), ("w", 1)], [("e", "u", "w")], {"x": ["e"]}, "order for undeclared vertex 'x'"),
        (
            [("u", 1), ("v", 1), ("w", 2)],
            [("e", "u", "w"), ("f", "v", "w")],
            {"u": ["f"]},
            "order at u: edge f is not incident",
        ),
        ([("u", 1, 2), ("w", 1)], [("e", "u", "w")], None, "vertex ('u', 1, 2): expected an (id, multiplicity) pair"),
        ([None, ("w", 1)], [("e", "w", "w")], None, "vertex None: expected an (id, multiplicity) pair"),
        ([("u", 1), ("w", 1)], [("e", "u", "w"), ("f", "u")], None, "edge ('f', 'u'): expected an (id, end, end) triple"),
        ([("u", 1), ("w", 1)], [("e", "u", "w"), 7], None, "edge 7: expected an (id, end, end) triple"),
        # strings unpack into their characters: "u2" read as u of multiplicity 2
        (["u2", ("w", 1)], [("e", "u", "w")], None, "vertex 'u2': expected an (id, multiplicity) pair"),
        ([("u", 1), ("w", 1)], ["euw"], None, "edge 'euw': expected an (id, end, end) triple"),
        (None, [("e", "u", "w")], None, "vertices: expected an iterable, got None"),
        ([("u", 1), ("w", 1)], None, None, "edges: expected an iterable, got None"),
        ([("u", 1), ("w", 2)], [("e", "u", "w")], {"w": 5}, "order at w: expected an iterable, got 5"),
        ([("u", 1), ("w", 2)], [("e", "u", "w")], [1], "orders: expected a mapping from vertex ids to token lists, got [1]"),
    ],
)
def test_rejects_malformed_edges_and_orders(vertices, edges, orders, diagnostic):
    with pytest.raises(BrauerValidationError) as err:
        brauer_graph(vertices, edges, orders)
    assert diagnostic in err.value.diagnostics


def test_generated_arrow_ids_must_not_collide():
    # two ways to spell the same underscore-joined name
    with pytest.raises(BrauerValidationError):
        brauer_algebra(
            brauer_graph(
                [("a", 2), ("a_b", 2)],
                [("b_c", "a", "a_b"), ("c", "a", "a_b")],
            )
        )
    # the arrow of edge e at u is named u_e, like the second edge
    with pytest.raises(BrauerValidationError) as err:
        brauer_algebra(brauer_graph([("u", 1), ("v", 1)], [("e", "u", "v"), ("u_e", "u", "v")]))
    assert err.value.diagnostics == ("a generated arrow id collides with an edge id; rename",)


@pytest.mark.parametrize("name", sorted(ALL_GRAPHS))
def test_valency_counts_every_end_of_every_edge(name):
    g = ALL_GRAPHS[name]()
    for v in g.vertex_ids:
        ends = sum((a == v) + (b == v) for _, a, b in g.edges)
        assert g.valency(v) == ends == len(g.order(v))


def test_valency_of_a_graph_built_directly():
    # no validation runs: a loop counts twice, an unreached vertex not at all
    g = BrauerGraph((("v", 1), ("w", 2), ("x", 1)),
                    (("e", "v", "v"), ("f", "v", "w")), ())
    assert [g.valency(v) for v in ("v", "w", "x")] == [3, 1, 0]
    assert g.is_truncated("w") is False and g.is_truncated("x") is False


@pytest.mark.parametrize("g", [
    pytest.param(BrauerGraph((("v", 1),), (("e", "v", "w"),), ()), id="undeclared-truncated-end"),
    pytest.param(BrauerGraph((("v", 2),), (("e", "v", "w"),), ()), id="undeclared-end-of-spinning-vertex"),
    pytest.param(BrauerGraph((("v", 1), ("w", 2)), (("e", "v", "w"),), (("v", (Half("e", 0),)),)),
                 id="no-order-at-spinning-vertex"),
    pytest.param(BrauerGraph((("v", 1), ("w", 2)), (("e", "v", "w"),), (("w", (Half("e", 0),)),)),
                 id="order-of-another-half"),
    pytest.param(BrauerGraph((("v", 1),), (), (("v", ()),)), id="no-edge"),
])
@pytest.mark.parametrize("entry", [brauer_algebra, classify, brauer_dimension])
def test_entries_reject_a_graph_built_directly_that_is_no_brauer_graph(g, entry):
    # construction stays unvalidated; the entries check what they read
    with pytest.raises(BrauerValidationError):
        entry(g)


@pytest.mark.parametrize("name,build", sorted(ALL_GRAPHS.items()))
def test_entries_accept_a_brauer_graph_built_directly(name, build):
    g = build()
    direct = BrauerGraph(g.vertices, g.edges, g.orders)
    assert brauer_algebra(direct).algebra == brauer_algebra(g).algebra
    assert classify(direct) == classify(g)
    assert brauer_dimension(direct) == brauer_dimension(g)


# -- the four one-edge shapes ---------------------------------------------------


def test_bare_edge_collapses_to_the_base_field():
    g = bare_edge()
    ba = brauer_algebra(g)
    assert ba.algebra.quiver.vertex_ids == ("e",)
    assert ba.algebra.quiver.arrows == ()
    assert _zeros(ba.algebra) == set() and _linears(ba.algebra) == set()
    assert classify(g) == classify(g)
    shape = classify(g)
    assert (shape.kind, shape.params, shape.is_ump) == ("point", (), True)
    assert brauer_dimension(g) == 1 == dimension_bruteforce(ba.algebra)
    assert component_vertex_bijection(ba) == ()
    assert ump_report(ba.algebra).is_ump is True


def test_one_spinning_end_gives_a_nilpotent_loop():
    g = one_spinning_end(m=3)
    ba = brauer_algebra(g)
    assert tuple(a.id for a in ba.algebra.quiver.arrows) == ("u_e",)
    assert _zeros(ba.algebra) == {"u_e.u_e.u_e.u_e"}
    assert _linears(ba.algebra) == set()
    shape = classify(g)
    assert (shape.kind, shape.params, shape.is_ump) == ("nilpotent-loop", (3,), True)
    assert brauer_dimension(g) == 4 == dimension_bruteforce(ba.algebra)
    rep = ump_report(ba.algebra)
    assert rep.is_ump is True and rep.route == "monomial-corollary"
    pairs = component_vertex_bijection(ba)
    assert [v for _, v in pairs] == ["u"]


def test_two_spinning_ends_identify_loop_powers():
    g = two_spinning_ends(m=2, n=3)
    ba = brauer_algebra(g)
    assert {a.id for a in ba.algebra.quiver.arrows} == {"u_e", "w_e"}
    assert _zeros(ba.algebra) == {"u_e.w_e", "w_e.u_e"}
    assert _linears(ba.algebra) == {"u_e.u_e - w_e.w_e.w_e"}
    assert ba.algebra.bound == 4
    shape = classify(g)
    assert (shape.kind, shape.params) == ("two-nilpotent-loops", (3, 2))
    assert brauer_dimension(g) == 5 == dimension_bruteforce(ba.algebra)
    rep = ump_report(ba.algebra)
    assert rep.is_ump is True and rep.route == "main-theorem"
    # both nilpotent loops spin alone, powers merge into one global class
    assert len(rep.classes) == 1
    assert {str(p) for p in rep.classes[0].paths} == {"u_e.u_e", "w_e.w_e.w_e"}
    assert sorted(v for _, v in component_vertex_bijection(ba)) == ["u", "w"]


def test_loop_edge_gives_alternating_arrows(monkeypatch):
    g = loop_edge(m=2)
    ba = brauer_algebra(g)
    assert {a.id for a in ba.algebra.quiver.arrows} == {"v_eh", "v_et"}
    assert _zeros(ba.algebra) == {"v_eh.v_eh", "v_et.v_et"}
    assert _linears(ba.algebra) == {
        "v_eh.v_et.v_eh.v_et - v_et.v_eh.v_et.v_eh"
    }
    shape = classify(g)
    assert (shape.kind, shape.params, shape.is_ump) == ("alternating-loop", (2,), True)
    assert brauer_dimension(g) == 8 == dimension_bruteforce(ba.algebra)
    # the identification survives inside the single component, so the
    # paper's test does not apply: the verdict comes from the classes of
    # its maximal windows, with no enumeration
    brute = ump_bruteforce(ba.algebra)
    forbid_enumeration(monkeypatch)
    rep = ump_report(ba.algebra)
    assert rep.is_ump is True and rep.route == "component-windows"
    assert rep.per_component == (("N1", None),)
    assert [c.paths for c in rep.classes] == [c.paths for c in brute.classes]
    pairs = component_vertex_bijection(ba)
    assert [v for _, v in pairs] == ["v"]


def test_loop_edge_multiplicity_one():
    g = loop_edge(m=1)
    ba = brauer_algebra(g)
    assert _zeros(ba.algebra) == {"v_eh.v_eh", "v_et.v_et"}
    assert _linears(ba.algebra) == {"v_eh.v_et - v_et.v_eh"}
    assert brauer_dimension(g) == 4 == dimension_bruteforce(ba.algebra)
    assert ump_report(ba.algebra).is_ump is True


# -- bigger graphs --------------------------------------------------------------


def test_path_graph_turns_are_cut():
    g = path_graph()
    ba = brauer_algebra(g)
    assert {a.id for a in ba.algebra.quiver.arrows} == {"v_e1", "v_e2"}
    assert _zeros(ba.algebra) == {"v_e1.v_e2.v_e1", "v_e2.v_e1.v_e2"}
    shape = classify(g)
    assert (shape.kind, shape.is_ump) == ("multiple-edges", False)
    assert brauer_dimension(g) == 6 == dimension_bruteforce(ba.algebra)
    assert ump_report(ba.algebra).is_ump is False
    pairs = component_vertex_bijection(ba)
    assert [v for _, v in pairs] == ["v"]


def test_star_graph_is_one_spinning_cycle():
    g = star_graph()
    ba = brauer_algebra(g)
    assert {a.id for a in ba.algebra.quiver.arrows} == {"c_e1", "c_e2", "c_e3"}
    assert _zeros(ba.algebra) == {
        "c_e1.c_e2.c_e3.c_e1",
        "c_e2.c_e3.c_e1.c_e2",
        "c_e3.c_e1.c_e2.c_e3",
    }
    assert brauer_dimension(g) == 12 == dimension_bruteforce(ba.algebra)
    assert ump_report(ba.algebra).is_ump is False
    pairs = component_vertex_bijection(ba)
    assert [v for _, v in pairs] == ["c"]


def test_theta_graph_identifies_turns_across_vertices():
    g = theta_graph()
    ba = brauer_algebra(g)
    assert {a.id for a in ba.algebra.quiver.arrows} == {"u_e1", "u_e2", "w_e1", "w_e2"}
    assert _zeros(ba.algebra) == {
        "u_e1.w_e2", "u_e2.w_e1", "w_e1.u_e2", "w_e2.u_e1",
    }
    assert len(ba.algebra.ideal.linear) == 2
    assert brauer_dimension(g) == 8 == dimension_bruteforce(ba.algebra)
    rep = ump_report(ba.algebra)
    assert rep.is_ump is False and rep.route == "main-theorem"
    assert sorted(v for _, v in component_vertex_bijection(ba)) == ["u", "w"]


def test_cyclic_order_changes_the_quiver():
    forward = brauer_algebra(star_graph())
    turned = brauer_algebra(
        brauer_graph(
            [("c", 1), ("x", 1), ("y", 1), ("z", 1)],
            [("e1", "c", "x"), ("e2", "c", "y"), ("e3", "c", "z")],
            {"c": ["e1", "e3", "e2"]},
        )
    )
    fwd = forward.algebra.quiver.arrow("c_e1")
    trn = turned.algebra.quiver.arrow("c_e1")
    assert fwd.target == "e2" and trn.target == "e3"


# -- relations read off the graph ----------------------------------------------


def test_cut_off_turn_as_long_as_the_bound_is_kept():
    # each turn's first arrow ends at an edge with a truncated end
    ba = brauer_algebra(two_leaf_star())
    assert ba.algebra.bound == 3
    assert _zeros(ba.algebra) == {"v0_e0.v0_e1.v0_e0", "v0_e1.v0_e0.v0_e1"}


def test_cut_off_turn_shorter_than_the_bound_is_dropped():
    # v1_e0 and v2_e2 end at e1, whose turn powers are identified, so the
    # cut-off turns at e0 (length 5) and e2 (length 7) are redundant
    ba = brauer_algebra(spinning_path())
    assert ba.algebra.bound == 7
    assert _zeros(ba.algebra) == {"v1_e0.v2_e1", "v2_e2.v1_e1"}
    assert _linears(ba.algebra) == {
        "v1_e1.v1_e0.v1_e1.v1_e0 - v2_e1.v2_e2.v2_e1.v2_e2.v2_e1.v2_e2"
    }


def test_brauer_algebra_walks_no_bound_and_minimises_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the presentation is read off the graph")

    monkeypatch.setattr(ideal, "admissibility_bound", refuse)
    monkeypatch.setattr(ideal, "minimalize_relations", refuse)
    for build in ALL_GRAPHS.values():
        brauer_algebra(build())


@pytest.mark.parametrize("name,build", sorted(ALL_GRAPHS.items()))
def test_dimension_formula_matches_enumeration(name, build):
    g = build()
    assert brauer_dimension(g) == dimension_bruteforce(brauer_algebra(g).algebra)


@pytest.mark.parametrize("name,build", sorted(ALL_GRAPHS.items()))
def test_classification_predicts_the_verdict(name, build):
    g = build()
    assert classify(g).is_ump == ump_bruteforce(brauer_algebra(g).algebra).is_ump


@pytest.mark.parametrize("name,build", sorted(ALL_GRAPHS.items()))
def test_bijection_covers_every_spinning_vertex(name, build):
    g = build()
    ba = brauer_algebra(g)
    pairs = component_vertex_bijection(ba)
    spinning = {v for v in g.vertex_ids if not g.is_truncated(v)}
    assert {v for _, v in pairs} == spinning
    assert len({c for c, _ in pairs}) == len(pairs)
