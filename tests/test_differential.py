"""Generated algebras: the decision, the saturations, the induced ideals
and the Brauer classification against their definitions."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invariants import check_induced
from quiverump.analysis import components

from quiverump.brauer import (
    brauer_algebra,
    brauer_dimension,
    brauer_graph,
    classify,
    component_vertex_bijection,
)
from quiverump.ideal import algebra, is_special_multiserial, linear_relation, zero_relation
from quiverump.omega import omega_map
from quiverump.oracle import dimension_bruteforce, ump_bruteforce
from quiverump.quiver import quiver
from quiverump.ump import ump_report


def _paths_of_length(q, k):
    layer = [(a.id,) for a in q.arrows]
    for _ in range(k - 1):
        layer = [p + (b.id,) for p in layer for b in q.arrows_from(q.arrow(p[-1]).target)]
    return layer


@st.composite
def monomial_algebras(draw):
    """1-5 vertices, 1-6 arrows, random length-2 zero relations, and every
    path of length 2 or 3 in the ideal so that it is admissible."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 6))
    vertex = st.sampled_from([str(v) for v in range(n)])
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    q = quiver([str(v) for v in range(n)], [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)])
    pairs = _paths_of_length(q, 2)
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = draw(st.sampled_from([3, 2]))
    zero = {*chosen, *_paths_of_length(q, k)}
    return algebra(q, [zero_relation(q, p) for p in sorted(zero)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(monomial_algebras())
def test_auto_matches_enumeration_and_saturations_partition(alg):
    assert ump_report(alg, "auto").is_ump == ump_bruteforce(alg).is_ump

    q = alg.quiver
    om = omega_map(q)
    sats = set(om.values())
    assert sorted(a for w in sats for a in w.arrows) == sorted(q.arrow_ids)
    assert all(om[a] == w for w in sats for a in w.arrows)

    if is_special_multiserial(alg):
        check_induced(alg, [c.algebra for c in components(alg)])


@st.composite
def brauer_trees(draw):
    """Trees on 2-5 vertices, multiplicities 1-3, and a random cyclic order
    of the edges at each vertex."""
    n = draw(st.integers(2, 5))
    vertices = [(f"v{i}", draw(st.integers(1, 3))) for i in range(n)]
    edges = [(f"e{i}", f"v{draw(st.integers(0, i - 1))}", f"v{i}") for i in range(1, n)]
    orders = {
        v: draw(st.permutations([e for e, a, b in edges if v in (a, b)]))
        for v, _ in vertices
    }
    return brauer_graph(vertices, edges, orders)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(brauer_trees())
def test_brauer_trees_match_classification_and_enumeration(g):
    ba = brauer_algebra(g)
    assert ump_report(ba.algebra, "auto").is_ump == ump_bruteforce(ba.algebra).is_ump == classify(g).is_ump
    assert brauer_dimension(g) == dimension_bruteforce(ba.algebra)
    component_vertex_bijection(ba)
    check_induced(ba.algebra, [c.algebra for c in components(ba.algebra)])


@st.composite
def identified_algebras(draw):
    """Acyclic quivers (arrows go up the vertex order) on 3-5 vertices with
    2-7 arrows, random length-2 zero relations, and 1-2 identifications
    p = c*r between distinct parallel paths of length 2 or 3."""
    n = draw(st.integers(3, 5))
    m = draw(st.integers(2, 7))
    upward = st.sampled_from([(s, t) for s in range(n) for t in range(s + 1, n)])
    arrows = draw(st.lists(upward, min_size=m, max_size=m))
    q = quiver([str(v) for v in range(n)], [(f"a{i}", str(s), str(t)) for i, (s, t) in enumerate(arrows)])
    pairs = _paths_of_length(q, 2)
    ends = {w: (q.path(w).source, q.path(w).target) for w in pairs + _paths_of_length(q, 3)}
    parallel = [(u, v) for u in ends for v in ends if u < v and ends[u] == ends[v]]
    assume(parallel)
    ids = draw(st.lists(st.sampled_from(parallel), min_size=1, max_size=2, unique=True))
    coef = st.sampled_from([Fraction(-1), Fraction(1), Fraction(2), Fraction(-1, 2)])
    linear = [linear_relation(q, [(1, u), (draw(coef), v)]) for u, v in ids]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return algebra(q, [zero_relation(q, p) for p in sorted(chosen)], linear)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(identified_algebras())
def test_identifications_match_enumeration(alg):
    assert ump_report(alg, "auto").is_ump == ump_bruteforce(alg).is_ump
    ump_report(alg, "cross-check")
    if is_special_multiserial(alg):
        check_induced(alg, [c.algebra for c in components(alg)])
