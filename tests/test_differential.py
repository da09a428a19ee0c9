"""Generated monomial algebras: the decision and the saturations against
their definitions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from quiverump.ideal import algebra, zero_relation
from quiverump.omega import omega_map
from quiverump.oracle import ump_bruteforce
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
