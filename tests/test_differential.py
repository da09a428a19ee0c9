"""Generated algebras: the decision, the saturations, the induced ideals
and the Brauer classification against their definitions."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invariants import (
    brauer_reference,
    check_auto_composes_each_arrow_once,
    check_auto_cosets,
    check_block_cache,
    check_component_orders,
    check_components_ask_nothing,
    check_global_basis,
    check_induced,
    check_maximal,
    check_positional_classes,
    check_quick_non_ump_reads_no_table,
    check_refutation,
    check_relation_level,
    check_windows,
    check_zero_reduction,
    component_algebra,
    component_vertex_bijection,
    enumerated_bound,
    pairwise_shared_arrow,
    reduced_bound,
    saturation_algebras,
    saturations_by_definition,
    unrewritten,
)
from quiverump.analysis import components

from quiverump.brauer import (
    brauer_algebra,
    brauer_dimension,
    brauer_graph,
    classify,
)
from quiverump.errors import NotAdmissible
from quiverump.ideal import (
    ZeroRelation,
    admissibility_bound,
    algebra,
    is_special_multiserial,
    linear_relation,
    zero_relation,
)
from quiverump.omega import omega_map
from quiverump.oracle import dimension_bruteforce, ump_bruteforce
from quiverump.quiver import quiver
from quiverump.ump import ump_report


def _auto_agrees(alg):
    """The auto report of alg, after checking it against enumeration: the
    verdict always, on a structural route, which every special multiserial
    algebra takes, also the maximal classes (paths and representatives)
    and the witness, and for a refutation found without enumeration (a
    witness but no classes) that its two paths lie in distinct enumerated
    classes and both hold its arrow."""
    rep, brute = ump_report(alg, "auto"), ump_bruteforce(alg)
    assert rep.is_ump == brute.is_ump
    assert brute.witness == pairwise_shared_arrow(brute.classes)
    assert (rep.route != "oracle") == bool(is_special_multiserial(alg))
    if rep.route != "oracle":
        assert [(c.representative, c.paths) for c in rep.classes] == [(c.representative, c.paths) for c in brute.classes]
        assert rep.witness == brute.witness
    elif rep.witness is not None and not rep.classes:
        u, v, arrow = rep.witness
        (cu,) = [c for c in brute.classes if u in c.paths]
        (cv,) = [c for c in brute.classes if v in c.paths]
        assert cu != cv
        assert arrow in u.arrows and arrow in v.arrows
    return rep


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
    rep = _auto_agrees(alg)
    check_maximal(alg)

    q = alg.quiver
    om = omega_map(q)
    assert list(om.items()) == list(saturations_by_definition(q).items())
    sats = set(om.values())
    assert sorted(a for w in sats for a in w.arrows) == sorted(a.id for a in q.arrows)
    assert all(om[a] == w for w in sats for a in w.arrows)

    comps = check_components_ask_nothing(alg)
    if is_special_multiserial(alg):
        assert comps == components(alg)
        check_component_orders(alg, comps)
        check_windows(alg, comps)
        check_induced(alg, [component_algebra(alg, c) for c in comps])
        check_relation_level(alg, comps, rep.is_ump)
        check_positional_classes(alg)
        assert check_auto_cosets(alg) == 0
    else:
        check_quick_non_ump_reads_no_table(alg)
        check_refutation(alg)
        check_auto_composes_each_arrow_once(alg)
    check_global_basis(alg)


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
    assert ba.algebra == brauer_reference(g)
    assert _auto_agrees(ba.algebra).is_ump == classify(g).is_ump
    assert brauer_dimension(g) == dimension_bruteforce(ba.algebra)
    component_vertex_bijection(ba)
    comps = components(ba.algebra)
    check_component_orders(ba.algebra, comps)
    check_windows(ba.algebra, comps)
    check_induced(ba.algebra, [component_algebra(ba.algebra, c) for c in comps])
    check_relation_level(ba.algebra, comps, classify(g).is_ump)
    check_positional_classes(ba.algebra)
    check_auto_cosets(ba.algebra)
    check_global_basis(ba.algebra)


@st.composite
def brauer_graphs(draw):
    """Connected Brauer graphs on 1-4 vertices that are not trees: a
    random spanning tree plus 1-2 extra edges, each a loop, a second edge
    between adjacent vertices, or a chord; multiplicities 1-3 and a random
    cyclic order of the half-edges at each vertex."""
    n = draw(st.integers(1, 4))
    vertices = [(f"v{i}", draw(st.integers(1, 3))) for i in range(n)]
    ends = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    ends += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=2))
    edges = [(f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(ends)]
    orders = {}
    for v, _ in vertices:
        halves = []
        for e, a, b in edges:
            if a == b == v:
                halves += [e + "^", e + "~"]
            elif v in (a, b):
                halves.append(e)
        orders[v] = draw(st.permutations(halves))
    return brauer_graph(vertices, edges, orders)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(brauer_graphs())
def test_brauer_graphs_with_loops_and_multiple_edges_match_enumeration(g):
    ba = brauer_algebra(g)
    assert ba.algebra == brauer_reference(g)
    assert _auto_agrees(ba.algebra).is_ump == classify(g).is_ump
    assert brauer_dimension(g) == dimension_bruteforce(ba.algebra)
    component_vertex_bijection(ba)
    comps = components(ba.algebra)
    check_component_orders(ba.algebra, comps)
    check_windows(ba.algebra, comps)
    check_induced(ba.algebra, [component_algebra(ba.algebra, c) for c in comps])
    check_relation_level(ba.algebra, comps, classify(g).is_ump)
    check_positional_classes(ba.algebra)
    check_auto_cosets(ba.algebra)
    check_global_basis(ba.algebra)


@st.composite
def identified_algebras(draw):
    """Acyclic quivers (arrows go up the vertex order) on 3-5 vertices with
    2-7 arrows, random length-2 zero relations, and 1-2 identifications
    p = c*r between distinct parallel paths of length 2 or 3: the quiver
    and the relations as given, before algebra() rewrites them."""
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
    return q, [zero_relation(q, p) for p in sorted(chosen)], linear


def _dead_sibling_term():
    """0->1 twice (a0, a1), 0->2->3 (a2, a4), 1->3 (a3) and 3->4 (a5), with
    a2a4 = 0, a0a3 + 2 a1a3 = 0 and a1a3 - a2a4 = 0: the block of a0a3
    reaches a1a3, whose other relation has the dead term a2a4.  The
    strategy above does not draw a span that meets a dead term.  algebra()
    would kill a2a4, then a1a3, then a0a3, and present it as monomial."""
    q = quiver([str(v) for v in range(5)], [("a0", "0", "1"), ("a1", "0", "1"), ("a2", "0", "2"),
                                            ("a3", "1", "3"), ("a4", "2", "3"), ("a5", "3", "4")])
    linear = [linear_relation(q, [(1, ["a0", "a3"]), (2, ["a1", "a3"])]),
              linear_relation(q, [(1, ["a1", "a3"]), (-1, ["a2", "a4"])])]
    return q, [zero_relation(q, ["a2", "a4"])], linear


def test_the_dead_sibling_example_keeps_its_identifications_only_unrewritten():
    assert unrewritten(*_dead_sibling_term()).ideal.linear
    assert check_zero_reduction(*_dead_sibling_term()).is_monomial


# algebra() presents about four in ten draws as monomial; the engine checks
# run on every draw unrewritten, and at least this share of the rewritten
# draws must still carry an identification.  derandomize seeds the draws
# from run's source, so every edit of run draws anew; at 60 draws the share
# fell below this on 7 of 40 seeds (mean 0.60, spread 0.09), hence 300
KEEP_IDENTIFICATIONS = 0.5


def test_identifications_match_enumeration():
    identified = []

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(identified_algebras())
    @example(_dead_sibling_term())
    def run(case):
        alg = unrewritten(*case)
        rep = _auto_agrees(alg)
        assert list(omega_map(alg.quiver).items()) == list(saturations_by_definition(alg.quiver).items())
        check_maximal(alg)
        check_global_basis(alg)
        check_block_cache(alg)
        if is_special_multiserial(alg):
            comps = components(alg)
            check_component_orders(alg, comps)
            check_windows(alg, comps)
            check_induced(alg, [component_algebra(alg, c) for c in comps])
            check_relation_level(alg, comps, rep.is_ump)
            check_positional_classes(alg)
            check_auto_cosets(alg)
        else:
            check_quick_non_ump_reads_no_table(alg)
            check_refutation(alg)
            check_auto_composes_each_arrow_once(alg)
            check_induced(alg, saturation_algebras(alg))
        identified.append(bool(check_zero_reduction(*case).ideal.linear))

    run()
    assert sum(identified) >= KEEP_IDENTIFICATIONS * len(identified), (sum(identified), len(identified))


@st.composite
def identified_presentations(draw):
    """1-3 vertices and 2-6 arrows (loops and cycles allowed), random
    length-2 zero relations, 1-2 identifications p = c*r between distinct
    parallel paths of length 2 or 3, and a cap of 2-5: some are admissible
    below the cap and some are not."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 6))
    vertex = st.sampled_from([str(v) for v in range(n)])
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    q = quiver([str(v) for v in range(n)], [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)])
    pairs = _paths_of_length(q, 2)
    walks = {w: q.path(w) for w in pairs + _paths_of_length(q, 3)}
    by_ends: dict[tuple[str, str], list] = {}
    for w, p in walks.items():
        by_ends.setdefault((p.source, p.target), []).append(w)
    parallel = [(u, v) for u, p in walks.items() for v in by_ends[p.source, p.target] if u < v]
    assume(parallel)
    ids = draw(st.lists(st.sampled_from(parallel), min_size=1, max_size=2, unique=True))
    coef = st.sampled_from([Fraction(-1), Fraction(1), Fraction(2), Fraction(-1, 2)])
    linear = [linear_relation(q, [(1, u), (draw(coef), v)]) for u, v in ids]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return q, [zero_relation(q, p) for p in sorted(chosen)], linear, draw(st.integers(2, 5))


def test_identified_bounds_match_the_global_basis():
    outcomes: set[str] = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(identified_presentations())
    def run(case):
        q, zero, linear, cap = case
        try:
            expected = reduced_bound(q, zero, linear, cap)
        except NotAdmissible:
            for build in (admissibility_bound, algebra):
                with pytest.raises(NotAdmissible) as err:
                    build(q, zero, linear, cap=cap)
                assert err.value.cap == cap
            outcomes.add("not admissible")
            return
        assert admissibility_bound(q, zero, linear, cap=cap) == expected
        check_zero_reduction(q, zero, linear, cap)
        outcomes.add("bound")

    run()
    assert outcomes == {"bound", "not admissible"}


@st.composite
def quivers_with_zero_paths(draw):
    """1-4 vertices, 1-6 arrows (loops and cycles allowed) and 0-6 zero
    paths, each a random walk of length 2-4."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    vertex = st.sampled_from([str(v) for v in range(n)])
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))
    q = quiver([str(v) for v in range(n)], [(f"a{i}", s, t) for i, (s, t) in enumerate(ends)])
    zero = []
    for _ in range(draw(st.integers(0, 6))):
        walk = [draw(st.sampled_from(q.arrows))]
        for _ in range(draw(st.integers(1, 3))):
            ahead = q.arrows_from(walk[-1].target)
            if not ahead:
                break
            walk.append(draw(st.sampled_from(ahead)))
        if len(walk) >= 2:
            zero.append(q.path(a.id for a in walk))
    return q, zero


@settings(derandomize=True, max_examples=100, deadline=None)
@given(quivers_with_zero_paths())
def test_monomial_bound_matches_enumeration(case):
    q, zero = case
    relations = [ZeroRelation(z) for z in zero]
    try:
        expected = enumerated_bound(q, zero, 8)
    except NotAdmissible:
        with pytest.raises(NotAdmissible):
            admissibility_bound(q, relations, cap=8)
        return
    assert admissibility_bound(q, relations, cap=8) == expected


@st.composite
def saturation_chains(draw):
    """Monomial special multiserial algebras with long relations.

    Lines and oriented cycles of 1-5 arrows glued at branch vertices, at
    most two arrows in and two out at each.  Every vertex matches its
    incoming to its outgoing arrows at random, and each unmatched pair is
    a junction zero relation.  Zero relations of length 2-5 lie along the
    matched walks, at least one on each closed walk, so the ideal is
    admissible."""
    verts: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    ins: dict[str, list[str]] = {}
    outs: dict[str, list[str]] = {}

    def vertex() -> str:
        verts.append(f"v{len(verts)}")
        ins[verts[-1]], outs[verts[-1]] = [], []
        return verts[-1]

    def arrow(s: str, t: str) -> None:
        arrows.append((f"a{len(arrows)}", s, t))
        outs[s].append(arrows[-1][0])
        ins[t].append(arrows[-1][0])

    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 5))
        start = draw(st.sampled_from(verts)) if verts and draw(st.booleans()) else vertex()
        kind = draw(st.sampled_from(["cycle", "out", "in"]))
        if kind == "cycle" and len(outs[start]) < 2 and len(ins[start]) < 2:
            cur = start
            for i in range(length):
                nxt = start if i == length - 1 else vertex()
                arrow(cur, nxt)
                cur = nxt
        elif kind == "in" and len(ins[start]) < 2:
            cur = start
            for _ in range(length):
                prv = vertex()
                arrow(prv, cur)
                cur = prv
        else:
            cur = start if len(outs[start]) < 2 else vertex()
            for _ in range(length):
                nxt = vertex()
                arrow(cur, nxt)
                cur = nxt

    zero: set[tuple[str, ...]] = set()
    succ: dict[str, str] = {}
    for v in verts:
        pairs = list(zip(ins[v], draw(st.permutations(outs[v]))))
        succ.update(pairs)
        zero.update((x, y) for x in ins[v] for y in outs[v] if (x, y) not in pairs)

    pred = {y: x for x, y in succ.items()}
    walks: list[tuple[list[str], bool]] = []
    seen: set[str] = set()
    for a, _, _ in sorted(arrows, key=lambda t: t[0] in pred):
        if a in seen:
            continue
        walk = [a]
        while walk[-1] in succ and succ[walk[-1]] != a:
            walk.append(succ[walk[-1]])
        seen.update(walk)
        walks.append((walk, walk[-1] in succ))
    for walk, closed in walks:
        m = len(walk)
        for _ in range(draw(st.integers(1 if closed else 0, 3))):
            pos = draw(st.integers(0, m - 1))
            length = draw(st.integers(2, 5))
            if closed:
                zero.add(tuple(walk[(pos + k) % m] for k in range(length)))
            elif pos + length <= m:
                zero.add(tuple(walk[pos:pos + length]))
    q = quiver(verts, arrows)
    return algebra(q, [zero_relation(q, z) for z in sorted(zero)])


def _theorem_branch(comp) -> str:
    # which disjunct of the main theorem's test decides Component.is_ump
    if not comp.ordered_relations:
        return "no ordered relation"
    if all(s == 1 for s in comp.sigma):
        return "every sigma is 1"
    if len(comp.ordered_relations) == 1 and comp.closes:
        return "one relation on a closed path"
    return "not UMP"


def test_saturation_chains_match_enumeration_on_every_branch():
    branches: set[str] = set()
    verdicts: set[bool] = set()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(saturation_chains())
    def run(alg):
        assert is_special_multiserial(alg)
        report = _auto_agrees(alg)
        comps = components(alg)
        assert check_components_ask_nothing(alg) == comps
        check_component_orders(alg, comps)
        check_windows(alg, comps)
        check_induced(alg, [component_algebra(alg, c) for c in comps])
        check_relation_level(alg, comps, report.is_ump)
        check_positional_classes(alg)
        assert check_auto_cosets(alg) == 0
        branches.update(_theorem_branch(c) for c in comps)
        verdicts.add(report.is_ump)

    run()
    assert branches == {"no ordered relation", "every sigma is 1", "one relation on a closed path", "not UMP"}
    assert verdicts == {True, False}
