import copy
import gc
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quiverump.ideal
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
    check_block_cache,
    check_zero_reduction,
    count_window_scans,
    normal_key,
    paths_up_to,
    unrewritten,
)
from quiverump.analysis import components
from quiverump.brauer import brauer_algebra, brauer_dimension, brauer_graph, classify
from quiverump.errors import (
    InvalidPresentation,
    NotAdmissible,
    PathInIdeal,
    TrivialPath,
    UnknownLabel,
)
from quiverump.ideal import (
    AlgebraPresentation,
    IdealPresentation,
    LinearRelation,
    ZeroRelation,
    _Engine,
    admissibility_bound,
    algebra,
    coset_paths,
    is_special_multiserial,
    linear_relation,
    live_paths,
    longest_avoiding,
    minimalize_relations,
    path_in_ideal,
    zero_divisor,
    zero_relation,
)
from quiverump.omega import omega_map, ramifications_graph
from quiverump.oracle import (
    dimension_bruteforce,
    global_basis,
    maximal_classes,
    maximal_paths,
    nonzero_paths,
    ump_bruteforce,
)
from quiverump.quiver import Path, occurrences, quiver
from quiverump.ump import ROUTES, quick_non_ump, ump_report


def test_relation_validation():
    q = quiver(["1", "2"], [("a", "1", "1"), ("b", "1", "2")])
    with pytest.raises(InvalidPresentation):
        zero_relation(q, "a")  # too short
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [(1, "aa")])  # one term
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [(1, "aa"), (-1, "ab")])  # not parallel
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [(1, "aa"), (0, "aaa")])  # zero coefficient
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [(0, "aa"), (1, "aaa")])  # zero coefficient on the term sorting first
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [])  # no terms
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [(1, "aa"), (-1, "aa")])  # repeated term
    with pytest.raises(InvalidPresentation):
        zero_relation(q, 5)  # no arrow sequence
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [(1, 5), (1, "ab")])  # a term with no arrow sequence
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [1, 2])  # coefficients with no paths
    with pytest.raises(InvalidPresentation):
        linear_relation(q, None)  # no sequence of terms
    with pytest.raises(InvalidPresentation):  # two terms, one coefficient
        LinearRelation((Fraction(1),), (q.path("aa"), q.path("aaa")))
    parallel = quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    with pytest.raises(InvalidPresentation):
        linear_relation(parallel, [(1, "a"), (-1, "b")])  # terms of length 1


@pytest.mark.parametrize("coef", ["x", None, float("nan"), float("inf"), [1]])
def test_a_coefficient_that_is_no_rational_is_rejected(coef):
    q = quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
    with pytest.raises(InvalidPresentation):
        linear_relation(q, [(coef, "ab"), (1, "ba")])


def test_a_bound_below_two_is_rejected():
    # an admissible ideal lies in R^2; a hand-made bound of 1 would put the
    # arrows in the ideal, where the oracle and the structural route disagree;
    # at bound 2 the routes agree: the two arrows are maximal and share nothing
    q = quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    for bound in (1, 0, -3, None, 2.5, "3"):  # the bound is an int too
        with pytest.raises(InvalidPresentation):
            IdealPresentation((), (), bound)
    alg = AlgebraPresentation(q, IdealPresentation((), (), 2))
    verdicts = {route: ump_report(alg, route).is_ump for route in ("auto", "oracle")}
    assert verdicts == dict.fromkeys(verdicts, True)


@pytest.mark.parametrize("zero, linear", [(None, ()), ([5], ()), ((), None), ((), [5])])
def test_an_ideal_presentation_takes_tuples_of_relations(zero, linear):
    with pytest.raises(InvalidPresentation):
        IdealPresentation(zero, linear, 2)


@pytest.mark.parametrize("field", ["quiver", "ideal"])
def test_an_algebra_presentation_takes_a_quiver_and_an_ideal(field):
    q = quiver(["1", "2"], [("a", "1", "2")])
    fields = {"quiver": q, "ideal": IdealPresentation((), (), 2), field: None}
    with pytest.raises(InvalidPresentation):
        AlgebraPresentation(**fields)


@pytest.mark.parametrize("cap", [None, 2.5, "8", True, 1])
def test_a_cap_that_is_no_int_of_at_least_two_is_rejected(cap):
    q = quiver(["1"], [("a", "1", "1")])
    with pytest.raises(InvalidPresentation):
        algebra(q, [zero_relation(q, "aa")], [], cap=cap)


def test_relations_must_come_as_lists_of_relations():
    q = quiver(["1"], [("a", "1", "1")])
    for zero, linear in ((None, []), ([5], []), ([], [5]), ([], None)):
        with pytest.raises(InvalidPresentation):
            algebra(q, zero, linear)


def test_relation_terms_must_be_paths_of_the_quiver():
    q = quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2")])
    zero = [zero_relation(q, w) for w in ("ab", "ba", "cb", "bc")]
    # aa and cc are no paths of q: a relation on them must not pass as an
    # identification and make the ideal look non-monomial
    bogus = LinearRelation((Fraction(1), Fraction(-1)), (Path(("a", "a"), "1", "2"), Path(("c", "c"), "1", "2")))
    with pytest.raises(InvalidPresentation):
        algebra(q, zero, [bogus])
    with pytest.raises(InvalidPresentation):
        admissibility_bound(q, zero, [bogus])
    with pytest.raises(UnknownLabel):
        algebra(q, [ZeroRelation(Path(("a", "x"), "1", "2"))])
    with pytest.raises(InvalidPresentation):  # ab runs 1 -> 1
        algebra(q, [ZeroRelation(Path(("a", "b"), "1", "2"))])
    with pytest.raises(InvalidPresentation):
        algebra(q, zero, [LinearRelation((Fraction(1), Fraction(1)), (Path(("a", "b"), "1", "2"),
                                                                        Path(("c", "b"), "1", "2")))])
    assert algebra(q, zero).is_monomial


def test_linear_relation_normalization():
    q = quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
    rel = linear_relation(q, [(2, "bb"), (-2, "aa")])
    assert rel.paths == (q.path("aa"), q.path("bb"))
    assert rel.coefficients == (Fraction(1), Fraction(-1))
    assert str(rel) == "aa - bb"


def test_admissibility_bounds_of_examples():
    assert cycle_fork_tail().bound == 4
    assert two_loops_line().bound == 4
    assert petal_hub().bound == 7
    assert loop_spur().bound == 4
    assert chord_cycle_monomial().bound == 5
    assert chord_cycle_identified().bound == 5
    assert loop_meets_twocycle().bound == 3


def test_admissibility_trivial_cases():
    acyclic = quiver(["1", "2"], [("a", "1", "2")])
    assert admissibility_bound(acyclic) == 2
    no_arrows = quiver(["1"], [])
    assert admissibility_bound(no_arrows) == 2


def test_longest_avoiding_rejects_a_zero_path_shorter_than_two():
    # on the line 1 -a-> 2 -b-> 3 the longest path that the zero path a does
    # not divide is b, of length 1, and a trivial path divides every path;
    # the automaton read neither, so it refuses both, as ZeroRelation does
    q = quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert longest_avoiding(q, [q.path("ab")], 10) == 1
    for short in (q.path("a"), Path((), "1", "1")):
        with pytest.raises(InvalidPresentation):
            ZeroRelation(short)
        with pytest.raises(InvalidPresentation):
            longest_avoiding(q, [short], 10)
        with pytest.raises(InvalidPresentation):
            longest_avoiding(q, iter([q.path("ab"), short]), 10)


def test_unbounded_cycle_is_rejected():
    loop = quiver(["1"], [("a", "1", "1")])
    with pytest.raises(NotAdmissible) as err:
        admissibility_bound(loop, cap=10)
    assert err.value.cap == 10
    with pytest.raises(NotAdmissible):
        algebra(loop, cap=10)


class _Listed(Exception):
    pass


def test_a_non_admissible_identification_is_refused_without_listing_its_paths(monkeypatch):
    # loops x and y with xx = yy alone: every path alternating x and y lies
    # outside I, and the stage walk would list all 2^L paths of length L
    q = quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
    in_ideal = _Engine.in_ideal
    calls = []

    def counted(self, p):
        calls.append(p)
        if len(calls) > 2000:
            raise _Listed("the stage walk lists the paths outside I")
        return in_ideal(self, p)

    monkeypatch.setattr(_Engine, "in_ideal", counted)
    with pytest.raises(NotAdmissible) as err:
        algebra(q, [], [linear_relation(q, [(1, "xx"), (-1, "yy")])])
    assert err.value.cap == 64


def test_membership_monomial():
    A = cycle_fork_tail()
    q = A.quiver
    assert not path_in_ideal(A, q.path("dab"))
    assert path_in_ideal(A, q.path("abc"))
    assert path_in_ideal(A, q.path("cd"))
    assert path_in_ideal(A, q.path("dabc"))  # length 4 hits the bound
    assert path_in_ideal(A, q.path("dabce"))
    assert not path_in_ideal(A, q.path("e"))
    for ask in (path_in_ideal, coset_paths):
        with pytest.raises(TrivialPath):
            ask(A, Path((), "1", "1"))


def test_membership_with_identifications():
    A = two_loops_line()
    q = A.quiver
    assert not path_in_ideal(A, q.path("aa"))
    assert path_in_ideal(A, q.path("aaa"))
    assert path_in_ideal(A, q.path("bbb"))
    assert path_in_ideal(A, q.path("ab"))
    assert not path_in_ideal(A, q.path("cde"))
    for ask in (path_in_ideal, coset_paths):
        with pytest.raises(TrivialPath):
            ask(A, Path((), "1", "1"))

    B = loop_meets_twocycle()
    qb = B.quiver
    assert not path_in_ideal(B, qb.path("aa"))
    assert not path_in_ideal(B, qb.path("bc"))
    assert not path_in_ideal(B, qb.path("cb"))
    assert path_in_ideal(B, qb.path("aaa"))
    assert path_in_ideal(B, qb.path("bcb"))
    assert path_in_ideal(B, qb.path("cbc"))


def test_coset_paths():
    A = two_loops_line()
    q = A.quiver
    assert coset_paths(A, q.path("aa")) == {q.path("aa"), q.path("bb")}
    assert coset_paths(A, q.path("cde")) == {q.path("cde")}
    with pytest.raises(PathInIdeal):
        coset_paths(A, q.path("ab"))

    B = chord_cycle_identified()
    qb = B.quiver
    gd = qb.path(["gm", "dl"])
    abd = qb.path(["al", "bt", "dl"])
    assert coset_paths(B, gd) == {gd, abd}
    egd = qb.path(["ep", "gm", "dl"])
    eabd = qb.path(["ep", "al", "bt", "dl"])
    assert coset_paths(B, egd) == {egd, eabd}

    C = loop_meets_twocycle()
    qc = C.quiver
    assert coset_paths(C, qc.path("aa")) == {qc.path("aa"), qc.path("bc")}
    assert coset_paths(C, qc.path("cb")) == {qc.path("cb")}


def test_zero_divisor():
    q = quiver(["1", "2"], [("a", "1", "1"), ("b", "1", "2"), ("c", "2", "2")])
    divisible, ends = zero_divisor([q.path("ab"), q.path("aaa")])
    assert divisible(q.path("ab"))
    assert divisible(q.path("abcc"))  # relation at the start
    assert divisible(q.path("aab"))  # relation at the end
    assert divisible(q.path("aaaa"))  # overlapping windows
    assert divisible(q.path("aaab"))  # windows of both lengths match
    assert not divisible(q.path("aa"))
    assert not divisible(q.path("bccc"))
    assert not divisible(q.path("b"))  # shorter than every relation
    # the shortest relation ending inside the sequence, or its length + 1
    assert ends(tuple("aaab")) == [3, 5, 4, 5]
    assert ends(tuple("aab")) == [4, 3, 4]
    assert ends(()) == []
    never, nowhere = zero_divisor([])
    assert not never(q.path("ab"))
    assert not never(q.path("aaab"))
    assert nowhere(tuple("aaab")) == [5] * 4


_WORDS = st.text(alphabet="abc", min_size=1, max_size=4).map(tuple)


@st.composite
def _relation_sets_and_paths(draw):
    """Arrow sequences on the loops a, b, c at one vertex, with prefixes and
    extensions of each other, so that they share first arrows and one can
    be a prefix of another, and a path that often strings several of them
    together, so that their windows overlap."""
    base = draw(st.lists(_WORDS, max_size=5))
    words = list(base)
    for w in base:
        if draw(st.booleans()):
            words.append(w[:draw(st.integers(1, len(w)))])
        if draw(st.booleans()):
            words.append(w + draw(_WORDS))
    glue = st.text(alphabet="abc", max_size=2).map(tuple)
    pieces = st.sampled_from(words) if words else glue
    path = tuple(a for piece in draw(st.lists(st.one_of(pieces, glue), max_size=5)) for a in piece)
    return words, path


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_relation_sets_and_paths())
# every word is longer than the path, and some start like it, so each
# window of such a length runs past the end of the path
@example(([tuple("abc"), tuple("aba"), tuple("bca"), tuple("aaaa")], tuple("ab")))
def test_zero_divisor_matches_a_scan_of_every_window(case):
    words, w = case
    divisible, _ = zero_divisor(Path(z, "1", "1") for z in words)
    assert divisible(Path(w, "1", "1")) == any(occurrences(z, w) for z in words)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_relation_sets_and_paths())
@example(([tuple("abc"), tuple("aba"), tuple("bca"), tuple("aaaa")], tuple("ab")))
# a longer word shares its start with a shorter one that ends only at the last arrow
@example(([tuple("aab"), tuple("a"), tuple("ab")], tuple("cab")))
def test_zero_occurrence_ends_match_a_scan_of_every_window(case):
    words, w = case
    _, ends = zero_divisor(Path(z, "1", "1") for z in words)
    n = len(w)
    # at each position, the end of the shortest word starting there that ends inside w
    expected = [min((i + len(z) for z in words if i in occurrences(z, w)), default=n + 1) for i in range(n)]
    assert ends(w) == expected


def test_live_paths_enumeration():
    B = loop_meets_twocycle()
    qb = B.quiver
    got = set(live_paths(B))
    assert got == {qb.path(w) for w in ("a", "b", "c", "aa", "bc", "cb")}


def test_minimalize_drops_divisible_monomial():
    q = quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    short = zero_relation(q, "ab")
    longer = zero_relation(q, "abc")
    assert minimalize_relations(q, [short, longer], [], bound=3) == ((short,), ())


def test_minimalize_drops_twins_and_multiples_of_a_suffix():
    q = quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    first, twin = zero_relation(q, "bc"), zero_relation(q, "bc")
    longer = zero_relation(q, "abc")
    zs, ls = minimalize_relations(q, [first, longer, twin], [], bound=3)
    assert len(zs) == 1 and zs[0] is twin
    assert ls == ()


def test_minimalize_drops_power_implied_by_identification():
    # with aa identified to bb and mixed products zero, the cube of the loop
    # is already inside the ideal, so listing it separately is redundant
    q = two_loops_line().quiver
    zero = [zero_relation(q, w) for w in ("ab", "ac", "ba", "bc", "ed")]
    cube = zero_relation(q, "aaa")
    lin = [linear_relation(q, [(1, "aa"), (-1, "bb")])]
    built = algebra(q, zero + [cube], lin)
    assert built == two_loops_line()
    assert minimalize_relations(q, zero + [cube], lin, bound=4) == (tuple(zero), tuple(lin))


def test_minimalize_keeps_lone_power():
    q = quiver(["1"], [("a", "1", "1")])
    cube = zero_relation(q, "aaa")
    assert minimalize_relations(q, [cube], [], bound=3) == ((cube,), ())


def test_minimalize_checks_its_input_as_admissibility_bound_does():
    q = quiver(["1"], [("a", "1", "1")])
    cube = zero_relation(q, "aaa")
    for args in ((None, [cube], [], 3), (q, ["aaa"], [], 3), (q, {cube}, [], 3), (q, [cube], (cube,), 3)):
        with pytest.raises(InvalidPresentation):
            minimalize_relations(*args)
    for bound in ("x", 1, None):
        with pytest.raises(InvalidPresentation, match="bound"):
            minimalize_relations(q, [cube], [], bound)
    with pytest.raises(UnknownLabel):
        minimalize_relations(q, [ZeroRelation(Path(("a", "x"), "1", "1"))], [], 3)


def test_minimalize_is_idempotent():
    A = petal_hub()
    assert minimalize_relations(A.quiver, A.ideal.zero, A.ideal.linear, A.bound) == (A.ideal.zero, A.ideal.linear)


def test_special_multiserial_detection():
    assert is_special_multiserial(cycle_fork_tail())
    assert is_special_multiserial(two_loops_line())
    assert is_special_multiserial(petal_hub())
    assert is_special_multiserial(loop_meets_twocycle())

    res = is_special_multiserial(loop_spur())
    assert not res
    assert res.witness.arrow == "a"
    assert res.witness.side == "right"
    assert set(res.witness.pair) == {"a", "d"}

    res1 = is_special_multiserial(chord_cycle_monomial())
    assert not res1
    res2 = is_special_multiserial(chord_cycle_identified())
    assert not res2


def test_special_multiserial_left_witness():
    # every arrow has one nonzero successor at most, but a has two nonzero
    # predecessors, listed in arrows_into order: d before c
    q = quiver(["1", "2", "3", "4"], [("a", "3", "4"), ("d", "2", "3"), ("c", "1", "3")])
    res = is_special_multiserial(algebra(q))
    assert not res
    assert res.witness.arrow == "a"
    assert res.witness.side == "left"
    assert res.witness.pair == ("d", "c")
    assert str(res.witness) == "a has nonzero compositions da and ca"


def test_arrow_membership_and_lengths():
    A = petal_hub()
    q = A.quiver
    for a in q.arrows:
        assert not path_in_ideal(A, q.path([a.id]))
    # the long survivor of length six, one shy of the bound
    assert not path_in_ideal(A, q.path("bcdabc"))
    assert path_in_ideal(A, q.path("bcdabcd"))
    assert path_in_ideal(A, q.path("abcda"))
    assert path_in_ideal(A, q.path("dabcd"))
    assert not path_in_ideal(A, q.path("abcd"))
    assert coset_paths(A, q.path("abcd")) == {q.path("abcd"), q.path("ef")}


def test_a_path_at_the_bound_has_no_coset():
    A = petal_hub()
    p = A.quiver.path("bcdabcd")  # length 7 = bound: in the ideal, as a dead path
    assert path_in_ideal(A, p)
    with pytest.raises(PathInIdeal):
        coset_paths(A, p)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_coset_paths_raises_exactly_in_the_ideal(name):
    A = ALL_FIXTURES[name]()
    for p in paths_up_to(A.quiver, A.bound):  # dead paths included
        if path_in_ideal(A, p):
            with pytest.raises(PathInIdeal):
                coset_paths(A, p)
        else:
            assert p in coset_paths(A, p)


def test_queries_share_one_engine():
    A = two_loops_line()
    q = A.quiver
    assert not path_in_ideal(A, q.path("aa"))
    eng = A._engine
    coset_paths(A, q.path("aa"))
    coset_paths(A, q.path("cde"))
    live_paths(A)
    assert path_in_ideal(A, q.path("bbb"))
    assert A._engine is eng


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_equal_copies_build_their_own_engine(name):
    A = ALL_FIXTURES[name]()
    live = live_paths(A)  # builds A's engine before the copies are taken
    special = is_special_multiserial(A)  # its special multiserial decision
    after = A._after  # and its table of nonzero compositions
    copies = [AlgebraPresentation(A.quiver, A.ideal), pickle.loads(pickle.dumps(A)), copy.copy(A)]
    for B in copies:
        assert B == A
        assert "_engine" not in vars(B) and "_after" not in vars(B) and "_special" not in vars(B)
        assert B._engine is not A._engine
        assert B._after == after
        assert is_special_multiserial(B) == special
        assert [path_in_ideal(B, p) for p in live] == [path_in_ideal(A, p) for p in live]
        outside = [p for p in live if not path_in_ideal(A, p)]
        assert [coset_paths(B, p) for p in outside] == [coset_paths(A, p) for p in outside]


def test_engine_leaves_equality_and_hash_alone():
    A, B = two_loops_line(), two_loops_line()
    before = (hash(A), repr(A))
    assert path_in_ideal(A, A.quiver.path("aaa"))
    assert A == B and B == A
    assert (hash(A), repr(A)) == before == (hash(B), repr(B))


def test_engine_dies_with_its_presentation():
    A = two_loops_line()
    assert not path_in_ideal(A, A.quiver.path("aa"))
    ref = weakref.ref(A._engine)
    del A
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_queries_agree_with_the_block(name):
    # the reference spans a block from every live path, term-free and lone
    # ones included, with no shortcut of the engine's; the engine keeps a
    # block as its normal forms only, and its reduced rows, which
    # induced_algebra reads back off them (negated), are the reference's: a
    # member whose normal form is not itself is a pivot, its row the member
    # less its normal form
    A = ALL_FIXTURES[name]()
    eng = AlgebraPresentation(A.quiver, A.ideal)._engine
    for p in live_paths(A):
        members, basis = quiverump.ideal._span((p,), eng.copies, eng.dead)
        nf = {m: normal_key(basis, {m: Fraction(1)}) for m in members}
        key = nf[p]
        assert path_in_ideal(A, p) == (key == ())
        if key == ():
            with pytest.raises(PathInIdeal):
                coset_paths(A, p)
        else:
            assert coset_paths(A, p) == {m for m in members if nf[m] == key}
        blk = A._engine.block(p)
        if blk is not None:
            rows = {m: {m: Fraction(1), **{k: -v for k, v in form}}
                    for m, form in blk.items() if form != ((m, Fraction(1)),)}
            assert rows == basis.rows, p


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_term_free_paths_build_no_block(name):
    A = ALL_FIXTURES[name]()
    terms = [t.arrows for rel in A.ideal.linear for t in rel.paths]
    live = live_paths(A)
    for p in live:
        if not path_in_ideal(A, p):
            coset_paths(A, p)
    blocks = A._engine._blocks
    assert bool(blocks) == bool(A.ideal.linear)
    for p in live:
        if not any(occurrences(t, p.arrows) for t in terms):
            assert p not in blocks


def _brauer_tree():
    g = brauer_graph([("u", 2), ("v", 3), ("w", 2)], [("e", "u", "v"), ("f", "v", "w")])
    return brauer_algebra(g).algebra


WITH_BRAUER_TREE = {**ALL_FIXTURES, "brauer_tree": _brauer_tree}


@pytest.mark.parametrize("name", sorted(WITH_BRAUER_TREE))
def test_lone_paths_build_no_block(name, monkeypatch):
    # a path whose relation copies have only dead siblings is its own
    # block and lies in I: no span is ever grown from it, and its block is
    # the one row of the path alone
    A = WITH_BRAUER_TREE[name]()
    span = quiverump.ideal._span
    lone = []

    def watched(seeds, copies, dead):
        members, basis = span(seeds, copies, dead)
        (p,) = seeds  # A is built: only an engine spans, from one path
        if members == {p} and not basis.reduce({p: Fraction(1)}):
            lone.append(p)
        return members, basis

    monkeypatch.setattr(quiverump.ideal, "_span", watched)
    ump_report(A, "auto")
    ump_bruteforce(A)
    for p in live_paths(A):
        if not path_in_ideal(A, p):
            coset_paths(A, p)
    assert lone == []
    one_row = [p for p, blk in A._engine._blocks.items() if blk == {p: ()}]
    for p in one_row:  # each is lone indeed
        members, basis = span((p,), A._engine.copies, A._engine.dead)
        assert members == {p} and not basis.reduce({p: Fraction(1)})
    if name == "brauer_tree":
        assert one_row


def _dead_sibling_relations():
    # the block of ad reaches bd, whose other copy has the dead sibling ce
    q = quiver(["1", "2", "3", "4", "5"], [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "3"),
                                           ("d", "2", "4"), ("e", "3", "4"), ("f", "4", "5")])
    return q, [zero_relation(q, "ce")], [linear_relation(q, [(1, "ce"), (2, "bd")]),
                                         linear_relation(q, [(1, "ad"), (-2, "bd")])]


def _dead_sibling():
    # unrewritten: algebra() kills ce, then bd, then ad, and leaves no block
    return unrewritten(*_dead_sibling_relations())


WITH_DEAD_SIBLING = {**WITH_BRAUER_TREE, "dead_sibling": _dead_sibling}


@pytest.mark.parametrize("name", sorted(WITH_DEAD_SIBLING))
def test_block_cache_holds_live_paths_whatever_the_query_order(name):
    A = WITH_DEAD_SIBLING[name]()
    if name == "dead_sibling":
        assert A.ideal.linear
    check_block_cache(A)


# -- algebra() reduces the identifications modulo the zero relations -----------


@pytest.mark.parametrize("name", sorted(WITH_DEAD_SIBLING))
def test_zero_reduction_keeps_the_ideal_of_every_fixture(name):
    A = WITH_DEAD_SIBLING[name]()
    check_zero_reduction(A.quiver, list(A.ideal.zero), list(A.ideal.linear))


def _square():
    # two routes from 1 to 4, ab and cd, a third one ef, and g after them
    return quiver(["1", "2", "3", "4", "5", "6"], [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"),
                                                   ("d", "3", "4"), ("e", "1", "5"), ("f", "5", "4"),
                                                   ("g", "4", "6")])


def _one_dead_term(q):
    return [zero_relation(q, "cd")], [linear_relation(q, [(1, "ab"), (-1, "cd")])]


def _every_term_dead(q):
    return [zero_relation(q, "ab"), zero_relation(q, "cd")], [linear_relation(q, [(1, "ab"), (2, "cd")])]


def _chained_kill(q):
    # cd kills a term of the second relation, which makes ab zero, which
    # kills a term of the first on a second pass: efg is zero too
    return [zero_relation(q, "cd")], [linear_relation(q, [(1, "abg"), (-1, "efg")]),
                                      linear_relation(q, [(1, "ab"), (-1, "cd")])]


def _three_terms_lose_one(q):
    # the dead term ab leads, so the two left are renormalised
    return [zero_relation(q, "ab")], [linear_relation(q, [(2, "ab"), (4, "cd"), (-2, "ef")])]


ZERO_REDUCTIONS = {
    # case: (relations, the zero and linear relations algebra() keeps)
    "one dead term": (_one_dead_term, {"ab", "cd"}, []),
    "every term dead": (_every_term_dead, {"ab", "cd"}, []),
    "chained kill": (_chained_kill, {"ab", "cd", "efg"}, []),
    "three terms lose one": (_three_terms_lose_one, {"ab"}, [((Fraction(1), "cd"), (Fraction(-1, 2), "ef"))]),
}


@pytest.mark.parametrize("case", sorted(ZERO_REDUCTIONS))
def test_zero_reduction_cases(case):
    relations, zero, linear = ZERO_REDUCTIONS[case]
    q = _square()
    A = check_zero_reduction(q, *relations(q))
    assert {"".join(p.arrows) for p in A.ideal.zero_paths} == zero
    assert [tuple((c, "".join(p.arrows)) for c, p in r.terms()) for r in A.ideal.linear] == linear
    assert unrewritten(q, *relations(q)).ideal.linear


def test_zero_reduction_comes_after_the_checks_of_every_term():
    # a zero relation divides each bad term, so a reduction ahead of the
    # checks would drop it unseen
    q = quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2")])
    zero = [zero_relation(q, "ab")]
    for bogus, error in ((Path(("a", "b", "c", "c"), "1", "2"), InvalidPresentation),
                         (Path(("a", "b", "x"), "1", "2"), UnknownLabel)):
        rel = LinearRelation((Fraction(1), Fraction(-1)), (bogus, q.path("cbc")))
        for build in (admissibility_bound, algebra):
            with pytest.raises(error):
                build(q, zero, [rel])


def test_algebra_checks_its_input_once(monkeypatch):
    calls = []
    check = quiverump.ideal._check_presentation

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(quiverump.ideal, "_check_presentation", counted)
    A = algebra(*_dead_sibling_relations())
    assert len(calls) == 1 and A.is_monomial


@pytest.mark.parametrize("name", sorted(WITH_BRAUER_TREE))
def test_repeated_queries_of_a_block_member_scan_no_window(name, monkeypatch):
    A = WITH_BRAUER_TREE[name]()
    eng = A._engine
    for p in live_paths(A):
        path_in_ideal(A, p)
    cached = list(eng._blocks)
    assert bool(cached) == bool(A.ideal.linear)
    scans = count_window_scans(monkeypatch, eng)
    for p in cached:
        if not path_in_ideal(A, p):
            coset_paths(A, p)
    assert scans == {"zero": [], "ends": [], "copies": []}


def test_queries_and_routes_reject_what_is_no_path_or_algebra():
    A = petal_hub()
    for warm in (False, True):  # before any block is cached, and after
        if warm:
            ump_report(A)
        with pytest.raises(InvalidPresentation):
            path_in_ideal(A, "ab")
        with pytest.raises(InvalidPresentation):
            coset_paths(A, ("a", "b"))
    for route in ROUTES:
        with pytest.raises(InvalidPresentation):
            ump_report(None, route)
    with pytest.raises(InvalidPresentation):
        ump_bruteforce(None)


def test_components_and_brauer_entries_reject_what_is_no_algebra_or_graph():
    for bad in (None, "ab"):
        for entry in (is_special_multiserial, components):
            with pytest.raises(InvalidPresentation):
                entry(bad)
        for entry in (brauer_algebra, classify, brauer_dimension):
            with pytest.raises(InvalidPresentation):
                entry(bad)


@pytest.mark.parametrize("entry, rest", [
    pytest.param(entry, rest, id=entry.__name__) for entry, rest in [
        (algebra, ()), (admissibility_bound, ()), (longest_avoiding, ((), 64)), (omega_map, ()),
        (ramifications_graph, ()), (live_paths, ()), (nonzero_paths, ()), (maximal_paths, ()),
        (maximal_classes, ()), (global_basis, ()), (dimension_bruteforce, ()), (quick_non_ump, ()),
    ]
])
@pytest.mark.parametrize("bad", [None, "ab"])
def test_entries_reject_what_is_no_quiver_or_algebra(entry, rest, bad):
    with pytest.raises(InvalidPresentation):
        entry(bad, *rest)


class _Walked(Exception):
    pass


def _no_engine(*args, **kwargs):
    raise _Walked("a monomial presentation built a membership engine")


def test_monomial_presentations_build_without_an_engine(monkeypatch):
    monomial = [name for name, build in sorted(ALL_FIXTURES.items()) if build().is_monomial]
    expected = {name: ALL_FIXTURES[name]() for name in monomial}
    monkeypatch.setattr(quiverump.ideal, "_Engine", _no_engine)
    assert monomial
    for name in monomial:
        assert ALL_FIXTURES[name]() == expected[name]  # relations and bound
    loops = quiver(["1"], [(f"a{i}", "1", "1") for i in range(6)])
    with pytest.raises(NotAdmissible) as err:
        algebra(loops, [zero_relation(loops, [f"a{i}", f"a{i}"]) for i in range(6)])
    assert err.value.cap == 64


@pytest.mark.parametrize("name", sorted(WITH_BRAUER_TREE))
def test_stage_engines_share_the_indexes_and_agree_with_fresh_ones(name):
    A = WITH_BRAUER_TREE[name]()
    zero, linear = A.ideal.zero_paths, A.ideal.linear
    base = A._engine
    live = live_paths(A)
    for p in live:
        path_in_ideal(A, p)  # the stages must not read the base's caches
    stages = {}
    for p in paths_up_to(A.quiver, A.bound):
        for bound in (len(p) + 1, A.bound):
            stage = stages.get(bound)
            if stage is None:
                stage = stages[bound] = base.truncated(bound)
                assert stage.zero_divisible is base.zero_divisible
                assert stage.zero_ends is base.zero_ends
                assert stage.copies is base.copies
                assert stage._blocks is not base._blocks
            assert stage.in_ideal(p) == _Engine(zero, linear, bound).in_ideal(p), (p, bound)
    assert [path_in_ideal(A, p) for p in live] == [base.in_ideal(p) for p in live]


class _Builds:
    """Counts the calls of the index constructors it wraps."""

    def __init__(self, monkeypatch):
        self.calls = {"zero_divisor": 0, "_copy_index": 0}
        for name in self.calls:
            monkeypatch.setattr(quiverump.ideal, name, self._counted(name, getattr(quiverump.ideal, name)))

    def _counted(self, name, build):
        def counted(*args):
            self.calls[name] += 1
            return build(*args)
        return counted


@pytest.mark.parametrize("name", ["two_loops_line", "petal_hub", "brauer_tree"])
def test_admissibility_stages_index_each_relation_set_once(name, monkeypatch):
    A = WITH_BRAUER_TREE[name]()
    builds = _Builds(monkeypatch)
    assert admissibility_bound(A.quiver, A.ideal.zero, A.ideal.linear) == A.bound
    assert A.bound >= 4  # several stages
    # one window index of the zero relations and one copy index of the terms
    assert builds.calls == {"zero_divisor": 1, "_copy_index": 1}


IDENTIFIED = sorted(name for name, build in ALL_FIXTURES.items() if build().ideal.linear)


@pytest.mark.parametrize("name", sorted(WITH_BRAUER_TREE))
def test_algebra_hands_over_the_walk_engine_at_its_bound(name):
    # a presentation that keeps every relation gets the bound walk's stage
    # engine at its bound, blocks spanned; a monomial one runs no engine,
    # and a Brauer build runs no walk
    A = WITH_BRAUER_TREE[name]()
    eng = vars(A).get("_engine")
    assert (eng is not None) == (name in IDENTIFIED)
    if eng is None:
        return
    assert eng.bound == A.bound and eng.linear == A.ideal.linear and eng._blocks
    fresh = AlgebraPresentation(A.quiver, A.ideal)._engine
    for p, blk in eng._blocks.items():  # each block the walk cached is the fresh engine's
        assert blk == fresh.block(p), p
    paths = paths_up_to(A.quiver, A.bound)
    assert [eng.in_ideal(p) for p in paths] == [fresh.in_ideal(p) for p in paths]


class _Spans:
    """The blocks engines span from now on, as (bound, members)."""

    def __init__(self, monkeypatch):
        self.blocks = []
        spanned = _Engine._spanned

        def watched(eng, p):
            blk = spanned(eng, p)
            self.blocks.append((eng.bound, frozenset(blk)))
            return blk

        monkeypatch.setattr(_Engine, "_spanned", watched)


@pytest.mark.parametrize("name", IDENTIFIED)
def test_auto_spans_no_block_the_walk_spanned(name, monkeypatch):
    spans = _Spans(monkeypatch)
    A = ALL_FIXTURES[name]()
    walked = {blk for bound, blk in spans.blocks if bound == A.bound}
    spans.blocks.clear()
    ump_report(A, "auto")
    assert not walked & {blk for _, blk in spans.blocks}
    assert all(bound == A.bound for bound, _ in spans.blocks)


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_algebra_indexes_the_relation_terms_once(name, monkeypatch):
    # the bound walk's stage engines and the minimalisation share one copy index
    builds = _Builds(monkeypatch)
    A = ALL_FIXTURES[name]()
    assert builds.calls["_copy_index"] == bool(A.ideal.linear)


def _redundant_relations(kind):
    # the two loops of two_loops_line with mixed products zero and aa = bb:
    # the cube aaa is implied by them, and a relation twice over by the other
    q = two_loops_line().quiver
    zero = [zero_relation(q, w) for w in ("ab", "ac", "ba", "bc", "ed")]
    lin = [linear_relation(q, [(1, "aa"), (-1, "bb")])]
    if kind == "zero":
        return q, zero + [zero_relation(q, "aaa")], lin
    return q, zero, lin + [linear_relation(q, [(2, "aa"), (-2, "bb")])]


@pytest.mark.parametrize("kind", ["zero", "linear"])
def test_a_presentation_that_lost_a_relation_builds_its_own_engine(kind, monkeypatch):
    q, zero, linear = _redundant_relations(kind)
    builds = _Builds(monkeypatch)
    A = algebra(q, zero, linear)
    assert len(A.ideal.zero) + len(A.ideal.linear) < len(zero) + len(linear) and A.ideal.linear
    assert "_engine" not in vars(A)
    # a dropped identification rebuilds the minimalisation's copy index only
    assert builds.calls["_copy_index"] == 1 + (kind == "linear")
    check_zero_reduction(q, zero, linear)


def test_minimalize_rebuilds_an_index_only_after_a_drop(monkeypatch):
    q = two_loops_line().quiver
    zero = [zero_relation(q, w) for w in ("ab", "ac", "ba", "bc", "ed", "aaa")]
    lin = [
        linear_relation(q, [(1, "aa"), (-1, "bb")]),
        linear_relation(q, [(2, "aa"), (-2, "bb")]),
        linear_relation(q, [(1, "aaa"), (-1, "bba")]),
    ]
    builds = _Builds(monkeypatch)
    zs, ls = minimalize_relations(q, zero, lin, bound=4)
    assert ls == (lin[1],) and zs == tuple(zero[:5])
    assert builds.calls["_copy_index"] <= 1 + len(lin) - len(ls)
    assert builds.calls["zero_divisor"] <= 1 + len(zero) - len(zs)
