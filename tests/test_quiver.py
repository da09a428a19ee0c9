import copy
import pickle

import pytest

import quiverump.quiver
from quiverump.errors import (
    InvalidPresentation,
    NonComposable,
    UnknownLabel,
)
from quiverump.quiver import (
    Arrow,
    Path,
    Vertex,
    occurrences,
    quiver,
)


@pytest.fixture
def cft():
    from fixtures import cycle_fork_tail

    return cycle_fork_tail().quiver


def test_builder_and_lookups(cft):
    assert cft.vertex_ids == ("1", "2", "3", "4", "5", "6", "7")
    assert cft.arrow("e").source == "4" and cft.arrow("e").target == "5"
    assert {a.id for a in cft.arrows_from("4")} == {"d", "e", "f"}
    assert {a.id for a in cft.arrows_into("5")} == {"e", "f"}
    assert len(cft.arrows_from("4")) == 3 and len(cft.arrows_into("5")) == 2


@pytest.mark.parametrize("lookup", ["arrows_from", "arrows_into"])
def test_lookups_reject_an_unknown_vertex(cft, lookup):
    with pytest.raises(UnknownLabel):
        getattr(cft, lookup)("9")


def test_validation_rejects_bad_labels():
    with pytest.raises(InvalidPresentation):
        quiver(["x y"], [])
    with pytest.raises(InvalidPresentation):
        quiver(["1", "1"], [])
    with pytest.raises(InvalidPresentation):
        quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])
    # one label cannot name both a vertex and an arrow
    with pytest.raises(InvalidPresentation):
        quiver(["1", "2"], [("1", "1", "2")])
    with pytest.raises(UnknownLabel):
        quiver(["1"], [("a", "1", "9")])
    # a vertex or an arrow checks its own label when it is made
    with pytest.raises(InvalidPresentation):
        Vertex("x y")
    with pytest.raises(InvalidPresentation):
        Arrow("a b", "1", "2")
    with pytest.raises(InvalidPresentation):
        Vertex("")


def test_an_arrow_that_is_not_a_triple_is_rejected():
    with pytest.raises(InvalidPresentation):
        quiver(["1"], [("a", "1")])
    with pytest.raises(InvalidPresentation):
        quiver(["1"], [("a", "1", "1", "1")])
    with pytest.raises(InvalidPresentation):
        quiver(["1"], [None])
    # a string unpacks into its characters, so "abc" read as a: b -> c
    with pytest.raises(InvalidPresentation):
        quiver(["b", "c"], ["abc"])


def test_a_path_or_vertex_list_that_is_not_iterable_is_rejected(cft):
    with pytest.raises(InvalidPresentation):
        cft.path(5)
    with pytest.raises(InvalidPresentation):
        quiver(None, [])


def test_a_label_that_is_not_a_string_is_a_bad_label():
    with pytest.raises(InvalidPresentation):
        quiver([1, 2], [("a", 1, 2)])
    with pytest.raises(InvalidPresentation):
        quiver(["1", "2"], [(None, "1", "2")])
    with pytest.raises(InvalidPresentation):
        Arrow(b"a", "1", "2")


def test_paths_compose_left_to_right(cft):
    p = cft.path("dab")
    assert p.source == "4" and p.target == "3" and len(p) == 3
    assert str(p) == "dab"
    with pytest.raises(NonComposable):
        cft.path("ba")  # b ends at 3, a starts at 1
    with pytest.raises(UnknownLabel):
        cft.path("az")
    with pytest.raises(InvalidPresentation):
        cft.path([])


def test_trivial_paths():
    t = Path((), "5", "5")
    assert t.is_trivial and len(t) == 0 and str(t) == "e(5)"


def test_a_path_is_a_value(cft):
    p = cft.path("dab")
    fresh = Path(("d", "a", "b"), "4", "3")
    assert p == fresh and hash(p) == hash(fresh) and p is not fresh
    assert p == (("d", "a", "b"), "4", "3") and hash(p) == hash((("d", "a", "b"), "4", "3"))
    assert Path((), "1", "1") != Path((), "2", "2")
    assert len({Path((), "1", "1"), Path((), "2", "2")}) == 2
    for field in ("arrows", "source", "target", "other"):
        with pytest.raises(AttributeError):
            setattr(p, field, ())
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and type(twin) is Path
    assert repr(p) == "Path(arrows=('d', 'a', 'b'), source='4', target='3')"
    assert str(p) == "dab" and len(p) == 3 and p
    assert p._replace(source="9") == Path(("d", "a", "b"), "9", "3")
    t = Path((), "5", "5")  # test_trivial_paths checks its str and len
    assert repr(t) == "Path(arrows=(), source='5', target='5')" and not t


def test_divides_gives_all_occurrence_offsets(cft):
    assert occurrences(cft.path("ab").arrows, cft.path("dabc").arrows) == [1]
    p = cft.path("dabc")
    assert occurrences(p.arrows, p.arrows) == [0]
    assert occurrences(cft.path("gh").arrows, Path((), "5", "5").arrows) == []
    assert occurrences(cft.path("e").arrows, cft.path("dabc").arrows) == []


def test_divides_overlapping_occurrences():
    q = quiver(["1"], [("a", "1", "1")])
    assert occurrences(q.path("aa").arrows, q.path("aaa").arrows) == [0, 1]
    assert occurrences(q.path("a").arrows, q.path("aaa").arrows) == [0, 1, 2]


def test_subquiver(cft):
    sub = cft.subquiver(["f", "g", "h"])
    assert sub.vertex_ids == ("4", "5", "6", "7")
    assert tuple(a.id for a in sub.arrows) == ("f", "g", "h")
    with pytest.raises(UnknownLabel):
        cft.subquiver(["z"])


def test_subquiver_checks_no_label(cft, monkeypatch):
    # the parent's vertices and arrows checked their labels when made
    def checked(label, kind):
        raise AssertionError(f"{kind} label {label!r} checked again")

    monkeypatch.setattr(quiverump.quiver, "_check_label", checked)
    assert tuple(a.id for a in cft.subquiver(["f", "g", "h"]).arrows) == ("f", "g", "h")


def test_path_string_forms():
    q = quiver(["v1", "v2"], [("alpha", "v1", "v2"), ("beta", "v2", "v1")])
    p = q.path(["alpha", "beta", "alpha"])
    assert str(p) == "alpha.beta.alpha"
    assert str(Path((), "v1", "v1")) == "e(v1)"
