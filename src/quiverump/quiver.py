"""Finite quivers and the path semigroup.

Paths compose left to right: in the path w = w0 w1 ... wl the arrow w0 is
applied first, so target(w0) = source(w1).  The length of a path is its
number of arrows; trivial paths have length 0 and sit at a single vertex.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InvalidPresentation, NonComposable, UnknownLabel

_LABEL = re.compile(r"[A-Za-z0-9_]+\Z")


def _check_label(label: str, kind: str) -> None:
    if not isinstance(label, str) or not _LABEL.match(label):
        raise InvalidPresentation(f"bad {kind} label {label!r}: use [A-Za-z0-9_]+")


@dataclass(frozen=True)
class Vertex:
    id: str

    def __post_init__(self):
        _check_label(self.id, "vertex")


@dataclass(frozen=True)
class Arrow:
    id: str
    source: str
    target: str

    def __post_init__(self):
        _check_label(self.id, "arrow")


class Path(namedtuple("Path", "arrows source target")):
    """A path, stored as its arrow id sequence plus both endpoints.

    Trivial paths have an empty arrow tuple and equal endpoints.  A path
    is an immutable tuple (arrows, source, target): it compares equal to
    that plain tuple, hashes like it and sorts like it.  So equality is
    by value, which for non-trivial paths of one quiver reduces to the
    arrow sequence and for trivial paths to the base vertex, and hashing
    and comparison run in C, as every cache keyed by paths needs.  A
    field read costs more than a local name, so a loop that reads a
    field often binds it once.  len() counts the arrows, so a trivial
    path is falsy.
    """

    __slots__ = ()

    # namedtuple's _make, which _replace calls, checks len(), the arrow count here
    _make = classmethod(tuple.__new__)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)

    def __str__(self) -> str:
        if not self.arrows:
            return f"e({self.source})"
        if all(len(a) == 1 for a in self.arrows):
            return "".join(self.arrows)
        return ".".join(self.arrows)


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[Vertex, ...]
    arrows: tuple[Arrow, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, default=None)
    _out: dict = field(init=False, repr=False, compare=False, default=None)
    _in: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # labels were checked when the vertices and arrows were made
        vids = set()
        for v in self.vertices:
            if v.id in vids:
                raise InvalidPresentation(f"duplicate vertex id {v.id!r}")
            vids.add(v.id)
        by_id: dict[str, Arrow] = {}
        out: dict[str, list[Arrow]] = {v.id: [] for v in self.vertices}
        inc: dict[str, list[Arrow]] = {v.id: [] for v in self.vertices}
        for a in self.arrows:
            if a.id in by_id:
                raise InvalidPresentation(f"duplicate arrow id {a.id!r}")
            if a.id in vids:
                raise InvalidPresentation(f"label {a.id!r} used for both a vertex and an arrow")
            if a.source not in vids or a.target not in vids:
                raise UnknownLabel(f"arrow {a.id!r} has undeclared endpoint")
            by_id[a.id] = a
            out[a.source].append(a)
            inc[a.target].append(a)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_out", {k: tuple(v) for k, v in out.items()})
        object.__setattr__(self, "_in", {k: tuple(v) for k, v in inc.items()})

    # -- lookups ---------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def arrow(self, aid: str) -> Arrow:
        try:
            return self._by_id[aid]
        except KeyError:
            raise UnknownLabel(f"unknown arrow {aid!r}") from None

    def arrows_from(self, vid: str) -> tuple[Arrow, ...]:
        if vid not in self._out:
            raise UnknownLabel(f"unknown vertex {vid!r}")
        return self._out[vid]

    def arrows_into(self, vid: str) -> tuple[Arrow, ...]:
        if vid not in self._in:
            raise UnknownLabel(f"unknown vertex {vid!r}")
        return self._in[vid]

    # -- path constructors -----------------------------------------------

    def path(self, arrow_ids: Iterable[str]) -> Path:
        try:
            ids = tuple(arrow_ids)
        except TypeError:
            raise InvalidPresentation(f"a path is a sequence of arrow ids, got {arrow_ids!r}") from None
        if not ids:
            raise InvalidPresentation("path() needs at least one arrow")
        arrows = [self.arrow(a) for a in ids]
        for x, y in zip(arrows, arrows[1:]):
            if x.target != y.source:
                raise NonComposable(f"{x.id} ends at {x.target}, {y.id} starts at {y.source}")
        return Path(ids, arrows[0].source, arrows[-1].target)

    # -- structural helpers ------------------------------------------------

    def subquiver(self, arrow_ids: Iterable[str]) -> "Quiver":
        """The subquiver on the given arrows and their endpoints."""
        keep = set(arrow_ids)
        arrows = tuple(a for a in self.arrows if a.id in keep)
        missing = keep - {a.id for a in arrows}
        if missing:
            raise UnknownLabel(f"unknown arrows {sorted(missing)}")
        touched = {a.source for a in arrows} | {a.target for a in arrows}
        vertices = tuple(v for v in self.vertices if v.id in touched)
        return Quiver(vertices, arrows)


def quiver(vertices: Iterable[str], arrows: Iterable[tuple[str, str, str]]) -> Quiver:
    """Convenience builder: vertex ids plus (id, source, target) triples."""
    try:
        vids = list(vertices)
    except TypeError:
        raise InvalidPresentation(f"vertices {vertices!r} are no iterable of labels") from None
    try:
        items = list(arrows)
        if any(isinstance(item, str) for item in items):  # it would unpack into its characters
            raise ValueError
        triples = [(a, s, t) for a, s, t in items]
    except (TypeError, ValueError):  # an arrow that does not unpack into three
        raise InvalidPresentation("an arrow is an (id, source, target) triple") from None
    return Quiver(tuple(Vertex(v) for v in vids), tuple(Arrow(*t) for t in triples))


def occurrences(factor: tuple[str, ...], word: tuple[str, ...]) -> list[int]:
    """Start positions of factor inside word, overlapping ones included."""
    k = len(factor)
    return [i for i in range(len(word) - k + 1) if word[i : i + k] == factor]

