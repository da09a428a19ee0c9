"""Admissible ideals of path algebras and exact membership.

An ideal is presented by zero relations (paths) and linear relations
(rational combinations of parallel paths, every term of length >= 2).
Admissibility gives a bound m with R^m contained in the ideal, so all
linear algebra happens in the finite-dimensional truncation spanned by
paths of length < m; arithmetic is exact over Fraction.

For a monomial ideal m comes from the Aho-Corasick automaton of the zero
relations (Aho and Corasick 1975) run along the quiver.  Its states are
pairs of a vertex and the longest suffix of the path so far that is a
proper prefix of a zero relation, so the paths outside the ideal are the
walks through the states, and the longest of them is found state by
state, never path by path.  A reachable cycle of states means paths of
every length survive, so the ideal is not admissible (Ufnarovskii 1982);
the cap on m is then only a ceiling, never a search depth.

algebra() first reduces the linear relations modulo the zero relations:
a term that a zero relation divides lies in the ideal the zero relations
generate, so dropping it changes no relation's class modulo them, nor the
ideal, its bound, membership, cosets or verdicts.  A relation left with
one term becomes a zero relation on it, one left with none goes, and a
new zero relation may kill a term of another, so this repeats until no
term drops.  An ideal whose zero relations kill its identifications then
comes out monomial and takes the monomial path of every layer: the
automaton for its bound, no span in minimalize_relations, and no
membership query for its components.

Membership is decided block-locally: starting from a path, repeatedly
replace an occurrence of one linear-relation term by a sibling term.
The paths reachable that way form the only coordinates its coset can
touch, so a small row reduction per block answers every query.  One pass
over the embedded relation copies finds the block and reduces its rows:
each copy's row brings its columns in as members.  The copies in a path
are listed by one index of the relation terms by first arrow, and
_Engine.block decides a live path's block from one such listing.  A path
with no copy holds no relation term and reaches nothing: it is its own
block, outside the ideal, and none is built.  A lone path holds a term,
but every copy through it has only dead siblings (a zero relation or the
bound kills every other term in its context): each copy's row is the
path alone, so its block is {p: ()}, p in the ideal, and no span is
grown, like a full turn of a Brauer graph algebra extended by one arrow.
Every other path grows its block by the one pass and keeps only its
members' normal forms, read off the reduced echelon rows; the rows can
be read back (a member whose normal form is not itself is a pivot, its
row the member less its normal form).  A block is cached for each
member, and a cached path is live (a span takes in no dead column, and
a block is asked only of a live path), so a membership query asks the
bound, the block cache, the zero windows and the copies, in that order;
a coset query takes the block its membership query has just cached.

Whether a zero relation occurs in a path is asked of a window test,
zero_divisor, that indexes the relation words by first arrow: a path is
read once, and at each arrow only the windows of the lengths that start
there are looked up; the same index lists the shortest zero occurrence
at each position of a word.  An engine holds both tests of its zero
relations and the copy index of its terms, and its truncations, the
stage engines of admissibility_bound, share them; minimalize_relations
keeps one window test and one copy index for all its candidates, built
again only after it drops a relation of their kind.  algebra() indexes
each list of zero relations once and hands the last index on to _bound's
engine and to the unchecked minimalisation.  analysis reads the engine's
lister and copy index too, along a component path.

Paths are grown in one place here, _grow, one layer per length: the
listed coordinates, the identified admissibility bound, and the listing
analysis.induced_algebra reads its ideal off.  The oracle keeps its own
walk, oracle._outside, as the reference.

Each presentation object carries one engine, built on its first query
and freed with it; equal copies build their own.  Its block cache and
the normal forms of a block and their terms are keyed by quiver.Path, a
tuple (arrows, source, target), so every lookup hashes and compares in
C.

Every relation word has length >= 2, so a composable pair ab holds only
itself, and the pair rule (_composing) follows: ab lies in I exactly
when the bound is 2, when ab is a zero relation, or when ab is a term
the engine puts in I, the only pairs asked.  Whether the algebra is
special multiserial is decided once per presentation, beside the engine;
its right pass stops at the witness, and one that holds keeps the table
of the nonzero pairs, the arrows after each arrow in arrows_from order,
for the left pass and omega.saturation_walks: on the decision route no
pair is decided twice, but a caller reading _after before the test has
the test decide its pairs again.  Both are caches like the engine: copies
and pickles leave them behind.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InvalidPresentation,
    NotAdmissible,
    PathInIdeal,
    TrivialPath,
)
from .quiver import Arrow, Path, Quiver


# -- relation types ----------------------------------------------------------


@dataclass(frozen=True)
class ZeroRelation:
    path: Path

    def __post_init__(self):
        if len(self.path) < 2:
            raise InvalidPresentation(f"zero relation {self.path} has length < 2")

    def __str__(self) -> str:
        return str(self.path)


@dataclass(frozen=True)
class LinearRelation:
    """Sum(coefficients[i] * paths[i]) = 0, normalized so the terms are
    sorted by arrow sequence and the first coefficient is 1."""

    coefficients: tuple[Fraction, ...]
    paths: tuple[Path, ...]

    def __post_init__(self):
        if len(self.paths) < 2:
            raise InvalidPresentation("linear relation needs at least two terms")
        if len(self.coefficients) != len(self.paths):
            raise InvalidPresentation("coefficient/term count mismatch")
        if any(c == 0 for c in self.coefficients):
            raise InvalidPresentation("zero coefficient in linear relation")
        if len(set(self.paths)) != len(self.paths):
            raise InvalidPresentation("repeated term in linear relation")
        src = {p.source for p in self.paths}
        tgt = {p.target for p in self.paths}
        if len(src) != 1 or len(tgt) != 1:
            raise InvalidPresentation("linear relation terms must be parallel")
        if any(len(p) < 2 for p in self.paths):
            raise InvalidPresentation("linear relation term of length < 2")

    def terms(self) -> tuple[tuple[Fraction, Path], ...]:
        return tuple(zip(self.coefficients, self.paths))

    def __str__(self) -> str:
        bits = []
        for c, p in self.terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            coef = "" if mag == 1 else f"{mag}*"
            bits.append(f"{sign} {coef}{p}")
        out = " ".join(bits)
        return out[2:] if out.startswith("+ ") else out


def zero_relation(q: Quiver, arrow_ids: Iterable[str]) -> ZeroRelation:
    return ZeroRelation(q.path(arrow_ids))


def linear_relation(q: Quiver, terms: Sequence[tuple[Fraction | int, Iterable[str] | Path]]) -> LinearRelation:
    """Build a normalized linear relation from (coefficient, path) pairs."""
    built: list[tuple[Fraction, Path]] = []
    try:
        terms = list(terms)
    except TypeError:
        raise InvalidPresentation(f"terms {terms!r} are no sequence of (coefficient, path) pairs") from None
    for term in terms:
        try:
            coef, p = term
        except (TypeError, ValueError):
            raise InvalidPresentation(f"term {term!r} is no (coefficient, path) pair") from None
        path = p if isinstance(p, Path) else q.path(p)
        try:
            built.append((Fraction(coef), path))
        except (TypeError, ValueError, OverflowError):  # NaN or infinite floats too
            raise InvalidPresentation(f"coefficient {coef!r} is no rational number") from None
    built.sort(key=lambda t: t[1].arrows)
    # no terms, or a zero lead: LinearRelation rejects the terms as given
    lead = built[0][0] if built and built[0][0] else Fraction(1)
    coeffs = tuple(c / lead for c, _ in built)
    paths = tuple(p for _, p in built)
    return LinearRelation(coeffs, paths)


def _check_relations(zero, linear, containers: tuple[type, ...]) -> None:
    for rels, kind in ((zero, ZeroRelation), (linear, LinearRelation)):
        if not isinstance(rels, containers) or not all(isinstance(r, kind) for r in rels):
            raise InvalidPresentation(f"relations {rels!r} are no "
                                      f"{' or '.join(c.__name__ for c in containers)} of {kind.__name__}")


def _check_type(value, kind: type) -> None:
    if not isinstance(value, kind):
        raise InvalidPresentation(f"{value!r} is no {kind.__name__}")


def _check_at_least_two(value, name: str) -> None:
    # bool is an int, but below 2 anyway
    if not isinstance(value, int) or value < 2:
        raise InvalidPresentation(f"{name} {value!r} is no int of at least 2")


@dataclass(frozen=True)
class IdealPresentation:
    zero: tuple[ZeroRelation, ...]
    linear: tuple[LinearRelation, ...]
    bound: int

    def __post_init__(self):
        _check_relations(self.zero, self.linear, (tuple,))
        _check_at_least_two(self.bound, "bound")  # an admissible ideal lies in R^2

    @property
    def zero_paths(self) -> tuple[Path, ...]:
        return tuple(r.path for r in self.zero)

    @property
    def is_monomial(self) -> bool:
        return not self.linear


@dataclass(frozen=True)
class AlgebraPresentation:
    quiver: Quiver
    ideal: IdealPresentation

    def __post_init__(self):
        if not isinstance(self.quiver, Quiver) or not isinstance(self.ideal, IdealPresentation):
            raise InvalidPresentation("an algebra presentation is a Quiver and an IdealPresentation")

    @property
    def bound(self) -> int:
        return self.ideal.bound

    @property
    def is_monomial(self) -> bool:
        return self.ideal.is_monomial

    @cached_property
    def _engine(self) -> _Engine:
        return _Engine(self.ideal.zero_paths, self.ideal.linear, self.bound)

    @cached_property
    def _length2(self) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
        # the arrow pairs of the length-2 zero relations and linear-relation terms
        return ({r.path.arrows for r in self.ideal.zero if len(r.path) == 2},
                {t.arrows for r in self.ideal.linear for t in r.paths if len(t) == 2})

    def _composing(self, a: Arrow, after: Iterable[Arrow]) -> Iterator[str]:
        """The arrows b of after, each composable after a, with ab outside I, by the pair rule."""
        if self.ideal.bound > 2:
            zero, terms = self._length2
            for b in after:
                w = (a.id, b.id)
                if w not in zero and (w not in terms or not self._engine.in_ideal(Path(w, a.source, b.target))):
                    yield b.id

    @cached_property
    def _after(self) -> dict[str, tuple[str, ...]]:
        """The arrows composing nonzero after each arrow, in arrows_from order."""
        return {a.id: tuple(self._composing(a, self.quiver.arrows_from(a.target))) for a in self.quiver.arrows}

    @cached_property
    def _special(self) -> SpecialMultiserialResult:
        """is_special_multiserial's decision.  The right pass decides pairs in
        q.arrows order; one that holds keeps every pair as _after."""
        q, after = self.quiver, {}
        preds: dict[str, list[str]] = {}  # in arrows_into order, which is q's
        for a in q.arrows:
            good = ()
            for b in self._composing(a, q.arrows_from(a.target)):
                good += (b,)
                if len(good) > 1:  # the witness: no later pair is decided
                    return SpecialMultiserialResult(False, SMWitness(a.id, "right", good))
                preds.setdefault(b, []).append(a.id)
            after[a.id] = good
        vars(self).setdefault("_after", after)
        for a in q.arrows:
            good = preds.get(a.id, ())
            if len(good) > 1:
                return SpecialMultiserialResult(False, SMWitness(a.id, "left", (good[0], good[1])))
        return SpecialMultiserialResult(True)

    def __getstate__(self):
        # the engine, the table and the decision are caches: pickles and copies leave them behind
        return {"quiver": self.quiver, "ideal": self.ideal}


# -- zero divisibility --------------------------------------------------------


def zero_divisor(zero_paths: Iterable[Path]) -> tuple[Callable[[Path], bool], Callable]:
    """Window tests of the given paths, on one index: a predicate telling
    whether one of them divides a path, and a lister giving, at each
    position i of an arrow sequence w, the end i + k of the shortest of
    them that starts there and ends inside w, or len(w) + 1 when none does.

    The relation arrow sequences are indexed by their first arrow, which
    keeps the distinct lengths of the sequences starting there, shortest
    first.  A sequence is read position by position, and only the windows
    of those lengths that end inside it are looked up in the set of
    sequences: about one lookup per arrow when, as in Brauer and monomial
    relation sets, about one length starts at each arrow.  Build it once
    per relation set; an engine and its truncations share theirs.
    """
    seqs = frozenset(z.arrows for z in zero_paths)
    if () in seqs:  # a trivial path divides every path, and starts everywhere
        return (lambda p: True), (lambda w: list(range(len(w))))
    starts: dict[str, set[int]] = {}
    for s in seqs:
        starts.setdefault(s[0], set()).add(len(s))
    lengths = {a: tuple(sorted(ks)) for a, ks in starts.items()}.get

    def divisible(p: Path) -> bool:
        w = p.arrows
        n = len(w)
        i = 0
        for a in w:
            ks = lengths(a)
            if ks is not None:
                for k in ks:
                    # a window past the end is cut short to the rest of the
                    # path, a shorter length this loop has already tried
                    if i + k > n:
                        break
                    if w[i:i + k] in seqs:
                        return True
            i += 1
        return False

    def ends(w: tuple[str, ...]) -> list[int]:
        n = len(w)
        out = [n + 1] * n
        for i, a in enumerate(w):
            for k in lengths(a, ()):  # shortest first
                if i + k <= n and w[i:i + k] in seqs:
                    out[i] = i + k
                    break
        return out

    return divisible, ends


# -- sparse exact row reduction ----------------------------------------------

_F0 = Fraction(0)
_F1 = Fraction(1)
_FM1 = Fraction(-1)


def _colkey(p: Path):
    return (len(p.arrows), p.arrows, p.source)


class RowBasis:
    """Fully reduced basis of sparse rational rows keyed by pivot column.

    Kept in reduced echelon form: no row's support contains another row's
    pivot, so a single pass gives canonical normal forms.
    """

    def __init__(self, key=None):
        self.key = key or _colkey
        self.rows: dict[Path, dict[Path, Fraction]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[Path, Fraction]) -> dict[Path, Fraction]:
        out = {k: v for k, v in vec.items() if v}
        for piv in list(out):
            c = out.get(piv, _F0)
            if not c:
                continue
            row = self.rows.get(piv)
            if row is None:
                continue
            for k, v in row.items():
                nv = out.get(k, _F0) - c * v
                if nv:
                    out[k] = nv
                else:
                    out.pop(k, None)
        return out

    def add(self, vec: dict[Path, Fraction]) -> bool:
        """Insert a row; returns True if the rank grew."""
        red = self.reduce(vec)
        if not red:
            return False
        piv = min(red, key=self.key)
        lead = red[piv]
        row = {k: v / lead for k, v in red.items()}
        for opiv, other in list(self.rows.items()):
            c = other.get(piv, _F0)
            if not c:
                continue
            upd = dict(other)
            for k, v in row.items():
                nv = upd.get(k, _F0) - c * v
                if nv:
                    upd[k] = nv
                else:
                    upd.pop(k, None)
            self.rows[opiv] = upd
        self.rows[piv] = row
        return True


def _copy_index(linear: Sequence[LinearRelation]) -> Callable[[tuple[str, ...]], Sequence[tuple]]:
    """Lister of the embedded relation copies (relation, prefix, suffix) in
    an arrow sequence, ordered by relation, term and position, and empty
    when the sequence holds no relation term.

    The terms are indexed once by their first arrow, so listing costs per
    arrow of the sequence, not per relation; the list is built only on a
    hit.
    """
    index: dict[str, list[tuple]] = {}
    rels: list[LinearRelation] = []  # by rank, the order of the terms
    for rel in linear:
        for term in rel.paths:
            t = term.arrows
            index.setdefault(t[0], []).append((len(rels), len(t), t))
            rels.append(rel)
    get = index.get

    def copies(w: tuple[str, ...]) -> Sequence[tuple]:
        found = None
        pos = 0
        for a in w:
            entries = get(a)
            if entries is not None:
                for rank, k, t in entries:
                    if w[pos:pos + k] == t:
                        if found is None:
                            found = []
                        found.append((rank, pos, k))
            pos += 1
        if found is None:
            return ()
        found.sort()
        for i, (rank, pos, k) in enumerate(found):
            found[i] = (rels[rank], w[:pos], w[pos + k:])
        return found

    return copies


def _span(seeds: Iterable[Path], copies, dead, veto=None) -> tuple[set[Path], RowBasis]:
    """Members and row span of the block grown from seeds.

    Finds each embedded relation copy (relation, prefix, suffix) through a
    member once, by copies() of its arrows, reduces its row without the
    columns dead() rejects, and takes those columns in as members; so the
    members close under swapping one embedded term for a sibling term, and
    every copy through a member is reduced.  A copy with veto(...) true
    takes part in neither.
    """
    members = set(seeds)
    frontier = list(members)
    basis = RowBasis()
    seen: set[tuple] = set()
    while frontier:
        cur = frontier.pop()
        source, target = cur.source, cur.target
        for rel, prefix, suffix in copies(cur.arrows):
            # by identity: a relation's own hash reads its Fraction coefficients
            ekey = (id(rel), prefix, suffix)
            if ekey in seen:
                continue
            seen.add(ekey)
            if veto is not None and veto(rel, prefix, suffix):
                continue
            row: dict[Path, Fraction] = {}
            for coef, tp in rel.terms():
                cand = Path(prefix + tp.arrows + suffix, source, target)
                if dead(cand):
                    continue
                row[cand] = coef
                if cand not in members:
                    members.add(cand)
                    frontier.append(cand)
            basis.add(row)
    return members, basis


# -- the membership engine ---------------------------------------------------


class _Engine:
    def __init__(self, zero_paths: Sequence[Path],
                 linear: Sequence[LinearRelation], bound: int, index=None):
        self.bound = bound
        self.zero_divisible, self.zero_ends = index or zero_divisor(zero_paths)
        self.linear = tuple(linear)
        self.copies = _copy_index(self.linear)
        self._blocks: dict[Path, dict[Path, tuple]] = {}

    def truncated(self, bound: int) -> _Engine:
        """The engine of the same relations truncated at another bound: it
        shares the zero window test and the copy index, which do not depend
        on the bound, and starts its own block cache, which does."""
        eng = copy.copy(self)
        eng.bound = bound
        eng._blocks = {}
        return eng

    def dead(self, p: Path) -> bool:
        return len(p.arrows) >= self.bound or self.zero_divisible(p)

    def block(self, p: Path) -> dict[Path, tuple] | None:
        """The block of a live path p, its members' normal forms, decided
        from one listing of p's copies: None when there is none (p holds no
        relation term, so it is its own block outside I), {p: ()} when every
        copy has only dead siblings (p is lone, in I), else the span grown
        from p, its normal forms read off its reduced rows.  A block is kept
        for each of its members, and in_ideal asks the bound, that cache,
        the zero windows, then the copies; a monomial engine answers None."""
        if not self.linear:
            return None
        blk = self._blocks.get(p)
        if blk is not None:
            return blk
        w = p.arrows
        found = self.copies(w)
        if not found:
            return None
        source, target = p.source, p.target
        for rel, prefix, suffix in found:
            for tp in rel.paths:
                s = prefix + tp.arrows + suffix
                if s != w and not self.dead(Path(s, source, target)):
                    return self._spanned(p)
        blk = self._blocks[p] = {p: ()}
        return blk

    def _spanned(self, p: Path) -> dict[Path, tuple]:
        members, basis = _span((p,), self.copies, self.dead)
        rows = basis.rows
        # the rows are reduced: a pivot member is the rest of its row negated,
        # any other member its own normal form
        blk = {m: tuple(sorted(((k, -v) for k, v in rows[m].items() if k != m), key=lambda kv: _colkey(kv[0])))
               if m in rows else ((m, _F1),) for m in members}
        for m in members:
            self._blocks[m] = blk
        return blk

    def in_ideal(self, p: Path) -> bool:
        try:
            trivial = p.is_trivial
        except AttributeError:
            raise InvalidPresentation(f"{p!r} is no path") from None
        if trivial:
            raise TrivialPath("membership is undefined for trivial paths")
        if len(p.arrows) >= self.bound:
            return True
        # a cached path is live; a monomial engine caches no block
        if self.linear and (blk := self._blocks.get(p)) is not None:
            return blk[p] == ()
        if self.zero_divisible(p):
            return True
        blk = self.block(p)
        return blk is not None and blk[p] == ()


# -- admissibility -----------------------------------------------------------


def longest_avoiding(q: Quiver, zero_paths: Iterable[Path], cap: int) -> int:
    """Length of the longest path of q that no zero path divides.

    Walks the states of the Aho-Corasick automaton of the zero paths run
    along q, not the paths: a state is a vertex plus the longest suffix
    of the path so far that is a proper prefix of a zero path, and an
    arrow leads on unless it completes a zero path.  One depth-first pass
    memoises the longest walk out of each state.  Raises NotAdmissible(cap)
    when such paths reach length cap, or a cycle of states is reachable,
    so that they come in every length.  InvalidPresentation when q is no
    Quiver.
    """
    _check_type(q, Quiver)
    words = {z.arrows for z in zero_paths}
    prefixes = {()} | {w[:i] for w in words for i in range(1, len(w))}

    def successors(state) -> list:
        v, u = state
        out = []
        for a in q.arrows_from(v):
            w = u + (a.id,)
            if any(w[i:] in words for i in range(len(w) - 1)):
                continue
            i = 0
            while w[i:] not in prefixes:
                i += 1
            out.append((a.target, w[i:]))
        return out

    longest: dict[tuple, int] = {}
    for root in ((v, ()) for v in q.vertex_ids):
        if root in longest:
            continue
        on_path = {root}
        # a frame: a state, its successors not yet taken, the longest walk
        # out of it found so far
        stack = [[root, successors(root), 0]]
        while stack:
            frame = stack[-1]
            state, todo, best = frame
            if not todo:
                stack.pop()
                on_path.discard(state)
                longest[state] = best
                if stack:
                    stack[-1][2] = max(stack[-1][2], best + 1)
                continue
            nxt = todo.pop()
            if nxt in on_path:
                raise NotAdmissible(cap)
            if nxt in longest:
                frame[2] = max(best, longest[nxt] + 1)
            else:
                on_path.add(nxt)
                stack.append([nxt, successors(nxt), 0])
    best = max(longest.values(), default=0)
    if best >= cap:
        raise NotAdmissible(cap)
    return best


def admissibility_bound(q: Quiver, zero: Sequence[ZeroRelation] = (),
                        linear: Sequence[LinearRelation] = (), cap: int = 64) -> int:
    """Least m >= 2 with every path of length m in the ideal, or NotAdmissible.

    A monomial ideal holds exactly the paths some zero relation divides,
    so m is one more than the longest path longest_avoiding finds, and no
    path is listed; a cycle of its states proves the ideal not admissible
    whatever the cap.  With identifications _grow walks up from the arrows
    and extends only the paths not yet certified: a path certified at
    length L stays in the ideal after any extension.  m is one more than
    the longest path left.  In both cases cap is only a ceiling:
    NotAdmissible is raised when some path of length cap lies outside the
    ideal.  The walk lists every path outside the ideal, 2^L of length L
    when xx = yy is all that binds two loops, so the first time it asks a
    length beyond twice the longest relation word it runs longest_avoiding
    once on the zero relations and every term: the monomial ideal they
    generate holds I, so the paths it misses lie outside I, and when those
    reach cap it refuses at once what the walk would refuse by listing.
    Sound and exact whenever the presented ideal is admissible at all.  q
    must be a Quiver, zero and linear lists or tuples of ZeroRelation and
    LinearRelation, every relation term a path of q, endpoints included,
    and cap an int of at least 2; else InvalidPresentation, or
    UnknownLabel for an arrow off q, is raised before any search.
    """
    _check_presentation(q, zero, linear, cap)
    return _bound(q, zero, linear, cap)


def _check_presentation(q: Quiver, zero, linear, cap, name: str = "cap") -> None:
    _check_type(q, Quiver)
    _check_relations(zero, linear, (list, tuple))
    _check_at_least_two(cap, name)
    for term in [r.path for r in zero] + [t for r in linear for t in r.paths]:
        end = term.source
        for a in map(q.arrow, term.arrows):  # UnknownLabel for an arrow off q
            end = a.target if a.source == end else None  # None once the walk breaks
        if end != term.target:
            raise InvalidPresentation(f"relation term {term} is no path of the quiver "
                                      f"from {term.source} to {term.target}")


def _bound(q: Quiver, zero: Sequence[ZeroRelation], linear: Sequence[LinearRelation], cap: int,
           index=None) -> int:
    """admissibility_bound of relations already checked; index is their zero_divisor, if built."""
    words = [r.path for r in zero] + [t for r in linear for t in r.paths]
    zero_paths = tuple(r.path for r in zero)
    if not linear:
        return max(longest_avoiding(q, zero_paths, cap) + 1, 2)
    base = stage = _Engine(zero_paths, linear, 2, index)
    beyond = 2 * max(len(w.arrows) for w in words) + 1

    def in_ideal(p: Path) -> bool:
        # a path of length L is tested in the truncation at L + 1, on a
        # stage engine of its own length, so no block holds a longer path;
        # _grow asks shortest first, so each stage is truncated once
        nonlocal stage
        length = len(p.arrows)
        if stage.bound != length + 1:
            if length == beyond:
                longest_avoiding(q, words, cap)  # NotAdmissible(cap) if the walk would reach cap
            stage = base.truncated(length + 1)
        return stage.in_ideal(p)

    outside = _grow(q, in_ideal, cap)
    if outside and len(outside[-1]) >= cap:
        raise NotAdmissible(cap)
    return len(outside[-1]) + 1 if outside else 2


# -- public membership API ---------------------------------------------------


def path_in_ideal(alg: AlgebraPresentation, p: Path) -> bool:
    """Exact membership of a path in the ideal; InvalidPresentation when p is no Path."""
    return alg._engine.in_ideal(p)


def coset_paths(alg: AlgebraPresentation, p: Path) -> frozenset[Path]:
    """All paths congruent to p modulo the ideal, p included: the members
    of its block with its normal form, or p alone when it has none."""
    eng = alg._engine
    if eng.in_ideal(p):
        raise PathInIdeal(f"{p} lies in the ideal")
    blk = eng._blocks.get(p)  # the query cached the block of a live path outside I, if any
    if blk is None:
        return frozenset((p,))
    key = blk[p]
    return frozenset(m for m, nf in blk.items() if nf == key)


def live_paths(alg: AlgebraPresentation) -> tuple[Path, ...]:
    """All paths of length 1..bound-1 not divisible by a zero relation.

    These are the coordinates of the truncated quotient; paths in the
    ideal for linear reasons are still listed.
    """
    _check_type(alg, AlgebraPresentation)
    return tuple(sorted(_grow(alg.quiver, alg._engine.dead, alg.bound - 1), key=_colkey))


def _grow(q: Quiver, dead, longest: int) -> list[Path]:
    """Paths of length 1..longest that dead() rejects on no prefix, grown
    one layer per length, shortest first."""
    layer = [p for a in q.arrows if not dead(p := Path((a.id,), a.source, a.target))]
    out: list[Path] = []
    while layer:
        out.extend(layer)
        if len(layer[0]) >= longest:
            break
        layer = [
            cand
            for p in layer
            for a in q.arrows_from(p.target)
            if not dead(cand := Path(p.arrows + (a.id,), p.source, a.target))
        ]
    return out


# -- minimal generating sets ---------------------------------------------------


def _removable(q: Quiver, candidate, zs: list[ZeroRelation], divisible: Callable[[Path], bool],
               copies: Callable | None, bound: int) -> bool:
    """Whether candidate lies in <others> + R*I + I*R, the others being the
    current relations but the candidate (so the set still generates without
    it).  Columns longer than the bound, columns divisible by another zero
    relation, and proper multiples of the candidate itself all lie in that
    target space and are projected away.

    divisible indexes the current zero relations zs and copies the current
    linear relations, or is None when there are none; both index the
    candidate too, so they serve every candidate until a relation is
    dropped.  A zero candidate divides exactly its own multiples, so only
    the candidate's own column asks whether another zero relation divides
    it: a twin, or a proper factor, which lies in the candidate less its
    last or its first arrow."""
    if isinstance(candidate, ZeroRelation):
        p = candidate.path
        seq = p.arrows
        head = Path(seq[:-1], p.source, q.arrow(seq[-1]).source)
        tail = Path(seq[1:], q.arrow(seq[0]).target, p.target)
        if (len(p) > bound or divisible(head) or divisible(tail)
                or any(r is not candidate and r.path.arrows == seq for r in zs)):
            return True

        def dead(c: Path) -> bool:
            w = c.arrows
            return len(w) > bound or (w != seq and divisible(c))

        vec = {p: _F1}
    else:
        def dead(c: Path) -> bool:
            return len(c.arrows) > bound or divisible(c)

        vec = {c: coef for coef, c in candidate.terms() if not dead(c)}
        if not vec:
            return True
    if copies is None:
        return False  # no identification spans a live column

    def veto(rel, prefix, suffix) -> bool:
        # a linear candidate may span rows only through proper multiples
        return rel is candidate and not prefix and not suffix

    _, basis = _span(vec, copies, dead, veto)
    return not basis.reduce(vec)


def _candidate_key(rel):
    if isinstance(rel, ZeroRelation):
        return (-len(rel.path), 0, (rel.path.arrows,))
    return (-max(len(p) for p in rel.paths), 1, tuple(p.arrows for p in rel.paths))


def minimalize_relations(q: Quiver, zero: Sequence[ZeroRelation],
                         linear: Sequence[LinearRelation], bound: int):
    """_minimalize of relations checked as admissibility_bound checks them, bound for cap."""
    _check_presentation(q, zero, linear, bound, "bound")
    return _minimalize(q, zero, linear, bound)


def _minimalize(q: Quiver, zero: Sequence[ZeroRelation],
                linear: Sequence[LinearRelation], bound: int, divisible=None):
    """Greedily drop generators already implied by the rest.

    Returns the (zero, linear) that survive.  Candidates are scanned
    longest first so redundant high powers go before the short relations
    that imply them; the scan order is deterministic, and the result is
    idempotent.  The window test of the zero relations and the copy index
    of the linear ones are built once and again only after a relation of
    their kind is dropped; divisible, when given, is the window test of zero.
    """
    zs = list(zero)
    ls = list(linear)
    copies = None
    for cand in sorted(zs + ls, key=_candidate_key):
        if divisible is None:
            divisible, _ = zero_divisor(r.path for r in zs)
        if copies is None and ls:
            copies = _copy_index(ls)
        if _removable(q, cand, zs, divisible, copies, bound):
            if isinstance(cand, ZeroRelation):
                zs = [r for r in zs if r is not cand]
                divisible = None
            else:
                ls = [r for r in ls if r is not cand]
                copies = None
    return tuple(zs), tuple(ls)


# -- algebra construction ------------------------------------------------------


def _reduce_by_zero(q: Quiver, zero: Sequence[ZeroRelation],
                    linear: Sequence[LinearRelation]) -> tuple[list, list, tuple]:
    """The relations with every linear-relation term that a zero relation
    divides dropped: a relation left with one term becomes a zero relation
    on it, one left with none goes, and one left with two or more is
    renormalised.  Repeated while a new zero relation appears, since it
    may divide a term of another relation.  Each dropped term lies in the
    ideal of the zero relations, so the ideal is the same.  Returns their zero_divisor too."""
    zero, linear = list(zero), list(linear)
    while True:
        index = zero_divisor(r.path for r in zero)
        if not (linear and zero):
            return zero, linear, index
        divisible, grew, kept = index[0], False, []
        for rel in linear:
            if not any(map(divisible, rel.paths)):
                kept.append(rel)
                continue
            live = [(c, p) for c, p in rel.terms() if not divisible(p)]
            if len(live) == 1:
                zero.append(ZeroRelation(live[0][1]))
                grew = True
            elif live:
                kept.append(linear_relation(q, live))
        linear = kept
        if not grew:
            return zero, linear, index


def algebra(q: Quiver, zero: Sequence[ZeroRelation] = (),
            linear: Sequence[LinearRelation] = (), cap: int = 64) -> AlgebraPresentation:
    """Validate admissibility and build a presentation with minimal relations.

    The input is checked as admissibility_bound checks it, before anything
    else.  Then every linear-relation term that a zero relation divides is
    dropped (_reduce_by_zero): the term lies in the ideal the zero
    relations generate, so the ideal, and with it the bound, membership,
    cosets and verdicts, stay the same, while an ideal whose zero
    relations kill all its identifications comes out monomial and takes
    the monomial path of every layer."""
    _check_presentation(q, zero, linear, cap)
    zero, linear, index = _reduce_by_zero(q, zero, linear)
    bound = _bound(q, zero, linear, cap, index)
    zero, linear = _minimalize(q, zero, linear, bound, index[0])
    return AlgebraPresentation(q, IdealPresentation(zero, linear, bound))


# -- special multiserial predicate --------------------------------------------


@dataclass(frozen=True)
class SMWitness:
    arrow: str
    side: str  # "right": two nonzero successors; "left": two nonzero predecessors
    pair: tuple[str, str]

    def __str__(self) -> str:
        a, (b1, b2) = self.arrow, self.pair
        if self.side == "right":
            return f"{a} has nonzero compositions {a}{b1} and {a}{b2}"
        return f"{a} has nonzero compositions {b1}{a} and {b2}{a}"


@dataclass(frozen=True)
class SpecialMultiserialResult:
    ok: bool
    witness: SMWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_special_multiserial(alg: AlgebraPresentation) -> SpecialMultiserialResult:
    """Each arrow composes nonzero with at most one arrow on each side (cached, with a witness where not)."""
    _check_type(alg, AlgebraPresentation)
    return alg._special
