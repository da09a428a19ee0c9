"""Seeded inputs for the benchmark workloads.

Every generator draws only from ``random.Random(seed)`` and returns plain
data (labels, tuples, fractions), so the same seed gives the same inputs
and no input depends on how the program behaves.  Nothing here imports
``quiverump``; the harness turns specs into quivers and relations.

A quiver spec is ``(vertices, arrows, zero, linear)``: vertex ids,
``(id, source, target)`` triples, zero relations as arrow-id tuples, and
linear relations as tuples of ``(coefficient, arrow-id tuple)`` terms.
A Brauer spec is ``(vertices, edges, orders)``: ``(id, multiplicity)``
pairs, ``(id, end, end)`` triples and ``(vertex, half-edge tokens)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("brauer_trees", "monomial_chains", "identified_small")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Instance:
    id: str
    family: str
    kind: str  # "quiver" | "brauer"
    spec: tuple
    arrows: int  # arrow count of the algebra's quiver, for the scaling fits


def prefixed(kind: str, spec: tuple, prefix: str) -> tuple:
    """The spec with every vertex, arrow and edge label prefixed.

    One shared prefix keeps the lexicographic order of arrow sequences,
    so a copy does exactly the work of its original."""
    if kind == "brauer":
        verts, edges, orders = spec
        return (
            tuple((prefix + v, m) for v, m in verts),
            tuple((prefix + e, prefix + a, prefix + b) for e, a, b in edges),
            tuple((prefix + v, tuple(prefix + t for t in ts)) for v, ts in orders),
        )
    verts, arrows, zero, linear = spec
    return (
        tuple(prefix + v for v in verts),
        tuple((prefix + a, prefix + s, prefix + t) for a, s, t in arrows),
        tuple(tuple(prefix + a for a in z) for z in zero),
        tuple(tuple((c, tuple(prefix + a for a in w)) for c, w in rel) for rel in linear),
    )


# -- brauer_trees ----------------------------------------------------------------

# (edge count, instances) per shape.  Random trees, whose cost varies
# most at one size, get more instances.  Beyond these sizes one `auto`
# call takes over 0.3 s, and a few such calls would decide a run's total.
_TREE_SWEEP = {
    "path": ((2, 6), (3, 6), (4, 6), (5, 6), (6, 6), (7, 6), (8, 6)),
    "star": ((2, 6), (3, 6), (4, 6), (5, 6)),
    "random": ((3, 9), (4, 9), (5, 9), (6, 9), (7, 9)),
}
_TREE_SWEEP_TINY = {"path": ((2, 2), (3, 2)), "star": ((3, 2),), "random": ((4, 2),)}


def _prufer_tree(seq: list[int], m: int) -> list[tuple[int, int]]:
    """The tree on vertices 0..m-1 with Pruefer sequence seq."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(m) if degree[u] == 1)
        edges.append((v, leaf))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(m) if degree[x] == 1)
    edges.append((u, w))
    return edges


def _brauer_tree(rng: random.Random, n: int, shape: str, rep: int) -> tuple[tuple, int]:
    """A Brauer tree with n edges and multiplicities 1-3.

    Cost is set mostly by the full turns (valency times multiplicity), so
    the instances of one size cover them evenly instead of drawing them:
    multiplicities run 1, 2, 3, 1, ... over the vertices, shifted by rep.
    A random tree is uniform among the trees with a degree sequence fixed
    by n and rep, its hub (vertex 0) of valency 2-4; its multiplicity is
    1-3 by rep // 3.  Cyclic orders are random throughout."""
    mult = [1 + (k + rep) % 3 for k in range(n + 1)]
    if shape == "path":
        pairs = [(i - 1, i) for i in range(1, n + 1)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n + 1)]
    else:
        # a Pruefer sequence lists each vertex valency - 1 times, and a
        # uniform shuffle of it gives a uniform tree with those valencies
        hub_valency = min(n, 2 + rep % 3)
        seq = [0] * (hub_valency - 1) + [1 + k // 2 for k in range(n - hub_valency)]
        rng.shuffle(seq)
        pairs = _prufer_tree(seq, n + 1)
        mult[0] = 1 + (rep // 3) % 3
    edges = tuple((f"e{k}", f"v{a}", f"v{b}") for k, (a, b) in enumerate(pairs))
    ring: dict[str, list[str]] = {f"v{i}": [] for i in range(n + 1)}
    for e, a, b in edges:
        ring[a].append(e)
        ring[b].append(e)
    for halves in ring.values():
        rng.shuffle(halves)
    verts = tuple((f"v{i}", mult[i]) for i in range(n + 1))
    orders = tuple((v, tuple(hs)) for v, hs in ring.items())
    arrows = sum(len(hs) for (v, hs), m in zip(ring.items(), mult) if len(hs) * m > 1)
    return (verts, edges, orders), arrows


def brauer_trees(seed: int, scale: str = "full") -> list[Instance]:
    """Brauer trees: paths, stars and random trees."""
    rng = random.Random(seed)
    sweep = _TREE_SWEEP if scale == "full" else _TREE_SWEEP_TINY
    out = []
    for shape, sizes in sweep.items():
        for n, count in sizes:
            for rep in range(count):
                spec, arrows = _brauer_tree(rng, n, shape, rep)
                out.append(Instance(f"{shape}-{n}-{rep}", shape, "brauer", spec, arrows))
    return out


# -- monomial_chains ---------------------------------------------------------------

# (arrow count, instances): sizes a factor 1.5 apart, and about n**-1.6
# instances of size n, so that each size adds a similar share of the time
_CHAIN_SWEEP = ((250, 1), (167, 2), (111, 4), (74, 7), (49, 13), (33, 26), (22, 49), (15, 94))
_CHAIN_SWEEP_TINY = ((16, 2), (8, 2))


def _monomial_chain(rng: random.Random, n: int, short_only: bool) -> tuple:
    """About n arrows: lines and oriented cycles glued at branch vertices.

    Each vertex gets a random matching between its incoming and outgoing
    arrows; unmatched pairs become length-2 junction zero relations, which
    makes the algebra special multiserial.  Further zero relations of
    length 2-6 (only 2 when short_only) are laid along the matched walks,
    at least one on every closed walk, so the ideal is admissible.
    """
    verts: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    ins: dict[str, list[str]] = {}
    outs: dict[str, list[str]] = {}

    def vertex() -> str:
        v = f"v{len(verts)}"
        verts.append(v)
        ins[v], outs[v] = [], []
        return v

    def arrow(s: str, t: str) -> None:
        a = f"a{len(arrows)}"
        arrows.append((a, s, t))
        outs[s].append(a)
        ins[t].append(a)

    while len(arrows) < n:
        length = min(rng.randint(3, 40), max(1, n - len(arrows)))
        kind = rng.random()
        if not verts or kind < 0.15:
            start = vertex()  # a new weak component
        else:
            start = rng.choice(verts)
        if kind < 0.3 and length >= 2:  # oriented cycle through start
            if len(outs[start]) >= 2 or len(ins[start]) >= 2:
                start = vertex()
            cur = start
            for i in range(length):
                nxt = start if i == length - 1 else vertex()
                arrow(cur, nxt)
                cur = nxt
            continue
        if rng.random() < 0.5 and len(outs[start]) < 2:  # line leaving start
            cur = start
            for _ in range(length):
                nxt = vertex()
                arrow(cur, nxt)
                cur = nxt
        elif len(ins[start]) < 2:  # line arriving at start
            cur = start
            for _ in range(length):
                prv = vertex()
                arrow(prv, cur)
                cur = prv
        else:
            cur = vertex()
            for _ in range(length):
                nxt = vertex()
                arrow(cur, nxt)
                cur = nxt

    zero: set[tuple[str, ...]] = set()
    succ: dict[str, str] = {}
    for v in verts:
        i, o = ins[v][:], outs[v][:]
        rng.shuffle(o)
        pairs = list(zip(i, o))
        succ.update(pairs)
        zero.update((x, y) for x in ins[v] for y in outs[v] if (x, y) not in pairs)

    # matched walks: maximal chains of the successor map, open or closed
    pred = {y: x for x, y in succ.items()}
    walks: list[tuple[list[str], bool]] = []
    seen: set[str] = set()
    for a, _, _ in arrows:
        if a in seen or a in pred:
            continue
        walk = [a]
        while walk[-1] in succ:
            walk.append(succ[walk[-1]])
        seen.update(walk)
        walks.append((walk, False))
    for a, _, _ in arrows:
        if a in seen:
            continue
        walk = [a]
        while succ[walk[-1]] != a:
            walk.append(succ[walk[-1]])
        seen.update(walk)
        walks.append((walk, True))

    for walk, closed in walks:
        m = len(walk)
        pos = rng.randrange(min(m, 8))
        while pos < m:
            length = 2 if short_only else rng.randint(2, 6)
            if closed:
                rel = tuple(walk[(pos + k) % m] for k in range(length))
            elif pos + length <= m:
                rel = tuple(walk[pos:pos + length])
            else:
                break
            zero.add(rel)
            pos += rng.randint(2, 8)
    return (tuple(verts), tuple(arrows), tuple(sorted(zero)), ())


def monomial_chains(seed: int, scale: str = "full") -> list[Instance]:
    """Monomial special multiserial algebras; the instances of each size
    alternate between length-2-only and mixed-length relations."""
    rng = random.Random(seed)
    sweep = _CHAIN_SWEEP if scale == "full" else _CHAIN_SWEEP_TINY
    out = []
    for n, count in sweep:
        for rep in range(count):
            short = rep % 2 == 0
            spec = _monomial_chain(rng, n, short)
            family = "short" if short else "mixed"
            out.append(Instance(f"{family}-{n}-{rep}", family, "quiver", spec, len(spec[1])))
    return out


# -- identified_small ----------------------------------------------------------------

_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-3))


def _paths_by_ends(arrows, lengths) -> dict[tuple[str, str], list[tuple[str, ...]]]:
    out_of: dict[str, list[tuple[str, str]]] = {}
    for a, s, t in arrows:
        out_of.setdefault(s, []).append((a, t))
    found: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    frontier = [((a,), s, t) for a, s, t in arrows]
    for length in range(2, max(lengths) + 1):
        frontier = [(w + (a,), s, t2) for w, s, t in frontier for a, t2 in out_of.get(t, ())]
        if length in lengths:
            for w, s, t in frontier:
                found.setdefault((s, t), []).append(w)
    return found


def _identified_small(rng: random.Random) -> tuple:
    """A random acyclic quiver with 4-7 vertices and 6-12 arrows, random
    length-2 zero relations, 1-2 identifications of parallel paths of
    length at most 3, and some redundant generators."""
    while True:
        nv = rng.randint(4, 7)
        order = [f"x{i}" for i in range(nv)]
        rng.shuffle(order)
        arrows = []
        for k in range(rng.randint(6, 12)):
            i, j = sorted(rng.sample(range(nv), 2))
            arrows.append((f"a{k}", order[i], order[j]))
        parallel = [ws for ws in _paths_by_ends(arrows, (2, 3)).values() if len(ws) >= 2]
        if parallel:
            break
    linear = []
    for _ in range(rng.randint(1, 2)):
        ws = rng.choice(parallel)
        u, w = rng.sample(ws, 2)
        linear.append(((Fraction(1), u), (rng.choice(_COEFFS), w)))
    zero = set()
    targets = {a: t for a, _, t in arrows}
    for a, _, t in arrows:
        for b, s2, _ in arrows:
            if s2 == t and rng.random() < 0.3:
                zero.add((a, b))
    extend = {s: [b for b, s2, _ in arrows if s2 == s] for _, s, _ in arrows}
    # redundant generators: a zero relation lengthened by one arrow, and an
    # identification multiplied on the right by an arrow
    if zero and rng.random() < 0.5:
        z = rng.choice(sorted(zero))
        nxt = extend.get(targets[z[-1]], [])
        if nxt:
            zero.add(z + (rng.choice(nxt),))
    if rng.random() < 0.5:
        rel = rng.choice(linear)
        nxt = extend.get(targets[rel[0][1][-1]], [])
        if nxt:
            b = rng.choice(nxt)
            linear.append(tuple((c, w + (b,)) for c, w in rel))
    verts = tuple(sorted(order, key=lambda v: int(v[1:])))
    return (verts, tuple(arrows), tuple(sorted(zero)), tuple(linear))


# Two known crash repros: a branching vertex under an arrow-blocked
# identification, and an identification whose terms both lie in the ideal.
REPROS = {
    "repro-branching": (
        ("1", "2", "3"),
        (("a", "1", "2"), ("c", "1", "2"), ("b", "2", "3"), ("d", "2", "3")),
        (("a", "d"), ("c", "b")),
        (((Fraction(1), ("a", "b")), (Fraction(-1), ("c", "d"))),),
    ),
    "repro-dead-terms": (
        ("0", "2"),
        (("a", "2", "0"), ("b", "2", "0"), ("c", "0", "0")),
        (("a", "c"), ("b", "c"), ("c", "c", "c", "c")),
        (((Fraction(1), ("c", "c")), (Fraction(1), ("c", "c", "c"))),),
    ),
}


def identified_small(seed: int, scale: str = "full") -> list[Instance]:
    """Thousands of tiny presentations with identifications, plus the two
    crash repros (the harness adds the test-suite fixtures)."""
    rng = random.Random(seed)
    count = 1000 if scale == "full" else 20
    out = [Instance(name, "repro", "quiver", spec, len(spec[1])) for name, spec in REPROS.items()]
    for i in range(count):
        spec = _identified_small(rng)
        out.append(Instance(f"small-{i}", "small", "quiver", spec, len(spec[1])))
    return out


GENERATORS = {
    "brauer_trees": brauer_trees,
    "monomial_chains": monomial_chains,
    "identified_small": identified_small,
}
