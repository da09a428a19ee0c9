"""Checks that hold of every induced ideal, shared by the example tests
and the generated ones."""

from quiverump.ideal import admissibility_bound, coset_paths, minimalize_relations, path_in_ideal
from quiverump.quiver import Path


def paths_up_to(q, longest):
    """Every path of q of length 1..longest."""
    out = []
    layer = [Path((a.id,), a.source, a.target) for a in q.arrows]
    while layer and len(layer[0]) <= longest:
        out.extend(layer)
        layer = [Path(p.arrows + (a.id,), p.source, a.target) for p in layer for a in q.arrows_from(p.target)]
    return out


def check_induced(alg, induced):
    """Each induced presentation holds exactly the subquiver paths of
    length <= alg.bound that alg's ideal holds, and gives each of the
    others the subquiver part of its coset in alg; its bound is the
    admissibility bound of its own relations, and none of them is
    redundant."""
    for sub in induced:
        arrows = set(sub.quiver.arrow_ids)
        for p in paths_up_to(sub.quiver, alg.bound):
            held = path_in_ideal(alg, p)
            assert path_in_ideal(sub, p) == held, p
            if not held:
                assert coset_paths(sub, p) == {m for m in coset_paths(alg, p) if set(m.arrows) <= arrows}, p
        zero, linear = sub.ideal.zero, sub.ideal.linear
        assert sub.bound == admissibility_bound(sub.quiver, zero, linear)
        assert minimalize_relations(sub.quiver, zero, linear, sub.bound)[2] == ()
