"""Shared example algebras for the test suite.

Each builder returns fresh objects. Presentations compare by value, but
each object builds its own membership engine, so no engine is shared
across tests.
"""

from quiverump.ideal import algebra, linear_relation, zero_relation
from quiverump.quiver import quiver


def cycle_fork_tail():
    """Directed 4-cycle (dabc) with two parallel exits e,f feeding a tail gh."""
    q = quiver(
        ["1", "2", "3", "4", "5", "6", "7"],
        [
            ("a", "1", "2"),
            ("b", "2", "3"),
            ("c", "3", "4"),
            ("d", "4", "1"),
            ("e", "4", "5"),
            ("f", "4", "5"),
            ("g", "5", "6"),
            ("h", "6", "7"),
        ],
    )
    zero = [zero_relation(q, w) for w in ("cd", "cf", "abc", "eg")]
    return algebra(q, zero)


def two_loops_line():
    """Two loops at one vertex, identified squares, and a 2-cycle tail."""
    q = quiver(
        ["1", "2", "3"],
        [
            ("a", "1", "1"),
            ("b", "1", "1"),
            ("c", "1", "2"),
            ("d", "2", "3"),
            ("e", "3", "2"),
        ],
    )
    zero = [zero_relation(q, w) for w in ("ab", "ac", "ba", "bc", "ed")]
    lin = [linear_relation(q, [(1, "aa"), (-1, "bb")])]
    return algebra(q, zero, lin)


def petal_hub():
    """Three 2-cycles through a hub vertex, one square identified with a petal."""
    q = quiver(
        ["1", "2", "3", "4"],
        [
            ("a", "2", "1"),
            ("b", "1", "2"),
            ("c", "2", "4"),
            ("d", "4", "2"),
            ("e", "2", "3"),
            ("f", "3", "2"),
        ],
    )
    zero = [zero_relation(q, w) for w in ("ba", "be", "dc", "de", "fa", "fc")]
    lin = [linear_relation(q, [(1, "abcd"), (-1, "ef")])]
    return algebra(q, zero, lin)


def loop_spur():
    """Loop and a 2-cycle at one vertex plus an exit arrow; not special multiserial."""
    q = quiver(
        ["1", "2", "3"],
        [
            ("c", "1", "2"),
            ("b", "2", "1"),
            ("a", "2", "2"),
            ("d", "2", "3"),
        ],
    )
    zero = [zero_relation(q, w) for w in ("aaa", "bcb", "ab", "ca", "cd")]
    return algebra(q, zero)


def _chord_cycle_quiver():
    return quiver(
        ["1", "2", "3", "4"],
        [
            ("al", "1", "2"),
            ("bt", "2", "4"),
            ("gm", "1", "4"),
            ("dl", "4", "3"),
            ("ep", "3", "1"),
        ],
    )


def chord_cycle_monomial():
    """4-cycle with a chord, chord composition killed outright."""
    q = _chord_cycle_quiver()
    zero = [zero_relation(q, ["gm", "dl"]), zero_relation(q, ["dl", "ep"])]
    return algebra(q, zero)


def chord_cycle_identified():
    """Same quiver, chord composition identified with the long way round."""
    q = _chord_cycle_quiver()
    zero = [zero_relation(q, ["dl", "ep"])]
    lin = [linear_relation(q, [(1, ["gm", "dl"]), (-1, ["al", "bt", "dl"])])]
    return algebra(q, zero, lin)


def parallel_tracks():
    """Two disjoint routes between the same endpoints, identified."""
    q = quiver(
        ["1", "2", "3", "4"],
        [
            ("x", "1", "2"),
            ("y", "2", "3"),
            ("u", "1", "4"),
            ("v", "4", "3"),
        ],
    )
    lin = [linear_relation(q, [(1, "xy"), (-1, "uv")])]
    return algebra(q, [], lin)


def loop_meets_twocycle():
    """Loop square identified with a 2-cycle; smallest not-unique-maximal case."""
    q = quiver(
        ["1", "2"],
        [
            ("a", "1", "1"),
            ("b", "1", "2"),
            ("c", "2", "1"),
        ],
    )
    zero = [zero_relation(q, "ab"), zero_relation(q, "ca")]
    lin = [linear_relation(q, [(1, "aa"), (-1, "bc")])]
    return algebra(q, zero, lin)


ALL_FIXTURES = {
    "cycle_fork_tail": cycle_fork_tail,
    "two_loops_line": two_loops_line,
    "petal_hub": petal_hub,
    "loop_spur": loop_spur,
    "chord_cycle_monomial": chord_cycle_monomial,
    "chord_cycle_identified": chord_cycle_identified,
    "parallel_tracks": parallel_tracks,
    "loop_meets_twocycle": loop_meets_twocycle,
}
