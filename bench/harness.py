"""One workload in one process: the timed end-to-end loop or the traced run.

``bench/run.py`` starts this script with ``PYTHONPATH`` pointing at the
checkout's ``src`` and ``PYTHONHASHSEED`` derived from the seed, and
passes the launch time so set-up can be measured from process start.
The last line on standard output is one JSON object with raw values;
the launcher turns it into the benchmark's result line.

Every timed call gets a label-prefixed copy of its instance that no
earlier call in the process has seen, because ``ideal._engine_for``
caches engines by value: a repeated presentation would hit that cache.
The calls run one after another in one thread (a closed loop with one
caller), instance after instance, until ``--seconds`` have passed and
every instance has run at least once.  Each metric takes the median of
an instance's samples before summing or ranking across instances.

Times are wall-clock seconds rescaled by the host's speed at the moment
of the call (see HostSpeed): on a shared host, stretches of seconds to
minutes run up to 1.6 times slower, and that would otherwise move every
figure of a run together.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import importlib.util
import itertools
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path as FsPath

from quiverump.analysis import components, global_maximal_classes, induced_algebra
from quiverump.brauer import (
    brauer_algebra,
    brauer_dimension,
    brauer_graph,
    classify,
)
from quiverump.errors import QuiverError
from quiverump.ideal import (
    AlgebraPresentation,
    IdealPresentation,
    LinearRelation,
    ZeroRelation,
    admissibility_bound,
    algebra,
    is_special_multiserial,
    linear_relation,
    live_paths,
    minimalize_relations,
    path_in_ideal,
    zero_relation,
)
from quiverump.omega import omega_map, ramifications_graph
from quiverump.oracle import dimension_bruteforce, maximal_classes, maximal_paths, nonzero_paths
from quiverump.quiver import Path, quiver
from quiverump.ump import quick_non_ump, ump_report

from workloads import GENERATORS, SCALES, WORKLOADS, Instance, prefixed

ROOT = FsPath(__file__).resolve().parents[1]
ROUTES = ("monomial-corollary", "extended-corollary", "main-theorem", "oracle")


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs and copies ---------------------------------------------------------------


def fixture_instances() -> list[Instance]:
    """The algebras of tests/fixtures.py, as specs of their presentations."""
    spec = importlib.util.spec_from_file_location("bench_fixtures", ROOT / "tests" / "fixtures.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    out = []
    for name, build in mod.ALL_FIXTURES.items():
        alg = build()
        q = alg.quiver
        data = (
            q.vertex_ids,
            tuple((a.id, a.source, a.target) for a in q.arrows),
            tuple(z.arrows for z in alg.ideal.zero_paths),
            tuple(tuple((c, p.arrows) for c, p in rel.terms()) for rel in alg.ideal.linear),
        )
        out.append(Instance(f"fixture-{name}", "fixture", "quiver", data, len(q.arrows)))
    return out


def load_instances(workload: str, seed: int, scale: str) -> list[Instance]:
    insts = GENERATORS[workload](seed, scale)
    if workload == "identified_small":
        insts = fixture_instances() + insts
    return insts


class Prefixes:
    """Fresh label prefixes, one per copy, all of one width."""

    def __init__(self):
        self.n = 0

    def __call__(self) -> str:
        self.n += 1
        return f"c{self.n:07d}_"


def make_input(inst: Instance, prefix: str):
    """Program inputs for a prefixed copy: a Brauer graph, or a quiver with
    its relations."""
    spec = prefixed(inst.kind, inst.spec, prefix)
    if inst.kind == "brauer":
        verts, edges, orders = spec
        return brauer_graph(verts, edges, dict(orders))
    verts, arrows, zero, linear = spec
    q = quiver(verts, arrows)
    return q, [zero_relation(q, z) for z in zero], [linear_relation(q, rel) for rel in linear]


def build(inst: Instance, inp) -> AlgebraPresentation:
    if inst.kind == "brauer":
        return brauer_algebra(inp).algebra
    return algebra(*inp)


def relabel(alg: AlgebraPresentation, prefix: str) -> AlgebraPresentation:
    """A built presentation with every label prefixed, without rebuilding."""
    q = alg.quiver

    def path(p: Path) -> Path:
        return Path(tuple(prefix + a for a in p.arrows), prefix + p.source, prefix + p.target)

    q2 = quiver(
        [prefix + v for v in q.vertex_ids],
        [(prefix + a.id, prefix + a.source, prefix + a.target) for a in q.arrows],
    )
    zero = tuple(ZeroRelation(path(z.path)) for z in alg.ideal.zero)
    linear = tuple(
        LinearRelation(rel.coefficients, tuple(path(p) for p in rel.paths)) for rel in alg.ideal.linear
    )
    return AlgebraPresentation(q2, IdealPresentation(zero, linear, alg.bound))


def class_sets(classes, prefix: str) -> frozenset:
    """Maximal classes as sets of arrow sequences, prefix stripped.

    Brauer arrow ids join a vertex and an edge label, so a prefix can occur
    twice in one id; it occurs nowhere else."""
    return frozenset(
        frozenset(tuple(a.replace(prefix, "") for a in p.arrows) for p in c.paths)
        for c in classes
    )


def shape(alg: AlgebraPresentation) -> tuple[int, int, int]:
    return alg.bound, len(alg.ideal.zero), len(alg.ideal.linear)


# -- references ------------------------------------------------------------------------


@dataclass
class Reference:
    """The unprefixed original of an instance and its known answers."""

    alg: AlgebraPresentation | None
    shape: tuple | None
    brauer_ump: bool | None = None  # classify(g).is_ump for Brauer graphs
    dimension: int | None = None  # brauer_dimension(g) for Brauer graphs
    is_ump: bool | None = None  # first oracle verdict seen for the instance
    classes: frozenset | None = None


def reference(inst: Instance) -> Reference:
    try:
        inp = make_input(inst, "")
        alg = build(inst, inp)
    except Exception:
        return Reference(None, None)
    if inst.kind == "brauer":
        return Reference(alg, shape(alg), classify(inp).is_ump, brauer_dimension(inp))
    return Reference(alg, shape(alg))


CALLS = ("build", "auto", "oracle")


class Tally:
    """Attempted and failed operations, with the failures by cause.

    An operation is one call (build, auto or oracle) on one instance.  It
    is timed on every pass but counted once, and it fails if it failed on
    any pass, so the counts depend on the inputs and the program, not on
    how many passes fit in the run."""

    def __init__(self, instances: int):
        self.attempted = len(CALLS) * instances
        self.failures: dict[tuple[int, str], tuple[str, str]] = {}  # (instance, call) -> (cause, error)
        self.selfcheck_failed = 0

    def raised(self, i: int, where: str, exc: BaseException) -> None:
        cause = "typed_error" if isinstance(exc, QuiverError) else "crash"
        self.failures.setdefault((i, where), (cause, f"{where}: {type(exc).__name__}"))

    def wrong(self, i: int, where: str) -> None:
        self.failures.setdefault((i, where), ("mismatch", f"{where}: wrong answer"))

    def skipped(self, i: int, where: str) -> None:
        self.failures.setdefault((i, where), ("skipped", f"{where}: build failed"))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def count(self, cause: str) -> int:
        return sum(c == cause for c, _ in self.failures.values())

    def errors(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, key in self.failures.values():
            out[key] = out.get(key, 0) + 1
        return out


def answer_ok(ref: Reference, rep, prefix: str) -> bool:
    """A report agrees with every reference known for its instance."""
    if ref.is_ump is not None and rep.is_ump != ref.is_ump:
        return False
    if ref.brauer_ump is not None and rep.is_ump != ref.brauer_ump:
        return False
    if ref.classes is not None and rep.classes and class_sets(rep.classes, prefix) != ref.classes:
        return False
    return True


def oracle_reference(ref: Reference, rep, prefix: str) -> bool:
    """Adopt an oracle report as the instance's reference, the first time;
    afterwards check it against the reference.  Each copy must give the
    original's answer."""
    if ref.is_ump is None:
        if ref.brauer_ump is not None and rep.is_ump != ref.brauer_ump:
            return False
        ref.is_ump, ref.classes = rep.is_ump, class_sets(rep.classes, prefix)
        return True
    return answer_ok(ref, rep, prefix)


# -- timing ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Record:
    name: str
    items: tuple


@functools.cache
def _reference_data() -> tuple[tuple, tuple]:
    """600 frozen records of four labels each, and ten records holding 60
    of them: about 200 KB, hashed the way quiverump hashes presentations."""
    leaves = tuple(_Record(f"n{i:05d}", tuple(f"k{i}_{j}" for j in range(4))) for i in range(600))
    return tuple(_Record("root", leaves[i:i + 60]) for i in range(0, 600, 60)), leaves


def reference_loop() -> float:
    """Seconds taken to hash a fixed set of nested frozen dataclasses into
    a dict, twice: the work quiverump spends most of its time on.

    The cyclic garbage collector is paused, and nothing in the loop
    depends on the program: run twice in a row, so that its data are in
    cache, it measures how fast the host runs Python."""
    roots, leaves = _reference_data()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict[_Record, int] = {}
        for _ in range(2):
            for r in roots:
                seen[r] = seen.get(r, 0) + 1
            for leaf in leaves:
                seen[leaf] = 1
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """How fast the host runs plain Python, sampled through a run.

    On a shared host the same work takes up to 1.6 times longer for
    stretches of seconds to minutes, as other tenants come and go.  The
    reference loop is timed at most every PERIOD_S, between calls, and
    each call's wall time is multiplied by REFERENCE_S over the median
    of the NEAREST loop times around it: it is reported in seconds on a
    host where the loop takes REFERENCE_S.  Over 10-second windows the
    rescaled times of fixed calls varied by about 1% where the raw ones
    varied by 10%.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 0.001
    NEAREST = 21

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.last = -math.inf

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self.last >= self.PERIOD_S:
            reference_loop()  # brings its data back into cache after the program's calls
            self.took.append(reference_loop())
            self.at.append(now)
            self.last = time.perf_counter()

    def scaled(self, start: float, end: float) -> float:
        """The wall time end - start, rescaled to the reference speed."""
        i = bisect.bisect(self.at, (start + end) / 2)
        lo = max(0, min(i - self.NEAREST // 2, len(self.at) - self.NEAREST))
        return (end - start) * self.REFERENCE_S / statistics.median(self.took[lo:lo + self.NEAREST])


def timed(speed: HostSpeed, fn, *args):
    """fn(*args) and its start and end times; an exception it raises is
    returned as its result."""
    speed.tick()
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:
        out = exc
    return out, start, time.perf_counter()


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def fit_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x; 0 without a spread."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def slopes_by_family(insts: list[Instance], times: list[float]) -> dict[str, float]:
    families = sorted({inst.family for inst in insts})
    return {
        fam: fit_slope([i.arrows for i in insts if i.family == fam],
                       [t for i, t in zip(insts, times) if i.family == fam])
        for fam in families
    }


def loop(insts: list[Instance], seconds: float):
    """Instance indices round robin, every instance at least once, until
    the time is up."""
    deadline = time.perf_counter() + seconds
    for runs, i in enumerate(itertools.cycle(range(len(insts)))):
        if runs >= len(insts) and time.perf_counter() >= deadline:
            return
        yield i


# -- the end-to-end run -------------------------------------------------------------


def run_instance(i: int, inst: Instance, ref: Reference, fresh: Prefixes, tally: Tally,
                 speed: HostSpeed) -> dict[str, tuple[float, float]]:
    """build, auto and oracle on fresh copies; their start and end times."""
    prefix = fresh()
    inp = make_input(inst, prefix)
    alg, b0, b1 = timed(speed, build, inst, inp)
    if isinstance(alg, Exception):
        tally.raised(i, "build", alg)
        tally.skipped(i, "auto")  # auto and oracle have nothing to run on
        tally.skipped(i, "oracle")
        return {"build": (b0, b1)}
    if shape(alg) != ref.shape:
        tally.selfcheck_failed += 1
    auto, a0, a1 = timed(speed, ump_report, alg, "auto")
    oracle_prefix = fresh()
    orc, o0, o1 = timed(speed, ump_report, relabel(ref.alg or alg, oracle_prefix), "oracle")

    if isinstance(orc, Exception):
        tally.raised(i, "oracle", orc)
    elif not oracle_reference(ref, orc, oracle_prefix):
        tally.wrong(i, "oracle")
    if isinstance(auto, Exception):
        tally.raised(i, "auto", auto)
    elif not answer_ok(ref, auto, prefix):
        tally.wrong(i, "auto")
    return {"build": (b0, b1), "auto": (a0, a1), "oracle": (o0, o1)}


def end_to_end(insts: list[Instance], seconds: float) -> tuple[dict, dict]:
    fresh, tally, speed = Prefixes(), Tally(len(insts)), HostSpeed()
    refs: list[Reference | None] = [None] * len(insts)
    samples = {k: [[] for _ in insts] for k in CALLS}
    for i in loop(insts, seconds):
        if refs[i] is None:
            refs[i] = reference(insts[i])
        for key, span in run_instance(i, insts[i], refs[i], fresh, tally, speed).items():
            samples[key][i].append(span)

    def summary(measure) -> tuple[dict, dict]:
        per = {k: [statistics.median(measure(*s) for s in ss) if ss else 0.0 for ss in v]
               for k, v in samples.items()}
        auto_ms = [1e3 * t for t, ss in zip(per["auto"], samples["auto"]) if ss]
        return per, {
            "build_s": math.fsum(per["build"]),
            "decide_s": math.fsum(per["auto"]),
            "decide_p50_ms": statistics.median(auto_ms),
            "decide_p90_ms": quantile(auto_ms, 9),
            "oracle_s": math.fsum(per["oracle"]),
        }

    per, values = summary(speed.scaled)
    _, wall = summary(lambda start, end: end - start)
    values["ok_frac"] = 1 - tally.failed / tally.attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    passes = [len(s) for s in samples["build"]]
    detail = {
        "instances": len(insts),
        "samples_per_instance": [min(passes), max(passes)],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "crash": tally.count("crash"),
        "typed_error": tally.count("typed_error"),
        "mismatch": tally.count("mismatch"),
        "selfcheck_failed": tally.selfcheck_failed,
        "errors": tally.errors(),
        "wall_clock": wall,
        "reference_loop_s": statistics.median(speed.took),
        "decide_exp_by_family": slopes_by_family(insts, per["auto"]),
        "per_instance": [
            {"id": inst.id, "arrows": inst.arrows, "build_s": b, "auto_s": a, "oracle_s": o}
            for inst, b, a, o in zip(insts, per["build"], per["auto"], per["oracle"])
        ],
    }
    return values, detail


# -- the traced run ------------------------------------------------------------------------

TIMED = {
    # span name -> per-layer metric it adds to
    "brauer.brauer_algebra": "brauer.algebra_ms",
    "quiver.quiver": "quiver.quiver_ms",
    "ideal.admissibility_bound": "ideal.admissibility_ms",
    "ideal.minimalize_relations": "ideal.minimize_ms",
    "ideal.is_special_multiserial": "ideal.sm_check_ms",
    "ideal.path_in_ideal.cold": "ideal.membership_cold_us",
    "ideal.path_in_ideal.warm": "ideal.membership_warm_us",
    "omega.omega_map": "omega.omega_map_ms",
    "omega.ramifications_graph": "omega.ramifications_ms",
    "analysis.induced_algebra": "analysis.induced_ms",
    "analysis.components": "analysis.components_ms",
    "analysis.global_maximal_classes": "analysis.classes_ms",
    "ump.quick_non_ump": "ump.quick_refute_ms",
    "ump.ump_report": "ump.decide_ms",
    "oracle.nonzero_paths": "oracle.nonzero_ms",
    "oracle.maximal_paths": "oracle.maximal_ms",
    "oracle.maximal_classes": "oracle.classes_ms",
    "oracle.dimension_bruteforce": "oracle.dimension_ms",
}

COUNTS = (
    "ideal.live_paths",
    "omega.saturations",
    "analysis.components",
    "oracle.nonzero_paths",
    "ump.quick_refute_tried",
    "ump.quick_refute_hits",
    *(f"ump.route.{r}" for r in ROUTES),
    "ump.crash",
    "ump.typed_error",
    "ump.mismatch",
    "reference.mismatch",
)


class Tracer:
    """Spans kept in memory, as (id, name, start, end, parent, instance,
    error) with times in seconds from the start of the run."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.t0 = time.perf_counter()
        self.spans: list[tuple] = []

    def call(self, parent: int, inst_id: str, calls: list, name: str, fn, *args):
        """One public call, timed; returns (result, exception)."""
        out, start, end = timed(self.speed, fn, *args)
        exc = out if isinstance(out, Exception) else None
        self.spans.append((len(self.spans), name, start - self.t0, end - self.t0, parent,
                           inst_id, None if exc is None else type(exc).__name__))
        calls.append((name, start, end))
        return (None, exc) if exc is not None else (out, None)

    def open(self, inst_id: str) -> int:
        self.spans.append([len(self.spans), "instance", time.perf_counter() - self.t0, None,
                           None, inst_id, None])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter() - self.t0
        self.spans[sid] = tuple(self.spans[sid])


def _membership(a: AlgebraPresentation, live) -> None:
    for p in live:
        path_in_ideal(a, p)


def trace_instance(inst: Instance, ref: Reference, fresh: Prefixes, tr: Tracer) -> tuple[list, dict]:
    """Each layer's public call in pipeline order, each on a fresh copy."""
    calls: list[tuple[str, float, float]] = []
    counts = dict.fromkeys(COUNTS, 0)
    sid = tr.open(inst.id)

    def call(name, fn, *args):
        return tr.call(sid, inst.id, calls, name, fn, *args)

    orig = ref.alg
    if inst.kind == "brauer":
        call("brauer.brauer_algebra", brauer_algebra, make_input(inst, fresh()))
    prefix = fresh()
    # the quiver and relations as given; for a Brauer graph, those of its
    # built presentation, since brauer_algebra builds its relations inside
    if inst.kind == "quiver":
        q0, zero, linear = make_input(inst, prefix)
    else:
        c = relabel(orig, prefix)
        q0, zero, linear = c.quiver, c.ideal.zero, c.ideal.linear
    call("quiver.quiver", quiver, q0.vertex_ids, [(a.id, a.source, a.target) for a in q0.arrows])
    bound, _ = call("ideal.admissibility_bound", admissibility_bound, q0, zero, linear)
    if bound is not None:
        call("ideal.minimalize_relations", minimalize_relations, q0, zero, linear, bound)

    sm, _ = call("ideal.is_special_multiserial", is_special_multiserial, relabel(orig, fresh()))

    a = relabel(orig, fresh())
    live = live_paths(a)
    counts["ideal.live_paths"] = len(live)
    call("ideal.path_in_ideal.cold", _membership, a, live)
    call("ideal.path_in_ideal.warm", _membership, a, live)

    call("omega.omega_map", omega_map, relabel(orig, fresh()).quiver)
    prefix = fresh()
    graph, _ = call("omega.ramifications_graph", ramifications_graph, relabel(orig, prefix))
    if graph is not None:
        counts["omega.saturations"] = len(graph.nodes)

    if sm and graph is not None:
        k = len(prefix)
        arrow_sets = [sorted({x[k:] for w in comp for x in w.arrows}) for comp in graph.weak_components()]
        prefix = fresh()
        a = relabel(orig, prefix)
        for arrows in arrow_sets:
            call("analysis.induced_algebra", induced_algebra, a, frozenset(prefix + x for x in arrows))
        a = relabel(orig, fresh())
        comps, _ = call("analysis.components", components, a)
        if comps is not None:
            counts["analysis.components"] = len(comps)
            call("analysis.global_maximal_classes", global_maximal_classes, a, comps)
    elif sm is not None:
        counts["ump.quick_refute_tried"] = 1
        hit, _ = call("ump.quick_non_ump", quick_non_ump, relabel(orig, fresh()))
        counts["ump.quick_refute_hits"] = int(hit is not None)

    prefix = fresh()
    rep, exc = call("ump.ump_report", ump_report, relabel(orig, prefix), "auto")
    if exc is not None:
        counts["ump.typed_error" if isinstance(exc, QuiverError) else "ump.crash"] = 1
    elif not answer_ok(ref, rep, prefix):
        counts["ump.mismatch"] = 1
    elif rep.route in ROUTES:
        counts[f"ump.route.{rep.route}"] = 1

    found, _ = call("oracle.nonzero_paths", nonzero_paths, relabel(orig, fresh()))
    counts["oracle.nonzero_paths"] = len(found or ())
    call("oracle.maximal_paths", maximal_paths, relabel(orig, fresh()))
    call("oracle.maximal_classes", maximal_classes, relabel(orig, fresh()))
    if inst.kind == "brauer":
        dim, _ = call("oracle.dimension_bruteforce", dimension_bruteforce, relabel(orig, fresh()))
        counts["reference.mismatch"] = int(dim != ref.dimension)
    tr.close(sid)
    return calls, counts


def traced(insts: list[Instance], seconds: float) -> tuple[dict, dict]:
    fresh, speed = Prefixes(), HostSpeed()
    tr = Tracer(speed)
    refs: list[Reference | None] = [None] * len(insts)
    passes: list[list[list]] = [[] for _ in insts]  # per instance, the calls of each pass
    counts: list[dict | None] = [None] * len(insts)
    unsteady: list[str] = []
    reference_failures: list[str] = []
    for i in loop(insts, seconds):
        if refs[i] is None:
            refs[i] = reference(insts[i])
            if refs[i].alg is not None:
                # the unprefixed original's answer: every copy must match it
                try:
                    rep = ump_report(refs[i].alg, "oracle")
                except Exception:
                    pass
                else:
                    if not oracle_reference(refs[i], rep, ""):
                        reference_failures.append(insts[i].id)
        if refs[i].alg is None:
            continue
        calls, c = trace_instance(insts[i], refs[i], fresh, tr)
        passes[i].append(calls)
        if counts[i] is None:
            counts[i] = c
        elif counts[i] != c:
            unsteady.append(insts[i].id)

    def per_instance(span: str) -> list[float]:
        # per pass, the span's rescaled time summed; the median over passes
        return [
            statistics.median(
                math.fsum(speed.scaled(s, e) for name, s, e in calls if name == span) for calls in ps
            ) if ps else 0.0
            for ps in passes
        ]

    # one operation per traced instance, counted once however many passes
    # ran; a pass that counts differently makes the run unsteady
    count = {k: sum(c[k] for c in counts if c) for k in COUNTS}
    attempted = sum(1 for c in counts if c)
    failed = count["ump.crash"] + count["ump.typed_error"] + count["ump.mismatch"]
    values = {metric: 1e3 * math.fsum(per_instance(span)) for span, metric in TIMED.items()}
    queries = max(count["ideal.live_paths"], 1)
    for kind in ("cold", "warm"):
        values[f"ideal.membership_{kind}_us"] = 1e6 * math.fsum(per_instance(f"ideal.path_in_ideal.{kind}")) / queries
    for k in ("ideal.live_paths", "omega.saturations", "analysis.components", "oracle.nonzero_paths",
              "ump.crash", "ump.typed_error", "ump.mismatch", *(f"ump.route.{r}" for r in ROUTES)):
        values[k] = count[k]
    tried = count["ump.quick_refute_tried"]
    values["ump.quick_refute_hit_frac"] = count["ump.quick_refute_hits"] / tried if tried else 0.0
    arrows = [inst.arrows for inst in insts]
    values["omega.omega_map_exp"] = fit_slope(arrows, per_instance("omega.omega_map"))
    values["analysis.induced_exp"] = fit_slope(arrows, per_instance("analysis.induced_algebra"))
    auto = per_instance("ump.ump_report")
    values["ump.decide_exp"] = fit_slope(arrows, auto)
    done = [len(ps) for ps in passes]
    detail = {
        "instances": len(insts),
        "attempted": attempted,
        "failed": failed,
        "samples_per_instance": [min(done), max(done)],
        "counts_unsteady": unsteady,
        "reference_failures": reference_failures + [
            inst.id for inst, c in zip(insts, counts) if c and c["reference.mismatch"]
        ],
        "quick_refute_tried": tried,
        "reference_loop_s": statistics.median(speed.took),
        "decide_exp_by_family": slopes_by_family(insts, auto),
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "instance", "error"],
        "spans": tr.spans,
    }
    return values, detail


# -- entry point ------------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=SCALES, default="full")
    ap.add_argument("--launched", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--report", help="file for the full report (per-instance data, spans)")
    args = ap.parse_args()

    insts = load_instances(args.workload, args.seed, args.scale)
    setup_wall = clock() - args.launched
    setup_s = setup_wall * HostSpeed.REFERENCE_S / statistics.median(reference_loop() for _ in range(15))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
        return 0
    run = traced if args.trace else end_to_end
    values, detail = run(insts, args.seconds)
    if args.trace:
        correct = values["ump.mismatch"] == 0 and not detail["counts_unsteady"] \
            and not detail["reference_failures"]
    else:
        correct = detail["mismatch"] == 0 and detail["selfcheck_failed"] == 0
    out = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "setup_s": setup_s,
        "setup_wall_s": setup_wall,
        "samples": dict(zip(("min", "max"), detail["samples_per_instance"]), instances=detail["instances"]),
        "values": values,
    }
    if args.report:
        FsPath(args.report).write_text(json.dumps({**out, "detail": detail}) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
