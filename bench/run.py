"""Benchmark entry point: run a workload and print its metrics.

    python3 bench/run.py --workload brauer_trees --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in its own process (bench/harness.py), one caller in
one thread, with PYTHONHASHSEED derived from the seed.  Set-up time is
measured from process start to the first timed call, in several
processes that stop after set-up and in the measuring one; the median
is reported.  With --trace 0 the end-to-end metrics of BENCHMARK.json
are printed, with --trace 1 the per-layer ones; the full report, with
per-instance figures and trace spans, goes to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run exits with a non-zero
code, printing no result, when the checkout lacks the sources, a
workload process fails, or a run outlives its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SCALES, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROCESSES = 4  # set-up-only processes per run, besides the measuring one
SETUP_TIMEOUT_S = 60
# a run measures for --seconds, plus at most one instance, plus set-up
RUN_GRACE_S = 120


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    try:
        return (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return head[5:]


def hash_seed(seed: int) -> str:
    return str(seed % 2**32)


def run_child(args, workload: str, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed(args.seed))
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, *extra,
        "--launched", repr(clock()),
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str, declared: list[dict]) -> tuple[dict, list[str]]:
    probes = [run_child(args, workload, ["--setup-only"], SETUP_TIMEOUT_S) for _ in range(SETUP_PROCESSES)]
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    main = run_child(args, workload, ["--report", str(report)], args.seconds + RUN_GRACE_S)
    setups = [p["setup_s"] for p in probes + [main]]
    values = dict(main["values"], setup_s=statistics.median(setups))
    counts = main["samples"]
    samples = {
        "setup_s": f"{len(setups)} processes",
        "ok_frac": f"{main['attempted']} operations",
        "peak_rss_mb": "1 process",
    }
    per_instance = f"{counts['instances']} instances x {counts['min']}-{counts['max']} samples"
    metrics, summary = {}, []
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        n = samples.get(m["name"], per_instance)
        summary.append(f"{workload:<17} {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']:<6} ({n})")
    meta = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "PYTHONHASHSEED": hash_seed(args.seed),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "setup_s_samples": setups,
        "setup_wall_s_samples": [p["setup_wall_s"] for p in probes + [main]],
    }
    full = json.loads(report.read_text())
    report.write_text(json.dumps({"meta": meta, **full}) + "\n")
    summary.insert(0, f"{workload}: " + ", ".join(f"{k}={v}" for k, v in meta.items() if not k.endswith("_samples"))
                   + f"; correct={main['correct']} attempted={main['attempted']} failed={main['failed']}"
                   + f"; report {report.relative_to(ROOT)}")
    result = {"correct": main["correct"], "attempted": main["attempted"], "failed": main["failed"],
              "metrics": metrics}
    return result, summary


def main() -> int:
    ap = argparse.ArgumentParser(description="Run a quiverump benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True,
                    help="0: end-to-end metrics; 1: traced run, per-layer metrics")
    ap.add_argument("--scale", choices=SCALES, default="full",
                    help="tiny: a few small instances, for the smoke test")
    args = ap.parse_args()

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "quiverump" / "__init__.py", ROOT / "tests" / "fixtures.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], summary = run_workload(args, name, declared)
            print("\n".join(summary), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"bench: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
