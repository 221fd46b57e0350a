"""cotypelab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {search,audit,extract} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout. Each round is a fresh interpreter
(``round.py``), started one at a time, so every round pays interpreter
start, imports and input set-up the way a CLI call or a test session
does, and no in-process cache carries over from one round to the next.
Rounds repeat the same job list with the same seeded inputs until the
next one would end after ``S`` seconds (at least three rounds). The first
round checks every output against the oracles; every round prints a
digest of its outputs, and the run is correct only if all digests agree,
so each round's outputs are checked and reports are byte-stable across
rounds.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the medians over rounds of run_s, setup_s and peak_rss_mb. With
``--trace 1`` untraced, span-traced and allocation-traced rounds take
turns; the metrics are the per-layer numbers (medians), times and counts
from the span-traced rounds and tracemalloc peaks from the
allocation-traced ones, and the tracing overhead, the median span-traced
run_s minus the median untraced run_s. The metric names and units are
those of ``BENCHMARK.json``. Run records
(environment, every round) and span sidecars go to ``perfbench/runs/``.
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

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("search", "audit", "extract")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROUND_TIMEOUT_S = 150

OVERHEAD = "trace.overhead_s"  # the one per-layer metric not taken from spans


def metric_units(root: str) -> tuple:
    """(end_to_end, per_layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def layer_value(layers: dict, metric: str) -> float:
    """Metric <span>.<field> of a traced round: a field of Tracer.summary, or
    us_per_call (total time over calls, in microseconds)."""
    span, field = metric.rsplit(".", 1)
    st = layers.get(span)
    if st is None:
        return 0.0
    if field == "us_per_call":
        return 1e6 * st["total_s"] / st["calls"]
    return float(st.get(field, 0.0))


def cpu_steal() -> dict:
    """Steal and total jiffies of all CPUs from /proc/stat (zeros where absent)."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return {"steal": 0, "total": 0}
    return {"steal": fields[7] if len(fields) > 7 else 0, "total": sum(fields[:8])}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "steal_start": cpu_steal(),
    }


def run_round(workload: str, seed: int, trace: str, check: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({v: "1" for v in THREAD_VARS})  # single-threaded BLAS: 1 <= nproc
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "round.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace:
        cmd += ["--trace", trace]
    if check:
        cmd.append("--check")
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], env=env,
                          stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, text=True)
    wall = time.monotonic() - launched
    if proc.returncode != 0:
        raise RuntimeError(f"round exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["trace"] = trace
    out["wall_s"] = wall
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cotypelab", "__init__.py")):
        print("no src/cotypelab here: run from the root of a cotypelab checkout",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_units(root)
    out_dir = os.path.join(HERE, "runs")
    os.makedirs(out_dir, exist_ok=True)

    env = environment()
    deadline = time.monotonic() + args.seconds
    kinds = ("", "spans", "alloc") if args.trace else ("",)
    rounds = []
    try:
        while True:
            rounds.append(run_round(args.workload, args.seed, kinds[len(rounds) % len(kinds)],
                                    check=not rounds))
            longest = max(r["wall_s"] for r in rounds)
            if len(rounds) >= 3 and time.monotonic() + longest > deadline:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"round failed: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = os.getloadavg()
    env["steal_end"] = cpu_steal()
    env["numpy"] = rounds[0]["numpy"]

    of_kind = {k: [r for r in rounds if r["trace"] == k] for k in kinds}
    plain = of_kind[""]
    metrics = {}
    if args.trace:
        for name, unit in per_layer.items():
            if name == OVERHEAD:
                value = (statistics.median(r["run_s"] for r in of_kind["spans"])
                         - statistics.median(r["run_s"] for r in plain))
            else:
                source = of_kind["alloc" if name.endswith(".peak_alloc_mb") else "spans"]
                value = statistics.median(layer_value(r["layers"], name) for r in source)
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in end_to_end.items():
            metrics[name] = {"value": statistics.median(r[name] for r in plain), "unit": unit}

    digests = {r["digest"] for r in rounds}
    wrong = [w for r in rounds for w in r["wrong"]]
    for w in wrong[:5]:
        print(f"incorrect: {w['op']}: {'; '.join(w['problems'])}", file=sys.stderr)
    if len(digests) > 1:
        print("incorrect: reports differ between rounds with identical inputs", file=sys.stderr)
    summary = {
        "correct": not wrong and len(digests) == 1,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": metrics,
    }
    record = {"args": vars(args), "environment": env, "rounds": rounds, "summary": summary}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({k: env[k] for k in ("python", "numpy", "cpu_count", "nproc",
                                          "loadavg_start", "loadavg_end")}), file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
