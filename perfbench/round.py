"""One round of a workload, in a fresh interpreter.

    python3 perfbench/round.py --workload W --seed N --launched T [--check] [--trace MODE]

Run from the root of a checkout; ``T`` is the CLOCK_MONOTONIC reading
taken by the parent just before it started this interpreter, so set-up
time covers interpreter start, the numpy and cotypelab imports and the
seeded inputs. The round times its job list, records its peak resident
memory, then (with ``--check``) checks every output against the oracles,
and prints one JSON line with a digest of all its outputs. With
``--trace spans`` the job list runs under the span tracer and the spans are
written to ``perfbench/runs/<workload>.spans.npz``; with ``--trace alloc``
the tracer also takes the tracemalloc peaks of ``tracer.PEAK_ALLOC``, whose
cost lands in the times of those calls, so only their peaks are used.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))


def canonical(obj):
    """A JSON-ready form of a result: reports through their own to_json_dict."""
    if hasattr(obj, "to_json_dict"):
        return canonical(obj.to_json_dict())
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "tobytes"):
        return {"shape": list(obj.shape), "sha256": hashlib.sha256(obj.tobytes()).hexdigest()}
    if isinstance(obj, float):
        return repr(obj)
    return obj


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", choices=("spans", "alloc"), default="")
    ap.add_argument("--check", action="store_true",
                    help="check every output against the oracles, not only the ops with a fault")
    args = ap.parse_args()

    import numpy as np
    import cotypelab

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(cotypelab.__file__).startswith(src):
        print(f"cotypelab imported from {cotypelab.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.launched

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(alloc=args.trace == "alloc")
        tracer.install()
    outputs, op_s = [], []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        try:
            outputs.append((op.run(), None))
        except Exception as exc:  # failed if the op has a fault, else incorrect
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        op_s.append(time.perf_counter() - t_op)
    run_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed, wrong = [], []
    for op, (out, err) in zip(ops, outputs):
        problems = [err] if err else op.check(out) if args.check or op.fault else []
        if op.fault and problems:
            failed.append({"op": op.name, "problems": problems})
        elif problems:
            wrong.append({"op": op.name, "problems": problems})
    digest = hashlib.sha256(json.dumps(
        [[op.name, canonical(out)] for op, (out, _) in zip(ops, outputs)],
        sort_keys=True).encode()).hexdigest()

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "op_s": dict(zip((op.name for op in ops), op_s)),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "wrong": wrong,
        "digest": digest,
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.trace == "spans":
            tracer.write(os.path.join(ROOT, "perfbench", "runs", f"{args.workload}.spans.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
