"""One measuring process for one workload; started by run.py, which sets
the BLAS and OpenMP thread counts in its environment.

With ``--setup-only`` it sets the workload up and reports the set-up time.
Otherwise it also runs the workload body repeatedly for ``--seconds``: with
tracing off for the end-to-end figures, or, with ``--trace 1``, half the
time untraced and half traced, for the per-layer figures and the tracing
overhead. It prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy
import scipy

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports nnstokes from src/)
from tracing import EXACT_COUNTS, Tracer, layer_metrics  # noqa: E402


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def _measure(workload, seconds, after_rep=None):
    """Run the body until the next repetition would end past ``seconds``;
    always at least once."""
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        rep = workload.run_once()
        for problem in rep.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        reps.append(rep)
        if after_rep is not None:
            after_rep()
        expected = statistics.median(r.wall_s for r in reps)
        if time.perf_counter() + expected > deadline:
            return reps


def _workload_figures(reps):
    """Per-case solve times (median over repetitions) and per-step latency
    percentiles (pooled over repetitions) from untraced repetitions."""
    pooled = {}
    for rep in reps:
        for name, values in rep.samples.items():
            pooled.setdefault(name, []).extend(values)
    out = {}
    for name in ("solve_s.2d_p1.5", "solve_s.2d_p3", "solve_s.2d_p4", "solve_s.3d_p3"):
        out[name] = statistics.median(pooled[name]) if name in pooled else 0.0
    for scheme in ("rk4", "sl"):
        values = pooled.get("step_ms." + scheme)
        out[f"step_ms.{scheme}.p50"] = statistics.median(values) if values else 0.0
        out[f"step_ms.{scheme}.p90"] = (statistics.quantiles(values, n=10, method="inclusive")[8]
                                        if values else 0.0)
    iter_ms = pooled.get("stokes.iter_ms")
    out["stokes.iter_ms.p50"] = statistics.median(iter_ms) if iter_ms else 0.0
    return out


def _source_digest():
    """Digest of the nnstokes and benchmark sources, which fix the counts."""
    digest = hashlib.sha256()
    for directory in (os.path.join(ROOT, "src", "nnstokes"), BENCH_DIR):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _check_exact_counts(per_rep, record_path):
    """Counts must be identical in every traced repetition and equal to
    those recorded by an earlier run of the same seed on the same sources."""
    problems = []
    first = {k: per_rep[0][k] for k in EXACT_COUNTS}
    for i, counts in enumerate(per_rep[1:], start=2):
        for k in EXACT_COUNTS:
            if counts[k] != first[k]:
                problems.append(f"{k}: repetition {i} counted {counts[k]}, repetition 1 {first[k]}")
    if os.path.exists(record_path):
        with open(record_path, encoding="utf-8") as fh:
            recorded = json.load(fh)
        for k in EXACT_COUNTS:
            if recorded.get(k) != first[k]:
                problems.append(f"{k}: counted {first[k]}, an earlier run counted {recorded.get(k)}")
    else:
        tmp = record_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(first, fh, sort_keys=True)
        os.replace(tmp, record_path)
    return problems


def main(argv=None):
    args = _parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](ROOT, args.workdir, args.seed)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = {"setup_s": setup_s,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not args.trace:
        plain = reps = _measure(workload, args.seconds)
        result["wall_s"] = statistics.median(r.wall_s for r in plain)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        plain = _measure(workload, args.seconds / 2)
        tracer = Tracer()
        per_rep = []
        marks = [0]

        def close_rep():
            per_rep.append(layer_metrics(tracer.spans, marks[-1]))
            marks.append(len(tracer.spans))

        origin = time.perf_counter()
        tracer.install()
        try:
            traced = _measure(workload, args.seconds / 2, close_rep)
        finally:
            tracer.uninstall()
        reps = plain + traced

        layers = {}
        for k in per_rep[0]:
            values = [m[k] for m in per_rep]
            exact = isinstance(values[0], int)
            layers[k] = statistics.median_low(values) if exact else statistics.median(values)
        layers.update(_workload_figures(plain))
        layers["trace.overhead_frac"] = (statistics.median(r.wall_s for r in traced)
                                         / statistics.median(r.wall_s for r in plain) - 1.0)
        result["layers"] = layers

        stem = os.path.join(args.workdir, f"{args.workload}-seed{args.seed}")
        count_problems = _check_exact_counts(per_rep, f"{stem}-{_source_digest()}.counts.json")
        for problem in count_problems:
            print(f"exact count differs: {problem}", file=sys.stderr)
        tracer.write(os.path.join(args.workdir, f"{args.workload}.spans.jsonl"), origin)

    result["attempted"] = sum(r.attempted for r in reps)
    result["failed"] = sum(r.failed for r in reps)
    if args.trace:  # the exact-count check is one more operation
        result["attempted"] += 1
        result["failed"] += int(bool(count_problems))
    result["figures"] = _workload_figures(plain)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
