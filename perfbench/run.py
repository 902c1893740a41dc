"""Seeded end-to-end and per-layer benchmark of nnstokes.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in BENCHMARK.json. Every measurement runs in a child
process (perfbench/worker.py) with BLAS and OpenMP pinned to one thread;
the load is one closed-loop client, each call starting after the previous one
returned. With ``--trace 0`` the set-up is timed in several fresh processes
and the body is timed untraced; the last line printed is a JSON object with
every end-to-end metric of BENCHMARK.json. With ``--trace 1`` it carries the
per-layer metrics instead. Lines before it describe the machine and print
every figure with its unit. Exits non-zero, printing no result, when the
checkout has no nnstokes sources.
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKDIR = os.path.join(ROOT, ".perfbench_work")

SETUP_PROCESSES = 5  # set-up samples per run, the measuring process included
BUDGET_S = 170.0  # every child must have ended by then
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def _run_worker(args, deadline, setup_only=False):
    """Start one worker, wait for it and return the JSON object it printed last."""
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--workdir", WORKDIR]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} ran past the {BUDGET_S:g} s budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def main(argv=None):
    args = _parse_args(argv)
    needed = (os.path.join(ROOT, "src", "nnstokes", "__init__.py"),
              os.path.join(ROOT, "configs", "newtonian2d.cfg"),
              os.path.join(ROOT, "BENCHMARK.json"))
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not an nnstokes checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)

    deadline = time.monotonic() + BUDGET_S
    try:
        setup = ([] if args.trace else
                 [_run_worker(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_PROCESSES - 1)])
        result = _run_worker(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(result["setup_s"])

    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": result["wall_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        wanted = spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        print(f"error: no value for {', '.join(absent)}", file=sys.stderr)
        return 1

    machine = dict(_machine(), **result["versions"], seed=args.seed,
                   workload=args.workload, trace=args.trace)
    print("machine: " + json.dumps(machine))
    for m in wanted:
        print(f"{m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in result["figures"].items():
            if value:
                print(f"{name:<36} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':<36} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
