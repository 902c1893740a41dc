"""Command-line entry points.

Subcommands: simulate, solve-stokes, verify, classify, besov. Exit codes:
0 success, 1 usage, 2 config or input error (any other NnstokesError), 3
solver non-convergence or CFL breakdown, 4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .batteries import BATTERIES, run_battery
from .errors import BadValue, CflViolation, MaxIterations, NnstokesError
from .io_formats import parse_config, read_snapshot, write_diagnostics, write_snapshot
from .simulator import INADMISSIBLE, classify_exponents, run, smooth_density
from .spectral import besov_norm, to_spectral
from .stokes import StokesProblem, solve_stokes


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nnstokes",
                     description="pseudo-spectral non-Newtonian Stokes-transport toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="run a coupled simulation from a config file")
    sim.add_argument("config")
    sim.add_argument("--out", default=".", help="output directory (default .)")
    sim.add_argument("--force", action="store_true",
                     help="run even when the exponent pack is Inadmissible")
    sim.add_argument("--quiet", action="store_true")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")

    sol = sub.add_parser("solve-stokes", help="single inverse-map evaluation with report")
    sol.add_argument("config")
    sol.add_argument("--force", action="store_true")
    sol.add_argument("--quiet", action="store_true")
    sol.add_argument("--seed", type=int, default=None)

    ver = sub.add_parser("verify", help="run an invariant battery")
    ver.add_argument("suite", choices=sorted(BATTERIES) + ["all"])
    ver.add_argument("--quiet", action="store_true")
    ver.add_argument("--seed", type=int, default=0)

    cls = sub.add_parser("classify", help="print the exponent class of a config")
    cls.add_argument("config")

    bes = sub.add_parser("besov", help="Besov norm of a snapshot density")
    bes.add_argument("snapshot")
    bes.add_argument("--s", type=float, required=True, help="regularity index")
    bes.add_argument("--p", type=float, required=True, help="integrability exponent")
    bes.add_argument("--r", type=float, required=True, help="summation exponent (inf allowed)")
    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_config(args, force: bool):
    base_dir = os.path.dirname(os.path.abspath(args.config))
    seed = getattr(args, "seed", None)
    return parse_config(_read_text(args.config), force=force, seed=seed,
                        base_dir=base_dir)


def _cmd_simulate(args) -> int:
    config = _load_config(args, force=args.force)
    verdict = classify_exponents(config.params)
    if verdict.label == INADMISSIBLE:
        print(f"warning: exponent class {verdict.label} (Q = {verdict.Q:.6g}), "
              "running under --force", file=sys.stderr)
    result = run(config)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "diagnostics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(write_diagnostics(result.series))
    for i, (t, rho) in enumerate(result.snapshots):
        write_snapshot(os.path.join(args.out, f"snapshot_{i:04d}.nnst"), rho, t)
    if not args.quiet:
        print(f"recorded {len(result.series)} output times and "
              f"{len(result.snapshots)} snapshots in {args.out}")
    if not result.completed:
        print(f"error: simulation aborted: {result.reason}", file=sys.stderr)
        return 3
    return 0


def _cmd_solve_stokes(args) -> int:
    config = _load_config(args, force=args.force)
    rho = smooth_density(config.rho0, config.smoothing_n)
    prob = StokesProblem(rho, config.params, config.law, config.penalty)
    u, report = solve_stokes(prob)
    if not args.quiet:
        print(f"converged = {report.converged}")
        print(f"iterations = {report.iterations}")
        print(f"evaluations = {report.n_evals}")
        print(f"value = {report.value:.12g}")
        print(f"grad_norm = {report.grad_norm:.6e}")
        print(f"energy_residual = {report.energy_residual:.6e}")
        print(f"delta_schedule = {list(report.delta_schedule)}")
        if report.hk_bound_ratio is not None:
            print(f"hk_bound_ratio = {report.hk_bound_ratio:.6g}")
    if not report.converged:
        print(f"error: solver did not converge: {report.stop_reason}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    names = sorted(BATTERIES) if args.suite == "all" else [args.suite]
    all_passed = True
    for name in names:
        start = time.perf_counter()
        result = run_battery(name, seed=args.seed)
        wall = time.perf_counter() - start
        if args.quiet:
            verdict = "passed" if result.passed else "FAILED"
            print(f"battery {name}: {verdict}")
        else:
            print(result.report())
        print(f"battery {name}: wall time {wall:.2f} s")
        all_passed = all_passed and result.passed
    return 0 if all_passed else 4


def _cmd_classify(args) -> int:
    config = _load_config(args, force=True)
    verdict = classify_exponents(config.params)
    print(verdict.label)
    print(f"Q = {verdict.Q:.12g}; q floor 2d/(d+2) = {verdict.q_floor:.12g}; "
          f"q >= floor: {verdict.q_floor_ok}")
    return 0


def _cmd_besov(args) -> int:
    rho, _ = read_snapshot(args.snapshot)
    try:
        value = besov_norm(to_spectral(rho), args.s, args.p, args.r)
    except ValueError as exc:  # the index arguments are user input
        raise BadValue(str(exc)) from exc
    print("%.17g" % value)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "solve-stokes": _cmd_solve_stokes,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "besov": _cmd_besov,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (MaxIterations, CflViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NnstokesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
