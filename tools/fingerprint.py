"""Print a bit-exact fingerprint of the solver's outputs.

Run it on two checkouts and diff the outputs to show that a change keeps
the numbers:

    PYTHONPATH=src python tools/fingerprint.py > fingerprint.txt

It prints, for each shipped config, what `parse_config` makes of it: the
repr of every field of the SimulationConfig and the SHA-256 of the rho0
values. It covers the four cold tol-1e-8 power-law solves of the
solve_powerlaw benchmark workload at seeds 0 and 3 (counts, value, energy
residual and gradient norm as float.hex, SHA-256 of the velocity
coefficients), the diagnostics.csv that `nnstokes simulate` writes, with its iters column, for
each shipped config and for newtonian2d.cfg at n = 32, T = 0.5 with p = 1.5
and p = 3 (the p = 1.5 run is the one whose solves take the line search's
fallbacks: slope restarts, steepest-descent searches and halvings), and the
energy, monotonicity and transport battery reports at seeds 0 and 3. It
prints the SHA-256 of the advect_frozen workload's seed-0 density after 10
spectral_rk4 steps and after 10 semi_lagrangian steps, and, as float.hex,
commutator_residual, lebesgue_norm and besov_norm of one field, with the
SHA-256 of its smooth_clamp and atan_scaled renormalizations, the same
commutator_residual with a mean_velocity drift, and the SHA-256 of one
spectral_rk4 and one semi_lagrangian step of it with that drift and of
one forced into 16 CFL substeps, of a semi_lagrangian evolve to T = 0.105
at dt = 0.01, which ends on a short step, and of six semi_lagrangian steps
alternating dt = 0.05 and 0.025, each of which traces its departure points
anew. It also prints
the counts, stop reason and value (float.hex) of the unit-scale probes:
n = 8, sines2 1.5/0.4/0.3 smoothed at 4, constant viscosity, g = (s, s),
at p = 1.5 with s = 1e8, 1e4, 1e2 and p = 3 with s = 1e-8, at p = 12,
delta = 100, s = 1 with viscosity 1, 1e3 and 1e6, and at p = 1.5 and p = 3
with delta = 1e-170, whose square underflows, so that they solve as at
delta = 0.

Beside each SHA-256 of an array it prints the array's max |x| and L2 norm
to 10 significant digits, and beside that of a diagnostics.csv the same
two of each of its columns. A change that moves results at rounding level
then shows as differing hashes next to equal summaries.
"""

import hashlib
import math
import os
import sys
import tempfile

import numpy as np

from nnstokes import (AdvectionScheme, FluidParams, StokesProblem, TorusGrid, advect_step,
                      atan_scaled, besov_norm, cli, commutator_residual, constant_law, evolve,
                      lebesgue_norm, parse_config, read_diagnostics, renormalize, run_battery,
                      smooth_clamp, solve_stokes, to_spectral)
from nnstokes.fields import random_band_field, random_velocity, sines2_field
from nnstokes.simulator import smooth_density
from nnstokes.transport import _cfl_cap, _substep_count, speed_sup

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = (("2d_p1.5", 2, 128, 1.5), ("2d_p3", 2, 128, 3.0),
         ("2d_p4", 2, 128, 4.0), ("3d_p3", 3, 32, 3.0))
# unit-scale probes: (p, s, delta, viscosity)
PROBES = ((1.5, 1e8, 0.0, 1.0), (1.5, 1e4, 0.0, 1.0), (1.5, 1e2, 0.0, 1.0), (3.0, 1e-8, 0.0, 1.0),
          (12.0, 1.0, 100.0, 1.0), (12.0, 1.0, 100.0, 1e3), (12.0, 1.0, 100.0, 1e6),
          (1.5, 1.0, 1e-170, 1.0), (3.0, 1.0, 1e-170, 1.0))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary(a) -> str:
    """max |x| and the L2 norm of an array, to 10 significant digits."""
    a = np.asarray(a)
    return f"max|x| {np.abs(a).max():.10g} L2 {np.linalg.norm(a.ravel()):.10g}"


def fingerprint(a: np.ndarray) -> str:
    """The SHA-256 of an array's bytes, with its summary."""
    return f"{sha256(a.tobytes())} ({summary(a)})"


def simulate(path: str, text: str = None) -> str:
    """Run `nnstokes simulate` on a config file, or on text in place of its
    contents, and describe the diagnostics.csv it writes."""
    with tempfile.TemporaryDirectory() as out:
        if text is not None:
            path = os.path.join(out, os.path.basename(path))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        code = cli.main(["simulate", path, "--out", out, "--quiet"])
        with open(os.path.join(out, "diagnostics.csv"), "rb") as fh:
            csv = fh.read()
    series = read_diagnostics(csv.decode())
    columns = "".join(f"\n    {name}: {summary(getattr(series, name))}"
                      for name in type(series)._COLUMNS if name != "iters")
    return f"exit {code}, iters {series.iters}, diagnostics.csv {sha256(csv)}{columns}"


def parsed(path: str) -> str:
    """What parse_config makes of a config file, field by field."""
    with open(path, encoding="utf-8") as fh:
        config = parse_config(fh.read(), base_dir=os.path.dirname(path))
    names = ("grid", "params", "law", "scheme", "smoothing_n", "t_final", "output_every",
             "penalty", "seed")
    lines = [f"  {name} = {getattr(config, name)!r}" for name in names]
    return "\n".join(lines + [f"  rho0 {fingerprint(config.rho0.values)}"])


def main() -> int:
    configs = os.path.join(ROOT, "configs")
    for name in sorted(os.listdir(configs)):
        print(f"parse {name}:\n{parsed(os.path.join(configs, name))}")
    for seed in (0, 3):
        for i, (label, d, n, p) in enumerate(CASES):
            grid = TorusGrid(d, n)
            rho = random_band_field(grid, seed=[seed, i], kmax=8, amplitude=0.5, offset=1.5)
            u, r = solve_stokes(StokesProblem(rho, FluidParams(p=p, q=1.5, d=d), constant_law(1.0)),
                                tol=1e-8)
            print(f"solve seed={seed} {label}: iterations={r.iterations} n_evals={r.n_evals} "
                  f"value={r.value.hex()} energy_residual={r.energy_residual.hex()} "
                  f"grad_norm={r.grad_norm.hex()} {r.stop_reason}; "
                  f"velocity {fingerprint(u.coeff_stack())}")
    rho = smooth_density(sines2_field(TorusGrid(2, 8), 1.5, 0.4, 0.3), 4)
    for p, s, delta, nu in PROBES:
        _, r = solve_stokes(StokesProblem(rho, FluidParams(p=p, q=1.5, delta=delta, g=(s, s)),
                                          constant_law(nu)), tol=1e-8)
        print(f"probe p={p} s={s:g} delta={delta:g} nu={nu:g}: iterations={r.iterations} "
              f"n_evals={r.n_evals} {r.stop_reason} value={r.value.hex()}")
    for name in sorted(os.listdir(configs)):
        print(f"simulate {name}: {simulate(os.path.join(configs, name))}")
    path = os.path.join(configs, "newtonian2d.cfg")
    with open(path, encoding="utf-8") as fh:
        small = fh.read().replace("n = 128", "n = 32").replace("T = 1.0", "T = 0.5")
    for p in ("1.5", "3.0"):
        print(f"simulate newtonian2d.cfg n=32 T=0.5 p={p}: "
              f"{simulate(path, small.replace('p = 2.0', f'p = {p}'))}")
    for battery in ("energy", "monotonicity", "transport"):
        for seed in (0, 3):
            print(f"battery {battery} seed={seed}:\n{run_battery(battery, seed=seed).report()}")
    grid = TorusGrid(2, 128)
    u = random_velocity(grid, seed=0, kmax=4, amplitude=1.0)
    for kind, dt in (("spectral_rk4", 0.02), ("semi_lagrangian", 0.01)):
        rho = sines2_field(grid, offset=2.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind, dt=dt, cfl_target=0.5)
        for _ in range(10):
            rho = advect_step(rho, u, scheme)
        print(f"advect_frozen seed=0 {kind} 10 steps: density {fingerprint(rho.values)}")
    grid = TorusGrid(2, 32)
    rho = random_band_field(grid, seed=7, kmax=8, amplitude=0.5, offset=1.5)
    u = random_velocity(grid, seed=13, kmax=4, amplitude=1.0)
    F = to_spectral(rho)
    values = {"commutator_residual eps=0.5": commutator_residual(rho, u, 0.5, FluidParams(p=4.0, q=1.9)),
              "lebesgue_norm r=1.5": lebesgue_norm(rho, 1.5),
              "lebesgue_norm r=inf": lebesgue_norm(rho, math.inf),
              "besov_norm s=0.5 p=2 r=2": besov_norm(F, 0.5, 2.0, 2.0),
              "besov_norm s=-0.5 p=3 r=inf": besov_norm(F, -0.5, 3.0, math.inf)}
    for label, value in values.items():
        print(f"field: {label} {value.hex()}")
    for eta in (smooth_clamp(1.2), atan_scaled(0.5)):
        print(f"field: renormalize {eta.kind} {fingerprint(renormalize(rho, eta).values)}")
    drift = (0.3, -0.2)
    print(f"field: commutator_residual eps=0.5 drift={drift} "
          f"{commutator_residual(rho, u, 0.5, FluidParams(p=4.0, q=1.9), mean_velocity=drift).hex()}")
    for kind in ("spectral_rk4", "semi_lagrangian"):
        scheme = AdvectionScheme(kind, dt=0.05)
        for label, dt, mean_velocity in ((f"drift={drift}", 0.05, drift), ("dt=1", 1.0, None)):
            m = _substep_count(dt, _cfl_cap(scheme, grid, speed_sup(u, mean_velocity)))
            out = advect_step(rho, u, scheme, dt=dt, mean_velocity=mean_velocity)
            print(f"field: advect_step {kind} {label} ({m} substeps) {fingerprint(out.values)}")
    sl = AdvectionScheme("semi_lagrangian", dt=0.01)
    out, times, _ = evolve(rho, u, 0.105, sl)
    print(f"field: evolve semi_lagrangian T=0.105 dt=0.01 ({len(times) - 1} steps) "
          f"{fingerprint(out.values)}")
    out = rho
    for dt in (0.05, 0.025) * 3:
        out = advect_step(out, u, sl, dt=dt)
    print(f"field: advect_step semi_lagrangian dt=0.05,0.025 x3 {fingerprint(out.values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
