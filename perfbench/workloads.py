"""The four seeded workloads, each driven through nnstokes' public entry points.

A workload builds its inputs from the seed in ``setup`` (which also makes one
warm-up call), then ``run_once`` executes the timed body, checks its outputs
and returns a ``Rep``. Calls go through module attributes (``stokes.solve_stokes``,
not a local binding) so that an installed tracer sees them.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from nnstokes import batteries, cli, fields, io_formats, stokes, transport
from nnstokes.errors import NnstokesError
from nnstokes.rheology import FluidParams, constant_law
from nnstokes.simulator import smooth_density
from nnstokes.spectral import GridField, SpectralField, TorusGrid, VelocityField, lebesgue_norm

_RESIDUAL_MAX = 1e-6
_MASS_DRIFT_MAX = 1e-12


@dataclass
class Rep:
    """One execution of a workload body: its wall time, the operations it
    attempted and failed, and named timing samples."""

    wall_s: float
    attempted: int
    failed: int
    samples: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def _relative_mass_drift(rho0: GridField, rho: GridField) -> float:
    return abs(rho.mean() - rho0.mean()) / abs(rho0.mean())


class SimulateNewtonian2d:
    """``nnstokes simulate`` on configs/newtonian2d.cfg with seeded sines2
    amplitudes a in [0.395, 0.405] and b in [0.25, 0.35]; seed 0 keeps the
    shipped 0.4, 0.3.

    a drives the flow, so it sets the CFL-limited step count: over
    a in [0.3, 0.5] the wall time ranged from 2.3 to 3.3 s with the seed,
    wider than any regression bound. The narrow band keeps 35-37 steps.
    """

    _PARAMS_LINE = re.compile(r"^params = 1\.5, 0\.4, 0\.3$", re.MULTILINE)

    def __init__(self, root, workdir, seed):
        self.root = root
        self.workdir = workdir
        self.seed = seed

    def setup(self):
        with open(os.path.join(self.root, "configs", "newtonian2d.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        if self.seed == 0:
            a, b = 0.4, 0.3
        else:
            rng = np.random.default_rng(self.seed)
            a, b = float(rng.uniform(0.395, 0.405)), float(rng.uniform(0.25, 0.35))
        text, found = self._PARAMS_LINE.subn(f"params = 1.5, {a!r}, {b!r}", text)
        if found != 1:
            raise RuntimeError("configs/newtonian2d.cfg no longer has the sines2 params line")
        self.cfg_path = os.path.join(self.workdir, f"newtonian2d-seed{self.seed}.cfg")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        config = io_formats.parse_config(text, base_dir=self.workdir)
        count = int(math.floor(config.t_final / config.output_every + 1e-9)) + 1
        self.expected_t = [k * config.output_every for k in range(count)]
        rho = smooth_density(config.rho0, config.smoothing_n)
        stokes.solve_stokes(stokes.StokesProblem(rho, config.params, config.law, config.penalty))

    def run_once(self) -> Rep:
        out = tempfile.mkdtemp(prefix="simulate-", dir=self.workdir)
        try:
            start = time.perf_counter()
            try:
                code = cli.main(["simulate", self.cfg_path, "--out", out, "--quiet"])
            except NnstokesError as exc:
                code = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            problems = self._check(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Rep(wall, 1, int(bool(problems)), problems=problems)

    def _check(self, code, out):
        if code != 0:
            return [f"simulate did not complete: exit {code}"]
        problems = []
        with open(os.path.join(out, "diagnostics.csv"), encoding="utf-8") as fh:
            series = io_formats.read_diagnostics(fh.read())
        if len(series) != len(self.expected_t) or any(
                abs(t - e) > 1e-9 for t, e in zip(series.t, self.expected_t)):
            problems.append(f"diagnostics rows at t = {series.t}, expected {self.expected_t}")
        worst = max(series.energy_residual)
        if not worst <= _RESIDUAL_MAX:
            problems.append(f"energy residual {worst:.2e} > {_RESIDUAL_MAX:g}")
        paths = sorted(p for p in os.listdir(out) if p.endswith(".nnst"))
        snaps = [io_formats.read_snapshot(os.path.join(out, p))[0] for p in paths]  # checks CRC
        if len(snaps) != len(self.expected_t):
            problems.append(f"{len(snaps)} snapshots, expected {len(self.expected_t)}")
        elif not _relative_mass_drift(snaps[0], snaps[-1]) <= _MASS_DRIFT_MAX:
            problems.append(f"mass drift {_relative_mass_drift(snaps[0], snaps[-1]):.2e}")
        return problems


class SolvePowerlaw:
    """Four cold tol-1e-8 solves of random_band_field densities drawn from the
    seed: 2D n = 128 at p = 1.5 (the delta-continuation ladder), 3 and 4,
    and 3D n = 32 at p = 3."""

    CASES = (("2d_p1.5", 2, 128, 1.5), ("2d_p3", 2, 128, 3.0),
             ("2d_p4", 2, 128, 4.0), ("3d_p3", 3, 32, 3.0))

    def __init__(self, root, workdir, seed):
        self.seed = seed

    def setup(self):
        self.problems = []
        for i, (label, d, n, p) in enumerate(self.CASES):
            grid = TorusGrid(d, n)
            rho = fields.random_band_field(grid, seed=[self.seed, i], kmax=8,
                                           amplitude=0.5, offset=1.5)
            prob = stokes.StokesProblem(rho, FluidParams(p=p, q=1.5, d=d), constant_law(1.0))
            zero = VelocityField([SpectralField(grid, np.zeros(grid.shape, np.complex128))] * d)
            stokes.functional_value(prob, zero)
            self.problems.append((label, prob))

    def run_once(self) -> Rep:
        samples = {"stokes.iter_ms": []}
        problems = []
        wall = 0.0
        for label, prob in self.problems:
            stamps = []

            def callback(iteration, value, grad_norm):
                stamps.append((iteration, time.perf_counter()))

            start = time.perf_counter()
            try:
                _, report = stokes.solve_stokes(prob, tol=1e-8, callback=callback)
            except NnstokesError as exc:
                report = None
                problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            wall += elapsed
            samples["solve_s." + label] = [elapsed]
            samples["stokes.iter_ms"] += [1000.0 * (t1 - t0) for (i0, t0), (i1, t1)
                                          in zip(stamps, stamps[1:]) if i1 == i0 + 1]
            if report is not None and not (report.converged
                                           and report.energy_residual <= _RESIDUAL_MAX):
                problems.append(f"{label}: converged={report.converged}, "
                                f"energy residual {report.energy_residual:.2e}")
        return Rep(wall, len(self.problems), len(problems), samples, problems)


class VerifyMonotonicity:
    """``run_battery("monotonicity", seed)``, which ``nnstokes verify
    monotonicity`` runs: 200 cold n = 16 solves and 1000 gap evaluations."""

    def __init__(self, root, workdir, seed):
        self.seed = seed

    def setup(self):
        grid = TorusGrid(2, 16)
        rho = fields.random_band_field(grid, seed=self.seed, kmax=4, amplitude=0.5, offset=1.2)
        prob = stokes.StokesProblem(rho, FluidParams(p=2.0, q=1.5, d=2), constant_law(1.0))
        u, _ = stokes.solve_stokes(prob)
        phi = fields.random_velocity(grid, seed=self.seed + 1, kmax=4, amplitude=0.5)
        stokes.monotonicity_gap_with_scale(prob, u, phi)

    def run_once(self) -> Rep:
        start = time.perf_counter()
        try:
            result = batteries.run_battery("monotonicity", seed=self.seed)
            problems = [label for ok, label in result.checks if not ok]
        except NnstokesError as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        wall = time.perf_counter() - start
        return Rep(wall, 1, int(bool(problems)), problems=problems)


class AdvectFrozen:
    """A frozen seeded random_velocity at n = 128: 100 spectral_rk4 steps of
    dt 0.02, then 100 semi_lagrangian steps of dt 0.01, each step timed."""

    STEPS = 100

    def __init__(self, root, workdir, seed):
        self.seed = seed

    def setup(self):
        grid = TorusGrid(2, 128)
        self.u = fields.random_velocity(grid, seed=self.seed, kmax=4, amplitude=1.0)
        self.rho0 = fields.sines2_field(grid, offset=2.0, a=0.5, b=0.25)
        self.schemes = (("rk4", transport.AdvectionScheme("spectral_rk4", dt=0.02, cfl_target=0.5)),
                        ("sl", transport.AdvectionScheme("semi_lagrangian", dt=0.01, cfl_target=0.5)))
        for _, scheme in self.schemes:
            transport.advect_step(self.rho0, self.u, scheme)

    def run_once(self) -> Rep:
        samples = {}
        problems = []
        failed = 0
        wall = 0.0
        for label, scheme in self.schemes:
            rho = self.rho0
            times = []
            try:
                for _ in range(self.STEPS):
                    start = time.perf_counter()
                    rho = transport.advect_step(rho, self.u, scheme)
                    times.append(time.perf_counter() - start)
                found = self._check(label, scheme, rho)
            except NnstokesError as exc:
                found = [f"raised {type(exc).__name__}: {exc}"]
            wall += sum(times)
            samples["step_ms." + label] = [1000.0 * t for t in times]
            failed += int(bool(found))
            problems += [f"{label}: {p}" for p in found]
        return Rep(wall, len(self.schemes), failed, samples, problems)

    def _check(self, label, scheme, rho):
        """The thresholds the transport battery certifies."""
        rho0 = self.rho0
        problems = []
        drift = _relative_mass_drift(rho0, rho)
        if not drift <= _MASS_DRIFT_MAX:
            problems.append(f"mass drift {drift:.2e}")
        if label == "rk4":
            T = self.STEPS * scheme.dt
            for q in (1.2, 1.5, 2.0, 4.0, math.inf):
                n0 = lebesgue_norm(rho0, q)
                lq = abs(lebesgue_norm(rho, q) - n0) / n0
                if not lq <= 1e-3 * T:
                    problems.append(f"L^{q:g} drift {lq:.2e} over T = {T:g}")
        else:
            span = rho0.values.max() - rho0.values.min()
            over = max(rho.values.max() - rho0.values.max(),
                       rho0.values.min() - rho.values.min(), 0.0)
            if not over <= 1e-3 * span:
                problems.append(f"range overshoot {over:.2e}")
        return problems


WORKLOADS = {
    "simulate_newtonian2d": SimulateNewtonian2d,
    "solve_powerlaw": SolvePowerlaw,
    "verify_monotonicity": VerifyMonotonicity,
    "advect_frozen": AdvectFrozen,
}
