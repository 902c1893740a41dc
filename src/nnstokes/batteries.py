"""Named invariant batteries behind the `verify` subcommand.

Each battery runs a deterministic randomized sweep (fixed by its seed
argument) over one family of certified properties and returns a
BatteryResult listing every check with a pass flag. Batteries are sized
so the full suite stays within desk-scale budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadValue, _FieldError
from .fields import (random_band_field, random_velocities, random_velocity, rough_field,
                     sines2_field)
from .rheology import FluidParams, bounded_power_law, constant_law
from .simulator import CRITICAL, INADMISSIBLE, SUBCRITICAL, SimulationConfig, classify_exponents
from .spectral import (
    GridField,
    SpectralField,
    TorusGrid,
    VelocityField,
    _CUTOFF,
    bernstein_ratio,
    j_max,
    lebesgue_norm,
    leray_project,
    lp_block,
    to_spectral,
    wave_vectors,
)
from .stokes import (
    StokesProblem,
    minty_sweep,
    monotonicity_gaps,
    solve_stokes_batch,
)
from .transport import AdvectionScheme, advect_step, evolve


@dataclass
class BatteryResult:
    name: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(ok for ok, _ in self.checks)

    def report(self) -> str:
        lines = [f"[{'PASS' if ok else 'FAIL'}] {label}" for ok, label in self.checks]
        verdict = "passed" if self.passed else "FAILED"
        lines.append(f"battery {self.name}: {len(self.checks)} checks, {verdict}")
        return "\n".join(lines)


def _check(checks, ok, label):
    checks.append((bool(ok), label))


# ---------------------------------------------------------------------------

def run_lp_battery(seed: int = 0, n: int = 64, count: int = 100) -> BatteryResult:
    """Dyadic reconstruction to 1e-12 and Bernstein ratios in [1/4, 4]."""
    grid = TorusGrid(2, n)
    checks = []

    r = np.logspace(-2, math.log10(2.0 ** (j_max(grid) + 1)), 500)
    J = j_max(grid)
    part = _CUTOFF.chi(r) + sum(_CUTOFF.phi(r / 2.0 ** j) for j in range(J + 1))
    part_err = float(np.abs(part - 1.0).max())
    _check(checks, part_err <= 1e-12, f"radial partition of unity, sup defect {part_err:.2e}")

    worst_recon = 0.0
    worst_ratio_lo = math.inf
    worst_ratio_hi = 0.0
    for i in range(count):
        if i % 2 == 0:
            f = rough_field(grid, seed=seed + i, slope=-1.1, amplitude=1.0, offset=0.3)
        else:
            f = random_band_field(grid, seed=seed + i, kmax=n // 3, amplitude=1.0, offset=0.1)
        F = to_spectral(f)
        total = np.zeros(grid.shape, dtype=np.complex128)
        for j in range(-1, j_max(grid) + 1):
            total += lp_block(F, j).coeffs
        scale = float(np.abs(F.coeffs).max())
        worst_recon = max(worst_recon, float(np.abs(total - F.coeffs).max()) / scale)

        zero_mean = SpectralField(grid, F.coeffs.copy())
        zero_mean.coeffs.flat[0] = 0.0
        block_scale = float(np.abs(zero_mean.coeffs).max())
        for j in range(-1, j_max(grid) + 1):
            block = lp_block(zero_mean, j)
            if float(np.abs(block.coeffs).max()) <= 1e-13 * block_scale:
                continue
            ratio = bernstein_ratio(zero_mean, j, 2)
            worst_ratio_lo = min(worst_ratio_lo, ratio)
            worst_ratio_hi = max(worst_ratio_hi, ratio)

    _check(checks, worst_recon <= 1e-12,
           f"reconstruction on {count} fields, worst relative defect {worst_recon:.2e}")
    _check(checks, worst_ratio_lo >= 0.25 and worst_ratio_hi <= 4.0,
           f"Bernstein ratios within [1/4, 4], observed [{worst_ratio_lo:.3f}, {worst_ratio_hi:.3f}]")
    return BatteryResult("lp", checks)


def run_leray_battery(seed: int = 0, n: int = 64, count: int = 50) -> BatteryResult:
    """Projection identities: divergence-free output, idempotence,
    orthogonality, annihilation of gradients."""
    grid = TorusGrid(2, n)
    rng = np.random.default_rng(seed)
    ks = wave_vectors(grid)
    checks = []
    worst_div = worst_idem = worst_orth = worst_grad = 0.0
    for _ in range(count):
        raw = [to_spectral(GridField(grid, rng.standard_normal(grid.shape)))
               for _ in range(grid.d)]
        u = leray_project(raw)
        try:
            u.validate()
            div_ok = True
        except ValueError:
            div_ok = False
        worst_div = max(worst_div, 0.0 if div_ok else 1.0)

        c = u.half_stack  # the scaled half layout: its real dot products are the full layout's
        idem = float(np.abs(leray_project(u.components).half_stack - c).max())
        worst_idem = max(worst_idem, idem / max(float(np.abs(c).max()), 1e-300))

        r = VelocityField(raw, check=False).half_stack
        worst_orth = max(worst_orth, abs(float(np.vdot(r - c, c).real)) / float(np.vdot(r, r).real))

        phi = to_spectral(GridField(grid, rng.standard_normal(grid.shape)))
        grad = np.stack([1j * k * phi.coeffs for k in ks])
        pg = leray_project([SpectralField(grid, g) for g in grad])
        worst_grad = max(worst_grad, float(np.abs(pg.half_stack).max() / np.abs(grad).max()))

    _check(checks, worst_div == 0.0, f"{count} projected fields satisfy the subspace invariants")
    _check(checks, worst_idem <= 1e-14, f"idempotence, worst defect {worst_idem:.2e}")
    _check(checks, worst_orth <= 1e-12, f"orthogonality, worst defect {worst_orth:.2e}")
    _check(checks, worst_grad <= 1e-12, f"gradients annihilated, worst residue {worst_grad:.2e}")
    return BatteryResult("leray", checks)


def run_energy_battery(seed: int = 0, n: int = 32, count: int = 20) -> BatteryResult:
    """Energy balance at convergence for random densities across p and laws;
    the problems of each p are solved as one batch."""
    grid = TorusGrid(2, n)
    p_cycle = (1.5, 2.0, 3.0)
    checks = []
    probs = {p: [] for p in p_cycle}
    for i in range(count):
        p = p_cycle[i % 3]
        rho = random_band_field(grid, seed=seed + i, kmax=n // 4, amplitude=0.5, offset=1.5)
        if i % 2 == 0:
            law = constant_law(1.0)
            params = FluidParams(p=p, q=1.5, d=2)
        else:
            law = bounded_power_law(1.0, 0.5, 10.0)
            params = FluidParams(p=p, q=1.5, sigma=2.0, gamma=0.5, nu_max=10.0, d=2)
        probs[p].append(StokesProblem(rho, params, law))
    reports = [report for group in probs.values() for _, report in solve_stokes_batch(group)]
    all_converged = all(report.converged for report in reports)
    worst = max((report.energy_residual for report in reports), default=0.0)
    _check(checks, all_converged, f"all {count} solves converged")
    _check(checks, worst <= 1e-6, f"worst relative energy residual {worst:.2e} <= 1e-6")
    return BatteryResult("energy", checks)


def run_monotonicity_battery(seed: int = 0, n: int = 16, count: int = 1000) -> BatteryResult:
    """Stress monotonicity gap over solved velocities against random test
    fields; count pairs split across p in {1.5, 2, 3, 4}. The solves of
    each p run in batches of ten, and each solve's test fields and gaps
    form one batch: at n = 16 larger batches are no faster and hold
    proportionally more memory."""
    grid = TorusGrid(2, n)
    p_list = (1.5, 2.0, 3.0, 4.0)
    per_p = count // len(p_list)
    phis_per_solve = 5
    solves = max(1, per_p // phis_per_solve)
    checks = []
    worst = math.inf
    pairs = 0
    all_converged = True
    for ip, p in enumerate(p_list):
        params = FluidParams(p=p, q=1.5, d=2)
        law = constant_law(1.0)
        bases = [seed + 10000 * ip + 10 * s for s in range(solves)]
        probs = [StokesProblem(random_band_field(grid, seed=base, kmax=4, amplitude=0.5, offset=1.2),
                               params, law) for base in bases]
        solved = [sol for k in range(0, solves, 10) for sol in solve_stokes_batch(probs[k:k + 10])]
        for base, prob, (u, report) in zip(bases, probs, solved):
            all_converged = all_converged and report.converged
            phis = random_velocities(grid, [base + t + 1 for t in range(phis_per_solve)],
                                     kmax=4, amplitude=0.5)
            gaps, scales = monotonicity_gaps(prob, u, phis)
            worst = min(worst, float(np.min(gaps / np.maximum(scales, 1e-300))))
            pairs += len(gaps)
    _check(checks, all_converged, f"all {pairs} pairs used converged solves")
    _check(checks, worst >= -1e-10,
           f"smallest gap/scale over {pairs} pairs is {worst:.2e} >= -1e-10")
    return BatteryResult("monotonicity", checks)


def run_minty_battery(seed: int = 0, n: int = 32,
                      m_seq=(1, 4, 16, 64, 256, 1024, 4096)) -> BatteryResult:
    """Weak-continuity pairings decay along rho + w/m and end at or below
    1e-3 of the first entry.

    The observed decay is first order in 1/m. Sign cancellations can make
    a single early entry accidentally small, so the per-step check allows
    a bounded uptick (factor 1.25) instead of demanding strict decrease,
    while the endpoint must still fall three orders of magnitude."""
    grid = TorusGrid(2, n)
    checks = []
    w = random_band_field(grid, seed=seed + 1, kmax=4, amplitude=0.5)
    rho = sines2_field(grid, offset=1.5, a=0.4, b=0.3)
    tests = [random_velocity(grid, seed=seed + 100 + j, kmax=3, amplitude=1.0)
             for j in range(5)]
    for p in (2.0, 3.0):
        params = FluidParams(p=p, q=1.5, d=2)
        seq = [GridField(grid, rho.values + w.values / m) for m in m_seq]
        table = minty_sweep(seq, rho, tests, params, constant_law(1.0))["pairings"]
        for j in range(len(tests)):
            col = table[:, j]
            decaying = bool(np.all(col[1:] <= col[:-1] * 1.25))
            ratio = float(col[-1] / col[0]) if col[0] > 0 else 0.0
            _check(checks, decaying and ratio <= 1e-3,
                   f"p={p:g} test field {j}: decaying={decaying}, "
                   f"final/first = {ratio:.2e}")
    return BatteryResult("minty", checks)


def run_transport_battery(seed: int = 0, n: int = 128, T: float = 1.0) -> BatteryResult:
    """Frozen-velocity transport: exact mass, L^q isometry drift within
    1e-3 per unit time, reversibility, and the interpolation min/max bound."""
    grid = TorusGrid(2, n)
    checks = []
    u = random_velocity(grid, seed=seed, kmax=4, amplitude=1.0)
    rho0 = sines2_field(grid, offset=2.0, a=0.5, b=0.25)
    scheme = AdvectionScheme("spectral_rk4", dt=0.02, cfl_target=0.5)

    rho_T, _, _ = evolve(rho0, u, T, scheme)
    mass_drift = abs(rho_T.mean() - rho0.mean()) / abs(rho0.mean())
    _check(checks, mass_drift <= 1e-12, f"mass drift {mass_drift:.2e} <= 1e-12")
    for q in (1.2, 1.5, 2.0, 4.0, math.inf):
        n0 = lebesgue_norm(rho0, q)
        drift = abs(lebesgue_norm(rho_T, q) - n0) / n0
        _check(checks, drift <= 1e-3 * T, f"L^{q:g} drift {drift:.2e} <= 1e-3 per unit time")

    neg = VelocityField.from_half_stack(-u.half_stack, grid)
    half = 0.5
    fwd, _, _ = evolve(rho0, u, half, scheme)
    back, _, _ = evolve(fwd, neg, half, scheme)
    diff = GridField(grid, back.values - rho0.values, check=False)
    rev = lebesgue_norm(diff, 2) / lebesgue_norm(rho0, 2)
    _check(checks, rev <= 1e-4, f"time reversal error {rev:.2e} <= 1e-4")

    sl = AdvectionScheme("semi_lagrangian", dt=0.01, cfl_target=0.5)
    rho_sl = rho0
    for _ in range(10):
        rho_sl = advect_step(rho_sl, u, sl)
    rng = rho0.values.max() - rho0.values.min()
    over = max(rho_sl.values.max() - rho0.values.max(),
               rho0.values.min() - rho_sl.values.min(), 0.0)
    _check(checks, over <= 1e-3 * rng,
           f"semi-lagrangian range overshoot {over:.2e} <= 1e-3 of range")
    sl_mass = abs(rho_sl.mean() - rho0.mean()) / abs(rho0.mean())
    _check(checks, sl_mass <= 1e-12, f"semi-lagrangian mass drift {sl_mass:.2e}")
    return BatteryResult("transport", checks)


_CLASSIFIER_TABLE = (
    (dict(p=2.0, q=1.2, d=3), CRITICAL),
    (dict(p=2.0, q=1.5, d=2), SUBCRITICAL),
    (dict(p=1.1, q=1.9, sigma=1.0, gamma=2.0, d=2), INADMISSIBLE),
    (dict(p=2.0, q=4.0 / 3.0, sigma=2.0, gamma=1.0, d=2), CRITICAL),
    (dict(p=1.5, q=1.5, d=3), CRITICAL),
    (dict(p=33.0 / 14.0, q=1.1, d=3), INADMISSIBLE),
    (dict(p=3.0, q=1.2, sigma=1.0, gamma=1.0, d=2), CRITICAL),
    (dict(p=3.0, q=1.3, sigma=1.0, gamma=1.0, d=2), SUBCRITICAL),
    (dict(p=4.0, q=1.5, sigma=2.0, gamma=0.5, d=3), SUBCRITICAL),
    (dict(p=1.5, q=1.01, d=2), INADMISSIBLE),
    (dict(p=1.5, q=1.6, d=3), SUBCRITICAL),
    (dict(p=1.5, q=1.4, d=3), INADMISSIBLE),
)


def run_exponent_battery(seed: int = 0) -> BatteryResult:
    """Hand-computed 12-row classification table plus the critical floors."""
    checks = []
    for kwargs, expected in _CLASSIFIER_TABLE:
        verdict = classify_exponents(FluidParams(**kwargs))
        _check(checks, verdict.label == expected,
               f"{kwargs} -> {verdict.label} (expected {expected}, Q = {verdict.Q:.6g})")
    floor2 = classify_exponents(FluidParams(p=2.0, q=1.5, d=2)).q_floor
    floor3 = classify_exponents(FluidParams(p=2.0, q=1.2, d=3)).q_floor
    _check(checks, abs(floor2 - 1.0) <= 1e-15, f"d=2 floor {floor2:.15g} = 1")
    _check(checks, abs(floor3 - 1.2) <= 1e-15, f"d=3 floor {floor3:.15g} = 6/5")
    return BatteryResult("exponents", checks)


BATTERIES = {
    "lp": run_lp_battery,
    "leray": run_leray_battery,
    "energy": run_energy_battery,
    "monotonicity": run_monotonicity_battery,
    "minty": run_minty_battery,
    "transport": run_transport_battery,
    "exponents": run_exponent_battery,
}


def run_battery(name: str, seed: int = 0) -> BatteryResult:
    """Run battery name; BadValue for a seed outside a config's seed domain."""
    if name not in BATTERIES:
        raise KeyError(f"unknown battery {name!r}; choose from {sorted(BATTERIES)}")
    try:
        seed = SimulationConfig.__dataclass_fields__["seed"].metadata["domain"].check("seed", seed)
    except _FieldError as exc:
        raise BadValue(str(exc)) from None
    return BATTERIES[name](seed=seed)
