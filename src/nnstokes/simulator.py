"""Coupled density-velocity evolution and its convergence sweeps.

The system is quasi-static: at each step the velocity is the energy
minimizer for the current density, smoothed by a low-frequency cutoff,

    v = Psi(rho),    u = S_n v,    d_t rho + div(rho u) = 0,

with the initial density smoothed the same way, rho(0) = S_n rho_0. The
module also hosts the admissibility classifier for the exponent pack
(p, q, sigma, gamma, d) and two regression sweeps: one over the smoothing
index n, one over the penalty strength N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadValue, CflViolation, InadmissibleExponents, MaxIterations
from .rheology import FluidParams, ViscosityLaw
from .spectral import (
    GridField,
    SpectralField,
    TorusGrid,
    VelocityField,
    l2_inner,
    lebesgue_norm,
    low_freq_truncate,
    reciprocal_norm,
    to_grid,
    to_spectral,
)
from .stokes import StokesProblem, newtonian_start, solution_diagnostics, solve_stokes
from .transport import AdvectionScheme, advect_step, speed_sup

_CLASSIFY_TOL = 1e-12

# Times this close to an output time or t_final count as reaching it;
# advect_step refuses steps below 1e-12, so no remainder may be shorter.
_TIME_TOL = 1e-12

SUBCRITICAL = "SubCritical"
CRITICAL = "Critical"
INADMISSIBLE = "Inadmissible"


@dataclass(frozen=True)
class ExponentClass:
    """Admissibility verdict for one exponent pack.

    Q = (1/p)(1 + gamma/sigma) + 1/q - 1/d decides the class: strictly
    below 1 is SubCritical, equal to 1 (within 1e-12) is Critical provided
    q clears the floor 2d/(d+2), anything else is Inadmissible.
    """

    label: str
    Q: float
    q_floor: float
    q_floor_ok: bool


def classify_exponents(params: FluidParams) -> ExponentClass:
    Q = 1.0 / params.beta + 1.0 / params.q - 1.0 / params.d
    q_floor = 2.0 * params.d / (params.d + 2.0)
    q_floor_ok = params.q >= q_floor - _CLASSIFY_TOL
    if Q <= 1.0 - _CLASSIFY_TOL:
        label = SUBCRITICAL
    elif abs(Q - 1.0) <= _CLASSIFY_TOL and q_floor_ok:
        label = CRITICAL
    else:
        label = INADMISSIBLE
    return ExponentClass(label, Q, q_floor, q_floor_ok)


@dataclass
class SimulationConfig:
    grid: TorusGrid
    params: FluidParams
    law: ViscosityLaw
    rho0: GridField
    smoothing_n: int
    scheme: AdvectionScheme
    t_final: float
    output_every: float
    penalty: tuple = None
    seed: int = 0
    force: bool = False

    def __post_init__(self):
        if self.rho0.grid != self.grid:
            raise ValueError("rho0 does not live on the configured grid")
        if self.params.d != self.grid.d:
            raise ValueError("params.d does not match the grid dimension")
        if self.t_final < 0:
            raise ValueError("t_final must be nonnegative")
        if not self.output_every > 0:
            raise ValueError("output_every must be positive")
        verdict = classify_exponents(self.params)
        if verdict.label == INADMISSIBLE and not self.force:
            raise InadmissibleExponents(
                f"exponent pack is {verdict.label} (Q = {verdict.Q:.6g}, "
                f"q floor {verdict.q_floor:.6g}); rerun with force to proceed"
            )


@dataclass
class DiagnosticsSeries:
    """Columnar per-output-time record of the quantities the estimates bound."""

    t: list = field(default_factory=list)
    lq_norm: list = field(default_factory=list)
    l2_norm: list = field(default_factory=list)
    recip_norm: list = field(default_factory=list)
    du_beta: list = field(default_factory=list)
    dissipation: list = field(default_factory=list)
    work: list = field(default_factory=list)
    energy_residual: list = field(default_factory=list)
    iters: list = field(default_factory=list)

    _COLUMNS = ("t", "lq_norm", "l2_norm", "recip_norm", "du_beta",
                "dissipation", "work", "energy_residual", "iters")

    def append(self, **row):
        for name in self._COLUMNS:
            value = row[name]
            if name != "recip_norm" and not math.isfinite(value):
                raise ValueError(f"diagnostics column {name} got non-finite value {value!r}")
            getattr(self, name).append(value)

    def __len__(self):
        return len(self.t)

    def rows(self):
        return list(zip(*(getattr(self, name) for name in self._COLUMNS)))


@dataclass
class SimulationResult:
    series: DiagnosticsSeries
    snapshots: list
    completed: bool
    reason: str = ""


def smooth_velocity(u: VelocityField, j: int) -> VelocityField:
    """Apply the low-frequency cutoff S_j componentwise; the multiplier is
    radial, so divergence-freeness survives."""
    return VelocityField(tuple(low_freq_truncate(c, j) for c in u.components), check=False)


def smooth_density(rho: GridField, j: int) -> GridField:
    return to_grid(low_freq_truncate(to_spectral(rho), j))


def velocity_l2_distance(u: VelocityField, v: VelocityField) -> float:
    diff = u.coeff_stack() - v.coeff_stack()
    return math.sqrt(l2_inner(u.grid, diff, diff))


def velocity_l2_norm(u: VelocityField) -> float:
    stack = u.coeff_stack()
    return math.sqrt(l2_inner(u.grid, stack, stack))


def run(config: SimulationConfig) -> SimulationResult:
    """March the coupled system to t_final.

    Each pass solves the Stokes problem for the current density, records
    diagnostics when an output time is reached, then advects the density
    with the smoothed velocity. The first solve starts cold; each later one
    starts from the Newtonian predictor v_prev + M P((rho - rho_prev) g):
    the previous minimizer plus the solver's Newtonian preconditioner M
    applied to the projected change of forcing, which is the exact
    minimizer for p = 2 with unit viscosity. The step length never jumps
    past an output time or the CFL cap, and steps end exactly on the
    output times and on t_final. A non-converged solve or a CflViolation
    in the advection step aborts with the rows and snapshots recorded so
    far, completed=False and the reason. A pack with beta < 1, whose
    du_beta column is not a norm, raises BadValue before the first solve.
    """
    params = config.params
    if params.beta < 1:
        raise BadValue(f"du_beta needs a Lebesgue exponent beta >= 1, got beta = {params.beta:.6g}")
    series = DiagnosticsSeries()
    snapshots = []
    rho = smooth_density(config.rho0, config.smoothing_n)
    t = 0.0
    next_out = 0.0
    # The predictor carries one stack, lag = v_prev - M P(rho_prev g), and
    # starts the next solve from lag + M P(rho g). During a solve run holds
    # only that u0 and the new start, one stack more than v_prev alone.
    lag = None

    while True:
        prob = StokesProblem(rho, params, config.law, config.penalty)
        start = newtonian_start(np.multiply.outer(params.g, to_spectral(rho).coeffs),
                                config.grid, config.penalty)
        u0 = None if lag is None else VelocityField(
            tuple(SpectralField(config.grid, c) for c in lag + start), check=False)
        lag = None
        v, report = solve_stokes(prob, u0=u0)
        if not report.converged:
            return SimulationResult(series, snapshots, completed=False,
                                    reason=f"stokes solve stalled at t = {t:.6g}")
        lag = v.coeff_stack() - start
        u = smooth_velocity(v, config.smoothing_n)

        if t >= next_out - _TIME_TOL:
            diag = solution_diagnostics(prob, v)
            series.append(
                t=t,
                lq_norm=lebesgue_norm(rho, params.q),
                l2_norm=lebesgue_norm(rho, 2),
                recip_norm=reciprocal_norm(rho, params.sigma),
                du_beta=diag["du_beta"],
                dissipation=diag["dissipation"],
                work=diag["work"],
                energy_residual=diag["energy_residual"],
                iters=report.iterations,
            )
            snapshots.append((t, rho))
            next_out = t + config.output_every
        del v, u0, start

        if t >= config.t_final - _TIME_TOL:
            break

        # a remainder within _TIME_TOL of the target is folded into this
        # step, which then ends exactly on the output time or t_final
        target = next_out if next_out < config.t_final - _TIME_TOL else config.t_final
        vmax = speed_sup(u)
        cap = config.scheme.cfl_target * config.grid.h / vmax if vmax > 0 else math.inf
        dt, t_next = (target - t, target) if target - t <= cap + _TIME_TOL else (cap, t + cap)
        try:
            rho = advect_step(rho, u, config.scheme, dt=dt, vmax=vmax)
        except CflViolation as exc:
            return SimulationResult(series, snapshots, completed=False,
                                    reason=f"CFL breakdown at t = {t:.6g}: {exc}")
        t = t_next

    return SimulationResult(series, snapshots, completed=True)


def convergence_sweep_n(config: SimulationConfig, n_list) -> dict:
    """Run the simulation at each smoothing index and tabulate the L^q
    Cauchy increments of the final densities between consecutive runs."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    finals = []
    results = []
    for n in n_list:
        result = run(replace(config, smoothing_n=int(n)))
        if not result.completed:
            raise MaxIterations(f"sweep member n = {n} did not complete: {result.reason}")
        results.append(result)
        finals.append(result.snapshots[-1][1])
    increments = []
    for a, b in zip(finals, finals[1:]):
        diff = GridField(a.grid, a.values - b.values, check=False)
        increments.append(lebesgue_norm(diff, config.params.q))
    return {"n": n_list, "increments": increments, "results": results}


def penalty_sweep_N(config: SimulationConfig, N_list) -> dict:
    """L2 distances between penalized and unpenalized minimizers of the
    initial Stokes problem, for increasing penalty strength N."""
    if config.penalty is None:
        raise ValueError("penalty_sweep_N needs a configured penalty pair (N, k)")
    _, k = config.penalty
    N_list = list(N_list)
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be strictly increasing")
    rho = smooth_density(config.rho0, config.smoothing_n)
    prob_inf = StokesProblem(rho, config.params, config.law, None)
    u_inf, _ = solve_stokes(prob_inf, strict=True)
    distances = []
    for N in N_list:
        prob_N = StokesProblem(rho, config.params, config.law, (float(N), k))
        u_N, _ = solve_stokes(prob_N, u0=u_inf, strict=True)
        distances.append(velocity_l2_distance(u_N, u_inf))
    return {"N": N_list, "distance": distances, "u_ref_norm": velocity_l2_norm(u_inf)}
