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
from dataclasses import dataclass, field, fields, replace

from .errors import (_NONNEGATIVE, _POSITIVE, BadValue, CflViolation, InadmissibleExponents,
                     MaxIterations, _check_fields, _field)
from .rheology import FluidParams, ViscosityLaw
from .spectral import (_SMOOTHING_INDEX, GridField, TorusGrid, VelocityField, _check_grid, _low_pass,
                       l2_inner, lebesgue_norm, low_freq_truncate, reciprocal_norm, to_grid,
                       to_spectral)
from .stokes import StokesProblem, _diagnostics, _solve, _Workspace, pairing_l2, solve_stokes
from .transport import _STEP_FLOOR, AdvectionScheme, _cfl_cap, advect_step, speed_sup

_CLASSIFY_TOL = 1e-12

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
    smoothing_n: int = _field(domain=_SMOOTHING_INDEX)
    scheme: AdvectionScheme
    t_final: float = _field(domain=_NONNEGATIVE)
    output_every: float = _field(domain=_POSITIVE)
    penalty: tuple = None
    seed: int = _field(0, low=0, integer=True)
    force: bool = False

    def __post_init__(self):
        _check_grid(self.grid, [self.rho0], "rho0", "a config")
        _check_fields(self)
        # the dimension and penalty rules of the problems run() will solve
        self.penalty = StokesProblem(self.rho0, self.params, self.law, self.penalty).penalty
        verdict = classify_exponents(self.params)
        if verdict.label == INADMISSIBLE and not self.force:
            raise InadmissibleExponents(
                f"exponent pack is {verdict.label} (Q = {verdict.Q:.6g}, "
                f"q floor {verdict.q_floor:.6g}); rerun with force to proceed"
            )


@dataclass
class DiagnosticsSeries:
    """Columnar per-output-time record of the quantities the estimates
    bound; its fields, in order, are the columns of the diagnostics CSV."""

    t: list = field(default_factory=list)
    lq_norm: list = field(default_factory=list)
    l2_norm: list = field(default_factory=list)
    recip_norm: list = field(default_factory=list)
    du_beta: list = field(default_factory=list)
    dissipation: list = field(default_factory=list)
    work: list = field(default_factory=list)
    energy_residual: list = field(default_factory=list)
    iters: list = field(default_factory=list)

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


DiagnosticsSeries._COLUMNS = tuple(f.name for f in fields(DiagnosticsSeries))


@dataclass
class SimulationResult:
    series: DiagnosticsSeries
    snapshots: list
    completed: bool
    reason: str = ""


def smooth_velocity(u: VelocityField, j: int) -> VelocityField:
    """Apply the low-frequency cutoff S_j to the stored half layout; the
    multiplier is radial, so divergence-freeness survives."""
    return VelocityField.from_half_stack(u.half_stack * _low_pass(u.grid, j, half=True), u.grid)


def smooth_density(rho: GridField, j: int) -> GridField:
    return to_grid(low_freq_truncate(to_spectral(rho), j))


def velocity_l2_distance(u: VelocityField, v: VelocityField) -> float:
    _check_grid(u.grid, [v], "a velocity", "a distance to a velocity")
    diff = u.half_stack - v.half_stack
    return math.sqrt(l2_inner(u.grid, diff, diff))


def velocity_l2_norm(u: VelocityField) -> float:
    return math.sqrt(pairing_l2(u, u))


def run(config: SimulationConfig) -> SimulationResult:
    """March the coupled system to t_final.

    Each pass solves the Stokes problem for the current density, records
    diagnostics when an output time is reached, then advects the density
    with the smoothed velocity. A row's energy columns are
    solution_diagnostics of the solved velocity, read from the solve's
    workspace and final state. The first solve starts cold; each later one
    starts from the Newtonian predictor v_prev + M P((rho - rho_prev) g):
    the previous minimizer plus the solver's Newtonian preconditioner M
    applied to the projected change of forcing, which is the exact
    minimizer for p = 2 with unit viscosity. The step length never jumps
    past an output time or the CFL cap, and steps end exactly on the
    output times and on t_final. A non-converged solve, or a CflViolation
    from the CFL cap or the step (such as an infinite or NaN speed), aborts
    with the rows and snapshots recorded so far, completed=False and the
    reason. A pack with beta < 1, whose du_beta column is not a norm,
    raises BadValue before the first solve.
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
        ws = _Workspace([prob])
        start = ws.newtonian_start()
        u0 = None if lag is None else lag + start
        lag = None
        [(v, report)], c, mag2 = _solve(ws, [prob], u0)
        if not report.converged:
            return SimulationResult(series, snapshots, completed=False,
                                    reason=f"stokes solve stalled at t = {t:.6g}")
        lag = c - start
        u = smooth_velocity(v, config.smoothing_n)

        if t >= next_out - _STEP_FLOOR:
            series.append(
                t=t,
                lq_norm=lebesgue_norm(rho, params.q),
                l2_norm=lebesgue_norm(rho, 2),
                recip_norm=reciprocal_norm(rho, params.sigma),
                iters=report.iterations,
                **_diagnostics(ws, c, mag2, params.beta),
            )
            snapshots.append((t, rho))
            next_out = t + config.output_every
        del v, u0, start, ws, c, mag2

        if t >= config.t_final - _STEP_FLOOR:
            break

        # a remainder shorter than advect_step's step floor is folded into
        # this step, which then ends exactly on the output time or t_final
        target = next_out if next_out < config.t_final - _STEP_FLOOR else config.t_final
        vmax = speed_sup(u)
        try:
            cap = _cfl_cap(config.scheme, config.grid, vmax)
            dt, t_next = (target - t, target) if target - t <= cap + _STEP_FLOOR else (cap, t + cap)
            rho = advect_step(rho, u, config.scheme, dt=dt, vmax=vmax)
        except CflViolation as exc:
            return SimulationResult(series, snapshots, completed=False,
                                    reason=f"CFL breakdown at t = {t:.6g}: {exc}")
        del u  # and its stored grid and fine-grid values, before the next solve
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
