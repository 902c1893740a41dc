"""Every scalar numeric argument of the public numeric API is checked by
its domain, the errors._Domain rule that the config fields use: NaN, an
infinity where the domain is finite, and a value just outside each bound
raise a ValueError that names the argument, while a valid value returns
its known result.

Where fields meet in one call they must share a grid, and a mean_velocity
drift must have d finite components: a mismatch raises a ValueError that
names both grids, or the drift's length or its non-finite component,
before any solve starts."""

import functools
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from nnstokes import (
    AdvectionScheme,
    FluidParams,
    GridField,
    SimulationConfig,
    SpectralField,
    StokesProblem,
    TorusGrid,
    VelocityField,
    atan_scaled,
    bernstein_ratio,
    besov_norm,
    commutator_residual,
    constant_law,
    custom_eta,
    evolve,
    lebesgue_norm,
    leray_project,
    low_freq_truncate,
    lp_block,
    minty_sweep,
    pairing_l2,
    smooth_clamp,
    smooth_density,
    smooth_velocity,
    solve_stokes,
    solve_stokes_batch,
    solve_stokes_penalized,
    speed_sup,
    to_spectral,
    velocity_l2_distance,
)
from nnstokes import stokes
from nnstokes.fields import random_band_field, random_velocities, random_velocity, sines2_field
from nnstokes.spectral import j_max, k_squared
from nnstokes.stokes import _Workspace
from nnstokes.transport import advect_step

NAN, INF = math.nan, math.inf
BELOW_ONE = math.nextafter(1.0, 0.0)
BELOW_ZERO = math.nextafter(0.0, -1.0)


@pytest.fixture(scope="module")
def inputs():
    """Small fields shared by the cases, built once."""
    grid = TorusGrid(2, 16)
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    shear = VelocityField((zero, to_spectral(GridField(grid, np.sin(grid.coordinate(0))))),
                          check=False)  # u = (0, sin x1), |Du|_{L^2} = pi
    rho = sines2_field(grid, offset=1.0, a=0.5, b=0.25)
    prob = StokesProblem(rho, FluidParams(p=2.0, q=1.5), constant_law(1.0))
    ws = _Workspace([prob])
    c = ws.stack_of(shear)
    return {
        "rho": rho,
        "ones": GridField(grid, np.ones(grid.shape)),
        "threes": to_spectral(GridField(grid, np.full(grid.shape, 3.0))),
        "sin2": to_spectral(GridField(grid, np.sin(2.0 * grid.coordinate(0)))),
        "u": random_velocity(grid, seed=11, kmax=4, amplitude=1.0),
        "scheme": AdvectionScheme("spectral_rk4", dt=0.1),
        "prob": prob,
        "penalized": StokesProblem(rho, FluidParams(p=2.0, q=1.5), constant_law(1.0), (10.0, 3)),
        "strain": (ws, ws._eval_state(c)),
    }


def never_called(t):
    """A velocity provider for evolve: a step taken fails the test instead
    of running on (evolve(T=inf) used to step forever)."""
    raise AssertionError(f"evolve asked for a velocity at t = {t}")


def darctan(r):
    return 1.0 / (1.0 + np.asarray(r, dtype=np.float64) ** 2)


# the Besov norm of the constant 3: only block -1, 2^{-s} 3 (2 pi)^{2/p}
BESOV_OF_THREE = 2.0 ** -1.5 * 3.0 * 2.0 * math.pi


@dataclass(frozen=True)
class Case:
    site: str  # the function and its argument
    name: str  # the argument's name in the message
    call: object  # (inputs, value) -> result
    bad: tuple
    valid: float
    holds: object  # (inputs, result) -> whether the valid value's result is right


def band_limited(u, kmax):
    """Whether velocity u is nonzero with no mode beyond |k| = kmax above
    rounding."""
    c = np.abs(u.coeff_stack())
    return 0.0 < 1e12 * c[:, k_squared(u.grid) > kmax * kmax].max() < c.max()


def band_limited_field(f, kmax):
    """Whether the zero-mean part of density f is nonzero with no mode
    beyond |k| = kmax above rounding."""
    c = np.abs(to_spectral(f).coeffs)
    c[(0,) * f.grid.d] = 0.0
    return 0.0 < 1e12 * c[k_squared(f.grid) > kmax * kmax].max() < c.max()


BESOV = pytest.approx(BESOV_OF_THREE, rel=1e-12)
CASES = [
    Case("lebesgue_norm r", "Lebesgue exponent",
         lambda e, r: lebesgue_norm(e["ones"], r),
         (NAN, -INF, BELOW_ONE), INF, lambda e, out: out == 1.0),
    Case("besov_norm s", "Besov regularity index",
         lambda e, s: besov_norm(e["threes"], s, 2.0, 2.0),
         (NAN, INF, -INF), 1.5, lambda e, out: out == BESOV),
    Case("besov_norm p", "Besov integrability exponent p",
         lambda e, p: besov_norm(e["threes"], 1.5, p, 2.0),
         (NAN, -INF, BELOW_ONE), 2.0, lambda e, out: out == BESOV),
    Case("besov_norm r", "Besov integrability exponent r",
         lambda e, r: besov_norm(e["threes"], 1.5, 2.0, r),
         (NAN, -INF, BELOW_ONE), INF, lambda e, out: out == BESOV),
    Case("strain_norm r", "Lebesgue exponent",
         lambda e, r: e["strain"][0].strain_norm(e["strain"][1], r)[0],
         (NAN, INF, -INF, BELOW_ONE), 2.0, lambda e, out: out == pytest.approx(math.pi, rel=1e-12)),
    Case("advect_step dt", "advection step length",
         lambda e, dt: advect_step(e["rho"], e["u"], e["scheme"], dt=dt),
         (NAN, INF, -INF, BELOW_ZERO), 0.0,
         lambda e, out: out is not e["rho"] and np.array_equal(out.values, e["rho"].values)),
    Case("advect_step vmax", "vmax",
         lambda e, vmax: advect_step(e["rho"], e["u"], e["scheme"], vmax=vmax),
         (NAN, INF, -INF, BELOW_ZERO), 0.0,  # a fluid at rest: one substep, as at the true speed
         lambda e, out: np.array_equal(out.values, advect_step(e["rho"], e["u"], e["scheme"]).values)),
    Case("evolve T", "final time",
         lambda e, T: evolve(e["rho"], never_called, T, e["scheme"]),
         (NAN, INF, -INF, BELOW_ZERO), 0.0,
         lambda e, out: out[0] is e["rho"] and out[1:] == ([0.0], [[]])),
    Case("smooth_clamp k", "smooth_clamp level k",
         lambda e, k: smooth_clamp(k),
         (NAN, INF, -INF, 0.0), 2.0, lambda e, out: (out.bound, out.param) == (3.0, 2.0)),
    Case("atan_scaled a", "atan_scaled scale a",
         lambda e, a: atan_scaled(a),
         (NAN, INF, -INF, 0.0), 2.0, lambda e, out: (out.bound, out.param) == (math.pi, 2.0)),
    Case("custom_eta bound", "eta bound",
         lambda e, bound: custom_eta(np.arctan, darctan, bound),
         (NAN, INF, -INF, 0.0), math.pi / 2, lambda e, out: out.bound == math.pi / 2),
    Case("commutator_residual epsilon", "mollifier width",
         lambda e, eps: commutator_residual(e["ones"], e["u"], eps, FluidParams(p=4.0, q=1.9)),
         (NAN, INF, -INF), 0.5, lambda e, out: 0.0 <= out <= 1e-12),
    Case("solve_stokes tol", "tol",
         lambda e, tol: solve_stokes(e["prob"], tol=tol)[1],
         (NAN, INF, -INF, 0.0), 1e-8, lambda e, report: report.converged),
    Case("solve_stokes max_iter", "max_iter",
         lambda e, max_iter: solve_stokes(e["prob"], max_iter=max_iter)[1],
         (NAN, INF, -INF, -1, 2.5), 0, lambda e, report: report.iterations == 0),
    Case("solve_stokes_batch max_iter", "max_iter",
         lambda e, max_iter: solve_stokes_batch([e["prob"]] * 2, max_iter=max_iter),
         (NAN, INF, -INF, -1, 2.5), 3,
         lambda e, out: [report.converged for _, report in out] == [True, True]),
    Case("solve_stokes_penalized max_iter", "max_iter",
         lambda e, max_iter: solve_stokes_penalized(e["penalized"], max_iter=max_iter)[1],
         (NAN, INF, -INF, -1, 2.5), 3, lambda e, report: report.converged),
    # a smoothing index is a config's smoothing.n; j = -5 used to keep only the mean
    Case("low_freq_truncate j", "smoothing index j",
         lambda e, j: low_freq_truncate(e["threes"], j),
         (NAN, INF, -INF, 2.5, -5), 0, lambda e, out: np.array_equal(out.coeffs, e["threes"].coeffs)),
    Case("smooth_velocity j", "smoothing index j",
         lambda e, j: smooth_velocity(e["u"], j),
         (NAN, INF, -INF, 2.5, -5), j_max(TorusGrid(2, 16)),
         lambda e, v: np.array_equal(v.coeff_stack(), e["u"].coeff_stack())),
    Case("smooth_density j", "smoothing index j",
         lambda e, j: smooth_density(e["rho"], j),
         (NAN, INF, -INF, 2.5, -5), j_max(TorusGrid(2, 16)),
         lambda e, f: np.allclose(f.values, e["rho"].values, rtol=0.0, atol=1e-15)),
    # any integer is a block; those below -1 vanish
    Case("lp_block j", "block index j",
         lambda e, j: lp_block(e["threes"], j),
         (NAN, INF, -INF, 2.5), -5, lambda e, out: not np.any(out.coeffs)),
    Case("bernstein_ratio j", "block index j",
         lambda e, j: bernstein_ratio(e["sin2"], j, 2.0),
         (NAN, INF, -INF, 2.5), 0, lambda e, out: out == 2.0),  # |grad sin 2x| = 2 |sin 2x| in L^2
    Case("random_velocity kmax", "kmax",
         lambda e, kmax: random_velocity(e["rho"].grid, seed=1, kmax=kmax),
         (NAN, INF, -INF, 0.0), 4.0, lambda e, u: band_limited(u, 4.0)),
    Case("random_velocities kmax", "kmax",
         lambda e, kmax: random_velocities(e["rho"].grid, [1, 2], kmax=kmax),
         (NAN, INF, -INF, 0.0), 2.5, lambda e, us: len(us) == 2 and all(band_limited(u, 2.5) for u in us)),
    # a band below |k| = 1 is empty: these drew the zero velocity, or the offset alone
    Case("random_velocity kmax below 1", "kmax",
         lambda e, kmax: random_velocity(e["rho"].grid, seed=1, kmax=kmax),
         (0.5, BELOW_ONE), 1.0, lambda e, u: band_limited(u, 1.0)),
    Case("random_velocities kmax below 1", "kmax",
         lambda e, kmax: random_velocities(e["rho"].grid, [1, 2], kmax=kmax),
         (0.5, BELOW_ONE), 1.0, lambda e, us: len(us) == 2 and all(band_limited(u, 1.0) for u in us)),
    Case("random_band_field kmax", "kmax",
         lambda e, kmax: random_band_field(e["rho"].grid, seed=1, kmax=kmax, offset=2.0),
         (NAN, INF, -INF, 0.5, BELOW_ONE), 1.0,
         lambda e, f: np.ptp(f.values) > 0 and band_limited_field(f, 1.0)),
]
IDS = [case.site for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_values_outside_the_domain_raise(inputs, case):
    for value in case.bad:
        with pytest.raises(ValueError, match=re.escape(f"{case.name} must be")):
            case.call(inputs, value)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_valid_value_returns_its_result(inputs, case):
    assert case.holds(inputs, case.call(inputs, case.valid))


# ---------------------------------------------------------------------------
# where fields meet: one grid, and a drift of d finite components

@functools.lru_cache(maxsize=None)
def elsewhere(grid):
    """A velocity and a density on grid, built once per grid."""
    return random_velocities(grid, [1], kmax=4)[0], GridField(grid, np.ones(grid.shape))


P4 = FluidParams(p=4.0, q=1.9)
SL = AdvectionScheme("semi_lagrangian", dt=0.1)

# name -> (inputs, velocity, density) -> result, for a velocity and a
# density on another grid than the inputs' 2D n = 16 one
GRID_CALLS = {
    "VelocityField": lambda e, v, rho: VelocityField((e["u"].components[0], v.components[1])),
    "leray_project": lambda e, v, rho: leray_project((e["u"].components[0], v.components[1])),
    "pairing_l2": lambda e, v, rho: pairing_l2(e["u"], v),
    "velocity_l2_distance": lambda e, v, rho: velocity_l2_distance(e["u"], v),
    "minty_sweep test field": lambda e, v, rho: minty_sweep([e["rho"]], e["rho"], [v], P4,
                                                            constant_law(1.0)),
    "minty_sweep density": lambda e, v, rho: minty_sweep([rho], e["rho"], [e["u"]], P4,
                                                         constant_law(1.0)),
    "commutator_residual": lambda e, v, rho: commutator_residual(e["rho"], v, 0.5, P4),
    "advect_step": lambda e, v, rho: advect_step(e["rho"], v, e["scheme"]),
    "evolve": lambda e, v, rho: evolve(e["rho"], v, 0.1, e["scheme"]),
    "stack_of": lambda e, v, rho: _Workspace([e["prob"]]).stack_of(v),
    "SimulationConfig rho0": lambda e, v, rho: SimulationConfig(
        grid=e["rho"].grid, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0), rho0=rho,
        smoothing_n=2, scheme=e["scheme"], t_final=0.1, output_every=0.1),
}
OTHER_GRIDS = [TorusGrid(2, 32), TorusGrid(3, 16), TorusGrid(2, 8)]

# name -> (inputs, mean_velocity) -> result
DRIFT_CALLS = {
    "speed_sup": lambda e, mv: speed_sup(e["u"], mv),
    "advect_step spectral_rk4": lambda e, mv: advect_step(e["rho"], e["u"], e["scheme"],
                                                          mean_velocity=mv, vmax=1.0),
    "advect_step semi_lagrangian": lambda e, mv: advect_step(e["rho"], e["u"], SL,
                                                             mean_velocity=mv, vmax=1.0),
    "evolve": lambda e, mv: evolve(e["rho"], lambda t: (e["u"], mv), 0.1, e["scheme"]),
    "commutator_residual": lambda e, mv: commutator_residual(e["rho"], e["u"], 0.5, P4,
                                                             mean_velocity=mv),
}
# a drift of d - 1 and of d + 1 components (the first silently drifted one
# axis, the second raised IndexError), NaN and inf components (a NaN or a
# wrong density, or ZeroDivisionError), and a number that is no vector
BAD_DRIFTS = [((0.5,), "needs 2 components, got 1"), ((0.5, 0.0, 7.0), "needs 2 components, got 3"),
              ((NAN, 0.0), "must be finite, got nan"), ((INF, 0.0), "must be finite, got inf"),
              (0.5, "needs 2 components, got 0.5")]


@dataclass(frozen=True)
class Meeting:
    site: str
    call: object  # inputs -> result, which must raise
    match: str  # a regex the ValueError's message matches


def grid_meeting(name, call, grid):
    return Meeting(f"{name} on {grid.d}x{grid.n}", lambda e: call(e, *elsewhere(grid)),
                   rf"on TorusGrid\(d={grid.d}, n={grid.n}\) was given for .+ on TorusGrid\(d=2, n=16\)")


def drift_meeting(name, call, drift, message):
    return Meeting(f"{name} mean_velocity={drift}", lambda e: call(e, drift),
                   re.escape(f"mean_velocity {message}"))


MEETINGS = (
    [grid_meeting(name, call, grid) for name, call in GRID_CALLS.items() for grid in OTHER_GRIDS]
    + [drift_meeting(name, call, drift, message) for name, call in DRIFT_CALLS.items()
       for drift, message in BAD_DRIFTS]
    + [Meeting("leray_project three components",
               lambda e: leray_project((e["u"].components * 2)[:3]), "need 2 components, got 3"),
       Meeting("FluidParams g a number", lambda e: FluidParams(p=2.0, q=1.5, g=0.5),
               re.escape("g needs 2 components, got 0.5"))]
)


@pytest.mark.parametrize("meeting", MEETINGS, ids=[m.site for m in MEETINGS])
def test_fields_that_do_not_meet_raise(inputs, meeting, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started before the arguments were checked")

    monkeypatch.setattr(stokes, "_solve", no_solve)
    with pytest.raises(ValueError, match=meeting.match):
        meeting.call(inputs)


@pytest.mark.parametrize("drift", [[0.5, 0], np.array([0.5, -0.0]), (np.float32(0.5), False)],
                         ids=["list", "array", "numpy scalar"])
def test_a_valid_drift_keeps_its_bits(inputs, drift):
    """A drift given as any sequence of d finite numbers acts as the tuple
    of those floats."""
    as_floats = (0.5, 0.0)
    for call in DRIFT_CALLS.values():
        out, ref = call(inputs, drift), call(inputs, as_floats)
        if isinstance(out, tuple):  # evolve: the final density
            out, ref = out[0], ref[0]
        if isinstance(out, GridField):
            out, ref = out.values, ref.values
        assert np.array_equal(out, ref)
