"""Divergence-form advection of a density by divergence-free velocities.

    d_t rho + div(rho u) = 0

Two interchangeable one-step schemes are provided. spectral_rk4 advances
Fourier coefficients with a dealiased divergence-form tendency and a
4-stage Runge-Kutta step; it conserves the mean exactly because the zero
mode of the tendency vanishes identically. semi_lagrangian traces
characteristics backward with a midpoint rule and resamples by periodic
cubic B-spline interpolation; it is monotone up to interpolation overshoot
and commutes with pointwise renormalization up to the same error. The
splines are NumPy alone: the prefilter divides the half-layout
coefficients, a velocity's stored ones, by the spline's symbol, and an
interpolation sums 4^d gathers of the wrap-padded spline coefficients
against a stencil of weights. Its departure points depend on the
velocity, the substep length and the drift, not on the density: a
velocity keeps their stencil for its last (substep length, drift), so
that stepping it again with the same ones, as evolve with a frozen
velocity does, filters and interpolates only the density.

The velocity is frozen within a step. Constant background drifts, which
the zero-mean velocity type cannot represent, enter through the explicit
mean_velocity bypass: None or d finite numbers. A velocity and a density
passed together share one grid; otherwise a ValueError names both.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (_EXPONENT, _FINITE, _NONNEGATIVE, _POSITIVE, CflViolation,
                     UnresolvableMollifier, _check_fields, _field, _finite_vector)
from .rheology import FluidParams
from .spectral import (
    GridField,
    VelocityField,
    _check_grid,
    _lattice,
    _read_only,
    dealiaser,
    half_scale,
    irfft_values,
    lebesgue_norm,
    rfft_coeffs,
)


@dataclass(frozen=True)
class AdvectionScheme:
    """Scheme selector with nominal step and CFL target in (0, 1]."""

    kind: str = _field(choices=("spectral_rk4", "semi_lagrangian"))
    dt: float = _field(0.01, _POSITIVE)
    cfl_target: float = _field(0.5, low=0.0, high=1.0, open_low=True)

    def __post_init__(self):
        _check_fields(self)


def speed_sup(u: VelocityField, mean_velocity=None) -> float:
    """Pointwise maximum speed on the grid, bypass drift included; inf only
    for a speed beyond the largest float."""
    vals = _drifted(u.grid_stack, _finite_vector("mean_velocity", mean_velocity, u.grid.d))
    sq = float(np.einsum("j...,j...->...", vals, vals).max())
    if sq < math.inf:
        return math.sqrt(sq)
    # the squares overflow: the speeds scaled by the largest component first
    scale = float(np.abs(vals).max())
    if scale == math.inf:
        return scale
    vals = vals / scale
    return scale * math.sqrt(float(np.einsum("j...,j...->...", vals, vals).max()))


# the shortest substep advect_step takes; a shorter one raises CflViolation
_STEP_FLOOR = 1e-12


def _cfl_cap(scheme: AdvectionScheme, grid, vmax: float) -> float:
    """The CFL cap cfl_target * h / vmax on a step; inf for a fluid at rest.
    A cap under the step floor, which leaves every substep under it, raises
    CflViolation: 0 for an infinite speed or an underflowing quotient, and
    NaN for a NaN speed."""
    return _floored(scheme.cfl_target * grid.h / vmax if vmax != 0 else math.inf, vmax)


def _floored(tau: float, vmax: float, split: bool = True) -> float:
    """tau, a substep or a cap on one, if it reaches the step floor; else
    CflViolation, which blames the velocity only where the CFL rule split
    the step: an unsplit substep under the floor is the requested step."""
    if tau >= _STEP_FLOOR:
        return tau
    if not split:
        raise CflViolation(f"the requested step length sets the substep to {tau:.3e} "
                           f"(< {_STEP_FLOOR:g})")
    raise CflViolation(f"CFL reduction drove the substep to {tau:.3e} (< {_STEP_FLOOR:g}); "
                       f"velocity sup {vmax:.3e} is too fast for this grid")


def _substep_count(dt: float, cap: float) -> int:
    """Smallest power-of-two substep count bringing dt/m under the CFL cap."""
    if dt <= cap:
        return 1
    return 2 ** int(math.ceil(math.log2(dt / cap)))


def _drifted(stack: np.ndarray, mean_velocity) -> np.ndarray:
    """A stack of velocity components, or a copy with drift component j added to row j."""
    if mean_velocity is None:
        return stack
    return stack + np.reshape(mean_velocity, (-1,) + (1,) * (stack.ndim - 1))


def _flux_divergence(rho_hat: np.ndarray, u_fine: np.ndarray, grid, out=None,
                     prod=None) -> np.ndarray:
    """Half-layout coefficients of div(rho u) from those of rho, the product
    dealiased by the 3/2 rule; written into out, and the fine-grid product
    into prod, where given."""
    engine = dealiaser(grid.d, grid.n)
    kd = _lattice(grid.d, grid.n, half=True).derivs
    flux_hat = engine.to_coarse(np.multiply(engine.to_fine(rho_hat), u_fine, out=prod))
    if out is None:
        out = np.empty(flux_hat.shape[1:], dtype=np.complex128)
    out.fill(0.0)  # summed from +0, so a mode whose terms are signed zeros reads +0
    for j in range(grid.d):
        flux_hat[j] *= kd[j]
        out += flux_hat[j]
    out *= 1j
    return out


def _rk4_substeps(rho: GridField, u: VelocityField, tau: float, m: int, mean_velocity):
    """m RK4 substeps of length tau. The state y and the stages are the
    density's (unscaled) half-layout coefficients: the step takes grid
    values in and gives grid values out, through rfft_coeffs and
    irfft_values."""
    grid = rho.grid
    u_fine = _drifted(u.fine_stack, mean_velocity)
    y = rfft_coeffs(rho.values, grid)
    # one working set for the whole call: a stage frees no megabytes for
    # the allocator to return to the kernel and the next stage to fault in
    prod = np.empty(u_fine.shape)
    trial = np.empty_like(y)
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    for _ in range(m):
        _flux_divergence(y, u_fine, grid, k1, prod)
        for k_in, c, k_out in ((k1, 0.5 * tau, k2), (k2, 0.5 * tau, k3), (k3, tau, k4)):
            np.subtract(y, np.multiply(k_in, c, out=trial), out=trial)  # y - c k_in
            _flux_divergence(trial, u_fine, grid, k_out, prod)
        # y - (tau/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= tau / 6.0
        y -= k1
    return GridField(grid, irfft_values(y, grid), check=False)


@lru_cache(maxsize=32)
def _spline_symbol(d: int, n: int) -> np.ndarray:
    """The read-only half-layout symbol of periodic cubic B-spline
    interpolation at the nodes, prod_a (4 + 2 cos(2 pi k_a / n)) / 6: the
    values' coefficients are the splines' times it."""
    waves = _lattice(d, n, half=True).waves
    return _read_only(math.prod((4.0 + 2.0 * np.cos((2.0 * math.pi / n) * k)) / 6.0 for k in waves))


def _splines(values: np.ndarray, grid) -> np.ndarray:
    """The periodic cubic B-spline coefficients that interpolate real grid
    values, with any leading batch axes: the prefilter, one division by
    the symbol between rfft_coeffs and irfft_values."""
    coeffs = rfft_coeffs(values, grid)
    coeffs /= _spline_symbol(grid.d, grid.n)
    return irfft_values(coeffs, grid)


# the cubic-spline stencil of points on a grid: the flat index of each
# point's first node in the (n + 3)^d wrap-padded coefficients, and the
# weights, shape (d, 4, points), of its nodes floor(x) - 1 ... floor(x) + 2
_Stencil = namedtuple("_Stencil", "base weights")


def _stencil(points: np.ndarray, n: int) -> _Stencil:
    """The read-only stencil of index-space points of shape (d,) + grid
    shape on a periodic grid of n points per axis."""
    d = points.shape[0]
    weights = np.empty((d, 4, points[0].size))
    base = 0
    for x, w in zip(points.reshape(d, -1), weights):  # an axis at a time, in small arrays
        node = np.floor(x)
        y = x - node  # past the node floor(x), and z short of the next one
        z = 1.0 - y
        w[0] = z * z * z / 6.0
        w[1] = 2.0 / 3.0 - y * y * (1.0 - 0.5 * y)
        w[2] = 2.0 / 3.0 - z * z * (1.0 - 0.5 * z)
        w[3] = y * y * y / 6.0
        base = base * (n + 3) + node.astype(np.intp) % n
    return _Stencil(_read_only(base), _read_only(weights))


def _interpolate(splines: np.ndarray, stencil: _Stencil) -> np.ndarray:
    """The grid values at a stencil's points of the periodic cubic spline
    with coefficients splines: a sum over the 4^d nodes of each point, in
    C order, of coefficient times weights."""
    padded = np.pad(splines, (1, 2), mode="wrap")
    flat = padded.ravel()
    out = np.zeros(stencil.base.size)
    term = np.empty_like(out)
    for node in np.ndindex((4,) * splines.ndim):
        # every index is in range: "clip" spares the checked, buffered gather
        np.take(flat[np.ravel_multi_index(node, padded.shape):], stencil.base, out=term, mode="clip")
        for w, o in zip(stencil.weights, node):
            term *= w[o]
        out += term
    return out.reshape(splines.shape)


def _departure_stencil(u: VelocityField, tau: float, mean_velocity) -> _Stencil:
    """The stencil of the midpoint rule's index-space departure points for
    a substep of length tau, base - tau u(base - (tau/2) u) with u in grid
    units, drift added. The velocity keeps it with its (tau, drift) in its
    departures slot; a step with the same key reads it back, and one with
    another key replaces it, so a velocity is spline-filtered once per key."""
    key = (tau, mean_velocity)
    kept = u.departures  # read once: a step in another thread may replace it
    if kept is not None and kept[0] == key:
        return kept[1]
    grid = u.grid
    h = grid.h
    drift = None if mean_velocity is None else np.divide(mean_velocity, h)
    u_idx = _drifted(u.grid_stack / h, drift)
    base = np.indices(grid.shape, dtype=np.float64, sparse=True)

    def trace_back(c, v):
        """The stencil of base - c v, the index grid base broadcast from one axis at a time."""
        point = np.multiply(v, c)
        for b, o in zip(base, point):
            np.subtract(b, o, out=o)
        return _stencil(point, grid.n)

    midpoints = trace_back(0.5 * tau, u_idx)
    # u_idx's splines from the stored coefficients; the symbol is 1 at k = 0, where the drift adds
    symbol = half_scale(grid.n) * _spline_symbol(grid.d, grid.n) * h
    splines = _drifted(irfft_values(u.half_stack / symbol, grid), drift)
    u_mid = np.array([_interpolate(s, midpoints) for s in splines])
    stencil = trace_back(tau, u_mid)
    u.departures = (key, stencil)
    return stencil


def _semi_lagrangian_substeps(rho: GridField, u: VelocityField, tau: float, m: int,
                              mean_velocity):
    stencil = _departure_stencil(u, tau, mean_velocity)
    vals = rho.values
    mean0 = float(vals.mean())
    for _ in range(m):
        vals = _interpolate(_splines(vals, rho.grid), stencil)
        vals += mean0 - vals.mean()
    return GridField(rho.grid, vals)


def advect_step(rho: GridField, u: VelocityField, scheme: AdvectionScheme,
                dt: float = None, mean_velocity=None, vmax: float = None) -> GridField:
    """One advection step of length dt (default scheme.dt).

    The step is split into power-of-two substeps until each satisfies
    dt/m <= cfl_target * h / max|u|. Raises CflViolation when that would
    push the substep below 1e-12, as an infinite or NaN speed does, and
    for a nonzero dt under 1e-12, which names the step, not the speed. vmax
    is max|u|, speed_sup(u, mean_velocity), for a caller that has it
    already; it is computed when None.
    """
    _check_grid(rho.grid, [u], "a velocity", "a density")
    mean_velocity = _finite_vector("mean_velocity", mean_velocity, u.grid.d)
    dt = scheme.dt if dt is None else _NONNEGATIVE.check("advection step length", dt)
    if dt == 0.0:
        return GridField(rho.grid, rho.values.copy(), check=False)

    vmax = speed_sup(u, mean_velocity) if vmax is None else _NONNEGATIVE.check("vmax", vmax)
    m = _substep_count(dt, _cfl_cap(scheme, rho.grid, vmax))
    tau = _floored(dt / m, vmax, split=m > 1)

    if scheme.kind == "spectral_rk4":
        return _rk4_substeps(rho, u, tau, m, mean_velocity)
    return _semi_lagrangian_substeps(rho, u, tau, m, mean_velocity)


def evolve(rho0: GridField, velocity_provider, T: float, scheme: AdvectionScheme,
           observers=()):
    """March rho0 to time T, recording observers at t = 0 and after every step.

    velocity_provider is either a frozen VelocityField or a callable t -> u
    (optionally t -> (u, mean_velocity)). A remainder shorter than the 1e-12
    step floor is not stepped. Returns (rho_final, times, table) with
    table[i][j] the j-th observer at times[i].
    """
    _NONNEGATIVE.check("final time", T)

    def provide(t):
        if isinstance(velocity_provider, VelocityField):
            return velocity_provider, None
        out = velocity_provider(t)
        if isinstance(out, tuple):
            return out
        return out, None

    rho = rho0
    t = 0.0
    times = [0.0]
    table = [[obs(0.0, rho) for obs in observers]]
    while t < T - _STEP_FLOOR:
        dt = min(scheme.dt, T - t)
        u, mean_velocity = provide(t)
        rho = advect_step(rho, u, scheme, dt=dt, mean_velocity=mean_velocity)
        t += dt
        times.append(t)
        table.append([obs(t, rho) for obs in observers])
    return rho, times, table


# ---------------------------------------------------------------------------
# renormalization maps

@dataclass(frozen=True)
class AdmissibleEta:
    """A bounded strictly increasing renormalization map with its derivative.

    Admissibility (eta bounded, eta' > 0) is checked on a sampled log grid
    spanning [-1e6, 1e6] at construction; violations raise ValueError.
    """

    kind: str
    eta: object
    deta: object
    bound: float
    param: float = 0.0

    def __post_init__(self):
        problems = _eta_violations(self)
        if problems:
            raise ValueError("inadmissible eta: " + "; ".join(problems))


def _eta_sample_points() -> np.ndarray:
    pos = np.logspace(-6, 6, 200)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _eta_violations(eta: AdmissibleEta) -> list:
    r = _eta_sample_points()
    problems = []
    e = np.asarray(eta.eta(r), dtype=np.float64)
    de = np.asarray(eta.deta(r), dtype=np.float64)
    if not np.all(np.isfinite(e)):
        problems.append("eta is not finite on the sample grid")
    elif np.any(np.abs(e) > eta.bound * (1 + 1e-12)):
        problems.append(f"|eta| exceeds its stated bound {eta.bound:g}")
    if not np.all(np.isfinite(de)):
        problems.append("eta' is not finite on the sample grid")
    elif not np.all(de > 0):
        problems.append("eta' is not strictly positive on the sample grid")
    if eta.kind == "smooth_clamp":
        k = eta.param
        inside = np.abs(r) <= k
        if np.any(e[inside] != r[inside]):
            problems.append(f"smooth_clamp is not the identity on [-{k:g}, {k:g}]")
        if np.any(de > 1 + 1e-12):
            problems.append("smooth_clamp derivative exceeds 1")
    return problems


def smooth_clamp(k: float) -> AdmissibleEta:
    """Identity on [-k, k], saturating rationally toward +-(k+1) outside.

    The tail k + 1 - 1/(1 + |r| - k) keeps eta' = (1 + |r| - k)^{-2}
    representable and positive over the whole sampled range, and joins the
    identity with matching value and slope at |r| = k.
    """
    k = _POSITIVE.check("smooth_clamp level k", k)

    def eta(r):
        r = np.asarray(r, dtype=np.float64)
        excess = np.maximum(np.abs(r) - k, 0.0)
        tail = k + 1.0 - 1.0 / (1.0 + excess)
        return np.where(np.abs(r) <= k, r, np.sign(r) * tail)

    def deta(r):
        excess = np.maximum(np.abs(np.asarray(r, dtype=np.float64)) - k, 0.0)
        return 1.0 / (1.0 + excess) ** 2

    return AdmissibleEta("smooth_clamp", eta, deta, bound=k + 1.0, param=k)


def atan_scaled(a: float = 1.0) -> AdmissibleEta:
    """eta(r) = a atan(r/a), bounded by a pi/2, derivative in (0, 1]."""
    a = _POSITIVE.check("atan_scaled scale a", a)

    def eta(r):
        return a * np.arctan(np.asarray(r, dtype=np.float64) / a)

    def deta(r):
        return 1.0 / (1.0 + (np.asarray(r, dtype=np.float64) / a) ** 2)

    return AdmissibleEta("atan_scaled", eta, deta, bound=a * math.pi / 2.0, param=a)


def custom_eta(eta, deta, bound: float) -> AdmissibleEta:
    """Wrap user-supplied callables; admissibility is sampled at construction."""
    return AdmissibleEta("custom", eta, deta, bound=_POSITIVE.check("eta bound", bound))


def renormalize(rho: GridField, eta: AdmissibleEta) -> GridField:
    """Pointwise eta(rho)."""
    return GridField(rho.grid, np.asarray(eta.eta(rho.values), dtype=np.float64))


# ---------------------------------------------------------------------------
# commutator diagnostic

def commutator_residual(rho: GridField, u: VelocityField, epsilon: float,
                        params: FluidParams, mean_velocity=None) -> float:
    """L^alpha size of div((psi_eps * rho) u) - psi_eps * div(rho u).

    psi_eps is the periodic Gaussian with standard deviation eps, applied
    as the Fourier multiplier exp(-eps^2 |k|^2 / 2). The exponent alpha
    solves 1/alpha = 1/beta + 1/q; parameter packs with alpha < 1 are
    rejected since L^alpha is not a norm there. Raises
    UnresolvableMollifier when eps does not exceed the grid spacing.
    """
    grid = rho.grid
    _check_grid(grid, [u], "a velocity", "a density")
    mean_velocity = _finite_vector("mean_velocity", mean_velocity, grid.d)
    if _FINITE.check("mollifier width", epsilon) <= grid.h:
        raise UnresolvableMollifier(
            f"mollifier width {epsilon:g} must exceed the grid spacing {grid.h:g}"
        )
    alpha = _EXPONENT.check("commutator exponent alpha", 1.0 / (1.0 / params.beta + 1.0 / params.q))

    smooth = np.exp(-0.5 * epsilon * epsilon * _lattice(grid.d, grid.n, half=True).k2)
    u_fine = _drifted(u.fine_stack, mean_velocity)
    rho_hat = rfft_coeffs(rho.values, grid)
    term1 = _flux_divergence(smooth * rho_hat, u_fine, grid)
    term2 = smooth * _flux_divergence(rho_hat, u_fine, grid)
    defect = GridField(grid, irfft_values(term1 - term2, grid), check=False)
    return lebesgue_norm(defect, alpha)
