"""Divergence-form advection of a density by divergence-free velocities.

    d_t rho + div(rho u) = 0

Two interchangeable one-step schemes are provided. spectral_rk4 advances
Fourier coefficients with a dealiased divergence-form tendency and a
4-stage Runge-Kutta step; it conserves the mean exactly because the zero
mode of the tendency vanishes identically. semi_lagrangian traces
characteristics backward with a midpoint rule and resamples by cubic
spline interpolation; it is monotone up to interpolation overshoot and
commutes with pointwise renormalization up to the same error.

The velocity is frozen within a step. Constant background drifts, which
the zero-mean velocity type cannot represent, enter through the explicit
mean_velocity bypass argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

from .errors import CflViolation, UnresolvableMollifier
from .rheology import FluidParams
from .spectral import (
    GridField,
    SpectralField,
    VelocityField,
    dealiaser,
    deriv_vectors,
    k_squared,
    lebesgue_norm,
    to_grid,
    to_spectral,
)

_SCHEME_KINDS = ("spectral_rk4", "semi_lagrangian")


@dataclass(frozen=True)
class AdvectionScheme:
    """Scheme selector with nominal step and CFL target in (0, 1]."""

    kind: str
    dt: float = 0.01
    cfl_target: float = 0.5

    def __post_init__(self):
        if self.kind not in _SCHEME_KINDS:
            raise ValueError(f"scheme kind must be one of {_SCHEME_KINDS}, got {self.kind!r}")
        if not self.dt > 0:
            raise ValueError("scheme dt must be positive")
        if not 0 < self.cfl_target <= 1:
            raise ValueError("cfl_target must lie in (0, 1]")


def speed_sup(u: VelocityField, mean_velocity=None) -> float:
    """Pointwise maximum speed on the grid, bypass drift included."""
    vals = np.stack(u.grid_values())
    if mean_velocity is not None:
        for j, cj in enumerate(mean_velocity):
            vals[j] += cj
    return float(np.sqrt(np.einsum("j...,j...->...", vals, vals).max()))


def _substep_count(dt: float, cap: float) -> int:
    """Smallest power-of-two substep count bringing dt/m under the CFL cap."""
    if dt <= cap:
        return 1
    return 2 ** int(math.ceil(math.log2(dt / cap)))


def _fine_velocity(u: VelocityField, mean_velocity):
    out = dealiaser(u.grid.d, u.grid.n).to_fine(u.coeff_stack())
    if mean_velocity is not None:
        for j, cj in enumerate(mean_velocity):
            out[j] += cj
    return out


def _flux_divergence(rho_hat: np.ndarray, u_fine: np.ndarray, grid) -> np.ndarray:
    """Coefficients of div(rho u), the product dealiased by the 3/2 rule."""
    engine = dealiaser(grid.d, grid.n)
    kd = deriv_vectors(grid)
    flux_hat = engine.to_coarse(engine.to_fine(rho_hat) * u_fine)
    return 1j * sum(kd[j] * flux_hat[j] for j in range(grid.d))


def _rk4_substeps(rho: GridField, u: VelocityField, tau: float, m: int, mean_velocity):
    grid = rho.grid
    u_fine = _fine_velocity(u, mean_velocity)
    y = to_spectral(rho).coeffs
    for _ in range(m):
        k1 = _flux_divergence(y, u_fine, grid)
        k2 = _flux_divergence(y - 0.5 * tau * k1, u_fine, grid)
        k3 = _flux_divergence(y - 0.5 * tau * k2, u_fine, grid)
        k4 = _flux_divergence(y - tau * k3, u_fine, grid)
        y = y - (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return to_grid(SpectralField(grid, y))


def _semi_lagrangian_substeps(rho: GridField, u: VelocityField, tau: float, m: int,
                              mean_velocity):
    grid = rho.grid
    h = grid.h
    u_idx = np.stack(u.grid_values()) / h
    if mean_velocity is not None:
        for j, cj in enumerate(mean_velocity):
            u_idx[j] += cj / h
    base = np.indices(grid.shape, dtype=np.float64)
    vals = rho.values
    mean0 = float(vals.mean())
    for _ in range(m):
        mid = base - 0.5 * tau * u_idx
        u_mid = np.stack([
            map_coordinates(u_idx[j], mid, order=3, mode="grid-wrap")
            for j in range(grid.d)
        ])
        departure = base - tau * u_mid
        vals = map_coordinates(vals, departure, order=3, mode="grid-wrap")
        vals += mean0 - vals.mean()
    return GridField(grid, vals)


def advect_step(rho: GridField, u: VelocityField, scheme: AdvectionScheme,
                dt: float = None, mean_velocity=None, vmax: float = None) -> GridField:
    """One advection step of length dt (default scheme.dt).

    The step is split into power-of-two substeps until each satisfies
    dt/m <= cfl_target * h / max|u|. Raises CflViolation when that would
    push the substep below 1e-12. vmax is max|u|, speed_sup(u,
    mean_velocity), for a caller that has it already; it is computed when
    None.
    """
    if rho.grid is not u.grid and rho.grid != u.grid:
        raise ValueError("density and velocity live on different grids")
    dt = scheme.dt if dt is None else float(dt)
    if dt < 0:
        raise ValueError("advection step length must be nonnegative")
    if dt == 0.0:
        return GridField(rho.grid, rho.values.copy(), check=False)

    if vmax is None:
        vmax = speed_sup(u, mean_velocity)
    if vmax > 0:
        cap = scheme.cfl_target * rho.grid.h / vmax
        m = _substep_count(dt, cap)
    else:
        m = 1
    if dt / m < 1e-12:
        raise CflViolation(
            f"CFL reduction drove the substep to {dt / m:.3e} (< 1e-12); "
            f"velocity sup {vmax:.3e} is too fast for this grid"
        )
    tau = dt / m

    if scheme.kind == "spectral_rk4":
        return _rk4_substeps(rho, u, tau, m, mean_velocity)
    return _semi_lagrangian_substeps(rho, u, tau, m, mean_velocity)


def evolve(rho0: GridField, velocity_provider, T: float, scheme: AdvectionScheme,
           observers=()):
    """March rho0 to time T, recording observers at t = 0 and after every step.

    velocity_provider is either a frozen VelocityField or a callable t -> u
    (optionally t -> (u, mean_velocity)). Returns (rho_final, times, table)
    with table[i][j] the j-th observer at times[i].
    """
    if T < 0:
        raise ValueError("final time must be nonnegative")

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
    while t < T - 1e-14:
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
    k = float(k)
    if not k > 0:
        raise ValueError("smooth_clamp level k must be positive")

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
    a = float(a)
    if not a > 0:
        raise ValueError("atan_scaled scale a must be positive")

    def eta(r):
        return a * np.arctan(np.asarray(r, dtype=np.float64) / a)

    def deta(r):
        return 1.0 / (1.0 + (np.asarray(r, dtype=np.float64) / a) ** 2)

    return AdmissibleEta("atan_scaled", eta, deta, bound=a * math.pi / 2.0, param=a)


def custom_eta(eta, deta, bound: float) -> AdmissibleEta:
    """Wrap user-supplied callables; admissibility is sampled at construction."""
    return AdmissibleEta("custom", eta, deta, bound=float(bound))


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
    if epsilon <= grid.h:
        raise UnresolvableMollifier(
            f"mollifier width {epsilon:g} must exceed the grid spacing {grid.h:g}"
        )
    inv_alpha = 1.0 / params.beta + 1.0 / params.q
    alpha = 1.0 / inv_alpha
    if alpha < 1.0:
        raise ValueError(
            f"commutator exponent alpha = {alpha:.4g} is below 1 for these parameters"
        )

    smooth = np.exp(-0.5 * epsilon * epsilon * k_squared(grid))
    u_fine = _fine_velocity(u, mean_velocity)
    rho_hat = to_spectral(rho).coeffs
    term1 = _flux_divergence(smooth * rho_hat, u_fine, grid)
    term2 = smooth * _flux_divergence(rho_hat, u_fine, grid)
    defect = to_grid(SpectralField(grid, term1 - term2), check=False)
    return lebesgue_norm(defect, alpha)
