"""Inverse Stokes map by convex energy minimization.

For a density rho and gravity g, the velocity u solves

    -div( nu(rho) (delta^2 + |Du|^2)^{(p-2)/2} Du ) + grad(pi) = rho g,
    div u = 0,    mean u = 0,

which is the Euler-Lagrange system of the strictly convex energy

    A(u) = (1/p) int nu(rho) [ (delta^2 + |Du|^2)^{p/2} - delta^p ]
           - int rho g . u
           + (1/(2N)) int |grad^k u|^2            (optional penalty).

The minimizer is computed over divergence-free zero-mean trigonometric
polynomials by preconditioned nonlinear conjugate gradients in Fourier
coefficients. The stress and the dissipation are evaluated on a 3/2-times
finer quadrature grid, which keeps the discrete gradient an exact
derivative of the discrete energy; the work integral, linear in u, is
summed exactly from the coefficients. For 1 < p < 2 with delta = 0 the
solver runs a continuation ladder delta = 1e-1 ... 1e-4, warm-starting
each stage, and never differentiates the singular delta = 0 energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateViscosity, MaxIterations
from .rheology import FluidParams, ViscosityLaw, _power_factor, strain_magnitude_sq
from .spectral import (
    GridField,
    SpectralField,
    VelocityField,
    TWO_PI,
    dealiaser,
    deriv_vectors,
    k_squared,
    l2_inner,
    lebesgue_norm,
    project_div_free,
    reciprocal_norm,
    strain_tensor,
    to_spectral,
)

_DELTA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class StokesProblem:
    """One forced Stokes configuration: density, parameter pack, viscosity
    law, and an optional penalty pair (N, k) with k > 1 + d/2."""

    rho: GridField
    params: FluidParams
    law: ViscosityLaw
    penalty: tuple = None

    def __post_init__(self):
        if self.params.d != self.rho.grid.d:
            raise ValueError("params.d does not match the grid dimension")
        if self.penalty is not None:
            N, k = self.penalty
            if not N > 0:
                raise ValueError("penalty strength N must be positive")
            if not (float(k).is_integer() and k >= 1):
                raise ValueError("penalty order k must be a positive integer")
            if not k > 1 + self.params.d / 2:
                raise ValueError(f"penalty order k must exceed 1 + d/2 = {1 + self.params.d / 2}")
            object.__setattr__(self, "penalty", (float(N), int(k)))


@dataclass
class StokesReport:
    """Solver telemetry attached to every inverse-map evaluation."""

    iterations: int = 0
    value: float = math.nan
    grad_norm: float = math.nan
    energy_residual: float = math.nan
    delta_schedule: tuple = ()
    converged: bool = False
    n_evals: int = 0
    hk_bound_ratio: float = None


class _Workspace:
    """Precomputed transforms and multipliers for one problem instance.

    The strain is symmetric, so it is carried as the stack of its d(d+1)/2
    entries i <= j (self.pairs); self.pair_weight counts each off-diagonal
    entry twice in contractions. The attribute delta is mutable so a
    continuation ladder can reuse the cached density data across stages.
    """

    def __init__(self, prob: StokesProblem, delta: float):
        grid = prob.rho.grid
        self.grid = grid
        self.delta = float(delta)
        self.p = prob.params.p
        self.d = grid.d
        self.stack_shape = (self.d,) + grid.shape
        self.vol_factor = TWO_PI ** self.d
        self.engine = dealiaser(grid.d, grid.n)
        self.hfd = (TWO_PI / self.engine.m) ** self.d

        self.kd = deriv_vectors(grid)
        self.k2 = k_squared(grid)
        self.pairs = tuple((i, j) for i in range(self.d) for j in range(i, self.d))
        self.pair_weight = np.array([1.0 if i == j else 2.0 for i, j in self.pairs])
        self.pair_of = [[self.pairs.index((min(a, j), max(a, j))) for j in range(self.d)]
                        for a in range(self.d)]

        rho_hat = to_spectral(prob.rho).coeffs
        self.nu_fine = np.asarray(prob.law(self.engine.to_fine(rho_hat)))
        self.forcing = np.stack([rho_hat * gj for gj in prob.params.g])
        # the work integral is linear in u: its fine-grid quadrature of the
        # padded fields, summed in coefficient space
        self.work_weights = self.engine.nyquist_weight * self.forcing

        if prob.penalty is not None:
            N, k = prob.penalty
            self.pen_N = N
            self.pen_mult = self.k2 ** k
        else:
            self.pen_N = None
            self.pen_mult = None

        # inverse of the Newtonian (plus penalty) coefficient Hessian
        hess = self.vol_factor * (0.5 * self.k2)
        if self.pen_N is not None:
            hess = hess + self.vol_factor * self.pen_mult / self.pen_N
        with np.errstate(divide="ignore"):
            inv = np.where(self.k2 > 0, 1.0 / np.where(self.k2 > 0, hess, 1.0), 0.0)
        self.precond_mult = inv

    # -- subspace handling ---------------------------------------------------

    def project(self, stack: np.ndarray) -> np.ndarray:
        return project_div_free(stack, self.grid)

    def velocity_from_stack(self, stack: np.ndarray, check: bool = True) -> VelocityField:
        comps = tuple(SpectralField(self.grid, stack[j].copy()) for j in range(self.d))
        return VelocityField(comps, check=check)

    # -- fine-grid evaluation --------------------------------------------------

    def _strain_fine(self, c: np.ndarray) -> np.ndarray:
        """Strain entries i <= j on the quadrature grid, shape (len(pairs),) + fine."""
        kd = self.kd
        s_hat = np.empty((len(self.pairs),) + self.grid.shape, dtype=np.complex128)
        for q, (i, j) in enumerate(self.pairs):
            s_hat[q] = 0.5j * (kd[i] * c[j] + kd[j] * c[i])
        return self.engine.to_fine(s_hat)

    def _contract(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Pointwise A : B of two symmetric tensors given by their pair stacks."""
        return np.einsum("q,q...,q...->...", self.pair_weight, A, B)

    def _eval_state(self, c: np.ndarray) -> "_EvalState":
        S = self._strain_fine(c)
        mag2 = self._contract(S, S)
        return _EvalState(S, mag2, self.nu_fine * _power_factor(mag2, self.p, self.delta))

    def _penalty_energy_half(self, c: np.ndarray) -> float:
        """(1/(2N)) int |grad^k u|^2 via the coefficient sum."""
        if self.pen_N is None:
            return 0.0
        tot = float(np.sum(self.pen_mult * (c.real ** 2 + c.imag ** 2)))
        return 0.5 * self.vol_factor * tot / self.pen_N

    def work_integral(self, c: np.ndarray) -> float:
        """int rho g . u, exact for the band-limited fields."""
        return l2_inner(self.grid, c, self.work_weights)

    def _energy(self, c: np.ndarray, mag2: np.ndarray) -> float:
        dsq = self.delta * self.delta
        primitive = (self.nu_fine / self.p) * ((dsq + mag2) ** (self.p / 2.0) - self.delta ** self.p)
        diss = float(self.hfd * np.sum(primitive))
        return diss - self.work_integral(c) + self._penalty_energy_half(c)

    def value(self, c: np.ndarray) -> float:
        return self._energy(c, self._eval_state(c).mag2)

    def energy_balance(self, c: np.ndarray):
        """(dissipation + penalty, work, residual) with the balance residual
        |dissipation + penalty - work| / max(1, |work|); all quadratures on
        the fine grid, so a converged minimizer balances to solver tolerance."""
        state = self._eval_state(c)
        diss = float(self.hfd * np.sum(state.afield * state.mag2)) + 2.0 * self._penalty_energy_half(c)
        work = self.work_integral(c)
        return diss, work, float(abs(diss - work) / max(1.0, abs(work)))

    def force_balance(self, state: "_EvalState") -> np.ndarray:
        """Coefficients of rho g + div(stress) before the projection."""
        T = self.engine.to_coarse(state.afield * state.S)
        out = self.forcing.copy()
        for j in range(self.d):
            out[j] += 1j * sum(self.kd[a] * T[self.pair_of[a][j]] for a in range(self.d))
        return out

    def value_grad(self, c: np.ndarray):
        state = self._eval_state(c)
        f = self._energy(c, state.mag2)
        bracket = -self.force_balance(state)
        if self.pen_N is not None:
            bracket += (self.pen_mult / self.pen_N) * c
        g = self.vol_factor * self.project(bracket)
        return f, g, state

    def curvature_along(self, state: "_EvalState", w: np.ndarray) -> float:
        """Second directional derivative of the energy at the state's point
        along the coefficient stack w. Exact for the quadrature in use, so
        -slope/curvature is the exact minimizer of the quadratic model."""
        Sw = self._strain_fine(w)
        quad = state.afield * self._contract(Sw, Sw)
        if self.p != 2.0:
            base = self.delta * self.delta + state.mag2
            safe = np.where(base > 0, base, 1.0) ** ((self.p - 4.0) / 2.0)
            cross = self._contract(state.S, Sw)
            quad = quad + self.nu_fine * (self.p - 2.0) * np.where(base > 0, safe, 0.0) * cross ** 2
        out = float(self.hfd * np.sum(quad))
        if self.pen_N is not None:
            out += self.vol_factor * float(np.sum(self.pen_mult * (w.real ** 2 + w.imag ** 2))) / self.pen_N
        return out

    def grad_l2_norm(self, g_flat: np.ndarray) -> float:
        """L2 norm of the strong-form residual field the flat gradient represents."""
        return float(np.linalg.norm(g_flat) / self.vol_factor ** 0.5)

    def precond_flat(self, g_flat: np.ndarray) -> np.ndarray:
        g = g_flat.view(np.complex128).reshape(self.stack_shape)
        y = g * self.precond_mult
        return np.ascontiguousarray(y).view(np.float64).ravel()

    def hk_norm(self, c: np.ndarray, k: int) -> float:
        mult = (1.0 + self.k2) ** k
        return float(math.sqrt(self.vol_factor * np.sum(mult * (c.real ** 2 + c.imag ** 2))))


class _EvalState:
    """Fine-grid strain pair stack S, |Du|^2 and the stress factor
    nu (delta^2 + |Du|^2)^{(p-2)/2} at one point; value_grad returns it
    for curvature reuse."""

    __slots__ = ("S", "mag2", "afield")

    def __init__(self, S, mag2, afield):
        self.S = S
        self.mag2 = mag2
        self.afield = afield


class _Objective:
    """Caches value, gradient, and strain state at the latest iterate."""

    def __init__(self, ws: _Workspace):
        self.ws = ws
        self.n_evals = 0
        self._x = None
        self._f = None
        self._g = None
        self._state = None

    def _ensure(self, x: np.ndarray):
        if self._x is not None and x.shape == self._x.shape and np.array_equal(x, self._x):
            return
        c = x.view(np.complex128).reshape(self.ws.stack_shape)
        # drop the previous point's fine-grid fields first, so the old and
        # new ones are never held together (this sets the peak memory)
        self._x = self._state = None
        f, g, state = self.ws.value_grad(c)
        self._x = x.copy()
        self._f = f
        self._g = np.ascontiguousarray(g).view(np.float64).ravel()
        self._state = state
        self.n_evals += 1

    def fg(self, x):
        self._ensure(np.ascontiguousarray(x))
        return self._f, self._g

    def curvature(self, x, d_flat):
        self._ensure(np.ascontiguousarray(x))
        w = np.ascontiguousarray(d_flat).view(np.complex128).reshape(self.ws.stack_shape)
        return self.ws.curvature_along(self._state, w)


def _minimize_ncg(obj: _Objective, ws: _Workspace, x0, tol, max_iter, callback=None):
    """Preconditioned Polak-Ribiere conjugate gradients.

    Each step is sized by the exact second directional derivative of the
    energy along the search direction, so the first trial point is the
    minimizer of the local quadratic model. Trials are accepted on an
    Armijo decrease or, when value differences fall below the floating
    point noise floor near the minimum, on a strict residual decrease.
    """
    x = np.ascontiguousarray(x0, dtype=np.float64)
    f, g = obj.fg(x)
    y = ws.precond_flat(g)
    gy = float(np.dot(g, y))
    d = -y
    iterations = 0
    converged = False

    while True:
        gnorm = ws.grad_l2_norm(g)
        if callback is not None:
            callback(iterations, f, gnorm)
        if gnorm <= tol * (1.0 + abs(f)):
            converged = True
            break
        if iterations >= max_iter:
            break

        accepted = False
        tried_steepest = False
        x_try = f_try = g_try = None
        while True:
            slope = float(np.dot(g, d))
            if slope >= 0.0:
                d = -y
                slope = float(np.dot(g, d))
                tried_steepest = True
            curv = obj.curvature(x, d)
            alpha = -slope / curv if (math.isfinite(curv) and curv > 0.0) else 1.0
            g_ref = float(np.linalg.norm(g))
            for _ in range(40):
                x_try = x + alpha * d
                if np.array_equal(x_try, x):
                    break
                f_try, g_try = obj.fg(x_try)
                armijo = f_try <= f + 1e-4 * alpha * slope
                resid_ok = (float(np.linalg.norm(g_try)) < g_ref
                            and f_try <= f + 1e-14 * (1.0 + abs(f)))
                if armijo or resid_ok:
                    accepted = True
                    break
                alpha *= 0.5
            if accepted or tried_steepest:
                break
            d = -y
            tried_steepest = True
        if not accepted:
            break

        x = x_try
        g_old = g
        f = f_try
        g = g_try
        y_new = ws.precond_flat(g)
        gy_new = float(np.dot(g, y_new))
        beta = max(0.0, float(np.dot(y_new, g - g_old)) / gy) if gy > 1e-300 else 0.0
        d = -y_new + beta * d
        y = y_new
        gy = gy_new
        iterations += 1

    return x, f, g, iterations, converged


# ---------------------------------------------------------------------------
# public entry points

def functional_value(prob: StokesProblem, u: VelocityField) -> float:
    """Energy of a trial velocity, normalized so the zero field gives zero."""
    ws = _Workspace(prob, prob.params.delta)
    return ws.value(u.coeff_stack())


def functional_gradient(prob: StokesProblem, u: VelocityField) -> VelocityField:
    """L2 Riesz representative of the energy derivative, projected onto the
    divergence-free zero-mean subspace. Rejects the singular case delta = 0
    with p < 2."""
    if prob.params.p < 2 and prob.params.delta == 0:
        raise ValueError("gradient is singular for p < 2 at delta = 0; use delta > 0")
    ws = _Workspace(prob, prob.params.delta)
    _, g, _ = ws.value_grad(u.coeff_stack())
    return ws.velocity_from_stack(g / ws.vol_factor, check=False)


def solve_stokes(prob: StokesProblem, u0: VelocityField = None, tol: float = 1e-8,
                 max_iter: int = 10000, strict: bool = False, callback=None):
    """Minimize the energy; returns (velocity, report).

    For 1 < p < 2 with delta = 0 requested, a continuation ladder over
    decreasing delta is run and reported in report.delta_schedule; the
    reported gradient norm and energy residual refer to the terminal
    regularized stage, while value is evaluated at the requested delta.
    With strict=True a non-converged solve raises MaxIterations instead
    of returning converged=False.
    """
    params = prob.params
    ws = _Workspace(prob, params.delta)
    if float(ws.nu_fine.max()) == 0.0 and prob.penalty is None:
        raise DegenerateViscosity(
            "viscosity vanishes on the whole grid and no penalty is active"
        )

    if params.p < 2 and params.delta == 0.0:
        schedule = _DELTA_LADDER
    else:
        schedule = (params.delta,)

    if u0 is not None:
        stack = ws.project(u0.coeff_stack())
    else:
        # Newtonian preconditioner solve of the projected forcing: for
        # p = 2 and constant unit viscosity this is already the minimizer.
        stack = ws.precond_mult * ws.vol_factor * ws.project(ws.forcing.copy())
    x = np.ascontiguousarray(stack).view(np.float64).ravel()

    total_iters = 0
    total_evals = 0
    converged = False
    gnorm = math.nan
    for delta in schedule:
        ws.delta = float(delta)
        obj = _Objective(ws)
        x, f, g, iters, converged = _minimize_ncg(obj, ws, x, tol, max_iter - total_iters, callback)
        total_iters += iters
        total_evals += obj.n_evals
        gnorm = ws.grad_l2_norm(g)

    c = ws.project(x.view(np.complex128).reshape(ws.stack_shape))
    # the projection enforces the subspace constraints by construction; a
    # relative re-check would reject near-zero solutions made of rounding dust
    u = ws.velocity_from_stack(c, check=False)

    # Balance residual at the terminal continuation stage, where the
    # minimizer is stationary; value at the requested delta.
    _, _, residual = ws.energy_balance(c)

    ws.delta = params.delta
    value = ws.value(c)
    report = StokesReport(
        iterations=total_iters,
        value=value,
        grad_norm=gnorm,
        energy_residual=residual,
        delta_schedule=tuple(schedule),
        converged=converged,
        n_evals=total_evals,
    )
    if prob.penalty is not None:
        N, k = prob.penalty
        rho_l2 = lebesgue_norm(prob.rho, 2)
        if rho_l2 > 0:
            report.hk_bound_ratio = ws.hk_norm(c, k) / (math.sqrt(N) * rho_l2)
    if strict and not report.converged:
        raise MaxIterations(
            f"no convergence in {total_iters} iterations (grad norm {gnorm:.3e})", report
        )
    return u, report


def solve_stokes_penalized(prob: StokesProblem, **kwargs):
    """solve_stokes for a problem that carries its penalty pair (N, k)."""
    if prob.penalty is None:
        raise ValueError("penalized solve requires a penalty pair (N, k)")
    return solve_stokes(prob, **kwargs)


def energy_balance_residual(prob: StokesProblem, u: VelocityField) -> float:
    """|dissipation + penalty - work| / max(1, |work|), all quadratures on
    the fine grid so a converged minimizer balances to solver tolerance."""
    ws = _Workspace(prob, prob.params.delta)
    return ws.energy_balance(u.coeff_stack())[2]


def apriori_check(prob: StokesProblem, u: VelocityField):
    """Strain norm against the constant-free density bound.

    Returns (lhs, rhs_core) with lhs = |Du| in L^beta and
    rhs_core = |1/rho|_{L^sigma}^{gamma/(p-1)} |rho|_{L^q}^{1/(p-1)}.
    rhs_core is +inf when the density vanishes and gamma > 0, which makes
    the bound vacuous; callers should flag that case.
    """
    params = prob.params
    S = strain_tensor(u)
    mag = np.sqrt(strain_magnitude_sq(S))
    lhs = lebesgue_norm(GridField(u.grid, mag, check=False), params.beta)
    expo = 1.0 / (params.p - 1.0)
    rhs = lebesgue_norm(prob.rho, params.q) ** expo
    if params.gamma > 0:
        rhs *= reciprocal_norm(prob.rho, params.sigma) ** (params.gamma * expo)
    return float(lhs), float(rhs)


def _monotonicity_terms(prob: StokesProblem, u: VelocityField, phi: VelocityField):
    params = prob.params
    nu = prob.law(prob.rho.values)
    Su = strain_tensor(u)
    Sp = strain_tensor(phi)
    hd = prob.rho.grid.h ** prob.rho.grid.d

    def stress_of(S):
        return _power_factor(strain_magnitude_sq(S), params.p, params.delta)[None, None] * S

    Au = stress_of(Su)
    Ap = stress_of(Sp)

    def pair(A, B):
        return float(hd * np.sum(nu * np.einsum("ij...,ij...->...", A, B)))

    return pair(Au, Su), pair(Au, Sp), pair(Ap, Su), pair(Ap, Sp)


def monotonicity_gap(prob: StokesProblem, u: VelocityField, phi: VelocityField) -> float:
    """int nu(rho) (s(Du) - s(Dphi)) : (Du - Dphi) with s the stress power;
    nonnegative for every pair of fields by operator monotonicity."""
    t1, t2, t3, t4 = _monotonicity_terms(prob, u, phi)
    return t1 - t2 - t3 + t4


def monotonicity_gap_with_scale(prob: StokesProblem, u: VelocityField, phi: VelocityField):
    t1, t2, t3, t4 = _monotonicity_terms(prob, u, phi)
    return t1 - t2 - t3 + t4, abs(t1) + abs(t2) + abs(t3) + abs(t4)


def pairing_l2(u: VelocityField, v: VelocityField) -> float:
    """Spatial L2 inner product of two velocity fields."""
    return l2_inner(u.grid, u.coeff_stack(), v.coeff_stack())


def minty_sweep(rho_sequence, rho_limit, test_functions, params: FluidParams,
                law: ViscosityLaw, penalty=None, tol: float = 1e-8,
                max_iter: int = 10000):
    """Weak-continuity probe of the inverse map along a density sequence.

    Solves the limit problem and every member problem (warm-started from
    the limit solution) and tabulates the L2 pairings
    <Psi(rho_n) - Psi(rho_limit), phi> for each test field phi. Returns a
    dict with the signed pairings, their magnitudes of shape
    (len(rho_sequence), len(test_functions)), and solver iteration counts.
    """
    prob_lim = StokesProblem(rho_limit, params, law, penalty)
    u_lim, rep_lim = solve_stokes(prob_lim, tol=tol, max_iter=max_iter, strict=True)
    raw = np.zeros((len(rho_sequence), len(test_functions)))
    iters = [rep_lim.iterations]
    for i, rho_n in enumerate(rho_sequence):
        prob_n = StokesProblem(rho_n, params, law, penalty)
        u_n, rep_n = solve_stokes(prob_n, u0=u_lim, tol=tol, max_iter=max_iter, strict=True)
        iters.append(rep_n.iterations)
        diff = u_n.coeff_stack() - u_lim.coeff_stack()
        for j, phi in enumerate(test_functions):
            raw[i, j] = l2_inner(u_n.grid, diff, phi.coeff_stack())
    return {"raw": raw, "pairings": np.abs(raw), "iterations": iters}


def recover_pressure(prob: StokesProblem, u: VelocityField) -> SpectralField:
    """Zero-mean pressure whose gradient absorbs the non-solenoidal part of
    rho g + div(stress); at a converged minimizer the projected remainder
    is at solver tolerance."""
    ws = _Workspace(prob, prob.params.delta)
    R = ws.force_balance(ws._eval_state(u.coeff_stack()))
    kdotR = sum(ws.kd[j] * R[j] for j in range(ws.d))
    with np.errstate(divide="ignore", invalid="ignore"):
        pi_hat = np.where(ws.k2 > 0, -1j * kdotR / np.where(ws.k2 > 0, ws.k2, 1.0), 0.0)
    return SpectralField(ws.grid, pi_hat)


def solution_diagnostics(prob: StokesProblem, u: VelocityField) -> dict:
    """Norms and energy bookkeeping for one solved velocity."""
    ws = _Workspace(prob, prob.params.delta)
    dissipation, work, residual = ws.energy_balance(u.coeff_stack())
    lhs, _ = apriori_check(prob, u)
    return {
        "du_beta": lhs,
        "dissipation": dissipation,
        "work": work,
        "energy_residual": residual,
    }
