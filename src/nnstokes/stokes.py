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
coefficients. The iteration is written once, for one problem (_ncg); for
a batch of problems that share the grid and the parameters
(solve_stokes_batch; solve_stokes is a batch of one) a scheduler runs one
iteration per member and gathers their energy, gradient and curvature
requests into batched evaluations (_minimize_batch). The strain is linear
in u, so the first trial point x + alpha d of each line search is
evaluated from S(x) + alpha S(d), formed on the fine grid from the strains
of the iterate and of the direction that the scheduler already holds: one
strain transform and one stress transform per iteration. Every stop is
decided on an exact evaluation at the returned point. The
stress, the dissipation, the monotonicity gap and the a-priori strain norm
are evaluated on one 3/2-times finer quadrature grid, which keeps the
discrete gradient an exact derivative of the discrete energy; the work
integral, linear in u, is summed exactly from the coefficients. For
1 < p < 2 with a delta that acts as zero (rheology) the solver minimizes
the delta = 1e-4 energy instead, from the same start, and never
differentiates the singular delta = 0 energy. The pointwise kernels of
the power law are rheology's; this module contracts, transforms and sums
them.

Every solve runs on a workspace (_Workspace): the tables that depend only
on the grid and the penalty (the strain layout, the lattice multipliers and
the preconditioner M, the inverse of the Newtonian plus penalty coefficient
Hessian) are one read-only lattice per (grid, penalty), built once and
shared (_solver_lattice); a workspace adds its batch's density load, the
fine-grid viscosity, the forcing and its work weights. A cold solve starts
on the ray of the Newtonian solve x0 = M P(rho g) (_Workspace.newtonian_start,
P the divergence-free projection), at the point c x0 that minimizes the
energy being minimized along that ray (_Workspace.ray_scale): the exact
minimizer for p = 2 and any constant viscosity, and a start on the energy's
own scale for every p, viscosity and delta. The coupled run (simulator.run) starts
each later solve from the Newtonian predictor v_prev + M P((rho - rho_prev)
g), exact for p = 2 and unit viscosity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import _POSITIVE, DegenerateViscosity, MaxIterations, _check_fields, _Domain, _field, _FieldError
from .rheology import (FluidParams, ViscosityLaw, _curvature_factor, _lifted_power, _power_factor, _singular,
                       _strain_share)
from .spectral import (
    GridField,
    SpectralField,
    TorusGrid,
    VelocityField,
    TWO_PI,
    _check_grid,
    _lattice,
    dealiaser,
    deriv_vectors,
    expand_half,
    half_scale,
    k_squared,
    l2_inner,
    lebesgue_norm,
    project_div_free,
    reciprocal_norm,
    rfft_coeffs,
)

_DELTA_SINGULAR = 1e-4


@dataclass(frozen=True)
class StokesProblem:
    """One forced Stokes configuration: density, parameter pack, viscosity
    law, and an optional penalty pair (N, k) with k > 1 + d/2."""

    rho: GridField
    params: FluidParams
    law: ViscosityLaw
    penalty: tuple = _field(None, {"N": _POSITIVE, "k": _Domain(low=1, integer=True)})

    def __post_init__(self):
        if self.params.d != self.rho.grid.d:
            raise ValueError("params.d does not match the grid dimension")
        _check_fields(self)
        if self.penalty is not None and not self.penalty[1] > 1 + self.params.d / 2:
            raise _FieldError(("penalty.k", f"penalty.k must exceed 1 + d/2 = "
                                            f"{1 + self.params.d / 2}, got {self.penalty[1]}"))


@dataclass
class StokesReport:
    """Solver telemetry attached to every inverse-map evaluation.

    stop_reason is one of "converged", "iteration limit", "line search
    failed" or "non-finite energy or gradient"."""

    iterations: int = 0
    value: float = math.nan
    grad_norm: float = math.nan
    energy_residual: float = math.nan
    delta_schedule: tuple = ()
    converged: bool = False
    n_evals: int = 0
    hk_bound_ratio: float = None
    stop_reason: str = ""


_SolverLattice = namedtuple("_SolverLattice", "grid stack_shape vol_factor hfd engine k2 pairs diagonal "
                            "pair_weight pair_of strain_mult div_mult pen_N pen_mult precond_mult")


@lru_cache(maxsize=32)
def _solver_lattice(grid: TorusGrid, penalty) -> _SolverLattice:
    """The read-only tables of one (grid, penalty): the member stack shape
    in the scaled half layout, the torus and fine-cell volumes, the carried
    strain pairs (_Workspace) with their contraction weights and the index
    pair_of[a][j] of entry (a, j), the strain's multipliers 0.5 i k_a and
    the divergence's i k_a (which remove and put back the column scale: the
    dealiased transforms take and return the unscaled half), the penalty's
    N and |k|^(2k) (None without one), and M, 0 at the zero mode."""
    d, n = grid.d, grid.n
    engine = dealiaser(d, n)
    lattice = _lattice(d, n, half=True)
    k2, vol_factor = lattice.k2, TWO_PI ** d
    last = (d - 1, d - 1)
    pairs = tuple((i, j) for i in range(d) for j in range(i, d) if (i, j) != last)
    diagonal = tuple(q for q, (i, j) in enumerate(pairs) if i == j)
    entries = pairs + (last,)
    pair_of = tuple(tuple(entries.index((min(a, j), max(a, j))) for j in range(d)) for a in range(d))
    # A : B = sum of A_ij B_ij over the carried pairs, off-diagonal ones
    # twice, plus A_dd B_dd = (sum of A_ii)(sum of B_ii); in 2D that last
    # term is A_11 B_11 and doubles the diagonal weight instead
    pair_weight = np.array([1.0 if i == j and d == 3 else 2.0 for i, j in pairs])
    scale = half_scale(n)
    strain_mult = tuple(0.5j * k / scale for k in lattice.derivs)
    div_mult = tuple(1j * k * scale for k in lattice.derivs)
    tables = [pair_weight, *strain_mult, *div_mult]
    hess = vol_factor * (0.5 * k2)
    pen_N = pen_mult = None
    if penalty is not None:
        pen_N, k = penalty
        pen_mult = k2 ** k
        hess = hess + vol_factor * pen_mult / pen_N
        tables.append(pen_mult)
    with np.errstate(divide="ignore"):
        precond_mult = np.where(k2 > 0, 1.0 / np.where(k2 > 0, hess, 1.0), 0.0)
    for a in tables + [precond_mult]:
        a.flags.writeable = False
    return _SolverLattice(grid, (d,) + grid.shape[:-1] + (n // 2 + 1,), vol_factor, (TWO_PI / engine.m) ** d,
                          engine, k2, pairs, diagonal, pair_weight, pair_of, strain_mult, div_mult,
                          pen_N, pen_mult, precond_mult)


def _sum_per_member(a: np.ndarray) -> np.ndarray:
    """Sum over every axis but the leading member axis."""
    return np.sum(a, axis=tuple(range(1, a.ndim)))


class _Workspace:
    """A batch of problems that share the grid, p, delta, g and the
    penalty; the density, and with it the viscosity and the forcing,
    carries a leading member axis. The workspace holds the shared lattice
    of its (grid, penalty) (_solver_lattice), p, delta and the batch's
    density load: the fine-grid viscosity nu_fine, the forcing and its
    work weights (load_forcing). Every coefficient stack the workspace
    takes or returns (the iterates, gradients and directions, the forcing,
    the force balance) is in the scaled half layout of spectral
    (contract_half), of shape (k,) + stack_shape = (k, d) + (n,)*(d-1) +
    (n/2+1,), so that the minimizer's inner products are plain dot
    products of flat real rows; a VelocityField stores that layout, so
    stack_of and VelocityField.from_half_stack only stack and copy. sel
    picks the k members a stack belongs to: a basic slice for the whole
    batch, which reads the member data without copying, or an index array.

    Every coefficient stack the workspace is given must be divergence-free,
    k.c = 0 with the derivative wavevectors, as the projection leaves the
    solver's iterates, gradients and directions and every VelocityField it
    makes. The strain is then symmetric and traceless, so it is carried as
    the stack of its d(d+1)/2 - 1 entries i <= j other than (d, d)
    (lattice.pairs): 2 in 2D, 5 in 3D. The last diagonal entry is minus the
    sum of the others, which _contract folds into its weights and
    force_balance restores for the stress. The attribute delta is mutable
    so a singular solve can minimize at the regularized delta and report
    its value at the requested one.
    """

    def __init__(self, problems):
        def shared(pr):
            return pr.rho.grid, pr.params.p, pr.params.delta, pr.params.g, pr.penalty

        prob = problems[0]
        if any(shared(other) != shared(prob) for other in problems[1:]):
            raise ValueError("batched problems must share the grid, p, delta, g and the penalty")
        grid = prob.rho.grid
        self.lattice = lat = _solver_lattice(grid, prob.penalty)
        self.delta = float(prob.params.delta)
        self.p = prob.params.p

        rho_hat = rfft_coeffs(_rows([member.rho.values for member in problems]), grid)
        rho_fine = lat.engine.to_fine(rho_hat)
        self.nu_fine = _rows([np.asarray(member.law(r)) for member, r in zip(problems, rho_fine)])
        rho_hat *= half_scale(grid.n)
        self.load_forcing(rho_hat[:, None] * np.reshape(prob.params.g, (-1,) + (1,) * grid.d))

    def load_forcing(self, forcing: np.ndarray):
        """Set the members' forcing coefficient stacks, of shape (k,) +
        stack_shape, and the work weights derived from them."""
        self.forcing = forcing
        # the work integral is linear in u: its fine-grid quadrature of the
        # padded fields, summed in coefficient space
        self.work_weights = self.lattice.engine.nyquist_weight[..., :forcing.shape[-1]] * forcing

    # -- subspace handling ---------------------------------------------------

    def stack_of(self, *velocities) -> np.ndarray:
        """The coefficient stacks of velocities on the workspace's grid, one
        member each."""
        _check_grid(self.lattice.grid, velocities, "a velocity", "problems")
        return np.stack([u.half_stack for u in velocities])

    def coeffs(self, x_flat: np.ndarray) -> np.ndarray:
        """Coefficient stacks of flat real rows."""
        return x_flat.view(np.complex128).reshape((len(x_flat),) + self.lattice.stack_shape)

    # -- fine-grid evaluation --------------------------------------------------

    def _strain_fine(self, c: np.ndarray) -> np.ndarray:
        """Strain entries lattice.pairs on the quadrature grid, shape (k, len(pairs)) + fine."""
        lat = self.lattice
        mult = lat.strain_mult
        s_hat = np.empty((len(c), len(lat.pairs)) + c.shape[2:], dtype=np.complex128)
        for q, (i, j) in enumerate(lat.pairs):
            np.add(mult[i] * c[:, j], mult[j] * c[:, i], out=s_hat[:, q])
        return lat.engine.to_fine(s_hat)

    def _contract(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Pointwise A : B of two symmetric traceless tensors given by their
        pair stacks."""
        lat = self.lattice
        out = np.einsum("q,bq...,bq...->b...", lat.pair_weight, A, B)
        if lat.grid.d == 3:
            out += sum(A[:, q] for q in lat.diagonal) * sum(B[:, q] for q in lat.diagonal)
        return out

    def _eval_state(self, c: np.ndarray, sel=slice(None), S=None) -> "_EvalState":
        """The state at the coefficient stacks c; S, when given, is their
        fine-grid strain, formed by the caller in place of to_fine."""
        if S is None:
            S = self._strain_fine(c)
        mag2 = self._contract(S, S)
        return _EvalState(S, mag2, self.nu_fine[sel] * _power_factor(mag2, self.p, self.delta))

    def _penalty_energy_half(self, c: np.ndarray):
        """(1/(2N)) int |grad^k u|^2 via the coefficient sum."""
        lat = self.lattice
        if lat.pen_N is None:
            return 0.0
        tot = _sum_per_member(lat.pen_mult * (c.real ** 2 + c.imag ** 2))
        return 0.5 * lat.vol_factor * tot / lat.pen_N

    def work_integral(self, c: np.ndarray, sel=slice(None)) -> np.ndarray:
        """int rho g . u, exact for the band-limited fields."""
        return np.array([l2_inner(self.lattice.grid, ci, wi) for ci, wi in zip(c, self.work_weights[sel])])

    def _energy(self, c: np.ndarray, mag2: np.ndarray, sel=slice(None)) -> np.ndarray:
        lifted = _lifted_power(mag2, self.p, self.delta)
        diss = self.lattice.hfd * _sum_per_member((self.nu_fine[sel] / self.p) * lifted)
        return diss - self.work_integral(c, sel) + self._penalty_energy_half(c)

    def energy_balance(self, c: np.ndarray, state: "_EvalState"):
        """(dissipation + penalty, work, residual) per member at the state
        of c, with the balance residual |dissipation + penalty - work| /
        max(1, |work|); all quadratures on the fine grid, so a converged
        minimizer balances to solver tolerance."""
        diss = (self.lattice.hfd * _sum_per_member(state.afield * state.mag2)
                + 2.0 * self._penalty_energy_half(c))
        work = self.work_integral(c)
        return diss, work, np.abs(diss - work) / np.maximum(1.0, np.abs(work))

    def force_balance(self, state: "_EvalState", sel=slice(None)) -> np.ndarray:
        """Coefficients of rho g + div(stress) before the projection."""
        lat = self.lattice
        T = list(np.moveaxis(lat.engine.to_coarse(state.afield[:, None] * state.S), 1, 0))
        T.append(-sum(T[q] for q in lat.diagonal))  # the stress is traceless with the strain
        out = self.forcing[sel].copy()
        for j in range(lat.grid.d):
            for a in range(lat.grid.d):
                out[:, j] += lat.div_mult[a] * T[lat.pair_of[a][j]]
        return out

    def value_grad(self, c: np.ndarray, sel=slice(None), S=None):
        state = self._eval_state(c, sel, S)
        f = self._energy(c, state.mag2, sel)
        lat = self.lattice
        bracket = -self.force_balance(state, sel)
        if lat.pen_N is not None:
            bracket += (lat.pen_mult / lat.pen_N) * c
        g = lat.vol_factor * project_div_free(bracket, lat.grid)
        return f, g, state

    def curvature_along(self, state: "_EvalState", w: np.ndarray, sel=slice(None)) -> np.ndarray:
        """Second directional derivative of the energy at the state's points
        along the coefficient stacks w. Exact for the quadrature in use, so
        -slope/curvature is the exact minimizer of the quadratic model.
        Returns the curvatures and the fine-grid strains of w, from which the
        minimizer forms its trial strains."""
        Sw = self._strain_fine(w)
        quad = state.afield * self._contract(Sw, Sw)
        if self.p != 2.0:
            curv = _curvature_factor(state.mag2, self.p, self.delta)
            cross = self._contract(state.S, Sw)
            quad = quad + self.nu_fine[sel] * (self.p - 2.0) * curv * cross ** 2
        return self.lattice.hfd * _sum_per_member(quad) + 2.0 * self._penalty_energy_half(w), Sw

    def newtonian_start(self) -> np.ndarray:
        """Newtonian solve M P f of the forcing stacks f = rho g, one per
        member, in the scaled half layout: the ray of the solver's cold
        start, and the exact minimizer for p = 2 and unit viscosity. Its
        change between two densities predicts the change of the minimizer."""
        lat = self.lattice
        return lat.precond_mult * lat.vol_factor * project_div_free(self.forcing, lat.grid)

    def ray_scale(self, c: np.ndarray) -> np.ndarray:
        """Per member, the scale s > 0 that minimizes the energy at
        self.delta along the ray s c, shaped to multiply c. It is 1 where
        the projected forcing is rounding dust (a hydrostatic density): that
        start stays as it is.

        Along the ray the energy's derivative is s phi(s) - W, with W the
        work of c and phi(s) = int nu (delta^2 + s^2 |Dc|^2)^{(p-2)/2} |Dc|^2
        plus twice the penalty of c. So t = log s is the root of
        h(t) = t + log phi(e^t) - log W, whose slope 1 + s phi'(s) / phi(s)
        lies between min(1, p - 1) and max(1, p - 1); h is linear for
        delta = 0 without a penalty. Newton steps from t = 0, one fine-grid
        pass each, stay inside the bracket that those slope bounds give.
        """
        hfd = self.lattice.hfd
        mag2 = self._eval_state(c).mag2
        work = self.work_integral(c)
        pen = 2.0 * self._penalty_energy_half(c)
        forced = _sum_per_member(np.abs(project_div_free(self.forcing, self.lattice.grid)) ** 2)
        live = (forced > 1e-24 * _sum_per_member(np.abs(self.forcing) ** 2)) & (work > 0.0)
        log_work = np.log(np.where(live, work, 1.0))
        slopes = (min(1.0, self.p - 1.0), max(1.0, self.p - 1.0))
        t = np.zeros(len(c))
        lo, hi = np.full(len(c), -np.inf), np.full(len(c), np.inf)
        for _ in range(60):
            s2m = np.exp(2.0 * t).reshape((-1,) + (1,) * (mag2.ndim - 1)) * mag2
            a = self.nu_fine * _power_factor(s2m, self.p, self.delta) * mag2
            phi = hfd * _sum_per_member(a) + pen
            # s phi'(s) = (p - 2) int nu (delta^2 + s^2 m)^{(p-4)/2} s^2 m^2
            dphi = (self.p - 2.0) * hfd * _sum_per_member(a * _strain_share(s2m, self.delta))
            # the members that keep their scale may divide by zero here
            with np.errstate(divide="ignore", invalid="ignore"):
                h = t + np.log(phi) - log_work
                live &= np.isfinite(h)
                active = live & (np.abs(h) > 1e-12)
                if not active.any():
                    break
                ends = (t - h / slopes[0], t - h / slopes[1])
                lo = np.where(active, np.maximum(lo, np.minimum(*ends)), lo)
                hi = np.where(active, np.minimum(hi, np.maximum(*ends)), hi)
                newton = t - h / (1.0 + dphi / phi)
                inside = (newton >= lo) & (newton <= hi)
                t = np.where(active, np.where(inside, newton, 0.5 * (lo + hi)), t)
        return np.exp(np.where(live, t, 0.0)).reshape((-1,) + (1,) * (c.ndim - 1))

    def strain_norm(self, state: "_EvalState", r: float) -> np.ndarray:
        """L^r norm of |Du| per member on the quadrature grid."""
        _Domain(low=1.0).check("Lebesgue exponent", r)
        return (self.lattice.hfd * _sum_per_member(state.mag2 ** (0.5 * r))) ** (1.0 / r)

    def precond_flat(self, g_flat: np.ndarray) -> np.ndarray:
        """The preconditioner M applied to one flat gradient row."""
        lat = self.lattice
        y = g_flat.view(np.complex128).reshape(lat.stack_shape) * lat.precond_mult
        return y.view(np.float64).ravel()

    def hk_norm(self, c: np.ndarray, k: int) -> np.ndarray:
        mult = (1.0 + self.lattice.k2) ** k
        return np.sqrt(self.lattice.vol_factor * _sum_per_member(mult * (c.real ** 2 + c.imag ** 2)))


# Fine-grid strain pair stacks S, |Du|^2 and the stress factor
# nu (delta^2 + |Du|^2)^{(p-2)/2} at the points of k members; value_grad
# returns it for curvature reuse, and the minimizer keeps each member's
# |Du|^2 and stress factor at its returned point for the report.
_EvalState = namedtuple("_EvalState", "S mag2 afield")


def _sel(members, size: int):
    """Basic slice when members lists all size rows, so reads are views."""
    return slice(None) if len(members) == size else members


def _rows(arrays) -> np.ndarray:
    """The 1-D arrays as the rows of one array, a view for a single one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


_CONVERGED = "converged"
_ITERATION_LIMIT = "iteration limit"
_LINE_SEARCH_FAILED = "line search failed"
_NON_FINITE = "non-finite energy or gradient"

# what a member of the minimizer asks for: energy and gradient at a point,
# or the curvature along a direction at its latest evaluated point
_EVAL, _CURV = "eval", "curvature"


def _stop_reason(f, gnorm, tol, iterations, max_iter):
    """Why a member stops at an iterate with energy f and gradient norm
    gnorm, or None."""
    if not (np.isfinite(f) and np.isfinite(gnorm)):
        return _NON_FINITE
    if gnorm <= tol * (1.0 + abs(f)):
        return _CONVERGED
    if iterations >= max_iter:
        return _ITERATION_LIMIT
    return None


def _ncg(ws: _Workspace, member: int, x: np.ndarray, tol, max_iter, callback=None):
    """Preconditioned Polak-Ribiere conjugate gradients on one member.

    Each step is sized by the exact second directional derivative of the
    energy along the search direction, so the first trial point is the
    minimizer of the local quadratic model. Trials are accepted on an
    Armijo decrease or, when value differences fall below the floating
    point noise floor near the minimum, on a strict residual decrease; a
    rejected trial halves the step, at most 40 times, and a failed line
    search is retried once along steepest descent. The member stops at once
    when its energy or gradient at its iterate is non-finite.

    A generator: it yields (_EVAL, point, alpha) and is sent (energy,
    gradient) there, and yields (_CURV, d) and is sent the curvature along
    d at its latest evaluated point. alpha is None, or the step of the
    first trial point x + alpha d of a conjugate line search: the caller may
    then evaluate it from the formed fine-grid strain S(x) + alpha S(d)
    rather than from its coefficients. Every stop is decided on an exact
    evaluation at the returned x, and the stop test runs once per iterate:
    when it would stop a member at an accepted formed trial, the member
    evaluates x once more, counted in n_evals, and goes back to the test
    with that evaluation. A formed state whose stop that evaluation refutes
    ends the forming: the member's later trials are all evaluated exactly.
    A failed line search likewise evaluates x exactly after a rejected
    trial. So the member's last evaluation is always an exact one at the x
    it returns. callback(member, iteration, value, grad_norm) is called
    once at each iterate. Returns (x, grad_norm, iterations, n_evals,
    stop_reason).
    """
    def grad_norm(g):
        return np.sqrt(np.dot(g, g)) / ws.lattice.vol_factor ** 0.5

    f, g = yield _EVAL, x, None
    n_evals = 1
    exact = True  # the latest evaluation was made at x from its coefficients
    may_form = True
    d = -ws.precond_flat(g)
    gy = -np.dot(g, d)
    iterations = 0
    while True:
        gnorm = grad_norm(g)
        reason = _stop_reason(f, gnorm, tol, iterations, max_iter)
        if reason is not None and not exact:
            f, g = yield _EVAL, x, None
            n_evals += 1
            exact = True
            may_form = False
            gy = np.dot(g, ws.precond_flat(g))
            continue
        if callback is not None:
            callback(member, iterations, float(f), float(gnorm))
        if reason is not None:
            return x, gnorm, iterations, n_evals, reason

        tried_steepest = False
        while True:
            slope = np.dot(g, d)
            if slope >= 0.0:
                d = -ws.precond_flat(g)
                slope = np.dot(g, d)
                tried_steepest = True
            curv = yield _CURV, d
            alpha = -slope / curv if np.isfinite(curv) and curv > 0.0 else 1.0
            g_ref = np.sqrt(np.dot(g, g))
            formed = may_form and not tried_steepest
            accepted = False
            for _ in range(40):
                x_try = x + alpha * d
                if np.array_equal(x_try, x):
                    break
                f_try, g_try = yield _EVAL, x_try, alpha if formed else None
                n_evals += 1
                exact = False
                accepted = (f_try <= f + 1e-4 * alpha * slope
                            or (np.sqrt(np.dot(g_try, g_try)) < g_ref
                                and f_try <= f + 1e-14 * (1.0 + abs(f))))
                if accepted:
                    break
                alpha *= 0.5
                formed = False
            if accepted:
                break
            if not exact:
                f, g = yield _EVAL, x, None
                n_evals += 1
                exact = True
            if tried_steepest:
                gnorm = grad_norm(g)
                reason = _stop_reason(f, gnorm, tol, iterations, max_iter)
                return x, gnorm, iterations, n_evals, reason or _LINE_SEARCH_FAILED
            d = -ws.precond_flat(g)
            tried_steepest = True

        exact = not formed
        y = ws.precond_flat(g_try)
        beta = np.dot(y, g_try - g) / gy if gy > 1e-300 else 0.0
        d = -y + (beta if beta > 0.0 else 0.0) * d
        x, f, g, gy = x_try, f_try, g_try, np.dot(g_try, y)
        iterations += 1


def _minimize_batch(ws: _Workspace, x: np.ndarray, tol, max_iter, callback=None):
    """Run _ncg on each row of x, batching the members' requests: each round
    evaluates every pending point in one value_grad, then serves the
    curvature requests from that round's fine-grid state, one
    curvature_along per pass, until none are left. A member that answers
    its curvature with the step alpha of a first trial gets that trial's
    strain S(x) + alpha S(d) formed in place of its row of S(d), and the
    next round's value_grad uses it; the round transforms only the points
    of the other members. Each member goes through the operations it would
    go through alone. Returns (x, grad_norm, iterations, n_evals,
    stop_reason, final), one entry per member; final is the member's
    (|Du|^2, stress factor) from its last evaluation, which _ncg makes
    exactly at the x it returns.
    """
    B = len(x)
    members = [_ncg(ws, i, x[i], tol, max_iter, callback) for i in range(B)]
    requests = [next(m) for m in members]
    results = [None] * B
    formed = [None] * B  # a member's formed trial strain, for its next evaluation

    def answer(i, reply, state, j):
        """Send member i its reply; state row j is its latest evaluation."""
        try:
            requests[i] = members[i].send(reply)
        except StopIteration as stop:
            final = state.mag2[j].copy(), state.afield[j].copy()
            requests[i], results[i] = None, (*stop.value, final)

    while any(requests):
        # drop the previous round's fine-grid state first, so the old and new
        # ones are never held together (this sets the peak memory)
        state = None
        ev = [i for i in range(B) if requests[i]]  # all pending requests are evaluations here
        points = ws.coeffs(_rows([requests[i][1] for i in ev]))
        trials = [formed[i] for i in ev]
        formed = [None] * B
        todo = [j for j, S_j in enumerate(trials) if S_j is None]
        S = None
        if len(todo) < len(ev):
            if todo:
                for j, S_j in zip(todo, ws._strain_fine(points[todo])):
                    trials[j] = S_j
            S = _rows(trials)
        del trials
        f, g, state = ws.value_grad(points, _sel(ev, B), S)
        g = g.view(np.float64).reshape(len(ev), -1)
        del points, S
        for j, i in enumerate(ev):
            answer(i, (f[j], g[j]), state, j)
        # a member whose step vanishes against x asks again within the round
        while rows := [j for j, i in enumerate(ev) if requests[i] and requests[i][0] == _CURV]:
            cv = [ev[j] for j in rows]
            part = state if len(rows) == len(ev) else _EvalState(*(a[rows] for a in state))
            curv, Sd = ws.curvature_along(part, ws.coeffs(_rows([requests[i][1] for i in cv])),
                                          _sel(cv, B))
            del part
            for k, i in enumerate(cv):
                answer(i, curv[k], state, rows[k])
                if requests[i] and requests[i][0] == _EVAL and requests[i][2] is not None:
                    # S(x + alpha d) = S(x) + alpha S(d), in place and bit for bit S_x + alpha * S_d
                    Sd[k] *= requests[i][2]
                    Sd[k] += state.S[rows[k]]
                    formed[i] = Sd[k]
            del Sd

    x, gnorm, iterations, n_evals, reason, final = zip(*results)
    return np.stack(x), gnorm, np.array(iterations), np.array(n_evals), reason, final


# ---------------------------------------------------------------------------
# public entry points

def functional_value(prob: StokesProblem, u: VelocityField) -> float:
    """Energy of a trial velocity, normalized so the zero field gives zero."""
    ws = _Workspace([prob])
    c = ws.stack_of(u)
    return float(ws._energy(c, ws._eval_state(c).mag2)[0])


def functional_gradient(prob: StokesProblem, u: VelocityField) -> VelocityField:
    """L2 Riesz representative of the energy derivative, projected onto the
    divergence-free zero-mean subspace. Rejects the singular case: p < 2
    with a delta that acts as zero."""
    if _singular(prob.params.p, prob.params.delta):
        raise ValueError("gradient is singular for p < 2 at a delta that acts as zero; "
                         "use a delta whose square is positive")
    ws = _Workspace([prob])
    _, g, _ = ws.value_grad(ws.stack_of(u))
    return VelocityField.from_half_stack(g[0] / ws.lattice.vol_factor, ws.lattice.grid)


def _solve(ws: _Workspace, problems, u0, tol=1e-8, max_iter=10000, strict=False, callback=None):
    """solve_stokes_batch on the workspace ws of problems, from u0: None or
    the members' coefficient stacks in the workspace's layout, which are
    projected here. Returns the (velocity, report) pairs, the returned
    coefficient stacks and their fine-grid |Du|^2, with ws.delta back at
    the requested delta."""
    params = problems[0].params
    B = len(problems)
    if problems[0].penalty is None and np.any(ws.nu_fine.reshape(B, -1).max(axis=1) == 0.0):
        raise DegenerateViscosity("viscosity vanishes on the whole grid and no penalty is active")

    delta = _DELTA_SINGULAR if _singular(params.p, params.delta) else float(params.delta)
    ws.delta = delta

    if u0 is None:
        stack = ws.newtonian_start()
        stack *= ws.ray_scale(stack)
    else:
        stack = project_div_free(u0, ws.lattice.grid)
    x = np.ascontiguousarray(stack).view(np.float64).reshape(B, -1)

    x, gnorm, iters, evals, reason, final = _minimize_batch(ws, x, tol, max_iter, callback)

    c = ws.coeffs(x)  # every iterate lies in the projected subspace
    mag2, afield = zip(*final)
    state = _EvalState(None, _rows(mag2), _rows(afield))
    # Balance residual at the delta minimized, where the minimizer is
    # stationary; value at the requested delta, from the same strain, which
    # does not depend on delta.
    _, _, residual = ws.energy_balance(c, state)
    ws.delta = params.delta
    value = ws._energy(c, state.mag2)
    hk = None if problems[0].penalty is None else ws.hk_norm(c, problems[0].penalty[1])

    results = []
    for i, prob in enumerate(problems):
        report = StokesReport(iterations=int(iters[i]), value=float(value[i]), grad_norm=float(gnorm[i]),
                              energy_residual=float(residual[i]), delta_schedule=(delta,),
                              converged=reason[i] == _CONVERGED, n_evals=int(evals[i]),
                              stop_reason=reason[i])
        if hk is not None:
            rho_l2 = lebesgue_norm(prob.rho, 2)
            if rho_l2 > 0:
                report.hk_bound_ratio = float(hk[i]) / (math.sqrt(prob.penalty[0]) * rho_l2)
        if strict and not report.converged:
            member = f"member {i}: " if B > 1 else ""
            raise MaxIterations(
                f"{member}no convergence in {report.iterations} iterations "
                f"(grad norm {report.grad_norm:.3e}, {report.stop_reason})", report
            )
        results.append((VelocityField.from_half_stack(c[i], ws.lattice.grid), report))
    return results, c, state.mag2


def _diagnostics(ws: _Workspace, c: np.ndarray, mag2: np.ndarray, beta: float) -> dict:
    """solution_diagnostics at ws.delta of one member's coefficient stacks c,
    from their fine-grid |Du|^2 mag2."""
    state = _EvalState(None, mag2, ws.nu_fine * _power_factor(mag2, ws.p, ws.delta))
    dissipation, work, residual = ws.energy_balance(c, state)
    return {
        "du_beta": float(ws.strain_norm(state, beta)[0]),
        "dissipation": float(dissipation[0]),
        "work": float(work[0]),
        "energy_residual": float(residual[0]),
    }


def solve_stokes_batch(problems, u0=None, tol: float = 1e-8, max_iter: int = 10000,
                       strict: bool = False, callback=None):
    """Minimize the energies of a batch of problems; returns one
    (velocity, report) pair per problem.

    The members must share the grid, p, delta, g and the penalty (a
    ValueError otherwise); their densities and viscosity laws may differ.
    u0 is None (a cold start), one velocity shared by every member, or a
    sequence of one velocity per member. A cold start is c M P(rho g), the
    Newtonian solve scaled by the c > 0 that minimizes the energy along
    its ray (c = 1 where P(rho g) is rounding dust); a given u0 is only
    projected. Each member takes the iterates, and gets the counts and
    report, that it would get solved alone; callback(member, iteration,
    value, grad_norm) is called once at each of its iterates.

    For 1 < p < 2 with a delta that acts as zero requested (one whose
    square underflows, delta = 0 included), the solver minimizes the
    regularized delta = 1e-4 energy from the same start, and
    report.delta_schedule reads (1e-4,); otherwise it reads the requested
    (delta,). The reported gradient norm and energy residual refer to the
    delta minimized, while value is evaluated at the requested delta. Both
    come from the minimizer's last evaluation of each member, which is an
    exact one at its returned velocity. n_evals counts every energy and
    gradient evaluation: the formed first trials, the others, and the
    exact evaluation that a member makes at its point before it stops
    whenever its latest one was not exact there. With strict=True a
    non-converged member raises MaxIterations instead of returning
    converged=False.
    """
    _POSITIVE.check("tol", tol)
    max_iter = _Domain(low=0, integer=True).check("max_iter", max_iter)
    problems = list(problems)
    if not problems:
        return []
    B = len(problems)
    ws = _Workspace(problems)
    if u0 is not None:
        u0 = [u0] * B if isinstance(u0, VelocityField) else list(u0)
        if len(u0) != B:
            raise ValueError(f"u0 has {len(u0)} fields for {B} problems")
        u0 = ws.stack_of(*u0)
    return _solve(ws, problems, u0, tol, max_iter, strict, callback)[0]


def solve_stokes(prob: StokesProblem, u0: VelocityField = None, tol: float = 1e-8,
                 max_iter: int = 10000, strict: bool = False, callback=None):
    """Minimize the energy; returns (velocity, report).

    solve_stokes_batch on a batch of one, with callback(iteration, value,
    grad_norm) called at each iterate.
    """
    member_callback = None if callback is None else (lambda member, *args: callback(*args))
    return solve_stokes_batch([prob], u0=u0, tol=tol, max_iter=max_iter, strict=strict,
                              callback=member_callback)[0]


def solve_stokes_penalized(prob: StokesProblem, **kwargs):
    """solve_stokes for a problem that carries its penalty pair (N, k)."""
    if prob.penalty is None:
        raise ValueError("penalized solve requires a penalty pair (N, k)")
    return solve_stokes(prob, **kwargs)


def energy_balance_residual(prob: StokesProblem, u: VelocityField) -> float:
    """|dissipation + penalty - work| / max(1, |work|), all quadratures on
    the fine grid so a converged minimizer balances to solver tolerance.
    Unlike solution_diagnostics it takes no L^beta norm, so it serves beta < 1."""
    ws = _Workspace([prob])
    c = ws.stack_of(u)
    return float(ws.energy_balance(c, ws._eval_state(c))[2][0])


def apriori_check(prob: StokesProblem, u: VelocityField):
    """Strain norm against the constant-free density bound.

    Returns (lhs, rhs_core) with lhs = |Du| in L^beta and
    rhs_core = |1/rho|_{L^sigma}^{gamma/(p-1)} |rho|_{L^q}^{1/(p-1)}.
    rhs_core is +inf when the density vanishes and gamma > 0, which makes
    the bound vacuous; callers should flag that case.
    """
    params = prob.params
    lhs = solution_diagnostics(prob, u)["du_beta"]
    expo = 1.0 / (params.p - 1.0)
    rhs = lebesgue_norm(prob.rho, params.q) ** expo
    if params.gamma > 0:
        rhs *= reciprocal_norm(prob.rho, params.sigma) ** (params.gamma * expo)
    return lhs, float(rhs)


def monotonicity_gaps(prob: StokesProblem, u: VelocityField, phis):
    """Monotonicity gaps of u against each test field phi, with their scales.

    Returns (gaps, scales), 1-D arrays with one entry per phi: the gap is
    int nu(rho) (s(Du) - s(Dphi)) : (Du - Dphi) with s the stress power,
    nonnegative by operator monotonicity, expanded into four terms
    t1 - t2 - t3 + t4, and the scale is |t1| + |t2| + |t3| + |t4|.
    """
    ws = _Workspace([prob])
    # u is member 0 of one strain batch; its size-1 axis broadcasts in the pairings
    S, _, a = ws._eval_state(ws.stack_of(u, *phis))

    u0, rest = slice(0, 1), slice(1, None)
    t1, t2, t3, t4 = (ws.lattice.hfd * _sum_per_member(a[i] * ws._contract(S[i], S[j]))
                      for i, j in ((u0, u0), (u0, rest), (rest, u0), (rest, rest)))
    return t1 - t2 - t3 + t4, np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4)


def monotonicity_gap(prob: StokesProblem, u: VelocityField, phi: VelocityField) -> float:
    """int nu(rho) (s(Du) - s(Dphi)) : (Du - Dphi) with s the stress power;
    nonnegative for every pair of fields by operator monotonicity."""
    return monotonicity_gap_with_scale(prob, u, phi)[0]


def monotonicity_gap_with_scale(prob: StokesProblem, u: VelocityField, phi: VelocityField):
    """(gap, scale) of monotonicity_gaps for a single test field."""
    gaps, scales = monotonicity_gaps(prob, u, [phi])
    return float(gaps[0]), float(scales[0])


def pairing_l2(u: VelocityField, v: VelocityField) -> float:
    """Spatial L2 inner product of two velocity fields."""
    _check_grid(u.grid, [v], "a velocity", "pairing with a velocity")
    return l2_inner(u.grid, u.half_stack, v.half_stack)


def minty_sweep(rho_sequence, rho_limit, test_functions, params: FluidParams,
                law: ViscosityLaw, penalty=None, tol: float = 1e-8,
                max_iter: int = 10000):
    """Weak-continuity probe of the inverse map along a density sequence.

    Solves the limit problem, then every member problem in one batch
    warm-started from the limit solution, and tabulates the L2 pairings
    <Psi(rho_n) - Psi(rho_limit), phi> for each test field phi. Returns a
    dict with the signed pairings, their magnitudes of shape
    (len(rho_sequence), len(test_functions)), and solver iteration counts.
    """
    rho_sequence = list(rho_sequence)  # checked, then solved: an iterator is read once
    _check_grid(rho_limit.grid, rho_sequence, "a density", "a limit density")
    _check_grid(rho_limit.grid, test_functions, "a test field", "a limit density")
    prob_lim = StokesProblem(rho_limit, params, law, penalty)
    u_lim, rep_lim = solve_stokes(prob_lim, tol=tol, max_iter=max_iter, strict=True)
    members = solve_stokes_batch([StokesProblem(rho_n, params, law, penalty) for rho_n in rho_sequence],
                                 u0=u_lim, tol=tol, max_iter=max_iter, strict=True)
    raw = np.zeros((len(members), len(test_functions)))
    iters = [rep_lim.iterations] + [rep_n.iterations for _, rep_n in members]
    for i, (u_n, _) in enumerate(members):
        diff = u_n.half_stack - u_lim.half_stack
        raw[i] = [l2_inner(u_n.grid, diff, phi.half_stack) for phi in test_functions]
    return {"raw": raw, "pairings": np.abs(raw), "iterations": iters}


def recover_pressure(prob: StokesProblem, u: VelocityField) -> SpectralField:
    """Zero-mean pressure whose gradient absorbs the non-solenoidal part of
    rho g + div(stress); at a converged minimizer the projected remainder
    is at solver tolerance."""
    ws = _Workspace([prob])
    grid = ws.lattice.grid
    R = expand_half(ws.force_balance(ws._eval_state(ws.stack_of(u)))[0], grid)
    kd, k2 = deriv_vectors(grid), k_squared(grid)
    kdotR = sum(kd[j] * R[j] for j in range(grid.d))
    with np.errstate(divide="ignore", invalid="ignore"):
        pi_hat = np.where(k2 > 0, -1j * kdotR / np.where(k2 > 0, k2, 1.0), 0.0)
    return SpectralField(grid, pi_hat)


def solution_diagnostics(prob: StokesProblem, u: VelocityField) -> dict:
    """The L^beta norm of |Du| and the energy balance (dissipation plus
    penalty, work, residual) of one solved velocity."""
    ws = _Workspace([prob])
    c = ws.stack_of(u)
    return _diagnostics(ws, c, ws._eval_state(c).mag2, prob.params.beta)
