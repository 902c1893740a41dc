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
requests into batched evaluations (_minimize_batch). The
stress, the dissipation, the monotonicity gap and the a-priori strain norm
are evaluated on one 3/2-times finer quadrature grid, which keeps the
discrete gradient an exact derivative of the discrete energy; the work
integral, linear in u, is summed exactly from the coefficients. For
1 < p < 2 with delta = 0 the solver minimizes the delta = 1e-4 energy
instead, from the same start, and never differentiates the singular
delta = 0 energy.

The preconditioner M is the inverse of the Newtonian (plus penalty)
coefficient Hessian. A cold solve starts from the Newtonian solve
M P(rho g) (newtonian_start, P the divergence-free projection), which is
the exact minimizer for p = 2 and unit viscosity. The coupled run
(simulator.run) starts each later solve from the Newtonian predictor
v_prev + M P((rho - rho_prev) g), exact under the same conditions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateViscosity, MaxIterations
from .rheology import FluidParams, ViscosityLaw, _power_factor
from .spectral import (
    GridField,
    SpectralField,
    TorusGrid,
    VelocityField,
    TWO_PI,
    dealiaser,
    deriv_vectors,
    k_squared,
    l2_inner,
    lebesgue_norm,
    project_div_free,
    reciprocal_norm,
    to_spectral,
)

_DELTA_SINGULAR = 1e-4


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


@lru_cache(maxsize=32)
def _newtonian_mult(grid: TorusGrid, penalty) -> np.ndarray:
    """Inverse of the Newtonian (plus penalty) coefficient Hessian on the
    lattice: the solver's preconditioner M, 0 at the zero mode."""
    k2 = k_squared(grid)
    vol_factor = TWO_PI ** grid.d
    hess = vol_factor * (0.5 * k2)
    if penalty is not None:
        N, k = penalty
        hess = hess + vol_factor * k2 ** k / N
    with np.errstate(divide="ignore"):
        inv = np.where(k2 > 0, 1.0 / np.where(k2 > 0, hess, 1.0), 0.0)
    inv.flags.writeable = False
    return inv


def newtonian_start(forcing: np.ndarray, grid: TorusGrid, penalty) -> np.ndarray:
    """Newtonian solve M P f of forcing coefficient stacks f = rho g of shape
    (d,) + grid.shape, with any leading member axes: the cold start of the
    solver, and the exact minimizer for p = 2 and unit viscosity. Applied to
    a change of forcing it predicts the change of the minimizer."""
    return _newtonian_mult(grid, penalty) * TWO_PI ** grid.d * project_div_free(forcing, grid)


def _sum_per_member(a: np.ndarray) -> np.ndarray:
    """Sum over every axis but the leading member axis."""
    return np.sum(a, axis=tuple(range(1, a.ndim)))


class _Workspace:
    """Precomputed transforms and multipliers for a batch of problems.

    The members share the grid, p, delta, g and the penalty; the density,
    and with it the viscosity and the forcing, carries a leading member
    axis. Coefficient stacks have shape (k, d) + grid.shape, and sel picks
    the k members they belong to: a basic slice for the whole batch, which
    reads the member data without copying, or an index array.

    Every coefficient stack the workspace is given must be divergence-free,
    k.c = 0 with the derivative wavevectors, as the projection leaves the
    solver's iterates, gradients and directions and every VelocityField it
    makes. The strain is then symmetric and traceless, so it is carried as
    the stack of its d(d+1)/2 - 1 entries i <= j other than (d, d)
    (self.pairs): 2 in 2D, 5 in 3D. The last diagonal entry is minus the
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
        self.grid = grid
        self.delta = float(prob.params.delta)
        self.p = prob.params.p
        self.d = grid.d
        self.stack_shape = (self.d,) + grid.shape
        self.vol_factor = TWO_PI ** self.d
        self.engine = dealiaser(grid.d, grid.n)
        self.hfd = (TWO_PI / self.engine.m) ** self.d

        self.kd = deriv_vectors(grid)
        self.k2 = k_squared(grid)
        last = (self.d - 1, self.d - 1)
        self.pairs = tuple((i, j) for i in range(self.d) for j in range(i, self.d) if (i, j) != last)
        self.diagonal = [q for q, (i, j) in enumerate(self.pairs) if i == j]
        # A : B = sum of A_ij B_ij over the carried pairs, off-diagonal ones
        # twice, plus A_dd B_dd = (sum of A_ii)(sum of B_ii); in 2D that last
        # term is A_11 B_11 and doubles the diagonal weight instead
        self.pair_weight = np.array([1.0 if i == j else 2.0 for i, j in self.pairs])
        if self.d == 2:
            self.pair_weight[self.diagonal] = 2.0
        entries = self.pairs + (last,)
        self.pair_of = [[entries.index((min(a, j), max(a, j))) for j in range(self.d)]
                        for a in range(self.d)]

        rho_hat = np.stack([to_spectral(member.rho).coeffs for member in problems])
        rho_fine = self.engine.to_fine(rho_hat)
        self.nu_fine = _rows([np.asarray(member.law(r)) for member, r in zip(problems, rho_fine)])
        self.forcing = rho_hat[:, None] * np.reshape(prob.params.g, (-1,) + (1,) * self.d)
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

        self.precond_mult = _newtonian_mult(grid, prob.penalty)

    # -- subspace handling ---------------------------------------------------

    def project(self, stack: np.ndarray) -> np.ndarray:
        return project_div_free(stack, self.grid)

    def velocity_from_stack(self, stack: np.ndarray, check: bool = True) -> VelocityField:
        comps = tuple(SpectralField(self.grid, stack[j].copy()) for j in range(self.d))
        return VelocityField(comps, check=check)

    def coeffs(self, x_flat: np.ndarray) -> np.ndarray:
        """Coefficient stacks of flat real rows of shape (k, 2 d n^d)."""
        return x_flat.view(np.complex128).reshape((len(x_flat),) + self.stack_shape)

    # -- fine-grid evaluation --------------------------------------------------

    def _strain_fine(self, c: np.ndarray) -> np.ndarray:
        """Strain entries self.pairs on the quadrature grid, shape (k, len(pairs)) + fine.
        to_fine reads only the last axis's first n/2 + 1 coefficients, so
        only those are formed."""
        half = slice(0, self.grid.n // 2 + 1)
        kd = [k[..., half] for k in self.kd]
        c = c[..., half]
        s_hat = np.empty((len(c), len(self.pairs)) + c.shape[2:], dtype=np.complex128)
        for q, (i, j) in enumerate(self.pairs):
            s_hat[:, q] = 0.5j * (kd[i] * c[:, j] + kd[j] * c[:, i])
        return self.engine.to_fine(s_hat)

    def _contract(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Pointwise A : B of two symmetric traceless tensors given by their
        pair stacks."""
        out = np.einsum("q,bq...,bq...->b...", self.pair_weight, A, B)
        if self.d == 3:
            out += sum(A[:, q] for q in self.diagonal) * sum(B[:, q] for q in self.diagonal)
        return out

    def _eval_state(self, c: np.ndarray, sel=slice(None)) -> "_EvalState":
        S = self._strain_fine(c)
        mag2 = self._contract(S, S)
        return _EvalState(S, mag2, self.nu_fine[sel] * _power_factor(mag2, self.p, self.delta))

    def _penalty_energy_half(self, c: np.ndarray):
        """(1/(2N)) int |grad^k u|^2 via the coefficient sum."""
        if self.pen_N is None:
            return 0.0
        tot = _sum_per_member(self.pen_mult * (c.real ** 2 + c.imag ** 2))
        return 0.5 * self.vol_factor * tot / self.pen_N

    def work_integral(self, c: np.ndarray, sel=slice(None)) -> np.ndarray:
        """int rho g . u, exact for the band-limited fields."""
        return np.array([l2_inner(self.grid, ci, wi) for ci, wi in zip(c, self.work_weights[sel])])

    def _energy(self, c: np.ndarray, mag2: np.ndarray, sel=slice(None)) -> np.ndarray:
        if self.delta > 0:
            # (delta^2 + |Du|^2)^{p/2} - delta^p, free of cancellation where delta^2 >> |Du|^2
            lifted = self.delta ** self.p * np.expm1(0.5 * self.p * np.log1p(mag2 / self.delta ** 2))
        else:
            lifted = mag2 ** (self.p / 2.0)
        diss = self.hfd * _sum_per_member((self.nu_fine[sel] / self.p) * lifted)
        return diss - self.work_integral(c, sel) + self._penalty_energy_half(c)

    def value(self, c: np.ndarray) -> np.ndarray:
        return self._energy(c, self._eval_state(c).mag2)

    def energy_balance(self, c: np.ndarray, state: "_EvalState"):
        """(dissipation + penalty, work, residual) per member at the state
        of c, with the balance residual |dissipation + penalty - work| /
        max(1, |work|); all quadratures on the fine grid, so a converged
        minimizer balances to solver tolerance."""
        diss = self.hfd * _sum_per_member(state.afield * state.mag2) + 2.0 * self._penalty_energy_half(c)
        work = self.work_integral(c)
        return diss, work, np.abs(diss - work) / np.maximum(1.0, np.abs(work))

    def force_balance(self, state: "_EvalState", sel=slice(None)) -> np.ndarray:
        """Coefficients of rho g + div(stress) before the projection."""
        T = list(np.moveaxis(self.engine.to_coarse(state.afield[:, None] * state.S), 1, 0))
        T.append(-sum(T[q] for q in self.diagonal))  # the stress is traceless with the strain
        out = self.forcing[sel].copy()
        for j in range(self.d):
            out[:, j] += 1j * sum(self.kd[a] * T[self.pair_of[a][j]] for a in range(self.d))
        return out

    def value_grad(self, c: np.ndarray, sel=slice(None)):
        state = self._eval_state(c, sel)
        f = self._energy(c, state.mag2, sel)
        bracket = -self.force_balance(state, sel)
        if self.pen_N is not None:
            bracket += (self.pen_mult / self.pen_N) * c
        g = self.vol_factor * self.project(bracket)
        return f, g, state

    def curvature_along(self, state: "_EvalState", w: np.ndarray, sel=slice(None)) -> np.ndarray:
        """Second directional derivative of the energy at the state's points
        along the coefficient stacks w. Exact for the quadrature in use, so
        -slope/curvature is the exact minimizer of the quadratic model."""
        Sw = self._strain_fine(w)
        quad = state.afield * self._contract(Sw, Sw)
        if self.p != 2.0:
            base = self.delta * self.delta + state.mag2
            safe = np.where(base > 0, base, 1.0) ** ((self.p - 4.0) / 2.0)
            cross = self._contract(state.S, Sw)
            quad = quad + self.nu_fine[sel] * (self.p - 2.0) * np.where(base > 0, safe, 0.0) * cross ** 2
        return self.hfd * _sum_per_member(quad) + 2.0 * self._penalty_energy_half(w)

    def strain_norm(self, state: "_EvalState", r: float) -> np.ndarray:
        """L^r norm of |Du| per member on the quadrature grid."""
        if not 1 <= r < math.inf:
            raise ValueError(f"Lebesgue exponent must be >= 1 and finite, got {r}")
        return (self.hfd * _sum_per_member(state.mag2 ** (0.5 * r))) ** (1.0 / r)

    def precond_flat(self, g_flat: np.ndarray) -> np.ndarray:
        """The preconditioner M applied to one flat gradient row."""
        y = g_flat.view(np.complex128).reshape(self.stack_shape) * self.precond_mult
        return y.view(np.float64).ravel()

    def hk_norm(self, c: np.ndarray, k: int) -> np.ndarray:
        mult = (1.0 + self.k2) ** k
        return np.sqrt(self.vol_factor * _sum_per_member(mult * (c.real ** 2 + c.imag ** 2)))


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

    A generator: it yields (_EVAL, point) and is sent (energy, gradient)
    there, and yields (_CURV, d) and is sent the curvature along d at its
    latest evaluated point, which it first re-evaluates when a failed line
    search has moved on from it. callback(member, iteration, value,
    grad_norm) is called at each iterate. Returns (x, grad_norm,
    iterations, n_evals, stop_reason).
    """
    f, g = yield _EVAL, x
    n_evals = 1
    fresh = True  # the latest evaluation was at x
    d = -ws.precond_flat(g)
    gy = -np.dot(g, d)
    iterations = 0
    while True:
        gnorm = np.sqrt(np.dot(g, g)) / ws.vol_factor ** 0.5
        if callback is not None:
            callback(member, iterations, float(f), float(gnorm))
        if not (np.isfinite(f) and np.isfinite(gnorm)):
            return x, gnorm, iterations, n_evals, _NON_FINITE
        if gnorm <= tol * (1.0 + abs(f)):
            return x, gnorm, iterations, n_evals, _CONVERGED
        if iterations >= max_iter:
            return x, gnorm, iterations, n_evals, _ITERATION_LIMIT

        tried_steepest = accepted = False
        while not accepted:
            slope = np.dot(g, d)
            if slope >= 0.0:
                d = -ws.precond_flat(g)
                slope = np.dot(g, d)
                tried_steepest = True
            if not fresh:
                yield _EVAL, x
                n_evals += 1
                fresh = True
            curv = yield _CURV, d
            alpha = -slope / curv if np.isfinite(curv) and curv > 0.0 else 1.0
            g_ref = np.sqrt(np.dot(g, g))
            for _ in range(40):
                x_try = x + alpha * d
                if np.array_equal(x_try, x):
                    break
                f_try, g_try = yield _EVAL, x_try
                n_evals += 1
                fresh = False
                accepted = (f_try <= f + 1e-4 * alpha * slope
                            or (np.sqrt(np.dot(g_try, g_try)) < g_ref
                                and f_try <= f + 1e-14 * (1.0 + abs(f))))
                if accepted:
                    break
                alpha *= 0.5
            if not accepted:
                if tried_steepest:
                    return x, gnorm, iterations, n_evals, _LINE_SEARCH_FAILED
                d = -ws.precond_flat(g)
                tried_steepest = True

        y = ws.precond_flat(g_try)
        beta = np.dot(y, g_try - g) / gy if gy > 1e-300 else 0.0
        d = -y + (beta if beta > 0.0 else 0.0) * d
        x, f, g, gy = x_try, f_try, g_try, np.dot(g_try, y)
        iterations += 1
        fresh = True


def _minimize_batch(ws: _Workspace, x: np.ndarray, tol, max_iter, callback=None):
    """Run _ncg on each row of x, batching the members' requests: each round
    evaluates every pending point in one value_grad, then serves the
    curvature requests from that round's fine-grid state, one
    curvature_along per pass, until none are left. Each member goes through
    the operations it would go through alone. Returns
    (x, grad_norm, iterations, n_evals, stop_reason, final), one entry per
    member; final is the member's (|Du|^2, stress factor) at its returned x
    from its latest evaluation, or None when that evaluation was elsewhere.
    """
    B = len(x)
    members = [_ncg(ws, i, x[i], tol, max_iter, callback) for i in range(B)]
    requests = [next(m) for m in members]
    results = [None] * B
    evaluated = [None] * B  # each member's latest evaluated point

    def answer(i, reply, state, j):
        """Send member i its reply; state row j is its latest evaluation.
        _ncg returns the very array it last evaluated unless a failed line
        search moved on from it."""
        try:
            requests[i] = members[i].send(reply)
        except StopIteration as stop:
            x_i = stop.value[0]
            final = (state.mag2[j].copy(), state.afield[j].copy()) if x_i is evaluated[i] else None
            requests[i], results[i] = None, (*stop.value, final)

    while any(requests):
        # drop the previous round's fine-grid state first, so the old and new
        # ones are never held together (this sets the peak memory)
        state = None
        ev = [i for i in range(B) if requests[i]]  # all pending requests are evaluations here
        for i in ev:
            evaluated[i] = requests[i][1]
        points = _rows([evaluated[i] for i in ev])
        f, g, state = ws.value_grad(ws.coeffs(points), _sel(ev, B))
        g = g.view(np.float64).reshape(len(ev), -1)
        del points
        for j, i in enumerate(ev):
            answer(i, (f[j], g[j]), state, j)
        # a member whose step vanishes against x asks again within the round
        while rows := [j for j, i in enumerate(ev) if requests[i] and requests[i][0] == _CURV]:
            cv = [ev[j] for j in rows]
            part = state if len(rows) == len(ev) else _EvalState(*(a[rows] for a in state))
            curv = ws.curvature_along(part, ws.coeffs(_rows([requests[i][1] for i in cv])), _sel(cv, B))
            del part
            for k, i in enumerate(cv):
                answer(i, curv[k], state, rows[k])

    x, gnorm, iterations, n_evals, reason, final = zip(*results)
    return np.stack(x), gnorm, np.array(iterations), np.array(n_evals), reason, final


# ---------------------------------------------------------------------------
# public entry points

def functional_value(prob: StokesProblem, u: VelocityField) -> float:
    """Energy of a trial velocity, normalized so the zero field gives zero."""
    ws = _Workspace([prob])
    return float(ws.value(u.coeff_stack()[None])[0])


def functional_gradient(prob: StokesProblem, u: VelocityField) -> VelocityField:
    """L2 Riesz representative of the energy derivative, projected onto the
    divergence-free zero-mean subspace. Rejects the singular case delta = 0
    with p < 2."""
    if prob.params.p < 2 and prob.params.delta == 0:
        raise ValueError("gradient is singular for p < 2 at delta = 0; use delta > 0")
    ws = _Workspace([prob])
    _, g, _ = ws.value_grad(u.coeff_stack()[None])
    return ws.velocity_from_stack(g[0] / ws.vol_factor, check=False)


def solve_stokes_batch(problems, u0=None, tol: float = 1e-8, max_iter: int = 10000,
                       strict: bool = False, callback=None):
    """Minimize the energies of a batch of problems; returns one
    (velocity, report) pair per problem.

    The members must share the grid, p, delta, g and the penalty (a
    ValueError otherwise); their densities and viscosity laws may differ.
    u0 is None (a cold start), one velocity shared by every member, or a
    sequence of one velocity per member. Each member takes the iterates,
    and gets the counts and report, that it would get solved alone;
    callback(member, iteration, value, grad_norm) is called at each of its
    iterates.

    For 1 < p < 2 with delta = 0 requested, the solver minimizes the
    regularized delta = 1e-4 energy from the same start, and
    report.delta_schedule reads (1e-4,); otherwise it reads the requested
    (delta,). The reported gradient norm and energy residual refer to the
    delta minimized, while value is evaluated at the requested delta. Both
    come from the minimizer's own evaluation at the returned velocity; only
    a member whose line search failed after that evaluation is evaluated
    again. With strict=True a non-converged member raises MaxIterations
    instead of returning converged=False.
    """
    problems = list(problems)
    if not problems:
        return []
    params = problems[0].params
    B = len(problems)
    ws = _Workspace(problems)
    if problems[0].penalty is None and np.any(ws.nu_fine.reshape(B, -1).max(axis=1) == 0.0):
        raise DegenerateViscosity(
            "viscosity vanishes on the whole grid and no penalty is active"
        )

    delta = _DELTA_SINGULAR if params.p < 2 and params.delta == 0.0 else float(params.delta)

    if u0 is None:
        stack = newtonian_start(ws.forcing, ws.grid, problems[0].penalty)
    else:
        u0 = [u0] * B if isinstance(u0, VelocityField) else list(u0)
        if len(u0) != B:
            raise ValueError(f"u0 has {len(u0)} fields for {B} problems")
        comps = np.stack([comp.coeffs for u in u0 for comp in u.components])
        stack = ws.project(comps.reshape((B,) + ws.stack_shape))
    x = np.ascontiguousarray(stack).view(np.float64).reshape(B, -1)

    ws.delta = delta
    x, gnorm, iters, evals, reason, final = _minimize_batch(ws, x, tol, max_iter, callback)

    # every iterate lies in the projected subspace, and the minimizer's
    # latest evaluation of a member was at its returned x unless a line
    # search failed after it; only those members are evaluated again
    c = ws.coeffs(x)
    final = list(final)
    stale = [i for i, f in enumerate(final) if f is None]
    if stale:
        again = ws._eval_state(c[stale], stale)
        for k, i in enumerate(stale):
            final[i] = again.mag2[k], again.afield[k]
    state = _EvalState(None, _rows([f[0] for f in final]), _rows([f[1] for f in final]))
    # Balance residual at the delta minimized, where the minimizer is
    # stationary; value at the requested delta, from the same strain, which
    # does not depend on delta.
    _, _, residual = ws.energy_balance(c, state)
    ws.delta = params.delta
    value = ws._energy(c, state.mag2)
    hk = None if problems[0].penalty is None else ws.hk_norm(c, problems[0].penalty[1])

    results = []
    for i, prob in enumerate(problems):
        report = StokesReport(
            iterations=int(iters[i]),
            value=float(value[i]),
            grad_norm=float(gnorm[i]),
            energy_residual=float(residual[i]),
            delta_schedule=(delta,),
            converged=reason[i] == _CONVERGED,
            n_evals=int(evals[i]),
            stop_reason=reason[i],
        )
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
        # the projection enforces the subspace constraints by construction; a
        # relative re-check would reject near-zero solutions made of rounding dust
        results.append((ws.velocity_from_stack(c[i], check=False), report))
    return results


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
    the fine grid so a converged minimizer balances to solver tolerance."""
    ws = _Workspace([prob])
    c = u.coeff_stack()[None]
    return float(ws.energy_balance(c, ws._eval_state(c))[2][0])


def apriori_check(prob: StokesProblem, u: VelocityField):
    """Strain norm against the constant-free density bound.

    Returns (lhs, rhs_core) with lhs = |Du| in L^beta and
    rhs_core = |1/rho|_{L^sigma}^{gamma/(p-1)} |rho|_{L^q}^{1/(p-1)}.
    rhs_core is +inf when the density vanishes and gamma > 0, which makes
    the bound vacuous; callers should flag that case.
    """
    params = prob.params
    ws = _Workspace([prob])
    lhs = ws.strain_norm(ws._eval_state(u.coeff_stack()[None]), params.beta)[0]
    expo = 1.0 / (params.p - 1.0)
    rhs = lebesgue_norm(prob.rho, params.q) ** expo
    if params.gamma > 0:
        rhs *= reciprocal_norm(prob.rho, params.sigma) ** (params.gamma * expo)
    return float(lhs), float(rhs)


def monotonicity_gaps(prob: StokesProblem, u: VelocityField, phis):
    """Monotonicity gaps of u against each test field phi, with their scales.

    Returns (gaps, scales), 1-D arrays with one entry per phi: the gap is
    int nu(rho) (s(Du) - s(Dphi)) : (Du - Dphi) with s the stress power,
    nonnegative by operator monotonicity, expanded into four terms
    t1 - t2 - t3 + t4, and the scale is |t1| + |t2| + |t3| + |t4|.
    """
    ws = _Workspace([prob])
    # u is member 0 of one strain batch; its size-1 axis broadcasts in the pairings
    S, _, a = ws._eval_state(np.stack([v.coeff_stack() for v in [u, *phis]]))

    u0, rest = slice(0, 1), slice(1, None)
    t1, t2, t3, t4 = (ws.hfd * _sum_per_member(a[i] * ws._contract(S[i], S[j]))
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
    return l2_inner(u.grid, u.coeff_stack(), v.coeff_stack())


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
    prob_lim = StokesProblem(rho_limit, params, law, penalty)
    u_lim, rep_lim = solve_stokes(prob_lim, tol=tol, max_iter=max_iter, strict=True)
    members = solve_stokes_batch([StokesProblem(rho_n, params, law, penalty) for rho_n in rho_sequence],
                                 u0=u_lim, tol=tol, max_iter=max_iter, strict=True)
    raw = np.zeros((len(members), len(test_functions)))
    iters = [rep_lim.iterations] + [rep_n.iterations for _, rep_n in members]
    for i, (u_n, _) in enumerate(members):
        diff = u_n.coeff_stack() - u_lim.coeff_stack()
        for j, phi in enumerate(test_functions):
            raw[i, j] = l2_inner(u_n.grid, diff, phi.coeff_stack())
    return {"raw": raw, "pairings": np.abs(raw), "iterations": iters}


def recover_pressure(prob: StokesProblem, u: VelocityField) -> SpectralField:
    """Zero-mean pressure whose gradient absorbs the non-solenoidal part of
    rho g + div(stress); at a converged minimizer the projected remainder
    is at solver tolerance."""
    ws = _Workspace([prob])
    R = ws.force_balance(ws._eval_state(u.coeff_stack()[None]))[0]
    kdotR = sum(ws.kd[j] * R[j] for j in range(ws.d))
    with np.errstate(divide="ignore", invalid="ignore"):
        pi_hat = np.where(ws.k2 > 0, -1j * kdotR / np.where(ws.k2 > 0, ws.k2, 1.0), 0.0)
    return SpectralField(ws.grid, pi_hat)


def solution_diagnostics(prob: StokesProblem, u: VelocityField) -> dict:
    """Norms and energy bookkeeping for one solved velocity."""
    ws = _Workspace([prob])
    c = u.coeff_stack()[None]
    state = ws._eval_state(c)
    dissipation, work, residual = ws.energy_balance(c, state)
    return {
        "du_beta": float(ws.strain_norm(state, prob.params.beta)[0]),
        "dissipation": float(dissipation[0]),
        "work": float(work[0]),
        "energy_residual": float(residual[0]),
    }
