"""Inverse Stokes map tests: energy functional, gradient, minimization,
penalization, and the variational diagnostics built on top of them."""

import math

import numpy as np
import pytest

from nnstokes import (
    DegenerateViscosity,
    FluidParams,
    GridField,
    MaxIterations,
    SpectralField,
    StokesProblem,
    TorusGrid,
    VelocityField,
    apriori_check,
    bounded_power_law,
    constant_law,
    energy_balance_residual,
    functional_gradient,
    functional_value,
    leray_project,
    minty_sweep,
    monotonicity_gap,
    monotonicity_gap_with_scale,
    monotonicity_gaps,
    pairing_l2,
    power_law,
    recover_pressure,
    solution_diagnostics,
    solve_stokes,
    solve_stokes_batch,
    solve_stokes_penalized,
    to_grid,
    to_spectral,
)
from nnstokes import partial_derivative, run_battery, stokes, strain_tensor
from nnstokes.fields import (
    random_band_field,
    random_velocities,
    random_velocity,
    sine1_field,
    sines2_field,
)
from nnstokes.rheology import _power_factor
from nnstokes.simulator import velocity_l2_distance, velocity_l2_norm
from nnstokes.spectral import deriv_vectors, fine_size, k_squared, pad_coeffs, project_div_free

TWO_PI = 2.0 * math.pi


def zero_velocity(grid):
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    return VelocityField((zero,) * grid.d, check=False)


def shear_velocity(grid, amplitude):
    """u = (0, amplitude * sin x1), divergence-free by construction."""
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    f = to_spectral(GridField(grid, amplitude * np.sin(grid.coordinate(0))))
    return VelocityField((zero, f), check=False)


def newtonian_problem(grid, delta=0.0):
    rho = GridField(grid, np.sin(grid.coordinate(0)))
    params = FluidParams(p=2.0, q=1.5, delta=delta)
    return StokesProblem(rho=rho, params=params, law=constant_law(1.0))


class TestFunctionalValue:
    def test_zero_velocity(self, grid2d):
        prob = newtonian_problem(grid2d)
        assert functional_value(prob, zero_velocity(grid2d)) == 0.0

    def test_constant_density_drops_work_term(self, grid2d):
        """With constant rho the zero-mean work integral vanishes."""
        rho = GridField(grid2d, np.full(grid2d.shape, 2.0))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u = shear_velocity(grid2d, -1.0)
        value = functional_value(prob, u)
        # dissipation of (0, -sin x1): (1/2) int |Du|^2 = pi^2 / 2
        assert value == pytest.approx(math.pi**2 / 2.0, rel=1e-12)

    def test_pinned_newtonian_value(self, grid2d):
        """A((0, -sin x1)) for rho = sin x1, g = (0,-1) is -3 pi^2 / 2."""
        prob = newtonian_problem(grid2d)
        u = shear_velocity(grid2d, -1.0)
        expected = math.pi**2 / 2.0 - 2.0 * math.pi**2
        assert functional_value(prob, u) == pytest.approx(expected, rel=1e-12)

    def test_minimizer_value(self, grid2d):
        prob = newtonian_problem(grid2d)
        u = shear_velocity(grid2d, -2.0)
        assert functional_value(prob, u) == pytest.approx(-2.0 * math.pi**2, rel=1e-12)

    def test_quadrature_oracle_cubic(self, grid2d):
        """p = 3 dissipation of the shear matches the analytic integral."""
        rho = GridField(grid2d, np.full(grid2d.shape, 1.0))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        u = shear_velocity(grid2d, 1.0)
        # |Du| = |cos x1| / sqrt(2); (1/3) int |Du|^3 = (2 pi / 3) (1/2)^{3/2} int |cos|^3
        expected = (TWO_PI / 3.0) * (0.5**1.5) * (8.0 / 3.0)
        # rectangle-rule error for the non-polynomial |cos|^3 integrand
        assert functional_value(prob, u) == pytest.approx(expected, rel=1e-4)


class TestFunctionalGradient:
    def test_rejects_singular_case(self, grid2d):
        rho = GridField(grid2d, np.ones(grid2d.shape))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=1.5, q=1.5), law=constant_law(1.0)
        )
        with pytest.raises(ValueError, match="singular"):
            functional_gradient(prob, zero_velocity(grid2d))

    def test_constant_density_zero_at_origin(self, grid2d):
        rho = GridField(grid2d, np.full(grid2d.shape, 3.0))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        g = functional_gradient(prob, zero_velocity(grid2d))
        assert velocity_l2_norm(g) < 1e-14

    def test_stationary_at_newtonian_solution(self, grid2d):
        prob = newtonian_problem(grid2d)
        g = functional_gradient(prob, shear_velocity(grid2d, -2.0))
        assert velocity_l2_norm(g) < 1e-10

    @pytest.mark.parametrize("p,delta", [(2.0, 0.0), (3.0, 0.0), (1.5, 1e-2), (2.5, 1e-3)])
    def test_matches_central_differences(self, p, delta):
        grid = TorusGrid(2, 16)
        rho = random_band_field(grid, seed=41, kmax=3, amplitude=0.4, offset=1.2)
        prob = StokesProblem(
            rho=rho,
            params=FluidParams(p=p, q=1.5, delta=delta),
            law=constant_law(1.0),
        )
        u = random_velocity(grid, seed=42, kmax=3, amplitude=0.5)
        w = random_velocity(grid, seed=43, kmax=3, amplitude=1.0)
        g = functional_gradient(prob, u)
        directional = pairing_l2(g, w)
        eps = 1e-5
        plus = VelocityField(
            tuple(
                SpectralField(grid, cu.coeffs + eps * cw.coeffs)
                for cu, cw in zip(u.components, w.components)
            ),
            check=False,
        )
        minus = VelocityField(
            tuple(
                SpectralField(grid, cu.coeffs - eps * cw.coeffs)
                for cu, cw in zip(u.components, w.components)
            ),
            check=False,
        )
        fd = (functional_value(prob, plus) - functional_value(prob, minus)) / (2 * eps)
        assert directional == pytest.approx(fd, rel=1e-6)


class TestSolveStokes:
    def test_constant_density_gives_rest(self, grid2d):
        rho = GridField(grid2d, np.ones(grid2d.shape))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u, report = solve_stokes(prob)
        assert report.converged
        assert velocity_l2_norm(u) < 1e-12

    def test_newtonian_oracle(self):
        """Closed-form solution (0, -2 sin x1) recovered to 1e-8."""
        grid = TorusGrid(2, 64)
        prob = newtonian_problem(grid)
        u, report = solve_stokes(prob, strict=True)
        exact = shear_velocity(grid, -2.0)
        rel = velocity_l2_distance(u, exact) / velocity_l2_norm(exact)
        assert report.converged
        assert rel <= 1e-8

    def test_shear_oracle_p3(self):
        """p = 3 shear flow against the first integral of the 1D profile.

        For rho = sin x1, g = (0,-1) the solution is a pure shear
        u = (0, v(x1)) whose strain satisfies |v'| v' = -2 sqrt(2) cos x1,
        giving v' in closed form up to a sign. The discretization error is
        algebraic because v has a |cos|^{1/2} cusp; 64^2 lands near 6e-4.
        """
        grid = TorusGrid(2, 64)
        rho = GridField(grid, np.sin(grid.coordinate(0)))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        u, report = solve_stokes(prob, strict=True)
        m = 1 << 14
        xs = TWO_PI * np.arange(m) / m
        vp = -np.sign(np.cos(xs)) * 2.0**0.75 * np.sqrt(np.abs(np.cos(xs)))
        v = np.cumsum(vp) * (TWO_PI / m)
        v -= v.mean()
        v_ref = np.interp(grid.axis_coordinates(), xs, v)
        vals = u.grid_values()
        err = np.sqrt(np.mean((vals[1][:, 0] - v_ref) ** 2))
        err /= np.sqrt(np.mean(v_ref**2))
        assert np.abs(vals[0]).max() < 1e-10
        assert err <= 2e-3

    def test_delta_ladder_reported(self, grid2d):
        rho = random_band_field(grid2d, seed=3, kmax=3, amplitude=0.4, offset=1.2)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=1.5, q=1.5), law=constant_law(1.0)
        )
        u, report = solve_stokes(prob, strict=True)
        assert report.delta_schedule == (1e-4,)
        assert report.converged

    def test_explicit_delta_skips_ladder(self, grid2d):
        rho = random_band_field(grid2d, seed=3, kmax=3, amplitude=0.4, offset=1.2)
        prob = StokesProblem(
            rho=rho,
            params=FluidParams(p=1.5, q=1.5, delta=1e-2),
            law=constant_law(1.0),
        )
        u, report = solve_stokes(prob, strict=True)
        assert report.delta_schedule == (1e-2,)

    def test_descent_along_iterates(self, grid2d):
        """The energy is nonincreasing over accepted iterations."""
        rho = random_band_field(grid2d, seed=8, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        values = []
        solve_stokes(prob, callback=lambda it, f, g: values.append(f), strict=True)
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-13 * (1.0 + abs(a))

    def test_max_iterations_strict(self, grid2d):
        rho = random_band_field(grid2d, seed=9, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        with pytest.raises(MaxIterations) as excinfo:
            solve_stokes(prob, max_iter=1, strict=True)
        assert excinfo.value.report is not None
        assert not excinfo.value.report.converged

    def test_max_iterations_loose_returns_partial(self, grid2d):
        rho = random_band_field(grid2d, seed=9, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        u, report = solve_stokes(prob, max_iter=1, strict=False)
        assert not report.converged
        assert report.iterations <= 1

    def test_degenerate_viscosity_rejected(self, grid2d):
        rho = GridField(grid2d, np.zeros(grid2d.shape))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5, gamma=1.0), law=power_law(1.0, 1.0)
        )
        with pytest.raises(DegenerateViscosity):
            solve_stokes(prob)

    def test_degenerate_viscosity_penalized_fallback(self, grid2d):
        rho = GridField(grid2d, np.zeros(grid2d.shape))
        prob = StokesProblem(
            rho=rho,
            params=FluidParams(p=2.0, q=1.5, gamma=1.0),
            law=power_law(1.0, 1.0),
            penalty=(100.0, 3),
        )
        u, report = solve_stokes_penalized(prob, strict=True)
        assert report.converged
        assert velocity_l2_norm(u) < 1e-12

    def test_uniqueness_probe(self):
        """Independent random starts reach the same minimizer."""
        grid = TorusGrid(2, 32)
        for seed, p in ((0, 2.5), (1, 3.0)):
            rho = random_band_field(grid, seed=50 + seed, kmax=5, amplitude=0.5, offset=1.5)
            prob = StokesProblem(
                rho=rho, params=FluidParams(p=p, q=1.5), law=constant_law(1.0)
            )
            u1, _ = solve_stokes(prob, u0=random_velocity(grid, seed=60 + seed, kmax=6), strict=True)
            u2, _ = solve_stokes(prob, u0=random_velocity(grid, seed=70 + seed, kmax=6), strict=True)
            rel = velocity_l2_distance(u1, u2) / velocity_l2_norm(u1)
            assert rel <= 1e-6


BATCH_LAWS = (constant_law(1.0), bounded_power_law(1.0, 0.5, 10.0), constant_law(2.0))


def batch_problems(p, laws=BATCH_LAWS, n=16, **params):
    """One n = 16 problem per law, each on its own random density."""
    grid = TorusGrid(2, n)
    return [
        StokesProblem(
            random_band_field(grid, seed=20 + s, kmax=4, amplitude=0.5, offset=1.2),
            FluidParams(p=p, q=1.5, **params),
            law,
        )
        for s, law in enumerate(laws)
    ]


def assert_same_solves(batch, solos):
    """Velocities and reports equal bit for bit, member by member."""
    assert len(batch) == len(solos)
    for (u, report), (u_solo, report_solo) in zip(batch, solos):
        assert np.array_equal(u.coeff_stack(), u_solo.coeff_stack())
        assert report == report_solo


class TestSolveStokesBatch:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_batch_equals_batches_of_one(self, p):
        probs = batch_problems(p)
        assert_same_solves(solve_stokes_batch(probs), [solve_stokes(prob) for prob in probs])

    # (iterations, evaluations) of each member solved alone by the scalar
    # minimizer that the batched one replaced; p = 1.5 re-recorded when its
    # delta = 1e-1 ... 1e-4 continuation ladder became the single delta = 1e-4 solve
    SEQUENTIAL_COUNTS = {
        1.5: [(28, 29), (30, 31), (49, 50)],
        2.0: [(0, 1), (6, 7), (1, 2)],
        3.0: [(17, 19), (16, 18), (17, 18)],
        4.0: [(26, 30), (25, 29), (26, 29)],
    }

    @pytest.mark.parametrize("p", sorted(SEQUENTIAL_COUNTS))
    def test_counts_match_sequential_solver(self, p):
        reports = [report for _, report in solve_stokes_batch(batch_problems(p))]
        assert [(r.iterations, r.n_evals) for r in reports] == self.SEQUENTIAL_COUNTS[p]
        assert all(r.converged and r.stop_reason == "converged" for r in reports)

    def test_member_converged_at_start_freezes(self):
        """For p = 2 and unit viscosity the cold start is the minimizer: that
        member stops at iteration 0 while the others iterate."""
        probs = batch_problems(2.0)
        batch = solve_stokes_batch(probs)
        assert batch[0][1].iterations == 0 and batch[0][1].converged
        assert all(report.iterations > 0 for _, report in batch[1:])
        assert_same_solves(batch, [solve_stokes(prob) for prob in probs])

    def test_iteration_limit_per_member(self):
        probs = batch_problems(3.0)
        batch = solve_stokes_batch(probs, max_iter=1)
        for _, report in batch:
            assert not report.converged
            assert report.iterations == 1
            assert report.stop_reason == "iteration limit"
        with pytest.raises(MaxIterations, match="member 0") as excinfo:
            solve_stokes_batch(probs, max_iter=1, strict=True)
        assert excinfo.value.report == batch[0][1]

    def test_members_may_differ_in_law_parameters(self):
        """Members share p, delta and g but not sigma, gamma, nu_max or the
        law, as in the energy battery."""
        grid = TorusGrid(2, 16)
        probs = [
            StokesProblem(random_band_field(grid, seed=30, kmax=4, amplitude=0.5, offset=1.5),
                          FluidParams(p=1.5, q=1.5), constant_law(1.0)),
            StokesProblem(random_band_field(grid, seed=31, kmax=4, amplitude=0.5, offset=1.5),
                          FluidParams(p=1.5, q=1.5, sigma=2.0, gamma=0.5, nu_max=10.0),
                          bounded_power_law(1.0, 0.5, 10.0)),
        ]
        assert_same_solves(solve_stokes_batch(probs), [solve_stokes(prob) for prob in probs])

    def test_energy_battery_verdict_unchanged(self):
        assert run_battery("energy", seed=0).checks == [
            (True, "all 20 solves converged"),
            (True, "worst relative energy residual 1.91e-10 <= 1e-6"),
        ]

    def test_shared_and_per_member_warm_starts(self):
        probs = batch_problems(3.0)
        grid = probs[0].rho.grid
        u0 = random_velocity(grid, seed=5, kmax=4)
        shared = solve_stokes_batch(probs, u0=u0)
        assert_same_solves(shared, solve_stokes_batch(probs, u0=[u0] * len(probs)))
        starts = [random_velocity(grid, seed=6 + i, kmax=4) for i in range(len(probs))]
        assert_same_solves(solve_stokes_batch(probs, u0=starts),
                           [solve_stokes(prob, u0=v) for prob, v in zip(probs, starts)])
        with pytest.raises(ValueError, match="u0"):
            solve_stokes_batch(probs, u0=starts[:2])

    @pytest.mark.parametrize("other", [
        batch_problems(4.0)[0],
        batch_problems(3.0, n=32)[0],
        batch_problems(3.0, delta=1e-3)[0],
        batch_problems(3.0, g=(1.0, 0.0))[0],
    ], ids=["p", "grid", "delta", "g"])
    def test_members_must_share_parameters(self, other):
        with pytest.raises(ValueError, match="must share"):
            solve_stokes_batch(batch_problems(3.0)[:2] + [other])

    def test_mismatched_penalty_rejected(self):
        probs = batch_problems(3.0)
        penalized = StokesProblem(probs[1].rho, probs[1].params, probs[1].law, penalty=(100.0, 3))
        with pytest.raises(ValueError, match="must share"):
            solve_stokes_batch([probs[0], penalized])

    def test_empty_batch(self):
        assert solve_stokes_batch([]) == []

    def test_non_finite_member_stops_at_once(self):
        """A constant density of 1e308 overflows the transform: that member
        stops after its first evaluation with a stated reason, and the
        others solve as they would alone."""
        probs = batch_problems(3.0)
        grid = probs[0].rho.grid
        huge = StokesProblem(GridField(grid, np.full(grid.shape, 1e308)), probs[0].params,
                             constant_law(1.0))
        with np.errstate(all="ignore"):
            batch = solve_stokes_batch(probs[:1] + [huge] + probs[1:])
            _, report = solve_stokes(huge)
        assert report.n_evals == 1 and report.iterations == 0
        assert not report.converged
        assert report.stop_reason == "non-finite energy or gradient"
        assert batch[1][1].n_evals == 1
        assert batch[1][1].stop_reason == report.stop_reason
        assert_same_solves(batch[:1] + batch[2:], [solve_stokes(prob) for prob in probs])

    def test_failed_line_search_retries_then_stops(self, monkeypatch):
        """A curvature of 1e-300 sends the viscosity-2 member's trial points
        to overflow: 40 halvings fail, the steepest-descent retry
        re-evaluates the stale point and fails 40 more, and the member stops
        after 82 evaluations while the others solve as they would alone."""
        curvature_along = stokes._Workspace.curvature_along

        def patched(ws, state, w, sel=slice(None)):
            curv = curvature_along(ws, state, w, sel)
            flagged = ws.nu_fine[sel].reshape(len(curv), -1)[:, 0] == 2.0
            return np.where(flagged, 1e-300, curv)

        monkeypatch.setattr(stokes._Workspace, "curvature_along", patched)
        probs = batch_problems(3.0)
        with np.errstate(all="ignore"):
            batch = solve_stokes_batch(probs)
            solos = [solve_stokes(prob) for prob in probs]
        assert_same_solves(batch, solos)
        report = batch[2][1]
        assert (report.iterations, report.n_evals) == (0, 82)
        assert report.stop_reason == "line search failed"
        assert all(r.converged for _, r in batch[:2])

    def test_reports_describe_the_returned_velocities(self, monkeypatch):
        """Each report's value and energy residual are those of the velocity
        returned, also for the member whose last evaluation was a rejected
        trial point of a failed line search."""
        curvature_along = stokes._Workspace.curvature_along

        def patched(ws, state, w, sel=slice(None)):
            curv = curvature_along(ws, state, w, sel)
            flagged = ws.nu_fine[sel].reshape(len(curv), -1)[:, 0] == 2.0
            return np.where(flagged, 1e-300, curv)

        monkeypatch.setattr(stokes._Workspace, "curvature_along", patched)
        probs = batch_problems(3.0)
        with np.errstate(all="ignore"):
            batch = solve_stokes_batch(probs)
        assert batch[2][1].stop_reason == "line search failed"
        for prob, (u, report) in zip(probs, batch):
            assert report.value == pytest.approx(functional_value(prob, u), rel=1e-13)
            assert report.energy_residual == pytest.approx(energy_balance_residual(prob, u),
                                                           rel=1e-6, abs=1e-15)

    def test_callback_names_members(self):
        probs = batch_problems(3.0)
        seen = []
        batch = solve_stokes_batch(probs, callback=lambda i, it, f, g: seen.append((i, it)))
        for i, (_, report) in enumerate(batch):
            assert [it for j, it in seen if j == i] == list(range(report.iterations + 1))


def path_problem(p, law=constant_law(1.0), penalty=None, **params):
    grid = TorusGrid(2, 32)
    rho = random_band_field(grid, seed=7, kmax=6, amplitude=0.5, offset=1.5)
    return StokesProblem(rho, FluidParams(p=p, q=1.5, **params), law, penalty=penalty)


def problem3d(grid, p, delta=0.0, law=constant_law(1.0)):
    rho = random_band_field(grid, seed=31, kmax=3, amplitude=0.4, offset=1.2)
    return StokesProblem(rho, FluidParams(p=p, q=1.5, d=3, delta=delta), law)


class TestSolve3D:
    """The energy, its gradient and the solver on the n = 8 lattice in 3D."""

    @pytest.mark.parametrize("p,delta", [(3.0, 0.0), (1.5, 0.1)])
    def test_gradient_matches_central_differences(self, grid3d, p, delta):
        prob = problem3d(grid3d, p, delta)
        u = random_velocity(grid3d, seed=32, kmax=3, amplitude=0.5)
        w = random_velocity(grid3d, seed=33, kmax=3, amplitude=1.0)
        directional = pairing_l2(functional_gradient(prob, u), w)
        eps = 1e-5

        def shifted(s):
            return VelocityField(tuple(SpectralField(grid3d, cu.coeffs + s * cw.coeffs)
                                       for cu, cw in zip(u.components, w.components)), check=False)

        fd = (functional_value(prob, shifted(eps)) - functional_value(prob, shifted(-eps))) / (2 * eps)
        assert directional == pytest.approx(fd, rel=1e-6)

    def test_newtonian_solve_is_the_start(self, grid3d):
        prob = problem3d(grid3d, 2.0)
        u, report = solve_stokes(prob, strict=True)
        rho_hat = to_spectral(prob.rho).coeffs
        start = stokes.newtonian_start(np.multiply.outer(prob.params.g, rho_hat), grid3d, None)
        assert report.iterations == 0
        assert np.abs(u.coeff_stack() - start).max() <= 1e-12 * np.abs(start).max()

    def test_p3_solve_converges(self, grid3d):
        prob = problem3d(grid3d, 3.0)
        u, report = solve_stokes(prob, strict=True)
        assert report.iterations > 0
        assert report.energy_residual <= 1e-8
        assert energy_balance_residual(prob, u) <= 1e-8
        assert report.value == pytest.approx(functional_value(prob, u), rel=1e-12)


@pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
class TestStrainContraction:
    """The workspace carries fewer strain entries than the full tensor; its
    contractions must equal those of the full d x d tensor, each entry padded
    on its own, for divergence-free fields."""

    def full_strain(self, engine, c):
        kd = deriv_vectors(TorusGrid(engine.d, engine.n))
        return np.array([[engine.to_fine(0.5j * (kd[i] * c[j] + kd[j] * c[i]))
                          for j in range(engine.d)] for i in range(engine.d)])

    def test_contractions_match_full_tensor(self, d, n):
        grid = TorusGrid(d, n)
        rho = random_band_field(grid, seed=5, kmax=3, amplitude=0.4, offset=1.2)
        ws = stokes._Workspace([StokesProblem(rho, FluidParams(p=3.0, q=1.5, d=d), constant_law(1.0))])
        a, b = (v.coeff_stack() for v in random_velocities(grid, [6, 7], kmax=n // 2))
        A, B = self.full_strain(ws.engine, a), self.full_strain(ws.engine, b)
        S = ws._strain_fine(np.stack([a, b]))
        for got, ref in ((ws._eval_state(a[None]).mag2[0], np.einsum("ij...,ij...->...", A, A)),
                         (ws._contract(S[:1], S[1:])[0], np.einsum("ij...,ij...->...", A, B))):
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestSolverPaths:
    """Counts, gradient norm and stop reason on the n = 32 solver paths that
    SEQUENTIAL_COUNTS does not reach: an explicit delta, the penalty, the
    singular case with a bounded law, a warm start, and an iteration
    limit hit among rejected trials."""

    # case: (problem and solve_stokes arguments, (iterations, evaluations, grad_norm, stop_reason))
    CASES = {
        "p1.5_delta": (lambda: (path_problem(1.5, delta=1e-2), {}),
                       (15, 16, 2.5340219890365896e-09, "converged")),
        "p3_penalty": (lambda: (path_problem(3.0, penalty=(100.0, 3)), {}),
                       (20, 21, 6.416106478382536e-09, "converged")),
        "p1.5_singular_bounded": (lambda: (path_problem(1.5, bounded_power_law(1.0, 0.5, 10.0),
                                                        sigma=2.0, gamma=0.5, nu_max=10.0), {}),
                                  (46, 47, 7.690713648519854e-09, "converged")),
        "p4_warm": (lambda: (path_problem(4.0),
                             {"u0": random_velocity(TorusGrid(2, 32), seed=3, kmax=4)}),
                    (39, 41, 1.2683882578774589e-08, "converged")),
        "p4_max_iter": (lambda: (path_problem(4.0), {"max_iter": 3}),
                        (3, 7, 0.27144352197340454, "iteration limit")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pinned_path(self, case):
        make, (iterations, n_evals, grad_norm, reason) = self.CASES[case]
        prob, kwargs = make()
        _, report = solve_stokes(prob, **kwargs)
        assert (report.iterations, report.n_evals) == (iterations, n_evals)
        assert report.grad_norm == pytest.approx(grad_norm, rel=1e-12)
        assert report.stop_reason == reason


class TestSingularSolve:
    """1 < p < 2 at delta = 0 minimizes the delta = 1e-4 energy once, from
    the same start as the explicit delta = 1e-4 solve."""

    @pytest.mark.parametrize("law, params", [
        (constant_law(1.0), {}),
        (bounded_power_law(1.0, 0.5, 10.0), {"sigma": 2.0, "gamma": 0.5, "nu_max": 10.0}),
    ], ids=["constant", "bounded"])
    def test_equals_explicit_regularized_solve(self, law, params):
        prob = path_problem(1.5, law, **params)
        u, report = solve_stokes(prob)
        u_reg, report_reg = solve_stokes(path_problem(1.5, law, delta=1e-4, **params))
        assert u.coeff_stack().tobytes() == u_reg.coeff_stack().tobytes()
        assert (report.iterations, report.n_evals) == (report_reg.iterations, report_reg.n_evals)
        assert report.grad_norm == report_reg.grad_norm
        assert report.energy_residual == report_reg.energy_residual
        assert report.delta_schedule == report_reg.delta_schedule == (1e-4,)
        assert report.converged and report.stop_reason == "converged"
        # the value is taken at the requested delta = 0
        assert report.value == functional_value(prob, u)


class TestNewtonianStart:
    @staticmethod
    def inline_cold_start(prob):
        """The cold start as solve_stokes_batch first formed it, with the
        multiplier built as _Workspace first built it."""
        grid = prob.rho.grid
        k2 = k_squared(grid)
        vol_factor = TWO_PI ** grid.d
        hess = vol_factor * (0.5 * k2)
        if prob.penalty is not None:
            N, k = prob.penalty
            pen_mult = k2 ** k
            hess = hess + vol_factor * pen_mult / N
        with np.errstate(divide="ignore"):
            precond_mult = np.where(k2 > 0, 1.0 / np.where(k2 > 0, hess, 1.0), 0.0)
        rho_hat = to_spectral(prob.rho).coeffs[None]
        forcing = np.stack([rho_hat * gj for gj in prob.params.g], axis=1)
        return precond_mult, precond_mult * vol_factor * project_div_free(forcing.copy(), grid)

    @pytest.mark.parametrize("penalty", [None, (100.0, 3)], ids=["plain", "penalized"])
    def test_bitwise_equal_to_inline_cold_start(self, grid2d, penalty):
        rho = random_band_field(grid2d, seed=12, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(rho, FluidParams(p=3.0, q=1.5, g=(0.3, -1.0)), constant_law(1.0),
                             penalty=penalty)
        precond_mult, expected = self.inline_cold_start(prob)
        ws = stokes._Workspace([prob])
        assert ws.precond_mult.tobytes() == precond_mult.tobytes()
        got = stokes.newtonian_start(ws.forcing, grid2d, prob.penalty)
        assert got.tobytes() == expected.tobytes()


class TestPenalizedSolve:
    def test_requires_penalty(self, grid2d):
        prob = newtonian_problem(grid2d)
        with pytest.raises(ValueError, match="penalty"):
            solve_stokes_penalized(prob)

    def test_penalty_shape_validation(self, grid2d):
        rho = GridField(grid2d, np.ones(grid2d.shape))
        with pytest.raises(ValueError, match="k"):
            StokesProblem(
                rho=rho,
                params=FluidParams(p=2.0, q=1.5),
                law=constant_law(1.0),
                penalty=(100.0, 1),
            )

    def test_linear_fourier_oracle(self, grid2d):
        """p = 2 penalized solve matches the closed-form mode multiplier."""
        N, k_pen = 100.0, 3
        rho = random_band_field(grid2d, seed=12, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho,
            params=FluidParams(p=2.0, q=1.5),
            law=constant_law(1.0),
            penalty=(N, k_pen),
        )
        u, report = solve_stokes_penalized(prob, strict=True)
        rho_hat = to_spectral(rho).coeffs
        forcing = np.stack([rho_hat * gj for gj in prob.params.g])
        pf = project_div_free(forcing, grid2d)
        k2 = k_squared(grid2d)
        denom = 0.5 * k2 + k2**k_pen / N
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = np.where(denom > 0, pf / np.where(denom > 0, denom, 1.0), 0.0)
        got = u.coeff_stack()
        assert np.abs(got - exact).max() <= 1e-10 * np.abs(exact).max()
        assert report.hk_bound_ratio is not None
        assert np.isfinite(report.hk_bound_ratio)

    def test_constant_density_zero_for_every_n(self, grid2d):
        rho = GridField(grid2d, np.full(grid2d.shape, 1.3))
        for N in (10.0, 1e3, 1e5):
            prob = StokesProblem(
                rho=rho,
                params=FluidParams(p=2.0, q=1.5),
                law=constant_law(1.0),
                penalty=(N, 3),
            )
            u, _ = solve_stokes_penalized(prob, strict=True)
            assert velocity_l2_norm(u) < 1e-12


class TestEnergyBalance:
    def test_zero_velocity_zero_residual(self, grid2d):
        prob = newtonian_problem(grid2d)
        assert energy_balance_residual(prob, zero_velocity(grid2d)) == 0.0

    def test_converged_solution_balances(self, grid2d):
        rho = random_band_field(grid2d, seed=21, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        u, report = solve_stokes(prob, strict=True)
        assert energy_balance_residual(prob, u) <= 1e-6
        assert report.energy_residual <= 1e-6

    def test_random_field_detected(self, grid2d):
        prob = newtonian_problem(grid2d)
        u = random_velocity(grid2d, seed=22, kmax=4, amplitude=1.0)
        assert energy_balance_residual(prob, u) > 0.01

    def test_minimum_value_at_large_delta(self):
        """With delta^2 >> |Du|^2 the energy is quadratic in u, so its minimum
        is -work/2; (delta^2 + |Du|^2)^{p/2} - delta^p cancels to noise there."""
        prob = StokesProblem(
            rho=sines2_field(TorusGrid(2, 8), 1.5, 0.4, 0.3),
            params=FluidParams(p=12.0, q=1.5, delta=100.0),
            law=constant_law(1.0),
        )
        u, report = solve_stokes(prob, strict=True)
        work = solution_diagnostics(prob, u)["work"]
        assert work > 0
        assert report.value == pytest.approx(-0.5 * work, rel=1e-6, abs=0.0)


class TestAprioriCheck:
    def test_rest_state(self, grid2d):
        rho = GridField(grid2d, np.ones(grid2d.shape))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u, _ = solve_stokes(prob)
        lhs, rhs = apriori_check(prob, u)
        assert lhs < 1e-12
        assert np.isfinite(rhs)

    def test_vanishing_density_flags_vacuous_bound(self, grid2d):
        values = np.ones(grid2d.shape)
        values[0, 0] = 0.0
        rho = GridField(grid2d, values)
        prob = StokesProblem(
            rho=rho,
            params=FluidParams(p=2.0, q=1.5, gamma=1.0, sigma=2.0, nu_max=2.0),
            law=bounded_power_law(1.0, 1.0, 2.0),
        )
        lhs, rhs = apriori_check(prob, zero_velocity(grid2d))
        assert rhs == math.inf

    def test_solution_satisfies_bound_shape(self, grid2d):
        rho = random_band_field(grid2d, seed=31, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u, _ = solve_stokes(prob, strict=True)
        lhs, rhs = apriori_check(prob, u)
        assert 0 < lhs
        assert np.isfinite(rhs)

    def test_quadratic_norm_matches_coarse_rectangle_rule(self, grid2d):
        """At beta = 2, |Du|^2 is a trigonometric polynomial that the fine
        and the coarse grid both integrate exactly."""
        rho = random_band_field(grid2d, seed=32, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u = random_velocity(grid2d, seed=33, kmax=12)
        lhs, _ = apriori_check(prob, u)
        S = strain_tensor(u)
        coarse = math.sqrt(grid2d.h ** 2 * float(np.sum(S * S)))
        assert abs(lhs - coarse) <= 1e-13 * coarse


class TestMonotonicity:
    def test_gap_zero_at_solution(self, grid2d):
        rho = random_band_field(grid2d, seed=33, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        u, _ = solve_stokes(prob, strict=True)
        assert abs(monotonicity_gap(prob, u, u)) < 1e-12

    def test_newtonian_quadratic_identity(self, grid2d):
        """For p = 2 the gap equals the weighted strain distance squared."""
        rho = random_band_field(grid2d, seed=34, kmax=4, amplitude=0.4, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(2.0)
        )
        u = random_velocity(grid2d, seed=35, kmax=4, amplitude=0.8)
        phi = random_velocity(grid2d, seed=36, kmax=4, amplitude=0.8)
        gap = monotonicity_gap(prob, u, phi)
        from nnstokes import strain_tensor

        diff = strain_tensor(u) - strain_tensor(phi)
        h2 = grid2d.h**2
        direct = 2.0 * float(np.sum(diff * diff)) * h2
        assert gap == pytest.approx(direct, rel=1e-10)

    def test_random_pairs_nonnegative(self):
        grid = TorusGrid(2, 16)
        gen = np.random.default_rng(77)
        for trial in range(40):
            p = [1.5, 2.0, 3.0, 4.0][trial % 4]
            rho = random_band_field(
                grid, seed=int(gen.integers(1 << 30)), kmax=4, amplitude=0.5, offset=1.5
            )
            prob = StokesProblem(
                rho=rho, params=FluidParams(p=p, q=1.5), law=constant_law(1.0)
            )
            u = random_velocity(grid, seed=int(gen.integers(1 << 30)), kmax=4)
            phi = random_velocity(grid, seed=int(gen.integers(1 << 30)), kmax=4)
            gap, scale = monotonicity_gap_with_scale(prob, u, phi)
            assert gap >= -1e-10 * scale


def fine_values(coeffs, m):
    """Real values on the m-grid of normalized coarse coefficients."""
    return np.fft.ifftn(pad_coeffs(coeffs, m)).real * m ** coeffs.ndim


def loop_gap_with_scale(prob, u, phi):
    """Reference: the four terms of the gap for one test field on the 3/2
    grid, each a contraction of full strain tensors padded with pad_coeffs."""
    params, grid = prob.params, prob.rho.grid
    m = fine_size(grid.n)
    hfd = (TWO_PI / m) ** grid.d
    nu = prob.law(fine_values(to_spectral(prob.rho).coeffs, m))

    def strain_of(v):
        return np.array([[fine_values(0.5 * (partial_derivative(v.components[j], i).coeffs
                                             + partial_derivative(v.components[i], j).coeffs), m)
                          for j in range(grid.d)] for i in range(grid.d)])

    def stress_of(S):
        mag2 = np.einsum("ij...,ij...->...", S, S)
        return _power_factor(mag2, params.p, params.delta)[None, None] * S

    def pair(A, B):
        return float(hfd * np.sum(nu * np.einsum("ij...,ij...->...", A, B)))

    Su, Sp = strain_of(u), strain_of(phi)
    Au, Ap = stress_of(Su), stress_of(Sp)
    t1, t2, t3, t4 = pair(Au, Su), pair(Au, Sp), pair(Ap, Su), pair(Ap, Sp)
    return t1 - t2 - t3 + t4, abs(t1) + abs(t2) + abs(t3) + abs(t4)


class TestMonotonicityGaps:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("law", [constant_law(1.0), bounded_power_law(1.0, 0.5, 10.0)])
    def test_batch_equals_scalar_loop(self, p, delta, law):
        grid = TorusGrid(2, 16)
        rho = random_band_field(grid, seed=11, kmax=4, amplitude=0.5, offset=1.2)
        prob = StokesProblem(rho, FluidParams(p=p, q=1.5, delta=delta), law)
        u = random_velocity(grid, seed=12, kmax=4, amplitude=0.5)
        phis = random_velocities(grid, range(13, 18), kmax=4, amplitude=0.5) + [u]
        gaps, scales = monotonicity_gaps(prob, u, phis)
        assert gaps.shape == scales.shape == (len(phis),)
        expected = np.array([loop_gap_with_scale(prob, u, phi) for phi in phis])
        assert np.all(np.abs(gaps - expected[:, 0]) <= 1e-13 * expected[:, 1])
        assert np.all(np.abs(scales - expected[:, 1]) <= 1e-13 * expected[:, 1])
        assert gaps[-1] == 0.0
        scalar = np.array([monotonicity_gap_with_scale(prob, u, phi) for phi in phis])
        assert np.array_equal(scalar, np.stack([gaps, scales], axis=1))
        assert [monotonicity_gap(prob, u, phi) for phi in phis] == list(gaps)

    def test_battery_verdict_unchanged(self):
        checks = run_battery("monotonicity", seed=0).checks
        assert checks[1] == (True, "smallest gap/scale over 1000 pairs is 4.76e-01 >= -1e-10")


class TestMintySweep:
    def test_constant_sequence_pairs_to_zero(self, grid2d):
        rho = random_band_field(grid2d, seed=44, kmax=3, amplitude=0.4, offset=1.5)
        params = FluidParams(p=2.0, q=1.5)
        tests = [random_velocity(grid2d, seed=45 + i, kmax=3) for i in range(3)]
        out = minty_sweep([rho] * 4, rho, tests, params, constant_law(1.0))
        assert np.abs(out["pairings"]).max() < 1e-8

    def test_newtonian_linear_decay(self, grid2d):
        """For p = 2 the map is linear, so pairings are exactly
        <Psi(bump), phi>/m: each step m -> 4m divides them by 4."""
        base = random_band_field(grid2d, seed=46, kmax=3, amplitude=0.4, offset=1.5)
        bump = random_band_field(grid2d, seed=47, kmax=3, amplitude=0.3)
        seq = [
            GridField(grid2d, base.values + bump.values / m) for m in (1, 4, 16, 64)
        ]
        tests = [random_velocity(grid2d, seed=48 + i, kmax=3) for i in range(3)]
        out = minty_sweep(seq, base, tests, FluidParams(p=2.0, q=1.5), constant_law(1.0))
        pairings = np.abs(np.asarray(out["pairings"]))
        ratios = pairings[1:] / pairings[:-1]
        np.testing.assert_allclose(ratios, 0.25, rtol=1e-6, atol=0)


class TestRecoverPressure:
    def test_constant_density_zero_pressure(self, grid2d):
        rho = GridField(grid2d, np.full(grid2d.shape, 2.0))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u, _ = solve_stokes(prob)
        pi = recover_pressure(prob, u)
        assert np.abs(pi.coeffs).max() < 1e-12

    def test_stratified_cosine_pressure(self, grid2d):
        """rho = sin x2 with vertical gravity is hydrostatic: pi = cos x2."""
        rho = GridField(grid2d, np.sin(grid2d.coordinate(1)))
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u, _ = solve_stokes(prob, strict=True)
        assert velocity_l2_norm(u) < 1e-10
        pi = to_grid(recover_pressure(prob, u))
        assert np.allclose(pi.values, np.cos(grid2d.coordinate(1)), atol=1e-10)

    def test_newtonian_case_zero_pressure(self, grid2d):
        """The sin x1 forcing is fully solenoidal, so pi vanishes."""
        prob = newtonian_problem(grid2d)
        u, _ = solve_stokes(prob, strict=True)
        pi = recover_pressure(prob, u)
        assert np.abs(pi.coeffs).max() < 1e-9

    def test_zero_mean_always(self, grid2d):
        rho = random_band_field(grid2d, seed=55, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=3.0, q=1.5), law=constant_law(1.0)
        )
        u, _ = solve_stokes(prob, strict=True)
        pi = recover_pressure(prob, u)
        assert abs(pi.coeffs.flat[0]) < 1e-14


class TestSolutionDiagnostics:
    def test_keys_and_coherence(self, grid2d):
        rho = random_band_field(grid2d, seed=66, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        u, _ = solve_stokes(prob, strict=True)
        diag = solution_diagnostics(prob, u)
        assert set(diag) == {"du_beta", "dissipation", "work", "energy_residual"}
        assert diag["dissipation"] == pytest.approx(diag["work"], rel=1e-5)
        assert diag["du_beta"] > 0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_du_beta_is_apriori_lhs(self, grid2d, p):
        rho = random_band_field(grid2d, seed=67, kmax=4, amplitude=0.5, offset=1.5)
        prob = StokesProblem(
            rho=rho,
            params=FluidParams(p=p, q=1.5, gamma=0.5, sigma=2.0, nu_max=10.0),
            law=bounded_power_law(1.0, 0.5, 10.0),
        )
        u = random_velocity(grid2d, seed=68, kmax=4)
        assert solution_diagnostics(prob, u)["du_beta"] == apriori_check(prob, u)[0]
