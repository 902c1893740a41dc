"""Advection schemes, renormalization maps, and the commutator diagnostic."""

import math

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from nnstokes import (
    AdvectionScheme,
    CflViolation,
    FluidParams,
    GridField,
    SpectralField,
    TorusGrid,
    UnresolvableMollifier,
    VelocityField,
    advect_step,
    atan_scaled,
    commutator_residual,
    custom_eta,
    evolve,
    lebesgue_norm,
    renormalize,
    smooth_clamp,
    speed_sup,
)
from nnstokes import spectral, transport
from nnstokes.fields import random_band_field, random_velocity, sines2_field
from nnstokes.spectral import (_lattice, dealiaser, fine_size, irfft_values, restrict_coeffs, rfft_coeffs,
                               to_grid, to_spectral)
from nnstokes.transport import _cfl_cap, _substep_count

TWO_PI = 2.0 * math.pi


def shear_velocity(grid):
    """u = (sin x2, 0)."""
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    from nnstokes import leray_project, to_spectral

    f = to_spectral(GridField(grid, np.sin(grid.coordinate(1))))
    return leray_project([f, zero])


def negate(u):
    return VelocityField(
        tuple(SpectralField(c.grid, -c.coeffs) for c in u.components), check=False
    )


def overflowing_sine(grid):
    """u = (0, 3e308 sin x1): finite coefficients whose grid values overflow."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[1, 0], coeffs[-1, 0] = -1.5e308j, 1.5e308j
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    u = VelocityField((zero, SpectralField(grid, coeffs)))
    with np.errstate(over="ignore"):
        u.grid_stack  # kept, so the tests meet no overflow warning
    return u


def zero_velocity(grid):
    zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    return VelocityField((zero,) * grid.d, check=False)


class TestAdvectionScheme:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            AdvectionScheme(kind="upwind")

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            AdvectionScheme(kind="spectral_rk4", dt=0.0)

    def test_rejects_bad_cfl(self):
        with pytest.raises(ValueError, match="cfl"):
            AdvectionScheme(kind="spectral_rk4", cfl_target=1.5)


class TestAdvectStep:
    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    def test_zero_velocity_identity(self, grid2d_fine, kind):
        rho = sines2_field(grid2d_fine, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind=kind, dt=0.05)
        out = advect_step(rho, zero_velocity(grid2d_fine), scheme)
        assert np.allclose(out.values, rho.values, atol=1e-13)

    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    def test_constant_bypass_translation(self, grid2d_fine, kind):
        """A mean drift translates a single mode exactly, to scheme order."""
        rho = GridField(grid2d_fine, np.cos(grid2d_fine.coordinate(0)))
        dt = 0.05
        scheme = AdvectionScheme(kind=kind, dt=dt, cfl_target=0.5)
        out = advect_step(
            rho, zero_velocity(grid2d_fine), scheme, mean_velocity=(1.0, 0.0)
        )
        expected = np.cos(grid2d_fine.coordinate(0) - dt)
        tol = 1e-9 if kind == "spectral_rk4" else 5e-6
        assert np.abs(out.values - expected).max() <= tol

    def test_dt_zero_returns_copy(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.05)
        out = advect_step(rho, shear_velocity(grid2d), scheme, dt=0.0)
        assert np.array_equal(out.values, rho.values)
        assert out is not rho

    def test_negative_dt_rejected(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.05)
        with pytest.raises(ValueError, match="nonnegative"):
            advect_step(rho, shear_velocity(grid2d), scheme, dt=-0.1)

    def test_grid_mismatch_rejected(self, grid2d, grid2d_fine):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.05)
        grids = r"a velocity on TorusGrid\(d=2, n=64\) was given for a density on TorusGrid\(d=2, n=32\)"
        with pytest.raises(ValueError, match=grids):
            advect_step(rho, shear_velocity(grid2d_fine), scheme)

    def test_cfl_violation_on_absurd_speed(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        u = shear_velocity(grid2d)
        fast = VelocityField(
            tuple(SpectralField(c.grid, 1e12 * c.coeffs) for c in u.components),
            check=False,
        )
        scheme = AdvectionScheme(kind="spectral_rk4", dt=10.0, cfl_target=0.5)
        with pytest.raises(CflViolation):
            advect_step(rho, fast, scheme)

    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    def test_mass_conserved(self, grid2d_fine, kind):
        rho = sines2_field(grid2d_fine, offset=1.0, a=0.5, b=0.25)
        u = random_velocity(grid2d_fine, seed=3, kmax=4, amplitude=1.0)
        scheme = AdvectionScheme(kind=kind, dt=0.02, cfl_target=0.5)
        out = advect_step(rho, u, scheme)
        assert out.mean() == pytest.approx(rho.mean(), rel=1e-12, abs=1e-14)

    def test_rk4_fourth_order_against_characteristics(self, grid2d_fine):
        """Halving dt cuts the error by about 2^4 once below the CFL cap.

        The steady shear u = (sin x2, 0) transports cos(x1) along explicit
        characteristics, so the exact solution is available in closed form.
        """
        rho = GridField(grid2d_fine, np.cos(grid2d_fine.coordinate(0)))
        u = shear_velocity(grid2d_fine)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=1.0, cfl_target=1.0)
        T = 0.4
        exact = np.cos(
            grid2d_fine.coordinate(0) - T * np.sin(grid2d_fine.coordinate(1))
        )
        errs = []
        for steps in (16, 32):
            out = rho
            for _ in range(steps):
                out = advect_step(out, u, scheme, dt=T / steps)
            errs.append(np.abs(out.values - exact).max())
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0

    def test_semi_lagrangian_min_max_principle(self, grid2d_fine):
        rho = sines2_field(grid2d_fine, offset=1.0, a=0.5, b=0.25)
        u = random_velocity(grid2d_fine, seed=7, kmax=4, amplitude=1.0)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.02, cfl_target=0.5)
        out = rho
        for _ in range(10):
            out = advect_step(out, u, scheme)
        lo, hi = rho.values.min(), rho.values.max()
        slack = 1e-3 * (hi - lo)
        assert out.values.min() >= lo - slack
        assert out.values.max() <= hi + slack


class TestEvolve:
    def test_zero_velocity_fixed_point(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.1)
        out, times, table = evolve(rho, zero_velocity(grid2d), 1.0, scheme)
        assert times[-1] == pytest.approx(1.0)
        assert np.allclose(out.values, rho.values, atol=1e-12)

    def test_rounding_remainder_is_not_stepped(self, grid2d):
        """A hundred steps of 0.1 sum to 10 - 2e-14; that remainder is below
        advect_step's step floor, and evolve does not step it."""
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.1)
        out, times, _ = evolve(rho, zero_velocity(grid2d), 10.0, scheme)
        assert len(times) == 101
        assert 0.0 < 10.0 - times[-1] < 1e-12
        assert np.allclose(out.values, rho.values, atol=1e-12)

    def test_time_reversal_spectral(self, grid2d_fine):
        rho = sines2_field(grid2d_fine, offset=0.5, a=0.4, b=0.2)
        u = random_velocity(grid2d_fine, seed=5, kmax=4, amplitude=1.0)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.01, cfl_target=0.5)
        fwd, _, _ = evolve(rho, u, 0.2, scheme)
        back, _, _ = evolve(fwd, negate(u), 0.2, scheme)
        rel = lebesgue_norm(
            GridField(grid2d_fine, back.values - rho.values, check=False), 2.0
        ) / lebesgue_norm(rho, 2.0)
        assert rel <= 1e-10

    def test_time_reversal_semi_lagrangian(self, grid2d_fine):
        rho = sines2_field(grid2d_fine, offset=0.5, a=0.4, b=0.2)
        u = random_velocity(grid2d_fine, seed=5, kmax=4, amplitude=1.0)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.01, cfl_target=0.5)
        fwd, _, _ = evolve(rho, u, 0.2, scheme)
        back, _, _ = evolve(fwd, negate(u), 0.2, scheme)
        rel = lebesgue_norm(
            GridField(grid2d_fine, back.values - rho.values, check=False), 2.0
        ) / lebesgue_norm(rho, 2.0)
        assert rel <= 1e-5

    def test_callable_provider_and_observers(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        u = shear_velocity(grid2d)
        calls = []

        def provider(t):
            calls.append(t)
            return u

        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.1)
        out, times, table = evolve(
            rho,
            provider,
            0.3,
            scheme,
            observers=(lambda t, r: r.mean(), lambda t, r: lebesgue_norm(r, 2.0)),
        )
        assert len(times) == len(table)
        assert len(table[0]) == 2
        assert calls
        for row in table:
            assert row[0] == pytest.approx(rho.mean(), abs=1e-12)

    def test_drift_provider_form(self, grid2d):
        """A provider may return (velocity, mean drift) pairs."""
        rho = GridField(grid2d, np.cos(grid2d.coordinate(0)))

        def provider(t):
            return zero_velocity(grid2d), (1.0, 0.0)

        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.05)
        out, _, _ = evolve(rho, provider, 0.5, scheme)
        expected = np.cos(grid2d.coordinate(0) - 0.5)
        assert np.abs(out.values - expected).max() <= 1e-7

    def test_lq_norms_conserved(self, grid2d_fine):
        rho = sines2_field(grid2d_fine, offset=1.0, a=0.5, b=0.25)
        u = random_velocity(grid2d_fine, seed=9, kmax=4, amplitude=1.0)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.02, cfl_target=0.5)
        out, _, _ = evolve(rho, u, 0.5, scheme)
        for q in (1.2, 1.5, 2.0, 4.0):
            drift = abs(lebesgue_norm(out, q) - lebesgue_norm(rho, q))
            assert drift / lebesgue_norm(rho, q) <= 1e-3

    def test_negative_horizon_rejected(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="spectral_rk4", dt=0.1)
        with pytest.raises(ValueError, match="nonnegative"):
            evolve(rho, zero_velocity(grid2d), -1.0, scheme)


class TestSpeedSup:
    def test_shear_speed(self, grid2d):
        assert speed_sup(shear_velocity(grid2d)) == pytest.approx(1.0, rel=1e-10)

    def test_drift_included(self, grid2d):
        assert speed_sup(zero_velocity(grid2d), mean_velocity=(3.0, 4.0)) == pytest.approx(5.0)

    def test_no_overflow_below_the_largest_float(self):
        """Squaring the speeds overflowed for any speed above about 1.3e154."""
        grid = TorusGrid(2, 16)
        u = random_velocity(grid, seed=1, kmax=4, amplitude=1.0)
        fast = random_velocity(grid, seed=1, kmax=4, amplitude=1e160)
        assert speed_sup(fast) == pytest.approx(1e160 * speed_sup(u), rel=1e-12)
        assert speed_sup(zero_velocity(grid), mean_velocity=(3e300, 4e300)) == pytest.approx(5e300)
        assert speed_sup(zero_velocity(grid), mean_velocity=(1.5e308, 1.5e308)) == math.inf

    def test_an_infinite_grid_value_is_an_infinite_speed(self):
        """u = (0, 3e308 sin x1) has finite coefficients, +-1.5e308 i."""
        assert speed_sup(overflowing_sine(TorusGrid(2, 16))) == math.inf

    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    @pytest.mark.parametrize("amplitude, drift", [(1e160, None), (1.0, (1e308, 0.0)),
                                                  (1.0, (1.5e308, 1.5e308)), (None, None)])
    def test_a_fast_velocity_is_a_cfl_violation(self, kind, amplitude, drift):
        """A speed whose squares overflow, or that is itself infinite, used
        to end in a ZeroDivisionError from the substep count. Amplitude None
        is overflowing_sine."""
        grid = TorusGrid(2, 16)
        u = (overflowing_sine(grid) if amplitude is None
             else random_velocity(grid, seed=1, kmax=4, amplitude=amplitude))
        rho = sines2_field(grid, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind=kind, dt=1.0)
        with pytest.raises(CflViolation, match="too fast"):
            advect_step(rho, u, scheme, mean_velocity=drift)
        with pytest.raises(CflViolation, match="too fast"):
            evolve(rho, lambda t: (u, drift), 1.0, scheme)


def reference_rk4(rho, u, tau, m, mean_velocity=None, full_layout=False):
    """The out-of-place stage loop that _rk4_substeps replaced: every stage
    and product in a fresh array, on the half layout. With full_layout it
    runs on the full layout instead, as the loop did before the half
    layout, restricting by the per-axis reference."""
    grid = rho.grid
    engine = dealiaser(grid.d, grid.n)
    kd = _lattice(grid.d, grid.n, half=not full_layout).derivs
    u_fine = engine.to_fine(u.coeff_stack())
    for j, cj in enumerate(mean_velocity or ()):
        u_fine[j] += cj

    def to_coarse(values):
        if not full_layout:
            return engine.to_coarse(values)
        return np.stack([restrict_coeffs(np.fft.fftn(v) / engine.m ** grid.d, grid.n) for v in values])

    def flux_divergence(rho_hat):
        flux_hat = to_coarse(engine.to_fine(rho_hat) * u_fine)
        return 1j * sum(kd[j] * flux_hat[j] for j in range(grid.d))

    y = to_spectral(rho).coeffs if full_layout else rfft_coeffs(rho.values, grid)
    for _ in range(m):
        k1 = flux_divergence(y)
        k2 = flux_divergence(y - 0.5 * tau * k1)
        k3 = flux_divergence(y - 0.5 * tau * k2)
        k4 = flux_divergence(y - tau * k3)
        y = y - (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return to_grid(SpectralField(grid, y)).values if full_layout else irfft_values(y, grid)


def reference_semi_lagrangian(rho, u, tau, m, mean_velocity=None):
    """The out-of-place substep loop that _semi_lagrangian_substeps replaced."""
    grid = rho.grid
    h = grid.h
    u_idx = np.stack([to_grid(c, check=False).values for c in u.components]) / h
    for j, cj in enumerate(mean_velocity or ()):
        u_idx[j] += cj / h
    base = np.indices(grid.shape, dtype=np.float64)
    vals = rho.values
    mean0 = float(vals.mean())
    for _ in range(m):
        mid = base - 0.5 * tau * u_idx
        u_mid = np.stack([map_coordinates(u_idx[j], mid, order=3, mode="grid-wrap")
                          for j in range(grid.d)])
        vals = map_coordinates(vals, base - tau * u_mid, order=3, mode="grid-wrap")
        vals += mean0 - vals.mean()
    return vals


REFERENCES = {"spectral_rk4": reference_rk4, "semi_lagrangian": reference_semi_lagrangian}


class TestStoredVelocityValues:
    """A velocity is transformed at most once, however often it is stepped."""

    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    def test_ten_steps_transform_the_velocity_once(self, grid2d, kind, monkeypatch):
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        coeffs = u.coeff_stack()
        calls = {"to_grid": 0, "to_fine": 0}
        to_grid_, to_fine_ = spectral.to_grid, spectral.Dealiaser.to_fine

        def counted_to_grid(F, check=True):
            calls["to_grid"] += any(F is c for c in u.components)
            return to_grid_(F, check)

        def counted_to_fine(engine, stack):
            calls["to_fine"] += stack.shape == coeffs.shape and np.array_equal(stack, coeffs)
            return to_fine_(engine, stack)

        monkeypatch.setattr(spectral, "to_grid", counted_to_grid)
        monkeypatch.setattr(spectral.Dealiaser, "to_fine", counted_to_fine)
        rho = sines2_field(grid2d, offset=2.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind=kind, dt=0.05)
        for _ in range(10):
            rho = advect_step(rho, u, scheme)
        assert calls == {"to_grid": grid2d.d, "to_fine": int(kind == "spectral_rk4")}

    def test_ten_steps_filter_the_velocity_once(self, grid2d, monkeypatch):
        """The semi-Lagrangian scheme interpolates the velocity from its
        spline coefficients, filtered once and kept on the velocity, so every
        velocity interpolation skips the prefilter. It traces the departure
        points once per (velocity, substep length, drift) and keeps them on
        the velocity, so ten steps of one velocity at one dt interpolate the
        velocity d times in all; it used to trace them again at every
        substep. The density, which changes, is filtered by each of its
        interpolations, one per substep."""
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        filtered, prefilters = [], []
        spline_filter_, map_coordinates_ = spectral.spline_filter, transport.map_coordinates

        def counted_filter(a, *args, **kwargs):
            filtered.append(np.array(a))
            return spline_filter_(a, *args, **kwargs)

        def counted_map(a, *args, prefilter=True, **kwargs):
            prefilters.append(prefilter)
            return map_coordinates_(a, *args, prefilter=prefilter, **kwargs)

        monkeypatch.setattr(spectral, "spline_filter", counted_filter)
        monkeypatch.setattr(transport, "map_coordinates", counted_map)
        rho = sines2_field(grid2d, offset=2.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.05)
        for _ in range(10):
            rho = advect_step(rho, u, scheme)
        assert len(filtered) == grid2d.d
        for a, b in zip(filtered, u.grid_stack / grid2d.h):
            assert np.array_equal(a, b)
        substeps = len(prefilters) - grid2d.d
        assert substeps >= 10
        assert prefilters == [False] * grid2d.d + [True] * substeps

    def test_stored_values_are_read_only(self, grid2d):
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        fine = fine_size(grid2d.n)
        assert u.departures is None
        advect_step(sines2_field(grid2d, offset=2.0, a=0.5, b=0.25), u,
                    AdvectionScheme(kind="semi_lagrangian", dt=0.05))
        key, departures = u.departures
        assert key == (0.05, None)
        assert u.grid_stack.shape == (2,) + grid2d.shape
        assert u.fine_stack.shape == (2, fine, fine)
        assert u.spline_stack.shape == (2,) + grid2d.shape
        assert departures.shape == (2,) + grid2d.shape
        for a in (u.grid_stack, u.fine_stack, u.spline_stack, departures, *u.grid_values()):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        for a, c in zip(u.grid_values(), u.components):
            assert np.shares_memory(a, u.grid_stack)
            assert np.array_equal(a, to_grid(c, check=False).values)

    def test_drift_leaves_the_stored_values_alone(self, grid2d):
        """A drifted step replaces the kept departure points without writing
        into them: a step that reads them before the drifted one still gives
        the undrifted result, and so does an undrifted step after it."""
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        plain = speed_sup(u)
        rho = sines2_field(grid2d, offset=2.0, a=0.5, b=0.25)
        sl = AdvectionScheme(kind="semi_lagrangian", dt=0.05)
        undrifted = advect_step(rho, u, sl).values
        departures = u.departures[1]
        kept = departures.copy()
        grid_stack, fine_stack, spline_stack = u.grid_stack.copy(), u.fine_stack.copy(), u.spline_stack.copy()
        assert speed_sup(u, mean_velocity=(3.0, 4.0)) > plain
        for kind in ("spectral_rk4", "semi_lagrangian"):
            advect_step(rho, u, AdvectionScheme(kind=kind, dt=0.05), mean_velocity=(3.0, 4.0))
        assert u.departures[0] == (0.05 / 4, (3.0, 4.0))
        commutator_residual(rho, u, 0.5, FluidParams(p=4.0, q=1.9), mean_velocity=(3.0, 4.0))
        assert speed_sup(u) == plain
        assert np.array_equal(u.grid_stack, grid_stack)
        assert np.array_equal(u.fine_stack, fine_stack)
        assert np.array_equal(u.spline_stack, spline_stack)
        assert np.array_equal(departures, kept)
        assert advect_step(rho, u, sl).values.tobytes() == undrifted.tobytes()
        assert u.departures[0] == (0.05, None)

    def test_steps_with_changing_keys_match_the_out_of_place_loop(self, grid2d):
        """Steps of one velocity at dt, dt/2, with a drift and at dt again
        each trace with their own key, whether the kept one or a new one.
        Then a step of 2 substeps and one of 1 share the substep length and
        so the key."""
        u = random_velocity(grid2d, seed=13, kmax=4, amplitude=1.0)
        rho = random_band_field(grid2d, seed=7, kmax=8, amplitude=0.5, offset=1.5)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.08)
        substeps, stacks = [], []
        for dt, drift in ((0.08, None), (0.04, None), (0.08, (0.3, -0.2)), (0.08, None),
                          (0.08, None), (0.2, None), (0.1, None)):
            m = _substep_count(dt, _cfl_cap(scheme, grid2d, speed_sup(u, drift)))
            expected = reference_semi_lagrangian(rho, u, dt / m, m, drift)
            rho = advect_step(rho, u, scheme, dt=dt, mean_velocity=drift)
            assert rho.values.tobytes() == expected.tobytes()
            assert u.departures[0] == (dt / m, drift)
            substeps.append(m)
            stacks.append(u.departures[1])
        assert substeps == [1, 1, 1, 1, 1, 2, 1]
        assert [a is b for a, b in zip(stacks, stacks[1:])] == [False, False, False, True, False, True]

    def test_evolve_with_a_remainder_matches_the_steps(self, grid2d):
        """T = 0.105 at dt = 0.01 ends with a step of about 0.005: ten steps
        on one key, then one on another."""
        u = random_velocity(grid2d, seed=13, kmax=4, amplitude=1.0)
        rho0 = random_band_field(grid2d, seed=7, kmax=8, amplitude=0.5, offset=1.5)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.01)
        out, times, _ = evolve(rho0, u, 0.105, scheme)
        assert len(times) == 12
        vals, vmax = rho0.values, speed_sup(u)
        for t0, t1 in zip(times, times[1:]):
            dt = min(scheme.dt, 0.105 - t0)
            m = _substep_count(dt, _cfl_cap(scheme, grid2d, vmax))
            vals = reference_semi_lagrangian(GridField(grid2d, vals), u, dt / m, m)
        assert out.values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    @pytest.mark.parametrize("d, n, dt, drift, substeps", [
        (2, 32, 0.05, (0.3, -0.2), 1),
        (2, 32, 1.0, None, 16),
        (3, 8, 2.0, (0.1, 0.2, -0.3), 8),
    ])
    def test_step_matches_the_out_of_place_loop(self, kind, d, n, dt, drift, substeps):
        grid = TorusGrid(d, n)
        rho = random_band_field(grid, seed=7, kmax=n // 4, amplitude=0.5, offset=1.5)
        u = random_velocity(grid, seed=13, kmax=n // 4, amplitude=1.0)
        scheme = AdvectionScheme(kind=kind, dt=dt)
        m = _substep_count(dt, _cfl_cap(scheme, grid, speed_sup(u, drift)))
        assert m == substeps
        out = advect_step(rho, u, scheme, mean_velocity=drift)
        assert out.values.tobytes() == REFERENCES[kind](rho, u, dt / m, m, drift).tobytes()
        if kind == "spectral_rk4":
            full = reference_rk4(rho, u, dt / m, m, drift, full_layout=True)
            assert np.abs(out.values - full).max() <= 1e-13 * np.abs(full).max()


class TestAdmissibleEta:
    def test_smooth_clamp_identity_region(self):
        eta = smooth_clamp(2.0)
        r = np.linspace(-2.0, 2.0, 101)
        assert np.array_equal(eta.eta(r), r)

    def test_smooth_clamp_bound_and_slope(self):
        eta = smooth_clamp(2.0)
        r = np.linspace(-50.0, 50.0, 1001)
        assert np.abs(eta.eta(r)).max() <= 3.0
        de = eta.deta(r)
        assert np.all(de > 0)
        assert de.max() <= 1.0 + 1e-12

    def test_atan_scaled_bound(self):
        eta = atan_scaled(2.0)
        assert eta.bound == pytest.approx(math.pi)
        assert abs(eta.eta(1e9)) < eta.bound

    def test_rejects_nonmonotone_eta(self):
        with pytest.raises(ValueError, match="positive"):
            custom_eta(lambda r: np.sin(r), lambda r: np.cos(r), bound=1.0)

    def test_rejects_wrong_bound(self):
        with pytest.raises(ValueError, match="bound"):
            custom_eta(
                lambda r: np.arctan(r),
                lambda r: 1.0 / (1.0 + np.asarray(r) ** 2),
                bound=0.5,
            )

    def test_rejects_bad_clamp_level(self):
        with pytest.raises(ValueError, match="positive"):
            smooth_clamp(0.0)


class TestRenormalize:
    def test_identity_clamp_on_range(self, grid2d):
        rho = sines2_field(grid2d, offset=0.0, a=0.5, b=0.25)
        out = renormalize(rho, smooth_clamp(5.0))
        assert np.array_equal(out.values, rho.values)

    def test_bounded_output(self, grid2d):
        rho = GridField(grid2d, 100.0 * np.sin(grid2d.coordinate(0)))
        eta = atan_scaled(1.0)
        out = renormalize(rho, eta)
        assert np.abs(out.values).max() <= eta.bound

    def test_dual_path_commutation(self, grid2d_fine):
        """Renormalizing before or after advection agrees to interpolation error."""
        rho = sines2_field(grid2d_fine, offset=0.5, a=0.4, b=0.2)
        u = random_velocity(grid2d_fine, seed=5, kmax=4, amplitude=1.0)
        eta = atan_scaled(2.0)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.02, cfl_target=0.5)
        a = GridField(grid2d_fine, rho.values.copy())
        b = renormalize(rho, eta)
        for _ in range(10):
            a = advect_step(a, u, scheme)
            b = advect_step(b, u, scheme)
        gap = lebesgue_norm(
            GridField(grid2d_fine, renormalize(a, eta).values - b.values, check=False),
            1.0,
        )
        assert gap <= 1e-5

    def test_dual_path_gap_shrinks_under_refinement(self):
        eta = atan_scaled(2.0)
        gaps = []
        for n in (64, 128):
            grid = TorusGrid(2, n)
            rho = sines2_field(grid, offset=0.5, a=0.4, b=0.2)
            u = random_velocity(grid, seed=5, kmax=4, amplitude=1.0)
            scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.02, cfl_target=0.5)
            a = GridField(grid, rho.values.copy())
            b = renormalize(rho, eta)
            for _ in range(10):
                a = advect_step(a, u, scheme)
                b = advect_step(b, u, scheme)
            gaps.append(
                lebesgue_norm(
                    GridField(grid, renormalize(a, eta).values - b.values, check=False),
                    1.0,
                )
            )
        assert gaps[1] <= 0.5 * gaps[0]


class TestCommutatorResidual:
    def test_constant_density(self, grid2d):
        rho = GridField(grid2d, np.full(grid2d.shape, 1.5))
        u = random_velocity(grid2d, seed=11, kmax=4, amplitude=1.0)
        params = FluidParams(p=4.0, q=1.9)
        assert commutator_residual(rho, u, 0.5, params) <= 1e-12

    def test_translation_bypass_commutes(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        params = FluidParams(p=4.0, q=1.9)
        res = commutator_residual(
            rho, zero_velocity(grid2d), 0.5, params, mean_velocity=(1.0, 0.5)
        )
        assert res <= 1e-12

    def test_epsilon_ladder_decreases(self, grid2d_fine):
        rho = sines2_field(grid2d_fine, offset=1.0, a=0.5, b=0.25)
        u = random_velocity(grid2d_fine, seed=13, kmax=4, amplitude=1.0)
        params = FluidParams(p=4.0, q=1.9)
        ladder = [
            commutator_residual(rho, u, eps, params)
            for eps in (0.5, 0.25, 0.125)
        ]
        for a, b in zip(ladder, ladder[1:]):
            assert b < a

    def test_unresolvable_mollifier(self, grid2d):
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        u = random_velocity(grid2d, seed=11, kmax=4)
        params = FluidParams(p=4.0, q=1.9)
        with pytest.raises(UnresolvableMollifier):
            commutator_residual(rho, u, grid2d.h / 2, params)

    def test_rejects_alpha_below_one(self, grid2d):
        """1/alpha = 1/beta + 1/q exceeds 1 for small p with q near 2."""
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        u = random_velocity(grid2d, seed=11, kmax=4)
        params = FluidParams(p=1.5, q=1.9)
        with pytest.raises(ValueError, match="alpha"):
            commutator_residual(rho, u, 0.5, params)
