"""Advection schemes, renormalization maps, and the commutator diagnostic."""

import math
import os
import pathlib
import subprocess
import sys

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
    run_battery,
    smooth_clamp,
    speed_sup,
)
from nnstokes import spectral, transport
from nnstokes.fields import random_band_field, random_velocity, sines2_field
from nnstokes.spectral import (_lattice, dealiaser, fine_size, irfft_values, restrict_coeffs, rfft_coeffs,
                               to_grid, to_spectral)
from nnstokes.transport import _cfl_cap, _interpolate, _splines, _stencil, _substep_count

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

    @pytest.mark.parametrize("dt, cap", [(5e-13, math.inf), (4.1 * 1.5e-12, 1.5e-12)])
    def test_a_substep_under_the_floor_is_a_cfl_violation(self, grid2d, dt, cap):
        """The cap passes the 1e-12 floor, but the substep does not: a step
        shorter than the floor, or one whose power-of-two split lands under
        it (8 substeps of 7.7e-13 under a cap of 1.5e-12)."""
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="spectral_rk4", cfl_target=0.5)
        vmax = 0.0 if cap == math.inf else scheme.cfl_target * grid2d.h / cap
        assert _cfl_cap(scheme, grid2d, vmax) >= 1e-12
        with pytest.raises(CflViolation, match=r"substep to [57]\.[0-9]{3}e-13 \(< 1e-12\)"):
            advect_step(rho, zero_velocity(grid2d), scheme, dt=dt, vmax=vmax)

    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    def test_an_unsplit_step_under_the_floor_does_not_blame_the_velocity(self, grid2d, kind):
        """A fluid at rest has no CFL limit: a step shorter than the floor
        is too short as requested, and the error says so, not that the
        velocity is too fast."""
        rho = sines2_field(grid2d, offset=1.0, a=0.5, b=0.25)
        with pytest.raises(CflViolation) as info:
            advect_step(rho, zero_velocity(grid2d), AdvectionScheme(kind=kind), dt=5e-13)
        assert str(info.value) == "the requested step length sets the substep to 5.000e-13 (< 1e-12)"

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

    @pytest.mark.parametrize("kind", ["spectral_rk4", "semi_lagrangian"])
    def test_a_nan_velocity_is_a_cfl_violation(self, kind):
        """The speed of a velocity with a NaN coefficient is NaN, which the
        CFL cap used to read as a fluid at rest: one substep, after which
        RK4 returned NaN and the semi-Lagrangian scheme a finite but
        garbled density, with no error."""
        grid = TorusGrid(2, 16)
        coeffs = random_velocity(grid, seed=1, kmax=4).coeff_stack().copy()
        coeffs[0, 1, 0] = math.nan
        u = VelocityField([SpectralField(grid, c) for c in coeffs], check=False)
        assert math.isnan(speed_sup(u))
        rho = sines2_field(grid, offset=2.0, a=0.5, b=0.25)
        with pytest.raises(CflViolation, match="velocity sup nan"):
            advect_step(rho, u, AdvectionScheme(kind=kind, dt=0.05))


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
    """The out-of-place substep loop that _semi_lagrangian_substeps replaced,
    which traced the characteristics at every substep with scipy.ndimage's
    cubic splines."""
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
        """Ten steps transform the velocity's stored coefficient stack to
        the grid once, as one batched inverse FFT (it used to take one
        to_grid call per component), and to the fine grid at most once."""
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        coeffs = u.coeff_stack()
        calls = {"ifftn": 0, "to_fine": 0}
        ifftn_, to_fine_ = np.fft.ifftn, spectral.Dealiaser.to_fine

        def of_velocity(a):
            return np.shape(a) == coeffs.shape and np.array_equal(a, coeffs)

        def counted_ifftn(a, *args, **kwargs):
            calls["ifftn"] += of_velocity(a)
            return ifftn_(a, *args, **kwargs)

        def counted_to_fine(engine, stack):
            calls["to_fine"] += of_velocity(stack)
            return to_fine_(engine, stack)

        monkeypatch.setattr(np.fft, "ifftn", counted_ifftn)
        monkeypatch.setattr(spectral.Dealiaser, "to_fine", counted_to_fine)
        rho = sines2_field(grid2d, offset=2.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind=kind, dt=0.05)
        for _ in range(10):
            rho = advect_step(rho, u, scheme)
        assert calls == {"ifftn": 1, "to_fine": int(kind == "spectral_rk4")}

    @staticmethod
    def count_splines_and_stencils(monkeypatch):
        """Lists that record the values of every prefilter (_splines) and
        the shape of the points of every stencil build (_stencil)."""
        filtered, stencils = [], []
        splines_, stencil_ = transport._splines, transport._stencil

        def counted_splines(values, grid):
            filtered.append(np.array(values))
            return splines_(values, grid)

        def counted_stencil(points, n):
            stencils.append(points.shape)
            return stencil_(points, n)

        monkeypatch.setattr(transport, "_splines", counted_splines)
        monkeypatch.setattr(transport, "_stencil", counted_stencil)
        return filtered, stencils

    def test_ten_steps_filter_the_velocity_once(self, grid2d, monkeypatch):
        """The semi-Lagrangian scheme traces the departure points once per
        (velocity, substep length, drift) and keeps their stencil on the
        velocity, so ten steps of one velocity at one dt prefilter the
        velocity once, its d components in one batch, and build two
        stencils, at the midpoints and at the departure points; it used to
        trace them again at every substep. The density, which changes, is
        prefiltered once per substep."""
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        filtered, stencils = self.count_splines_and_stencils(monkeypatch)
        rho = sines2_field(grid2d, offset=2.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.05)
        for _ in range(10):
            rho = advect_step(rho, u, scheme)
        assert stencils == [(2,) + grid2d.shape] * 2
        assert np.array_equal(filtered[0], u.grid_stack / grid2d.h)
        substeps = len(filtered) - 1
        assert substeps >= 10
        assert [a.shape for a in filtered[1:]] == [grid2d.shape] * substeps

    def test_a_new_key_filters_the_velocity_again(self, grid2d, monkeypatch):
        """The velocity's spline coefficients are not kept: a step with the
        kept key filters no velocity and builds no stencil, and a step with
        a new key, another substep length or a drift, filters grid_stack / h,
        drift added, once more and builds two stencils."""
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        filtered, stencils = self.count_splines_and_stencils(monkeypatch)
        rho = sines2_field(grid2d, offset=2.0, a=0.5, b=0.25)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.05)
        counts = []
        for dt, drift in ((0.05, None), (0.05, None), (0.035, None), (0.035, None),
                          (0.035, (0.3, -0.2)), (0.035, (0.3, -0.2)), (0.05, None)):
            advect_step(rho, u, scheme, dt=dt, mean_velocity=drift)
            counts.append((sum(a.ndim == 3 for a in filtered), len(stencils)))
        assert counts == [(1, 2), (1, 2), (2, 4), (2, 4), (3, 6), (3, 6), (4, 8)]
        h = grid2d.h
        plain = u.grid_stack / h
        drifted = plain + np.reshape(np.divide((0.3, -0.2), h), (2, 1, 1))
        velocities = [a for a in filtered if a.ndim == 3]
        for a, b in zip(velocities, [plain, plain, drifted, plain]):
            assert np.array_equal(a, b)

    def test_stored_values_are_read_only(self, grid2d):
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        fine = fine_size(grid2d.n)
        assert u.departures is None
        advect_step(sines2_field(grid2d, offset=2.0, a=0.5, b=0.25), u,
                    AdvectionScheme(kind="semi_lagrangian", dt=0.05))
        key, (base, weights) = u.departures
        assert key == (0.05, None)
        assert u.grid_stack.shape == (2,) + grid2d.shape
        assert u.fine_stack.shape == (2, fine, fine)
        assert base.shape == (grid2d.npoints,)
        assert weights.shape == (2, 4, grid2d.npoints)
        assert base.size + weights.size == (4 * grid2d.d + 1) * grid2d.npoints
        for a in (u.grid_stack, u.fine_stack, base, weights, *u.grid_values()):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        for a, c in zip(u.grid_values(), u.components):
            assert np.shares_memory(a, u.grid_stack)
            assert np.array_equal(a, to_grid(c, check=False).values)

    def test_drift_leaves_the_stored_values_alone(self, grid2d):
        """A drifted step replaces the kept departure stencil without writing
        into it: a step that reads it before the drifted one still gives
        the undrifted result, and so does an undrifted step after it."""
        u = random_velocity(grid2d, seed=5, kmax=4, amplitude=1.0)
        plain = speed_sup(u)
        rho = sines2_field(grid2d, offset=2.0, a=0.5, b=0.25)
        sl = AdvectionScheme(kind="semi_lagrangian", dt=0.05)
        undrifted = advect_step(rho, u, sl).values
        stencil = u.departures[1]
        kept = [a.copy() for a in stencil]
        grid_stack, fine_stack = u.grid_stack.copy(), u.fine_stack.copy()
        assert speed_sup(u, mean_velocity=(3.0, 4.0)) > plain
        for kind in ("spectral_rk4", "semi_lagrangian"):
            advect_step(rho, u, AdvectionScheme(kind=kind, dt=0.05), mean_velocity=(3.0, 4.0))
        assert u.departures[0] == (0.05 / 4, (3.0, 4.0))
        commutator_residual(rho, u, 0.5, FluidParams(p=4.0, q=1.9), mean_velocity=(3.0, 4.0))
        assert speed_sup(u) == plain
        assert np.array_equal(u.grid_stack, grid_stack)
        assert np.array_equal(u.fine_stack, fine_stack)
        assert all(np.array_equal(a, b) for a, b in zip(stencil, kept))
        assert advect_step(rho, u, sl).values.tobytes() == undrifted.tobytes()
        assert u.departures[0] == (0.05, None)

    def test_steps_with_changing_keys_match_the_out_of_place_loop(self, grid2d):
        """Steps of one velocity at dt, dt/2, with a drift and at dt again
        each trace with their own key, whether the kept one or a new one.
        Then a step of 2 substeps and one of 1 share the substep length and
        so the key. Each step is within 1e-12 of the scipy.ndimage loop and,
        with a kept stencil or a new one, bit for bit the step of a fresh
        copy of the velocity, which traces its key anew."""
        u = random_velocity(grid2d, seed=13, kmax=4, amplitude=1.0)
        rho = random_band_field(grid2d, seed=7, kmax=8, amplitude=0.5, offset=1.5)
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=0.08)
        substeps, stacks = [], []
        for dt, drift in ((0.08, None), (0.04, None), (0.08, (0.3, -0.2)), (0.08, None),
                          (0.08, None), (0.2, None), (0.1, None)):
            m = _substep_count(dt, _cfl_cap(scheme, grid2d, speed_sup(u, drift)))
            expected = reference_semi_lagrangian(rho, u, dt / m, m, drift)
            fresh = advect_step(rho, VelocityField(u.components, check=False), scheme, dt=dt,
                                mean_velocity=drift)
            rho = advect_step(rho, u, scheme, dt=dt, mean_velocity=drift)
            assert np.abs(rho.values - expected).max() <= 1e-12 * np.abs(expected).max()
            assert rho.values.tobytes() == fresh.values.tobytes()
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
        assert np.abs(out.values - vals).max() <= 1e-12 * np.abs(vals).max()

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
        expected = REFERENCES[kind](rho, u, dt / m, m, drift)
        if kind == "semi_lagrangian":  # NumPy splines against scipy.ndimage's
            assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(expected).max()
        else:
            assert out.values.tobytes() == expected.tobytes()
            full = reference_rk4(rho, u, dt / m, m, drift, full_layout=True)
            assert np.abs(out.values - full).max() <= 1e-13 * np.abs(full).max()


class TestSemiLagrangianImports:
    def test_no_step_imports_scipy(self):
        """The semi-Lagrangian scheme's splines are NumPy alone: importing
        nnstokes or its command line, and taking an RK4 step and a
        semi-Lagrangian one, leave scipy unloaded. Its scipy.ndimage import
        used to cost a process 0.33 s and 27 MB."""
        script = (
            "import sys\n"
            "loaded = lambda: any(name.split('.')[0] == 'scipy' for name in sys.modules)\n"
            "import nnstokes\n"
            "print(loaded())\n"
            "import nnstokes.cli\n"
            "print(loaded())\n"
            "from nnstokes import AdvectionScheme, TorusGrid, advect_step, random_velocity, sines2_field\n"
            "grid = TorusGrid(2, 16)\n"
            "rho, u = sines2_field(grid), random_velocity(grid, seed=1, kmax=4)\n"
            "advect_step(rho, u, AdvectionScheme(kind='spectral_rk4'))\n"
            "print(loaded())\n"
            "advect_step(rho, u, AdvectionScheme(kind='semi_lagrangian'))\n"
            "print(loaded())\n"
        )
        src = str(pathlib.Path(transport.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.split() == ["False"] * 4


class TestSplines:
    """The semi-Lagrangian scheme's periodic cubic B-splines in NumPy:
    the FFT prefilter, the stencil and the interpolation, with the
    scipy.ndimage splines they replaced as the oracle."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("d, n, drift, substeps, steps", [
        (2, 32, (0.3, -0.2), 1, 1),
        (2, 32, None, 16, 1),
        (2, 32, None, 1, 100),
        (3, 16, (0.1, 0.2, -0.3), 1, 1),
        (3, 16, None, 16, 1),
        (3, 16, None, 1, 100),
    ])
    def test_a_run_matches_scipy(self, seed, d, n, drift, substeps, steps):
        """Runs with a drift, of one step of 16 substeps, and of 100 steps
        of a frozen velocity stay within 1e-12 of the scipy.ndimage loop."""
        grid = TorusGrid(d, n)
        rho = random_band_field(grid, seed=seed, kmax=n // 4, amplitude=0.5, offset=1.5)
        u = random_velocity(grid, seed=seed + 10, kmax=n // 4, amplitude=1.0)
        cap = _cfl_cap(AdvectionScheme(kind="semi_lagrangian"), grid, speed_sup(u, drift))
        scheme = AdvectionScheme(kind="semi_lagrangian", dt=(substeps - 0.5) * cap)
        m = _substep_count(scheme.dt, cap)
        assert m == substeps
        out, expected = rho, rho.values
        for _ in range(steps):
            out = advect_step(out, u, scheme, mean_velocity=drift)
            expected = reference_semi_lagrangian(GridField(grid, expected), u, scheme.dt / m, m, drift)
        assert np.abs(out.values - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_weights_sum_to_one(self, d):
        """At every point, on and between the nodes, below 0 and beyond n."""
        rng = np.random.default_rng(d)
        n = 8
        points = np.concatenate([rng.uniform(-2 * n, 3 * n, (d, 500)),
                                 rng.integers(-n, 2 * n, (d, 12)).astype(np.float64),
                                 np.full((d, 1), -1e-17)], axis=1)
        base, weights = _stencil(points, n)
        assert np.all(weights >= 0.0)
        assert np.abs(weights.sum(axis=1) - 1.0).max() <= 4e-16
        # each axis's first node is in [0, n), so its last, 3 further, is in the padding
        assert 0 <= base.min()
        assert all(axis.max() < n for axis in np.unravel_index(base, (n + 3,) * d))

    @pytest.mark.parametrize("d, n", [(2, 8), (2, 32), (3, 8), (3, 16)])
    def test_the_splines_interpolate_the_values_at_the_nodes(self, d, n):
        """Interpolating the prefiltered coefficients at the nodes, and at
        the nodes one period away, gives the values back to 1e-14."""
        values = np.random.default_rng(n).standard_normal((n,) * d) + 2.0
        splines = _splines(values, TorusGrid(d, n))
        nodes = np.indices(values.shape, dtype=np.float64)
        for shift in (0.0, n, -n):
            back = _interpolate(splines, _stencil(nodes + shift, n))
            assert np.abs(back - values).max() <= 1e-14 * np.abs(values).max()

    def test_the_prefilter_matches_scipy(self):
        from scipy import ndimage

        values = random_band_field(TorusGrid(2, 32), seed=3, kmax=8, amplitude=0.5, offset=1.5).values
        expected = ndimage.spline_filter(values, order=3, output=np.float64, mode="grid-wrap")
        assert np.abs(_splines(values, TorusGrid(2, 32)) - expected).max() <= 1e-14 * np.abs(values).max()


class TestTransportBattery:
    def test_every_check_passes(self):
        """The battery's semi-Lagrangian range and mass checks run the
        scheme's interpolation at 2D n = 128."""
        result = run_battery("transport", seed=0)
        assert [ok for ok, _ in result.checks] == [True] * 9, result.report()
        assert result.report().endswith("battery transport: 9 checks, passed")
        assert [label.split()[0] for _, label in result.checks[-2:]] == ["semi-lagrangian"] * 2


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
