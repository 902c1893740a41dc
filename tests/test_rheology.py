"""Viscosity laws, fluid parameter validation, and the viscous stress."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nnstokes import (
    FluidParams,
    GridField,
    TorusGrid,
    ViscosityLaw,
    bounded_power_law,
    check_law,
    constant_law,
    dissipation_density,
    power_law,
    stress,
    table_law,
    viscosity_eval,
)
from nnstokes.rheology import (_acts_as_zero, _curvature_factor, _lifted_power, _power_factor, _singular,
                               _strain_share, strain_magnitude_sq)


def make_strain(grid, entries):
    """Symmetric d x d stack of constant matrices broadcast over the grid."""
    d = grid.d
    Du = np.zeros((d, d) + grid.shape)
    for (i, j), v in entries.items():
        Du[i, j] += v
        if i != j:
            Du[j, i] += v
    return Du


class TestFluidParams:
    def test_defaults(self):
        params = FluidParams(p=2.0, q=1.5)
        assert params.d == 2
        assert params.g == (0.0, -1.0)
        assert params.sigma == math.inf
        assert params.delta == 0.0

    def test_gravity_default_matches_dimension(self):
        params = FluidParams(p=2.0, q=1.5, d=3)
        assert params.g == (0.0, 0.0, -1.0)

    def test_beta_formula(self):
        params = FluidParams(p=3.0, q=1.5, gamma=1.0, sigma=2.0)
        assert 1.0 / params.beta == pytest.approx((1.0 / 3.0) * (1.0 + 0.5))
        assert params.beta == pytest.approx(2.0)

    def test_beta_at_infinite_sigma(self):
        params = FluidParams(p=3.0, q=1.5, gamma=5.0)
        assert params.beta == pytest.approx(3.0)

    def test_gamma_bar(self):
        assert FluidParams(p=2.0, q=1.5, gamma=0.25).gamma_bar == 0.25
        assert FluidParams(p=2.0, q=1.5, gamma=3.0).gamma_bar == 1.0

    @pytest.mark.parametrize(
        "kwargs,pattern",
        [
            (dict(p=1.0, q=1.5), "p"),
            (dict(p=2.0, q=2.0), "q"),
            (dict(p=2.0, q=1.0), "q"),
            (dict(p=2.0, q=1.5, sigma=0.5), "sigma"),
            (dict(p=2.0, q=1.5, gamma=-1.0), "gamma"),
            (dict(p=2.0, q=1.5, nu_star=0.0), "nu_star"),
            (dict(p=2.0, q=1.5, nu_star=2.0, nu_max=1.0), "nu_max"),
            (dict(p=2.0, q=1.5, delta=-0.1), "delta"),
            (dict(p=2.0, q=1.5, d=4), "d"),
            (dict(p=2.0, q=1.5, g=(1.0,)), "g"),
            (dict(p=2.0, q=1.5, g=(math.nan, 0.0)), "g"),
            # one pass: a non-finite g is reported beside a broken nu_max
            (dict(p=2.0, q=1.5, nu_star=2.0, nu_max=1.0, g=(math.nan, 0.0)),
             "nu_max must be >= nu_star = 2.0, got 1.0; g must be finite, got nan"),
        ],
    )
    def test_validation(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            FluidParams(**kwargs)

    @pytest.mark.parametrize("name,value", [
        ("p", math.inf), ("nu_star", math.inf), ("gamma", math.inf), ("delta", math.inf),
        ("gamma", math.nan), ("nu_max", math.nan), ("delta", math.nan),
    ])
    def test_rejects_non_finite(self, name, value):
        """The config parser rejects these values, and so must the pack."""
        with pytest.raises(ValueError, match=name):
            FluidParams(**{"p": 2.0, "q": 1.5, name: value})

    def test_nu_max_defaults_to_nu_star(self):
        assert FluidParams(p=2.0, q=1.5, nu_star=2.0).nu_max == 2.0
        assert FluidParams(p=2.0, q=1.5).nu_max == 1.0


class TestViscosityLaws:
    def test_constant_law(self, grid2d):
        rho = GridField(grid2d, np.random.default_rng(0).uniform(0.1, 2, grid2d.shape))
        nu = viscosity_eval(constant_law(1.5), rho)
        assert np.all(nu.values == 1.5)

    def test_power_law_at_zero(self, grid2d):
        """The degenerate power law vanishes with the density."""
        rho = GridField(grid2d, np.zeros(grid2d.shape))
        nu = viscosity_eval(power_law(1.0, 1.0), rho)
        assert np.all(nu.values == 0.0)

    def test_power_law_direct_value(self, grid2d):
        rho = GridField(grid2d, np.full(grid2d.shape, 0.5))
        nu = viscosity_eval(power_law(1.0, 1.0), rho)
        assert np.allclose(nu.values, 0.5)

    def test_bounded_power_law_caps(self, grid2d):
        law = bounded_power_law(1.0, 2.0, 3.0)
        rho = GridField(grid2d, np.full(grid2d.shape, 10.0))
        assert np.allclose(viscosity_eval(law, rho).values, 3.0)

    def test_law_takes_absolute_value(self):
        law = power_law(1.0, 2.0)
        assert law(-0.5) == pytest.approx(0.25)

    @pytest.mark.parametrize("make,pattern", [
        (lambda: constant_law(math.nan), "coef"),
        (lambda: power_law(1.0, math.inf), "exponent"),
        (lambda: bounded_power_law(1.0, 0.5, 0.0), "cap"),
        (lambda: ViscosityLaw("cubic"), "kind"),
    ])
    def test_rejects_bad_parameters(self, make, pattern):
        with pytest.raises(ValueError, match=pattern):
            make()


class TestCheckLaw:
    def test_accepts_shipped_laws(self):
        params = FluidParams(p=2.0, q=1.5, gamma=0.5, nu_max=4.0)
        assert check_law(bounded_power_law(1.0, 0.5, 4.0), params) == []
        assert check_law(constant_law(2.0), FluidParams(p=2.0, q=1.5, nu_max=4.0)) == []

    def test_flags_bound_violation(self):
        params = FluidParams(p=2.0, q=1.5, nu_max=1.0)
        problems = check_law(table_law((0.0, 1000.0), (5.0, 5.0)), params)
        assert any("exceeds" in msg for msg in problems)

    def test_flags_degenerate_floor_violation(self):
        """nu must stay above nu_star |r|^gamma on (0, 1]."""
        params = FluidParams(p=2.0, q=1.5, gamma=1.0, nu_star=1.0, nu_max=2.0)
        problems = check_law(table_law((0.0, 1000.0), (0.25, 0.25)), params)
        assert any("falls below" in msg for msg in problems)

    def test_flags_jump_discontinuity(self):
        params = FluidParams(p=2.0, q=1.5, gamma=1.0, nu_max=1e9)
        law = table_law(
            (0.0, 0.005, 5.0, 5.000001, 1000.0),
            (0.0, 1.0, 1.0, 1e8, 1e8),
        )
        problems = check_law(law, params)
        assert any("Holder" in msg for msg in problems)

    def test_table_law_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            table_law((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="nonnegative"):
            table_law((0.0, 1.0), (1.0, -1.0))


class TestTableRules:
    """The user_table rules belong to ViscosityLaw itself, so a law built
    directly obeys the rules that table_law does."""

    @pytest.mark.parametrize("nodes, values, match", [
        ((2.0, 1.0), (1.0, -3.0), "table_nu"),  # evaluated a negative viscosity
        ((2.0, 1.0), (1.0, 3.0), "strictly increasing"),
        ((0.0,), (), "matching"),  # failed only at its first evaluation
        ((0.0,), (1.0,), "matching"),
        ((0.0, 1.0), (1.0,), "matching"),
        ((0.0, math.nan), (1.0, 1.0), "table_r"),
        ((0.0, math.inf), (1.0, 1.0), "table_r"),
        ((-math.inf, 0.0), (1.0, 1.0), "table_r"),
        ((0.0, 1.0), (1.0, math.nan), "table_nu"),  # ended in a solve on NaN
        ((0.0, 1.0), (1.0, math.inf), "table_nu"),
    ])
    def test_bad_table_rejected(self, nodes, values, match):
        with pytest.raises(ValueError, match=match):
            ViscosityLaw("user_table", table_r=nodes, table_nu=values)
        with pytest.raises(ValueError, match=match):
            table_law(nodes, values)

    def test_valid_table_stored_as_floats(self):
        law = table_law([0, 2], [1, 3])
        assert law == ViscosityLaw("user_table", table_r=(0.0, 2.0), table_nu=(1.0, 3.0))
        assert all(type(x) is float for x in law.table_r + law.table_nu)
        assert np.array_equal(law(np.array([-1.0, 0.5, 5.0])), [2.0, 1.5, 3.0])


class TestStress:
    def test_zero_strain(self, grid2d):
        params = FluidParams(p=3.0, q=1.5)
        rho = GridField(grid2d, np.ones(grid2d.shape))
        Du = make_strain(grid2d, {})
        S = stress(constant_law(1.0), params, rho, Du)
        assert np.abs(S).max() == 0.0

    def test_newtonian_reduction(self, grid2d):
        """p = 2 collapses the stress to nu(rho) Du for any delta."""
        params = FluidParams(p=2.0, q=1.5, delta=0.3)
        rho = GridField(grid2d, 1.0 + 0.2 * np.cos(grid2d.coordinate(0)))
        Du = make_strain(grid2d, {(0, 1): 0.7, (0, 0): 0.1, (1, 1): -0.1})
        S = stress(constant_law(2.0), params, rho, Du)
        assert np.allclose(S, 2.0 * Du, atol=1e-14)

    def test_cubic_scalar_check(self, grid2d):
        """p = 3 with Frobenius norm 2 doubles the strain."""
        params = FluidParams(p=3.0, q=1.5)
        rho = GridField(grid2d, np.ones(grid2d.shape))
        Du = make_strain(grid2d, {(0, 1): math.sqrt(2.0)})
        assert np.allclose(np.sqrt(strain_magnitude_sq(Du)), 2.0)
        S = stress(constant_law(1.0), params, rho, Du)
        assert np.allclose(S, 2.0 * Du, atol=1e-13)

    def test_dissipation_consistency(self, grid2d, rng):
        """stress : Du equals the dissipation density pointwise."""
        params = FluidParams(p=2.7, q=1.5, delta=0.1)
        law = bounded_power_law(1.0, 0.5, 10.0)
        rho = GridField(grid2d, rng.uniform(0.5, 2.0, grid2d.shape))
        a = rng.standard_normal(grid2d.shape)
        b = rng.standard_normal(grid2d.shape)
        Du = np.stack([np.stack([a, b]), np.stack([b, -a])])
        S = stress(law, params, rho, Du)
        contracted = np.einsum("ij...,ij...->...", S, Du)
        diss = dissipation_density(law, params, rho, Du).values
        assert np.allclose(contracted, diss, rtol=1e-12, atol=1e-12)

    def test_dissipation_exact_power_form(self, grid2d, rng):
        params = FluidParams(p=3.0, q=1.5)
        rho = GridField(grid2d, rng.uniform(0.5, 2.0, grid2d.shape))
        a = rng.standard_normal(grid2d.shape)
        Du = make_strain(grid2d, {}) + 0.0
        Du[0, 1] = Du[1, 0] = a
        diss = dissipation_density(constant_law(1.0), params, rho, Du).values
        mag = np.sqrt(strain_magnitude_sq(Du))
        assert np.allclose(diss, mag**3.0, rtol=1e-12)

    def test_frame_indifference(self, rng):
        """Stress magnitude depends on Du only through its Frobenius norm."""
        grid = TorusGrid(2, 8)
        params = FluidParams(p=2.5, q=1.5, delta=0.05)
        law = bounded_power_law(1.0, 0.5, 10.0)
        rho = GridField(grid, rng.uniform(0.5, 2.0, grid.shape))
        a = rng.standard_normal(grid.shape)
        b = rng.standard_normal(grid.shape)
        Du = np.stack([np.stack([a, b]), np.stack([b, -a])])
        theta = 0.61
        c, s = math.cos(theta), math.sin(theta)
        R = np.array([[c, -s], [s, c]])
        RDuRT = np.einsum("ai,ij...,bj->ab...", R, Du, R)
        S1 = stress(law, params, rho, Du)
        S2 = stress(law, params, rho, RDuRT)
        n1 = np.sqrt(np.einsum("ij...,ij...->...", S1, S1))
        n2 = np.sqrt(np.einsum("ij...,ij...->...", S2, S2))
        assert np.abs(n1 - n2).max() <= 1e-10 * max(1.0, n1.max())

    @given(
        scale=st.floats(0.1, 3.0),
        factor=st.floats(1.0, 5.0),
        p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    )
    def test_monotone_in_strain_magnitude(self, scale, factor, p):
        """|stress| is nondecreasing along a fixed strain direction."""
        grid = TorusGrid(2, 8)
        params = FluidParams(p=p, q=1.5, delta=0.01)
        rho = GridField(grid, np.ones(grid.shape))
        base = make_strain(grid, {(0, 1): 1.0, (0, 0): 0.3, (1, 1): -0.3})
        law = constant_law(1.0)
        S_small = stress(law, params, rho, scale * base)
        S_large = stress(law, params, rho, scale * factor * base)
        mag_small = np.sqrt(np.einsum("ij...,ij...->...", S_small, S_small))
        mag_large = np.sqrt(np.einsum("ij...,ij...->...", S_large, S_large))
        assert np.all(mag_large >= mag_small - 1e-12)

    def test_delta_consistency_quadratic_rate(self, grid2d):
        """stress(delta) - stress(0) shrinks like delta^2 for p >= 2."""
        law = constant_law(1.0)
        rho = GridField(grid2d, np.ones(grid2d.shape))
        Du = make_strain(grid2d, {(0, 1): 0.9, (0, 0): 0.4, (1, 1): -0.4})
        exact = stress(law, FluidParams(p=3.0, q=1.5), rho, Du)
        gaps = []
        for delta in (0.1, 0.05, 0.025):
            S = stress(law, FluidParams(p=3.0, q=1.5, delta=delta), rho, Du)
            gaps.append(np.abs(S - exact).max())
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.15)


KERNEL_M = np.logspace(-2.0, 2.0, 9)


def central_difference(f, m):
    h = 1e-5 * m
    return (f(m + h) - f(m - h)) / (2.0 * h)


class TestKernels:
    """The pointwise power-law kernels and the rule for when delta acts as
    zero. The identities tie the energy density, the stress factor and the
    curvature factor together, so a rescaled form of any one of them must
    keep them."""

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 12.0])
    @pytest.mark.parametrize("delta", [0.0, 1e-4, 0.5])
    def test_lifted_power_derivative_is_the_stress_factor(self, p, delta):
        slope = central_difference(lambda m: _lifted_power(m, p, delta), KERNEL_M)
        assert np.allclose(slope, 0.5 * p * _power_factor(KERNEL_M, p, delta), rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 12.0])
    @pytest.mark.parametrize("delta", [0.0, 1e-4, 0.5])
    def test_stress_factor_derivative_is_the_curvature_factor(self, p, delta):
        slope = central_difference(lambda m: _power_factor(m, p, delta), KERNEL_M)
        expected = 0.5 * (p - 2.0) * _curvature_factor(KERNEL_M, p, delta)
        assert np.allclose(slope, expected, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("p", [4.0, 12.0])
    def test_lifted_power_at_delta_is_free_of_cancellation(self, p):
        """(delta^2 + m)^{p/2} - delta^p at m << delta^2 is about
        (p/2) delta^{p-2} m, not rounding dust."""
        m = np.array([1e-20, 1e-12])
        assert np.allclose(_lifted_power(m, p, 0.5), 0.5 * p * 0.5 ** (p - 2.0) * m, rtol=1e-6)

    def test_acts_as_zero_where_the_square_underflows(self):
        assert [_acts_as_zero(d) for d in (0.0, 1e-200, 1e-170, 1.5e-162)] == [True] * 4
        assert [_acts_as_zero(d) for d in (1.6e-162, 1e-160, 1e-4)] == [False] * 3
        assert _singular(1.5, 1e-170) and _singular(1.5, 0.0)
        assert not _singular(1.5, 1e-160) and not _singular(3.0, 0.0)

    @pytest.mark.parametrize("delta", [0.0, 1e-170, 1e-200])
    def test_negative_powers_vanish_with_the_strain(self, delta):
        """Where delta acts as zero the e < 0 powers and the strain share
        take their limit 0 at m = 0, bit for bit as at delta = 0."""
        m = np.array([0.0, 0.25, 4.0])
        for p in (1.5, 3.0):
            for kernel in (_power_factor, _curvature_factor, _lifted_power):
                out = kernel(m, p, delta)
                assert out.tobytes() == kernel(m, p, 0.0).tobytes()
            assert _curvature_factor(m, p, delta)[0] == 0.0
        assert _power_factor(m, 1.5, delta)[0] == 0.0
        assert _strain_share(m, delta).tolist() == [0.0, 1.0, 1.0]

    def test_representable_delta_keeps_the_offset(self):
        m = np.array([0.0])
        assert _power_factor(m, 1.5, 1e-4)[0] == pytest.approx(1e-4 ** -0.5, rel=1e-15)
        assert _curvature_factor(m, 3.0, 1e-4)[0] == pytest.approx(1e4, rel=1e-15)
        assert _strain_share(m, 1e-4)[0] == 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("delta", [1e-170, 1e-200])
    def test_stress_and_dissipation_as_at_delta_zero(self, grid2d, p, delta):
        """A zero strain point gave inf * 0 = nan at p = 1.5 when the
        delta > 0 formula took (delta^2 + 0)^{-1/4}."""
        rho = GridField(grid2d, np.ones(grid2d.shape))
        Du = make_strain(grid2d, {(0, 1): 0.7}) * np.sin(grid2d.coordinate(0))
        law = constant_law(1.0)
        params, zero = FluidParams(p=p, q=1.5, delta=delta), FluidParams(p=p, q=1.5)
        S = stress(law, params, rho, Du)
        diss = dissipation_density(law, params, rho, Du).values
        assert np.all(np.isfinite(S)) and np.all(np.isfinite(diss))
        assert S.tobytes() == stress(law, zero, rho, Du).tobytes()
        assert diss.tobytes() == dissipation_density(law, zero, rho, Du).values.tobytes()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the lifted form delta^p expm1(...) "
                                           "underflows delta^p to 0 while expm1 overflows")
    def test_lifted_power_at_large_p(self):
        with np.errstate(all="ignore"):
            out = _lifted_power(np.array([1.0]), 100.0, 1e-4)[0]
        assert out == pytest.approx(math.exp(50.0 * math.log1p(1e-8)), rel=1e-12)


class TestMonotoneOperatorPointwise:
    @given(
        seed=st.integers(0, 2**31),
        p=st.sampled_from([1.5, 2.0, 2.5, 3.0, 4.0]),
    )
    def test_pairing_nonnegative(self, seed, p):
        """(S(A) - S(B)) : (A - B) >= 0 for random symmetric matrices."""
        gen = np.random.default_rng(seed)
        grid = TorusGrid(2, 8)
        params = FluidParams(p=p, q=1.5, delta=0.0 if p >= 2 else 0.01)
        rho = GridField(grid, gen.uniform(0.5, 2.0, grid.shape))
        law = bounded_power_law(1.0, 0.5, 10.0)

        def sym(rng):
            a = rng.standard_normal(grid.shape)
            b = rng.standard_normal(grid.shape)
            c = rng.standard_normal(grid.shape)
            return np.stack([np.stack([a, b]), np.stack([b, c])])

        A, B = sym(gen), sym(gen)
        SA = stress(law, params, rho, A)
        SB = stress(law, params, rho, B)
        pairing = np.einsum("ij...,ij...->...", SA - SB, A - B)
        scale = np.abs(pairing).max()
        assert np.all(pairing >= -1e-12 * max(scale, 1.0))
