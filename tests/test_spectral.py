"""Fourier-side infrastructure tests.

Covers transforms, derivatives, the divergence-free projection, strain,
dyadic block operators, truncations, and the norm computations, each
against hand-computable fields.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nnstokes import (
    AdvectionScheme,
    GridField,
    NonHermitianField,
    SpectralField,
    TorusGrid,
    VelocityField,
    advect_step,
    bernstein_ratio,
    besov_norm,
    j_max,
    lebesgue_norm,
    leray_project,
    low_freq_truncate,
    lp_block,
    partial_derivative,
    reciprocal_norm,
    sharp_truncate,
    speed_sup,
    strain_tensor,
    to_grid,
    to_spectral,
)
from nnstokes import spectral
from nnstokes.fields import random_band_field, random_velocity
from nnstokes.spectral import (
    Dealiaser,
    contract_half,
    dealiaser,
    deriv_vectors,
    expand_half,
    fine_size,
    half_scale,
    irfft_values,
    k_squared,
    l2_inner,
    pad_coeffs,
    project_div_free,
    restrict_coeffs,
    rfft_coeffs,
    wave_vectors,
)

TWO_PI = 2.0 * math.pi


def random_grid_field(grid, seed, amplitude=1.0):
    gen = np.random.default_rng(seed)
    return GridField(grid, amplitude * gen.standard_normal(grid.shape))


def mode_field(grid, index, value=1.0):
    """Spectral field with a single conjugate pair of modes set."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[index] = value
    neg = tuple((-i) % grid.n for i in index)
    coeffs[neg] = np.conj(value)
    return SpectralField(grid, coeffs)


class TestTorusGrid:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            TorusGrid(4, 16)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            TorusGrid(2, 24)
        with pytest.raises(ValueError, match="power of two"):
            TorusGrid(2, 4)

    def test_spacing_and_shape(self, grid2d):
        assert grid2d.shape == (32, 32)
        assert grid2d.npoints == 1024
        assert math.isclose(grid2d.h, TWO_PI / 32)

    def test_coordinate_broadcast(self, grid2d):
        x0 = grid2d.coordinate(0)
        assert x0.shape == grid2d.shape
        assert x0[3, 17] == 3 * grid2d.h


class TestLattice:
    """The cached wavevector tables are shared by every caller, so a write to
    one would corrupt every later solve: they are read-only."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 16])
    def test_tables(self, d, n):
        grid = TorusGrid(d, n)
        ks, kd, k2 = wave_vectors(grid), deriv_vectors(grid), k_squared(grid)
        for ax in range(d):
            shape = (1,) * ax + (n,) + (1,) * (d - 1 - ax)
            assert ks[ax].shape == kd[ax].shape == shape
            assert np.array_equal(ks[ax].ravel(), np.fft.fftfreq(n, 1.0 / n))
            expected = np.where(ks[ax] == -n // 2, 0.0, ks[ax])
            assert np.array_equal(kd[ax], expected) and kd[ax].ravel()[n // 2] == 0.0
        assert k2.shape == grid.shape
        assert np.array_equal(k2, sum(k * k for k in ks))
        for table in (*ks, *kd, k2):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * d] = 1.0
        assert wave_vectors(grid) is ks and deriv_vectors(grid) is kd and k_squared(grid) is k2


class TestTransforms:
    def test_constant_field(self, grid2d):
        """A constant maps to a lone zero-mode coefficient."""
        F = to_spectral(GridField(grid2d, np.full(grid2d.shape, 3.0)))
        assert F.coeffs[0, 0] == pytest.approx(3.0)
        off = F.coeffs.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() < 1e-14

    def test_cosine_mode_pair(self, grid2d):
        f = GridField(grid2d, np.cos(grid2d.coordinate(0)))
        F = to_spectral(f)
        assert F.coeffs[1, 0] == pytest.approx(0.5)
        assert F.coeffs[-1, 0] == pytest.approx(0.5)
        rest = F.coeffs.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_mode_pair_to_cosine(self, grid2d):
        F = mode_field(grid2d, (1, 0), 0.5)
        f = to_grid(F)
        assert np.allclose(f.values, np.cos(grid2d.coordinate(0)), atol=1e-13)

    def test_zero_round_trip(self, grid2d):
        F = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        assert np.all(to_grid(F).values == 0.0)

    def test_rejects_non_hermitian(self, grid2d):
        coeffs = np.zeros(grid2d.shape, dtype=np.complex128)
        coeffs[1, 0] = 1.0
        with pytest.raises(NonHermitianField):
            to_grid(SpectralField(grid2d, coeffs))

    @given(seed=st.integers(0, 2**31))
    def test_round_trip_identity(self, seed):
        grid = TorusGrid(2, 16)
        f = random_grid_field(grid, seed)
        back = to_grid(to_spectral(f))
        scale = np.abs(f.values).max()
        assert np.abs(back.values - f.values).max() <= 1e-12 * max(scale, 1.0)

    @given(seed=st.integers(0, 2**31))
    def test_parseval(self, seed):
        grid = TorusGrid(2, 16)
        f = random_grid_field(grid, seed)
        F = to_spectral(f)
        assert np.mean(f.values**2) == pytest.approx(
            float(np.sum(np.abs(F.coeffs) ** 2)), rel=1e-12
        )


class TestDerivatives:
    def test_cosine_derivative(self, grid2d):
        f = GridField(grid2d, np.cos(grid2d.coordinate(0)))
        df = to_grid(partial_derivative(to_spectral(f), 0))
        assert np.allclose(df.values, -np.sin(grid2d.coordinate(0)), atol=1e-12)

    def test_constant_derivative_vanishes(self, grid2d):
        F = to_spectral(GridField(grid2d, np.full(grid2d.shape, 7.0)))
        for axis in range(2):
            assert np.abs(partial_derivative(F, axis).coeffs).max() < 1e-14

    def test_mixed_partials_commute(self, grid2d):
        F = to_spectral(random_grid_field(grid2d, 5))
        d12 = partial_derivative(partial_derivative(F, 0), 1)
        d21 = partial_derivative(partial_derivative(F, 1), 0)
        scale = np.abs(d12.coeffs).max()
        assert np.abs(d12.coeffs - d21.coeffs).max() <= 1e-15 * scale


class TestLerayProjection:
    def test_kills_gradients(self, grid2d):
        """The projection annihilates spectral gradient fields."""
        pi = to_spectral(random_grid_field(grid2d, 11))
        grad = [partial_derivative(pi, ax) for ax in range(2)]
        u = leray_project(grad)
        assert max(np.abs(c.coeffs).max() for c in u.components) < 1e-12

    def test_divergence_free_input_unchanged(self, grid2d):
        zero = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        f2 = mode_field(grid2d, (1, 0), -0.5j)
        u = leray_project([zero, f2])
        assert np.abs(u.components[0].coeffs).max() < 1e-14
        assert np.allclose(u.components[1].coeffs, f2.coeffs, atol=1e-14)

    def test_zero_mode_removed(self, grid2d):
        comp = to_spectral(GridField(grid2d, np.full(grid2d.shape, 2.0)))
        u = leray_project([comp, comp])
        for c in u.components:
            assert c.coeffs[0, 0] == 0.0

    @given(seed=st.integers(0, 2**31))
    def test_idempotent_and_valid(self, seed):
        grid = TorusGrid(2, 16)
        comps = [to_spectral(random_grid_field(grid, seed + k)) for k in range(2)]
        u = leray_project(comps)
        u.validate(tol=1e-12)
        again = leray_project(u.components)
        for a, b in zip(u.components, again.components):
            assert np.abs(a.coeffs - b.coeffs).max() < 1e-13


def leray_reference(stack, grid):
    """project_div_free as first written: np.where masks the zero mode."""
    ks = wave_vectors(grid)
    k2 = k_squared(grid)
    d = grid.d
    comps = np.moveaxis(stack, -d - 1, 0)
    dot = np.zeros(comps.shape[1:], dtype=np.complex128)
    for j in range(d):
        dot += ks[j] * comps[j]
    with np.errstate(divide="ignore", invalid="ignore"):
        dot = np.where(k2 > 0, dot / k2, 0.0)
    out = np.empty_like(stack)
    for j, out_j in enumerate(np.moveaxis(out, -d - 1, 0)):
        out_j[...] = comps[j] - ks[j] * dot
    out[(Ellipsis,) + (0,) * d] = 0.0
    for ax in range(d):
        out[(Ellipsis, grid.n // 2) + (slice(None),) * (d - 1 - ax)] = 0.0
    return out


class TestProjectDivFree:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_bitwise_equal_to_reference(self, d, n, lead):
        grid = TorusGrid(d, n)
        gen = np.random.default_rng(d * 100 + n)
        shape = lead + (d,) + grid.shape
        stack = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        before = stack.copy()
        out = project_div_free(stack, grid)
        assert out.tobytes() == leray_reference(stack, grid).tobytes()
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 32])
    def test_half_layout_is_the_first_columns(self, d, n):
        """The projection is per mode: on the half layout it gives the first
        n/2 + 1 last-axis columns of the full one, bit for bit."""
        grid = TorusGrid(d, n)
        gen = np.random.default_rng(d + n)
        shape = (2, d) + grid.shape
        stack = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        half = np.ascontiguousarray(stack[..., :n // 2 + 1])
        assert project_div_free(half, grid).tobytes() == \
            np.ascontiguousarray(project_div_free(stack, grid)[..., :n // 2 + 1]).tobytes()


class TestVelocityField:
    def test_no_components_rejected(self):
        """VelocityField(()) used to raise IndexError."""
        with pytest.raises(ValueError, match="components"):
            VelocityField(())

    def test_component_count_must_match_dimension(self, grid2d):
        zero = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        with pytest.raises(ValueError, match="need 2 components, got 3"):
            VelocityField((zero,) * 3)

    def test_in_place_write_raises(self):
        """A velocity's coefficients are one read-only stack. An in-place
        write into a component used to succeed and leave every stored value
        stale: speed_sup kept 0.818 where a fresh velocity gives 2.453."""
        u = random_velocity(TorusGrid(2, 16), seed=1, kmax=4)
        before = speed_sup(u)
        for c in u.components:
            with pytest.raises(ValueError, match="read-only"):
                c.coeffs *= 3
        with pytest.raises(ValueError, match="read-only"):
            u.coeff_stack()[0, 1, 0] = 1.0
        assert speed_sup(u) == before == speed_sup(VelocityField(u.components))

    def test_stack_is_stored_once(self, grid2d):
        """coeff_stack() returns one kept full-layout stack, made on first
        use from the stored half stack, which the components view."""
        u = random_velocity(grid2d, seed=2, kmax=4)
        stack = u.coeff_stack()
        assert stack is u.coeff_stack()
        assert stack.shape == (2,) + grid2d.shape and not stack.flags.writeable
        for c, row in zip(u.components, stack):
            assert c.coeffs.base is stack and np.array_equal(c.coeffs, row)

    def test_callers_arrays_are_copied(self, grid2d):
        """The velocity contracts the given coefficients into its own half
        stack: the caller's arrays keep their flags and share no memory with
        it, and its full layout is the given one to rounding (x * sqrt(2)
        / sqrt(2) need not be x)."""
        raw = [to_spectral(random_grid_field(grid2d, seed)) for seed in (3, 4)]
        coeffs = project_div_free(np.stack([f.coeffs for f in raw]), grid2d)
        given_ = [SpectralField(grid2d, c) for c in coeffs]
        u = VelocityField(given_)
        for f in given_:
            assert f.coeffs.flags.writeable
            assert not np.shares_memory(f.coeffs, u.half_stack)
            assert not np.shares_memory(f.coeffs, u.coeff_stack())
        before, kept = coeffs.copy(), u.half_stack.copy()
        given_[0].coeffs[1, 0] += 1.0
        assert np.array_equal(u.half_stack, kept)
        assert np.abs(u.coeff_stack() - before).max() <= 1e-15 * np.abs(before).max()

    def test_one_half_layout_stack_is_stored(self, grid2d, monkeypatch):
        """A velocity stores one coefficient array, its half_stack in the
        solver's scaled half layout; it used to keep the full layout too.
        from_half_stack keeps one copy of the given stack, and neither it
        nor the grid, fine-grid or SL arrays expand the stack to the full
        layout."""
        def arrays(u):
            return [name for name, a in vars(u).items() if isinstance(a, np.ndarray)]

        u = random_velocity(grid2d, seed=2, kmax=4)
        assert arrays(u) == ["half_stack"]
        assert u.half_stack.shape == (2, 32, 17) and not u.half_stack.flags.writeable
        expanded = []
        monkeypatch.setattr(spectral, "expand_half", lambda *args: expanded.append(args))
        stack = np.array(u.half_stack)
        v = VelocityField.from_half_stack(stack, grid2d)
        assert arrays(v) == ["half_stack"]
        assert np.array_equal(v.half_stack, stack) and not np.shares_memory(v.half_stack, stack)
        speed_sup(v)
        v.fine_stack
        advect_step(GridField(grid2d, np.ones(grid2d.shape)), v, AdvectionScheme("semi_lagrangian"))
        assert expanded == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, grid2d, bad):
        """Every comparison of validate is False for NaN, so a NaN velocity
        used to pass the check."""
        coeffs = np.zeros((2,) + grid2d.shape, dtype=np.complex128)
        coeffs[0, 0, 1] = bad
        comps = [SpectralField(grid2d, c) for c in coeffs]
        with pytest.raises(ValueError, match="velocity coefficients must be finite"):
            VelocityField(comps)
        VelocityField(comps, check=False)  # unchecked, as the solver's own output is

    def test_non_finite_negative_frequency_rejected(self, grid2d):
        """The stored half layout drops the negative last-axis frequencies,
        so the constructor checks the given stack itself."""
        coeffs = np.zeros((2,) + grid2d.shape, dtype=np.complex128)
        coeffs[0, 0, -1] = math.nan
        with pytest.raises(ValueError, match="velocity coefficients must be finite"):
            VelocityField([SpectralField(grid2d, c) for c in coeffs])

    def test_divergence_rejected(self, grid2d):
        f = mode_field(grid2d, (1, 0))  # a mode along axis 0, carried by u_0
        zero = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        with pytest.raises(ValueError, match="velocity is not divergence-free: "
                                             r"\|k\.u\| up to 1\.000e\+00"):
            VelocityField((f, zero))

    def test_mean_rejected(self, grid2d):
        coeffs = np.zeros((2,) + grid2d.shape, dtype=np.complex128)
        coeffs[1, 0, 0] = 0.5
        with pytest.raises(ValueError, match="velocity mean is not zero: 5.000e-01"):
            VelocityField([SpectralField(grid2d, c) for c in coeffs])


class TestFieldShapes:
    def test_grid_values_shape_rejected(self, grid2d):
        with pytest.raises(ValueError, match=r"values shape \(32, 16\) != grid shape \(32, 32\)"):
            GridField(grid2d, np.ones((32, 16)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid_values_rejected(self, grid2d, bad):
        values = np.ones(grid2d.shape)
        values[3, 4] = bad
        with pytest.raises(ValueError, match="grid values must be finite"):
            GridField(grid2d, values)
        GridField(grid2d, values, check=False)

    def test_coeffs_shape_rejected(self, grid2d):
        with pytest.raises(ValueError, match=r"coeffs shape \(32,\) != grid shape \(32, 32\)"):
            SpectralField(grid2d, np.zeros(32, dtype=np.complex128))


class TestStrainTensor:
    def test_zero_velocity(self, grid2d):
        zero = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        u = VelocityField((zero, zero), check=False)
        Du = strain_tensor(u)
        assert np.abs(Du).max() == 0.0

    def test_shear_profile(self, grid2d):
        """u = (sin x2, 0) has off-diagonal strain cos(x2)/2."""
        f1 = to_spectral(GridField(grid2d, np.sin(grid2d.coordinate(1))))
        zero = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        u = leray_project([f1, zero])
        Du = strain_tensor(u)
        expected = 0.5 * np.cos(grid2d.coordinate(1))
        assert np.allclose(Du[0, 1], expected, atol=1e-12)
        assert np.allclose(Du[1, 0], expected, atol=1e-12)
        assert np.abs(Du[0, 0]).max() < 1e-12
        assert np.abs(Du[1, 1]).max() < 1e-12

    @given(seed=st.integers(0, 2**31))
    def test_trace_free(self, seed):
        grid = TorusGrid(2, 16)
        comps = [to_spectral(random_grid_field(grid, seed + k)) for k in range(2)]
        u = leray_project(comps)
        Du = strain_tensor(u)
        trace = Du[0, 0] + Du[1, 1]
        assert np.abs(trace).max() < 1e-10
        assert np.abs(Du[0, 1] - Du[1, 0]).max() < 1e-12


class TestDyadicBlocks:
    @given(seed=st.integers(0, 2**31))
    def test_reconstruction(self, seed):
        """Summing all blocks restores the field."""
        grid = TorusGrid(2, 16)
        F = to_spectral(random_grid_field(grid, seed))
        total = np.zeros(grid.shape, dtype=np.complex128)
        for j in range(-1, j_max(grid) + 1):
            total += lp_block(F, j).coeffs
        scale = np.abs(F.coeffs).max()
        assert np.abs(total - F.coeffs).max() <= 1e-12 * max(scale, 1.0)

    def test_unit_mode_in_low_ball(self, grid2d):
        F = mode_field(grid2d, (1, 0))
        low = lp_block(F, -1)
        assert np.abs(low.coeffs - F.coeffs).max() < 1e-14
        for j in range(0, j_max(grid2d) + 1):
            assert np.abs(lp_block(F, j).coeffs).max() < 1e-14

    def test_block_below_minus_one_is_zero(self, grid2d):
        F = to_spectral(random_grid_field(grid2d, 3))
        assert np.abs(lp_block(F, -2).coeffs).max() == 0.0

    def test_indices_beyond_j_max(self, grid2d):
        """Blocks above j_max vanish and the low pass is the identity from
        j_max on, also where 2^j overflows a float (j >= 1024 used to raise
        OverflowError, and so did a config's smoothing.n = 2000)."""
        F = to_spectral(random_grid_field(grid2d, 3))
        for j in (j_max(grid2d) + 1, 2000, 10 ** 30):
            assert not np.any(lp_block(F, j).coeffs)
            assert np.array_equal(low_freq_truncate(F, j).coeffs, low_freq_truncate(F, j_max(grid2d)).coeffs)
        assert np.array_equal(low_freq_truncate(F, j_max(grid2d)).coeffs, F.coeffs)

    def test_mode_three_touches_blocks_zero_and_one(self, grid2d):
        F = mode_field(grid2d, (3, 0))
        hits = [
            j
            for j in range(-1, j_max(grid2d) + 1)
            if np.abs(lp_block(F, j).coeffs).max() > 1e-14
        ]
        assert hits == [0, 1]

    def test_far_mode_misses_block(self, grid2d):
        # |k| = 8 is at or beyond the upper support edge of block j = 1
        F = mode_field(grid2d, (8, 0))
        assert np.abs(lp_block(F, 1).coeffs).max() < 1e-14


class TestLowFreqTruncate:
    def test_constant_preserved(self, grid2d):
        F = to_spectral(GridField(grid2d, np.full(grid2d.shape, 4.0)))
        for j in range(0, 6):
            S = low_freq_truncate(F, j)
            assert S.coeffs[0, 0] == pytest.approx(4.0)

    def test_identity_at_large_index(self, grid2d):
        F = to_spectral(random_grid_field(grid2d, 9))
        S = low_freq_truncate(F, j_max(grid2d) + 2)
        assert np.abs(S.coeffs - F.coeffs).max() < 1e-14

    @given(seed=st.integers(0, 2**31), j=st.integers(0, 7))
    def test_l2_contraction(self, seed, j):
        grid = TorusGrid(2, 16)
        F = to_spectral(random_grid_field(grid, seed))
        S = low_freq_truncate(F, j)
        assert np.sum(np.abs(S.coeffs) ** 2) <= np.sum(np.abs(F.coeffs) ** 2) + 1e-15


class TestSharpTruncate:
    def test_idempotent(self, grid2d):
        F = to_spectral(random_grid_field(grid2d, 13))
        once = sharp_truncate(F, 5.0)
        twice = sharp_truncate(once, 5.0)
        assert np.array_equal(once.coeffs, twice.coeffs)

    def test_radius_zero_keeps_mean(self, grid2d):
        f = random_grid_field(grid2d, 17)
        F = to_spectral(f)
        E0 = sharp_truncate(F, 0.0)
        assert E0.coeffs[0, 0] == pytest.approx(f.mean())
        off = E0.coeffs.copy()
        off[0, 0] = 0.0
        assert np.abs(off).max() == 0.0

    def test_l2_contraction(self, grid2d):
        F = to_spectral(random_grid_field(grid2d, 19))
        E = sharp_truncate(F, 3.0)
        assert np.sum(np.abs(E.coeffs) ** 2) <= np.sum(np.abs(F.coeffs) ** 2)


class TestLebesgueNorm:
    def test_constant(self, grid2d):
        f = GridField(grid2d, np.full(grid2d.shape, -2.0))
        assert lebesgue_norm(f, 3.0) == pytest.approx(2.0 * TWO_PI ** (2.0 / 3.0))

    def test_cosine_l2(self, grid2d):
        """L2 norm of cos(x1) on the 2-torus is sqrt(2 pi^2)."""
        f = GridField(grid2d, np.cos(grid2d.coordinate(0)))
        assert lebesgue_norm(f, 2.0) == pytest.approx(math.sqrt(2.0 * math.pi**2))

    def test_sup_norm(self, grid2d):
        f = GridField(grid2d, np.cos(grid2d.coordinate(0)))
        assert lebesgue_norm(f, math.inf) == pytest.approx(1.0)

    def test_rejects_small_exponent(self, grid2d):
        f = GridField(grid2d, np.ones(grid2d.shape))
        with pytest.raises(ValueError, match="exponent"):
            lebesgue_norm(f, 0.5)

    @given(seed=st.integers(0, 2**31))
    def test_monotone_after_measure_normalization(self, seed):
        grid = TorusGrid(2, 16)
        f = random_grid_field(grid, seed)
        vol = TWO_PI**grid.d
        normalized = [lebesgue_norm(f, r) / vol ** (1.0 / r) for r in (1.2, 2.0, 4.0)]
        for a, b in zip(normalized, normalized[1:]):
            assert a <= b * (1.0 + 1e-12)


class TestReciprocalNorm:
    def test_constant_sup(self, grid2d):
        f = GridField(grid2d, np.full(grid2d.shape, 2.0))
        assert reciprocal_norm(f, math.inf) == pytest.approx(0.5)

    def test_zero_node_gives_infinity(self, grid2d):
        values = np.ones(grid2d.shape)
        values[0, 0] = 0.0
        assert reciprocal_norm(GridField(grid2d, values), 2.0) == math.inf

    def test_cosine_profile_integral(self):
        """Matches the classical integral of dx / (1 + 0.5 cos x)."""
        grid = TorusGrid(2, 256)
        f = GridField(grid, 1.0 + 0.5 * np.cos(grid.coordinate(0)))
        expected = TWO_PI * (TWO_PI / math.sqrt(0.75))
        assert reciprocal_norm(f, 1.0) == pytest.approx(expected, rel=1e-10)


class TestBesovNorm:
    def test_constant_field(self, grid2d):
        F = to_spectral(GridField(grid2d, np.full(grid2d.shape, 3.0)))
        s, p = 1.5, 2.0
        expected = 2.0 ** (-s) * 3.0 * TWO_PI ** (2.0 / p)
        assert besov_norm(F, s, p, 2.0) == pytest.approx(expected)

    def test_rejects_bad_exponents(self, grid2d):
        F = to_spectral(random_grid_field(grid2d, 23))
        with pytest.raises(ValueError):
            besov_norm(F, 0.0, 0.5, 2.0)

    @pytest.mark.parametrize("s, p, r", [(math.nan, 2.0, 2.0), (math.inf, 2.0, 2.0),
                                         (-math.inf, 2.0, 2.0), (0.0, math.nan, 2.0),
                                         (0.0, 2.0, math.nan)])
    def test_rejects_non_finite_index_and_nan_exponents(self, grid2d, s, p, r):
        F = to_spectral(random_grid_field(grid2d, 23))
        with pytest.raises(ValueError):
            besov_norm(F, s, p, r)

    def test_infinite_summation_exponent_allowed(self, grid2d):
        F = to_spectral(random_grid_field(grid2d, 23))
        assert math.isfinite(besov_norm(F, 0.5, 2.0, math.inf))

    def test_zero_field(self, grid2d):
        F = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        assert besov_norm(F, 1.0, 2.0, 2.0) == 0.0

    def test_b022_comparable_to_l2(self):
        grid = TorusGrid(2, 32)
        for seed in range(20):
            f = random_band_field(grid, seed=seed, kmax=10, amplitude=1.0)
            F = to_spectral(f)
            b = besov_norm(F, 0.0, 2.0, 2.0)
            l2 = lebesgue_norm(f, 2.0)
            assert b / l2 <= 2.0
            assert b / l2 >= 0.5


class TestBernsteinRatio:
    def test_pure_mode_ratio_two(self, grid2d):
        # |k| = 4 lives in block 1, whose reference frequency is 2
        F = mode_field(grid2d, (4, 0))
        assert bernstein_ratio(F, 1, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_constant_low_block(self, grid2d):
        F = to_spectral(GridField(grid2d, np.full(grid2d.shape, 5.0)))
        assert bernstein_ratio(F, -1, math.inf) == pytest.approx(0.0, abs=1e-12)

    def test_empty_block_rejected(self, grid2d):
        F = mode_field(grid2d, (1, 0))
        with pytest.raises(ValueError, match="zero"):
            bernstein_ratio(F, 3, 2.0)

    def test_random_fields_within_bracket(self):
        grid = TorusGrid(2, 32)
        for seed in range(10):
            F = to_spectral(random_grid_field(grid, 100 + seed))
            for j in range(0, j_max(grid) + 1):
                block = lp_block(F, j)
                if not np.any(block.coeffs):
                    continue
                ratio = bernstein_ratio(F, j, 2.0)
                assert 0.25 <= ratio <= 4.0


class TestJmax:
    def test_values(self):
        assert j_max(TorusGrid(2, 32)) == 6
        assert j_max(TorusGrid(2, 128)) == 8
        assert j_max(TorusGrid(3, 8)) == 4


class TestDealiaser:
    """The 3/2-rule engine against the per-axis reference padding."""

    BATCH = (2, 3)

    def hermitian_stack(self, d, n, seed):
        """Coefficients of real random fields: every Nyquist mode is nonzero."""
        gen = np.random.default_rng(seed)
        values = gen.standard_normal(self.BATCH + (n,) * d)
        coeffs = np.fft.fftn(values, axes=tuple(range(-d, 0))) / n ** d
        assert np.abs(coeffs[..., n // 2]).min() > 0.0
        return coeffs

    def members(self, stack, d):
        return stack.reshape((-1,) + stack.shape[-d:])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_reference(self, d, n):
        engine = dealiaser(d, n)
        m = fine_size(n)
        coeffs = self.hermitian_stack(d, n, seed=n + d)
        fine = engine.to_fine(coeffs)
        ref = np.stack([np.fft.ifftn(pad_coeffs(c, m)).real * m ** d
                        for c in self.members(coeffs, d)])
        assert fine.shape == self.BATCH + (m,) * d
        assert np.abs(self.members(fine, d) - ref).max() <= 1e-14 * np.abs(ref).max()

        values = np.random.default_rng(n - d).standard_normal(self.BATCH + (m,) * d)
        coarse = engine.to_coarse(values)
        ref = np.stack([restrict_coeffs(np.fft.fftn(v) / m ** d, n)
                        for v in self.members(values, d)])[..., :n // 2 + 1]
        assert coarse.shape == self.BATCH + (n,) * (d - 1) + (n // 2 + 1,)
        assert np.abs(self.members(coarse, d) - ref).max() <= 1e-14 * np.abs(ref).max()
        # the last-axis Nyquist column is the Hermitian average of the fine +-n/2
        assert np.abs(coarse[..., n // 2]).min() > 0.0

    @pytest.mark.parametrize("d", [2, 3])
    def test_nyquist_column_is_averaged(self, d):
        """A fine field made of the single last-axis mode exp(i (n/2) x_d) at
        k' has its coarse Nyquist column at k' and -k' (each half of the
        real field's +-n/2 pair), not at k' alone."""
        n = 8
        engine = dealiaser(d, n)
        m = fine_size(n)
        x = np.ix_(*[np.arange(m) * TWO_PI / m] * d)
        coarse = engine.to_coarse(np.broadcast_to(np.cos(x[0] + (n // 2) * x[-1]), (m,) * d))
        lead = (1,) + (0,) * (d - 2)
        expected = np.zeros((n,) * (d - 1), dtype=np.complex128)
        expected[lead] = expected[tuple(-i % n for i in lead)] = 0.25
        assert np.abs(coarse[..., n // 2] - expected).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_adjoint(self, d, n):
        """sum_x to_fine(c) v = m^d Re sum_k c conj(to_coarse(v)), the sum over
        the full layout taken as the real dot product of the scaled half
        layouts."""
        engine = dealiaser(d, n)
        m = fine_size(n)
        grid = TorusGrid(d, n)
        coeffs = self.hermitian_stack(d, n, seed=2 * n + d)
        values = np.random.default_rng(n + 7 * d).standard_normal(self.BATCH + (m,) * d)
        half = contract_half(coeffs, grid)
        fine = engine.to_fine(half / half_scale(n))
        lhs = float(np.sum(fine * values))
        coarse = engine.to_coarse(values) * half_scale(n)
        rhs = m ** d * float(np.dot(coarse.view(np.float64).ravel(), half.view(np.float64).ravel()))
        assert abs(lhs - rhs) <= 1e-13 * float(np.sum(np.abs(fine * values)))

    @pytest.mark.parametrize("d,n", [(2, 8), (2, 128), (3, 16)])
    def test_scaled_half_dot_is_the_l2_inner_product(self, d, n):
        grid = TorusGrid(d, n)
        a = self.hermitian_stack(d, n, seed=5)
        b = self.hermitian_stack(d, n, seed=6)
        ha, hb = (contract_half(x, grid).view(np.float64).ravel() for x in (a, b))
        assert TWO_PI ** d * float(np.dot(ha, hb)) == pytest.approx(l2_inner(grid, a, b), rel=1e-14)

    @pytest.mark.parametrize("d,n", [(2, 8), (3, 16)])
    def test_layouts_round_trip(self, d, n):
        """expand_half restores the full layout of real fields, and
        rfft_coeffs and irfft_values are the half of to_spectral and the
        inverse of rfft_coeffs."""
        grid = TorusGrid(d, n)
        values = np.random.default_rng(9).standard_normal(self.BATCH + grid.shape)
        full = np.fft.fftn(values, axes=tuple(range(-d, 0))) / n ** d
        back = expand_half(contract_half(full, grid), grid)
        assert np.abs(back - full).max() <= 1e-16 * n ** d * np.abs(full).max()
        half = rfft_coeffs(values, grid)
        assert np.abs(half - full[..., :n // 2 + 1]).max() <= 1e-15 * np.abs(full).max()
        assert np.abs(irfft_values(half, grid) - values).max() <= 1e-14 * np.abs(values).max()

    @pytest.mark.parametrize("d,n", [(2, 8), (2, 32), (3, 16)])
    def test_product_quadrature_from_coefficients(self, d, n):
        """The fine-grid integral of a product of two padded fields is the
        coefficient pairing with weight 1/2 per unpaired index."""
        engine = dealiaser(d, n)
        grid = TorusGrid(d, n)
        a = self.hermitian_stack(d, n, seed=3)
        b = self.hermitian_stack(d, n, seed=4)
        quad = (TWO_PI / engine.m) ** d * float(np.sum(engine.to_fine(a) * engine.to_fine(b)))
        coeff = l2_inner(grid, engine.nyquist_weight * a, b)
        assert coeff == pytest.approx(quad, rel=1e-12)

    @staticmethod
    def held_arrays(obj):
        """Every array an engine holds, in its attributes or their containers."""
        if isinstance(obj, np.ndarray):
            return [obj]
        if isinstance(obj, (tuple, list)):
            return [a for item in obj for a in TestDealiaser.held_arrays(item)]
        if isinstance(obj, dict):
            return TestDealiaser.held_arrays(list(obj.values()))
        if hasattr(obj, "__dict__"):
            return TestDealiaser.held_arrays(list(vars(obj).values()))
        return []

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_outputs_stay_apart_from_engine(self, d, n):
        """No output shares memory with what the engine keeps, and a later
        call leaves earlier outputs as they were."""
        engine = Dealiaser(d, n)
        m = fine_size(n)
        coeffs = self.hermitian_stack(d, n, seed=11)
        values = np.random.default_rng(12).standard_normal(self.BATCH + (m,) * d)
        outputs = [engine.to_fine(coeffs), engine.to_coarse(values),
                   engine.to_fine(coeffs[0]), engine.to_coarse(values[0])]
        copies = [out.copy() for out in outputs]
        engine.to_coarse(2.0 * values)
        engine.to_fine(2.0 * coeffs)
        for out, before in zip(outputs, copies):
            assert not any(np.shares_memory(out, held) for held in self.held_arrays(engine))
            assert np.array_equal(out, before)

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_interleaved_batch_sizes(self, d, n):
        """Calls with changing batch sizes give bit for bit what a fresh
        engine gives, and match the reference padding and restriction."""
        engine = dealiaser(d, n)
        m = fine_size(n)
        gen = np.random.default_rng(13)
        for size in (3, 1, 10, 2, 7, 1, 5, 10, 4, 9, 6, 8):
            values = np.fft.fftn(gen.standard_normal((size,) + (n,) * d), axes=tuple(range(-d, 0)))
            coeffs = values / n ** d
            fine = engine.to_fine(coeffs)
            assert np.array_equal(fine, Dealiaser(d, n).to_fine(coeffs))
            ref = np.stack([np.fft.ifftn(pad_coeffs(c, m)).real * m ** d for c in coeffs])
            assert np.abs(fine - ref).max() <= 1e-14 * np.abs(ref).max()
            values = gen.standard_normal((size,) + (m,) * d)
            coarse = engine.to_coarse(values)
            assert np.array_equal(coarse, Dealiaser(d, n).to_coarse(values))
            ref = np.stack([restrict_coeffs(np.fft.fftn(v) / m ** d, n) for v in values])[..., :n // 2 + 1]
            assert np.abs(coarse - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_engine_is_shared_per_lattice(self):
        assert dealiaser(2, 16) is dealiaser(2, 16)
        assert dealiaser(2, 16) is not dealiaser(3, 16)
