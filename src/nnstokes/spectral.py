"""Fourier toolbox for real fields on the periodic box [0, 2pi)^d.

Coefficient convention
----------------------
Spectral coefficients are stored in numpy fft layout, normalized so that
coeff[0, ..., 0] equals the mean of the field:

    F[k] = (1/n^d) sum_x f(x) exp(-i k.x),      f(x) = sum_k F[k] exp(+i k.x).

Wavevectors are integers. For even n the unpaired frequency at index n/2
is kept with the arithmetic value -n/2 wherever only |k| matters (dyadic
filters, truncation); its derivative multiplier is zeroed, the usual
convention for real data, and the divergence-free projection removes such
modes entirely since the strain cannot see them.

The fields are real, so F[-k] = conj(F[k]) and half of the full layout is
redundant. The half layout keeps the rfft half: the last axis is cut to
its first n/2 + 1 indices, the frequencies 0 .. n/2, and every other axis
keeps all n. rfft_coeffs and irfft_values transform real values to and
from it, and the dealiased transforms and the projection work on it. Its
last-axis Nyquist column (index n/2) stands for both fine-grid
frequencies +-n/2 of a padded field: restriction stores the average
0.5 (F[k', n/2] + F[k', -n/2]) of the fine coefficients, and the half
spectrum of a real fine field holds the second term as conj F[-k', n/2].

The solver carries its vectors in the scaled half layout (contract_half,
expand_half): the columns 0 < k_last < n/2, each of which stands for the
mode and its conjugate, are multiplied by sqrt(2); the Nyquist column is
zero on every iterate, since the projection removes the unpaired modes.
Then the real dot product of two scaled stacks is Re sum_k a conj(b) over
the full layout, so every inner product of the solver is a plain dot
product of real views. The scale commutes with every per-mode multiplier;
the solver folds it into the multipliers next to the dealiased
transforms, which take and return the unscaled half.

The module provides transforms, spectral derivatives, the Leray projection
onto divergence-free zero-mean fields, dyadic Littlewood-Paley blocks with
their low-frequency companions, sharp Fourier truncation, and Lebesgue and
Besov norm computation by rectangle-rule quadrature.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import _EXPONENT, _FINITE, NonHermitianField, _check_fields, _Domain, _field

TWO_PI = 2.0 * math.pi

_HERMITIAN_RTOL = 1e-9

_DIMENSION = _Domain(low=2, high=3, integer=True, text="a dimension of 2 or 3")


@dataclass(frozen=True)
class TorusGrid:
    """Uniform tensor grid on [0, 2pi)^d with n points per axis.

    n must be a power of two, at least 8, so that dyadic frequency
    manipulations and the 3/2-rule padding stay exact integer arithmetic.
    """

    d: int = _field(domain=_DIMENSION)
    n: int = _field(low=8, integer=True, test=lambda n: (int(n) & (int(n) - 1)) == 0,
                    text="a power of two >= 8")

    def __post_init__(self):
        _check_fields(self)

    @property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def npoints(self) -> int:
        return self.n ** self.d

    def axis_coordinates(self) -> np.ndarray:
        return np.arange(self.n) * self.h

    def coordinate(self, axis: int) -> np.ndarray:
        """Coordinate of every grid node along one axis, broadcast to the grid shape."""
        x = self.axis_coordinates()
        shape = [1] * self.d
        shape[axis] = self.n
        return np.broadcast_to(x.reshape(shape), self.shape)


def _check_grid(grid: TorusGrid, fields, what: str, target: str):
    """ValueError naming both grids unless each of fields lives on grid;
    what names such a field, and target the owner of grid."""
    for f in fields:
        if f.grid != grid:
            raise ValueError(f"{what} on {f.grid} was given for {target} on {grid}")


class GridField:
    """Real point values on a TorusGrid, row-major."""

    def __init__(self, grid: TorusGrid, values: np.ndarray, check: bool = True):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if check and not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        self.grid = grid
        self.values = values

    def mean(self) -> float:
        return float(self.values.mean())


class SpectralField:
    """Normalized Fourier coefficients of a real scalar field."""

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.shape:
            raise ValueError(f"coeffs shape {coeffs.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.coeffs = coeffs


class VelocityField:
    """d spectral components constrained divergence-free with zero mean.

    A velocity is a value: its coefficients cannot be written after
    construction. They are one read-only stack of shape (d,) + grid.shape,
    copied from the given components; coeff_stack() returns it, and
    components are read-only SpectralField views of its rows. Those views,
    its grid values (grid_stack) and its 3/2-rule fine-grid values
    (fine_stack, of shape (d,) + (3n/2,)*d) are each made at most once, on
    first use, and kept read-only. The slot departures holds None or the
    semi-Lagrangian scheme's last key (substep length, drift) with the
    read-only cubic-spline stencil of the departure points it traced for
    that key, 4d + 1 numbers per grid point; a step with another key
    replaces it.
    """

    def __init__(self, components, check: bool = True):
        components = tuple(components)
        if not components:
            raise ValueError("a velocity needs its components, got none")
        grid = components[0].grid
        if len(components) != grid.d:
            raise ValueError(f"need {grid.d} components, got {len(components)}")
        _check_grid(grid, components, "a component", "a velocity")
        self._stack = _read_only(np.array([c.coeffs for c in components]))
        self.grid = grid
        self.departures = None
        if check:
            self.validate()

    @cached_property
    def components(self) -> tuple:
        return tuple(SpectralField(self.grid, c) for c in self._stack)

    def validate(self, tol: float = 1e-12):
        if not np.all(np.isfinite(self._stack)):
            raise ValueError("velocity coefficients must be finite")
        scale = float(np.abs(self._stack).max())
        if scale == 0.0:
            return
        div_max = float(np.abs(sum(k * c for k, c in zip(wave_vectors(self.grid), self._stack))).max())
        kmax = self.grid.n / 2 * math.sqrt(self.grid.d)
        if div_max > tol * scale * kmax:
            raise ValueError(f"velocity is not divergence-free: |k.u| up to {div_max:.3e}")
        mean = float(np.abs(self._stack.reshape(self.grid.d, -1)[:, 0]).max())
        if mean > tol * scale:
            raise ValueError(f"velocity mean is not zero: {mean:.3e}")

    @cached_property
    def grid_stack(self) -> np.ndarray:
        values = np.fft.ifftn(self._stack, axes=tuple(range(-self.grid.d, 0))) * self.grid.npoints
        return _read_only(values.real.copy())

    @cached_property
    def fine_stack(self) -> np.ndarray:
        return _read_only(dealiaser(self.grid.d, self.grid.n).to_fine(self._stack))

    @cached_property
    def half_stack(self) -> np.ndarray:
        """The coefficients in the scaled half layout, the solver's."""
        return _read_only(contract_half(self._stack, self.grid))

    @classmethod
    def from_half_stack(cls, stack: np.ndarray, grid: TorusGrid) -> "VelocityField":
        """The velocity of a coefficient stack in the scaled half layout,
        unchecked. It keeps a copy of stack as its half_stack, so the
        layout round trip gives stack back bit for bit."""
        u = cls(tuple(SpectralField(grid, c) for c in expand_half(stack, grid)), check=False)
        u.half_stack = _read_only(stack.copy())
        return u

    def grid_values(self) -> list:
        """Read-only views of the components' grid values."""
        return list(self.grid_stack)

    def coeff_stack(self) -> np.ndarray:
        return self._stack


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# lattice utilities

_Lattice = namedtuple("_Lattice", "waves derivs k2 k2_safe radius")


@lru_cache(maxsize=32)
def _lattice(d: int, n: int, half: bool = False) -> _Lattice:
    """Read-only lattice tables of one (d, n), in the full layout or the
    half layout, built on first use: the integer wavevectors per axis,
    each shaped to broadcast along its axis, with the unpaired frequency
    at -n/2; the same with it zeroed for differentiation; |k|^2; |k|^2
    with 1 at the zero mode, so that it divides without a mask; and |k|."""
    k1 = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    k1.flags.writeable = False  # and so are its reshaped views
    waves = tuple(k1.reshape((1,) * ax + (n,) + (1,) * (d - 1 - ax)) for ax in range(d))
    if half:
        waves = waves[:-1] + (waves[-1][..., :n // 2 + 1],)
    derivs = tuple(np.where(k == -(n // 2), 0.0, k) for k in waves)
    k2 = sum(k * k for k in waves)
    k2_safe = k2.copy()
    k2_safe[(0,) * d] = 1.0
    table = _Lattice(waves, derivs, k2, k2_safe, np.sqrt(k2))
    for a in derivs + table[2:]:
        a.flags.writeable = False
    return table


def wave_vectors(grid: TorusGrid):
    """Integer wavevector arrays, one per axis, broadcastable to grid shape.

    The unpaired frequency carries its arithmetic value -n/2.
    """
    return _lattice(grid.d, grid.n).waves


def deriv_vectors(grid: TorusGrid):
    """Wavevectors for differentiation: the unpaired frequency is zeroed."""
    return _lattice(grid.d, grid.n).derivs


def k_squared(grid: TorusGrid) -> np.ndarray:
    """|k|^2 over the full lattice (arithmetic Nyquist value)."""
    return _lattice(grid.d, grid.n).k2


@lru_cache(maxsize=32)
def half_scale(n: int) -> np.ndarray:
    """The column scale of the solver's half layout: sqrt(2) where the
    column stands for a mode and its conjugate, 1 at k_last = 0 and n/2."""
    scale = np.full(n // 2 + 1, math.sqrt(2.0))
    scale[[0, -1]] = 1.0
    scale.flags.writeable = False
    return scale


@lru_cache(maxsize=32)
def _negated(n: int, axes: int) -> tuple:
    """The index that reads the first `axes` grid axes of a half-layout
    array at -k (mod n); a last-axis index follows it."""
    neg = -np.arange(n) % n
    return (Ellipsis,) + np.ix_(*[neg] * axes)


def contract_half(stack: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The scaled half layout of full-layout coefficients of real fields,
    with any leading batch axes."""
    return stack[..., :grid.n // 2 + 1] * half_scale(grid.n)


def expand_half(stack: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The full layout of scaled half-layout coefficients: the negative
    last-axis frequencies are the conjugates of the positive ones at -k."""
    n, half = grid.n, grid.n // 2
    out = np.empty(stack.shape[:-1] + (n,), dtype=np.complex128)
    np.divide(stack, half_scale(n), out=out[..., :half + 1])
    np.conjugate(out[_negated(n, grid.d - 1) + (slice(half - 1, 0, -1),)], out=out[..., half + 1:])
    return out


def j_max(grid: TorusGrid) -> int:
    """Largest dyadic block index carrying lattice content."""
    return math.ceil(math.log2(grid.n)) + 1


# ---------------------------------------------------------------------------
# transforms

def to_spectral(f: GridField) -> SpectralField:
    """Forward transform, normalized so coeff(0) is the mean of f."""
    coeffs = np.fft.fftn(f.values) / f.grid.npoints
    return SpectralField(f.grid, coeffs)


def rfft_coeffs(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Half-layout coefficients of real grid values, with any leading batch
    axes; the first n/2 + 1 last-axis columns of to_spectral's."""
    return np.fft.rfftn(values, axes=tuple(range(-grid.d, 0)), norm="forward")


def irfft_values(coeffs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Real grid values of half-layout coefficients, with any leading batch
    axes; the inverse of rfft_coeffs."""
    return np.fft.irfftn(coeffs, s=grid.shape, axes=tuple(range(-grid.d, 0)), norm="forward")


def to_grid(F: SpectralField, check: bool = True) -> GridField:
    """Inverse transform. Rejects coefficients without Hermitian symmetry."""
    values = np.fft.ifftn(F.coeffs) * F.grid.npoints
    if check:
        scale = float(np.abs(values).max())
        imag = float(np.abs(values.imag).max())
        if imag > _HERMITIAN_RTOL * max(scale, 1e-300):
            raise NonHermitianField(
                f"imaginary residue {imag:.3e} exceeds {_HERMITIAN_RTOL:.0e} of field scale"
            )
    return GridField(F.grid, values.real, check=False)


def partial_derivative(F: SpectralField, axis: int) -> SpectralField:
    """Spectral derivative along one axis (multiplier i k_axis, Nyquist zeroed)."""
    k = deriv_vectors(F.grid)[axis]
    return SpectralField(F.grid, F.coeffs * (1j * k))


# ---------------------------------------------------------------------------
# projections and truncations

def leray_project(components) -> VelocityField:
    """Mode-wise projection onto divergence-free fields, zero mode removed.

    Input is a sequence of d SpectralFields (a vector field); output
    satisfies the VelocityField invariants: k.u(k) = 0 and u(0) = 0.
    """
    u = VelocityField(components, check=False)  # d components on one grid
    out = project_div_free(u.coeff_stack(), u.grid)
    return VelocityField(tuple(SpectralField(u.grid, c) for c in out), check=False)


def project_div_free(stack: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Leray projection on a stacked coefficient array of shape (d,) + grid.shape,
    or its half layout (scaled or not: the projection is per mode), with
    any leading batch axes.

    Modes carrying an unpaired frequency index are zeroed outright: their
    derivative multiplier vanishes, so they would be invisible to the strain
    and sit outside the solver's search space.
    """
    d = grid.d
    lattice = _lattice(d, grid.n, stack.shape[-1] != grid.n)
    ks = lattice.waves
    comps = np.moveaxis(stack, -d - 1, 0)
    dot = np.zeros(comps.shape[1:], dtype=np.complex128)
    for j in range(d):
        dot += ks[j] * comps[j]
    # the zero mode divides by 1 here and is zeroed below
    dot /= lattice.k2_safe
    out = np.empty_like(stack)
    for j, out_j in enumerate(np.moveaxis(out, -d - 1, 0)):
        np.multiply(ks[j], dot, out=out_j)
        np.subtract(comps[j], out_j, out=out_j)
    out[(Ellipsis,) + (0,) * d] = 0.0
    for ax in range(d):
        out[(Ellipsis, grid.n // 2) + (slice(None),) * (d - 1 - ax)] = 0.0
    return out


def strain_tensor(u: VelocityField) -> np.ndarray:
    """Symmetric strain (d_i u_j + d_j u_i)/2 as a real array (d, d) + grid.shape."""
    grid = u.grid
    d = grid.d
    ks = deriv_vectors(grid)
    out = np.empty((d, d) + grid.shape)
    for i in range(d):
        for j in range(i, d):
            cij = 0.5j * (ks[i] * u.coeff_stack()[j] + ks[j] * u.coeff_stack()[i])
            sij = np.fft.ifftn(cij).real * grid.npoints
            out[i, j] = sij
            out[j, i] = sij
    return out


def sharp_truncate(F: SpectralField, N: float) -> SpectralField:
    """Zero every mode with |k| > N (Euclidean lattice norm). L2-orthogonal."""
    mask = k_squared(F.grid) <= N * N
    return SpectralField(F.grid, np.where(mask, F.coeffs, 0.0))


# ---------------------------------------------------------------------------
# dyadic decomposition

def _smoothstep(t: np.ndarray) -> np.ndarray:
    """Smooth transition from 0 at t=0 to 1 at t=1 built from exp(-1/t)."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class DyadicCutoff:
    """Radial dyadic profile: chi = 1 on |x| <= 1, chi = 0 on |x| >= 2,
    smooth and monotone in between. The annular profile phi(x) =
    chi(x/2) - chi(x) then satisfies the exact partition

        chi(x) + sum_{j >= 0} phi(x / 2^j) = 1

    by telescoping, since phi(x / 2^j) = chi(x / 2^{j+1}) - chi(x / 2^j).
    """

    def chi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return _smoothstep(2.0 - r)

    def phi(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        return self.chi(0.5 * r) - self.chi(r)


_CUTOFF = DyadicCutoff()


# dyadic indices: any integer for a block, an integer >= 0 for a smoothing
_BLOCK_INDEX = _Domain(integer=True)
_SMOOTHING_INDEX = _Domain(low=0, integer=True)


def lp_block(F: SpectralField, j: int) -> SpectralField:
    """Dyadic block: j = -1 is the low ball chi(|k|), j >= 0 the annulus
    phi(|k| / 2^j) with support 2^j < |k| < 2^{j+2}. Blocks below -1 and
    above j_max vanish."""
    j = _BLOCK_INDEX.check("block index j", j)
    if j <= -2 or j > j_max(F.grid):
        return SpectralField(F.grid, np.zeros(F.grid.shape, dtype=np.complex128))
    r = _lattice(F.grid.d, F.grid.n).radius
    if j == -1:
        mult = _CUTOFF.chi(r)
    else:
        mult = _CUTOFF.phi(r / float(2 ** j))
    return SpectralField(F.grid, F.coeffs * mult)


@lru_cache(maxsize=32)
def _low_pass(d: int, n: int, j: int):
    mult = _CUTOFF.chi(_lattice(d, n).radius / float(2.0 ** (j - 1)))
    mult.flags.writeable = False
    return mult


def low_freq_truncate(F: SpectralField, j: int) -> SpectralField:
    """Smooth low-pass companion of the blocks: identity on |k| <= 2^{j-1},
    zero on |k| >= 2^j, so it converges to the identity as j grows. j is a
    smoothing index, the domain of a config's smoothing.n; from j_max on
    it is the identity."""
    j = min(_SMOOTHING_INDEX.check("smoothing index j", j), j_max(F.grid))
    return SpectralField(F.grid, F.coeffs * _low_pass(F.grid.d, F.grid.n, j))


# ---------------------------------------------------------------------------
# norms

def l2_inner(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Spatial L2 inner product of real fields, or stacks of them, given by
    their normalized coefficients: (2pi)^d Re sum a conj(b) (Parseval)."""
    return TWO_PI ** grid.d * float(np.vdot(b, a).real)


def lebesgue_norm(f: GridField, r: float) -> float:
    """Rectangle-rule L^r norm, (h^d sum |f|^r)^{1/r}; max |f| for r = inf."""
    _EXPONENT.check("Lebesgue exponent", r)
    a = np.abs(f.values)
    if np.isinf(r):
        return float(a.max())
    hd = f.grid.h ** f.grid.d
    return float((hd * np.sum(a ** r)) ** (1.0 / r))


def reciprocal_norm(rho: GridField, sigma: float) -> float:
    """L^sigma norm of 1/rho; +inf when rho comes within 1e-300 of zero."""
    a = np.abs(rho.values)
    if a.min() < 1e-300:
        return math.inf
    return lebesgue_norm(GridField(rho.grid, 1.0 / rho.values, check=False), sigma)


def besov_norm(F: SpectralField, s: float, p: float, r: float) -> float:
    """Nonhomogeneous Besov norm: l^r over j >= -1 of 2^{js} |block_j|_{L^p}."""
    _FINITE.check("Besov regularity index", s)
    _EXPONENT.check("Besov integrability exponent p", p)
    _EXPONENT.check("Besov integrability exponent r", r)
    terms = []
    for j in range(-1, j_max(F.grid) + 1):
        block = lp_block(F, j)
        if not np.any(block.coeffs):
            continue
        norm = lebesgue_norm(to_grid(block, check=False), p)
        terms.append((2.0 ** (j * s)) * norm)
    if not terms:
        return 0.0
    t = np.asarray(terms)
    if np.isinf(r):
        return float(t.max())
    return float((t ** r).sum() ** (1.0 / r))


def bernstein_ratio(F: SpectralField, j: int, p: float) -> float:
    """|grad block_j|_{L^p} / (2^j |block_j|_{L^p}); rejects an empty block."""
    block = lp_block(F, j)
    if not np.any(block.coeffs):
        raise ValueError(f"block {j} of the field is zero")
    grad_sq = np.zeros(F.grid.shape)
    for ax in range(F.grid.d):
        g = to_grid(partial_derivative(block, ax), check=False).values
        grad_sq += g * g
    grad_norm = lebesgue_norm(GridField(F.grid, np.sqrt(grad_sq), check=False), p)
    base_norm = lebesgue_norm(to_grid(block, check=False), p)
    return float(grad_norm / ((2.0 ** j) * base_norm))


# ---------------------------------------------------------------------------
# 3/2-rule padding for dealiased products

def fine_size(n: int) -> int:
    """Quadrature grid size for dealiased products (the 3/2 rule)."""
    return (3 * n) // 2


def _pad_axis(a: np.ndarray, ax: int, n: int, m: int) -> np.ndarray:
    b = np.moveaxis(a, ax, 0)
    out = np.zeros((m,) + b.shape[1:], dtype=np.complex128)
    half = n // 2
    out[:half] = b[:half]
    out[m - (half - 1):] = b[n - (half - 1):]
    # the unpaired frequency splits evenly onto +-n/2 (canonical interpolant)
    out[half] += 0.5 * b[half]
    out[m - half] += 0.5 * b[half]
    return np.moveaxis(out, 0, ax)


def _restrict_axis(a: np.ndarray, ax: int, n: int, m: int) -> np.ndarray:
    b = np.moveaxis(a, ax, 0)
    out = np.zeros((n,) + b.shape[1:], dtype=np.complex128)
    half = n // 2
    out[:half] = b[:half]
    out[n - (half - 1):] = b[m - (half - 1):]
    out[half] = 0.5 * (b[half] + b[m - half])
    return np.moveaxis(out, 0, ax)


def pad_coeffs(coeffs: np.ndarray, m: int) -> np.ndarray:
    """Embed normalized coefficients from an n-grid into an m-grid (m > n);
    the reference for Dealiaser.to_fine."""
    n = coeffs.shape[0]
    out = coeffs
    for ax in range(coeffs.ndim):
        out = _pad_axis(out, ax, n, m)
    return out


def restrict_coeffs(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of pad_coeffs: restrict m-grid coefficients back to the n-grid;
    the reference for Dealiaser.to_coarse."""
    m = coeffs.shape[0]
    out = coeffs
    for ax in range(coeffs.ndim):
        out = _restrict_axis(out, ax, n, m)
    return out


class Dealiaser:
    """3/2-rule transforms for one lattice (d, n), fine size m = 3n/2.

    to_fine maps normalized coefficients in the half layout, with any
    leading batch axes, to real values on the m-grid; it reads only the
    first n/2 + 1 last-axis columns, so a full-layout stack gives the same.
    to_coarse is its adjoint and returns the half layout. For Hermitian
    input they equal ifftn(pad_coeffs(c, m)).real * m^d and the first
    n/2 + 1 last-axis columns of restrict_coeffs(fftn(v) / m^d, n), so the
    unpaired mode is split onto +-n/2 and averaged back; along the last
    axis that average is the Hermitian one of the module docstring. Only
    the half spectrum along the last axis is transformed, and each other
    axis is padded or restricted next to its own transform, so no FFT runs
    over the zero band of the padding.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.m = m = fine_size(n)
        half = n // 2

        def at(ax, index):
            return (Ellipsis, index) + (slice(None),) * (d - 1 - ax)

        # along each axis but the last, the coarse indices below n/2 and
        # above it sit at the same and at the m-shifted fine indices; the
        # unpaired n/2 is split onto the fine +-n/2 and averaged back
        self._axes = tuple((at(ax, slice(0, half)), at(ax, slice(half + 1, None)),
                            at(ax, slice(m - half + 1, None)), at(ax, half), at(ax, m - half))
                           for ax in range(d - 1))

        weight = np.ones((n,) * d)
        for ax in range(d):
            weight[at(ax, half)] *= 0.5
        weight.flags.writeable = False
        # the fine-grid integral of a product of two padded fields, read off
        # the coarse coefficients: each unpaired index halves the weight
        self.nyquist_weight = weight

    def to_fine(self, stack: np.ndarray) -> np.ndarray:
        """Real m-grid values of coarse coefficients of shape batch +
        (n,)*(d-1) + (n/2+1,), or batch + (n,)*d."""
        m, half = self.m, self.n // 2
        src = stack[..., :half + 1]
        for ax, (low, high, fine_high, nyq, nyq_neg) in enumerate(self._axes):
            axis = ax - self.d
            buf = np.zeros(src.shape[:axis] + (m,) + src.shape[axis + 1:], dtype=np.complex128)
            buf[low] = src[low]
            buf[fine_high] = src[high]
            np.multiply(src[nyq], 0.5, out=buf[nyq])
            buf[nyq_neg] = buf[nyq]
            if ax == 0:
                buf[..., half] *= 0.5  # the last axis stores only +n/2 of its split mode
            src = np.fft.ifft(buf, axis=axis, norm="forward")
        return np.fft.irfft(src, n=m, axis=-1, norm="forward")

    def to_coarse(self, values: np.ndarray) -> np.ndarray:
        """Coarse half-layout coefficients of real m-grid values of shape
        batch + (m,)*d; the adjoint of to_fine."""
        d, n, half = self.d, self.n, self.n // 2
        src = np.fft.rfft(values, axis=-1, norm="forward")[..., :half + 1]
        for ax in reversed(range(d - 1)):
            axis = ax - d
            fine = np.fft.fft(src, axis=axis, norm="forward")
            # free the spent input first: the restricted copy then reuses
            # its memory instead of faulting in fresh pages
            del src
            src = np.empty(fine.shape[:axis] + (n,) + fine.shape[axis + 1:], dtype=np.complex128)
            low, high, fine_high, nyq, nyq_neg = self._axes[ax]
            src[low] = fine[low]
            src[high] = fine[fine_high]
            np.add(fine[nyq], fine[nyq_neg], out=src[nyq])
            src[nyq] *= 0.5
        # the last axis holds the fine +n/2 only; its -n/2 at k' is the
        # conjugate of the +n/2 at -k'
        nyquist = src[..., half]
        nyquist += np.conjugate(src[_negated(n, d - 1) + (half,)])
        nyquist *= 0.5
        return src


@lru_cache(maxsize=16)
def dealiaser(d: int, n: int) -> Dealiaser:
    """The shared 3/2-rule engine for one lattice."""
    return Dealiaser(d, n)
