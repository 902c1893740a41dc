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

The module provides transforms, spectral derivatives, the Leray projection
onto divergence-free zero-mean fields, dyadic Littlewood-Paley blocks with
their low-frequency companions, sharp Fourier truncation, and Lebesgue and
Besov norm computation by rectangle-rule quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonHermitianField

TWO_PI = 2.0 * math.pi

_HERMITIAN_RTOL = 1e-9


@dataclass(frozen=True)
class TorusGrid:
    """Uniform tensor grid on [0, 2pi)^d with n points per axis.

    n must be a power of two, at least 8, so that dyadic frequency
    manipulations and the 3/2-rule padding stay exact integer arithmetic.
    """

    d: int
    n: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")

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
    """d spectral components constrained divergence-free with zero mean."""

    def __init__(self, components, check: bool = True):
        components = tuple(components)
        grid = components[0].grid
        if len(components) != grid.d:
            raise ValueError(f"need {grid.d} components, got {len(components)}")
        for c in components:
            if c.grid != grid:
                raise ValueError("all components must share one grid")
        self.components = components
        self.grid = grid
        if check:
            self.validate()

    def validate(self, tol: float = 1e-12):
        ks = wave_vectors(self.grid)
        scale = max(float(np.abs(c.coeffs).max()) for c in self.components)
        if scale == 0.0:
            return
        div = sum(k * c.coeffs for k, c in zip(ks, self.components))
        div_max = float(np.abs(div).max())
        kmax = self.grid.n / 2 * math.sqrt(self.grid.d)
        if div_max > tol * scale * kmax:
            raise ValueError(f"velocity is not divergence-free: |k.u| up to {div_max:.3e}")
        mean = max(float(abs(c.coeffs.flat[0])) for c in self.components)
        if mean > tol * scale:
            raise ValueError(f"velocity mean is not zero: {mean:.3e}")

    def grid_values(self) -> list:
        return [to_grid(c, check=False).values for c in self.components]

    def coeff_stack(self) -> np.ndarray:
        return np.stack([c.coeffs for c in self.components])


# ---------------------------------------------------------------------------
# lattice utilities

@lru_cache(maxsize=32)
def _wave_vectors_cached(d: int, n: int):
    k1 = np.fft.fftfreq(n, d=1.0 / n)  # 0, 1, ..., n/2-1, -n/2, ..., -1
    out = []
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        arr = k1.reshape(shape).copy()
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


def wave_vectors(grid: TorusGrid):
    """Integer wavevector arrays, one per axis, broadcastable to grid shape.

    The unpaired frequency carries its arithmetic value -n/2.
    """
    return _wave_vectors_cached(grid.d, grid.n)


@lru_cache(maxsize=32)
def _deriv_vectors_cached(d: int, n: int):
    out = []
    for k in _wave_vectors_cached(d, n):
        m = k.copy()
        m[m == -(n // 2)] = 0.0
        m.flags.writeable = False
        out.append(m)
    return tuple(out)


def deriv_vectors(grid: TorusGrid):
    """Wavevectors for differentiation: the unpaired frequency is zeroed."""
    return _deriv_vectors_cached(grid.d, grid.n)


@lru_cache(maxsize=32)
def _k_squared_cached(d: int, n: int):
    ks = _wave_vectors_cached(d, n)
    k2 = np.zeros((n,) * d)
    for k in ks:
        k2 = k2 + k * k
    k2.flags.writeable = False
    return k2


def k_squared(grid: TorusGrid) -> np.ndarray:
    """|k|^2 over the full lattice (arithmetic Nyquist value)."""
    return _k_squared_cached(grid.d, grid.n)


@lru_cache(maxsize=32)
def _k_squared_safe_cached(d: int, n: int):
    """|k|^2 with 1 at the zero mode, so that it divides without a mask."""
    k2 = _k_squared_cached(d, n).copy()
    k2[(0,) * d] = 1.0
    k2.flags.writeable = False
    return k2


def j_max(grid: TorusGrid) -> int:
    """Largest dyadic block index carrying lattice content."""
    return math.ceil(math.log2(grid.n)) + 1


# ---------------------------------------------------------------------------
# transforms

def to_spectral(f: GridField) -> SpectralField:
    """Forward transform, normalized so coeff(0) is the mean of f."""
    coeffs = np.fft.fftn(f.values) / f.grid.npoints
    return SpectralField(f.grid, coeffs)


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
    components = tuple(components)
    grid = components[0].grid
    stack = np.stack([c.coeffs for c in components])
    out = project_div_free(stack, grid)
    return VelocityField(tuple(SpectralField(grid, c) for c in out), check=False)


def project_div_free(stack: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Leray projection on a stacked coefficient array of shape (d,) + grid.shape,
    with any leading batch axes.

    Modes carrying an unpaired frequency index are zeroed outright: their
    derivative multiplier vanishes, so they would be invisible to the strain
    and sit outside the solver's search space.
    """
    ks = wave_vectors(grid)
    d = grid.d
    comps = np.moveaxis(stack, -d - 1, 0)
    dot = np.zeros(comps.shape[1:], dtype=np.complex128)
    for j in range(d):
        dot += ks[j] * comps[j]
    # the zero mode divides by 1 here and is zeroed below
    dot /= _k_squared_safe_cached(d, grid.n)
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
            cij = 0.5j * (ks[i] * u.components[j].coeffs + ks[j] * u.components[i].coeffs)
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


@lru_cache(maxsize=32)
def _lattice_radius(d: int, n: int):
    r = np.sqrt(_k_squared_cached(d, n))
    r.flags.writeable = False
    return r


def lp_block(F: SpectralField, j: int) -> SpectralField:
    """Dyadic block: j = -1 is the low ball chi(|k|), j >= 0 the annulus
    phi(|k| / 2^j) with support 2^j < |k| < 2^{j+2}. Blocks below -1 vanish."""
    if j <= -2:
        return SpectralField(F.grid, np.zeros(F.grid.shape, dtype=np.complex128))
    r = _lattice_radius(F.grid.d, F.grid.n)
    if j == -1:
        mult = _CUTOFF.chi(r)
    else:
        mult = _CUTOFF.phi(r / float(2 ** j))
    return SpectralField(F.grid, F.coeffs * mult)


def low_freq_truncate(F: SpectralField, j: int) -> SpectralField:
    """Smooth low-pass companion of the blocks: identity on |k| <= 2^{j-1},
    zero on |k| >= 2^j, so it converges to the identity as j grows."""
    r = _lattice_radius(F.grid.d, F.grid.n)
    mult = _CUTOFF.chi(r / float(2.0 ** (j - 1)))
    return SpectralField(F.grid, F.coeffs * mult)


# ---------------------------------------------------------------------------
# norms

def l2_inner(grid: TorusGrid, a: np.ndarray, b: np.ndarray) -> float:
    """Spatial L2 inner product of real fields, or stacks of them, given by
    their normalized coefficients: (2pi)^d Re sum a conj(b) (Parseval)."""
    return TWO_PI ** grid.d * float(np.vdot(b, a).real)


def lebesgue_norm(f: GridField, r: float) -> float:
    """Rectangle-rule L^r norm, (h^d sum |f|^r)^{1/r}; max |f| for r = inf."""
    if r < 1:
        raise ValueError(f"Lebesgue exponent must be >= 1, got {r}")
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
    if not math.isfinite(s):
        raise ValueError(f"Besov regularity index must be finite, got {s}")
    if not (p >= 1 and r >= 1):
        raise ValueError("Besov integrability exponents must be >= 1")
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

    to_fine maps normalized full-layout coefficients, with any leading batch
    axes, to real values on the m-grid; to_coarse is its adjoint. For
    Hermitian input they equal ifftn(pad_coeffs(c, m)).real * m^d and
    restrict_coeffs(fftn(v) / m^d, n), so the unpaired mode is split onto
    +-n/2 and averaged back. Only the half spectrum along the last axis is
    transformed, and each other axis is padded or restricted next to its
    own transform, so no FFT runs over the zero band of the padding.
    """

    def __init__(self, d: int, n: int):
        self.d = d
        self.n = n
        self.m = m = fine_size(n)
        half = n // 2

        def at(ax, index):
            return (Ellipsis, index) + (slice(None),) * (d - 1 - ax)

        # fine index of each coarse index along an axis, n/2 landing on +n/2
        fine_index = np.r_[0:half + 1, m - half + 1:m]
        self._axes = tuple((at(ax, fine_index), at(ax, half), at(ax, m - half))
                           for ax in range(d - 1))
        neg = (-np.arange(n)) % n
        # k -> -k over every axis but the last, whose order is reversed
        self._mirror = (Ellipsis,) + tuple(
            neg.reshape((n,) + (1,) * (d - 2 - ax)) for ax in range(d - 1)) + (slice(None, None, -1),)

        weight = np.ones((n,) * d)
        for ax in range(d):
            weight[at(ax, half)] *= 0.5
        weight.flags.writeable = False
        # the fine-grid integral of a product of two padded fields, read off
        # the coarse coefficients: each unpaired index halves the weight
        self.nyquist_weight = weight

    def to_fine(self, stack: np.ndarray) -> np.ndarray:
        """Real m-grid values of coarse coefficients of shape batch + (n,)*d."""
        m, half = self.m, self.n // 2
        src = stack[..., :half + 1]
        for ax, (coarse, nyq, nyq_neg) in enumerate(self._axes):
            axis = ax - self.d
            buf = np.zeros(src.shape[:axis] + (m,) + src.shape[axis + 1:], dtype=np.complex128)
            buf[coarse] = src
            buf[nyq] *= 0.5
            buf[nyq_neg] = buf[nyq]
            if ax == 0:
                buf[..., half] *= 0.5  # the last axis stores only +n/2 of its split mode
            src = np.fft.ifft(buf, axis=axis, norm="forward")
        return np.fft.irfft(src, n=m, axis=-1, norm="forward")

    def to_coarse(self, values: np.ndarray) -> np.ndarray:
        """Coarse full-layout coefficients of real m-grid values of shape
        batch + (m,)*d; the adjoint of to_fine."""
        half = self.n // 2
        src = np.fft.rfft(values, axis=-1, norm="forward")[..., :half + 1]
        for ax in reversed(range(self.d - 1)):
            coarse, nyq, nyq_neg = self._axes[ax]
            src = np.fft.fft(src, axis=ax - self.d, norm="forward")
            split = src[nyq] + src[nyq_neg]
            src = src[coarse]
            src[nyq] = 0.5 * split
        # the negative last-axis frequencies follow by Hermitian symmetry
        mirror = np.conj(src[self._mirror])
        src[..., half] = 0.5 * (src[..., half] + mirror[..., 0])
        return np.concatenate([src, mirror[..., 1:-1]], axis=-1)


@lru_cache(maxsize=16)
def dealiaser(d: int, n: int) -> Dealiaser:
    """The shared 3/2-rule engine for one lattice."""
    return Dealiaser(d, n)
