"""Ready-made scalar densities and divergence-free velocities.

Everything here is deterministic given a seed. Random fields are built by
masking the transform of white noise, so they are real by construction and
band-limited exactly where claimed.
"""

from __future__ import annotations

import numpy as np

from .errors import _Domain
from .spectral import (
    GridField,
    SpectralField,
    TorusGrid,
    VelocityField,
    k_squared,
    project_div_free,
)


# a band below |k| = 1 holds no mode: the field would be its offset alone
_KMAX = _Domain(low=1.0)


def constant_field(grid: TorusGrid, c: float) -> GridField:
    return GridField(grid, np.full(grid.shape, float(c)))


def sine1_field(grid: TorusGrid, offset: float = 0.0, amp: float = 1.0) -> GridField:
    """offset + amp * sin(x1)."""
    return GridField(grid, offset + amp * np.sin(grid.coordinate(0)))


def sines2_field(grid: TorusGrid, offset: float = 1.0, a: float = 0.5, b: float = 0.25) -> GridField:
    """offset + a sin(x1) + b cos(2 x2), a smooth two-mode datum."""
    x1 = grid.coordinate(0)
    x2 = grid.coordinate(1)
    return GridField(grid, offset + a * np.sin(x1) + b * np.cos(2.0 * x2))


def stratified_field(grid: TorusGrid, offset: float = 2.0, amp: float = 0.5) -> GridField:
    """offset + amp * cos(x_d), a density depending on the last coordinate only."""
    return GridField(grid, offset + amp * np.cos(grid.coordinate(grid.d - 1)))


def _masked_noise(grid: TorusGrid, white: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Masked white noise of shape batch + grid.shape, each field scaled to
    unit sup norm."""
    axes = tuple(range(-grid.d, 0))
    coeffs = np.fft.fftn(white, axes=axes) / grid.npoints * mask
    field = (np.fft.ifftn(coeffs, axes=axes) * grid.npoints).real
    peak = np.abs(field).max(axis=axes, keepdims=True)
    return field / np.where(peak > 0, peak, 1.0)


def random_band_field(grid: TorusGrid, seed, kmax: float, amplitude: float = 1.0,
                      offset: float = 0.0) -> GridField:
    """offset + amplitude * (random zero-mean field band-limited to |k| <= kmax,
    normalized to unit sup norm)."""
    _KMAX.check("kmax", kmax)
    rng = np.random.default_rng(seed)
    k2 = k_squared(grid)
    mask = (k2 > 0) & (k2 <= kmax * kmax)
    f = _masked_noise(grid, rng.standard_normal(grid.shape), mask)
    return GridField(grid, offset + amplitude * f)


def rough_field(grid: TorusGrid, seed, slope: float = -1.1, amplitude: float = 0.5,
                offset: float = 1.0) -> GridField:
    """offset + amplitude * (zero-mean field with power-law coefficient decay
    |k|^slope and random phases, normalized to unit sup norm)."""
    rng = np.random.default_rng(seed)
    k2 = k_squared(grid)
    with np.errstate(divide="ignore"):
        envelope = np.where(k2 > 0, np.sqrt(k2), 1.0) ** slope
    envelope = np.where(k2 > 0, envelope, 0.0)
    f = _masked_noise(grid, rng.standard_normal(grid.shape), envelope)
    return GridField(grid, offset + amplitude * f)


def random_velocities(grid: TorusGrid, seeds, kmax: float, amplitude: float = 1.0) -> list:
    """One divergence-free zero-mean velocity with random band-limited
    components per seed, each member drawn from its own generator; all
    members are transformed and projected together."""
    _KMAX.check("kmax", kmax)
    seeds = list(seeds)
    if not seeds:
        return []
    k2 = k_squared(grid)
    mask = (k2 > 0) & (k2 <= kmax * kmax)
    white = np.stack([np.random.default_rng(seed).standard_normal((grid.d,) + grid.shape)
                      for seed in seeds])
    f = _masked_noise(grid, white, mask)
    coeffs = np.fft.fftn(amplitude * f, axes=tuple(range(-grid.d, 0))) / grid.npoints
    return [VelocityField(tuple(SpectralField(grid, c) for c in member), check=False)
            for member in project_div_free(coeffs, grid)]


def random_velocity(grid: TorusGrid, seed, kmax: float, amplitude: float = 1.0) -> VelocityField:
    """Divergence-free zero-mean velocity with random band-limited components."""
    return random_velocities(grid, [seed], kmax, amplitude)[0]
