"""Seeded field generators: the batched velocity generator against the
per-component loop it replaced."""

import numpy as np
import pytest

from nnstokes import TorusGrid, random_velocities, random_velocity
from nnstokes.spectral import (
    GridField,
    SpectralField,
    k_squared,
    leray_project,
    to_grid,
    to_spectral,
)


def loop_velocity(grid, seed, kmax, amplitude):
    """Reference: one scalar masked-noise field per component, each drawn
    in turn from the seed's generator, then the Leray projection."""
    rng = np.random.default_rng(seed)
    k2 = k_squared(grid)
    mask = (k2 > 0) & (k2 <= kmax * kmax)
    comps = []
    for _ in range(grid.d):
        white = rng.standard_normal(grid.shape)
        coeffs = to_spectral(GridField(grid, white, check=False)).coeffs * mask
        field = to_grid(SpectralField(grid, coeffs), check=False).values
        peak = np.abs(field).max()
        if peak > 0:
            field = field / peak
        comps.append(to_spectral(GridField(grid, amplitude * field, check=False)))
    return leray_project(comps)


SEEDS = [0, 7, 12345, [3, 4], [1, 2, 3]]


class TestRandomVelocities:
    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_equals_per_seed_loop(self, d, n):
        grid = TorusGrid(d, n)
        batch = random_velocities(grid, SEEDS, kmax=3, amplitude=0.5)
        assert len(batch) == len(SEEDS)
        for seed, u in zip(SEEDS, batch):
            expected = loop_velocity(grid, seed, 3, 0.5).coeff_stack()
            assert np.array_equal(u.coeff_stack(), expected)
            assert np.array_equal(random_velocity(grid, seed, kmax=3, amplitude=0.5).coeff_stack(),
                                  expected)
            u.validate()

    def test_empty_seed_list(self):
        assert random_velocities(TorusGrid(2, 8), [], kmax=3) == []

