"""Acceptance checklist: one test per criterion, one verdict line each.

Every test prints a single [PASS]/[FAIL] line and appends it to
acceptance_report.txt in the repository root, then asserts the verdict.
Criterion 7 runs the `minty` battery: weak-limit pairings along
rho + w/m must end at or below 1e-3 of their m = 1 value, with no step
rising by more than a factor 1.25. For p = 2 the inverse Stokes map is
linear in rho, so each pairing is exactly <Psi(w), phi>/m and the tail
falls at first order in 1/m (p = 3 decays at the same order). The 1e-3
endpoint therefore needs m of order a thousand, and the battery's
sequence m = 4^k, k = 0..6, reaches m = 4096.
"""

import math
import pathlib
import time

import numpy as np
import pytest

from nnstokes import (
    AdvectionScheme,
    FluidParams,
    GridField,
    SimulationConfig,
    SpectralField,
    StokesProblem,
    TorusGrid,
    VelocityField,
    apriori_check,
    besov_norm,
    bounded_power_law,
    constant_law,
    convergence_sweep_n,
    lebesgue_norm,
    parse_config,
    penalty_sweep_N,
    random_band_field,
    random_velocity,
    rough_field,
    run,
    run_battery,
    sines2_field,
    solve_stokes,
    to_spectral,
    velocity_l2_distance,
    velocity_l2_norm,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPORT = ROOT / "acceptance_report.txt"


@pytest.fixture(scope="module", autouse=True)
def fresh_report():
    REPORT.write_text("")
    yield


def verdict(num, name, ok, detail, measured=""):
    """Append the criterion's report line and assert ok. measured, such as
    a wall time, goes to the assertion message only: the tracked report
    holds nothing that changes from run to run."""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    with REPORT.open("a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    assert ok, line + measured


def battery_verdict(num, name, battery):
    result = run_battery(battery, seed=0)
    detail = "; ".join(label for _, label in result.checks)
    verdict(num, name, result.passed, detail)


class TestAcceptance:
    def test_01_newtonian_oracle(self):
        grid = TorusGrid(2, 64)
        x1 = grid.coordinate(0)
        rho = GridField(grid, np.broadcast_to(np.sin(x1), grid.shape).copy())
        prob = StokesProblem(
            rho=rho, params=FluidParams(p=2.0, q=1.5), law=constant_law(1.0)
        )
        t0 = time.perf_counter()
        u, report = solve_stokes(prob, strict=True)
        wall = time.perf_counter() - t0
        zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
        exact = VelocityField(
            (zero, to_spectral(GridField(grid, np.broadcast_to(
                -2.0 * np.sin(x1), grid.shape).copy())))
        )
        rel = velocity_l2_distance(u, exact) / velocity_l2_norm(exact)
        verdict(
            1,
            "newtonian oracle",
            rel <= 1e-8 and wall < 1.0,
            f"rel L2 error {rel:.2e} <= 1e-8, wall < 1s",
            f" (wall {wall:.2f}s)",
        )

    def test_02_energy_balance(self):
        battery_verdict(2, "energy balance", "energy")

    def test_03_monotonicity(self):
        battery_verdict(3, "operator monotonicity", "monotonicity")

    def test_04_uniqueness(self):
        grid = TorusGrid(2, 32)
        p_cycle = (2.0, 3.0, 2.5, 4.0)
        worst = 0.0
        for i in range(10):
            p = p_cycle[i % 4]
            rho = random_band_field(grid, seed=2000 + i, kmax=5,
                                    amplitude=0.5, offset=1.5)
            prob = StokesProblem(
                rho=rho, params=FluidParams(p=p, q=1.5), law=constant_law(1.0)
            )
            u1, _ = solve_stokes(
                prob, u0=random_velocity(grid, seed=3000 + i, kmax=6,
                                         amplitude=1.0), strict=True
            )
            u2, _ = solve_stokes(
                prob, u0=random_velocity(grid, seed=4000 + i, kmax=6,
                                         amplitude=0.3), strict=True
            )
            dist = velocity_l2_distance(u1, u2) / max(velocity_l2_norm(u1), 1e-30)
            worst = max(worst, dist)
        verdict(
            4,
            "uniqueness",
            worst <= 1e-6,
            f"worst relative distance over 10 double solves {worst:.2e} <= 1e-6",
        )

    def test_05_transport_conservation(self):
        grid = TorusGrid(2, 128)
        config = SimulationConfig(
            grid=grid,
            params=FluidParams(p=2.0, q=1.5),
            law=constant_law(1.0),
            rho0=sines2_field(grid, offset=1.5, a=0.4, b=0.3),
            smoothing_n=8,
            scheme=AdvectionScheme("spectral_rk4", dt=0.05, cfl_target=0.5),
            t_final=1.0,
            output_every=0.25,
        )
        t0 = time.perf_counter()
        result = run(config)
        wall = time.perf_counter() - t0
        rho_start = result.snapshots[0][1]
        rho_end = result.snapshots[-1][1]
        worst_drift = 0.0
        for q in (1.2, 2.0, 4.0):
            n0 = lebesgue_norm(rho_start, q)
            worst_drift = max(worst_drift, abs(lebesgue_norm(rho_end, q) - n0) / n0)
        mass_drift = abs(rho_end.mean() - rho_start.mean()) / abs(rho_start.mean())
        ok = (
            result.completed
            and result.snapshots[-1][0] == pytest.approx(1.0)
            and worst_drift <= 1e-3
            and mass_drift <= 1e-12
            and wall <= 300.0
        )
        verdict(
            5,
            "coupled transport conservation",
            ok,
            f"completed={result.completed}, worst L^q drift {worst_drift:.2e} "
            f"<= 1e-3 for q in (1.2, 2, 4), mass drift {mass_drift:.2e} <= 1e-12, "
            "wall <= 300s",
            f" (wall {wall:.1f}s)",
        )

    def test_06_apriori_ratio(self):
        params = FluidParams(p=2.5, q=1.5, gamma=0.5, sigma=2.0, nu_max=10.0)
        law = bounded_power_law(1.0, 0.5, 10.0)
        ratios = {}
        for n in (32, 64):
            grid = TorusGrid(2, n)
            vals = []
            for i in range(20):
                rho = random_band_field(grid, seed=1000 + i, kmax=6,
                                        amplitude=0.75, offset=1.25)
                prob = StokesProblem(rho=rho, params=params, law=law)
                u, _ = solve_stokes(prob, strict=True)
                lhs, rhs = apriori_check(prob, u)
                vals.append(lhs / rhs)
            ratios[n] = np.array(vals)
        spread32 = ratios[32].max() / ratios[32].min()
        spread64 = ratios[64].max() / ratios[64].min()
        doubling = ratios[64] / ratios[32]
        ok = (
            spread32 <= 10.0
            and spread64 <= 10.0
            and doubling.min() >= 0.5
            and doubling.max() <= 2.0
        )
        verdict(
            6,
            "a-priori ratio",
            ok,
            f"ratio spread {spread32:.2f} (n=32), {spread64:.2f} (n=64) <= 10; "
            f"doubling factors in [{doubling.min():.2f}, {doubling.max():.2f}] "
            "within [1/2, 2]",
        )

    def test_07_minty_weak_limit(self):
        battery_verdict(7, "minty weak limit", "minty")

    def test_08_dyadic_analysis(self):
        battery_verdict(8, "dyadic reconstruction and Bernstein", "lp")

    def test_09_besov_embedding(self):
        grid = TorusGrid(2, 64)
        s1, q1, q2, r = 1.0, 2.0, 4.0, 2.0
        s2 = s1 - grid.d * (1.0 / q1 - 1.0 / q2)
        fit = to_spectral(rough_field(grid, seed=7, slope=-1.1,
                                      amplitude=1.0, offset=0.4))
        C0 = besov_norm(fit, s2, q2, r) / besov_norm(fit, s1, q1, r)
        worst = 0.0
        for i in range(100):
            if i % 2 == 0:
                f = rough_field(grid, seed=100 + i, slope=-1.3,
                                amplitude=1.0, offset=0.2)
            else:
                f = random_band_field(grid, seed=100 + i, kmax=20,
                                      amplitude=1.0, offset=0.1)
            F = to_spectral(f)
            Ci = besov_norm(F, s2, q2, r) / besov_norm(F, s1, q1, r)
            worst = max(worst, Ci / C0)
        verdict(
            9,
            "besov embedding constant",
            worst <= 4.0,
            f"constant fitted on one field covers 100 fields within factor "
            f"{worst:.3f} <= 4 (s2 = s1 - d(1/q1 - 1/q2) = {s2:g})",
        )

    def test_10_exponent_classifier(self):
        battery_verdict(10, "exponent classifier table", "exponents")

    def test_11_homogeneity(self):
        grid = TorusGrid(2, 32)
        rho1 = random_band_field(grid, seed=11, kmax=4, amplitude=0.5, offset=1.5)
        rho4 = GridField(grid, 4.0 * rho1.values)
        worst = 0.0
        for p in (2.0, 3.0):
            params = FluidParams(p=p, q=1.5)
            prob1 = StokesProblem(rho=rho1, params=params, law=constant_law(1.0))
            prob4 = StokesProblem(rho=rho4, params=params, law=constant_law(1.0))
            u1, _ = solve_stokes(prob1, strict=True)
            u4, _ = solve_stokes(prob4, strict=True)
            lhs1, _ = apriori_check(prob1, u1)
            lhs4, _ = apriori_check(prob4, u4)
            expect = 4.0 ** (1.0 / (p - 1.0))
            worst = max(worst, abs(lhs4 / lhs1 / expect - 1.0))
        verdict(
            11,
            "degree p-1 homogeneity",
            worst <= 1e-2,
            f"strain norm scales by 4^(1/(p-1)) under rho -> 4 rho within "
            f"{worst:.2e} <= 1e-2 for p in (2, 3)",
        )

    def test_12_shipped_config_sweeps(self):
        configs = ROOT / "configs"
        rough = parse_config((configs / "rough2d.cfg").read_text(),
                             base_dir=str(configs))
        sweep = convergence_sweep_n(rough, (2, 3, 4, 5))
        inc = sweep["increments"]
        inc_ok = all(b < a for a, b in zip(inc, inc[1:]))

        pen = parse_config((configs / "penalized2d.cfg").read_text(),
                           base_dir=str(configs))
        psweep = penalty_sweep_N(pen, (1e2, 1e3, 1e4, 1e5, 1e6))
        dist = psweep["distance"]
        dist_ok = all(b < a for a, b in zip(dist, dist[1:]))
        final_rel = dist[-1] / psweep["u_ref_norm"]
        verdict(
            12,
            "shipped config sweeps",
            inc_ok and dist_ok and final_rel <= 1e-4,
            f"smoothing increments {['%.3e' % v for v in inc]} strictly "
            f"decreasing: {inc_ok}; penalty distances strictly decreasing: "
            f"{dist_ok}, final relative {final_rel:.2e} <= 1e-4",
        )
