"""Exponent classification, the coupled time stepper, and the sweep drivers."""

import math
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nnstokes import (
    AdvectionScheme,
    CflViolation,
    DiagnosticsSeries,
    FluidParams,
    GridField,
    InadmissibleExponents,
    MaxIterations,
    SimulationConfig,
    SimulationResult,
    SpectralField,
    TorusGrid,
    VelocityField,
    classify_exponents,
    constant_law,
    constant_field,
    convergence_sweep_n,
    j_max,
    lebesgue_norm,
    low_freq_truncate,
    parse_config,
    penalty_sweep_N,
    read_diagnostics,
    read_snapshot,
    run,
    sines2_field,
    smooth_density,
    smooth_velocity,
    solution_diagnostics,
    stratified_field,
    to_spectral,
    velocity_l2_distance,
    velocity_l2_norm,
)
from nnstokes import cli, simulator, spectral, stokes
from nnstokes.fields import random_velocity

ROOT = Path(__file__).resolve().parent.parent


def rk4_scheme(dt=0.05):
    return AdvectionScheme(kind="spectral_rk4", dt=dt, cfl_target=0.5)


def newtonian_config(grid, rho0, **overrides):
    kwargs = dict(
        grid=grid,
        params=FluidParams(p=2.0, q=1.5, d=grid.d),
        law=constant_law(1.0),
        rho0=rho0,
        smoothing_n=j_max(grid),
        scheme=rk4_scheme(),
        t_final=0.2,
        output_every=0.1,
    )
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


class TestClassifyExponents:
    def test_subcritical_example(self):
        verdict = classify_exponents(FluidParams(p=2.0, q=1.5, d=2))
        assert verdict.label == "SubCritical"
        assert verdict.Q == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_critical_example(self):
        verdict = classify_exponents(FluidParams(p=2.0, q=1.2, d=3))
        assert verdict.label == "Critical"
        assert verdict.Q == pytest.approx(1.0, abs=1e-12)
        assert verdict.q_floor == pytest.approx(1.2)
        assert verdict.q_floor_ok

    def test_inadmissible_example(self):
        verdict = classify_exponents(
            FluidParams(p=1.1, q=1.9, sigma=1.0, gamma=2.0, d=2)
        )
        assert verdict.label == "Inadmissible"
        assert verdict.Q == pytest.approx(1.0 / 1.1 * 3.0 + 1.0 / 1.9 - 0.5, rel=1e-12)
        assert verdict.Q > 1.0

    def test_unit_q_fails_floor_in_3d(self):
        """Q = 1 alone is not enough; q must also clear 2d/(d+2)."""
        verdict = classify_exponents(FluidParams(p=33.0 / 14.0, q=1.1, d=3))
        assert abs(verdict.Q - 1.0) <= 1e-12
        assert not verdict.q_floor_ok
        assert verdict.label == "Inadmissible"

    @pytest.mark.parametrize("d,floor", [(2, 1.0), (3, 1.2)])
    def test_q_floor_values(self, d, floor):
        verdict = classify_exponents(FluidParams(p=2.0, q=1.5, d=d))
        assert verdict.q_floor == pytest.approx(floor, abs=1e-14)


class TestSimulationConfig:
    def test_rho0_grid_mismatch(self, grid2d, grid2d_fine):
        grids = r"rho0 on TorusGrid\(d=2, n=64\) was given for a config on TorusGrid\(d=2, n=32\)"
        with pytest.raises(ValueError, match=grids):
            newtonian_config(grid2d, sines2_field(grid2d_fine))

    def test_params_dimension_mismatch(self, grid2d):
        with pytest.raises(ValueError, match="dimension"):
            newtonian_config(
                grid2d,
                sines2_field(grid2d),
                params=FluidParams(p=2.0, q=1.5, d=3),
            )

    def test_negative_horizon(self, grid2d):
        with pytest.raises(ValueError, match="nonnegative"):
            newtonian_config(grid2d, sines2_field(grid2d), t_final=-1.0)

    def test_output_interval_positive(self, grid2d):
        with pytest.raises(ValueError, match="positive"):
            newtonian_config(grid2d, sines2_field(grid2d), output_every=0.0)

    def test_inadmissible_pack_rejected(self, grid2d):
        bad = FluidParams(p=1.1, q=1.9, sigma=1.0, gamma=2.0, d=2)
        with pytest.raises(InadmissibleExponents, match="force"):
            newtonian_config(grid2d, sines2_field(grid2d), params=bad)

    def test_force_overrides_admissibility(self, grid2d):
        bad = FluidParams(p=1.1, q=1.9, sigma=1.0, gamma=2.0, d=2)
        config = newtonian_config(
            grid2d, sines2_field(grid2d), params=bad, force=True
        )
        assert config.force


class TestDiagnosticsSeries:
    ROW = dict(
        t=0.0,
        lq_norm=1.0,
        l2_norm=1.0,
        recip_norm=2.0,
        du_beta=0.5,
        dissipation=0.25,
        work=0.25,
        energy_residual=1e-9,
        iters=12,
    )

    def test_append_and_rows(self):
        series = DiagnosticsSeries()
        series.append(**self.ROW)
        series.append(**{**self.ROW, "t": 0.1})
        assert len(series) == 2
        rows = series.rows()
        assert rows[0] == tuple(self.ROW[name] for name in series._COLUMNS)
        assert rows[1][0] == 0.1

    def test_non_finite_rejected(self):
        series = DiagnosticsSeries()
        with pytest.raises(ValueError, match="non-finite"):
            series.append(**{**self.ROW, "work": math.nan})

    def test_infinite_recip_norm_allowed(self):
        series = DiagnosticsSeries()
        series.append(**{**self.ROW, "recip_norm": math.inf})
        assert series.recip_norm == [math.inf]


class TestRun:
    def test_constant_density_is_a_fixed_point(self, grid2d):
        config = newtonian_config(grid2d, constant_field(grid2d, 1.5))
        result = run(config)
        assert result.completed
        assert result.reason == ""
        final = result.snapshots[-1][1]
        assert np.abs(final.values - 1.5).max() <= 1e-10
        assert max(result.series.du_beta) <= 1e-8
        assert max(result.series.dissipation) <= 1e-12

    def test_stratified_density_is_a_fixed_point(self, grid2d):
        """Forcing aligned with its own gradient projects to zero."""
        rho0 = stratified_field(grid2d)
        config = newtonian_config(grid2d, rho0)
        result = run(config)
        assert result.completed
        final = result.snapshots[-1][1]
        assert np.abs(final.values - rho0.values).max() <= 1e-9
        assert max(result.series.du_beta) <= 1e-8

    def test_newtonian_run_diagnostics(self, grid2d):
        config = newtonian_config(
            grid2d, sines2_field(grid2d), t_final=0.3, output_every=0.1
        )
        result = run(config)
        assert result.completed
        assert len(result.series) == len(result.snapshots) == 4
        assert result.series.t == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-9)
        for (t, rho), t_series, lq in zip(
            result.snapshots, result.series.t, result.series.lq_norm
        ):
            assert t == t_series
            assert lq == pytest.approx(lebesgue_norm(rho, config.params.q), rel=1e-12)
        for it in result.series.iters:
            assert isinstance(it, int) and it >= 0

    def test_energy_residual_column_is_consistent(self, grid2d):
        config = newtonian_config(grid2d, sines2_field(grid2d))
        result = run(config)
        for row in result.series.rows():
            diss = row[5]
            work = row[6]
            eres = row[7]
            assert abs(diss - work) == pytest.approx(
                eres * max(1.0, abs(work)), rel=1e-9, abs=1e-300
            )
            assert eres <= 1e-6

    def test_transported_norms_drift_slowly(self, grid2d_fine):
        config = newtonian_config(
            grid2d_fine, sines2_field(grid2d_fine), t_final=0.2, output_every=0.2
        )
        result = run(config)
        lq = result.series.lq_norm
        assert abs(lq[-1] - lq[0]) / lq[0] <= 1e-6

    def test_non_converged_solve_returns_partial(self, grid2d, monkeypatch):
        stub_report = SimpleNamespace(converged=False, iterations=0)
        monkeypatch.setattr(
            simulator, "_solve", lambda ws, problems, u0: ([(None, stub_report)], None, None)
        )
        config = newtonian_config(grid2d, sines2_field(grid2d))
        result = run(config)
        assert not result.completed
        assert "stalled" in result.reason
        assert len(result.series) == 0
        assert result.snapshots == []

    def test_cfl_violation_keeps_partial_output(self, grid2d, monkeypatch, tmp_path):
        """A CflViolation in the first advection step ends the run with the
        t = 0 row and snapshot, and simulate still writes them (exit 3)."""
        def breakdown(rho, u, scheme, dt=None, vmax=None):
            raise CflViolation("stub breakdown")

        monkeypatch.setattr(simulator, "advect_step", breakdown)
        result = run(newtonian_config(grid2d, sines2_field(grid2d)))
        assert not result.completed
        assert "CFL" in result.reason and "stub breakdown" in result.reason
        assert result.series.t == [0.0]
        assert [t for t, _ in result.snapshots] == [0.0]

        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nd = 2\nn = 16\n[fluid]\np = 2.0\nq = 1.5\n"
                       "[init]\nkind = sines2\nparams = 1.0, 0.5, 0.25\n"
                       "[time]\nT = 0.2\noutput_every = 0.1\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), "--quiet", "--out", str(out)]) == 3
        series = read_diagnostics((out / "diagnostics.csv").read_text())
        assert series.t == [0.0]
        assert sorted(p.name for p in out.iterdir() if p.suffix == ".nnst") == ["snapshot_0000.nnst"]
        _, t0 = read_snapshot(str(out / "snapshot_0000.nnst"))
        assert t0 == 0.0

    @pytest.mark.parametrize("speed", [math.inf, math.nan])
    def test_a_non_finite_speed_is_a_cfl_breakdown(self, grid2d, monkeypatch, speed):
        """An infinite speed gave a CFL cap of 0, so run stepped dt = 0, a
        copy, forever; a NaN speed gave dt = NaN, which advect_step refused
        with a ValueError that was no NnstokesError. Both now end the run
        at t = 0 with its row and snapshot. The step is counted so that a
        loop fails instead of hanging."""
        monkeypatch.setattr(simulator, "speed_sup", lambda u: speed)
        step = simulator.advect_step
        calls = []

        def counted_step(*args, **kwargs):
            calls.append(kwargs.get("dt"))
            if len(calls) > 3:
                raise RuntimeError(f"run keeps stepping: dt = {calls}")
            return step(*args, **kwargs)

        monkeypatch.setattr(simulator, "advect_step", counted_step)
        result = run(newtonian_config(grid2d, sines2_field(grid2d)))
        assert not result.completed
        assert result.reason.startswith("CFL breakdown at t = 0: ")
        assert "too fast" in result.reason
        assert calls == []
        assert result.series.t == [0.0]
        assert [t for t, _ in result.snapshots] == [0.0]


def counted_iterations(monkeypatch):
    """Record the iterations of every solve that run makes."""
    iterations = []
    solve = simulator._solve

    def wrapper(ws, problems, u0):
        results, c, mag2 = solve(ws, problems, u0)
        iterations.append(results[0][1].iterations)
        return results, c, mag2

    monkeypatch.setattr(simulator, "_solve", wrapper)
    return iterations


class TestNewtonianPredictor:
    """Warm solves start from v_prev + M P((rho - rho_prev) g)."""

    def test_newtonian_warm_solves_take_no_iterations(self, grid2d, monkeypatch):
        """At p = 2 with unit viscosity the predictor is the exact
        minimizer (a plain warm start from v_prev took one iteration)."""
        iterations = counted_iterations(monkeypatch)
        result = run(newtonian_config(grid2d, sines2_field(grid2d)))
        assert result.completed
        assert iterations == [0] * 5
        assert result.series.iters == [0, 0, 0]

    def test_penalized_warm_solves_take_no_iterations(self, grid2d, monkeypatch):
        """The predictor uses the penalty's multiplier, so it stays exact."""
        iterations = counted_iterations(monkeypatch)
        result = run(newtonian_config(grid2d, sines2_field(grid2d), penalty=(10.0, 3)))
        assert result.completed
        assert len(iterations) > 1
        assert iterations == [0] * len(iterations)

    def test_power_law_iterations_pinned(self, grid2d, monkeypatch):
        """p = 3: the five solves take 63 iterations in all (64 before the
        ray-scaled cold start and the formed first trials, 68 with a plain
        warm start from v_prev)."""
        iterations = counted_iterations(monkeypatch)
        result = run(newtonian_config(grid2d, sines2_field(grid2d),
                                      params=FluidParams(p=3.0, q=1.5, d=2)))
        assert result.completed
        assert len(iterations) == 5
        assert sum(iterations) == 63

    # newtonian2d.cfg at n = 32, recorded with the plain warm start from v_prev
    PARENT_CSV = {
        "lq_norm": [17.633887763402566, 17.63388772024247, 17.63388768024002,
                    17.63388764267205, 17.63388760665772],
        "l2_norm": [9.683038872706693, 9.683038828028279, 9.683038786071787,
                    9.683038746201992, 9.683038707597786],
        "recip_norm": [1.25, 1.2499863262187674, 1.2499279761922772,
                       1.2497620331240658, 1.2493827209386474],
        "du_beta": [2.513274122871834, 2.516640426703458, 2.5279657959455006,
                    2.5445640290853118, 2.5629089946524077],
        "dissipation": [6.316546816697188, 6.333479037318164, 6.3906110654703685,
                        6.4748060981148745, 6.5685025148702145],
        "work": [6.3165468166971905, 6.333479037318164, 6.3906110654703685,
                 6.474806098114874, 6.5685025148702145],
    }

    def test_shipped_config_csv_within_stated_tolerance(self, tmp_path):
        """The CSV columns move by rounding only: 1e-13 relative, the energy
        residual stays at rounding level and iters reads 0 after row 0."""
        text = (ROOT / "configs" / "newtonian2d.cfg").read_text().replace("n = 128", "n = 32")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), "--quiet", "--out", str(out)]) == 0
        series = read_diagnostics((out / "diagnostics.csv").read_text())
        for name, expected in self.PARENT_CSV.items():
            assert getattr(series, name) == pytest.approx(expected, rel=1e-13, abs=0), name
        assert max(series.energy_residual) <= 1e-12
        assert series.iters == [0, 0, 0, 0, 0]


class TestSingularCoupledRun:
    """newtonian2d.cfg with p = 1.5 at n = 32, T = 0.5: each solve minimizes
    the delta = 1e-4 energy once from the Newtonian predictor."""

    # recorded with the delta = 1e-1 ... 1e-4 continuation ladder, whose three
    # solves took 82, 105 and 103 iterations
    LADDER_CSV = {
        "t": [0.0, 0.25, 0.5],
        "lq_norm": [17.633887763402566, 17.63388774721733, 17.633887731063204],
        "l2_norm": [9.683038872706693, 9.683038855983712, 9.683038839238511],
        "recip_norm": [1.25, 1.242658500614169, 1.2496755314366301],
        "du_beta": [2.0953182808916884, 2.0959005656613883, 2.0988223724500354],
        "dissipation": [3.0330181074454217, 3.0342824997991933, 3.0406296589296598],
        "work": [3.0330177408775634, 3.0342819648865023, 3.0406291634252263],
    }

    def test_csv_matches_ladder_run(self, tmp_path):
        text = (ROOT / "configs" / "newtonian2d.cfg").read_text()
        for old, new in (("n = 128", "n = 32"), ("p = 2.0", "p = 1.5"), ("T = 1.0", "T = 0.5")):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["simulate", str(cfg), "--quiet", "--out", str(out)]) == 0
        series = read_diagnostics((out / "diagnostics.csv").read_text())
        for name, expected in self.LADDER_CSV.items():
            assert getattr(series, name) == pytest.approx(expected, rel=1e-8, abs=0), name
        assert max(series.energy_residual) <= 1e-6
        # 60, 49, 44 with the full strain stack; the traceless one rounds
        # differently, and this singular solve's count follows the rounding:
        # 64, 50, 45 with it; 75, 49, 43 with the ray-scaled cold start and
        # the formed first trials; the half-layout solver gives the counts below
        assert series.iters == [78, 49, 42]


def count_calls(monkeypatch, owner, name, counts):
    """Count in counts[name] the calls of owner.name made through any
    module of the package that binds it."""
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "nnstokes" and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, wrapper)


class TestOneWorkspacePerStep:
    """Each step of run solves on one workspace and reads its row from the
    solve's final state."""

    @pytest.mark.parametrize("params, penalty, minimized", [
        (FluidParams(p=1.5, q=1.5, d=2), None, 1e-4),  # rows at the requested delta = 0
        (FluidParams(p=3.0, q=1.5, d=2), None, 0.0),
        (FluidParams(p=2.0, q=1.5, d=2), (10.0, 3), 0.0),
    ])
    def test_rows_are_solution_diagnostics(self, grid2d, monkeypatch, params, penalty, minimized):
        """Every energy column equals solution_diagnostics of the solved
        velocity bit for bit."""
        solved = []
        solve = simulator._solve

        def wrapper(ws, problems, u0):
            results, c, mag2 = solve(ws, problems, u0)
            solved.append((problems[0], *results[0]))
            return results, c, mag2

        monkeypatch.setattr(simulator, "_solve", wrapper)
        result = run(newtonian_config(grid2d, sines2_field(grid2d), params=params, penalty=penalty))
        assert result.completed and len(result.snapshots) == 3
        for row, (_, rho) in enumerate(result.snapshots):
            prob, v, report = next(entry for entry in solved if entry[0].rho is rho)
            assert report.delta_schedule == (minimized,)
            for name, value in solution_diagnostics(prob, v).items():
                assert getattr(result.series, name)[row] == value, name

    def test_shipped_run_transforms_each_density_once(self):
        """newtonian2d.cfg: 37 workspaces and 74 transforms, one for the
        smoothing of rho0 and one for each of 37 solves and 36 RK4 steps
        (116 and 42 when the predictor and the rows made their own). The
        solves and steps take only the half spectrum of their densities,
        through rfft_coeffs; before that, all 74 went through to_spectral.
        The 37 workspaces share one solver lattice, built at most once."""
        config = parse_config((ROOT / "configs" / "newtonian2d.cfg").read_text())
        counts = {"to_spectral": 0, "rfft_coeffs": 0, "_Workspace": 0}
        before = stokes._solver_lattice.cache_info()
        with pytest.MonkeyPatch.context() as monkeypatch:
            count_calls(monkeypatch, spectral, "to_spectral", counts)
            count_calls(monkeypatch, spectral, "rfft_coeffs", counts)
            count_calls(monkeypatch, stokes, "_Workspace", counts)
            assert run(config).completed
        assert counts == {"to_spectral": 1, "rfft_coeffs": 73, "_Workspace": 37}
        after = stokes._solver_lattice.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits + after.misses - before.hits - before.misses == 37


class TestTimeGrid:
    """Steps end exactly on the output times and on t_final."""

    def test_final_step_below_the_substep_floor(self):
        """newtonian2d.cfg at n = 8 with a constant density (so u = 0),
        T = 1.1 and output_every = 0.001: float accumulation used to leave a
        last step of 1e-14, which advect_step rejects as a CFL breakdown."""
        text = (ROOT / "configs" / "newtonian2d.cfg").read_text()
        for old, new in (("n = 128", "n = 8"), ("kind = sines2", "kind = constant"),
                         ("params = 1.5, 0.4, 0.3", "params = 1.5"),
                         ("T = 1.0", "T = 1.1"), ("output_every = 0.25", "output_every = 0.001")):
            text = text.replace(old, new)
        result = run(parse_config(text))
        assert result.completed
        assert len(result.series) == 1101
        assert result.series.t[-1] == 1.1

    def test_shipped_newtonian_config_keeps_its_grid(self, monkeypatch):
        """37 solves and 36 steps for the 5 output times of the shipped run."""
        counts = {"solves": 0, "steps": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(simulator, "_solve", counted(simulator._solve, "solves"))
        monkeypatch.setattr(simulator, "advect_step", counted(simulator.advect_step, "steps"))
        result = run(parse_config((ROOT / "configs" / "newtonian2d.cfg").read_text()))
        assert result.series.t == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert counts == {"solves": 37, "steps": 36}

    @given(T=st.integers(1, 399).map(lambda k: k / 100),
           every=st.sampled_from((0.001, 0.01, 0.02, 0.03, 0.05, 0.1, 0.25)),
           vmax=st.one_of(st.just(0.0), st.floats(0.1, 40.0)))
    def test_outputs_and_final_time(self, T, every, vmax):
        """With stubbed workspace, solver and transport and a fixed speed vmax, the
        time grid of run alone remains: every step clears the 1e-12 substep floor
        of advect_step and stays under the CFL cap, the steps add up to T
        and the outputs fall on the multiples of output_every."""
        grid = TorusGrid(2, 8)
        zero = VelocityField([SpectralField(grid, np.zeros(grid.shape, np.complex128))] * 2)
        converged = SimpleNamespace(converged=True, iterations=0)
        steps = []

        def advect(rho, u, scheme, dt, vmax):
            steps.append(dt)
            return rho

        stubs = dict(
            _Workspace=lambda problems: SimpleNamespace(newtonian_start=lambda: 0.0),
            _solve=lambda ws, problems, u0: ([(zero, converged)], zero.coeff_stack()[None], None),
            _diagnostics=lambda ws, c, mag2, beta: dict.fromkeys(
                ("du_beta", "dissipation", "work", "energy_residual"), 0.0),
            speed_sup=lambda u: vmax,
            advect_step=advect,
        )
        config = newtonian_config(grid, constant_field(grid, 1.0), t_final=T, output_every=every)
        with mock.patch.multiple(simulator, **stubs):
            result = run(config)
        assert result.completed
        assert min(steps) >= 1e-12
        if vmax > 0:
            assert max(steps) <= config.scheme.cfl_target * grid.h / vmax + 1e-12
        assert sum(steps) == pytest.approx(T, abs=1e-9)
        count = math.floor(T / every + 1e-6) + 1
        assert result.series.t == pytest.approx([k * every for k in range(count)], abs=1e-9)


class TestSmoothing:
    def test_smooth_velocity_identity_at_top_index(self, grid2d):
        u = random_velocity(grid2d, seed=21, kmax=8, amplitude=1.0)
        v = smooth_velocity(u, j_max(grid2d))
        for cu, cv in zip(u.components, v.components):
            assert np.allclose(cu.coeffs, cv.coeffs, atol=1e-16)

    def test_smooth_velocity_matches_componentwise_truncation(self, grid2d):
        u = random_velocity(grid2d, seed=22, kmax=8, amplitude=1.0)
        v = smooth_velocity(u, 2)
        for cu, cv in zip(u.components, v.components):
            ref = low_freq_truncate(cu, 2)
            assert np.array_equal(cv.coeffs, ref.coeffs)

    def test_smooth_density_identity_on_band_limited_data(self, grid2d):
        rho = sines2_field(grid2d)
        out = smooth_density(rho, 3)
        assert np.abs(out.values - rho.values).max() <= 1e-13

    def test_smooth_density_removes_high_modes(self, grid2d):
        x = grid2d.coordinate(0)
        rho = GridField(grid2d, 1.0 + np.cos(8.0 * x))
        out = smooth_density(rho, 2)
        assert np.abs(out.values - 1.0).max() <= 1e-13


class TestVelocityNorms:
    def pinned_velocity(self, grid):
        zero = SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
        comp = to_spectral(GridField(grid, -2.0 * np.sin(grid.coordinate(0))))
        return VelocityField((zero, comp))

    def test_pinned_l2_norm(self, grid2d):
        u = self.pinned_velocity(grid2d)
        assert velocity_l2_norm(u) == pytest.approx(
            2.0 * math.sqrt(2.0) * math.pi, rel=1e-12
        )

    def test_distance_to_zero_equals_norm(self, grid2d):
        u = self.pinned_velocity(grid2d)
        zero = SpectralField(grid2d, np.zeros(grid2d.shape, dtype=np.complex128))
        z = VelocityField((zero, zero), check=False)
        assert velocity_l2_distance(u, z) == pytest.approx(velocity_l2_norm(u))
        assert velocity_l2_distance(u, u) == 0.0


class TestConvergenceSweep:
    def test_band_limited_datum_gives_zero_increments(self, grid2d):
        config = newtonian_config(
            grid2d, sines2_field(grid2d), t_final=0.0, output_every=1.0
        )
        sweep = convergence_sweep_n(config, (3, 4, 5))
        assert sweep["n"] == [3, 4, 5]
        assert all(inc <= 1e-14 for inc in sweep["increments"])

    def test_short_run_produces_positive_increment(self, grid2d):
        config = newtonian_config(
            grid2d, sines2_field(grid2d), t_final=0.1, output_every=0.1
        )
        sweep = convergence_sweep_n(config, (2, 3))
        assert len(sweep["increments"]) == 1
        assert 0.0 < sweep["increments"][0] < 1.0

    def test_single_member_sweep(self, grid2d):
        config = newtonian_config(
            grid2d, sines2_field(grid2d), t_final=0.0, output_every=1.0
        )
        sweep = convergence_sweep_n(config, (4,))
        assert sweep["increments"] == []

    def test_non_increasing_list_rejected(self, grid2d):
        config = newtonian_config(grid2d, sines2_field(grid2d))
        with pytest.raises(ValueError, match="strictly increasing"):
            convergence_sweep_n(config, (4, 4))

    def test_incomplete_member_raises(self, grid2d, monkeypatch):
        stub = SimulationResult(DiagnosticsSeries(), [], completed=False, reason="stub")
        monkeypatch.setattr(simulator, "run", lambda config: stub)
        config = newtonian_config(grid2d, sines2_field(grid2d))
        with pytest.raises(MaxIterations, match="did not complete"):
            convergence_sweep_n(config, (2, 3))


class TestPenaltySweep:
    def test_constant_density_gives_zero_distances(self, grid2d):
        config = newtonian_config(
            grid2d,
            constant_field(grid2d, 1.0),
            penalty=(10.0, 3),
            t_final=0.0,
            output_every=1.0,
        )
        sweep = penalty_sweep_N(config, (10.0, 100.0))
        assert sweep["u_ref_norm"] <= 1e-10
        assert all(d <= 1e-10 for d in sweep["distance"])

    def test_requires_penalty(self, grid2d):
        config = newtonian_config(grid2d, sines2_field(grid2d))
        with pytest.raises(ValueError, match="penalty"):
            penalty_sweep_N(config, (10.0, 100.0))

    def test_non_increasing_list_rejected(self, grid2d):
        config = newtonian_config(
            grid2d, sines2_field(grid2d), penalty=(10.0, 3)
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            penalty_sweep_N(config, (100.0, 10.0))
