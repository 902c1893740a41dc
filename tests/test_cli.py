"""Exit codes and output files of the command-line entry points."""

import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from nnstokes import CSV_HEADER, TorusGrid, read_snapshot, sines2_field, write_snapshot
from nnstokes.batteries import BatteryResult
from nnstokes.errors import NonHermitianField, UnresolvableMollifier
from nnstokes.cli import main
from nnstokes import cli

SUBCRITICAL = """\
seed = 1
[grid]
d = 2
n = 16
[fluid]
p = 2.0
q = 1.5
[init]
kind = sines2
params = 1.0, 0.5, 0.25
[time]
T = 0.1
output_every = 0.1
"""

CRITICAL = """\
[grid]
d = 3
n = 8
[fluid]
p = 2.0
q = 1.2
[init]
kind = constant
params = 1.0
"""

INADMISSIBLE = """\
[grid]
d = 2
n = 16
[fluid]
p = 1.5
q = 1.1
[init]
kind = sines2
params = 1.0, 0.25, 0.1
[time]
T = 0.0
"""

HUGE_DENSITY = """\
[grid]
d = 2
n = 16
[fluid]
p = 3.0
q = 1.5
[init]
kind = constant
params = 1e308
"""

SUB_UNIT_BETA = """\
[grid]
d = 2
n = 16
[fluid]
p = 1.1
q = 1.9
sigma = 1.0
gamma = 2.0
[init]
kind = sines2
params = 1.0, 0.25, 0.1
[time]
T = 0.0
"""


DEGENERATE = """\
[grid]
d = 2
n = 8
[fluid]
p = 2.0
q = 1.5
gamma = 1
[viscosity]
kind = power
[init]
kind = constant
params = 0
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_unknown_battery_name(self, capsys):
        assert main(["verify", "nonsense"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "absent.cfg")]) == 2
        assert "error:" in capsys.readouterr().err


class FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def raise_os_error():
    raise OSError("no libc")


class TestAllocatorPolicy:
    """main asks glibc once per call to keep 256 MiB of freed heap mapped, and
    runs unchanged where it cannot ask."""

    @pytest.fixture
    def commands(self, tmp_path):
        path = write_config(tmp_path, SUBCRITICAL)
        return [(["classify", path], 0), (["classify", str(tmp_path / "absent.cfg")], 2),
                (["verify", "exponents", "--quiet"], 0)]

    def test_one_top_pad_call_per_main_on_glibc(self, commands, capsys, monkeypatch):
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("glibc", "2.36"))
        for argv, code in commands:
            libc = FakeLibc()
            monkeypatch.setattr(cli, "_load_libc", lambda: libc)
            assert main(argv) == code
            assert libc.calls == [(-2, 256 << 20)]

    @pytest.mark.parametrize("libc_ver, loader", [
        (("", ""), None),
        (("musl", "1.2"), None),
        (("glibc", "2.36"), raise_os_error),
        (("glibc", "2.36"), SimpleNamespace),  # a libc without mallopt
    ], ids=["unknown-libc", "musl", "load-fails", "no-mallopt"])
    def test_no_policy_leaves_exit_codes(self, commands, capsys, monkeypatch, libc_ver, loader):
        libc = FakeLibc()
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: libc_ver)
        monkeypatch.setattr(cli, "_load_libc", loader or (lambda: libc))
        for argv, code in commands:
            assert main(argv) == code
        assert libc.calls == []


class TestPackageErrors:
    """Every NnstokesError maps to a documented exit code with one error line."""

    @pytest.mark.parametrize("command", ["simulate", "solve-stokes"])
    def test_degenerate_viscosity_exits_2(self, tmp_path, capsys, monkeypatch, command):
        """Zero density under a power law with gamma > 0: the viscosity vanishes."""
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, DEGENERATE)
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: viscosity vanishes")
        assert "Traceback" not in err

    def test_empty_random_band_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = SUBCRITICAL.replace("kind = sines2", "kind = random_band")
        text = re.sub(r"(?m)^params = .*$", "params = 0.5, 0.5, 1.5", text, count=1)
        assert main(["simulate", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "init.kind random_band: kmax must be a finite number >= 1.0, got 0.5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("exc", [NonHermitianField, UnresolvableMollifier])
    def test_input_errors_exit_2(self, tmp_path, capsys, monkeypatch, exc):
        def fail(prob):
            raise exc("stub failure")

        monkeypatch.setattr(cli, "solve_stokes", fail)
        path = write_config(tmp_path, SUBCRITICAL)
        assert main(["solve-stokes", path]) == 2
        assert capsys.readouterr().err == "error: stub failure\n"


class TestClassify:
    def test_subcritical(self, tmp_path, capsys):
        path = write_config(tmp_path, SUBCRITICAL)
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "SubCritical"
        assert "q floor" in out[1]

    def test_critical(self, tmp_path, capsys):
        path = write_config(tmp_path, CRITICAL)
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "Critical"

    def test_inadmissible_without_force(self, tmp_path, capsys):
        """classify always reports; only simulate refuses to run."""
        path = write_config(tmp_path, INADMISSIBLE)
        assert main(["classify", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "Inadmissible"


class TestSimulate:
    def test_writes_outputs(self, tmp_path, capsys):
        path = write_config(tmp_path, SUBCRITICAL)
        out_dir = tmp_path / "out"
        assert main(["simulate", path, "--out", str(out_dir)]) == 0
        csv_text = (out_dir / "diagnostics.csv").read_text()
        assert csv_text.splitlines()[0] == CSV_HEADER
        assert len(csv_text.splitlines()) == 3
        rho, t = read_snapshot(str(out_dir / "snapshot_0000.nnst"))
        assert t == 0.0
        assert rho.grid == TorusGrid(2, 16)
        assert "recorded" in capsys.readouterr().out

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, SUBCRITICAL)
        out_dir = tmp_path / "out"
        assert main(["simulate", path, "--quiet", "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == ""

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, SUBCRITICAL.replace("p = 2.0", "p = 0.9"))
        assert main(["simulate", path]) == 2
        assert "fluid.p" in capsys.readouterr().err

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, SUBCRITICAL.replace("p = 2.0", "p = inf"))
        assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "line 6: fluid.p must be a finite number" in err
        assert not os.path.exists(tmp_path / "o")

    def test_inadmissible_refused_without_force(self, tmp_path, capsys):
        path = write_config(tmp_path, INADMISSIBLE)
        assert main(["simulate", path, "--out", str(tmp_path / "o")]) == 2
        assert "force" in capsys.readouterr().err

    def test_force_runs_with_warning(self, tmp_path, capsys):
        path = write_config(tmp_path, INADMISSIBLE)
        rc = main(["simulate", path, "--force", "--quiet",
                   "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "running under --force" in captured.err

    def test_forced_sub_unit_beta_cannot_report(self, tmp_path, capsys):
        """With beta < 1 the strain diagnostic is not a norm; the run refuses."""
        path = write_config(tmp_path, SUB_UNIT_BETA)
        rc = main(["simulate", path, "--force", "--quiet",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "Lebesgue exponent" in capsys.readouterr().err

    def test_sub_unit_beta_rejected_before_first_solve(self, monkeypatch):
        from nnstokes import parse_config, simulator
        from nnstokes.errors import BadValue

        def no_solve(*args, **kwargs):
            pytest.fail("run reached a Stokes solve with beta < 1")

        monkeypatch.setattr(simulator, "_solve", no_solve)
        config = parse_config(SUB_UNIT_BETA, force=True)
        with pytest.raises(BadValue, match=r"Lebesgue exponent beta >= 1, got beta = 0\.366667"):
            simulator.run(config)

    def test_stalled_solver_exits_3(self, tmp_path, capsys, monkeypatch):
        from nnstokes.simulator import DiagnosticsSeries, SimulationResult

        stub = SimulationResult(DiagnosticsSeries(), [], completed=False,
                                reason="stub stall")
        monkeypatch.setattr(cli, "run", lambda config: stub)
        path = write_config(tmp_path, SUBCRITICAL)
        assert main(["simulate", path, "--quiet", "--out", str(tmp_path / "o")]) == 3
        assert "stub stall" in capsys.readouterr().err


class TestSolveStokes:
    def test_reports_convergence(self, tmp_path, capsys):
        path = write_config(tmp_path, SUBCRITICAL)
        assert main(["solve-stokes", path]) == 0
        out = capsys.readouterr().out
        assert "converged = True" in out
        assert "energy_residual" in out
        assert "delta_schedule" in out

    def test_non_convergence_exits_3(self, tmp_path, capsys, monkeypatch):
        stub = SimpleNamespace(converged=False, stop_reason="stub reason")
        monkeypatch.setattr(cli, "solve_stokes", lambda prob: (None, stub))
        path = write_config(tmp_path, SUBCRITICAL)
        assert main(["solve-stokes", path, "--quiet"]) == 3
        assert "did not converge: stub reason" in capsys.readouterr().err

    def test_internal_value_error_is_not_an_input_error(self, tmp_path, capsys, monkeypatch):
        """A ValueError from inside the solver is a bug, not a bad config:
        it propagates instead of exiting 2 with an input-error line."""
        def broken(prob):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli, "solve_stokes", broken)
        path = write_config(tmp_path, SUBCRITICAL)
        with pytest.raises(ValueError, match="internal failure"):
            main(["solve-stokes", path, "--quiet"])
        assert "error:" not in capsys.readouterr().err

    def test_non_finite_energy_names_reason(self, tmp_path, capsys):
        """A constant density of 1e308 overflows the transform: the solver
        stops after one evaluation and the error line says why."""
        path = write_config(tmp_path, HUGE_DENSITY)
        with np.errstate(all="ignore"):
            assert main(["solve-stokes", path]) == 3
        captured = capsys.readouterr()
        assert "evaluations = 1" in captured.out
        assert "did not converge: non-finite energy or gradient" in captured.err


class TestVerify:
    def test_single_battery_passes(self, capsys):
        assert main(["verify", "leray", "--quiet"]) == 0
        assert "battery leray: passed" in capsys.readouterr().out

    def test_report_lines(self, capsys):
        assert main(["verify", "exponents"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "battery exponents:" in out

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]])
    def test_prints_wall_time_after_report(self, capsys, quiet):
        assert main(["verify", "exponents"] + quiet) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == ("battery exponents: passed" if quiet
                             else "battery exponents: 14 checks, passed")
        assert re.fullmatch(r"battery exponents: wall time \d+\.\d\d s", lines[-1])

    @pytest.mark.parametrize("suite", ["lp", "leray", "energy", "monotonicity", "transport", "all"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, suite):
        """A negative --seed is refused as simulate refuses it, from the
        domain of a config's seed (numpy's seeding raised a traceback)."""
        assert main(["simulate", write_config(tmp_path, SUBCRITICAL), "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "seed must be an integer, nonnegative" in capsys.readouterr().err
        assert main(["verify", suite, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be an integer, nonnegative" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_failing_battery_exits_4(self, capsys, monkeypatch):
        stub = BatteryResult("leray", [(False, "forced failure")])
        monkeypatch.setattr(cli, "run_battery", lambda name, seed=0: stub)
        assert main(["verify", "leray"]) == 4
        assert "[FAIL] forced failure" in capsys.readouterr().out


class TestBesov:
    def test_prints_norm(self, tmp_path, capsys):
        grid = TorusGrid(2, 16)
        snap = tmp_path / "rho.nnst"
        write_snapshot(str(snap), sines2_field(grid), 0.0)
        assert main(["besov", str(snap), "--s", "0.5", "--p", "2", "--r", "2"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value > 0.0

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_regularity_exits_2(self, tmp_path, capsys, s):
        snap = tmp_path / "rho.nnst"
        write_snapshot(str(snap), sines2_field(TorusGrid(2, 16)), 0.0)
        assert main(["besov", str(snap), "--s", s, "--p", "2", "--r", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "regularity index must be finite" in captured.err

    def test_corrupt_snapshot_exits_2(self, tmp_path, capsys):
        snap = tmp_path / "bad.nnst"
        snap.write_bytes(b"XXXX garbage")
        assert main(["besov", str(snap), "--s", "0.5", "--p", "2", "--r", "2"]) == 2
        assert "error:" in capsys.readouterr().err
