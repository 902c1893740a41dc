"""Config parsing, the diagnostics CSV, and the binary snapshot format."""

import math
import re
import struct

import numpy as np
import pytest

from nnstokes import (
    BadValue,
    CSV_HEADER,
    DiagnosticsSeries,
    GridField,
    InadmissibleExponents,
    MissingRequired,
    TorusGrid,
    UnknownKey,
    j_max,
    parse_config,
    parse_snapshot,
    read_diagnostics,
    read_snapshot,
    sines2_field,
    snapshot_bytes,
    write_diagnostics,
    write_snapshot,
)

BASE_CONFIG = """\
seed = 3

[grid]
d = 2
n = 32

[fluid]
p = 2.0
q = 1.5

[init]
kind = sines2
params = 1.0, 0.5, 0.25
"""


def sample_series():
    series = DiagnosticsSeries()
    series.append(
        t=0.0,
        lq_norm=1.25,
        l2_norm=math.sqrt(2.0),
        recip_norm=math.inf,
        du_beta=0.1,
        dissipation=0.0123456789012345678,
        work=0.0123456789,
        energy_residual=1e-12,
        iters=42,
    )
    series.append(
        t=0.1,
        lq_norm=1.25000001,
        l2_norm=1.4142,
        recip_norm=7.5,
        du_beta=0.1,
        dissipation=1e-300,
        work=-1e-300,
        energy_residual=2e-300,
        iters=0,
    )
    return series


class TestDiagnosticsCsv:
    def test_round_trip_is_exact(self):
        series = sample_series()
        text = write_diagnostics(series)
        back = read_diagnostics(text)
        for name in series._COLUMNS:
            assert getattr(back, name) == getattr(series, name)
        assert all(isinstance(it, int) for it in back.iters)

    def test_header_row(self):
        text = write_diagnostics(sample_series())
        assert text.splitlines()[0] == CSV_HEADER

    def test_header_is_the_fixed_schema(self):
        """The header follows the order of DiagnosticsSeries' fields, so a
        reordering of them must show here."""
        header = "t,lq_norm,l2_norm,recip_norm,du_beta,dissipation,work,energy_residual,iters"
        assert CSV_HEADER == header
        assert write_diagnostics(DiagnosticsSeries()) == header + "\n"

    def test_infinity_written_as_literal(self):
        text = write_diagnostics(sample_series())
        assert "inf" in text.splitlines()[1].split(",")

    def test_wrong_header_rejected(self):
        text = write_diagnostics(sample_series())
        mangled = text.replace("lq_norm", "lqnorm", 1)
        with pytest.raises(BadValue, match="header"):
            read_diagnostics(mangled)

    def test_short_row_rejected(self):
        text = CSV_HEADER + "\n0.0,1.0,1.0\n"
        with pytest.raises(BadValue, match="expected"):
            read_diagnostics(text)

    def test_unparseable_field_rejected(self):
        row = "0.0,1.0,1.0,2.0,0.1,0.0,0.0,0.0,twelve"
        with pytest.raises(BadValue, match="line 2"):
            read_diagnostics(CSV_HEADER + "\n" + row + "\n")


class TestSnapshot:
    def test_bytes_round_trip(self):
        grid = TorusGrid(2, 16)
        rho = sines2_field(grid)
        data = snapshot_bytes(rho, 0.75)
        back, time = parse_snapshot(data)
        assert time == 0.75
        assert back.grid == grid
        assert np.array_equal(back.values, rho.values)

    def test_layout_header(self):
        grid = TorusGrid(3, 8)
        data = snapshot_bytes(sines2_field(grid, offset=1.0, a=0.1, b=0.1), 1.5)
        magic, version, d, n, time = struct.unpack_from("<4sHHId", data)
        assert magic == b"NNST"
        assert version == 1
        assert (d, n, time) == (3, 8, 1.5)

    def test_file_round_trip(self, tmp_path):
        grid = TorusGrid(2, 16)
        rho = sines2_field(grid)
        path = tmp_path / "state.snap"
        write_snapshot(str(path), rho, 2.0)
        back, time = read_snapshot(str(path))
        assert time == 2.0
        assert np.array_equal(back.values, rho.values)

    def test_deterministic_bytes(self):
        grid = TorusGrid(2, 16)
        rho = sines2_field(grid)
        assert snapshot_bytes(rho, 0.5) == snapshot_bytes(rho, 0.5)

    def test_truncated_header(self):
        with pytest.raises(BadValue, match="truncated"):
            parse_snapshot(b"NNST\x01\x00")

    def test_bad_magic(self):
        data = bytearray(snapshot_bytes(sines2_field(TorusGrid(2, 8)), 0.0))
        data[0:4] = b"XXXX"
        with pytest.raises(BadValue, match="magic"):
            parse_snapshot(bytes(data))

    def test_bad_version(self):
        data = bytearray(snapshot_bytes(sines2_field(TorusGrid(2, 8)), 0.0))
        data[4] = 9
        with pytest.raises(BadValue, match="version"):
            parse_snapshot(bytes(data))

    def test_bad_grid(self):
        data = bytearray(snapshot_bytes(sines2_field(TorusGrid(2, 8)), 0.0))
        data[6] = 7
        with pytest.raises(BadValue, match="grid"):
            parse_snapshot(bytes(data))

    def test_wrong_length(self):
        data = snapshot_bytes(sines2_field(TorusGrid(2, 8)), 0.0)
        with pytest.raises(BadValue, match="length"):
            parse_snapshot(data[:-1])

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time(self, time):
        data = snapshot_bytes(sines2_field(TorusGrid(2, 8)), time)
        with pytest.raises(BadValue, match="snapshot time must be finite"):
            parse_snapshot(data)

    def test_crc_mismatch(self):
        data = bytearray(snapshot_bytes(sines2_field(TorusGrid(2, 8)), 0.0))
        data[40] ^= 0xFF
        with pytest.raises(BadValue, match="CRC"):
            parse_snapshot(bytes(data))


class TestParseConfigDefaults:
    def test_minimal_config(self):
        config = parse_config(BASE_CONFIG)
        assert config.grid == TorusGrid(2, 32)
        assert config.params.p == 2.0
        assert config.params.q == 1.5
        assert config.params.sigma == math.inf
        assert config.params.gamma == 0.0
        assert config.params.nu_star == config.params.nu_max == 1.0
        assert config.params.delta == 0.0
        assert config.params.g == (0.0, -1.0)
        assert config.smoothing_n == j_max(config.grid)
        assert config.scheme.kind == "spectral_rk4"
        assert config.scheme.cfl_target == 0.5
        assert config.t_final == 1.0
        assert config.output_every == 0.1
        assert config.penalty is None
        assert config.seed == 3

    def test_seed_argument_overrides_file(self):
        config = parse_config(BASE_CONFIG, seed=99)
        assert config.seed == 99

    def test_comments_and_blanks_ignored(self):
        text = "# banner\n; alt comment\n\n" + BASE_CONFIG
        config = parse_config(text)
        assert config.grid.n == 32

    def test_default_gravity_in_3d(self):
        text = BASE_CONFIG.replace("d = 2", "d = 3").replace("n = 32", "n = 8")
        config = parse_config(text)
        assert config.params.g == (0.0, 0.0, -1.0)

    def test_custom_gravity(self):
        text = BASE_CONFIG.replace("q = 1.5", "q = 1.5\ng = 1.0, 0.0")
        config = parse_config(text)
        assert config.params.g == (1.0, 0.0)

    def test_rho0_matches_named_builder(self):
        config = parse_config(BASE_CONFIG)
        expected = sines2_field(config.grid, offset=1.0, a=0.5, b=0.25)
        assert np.array_equal(config.rho0.values, expected.values)


class TestParseConfigErrors:
    def test_unknown_key_lists_line(self):
        text = BASE_CONFIG.replace("d = 2", "d = 2\nshape = round")
        with pytest.raises(UnknownKey, match=r"line 5: unknown key 'grid.shape'"):
            parse_config(text)

    def test_every_bad_line_reported(self):
        text = BASE_CONFIG.replace("p = 2.0", "p = 0.9").replace("q = 1.5", "q = 2.5")
        with pytest.raises(BadValue) as err:
            parse_config(text)
        assert "fluid.p" in str(err.value)
        assert "fluid.q" in str(err.value)

    def test_duplicate_key(self):
        text = BASE_CONFIG.replace("n = 32", "n = 32\nn = 64")
        with pytest.raises(BadValue, match="duplicate"):
            parse_config(text)

    def test_non_assignment_line(self):
        text = BASE_CONFIG + "whatsthis\n"
        with pytest.raises(BadValue, match="key = value"):
            parse_config(text)

    def test_missing_required_keys(self):
        with pytest.raises(MissingRequired) as err:
            parse_config("seed = 1\n")
        for key in ("grid.d", "grid.n", "fluid.p", "fluid.q", "init.kind"):
            assert key in str(err.value)

    def test_grid_n_not_power_of_two(self):
        text = BASE_CONFIG.replace("n = 32", "n = 12")
        with pytest.raises(BadValue, match="power of two"):
            parse_config(text)

    def test_cfl_out_of_range(self):
        text = BASE_CONFIG + "[scheme]\ncfl = 1.5\n"
        with pytest.raises(BadValue, match="scheme.cfl"):
            parse_config(text)

    def test_init_arity_checked(self):
        text = BASE_CONFIG.replace("params = 1.0, 0.5, 0.25",
                                   "params = 1.0, 0.5, 0.25, 9.0")
        with pytest.raises(BadValue, match="at most"):
            parse_config(text)

    def test_init_params_must_be_numbers(self):
        text = BASE_CONFIG.replace("params = 1.0, 0.5, 0.25", "params = big")
        with pytest.raises(BadValue, match="comma-separated"):
            parse_config(text)

    @pytest.mark.parametrize("kmax", ["0.5", "0.999", "-3.0"])
    def test_empty_random_band_reported_at_its_line(self, kmax):
        """A band below |k| = 1 holds no mode: it used to parse to the
        constant offset field."""
        text = BASE_CONFIG.replace("kind = sines2\nparams = 1.0, 0.5, 0.25",
                                   f"kind = random_band\nparams = {kmax}, 0.5, 1.5")
        with pytest.raises(BadValue) as err:
            parse_config(text)
        assert str(err.value).splitlines()[1:] == [
            f"  line 13: init.kind random_band: kmax must be a finite number >= 1.0, got {kmax}"]

    def test_gravity_arity(self):
        text = BASE_CONFIG.replace("q = 1.5", "q = 1.5\ng = 1.0, 0.0, 0.0")
        with pytest.raises(BadValue, match="components"):
            parse_config(text)

    def test_every_broken_cross_key_rule_reported(self):
        text = BASE_CONFIG.replace("q = 1.5", "q = 1.5\nnu_star = 2.0\nnu_max = 1.5\n"
                                              "g = 0.0, -1.0, 0.0")
        with pytest.raises(BadValue) as err:
            parse_config(text)
        assert str(err.value).splitlines()[1:] == [
            "  line 11: nu_max must be >= nu_star = 2.0, got 1.5",
            "  line 12: g needs 2 components, got 3"]


NUMBER_KEYS = ("fluid.p", "fluid.q", "fluid.gamma", "fluid.nu_star", "fluid.nu_max",
               "fluid.delta", "scheme.cfl", "time.T", "time.output_every", "penalty.N")


def with_number(key, value):
    """BASE_CONFIG with key set to value, and the line number of that entry."""
    section, name = key.split(".")
    if key in ("fluid.p", "fluid.q"):
        text = re.sub(rf"^{name} = .*$", f"{name} = {value}", BASE_CONFIG, flags=re.M)
    elif section == "fluid":
        text = BASE_CONFIG.replace("q = 1.5", f"q = 1.5\n{name} = {value}")
    else:
        extra = "k = 3\n" if section == "penalty" else ""
        text = BASE_CONFIG + f"[{section}]\n{name} = {value}\n{extra}"
    return text, text.splitlines().index(f"{name} = {value}") + 1


class TestParseConfigNonFinite:
    """Infinite numbers are rejected where they enter: T = inf used to
    hang the run loop, p = inf to crash in FluidParams, and delta or
    nu_star = inf to end in a solve on NaN."""

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_number_key_rejects(self, key, value):
        text, lineno = with_number(key, value)
        with pytest.raises(BadValue, match=rf"line {lineno}: {key} must be a finite number"):
            parse_config(text)

    def test_sigma_accepts_infinity(self):
        text = BASE_CONFIG.replace("q = 1.5", "q = 1.5\nsigma = inf")
        assert parse_config(text).params.sigma == math.inf
        with pytest.raises(BadValue, match="fluid.sigma must be a number >= 1.0"):
            parse_config(BASE_CONFIG.replace("q = 1.5", "q = 1.5\nsigma = -inf"))

    @pytest.mark.parametrize("text", [
        BASE_CONFIG.replace("q = 1.5", "q = 1.5\ng = 0.0, -inf"),
        BASE_CONFIG.replace("q = 1.5", "q = 1.5\ng = nan, -1.0"),
        BASE_CONFIG.replace("params = 1.0, 0.5, 0.25", "params = 1.0, inf, 0.25"),
        BASE_CONFIG.replace("kind = sines2\nparams = 1.0, 0.5, 0.25",
                            "kind = random_band\nparams = inf"),
    ])
    def test_number_lists_reject(self, text):
        with pytest.raises(BadValue, match="comma-separated finite numbers"):
            parse_config(text)


class TestParseConfigPenalty:
    def test_pair_parses(self):
        text = BASE_CONFIG + "[penalty]\nN = 100.0\nk = 3\n"
        config = parse_config(text)
        assert config.penalty == (100.0, 3)

    def test_lone_member_rejected(self):
        text = BASE_CONFIG + "[penalty]\nN = 100.0\n"
        with pytest.raises(BadValue, match="both"):
            parse_config(text)

    def test_fractional_k_rejected(self):
        text = BASE_CONFIG + "[penalty]\nN = 100.0\nk = 3.0\n"
        with pytest.raises(BadValue, match="integer"):
            parse_config(text)

    def test_k_must_clear_dimension_floor(self):
        text = BASE_CONFIG + "[penalty]\nN = 100.0\nk = 2\n"
        with pytest.raises(BadValue, match="exceed"):
            parse_config(text)


class TestParseConfigAdmissibility:
    BAD_PACK = BASE_CONFIG.replace(
        "p = 2.0\nq = 1.5", "p = 1.1\nq = 1.9\nsigma = 1.0\ngamma = 2.0"
    )

    def test_inadmissible_pack_raises(self):
        with pytest.raises(InadmissibleExponents):
            parse_config(self.BAD_PACK)

    def test_force_suppresses(self):
        config = parse_config(self.BAD_PACK, force=True)
        assert config.force


class TestParseConfigSnapshotInit:
    def snapshot_config(self, name):
        return BASE_CONFIG.replace(
            "kind = sines2\nparams = 1.0, 0.5, 0.25",
            f"kind = snapshot\nparams = {name}",
        )

    def test_relative_path_resolved_against_base_dir(self, tmp_path):
        grid = TorusGrid(2, 32)
        rho = sines2_field(grid, offset=2.0, a=0.3, b=0.1)
        write_snapshot(str(tmp_path / "warm.snap"), rho, 0.0)
        config = parse_config(
            self.snapshot_config("warm.snap"), base_dir=str(tmp_path)
        )
        assert np.array_equal(config.rho0.values, rho.values)

    def test_grid_mismatch_flagged(self, tmp_path):
        rho = sines2_field(TorusGrid(2, 16))
        write_snapshot(str(tmp_path / "coarse.snap"), rho, 0.0)
        with pytest.raises(BadValue, match="does not match"):
            parse_config(
                self.snapshot_config("coarse.snap"), base_dir=str(tmp_path)
            )

    def test_missing_file_flagged(self, tmp_path):
        with pytest.raises(BadValue, match="cannot read"):
            parse_config(
                self.snapshot_config("nowhere.snap"), base_dir=str(tmp_path)
            )
