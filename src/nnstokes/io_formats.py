"""Configuration files, diagnostics CSV, and the binary snapshot format.

Config files are line-oriented `key = value` text with `[section]`
headers; the full key is `section.key`. Unknown keys are hard errors, and
every offending line is reported in one pass. The snapshot format is a
fixed little-endian layout: magic "NNST", version u16, d u16, n u32,
time f64, n^d row-major f64 density values, CRC32 of the payload.
"""

from __future__ import annotations

import math
import os
import struct
import zlib
from dataclasses import MISSING, fields

import numpy as np

from .errors import _FINITE, BadValue, MissingRequired, UnknownKey, _Domain, _FieldError
from .fields import (
    _KMAX,
    constant_field,
    random_band_field,
    rough_field,
    sine1_field,
    sines2_field,
    stratified_field,
)
from .rheology import FluidParams, bounded_power_law, constant_law, power_law
from .simulator import DiagnosticsSeries, SimulationConfig
from .spectral import GridField, TorusGrid, _check_grid, j_max
from .stokes import StokesProblem
from .transport import AdvectionScheme

_LAWS = {"constant": lambda nu_star, gamma, nu_max: constant_law(nu_star),
         "power": lambda nu_star, gamma, nu_max: power_law(nu_star, gamma),
         "bounded_power": bounded_power_law}
_INIT_KINDS = ("constant", "sine1", "sines2", "stratified", "random_band",
               "rough", "snapshot")
_FLUID_FIELDS = ("p", "q", "sigma", "gamma", "nu_star", "nu_max", "delta", "g")


def _rule(owner, name, default=MISSING):
    """The _KEYS entry (name, domain, default) of a key that sets field name
    of dataclass owner (`field.part` for a component of a tuple field). The
    default is the field's own; the file's, given here, serves a field that
    has none."""
    field_name, _, part = name.partition(".")
    f = next(f for f in fields(owner) if f.name == field_name)
    domain = f.metadata.get("domain")
    return name, domain[part] if part else domain, default if f.default is MISSING else f.default


# config key -> (name of the field it sets, domain, default), where MISSING
# marks a required key; fluid.g and init.params are lists (init.params may be
# a path) and have no domain
_KEYS = {
    "seed": _rule(SimulationConfig, "seed"),
    "grid.d": _rule(TorusGrid, "d"),
    "grid.n": _rule(TorusGrid, "n"),
    **{f"fluid.{name}": _rule(FluidParams, name) for name in _FLUID_FIELDS},
    "viscosity.kind": ("viscosity.kind", _Domain(choices=tuple(_LAWS)), "constant"),
    "init.kind": ("init.kind", _Domain(choices=_INIT_KINDS), MISSING),
    "init.params": ("init.params", None, None),
    "smoothing.n": _rule(SimulationConfig, "smoothing_n", None),  # None: no smoothing
    "scheme.kind": _rule(AdvectionScheme, "kind", "spectral_rk4"),
    "scheme.cfl": _rule(AdvectionScheme, "cfl_target"),
    "time.T": _rule(SimulationConfig, "t_final", 1.0),
    "time.output_every": _rule(SimulationConfig, "output_every", 0.1),
    "penalty.N": _rule(StokesProblem, "penalty.N"),
    "penalty.k": _rule(StokesProblem, "penalty.k"),
}
_KNOWN_KEYS = frozenset(_KEYS)
_REQUIRED_KEYS = tuple(key for key, (_, _, default) in _KEYS.items() if default is MISSING)


def _scan_lines(text: str):
    """Collect fullkey -> (value, lineno) plus syntax and duplicate issues."""
    entries = {}
    unknown = []
    bad = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                bad.append((lineno, "empty section header"))
                section = None
            continue
        if "=" not in line:
            bad.append((lineno, f"not a `key = value` line: {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        fullkey = f"{section}.{key}" if section else key
        if fullkey not in _KNOWN_KEYS:
            unknown.append((lineno, f"unknown key {fullkey!r}"))
            continue
        if fullkey in entries:
            bad.append((lineno, f"duplicate key {fullkey!r}"))
            continue
        entries[fullkey] = (value, lineno)
    return entries, unknown, bad


def _raise_collected(unknown, bad, missing):
    if not (unknown or bad or missing):
        return
    # line 0 is none of the file's: a key it lacks, or the seed argument
    parts = [f"line {lineno}: {msg}" if lineno else msg for lineno, msg in sorted(unknown + bad)]
    message = "config errors:\n  " + "\n  ".join(parts + missing)
    if unknown:
        raise UnknownKey(message)
    if bad:
        raise BadValue(message)
    raise MissingRequired(message)


class _Reader:
    """Typed access to scanned entries, accumulating BadValue issues."""

    def __init__(self, entries):
        self.entries = entries
        self.bad = []

    def value(self, key):
        """The entry of key checked against its domain in _KEYS (its text
        where it has none); its default where absent, None where bad."""
        _, domain, default = _KEYS[key]
        if key not in self.entries:
            return None if default is MISSING else default
        text, lineno = self.entries[key]
        if domain is None:
            return text
        parse = str if domain.choices else int if domain.integer else float
        try:
            return domain.check(key, parse(text))
        except ValueError:
            self.bad.append((lineno, f"{key} must be {domain} (got {text!r})"))
            return None

    def build(self, cls, **kwargs):
        """cls(**kwargs); None, with the error flagged at the line of the key
        it names, where a rule across keys rejects them."""
        try:
            return cls(**kwargs)
        except _FieldError as exc:
            for field, message in exc.issues:
                self.flag_bad(next(key for key, (name, _, _) in _KEYS.items() if name == field),
                              message)
            return None

    def flag_bad(self, key, msg):
        lineno = self.entries[key][1] if key in self.entries else 0
        self.bad.append((lineno, msg))


def _parse_float_list(value: str):
    """Comma-separated finite floats; ValueError on anything else."""
    if value is None or value.strip() == "":
        return []
    return [_FINITE.check("number", tok) for tok in value.split(",")]


def _build_rho0(kind, params_text, grid, seed, base_dir, reader):
    if kind == "snapshot":
        if not params_text:
            reader.flag_bad("init.params", "init.kind snapshot needs init.params = <path>")
            return None
        path = params_text
        if base_dir is not None and not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        try:
            rho, _ = read_snapshot(path)
        except OSError as exc:
            reader.flag_bad("init.params", f"cannot read snapshot: {exc}")
            return None
        except BadValue as exc:
            reader.flag_bad("init.params", f"bad snapshot: {exc}")
            return None
        try:
            _check_grid(grid, [rho], "a density", "a config")
        except ValueError as exc:
            reader.flag_bad("init.params", f"snapshot does not match the config: {exc}")
            return None
        return rho

    try:
        args = _parse_float_list(params_text)
    except ValueError:
        reader.flag_bad("init.params", f"init.params must be comma-separated finite numbers "
                                       f"(got {params_text!r})")
        return None

    builders = {
        "constant": (lambda grid, c=1.0: constant_field(grid, c), 1),
        "sine1": (sine1_field, 2),
        "sines2": (sines2_field, 3),
        "stratified": (stratified_field, 2),
        "random_band": (lambda grid, kmax=4, amplitude=0.5, offset=1.5:
                        random_band_field(grid, seed, int(_KMAX.check("kmax", kmax)), amplitude, offset), 3),
        "rough": (lambda grid, slope=-1.1, amplitude=0.5, offset=1.0:
                  rough_field(grid, seed, slope, amplitude, offset), 3),
    }
    builder, max_args = builders[kind]
    if len(args) > max_args:
        reader.flag_bad("init.params",
                        f"init.kind {kind} takes at most {max_args} parameters, "
                        f"got {len(args)}")
        return None
    try:
        return builder(grid, *args)
    except ValueError as exc:
        reader.flag_bad("init.params", f"init.kind {kind}: {exc}")
        return None


def parse_config(text: str, force: bool = False, seed: int = None,
                 base_dir: str = None) -> SimulationConfig:
    """Parse a config file into a validated SimulationConfig.

    Raises UnknownKey, BadValue, or MissingRequired with a message listing
    every offending line, in that priority order, and InadmissibleExponents
    for a valid file whose exponent pack fails classification (suppressed
    by force). The seed argument overrides the file's seed.
    """
    entries, unknown, bad = _scan_lines(text)
    if seed is not None:  # checked like the file's seed, which it replaces
        entries["seed"] = (str(seed), 0)
    reader = _Reader(entries)

    missing = [f"missing required key {key!r}" for key in _REQUIRED_KEYS
               if key not in entries]
    v = {key: reader.value(key) for key in _KEYS}
    if v["fluid.g"] is not None:
        try:
            v["fluid.g"] = tuple(_parse_float_list(v["fluid.g"]))
        except ValueError:
            reader.flag_bad("fluid.g", "fluid.g must be comma-separated finite numbers")
    if ("penalty.N" in entries) != ("penalty.k" in entries):
        present = "penalty.N" if "penalty.N" in entries else "penalty.k"
        reader.flag_bad(present, "penalty requires both penalty.N and penalty.k")
    _raise_collected(unknown, bad + reader.bad, missing)

    grid = TorusGrid(v["grid.d"], v["grid.n"])
    params = reader.build(FluidParams, d=grid.d,
                          **{name: v[f"fluid.{name}"] for name in _FLUID_FIELDS})
    rho0 = _build_rho0(v["init.kind"], v["init.params"], grid, v["seed"], base_dir, reader)
    _raise_collected([], reader.bad, [])

    config = reader.build(
        SimulationConfig, grid=grid, params=params, rho0=rho0,
        law=_LAWS[v["viscosity.kind"]](params.nu_star, params.gamma, params.nu_max),
        smoothing_n=j_max(grid) if v["smoothing.n"] is None else v["smoothing.n"],
        scheme=AdvectionScheme(v["scheme.kind"], dt=v["time.output_every"],
                               cfl_target=v["scheme.cfl"]),
        t_final=v["time.T"], output_every=v["time.output_every"],
        penalty=(v["penalty.N"], v["penalty.k"]) if "penalty.N" in entries else None,
        seed=v["seed"], force=force)
    _raise_collected([], reader.bad, [])
    return config


# ---------------------------------------------------------------------------
# diagnostics CSV

CSV_HEADER = ",".join(DiagnosticsSeries._COLUMNS)


def _format_value(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def write_diagnostics(series: DiagnosticsSeries) -> str:
    """CSV text with the fixed 9-column schema, 17 significant digits,
    and the literal `inf` for the infinite reciprocal-norm sentinel."""
    lines = [CSV_HEADER]
    for row in series.rows():
        fields = [_format_value(v) for v in row[:-1]]
        fields.append(str(int(row[-1])))
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def read_diagnostics(text: str) -> DiagnosticsSeries:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_HEADER:
        raise BadValue("diagnostics CSV must start with the fixed header row")
    series = DiagnosticsSeries()
    names = DiagnosticsSeries._COLUMNS
    for lineno, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != len(names):
            raise BadValue(f"line {lineno}: expected {len(names)} fields, got {len(tokens)}")
        try:
            row = {name: float(tok) for name, tok in zip(names, tokens)}
            row["iters"] = int(float(tokens[-1]))
        except ValueError as exc:
            raise BadValue(f"line {lineno}: {exc}") from None
        series.append(**row)
    return series


# ---------------------------------------------------------------------------
# binary snapshots

_MAGIC = b"NNST"
_VERSION = 1
_HEADER = struct.Struct("<4sHHId")
_CRC = struct.Struct("<I")


def snapshot_bytes(rho: GridField, time: float) -> bytes:
    grid = rho.grid
    payload = np.ascontiguousarray(rho.values, dtype="<f8").tobytes()
    header = _HEADER.pack(_MAGIC, _VERSION, grid.d, grid.n, float(time))
    return header + payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def parse_snapshot(data: bytes):
    """Decode snapshot bytes to (GridField, time); BadValue on any defect."""
    if len(data) < _HEADER.size + _CRC.size:
        raise BadValue("snapshot truncated before header")
    magic, version, d, n, time = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise BadValue(f"bad snapshot magic {magic!r}")
    if version != _VERSION:
        raise BadValue(f"unsupported snapshot version {version}")
    if not math.isfinite(time):
        raise BadValue(f"snapshot time must be finite, got {time}")
    try:
        grid = TorusGrid(d, n)
    except ValueError as exc:
        raise BadValue(f"bad snapshot grid: {exc}") from None
    expected = _HEADER.size + 8 * grid.npoints + _CRC.size
    if len(data) != expected:
        raise BadValue(f"snapshot length {len(data)} != expected {expected}")
    payload = data[_HEADER.size:_HEADER.size + 8 * grid.npoints]
    (crc,) = _CRC.unpack_from(data, expected - _CRC.size)
    if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
        raise BadValue("snapshot CRC mismatch")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    try:
        rho = GridField(grid, values)
    except ValueError as exc:
        raise BadValue(f"snapshot payload: {exc}") from None
    return rho, float(time)


def write_snapshot(path: str, rho: GridField, time: float):
    with open(path, "wb") as fh:
        fh.write(snapshot_bytes(rho, time))


def read_snapshot(path: str):
    with open(path, "rb") as fh:
        return parse_snapshot(fh.read())
