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

import numpy as np

from .errors import BadValue, MissingRequired, UnknownKey
from .fields import (
    constant_field,
    random_band_field,
    rough_field,
    sine1_field,
    sines2_field,
    stratified_field,
)
from .rheology import FluidParams, bounded_power_law, constant_law, power_law
from .simulator import DiagnosticsSeries, SimulationConfig
from .spectral import GridField, TorusGrid, j_max
from .transport import _SCHEME_KINDS, AdvectionScheme

_KNOWN_KEYS = frozenset({
    "grid.d", "grid.n",
    "fluid.p", "fluid.q", "fluid.sigma", "fluid.gamma",
    "fluid.nu_star", "fluid.nu_max", "fluid.delta", "fluid.g",
    "viscosity.kind",
    "init.kind", "init.params",
    "smoothing.n",
    "scheme.kind", "scheme.cfl",
    "time.T", "time.output_every",
    "penalty.N", "penalty.k",
    "seed",
})

_REQUIRED_KEYS = ("grid.d", "grid.n", "fluid.p", "fluid.q", "init.kind")

_VISCOSITY_KINDS = ("constant", "power", "bounded_power")
_INIT_KINDS = ("constant", "sine1", "sines2", "stratified", "random_band",
               "rough", "snapshot")


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
    parts = []
    for lineno, msg in sorted(unknown + bad):
        parts.append(f"line {lineno}: {msg}")
    for msg in missing:
        parts.append(msg)
    message = "config errors:\n  " + "\n  ".join(parts)
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

    def has(self, key):
        return key in self.entries

    def _get(self, key, convert, describe, default):
        if key not in self.entries:
            return default
        value, lineno = self.entries[key]
        try:
            return convert(value)
        except (ValueError, TypeError):
            self.bad.append((lineno, f"{key} must be {describe} (got {value!r})"))
            return default

    def integer(self, key, default=None, minimum=None):
        def convert(s):
            out = int(s, 10)
            if minimum is not None and out < minimum:
                raise ValueError
            return out
        floor = "" if minimum is None else f" >= {minimum}"
        return self._get(key, convert, f"an integer{floor}", default)

    def number(self, key, default=None, low=None, high=None,
               strict_low=False, strict_high=False, allow_inf=False):
        """A float within the bounds; NaN is always rejected, and +-inf
        unless allow_inf."""
        def convert(s):
            out = float(s)
            if math.isnan(out) or (math.isinf(out) and not allow_inf):
                raise ValueError
            if low is not None and (out <= low if strict_low else out < low):
                raise ValueError
            if high is not None and (out >= high if strict_high else out > high):
                raise ValueError
            return out
        bounds = []
        if low is not None:
            bounds.append((">" if strict_low else ">=") + f" {low}")
        if high is not None:
            bounds.append(("<" if strict_high else "<=") + f" {high}")
        describe = ("a number" if allow_inf else "a finite number") + (
            " " + " and ".join(bounds) if bounds else "")
        return self._get(key, convert, describe, default)

    def choice(self, key, options, default=None):
        def convert(s):
            if s not in options:
                raise ValueError
            return s
        return self._get(key, convert, f"one of {', '.join(options)}", default)

    def text(self, key, default=None):
        if key not in self.entries:
            return default
        return self.entries[key][0]

    def flag_bad(self, key, msg):
        lineno = self.entries[key][1] if key in self.entries else 0
        self.bad.append((lineno, msg))


def _parse_float_list(value: str):
    """Comma-separated finite floats; ValueError on anything else."""
    if value is None or value.strip() == "":
        return []
    out = [float(tok) for tok in value.split(",")]
    if not all(math.isfinite(x) for x in out):
        raise ValueError("non-finite number")
    return out


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
        if rho.grid != grid:
            reader.flag_bad("init.params",
                            f"snapshot grid {rho.grid.d}x{rho.grid.n} does not match "
                            f"configured grid {grid.d}x{grid.n}")
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
                        random_band_field(grid, seed, int(kmax), amplitude, offset), 3),
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
    reader = _Reader(entries)

    missing = [f"missing required key {key!r}" for key in _REQUIRED_KEYS
               if key not in entries]

    d = reader.integer("grid.d")
    if d is not None and d not in (2, 3):
        reader.flag_bad("grid.d", f"grid.d must be 2 or 3 (got {d})")
        d = None
    n = reader.integer("grid.n")
    if n is not None and not (n >= 8 and (n & (n - 1)) == 0):
        reader.flag_bad("grid.n", f"grid.n must be a power of two >= 8 (got {n})")
        n = None

    p = reader.number("fluid.p", low=1.0, strict_low=True)
    q = reader.number("fluid.q", low=1.0, high=2.0, strict_low=True, strict_high=True)
    sigma = reader.number("fluid.sigma", default=math.inf, low=1.0, allow_inf=True)
    gamma = reader.number("fluid.gamma", default=0.0, low=0.0)
    nu_star = reader.number("fluid.nu_star", default=1.0, low=0.0, strict_low=True)
    nu_max = reader.number("fluid.nu_max", default=None, low=0.0, strict_low=True)
    delta = reader.number("fluid.delta", default=0.0, low=0.0)
    if nu_max is None:
        nu_max = nu_star
    elif nu_star is not None and nu_max < nu_star:
        reader.flag_bad("fluid.nu_max", "fluid.nu_max must be >= fluid.nu_star")

    g = None
    if reader.has("fluid.g"):
        try:
            g = tuple(_parse_float_list(reader.text("fluid.g")))
        except ValueError:
            reader.flag_bad("fluid.g", "fluid.g must be comma-separated finite numbers")
        if g is not None and d is not None and len(g) != d:
            reader.flag_bad("fluid.g", f"fluid.g needs {d} components, got {len(g)}")
            g = None

    visc_kind = reader.choice("viscosity.kind", _VISCOSITY_KINDS, default="constant")
    init_kind = reader.choice("init.kind", _INIT_KINDS)
    smoothing_n = reader.integer("smoothing.n", default=None, minimum=0)
    scheme_kind = reader.choice("scheme.kind", _SCHEME_KINDS, default="spectral_rk4")
    cfl = reader.number("scheme.cfl", default=0.5, low=0.0, high=1.0, strict_low=True)
    t_final = reader.number("time.T", default=1.0, low=0.0)
    output_every = reader.number("time.output_every", default=0.1, low=0.0, strict_low=True)
    pen_N = reader.number("penalty.N", default=None, low=0.0, strict_low=True)
    pen_k = reader.integer("penalty.k", default=None, minimum=1)
    file_seed = reader.integer("seed", default=0, minimum=0)

    if reader.has("penalty.N") != reader.has("penalty.k"):
        present = "penalty.N" if reader.has("penalty.N") else "penalty.k"
        reader.flag_bad(present, "penalty requires both penalty.N and penalty.k")

    _raise_collected(unknown, bad + reader.bad, missing)

    grid = TorusGrid(d, n)
    try:
        params = FluidParams(p=p, q=q, sigma=sigma, gamma=gamma, nu_star=nu_star,
                             nu_max=nu_max, g=g, d=d, delta=delta)
    except ValueError as exc:
        reader.flag_bad("fluid.p", f"inconsistent fluid parameters: {exc}")
        _raise_collected([], reader.bad, [])

    if visc_kind == "constant":
        law = constant_law(nu_star)
    elif visc_kind == "power":
        law = power_law(nu_star, gamma)
    else:
        law = bounded_power_law(nu_star, gamma, nu_max)

    use_seed = file_seed if seed is None else int(seed)
    rho0 = _build_rho0(init_kind, reader.text("init.params"), grid, use_seed,
                       base_dir, reader)
    _raise_collected([], reader.bad, [])

    if smoothing_n is None:
        smoothing_n = j_max(grid)
    scheme = AdvectionScheme(scheme_kind, dt=output_every, cfl_target=cfl)
    penalty = (pen_N, pen_k) if pen_N is not None else None
    if penalty is not None and not pen_k > 1 + d / 2:
        reader.flag_bad("penalty.k", f"penalty.k must exceed 1 + d/2 = {1 + d / 2}")
        _raise_collected([], reader.bad, [])

    return SimulationConfig(
        grid=grid, params=params, law=law, rho0=rho0, smoothing_n=smoothing_n,
        scheme=scheme, t_final=t_final, output_every=output_every,
        penalty=penalty, seed=use_seed, force=force,
    )


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
