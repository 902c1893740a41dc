"""The config key table: each key's domain and default are those of the
dataclass field it sets, so the parser and the dataclasses accept the same
values, and the README documents exactly the table's keys."""

import math
import pathlib

import pytest
from hypothesis import given, seed, settings, strategies as st

from nnstokes import (
    AdvectionScheme,
    BadValue,
    FluidParams,
    SimulationConfig,
    StokesProblem,
    TorusGrid,
    constant_law,
    parse_config,
    sines2_field,
)
from nnstokes.io_formats import _KEYS, _KNOWN_KEYS, _scan_lines

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

BASE = {"seed": "3", "grid.d": "2", "grid.n": "16", "fluid.p": "2.0", "fluid.q": "1.5",
        "init.kind": "sines2", "init.params": "1.0, 0.5, 0.25"}
# the keys a key needs beside it: the penalty pair comes whole, and nu_max
# reaches down to its own bound only above a nu_star as small
PARTNERS = {"penalty.N": {"penalty.k": "3"}, "penalty.k": {"penalty.N": "100.0"},
            "fluid.nu_max": {"fluid.nu_star": "5e-324"}}

GRID = TorusGrid(2, 16)
RHO = sines2_field(GRID)
PARAMS = FluidParams(p=2.0, q=1.5)
LAW = constant_law(1.0)


def simulation_config(**kwargs):
    return SimulationConfig(**{"grid": GRID, "params": PARAMS, "law": LAW, "rho0": RHO,
                               "smoothing_n": 2, "scheme": AdvectionScheme("spectral_rk4"),
                               "t_final": 1.0, "output_every": 0.1, **kwargs})


# key -> the dataclass that owns it, built with that key's field set to x
BUILDERS = {
    "seed": lambda x: simulation_config(seed=x),
    "grid.d": lambda x: TorusGrid(x, 16),
    "grid.n": lambda x: TorusGrid(2, x),
    "fluid.p": lambda x: FluidParams(p=x, q=1.5),
    "fluid.q": lambda x: FluidParams(p=2.0, q=x),
    "fluid.sigma": lambda x: FluidParams(p=2.0, q=1.5, sigma=x),
    "fluid.gamma": lambda x: FluidParams(p=2.0, q=1.5, gamma=x),
    "fluid.nu_star": lambda x: FluidParams(p=2.0, q=1.5, nu_star=x),
    "fluid.nu_max": lambda x: FluidParams(p=2.0, q=1.5, nu_star=5e-324, nu_max=x),
    "fluid.delta": lambda x: FluidParams(p=2.0, q=1.5, delta=x),
    "smoothing.n": lambda x: simulation_config(smoothing_n=x),
    "scheme.cfl": lambda x: AdvectionScheme("spectral_rk4", cfl_target=x),
    "time.T": lambda x: simulation_config(t_final=x),
    "time.output_every": lambda x: simulation_config(output_every=x),
    "penalty.N": lambda x: StokesProblem(RHO, PARAMS, LAW, (x, 3)),
    "penalty.k": lambda x: StokesProblem(RHO, PARAMS, LAW, (100.0, x)),
}

NUMERIC_KEYS = [key for key, (_, domain, _) in _KEYS.items()
                if domain is not None and domain.choices is None]


def config_text(entries):
    """Config text with one `key = value` line per entry, under its section."""
    sections = {}
    for key, value in entries.items():
        section, _, name = key.rpartition(".")
        sections.setdefault(section, []).append(f"{name} = {value}")
    lines = []
    for section, body in sections.items():
        lines += ([f"[{section}]"] if section else []) + body
    return "\n".join(lines) + "\n"


def parser_accepts(key, value):
    try:
        parse_config(config_text({**BASE, **PARTNERS.get(key, {}), key: repr(value)}), force=True)
    except BadValue:
        return False
    return True


def dataclass_accepts(key, value):
    try:
        BUILDERS[key](value)
    except ValueError:
        return False
    return True


def bound_values(domain):
    """(admitted, rejected) values at each end of domain: the end itself, or
    one step inside it where it is open, and one step past it."""
    def step(x, toward):
        return x + toward if domain.integer else math.nextafter(x, toward * math.inf)
    pairs = []
    for end, is_open, inward in ((domain.low, domain.open_low, 1),
                                 (domain.high, domain.open_high, -1)):
        if end is not None:
            pairs.append((step(end, inward) if is_open else end,
                          end if is_open else step(end, -inward)))
    return pairs


def test_every_numeric_key_has_a_builder():
    assert sorted(NUMERIC_KEYS) == sorted(BUILDERS)


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_parser_and_dataclass_agree_at_the_bounds(key):
    pairs = bound_values(_KEYS[key][1])
    assert pairs
    for admitted, rejected in pairs:
        # penalty.k >= 1 on its own, but k > 1 + d/2 rejects 1 with the grid
        expected = key != "penalty.k"
        assert parser_accepts(key, admitted) is dataclass_accepts(key, admitted) is expected
        assert parser_accepts(key, rejected) is dataclass_accepts(key, rejected) is False


def test_penalty_k_floor_is_the_dimension_rule():
    assert parser_accepts("penalty.k", 3) is dataclass_accepts("penalty.k", 3) is True
    assert parser_accepts("penalty.k", 2) is dataclass_accepts("penalty.k", 2) is False


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_parser_and_dataclass_agree_off_the_reals(key, value):
    expected = key == "fluid.sigma" and value == math.inf
    assert parser_accepts(key, value) is dataclass_accepts(key, value) is expected


def draws(key):
    """Values for key: integers for an integer domain (small grids, since the
    parser builds a field on the grid), else any float or one near an end."""
    domain = _KEYS[key][1]
    if domain.integer:
        return st.integers(-3, 40) if key.startswith("grid.") else st.integers(-5, 10**6)
    ends = [end for end in (domain.low, domain.high) if end is not None]
    near = st.sampled_from(ends).flatmap(lambda end: st.sampled_from(
        [end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf)]))
    return st.one_of(st.floats(), near)


@seed(16)
@settings(max_examples=150)
@given(st.sampled_from(NUMERIC_KEYS).flatmap(lambda key: st.tuples(st.just(key), draws(key))))
def test_parser_accepts_exactly_what_the_dataclass_does(case):
    key, value = case
    assert parser_accepts(key, value) is dataclass_accepts(key, value)


@pytest.mark.parametrize("extra,pattern", [
    ({"fluid.nu_star": "2.0", "fluid.nu_max": "1.5"}, "nu_max must be >= nu_star"),
    ({"fluid.g": "1.0, 0.0, 0.0"}, "g needs 2 components"),
    ({"penalty.N": "100.0", "penalty.k": "2"}, "penalty.k must exceed"),
])
def test_rule_across_keys_reported_at_its_key(extra, pattern):
    text = config_text({**BASE, **extra})
    key = list(extra)[-1]
    lineno = text.splitlines().index(f"{key.split('.')[1]} = {extra[key]}") + 1
    with pytest.raises(BadValue, match=rf"line {lineno}: {pattern}"):
        parse_config(text)


@pytest.mark.parametrize("name,value", [
    ("t_final", math.nan), ("t_final", math.inf), ("output_every", math.inf),
    ("smoothing_n", -1), ("smoothing_n", 2.5), ("seed", -3),
])
def test_simulation_config_rejects_what_the_parser_does(name, value):
    """t_final = NaN used to run the coupled loop until CFL breakdown."""
    with pytest.raises(ValueError, match=name):
        simulation_config(**{name: value})


def test_seed_argument_checked_without_a_line():
    """A negative seed argument used to pass; it sets no line of the file."""
    with pytest.raises(BadValue) as err:
        parse_config(config_text({**BASE, "seed": "1"}), seed=-3)
    assert "line" not in str(err.value) and "seed must be an integer" in str(err.value)


def test_simulation_config_checks_its_penalty():
    with pytest.raises(ValueError, match="exceed"):
        simulation_config(penalty=(100.0, 2))


def test_advection_scheme_rejects_infinite_dt():
    """dt = inf used to pass, and advect_step then raised OverflowError."""
    with pytest.raises(ValueError, match="dt"):
        AdvectionScheme("spectral_rk4", dt=math.inf)


def test_readme_documents_exactly_the_known_keys():
    text = README.read_text(encoding="utf-8").split("## Config files", 1)[1]
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    entries, unknown, bad = _scan_lines(block)
    assert (unknown, bad) == ([], [])
    assert set(entries) == _KNOWN_KEYS
