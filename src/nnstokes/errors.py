"""Exception types shared across the package, and the value domains of
the dataclass fields whose violation raises them."""

import math
from dataclasses import MISSING, dataclass, field, fields


class NnstokesError(Exception):
    """Base class for all package-specific failures."""


class NonHermitianField(NnstokesError):
    """Spectral coefficients do not describe a real-valued field."""


class DegenerateViscosity(NnstokesError):
    """The viscosity vanishes on the whole grid and no penalty term is active,
    so the discrete energy has flat directions and no minimizer."""


class MaxIterations(NnstokesError):
    """The minimizer hit its iteration cap before reaching the gradient tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CflViolation(NnstokesError):
    """Adaptive sub-stepping pushed the time step below the hard floor."""


class UnresolvableMollifier(NnstokesError):
    """The mollifier width does not exceed the grid spacing."""


class ConfigError(NnstokesError):
    """Base class for configuration problems. The message lists every
    offending line, not just the first one."""


class UnknownKey(ConfigError):
    """A configuration key is not in the documented key set."""


class BadValue(ConfigError):
    """A configuration value fails to parse or violates a domain constraint."""


class MissingRequired(ConfigError):
    """A required configuration key is absent."""


class InadmissibleExponents(ConfigError):
    """The exponent pack falls outside the admissible region and force mode is off."""


class _FieldError(ValueError):
    """Rejected values of one dataclass: .issues holds a (field, message)
    pair for each (`field.part` names a component of a tuple field), so
    that parse_config can report each at the line of the key that set it."""

    def __init__(self, *issues):
        super().__init__("; ".join(message for _, message in issues))
        self.issues = issues


@dataclass(frozen=True)
class _Domain:
    """The values of one field: NaN never, +-inf only when not finite, else
    a number within [low, high] (an end open where open_low or open_high
    says so), an integer where integer, passing test where given; or
    exactly the members of choices. text replaces the generated
    description that every message about the field quotes."""

    low: float = None
    high: float = None
    open_low: bool = False
    open_high: bool = False
    finite: bool = True
    integer: bool = False
    test: object = None
    text: str = None
    choices: tuple = None

    def __str__(self) -> str:
        if self.text is not None:
            return self.text
        if self.choices is not None:
            return "one of " + ", ".join(self.choices)
        out = "an integer" if self.integer else "a finite number" if self.finite else "a number"
        if self.low == 0:
            out += ", positive" if self.open_low else ", nonnegative"
        elif self.low is not None:
            out += f" {'>' if self.open_low else '>='} {self.low}"
        if self.high is not None:
            out += f" and {'<' if self.open_high else '<='} {self.high}"
        return out

    def check(self, name, value):
        """value as an int, a float or one of choices; _FieldError where the
        domain does not admit it."""
        if self.choices is not None and value in self.choices:
            return value
        try:  # outside choices, or not a number: NaN, which no domain admits
            x = math.nan if self.choices is not None else float(value)
        except (TypeError, ValueError, OverflowError):
            x = math.nan
        if (math.isnan(x) or (self.finite and math.isinf(x))
                or (self.integer and not x.is_integer())
                or (self.low is not None and (x <= self.low if self.open_low else x < self.low))
                or (self.high is not None and (x >= self.high if self.open_high else x > self.high))
                or (self.test is not None and not self.test(x))):
            raise _FieldError((name, f"{name} must be {self}, got {value!r}"))
        return int(value) if self.integer else x


# domains that several fields and public arguments share
_POSITIVE = _Domain(low=0.0, open_low=True)
_NONNEGATIVE = _Domain(low=0.0)
_EXPONENT = _Domain(low=1.0, finite=False)  # of a Lebesgue norm, inf included
_FINITE = _Domain(text="finite")


def _finite_vector(name, value, d):
    """None for None, else value as a tuple of d floats that pass _FINITE;
    a _FieldError naming name where value is not such a sequence."""
    if value is None:
        return None
    try:
        k = len(value)
    except TypeError:
        k = repr(value)
    if k != d:
        raise _FieldError((name, f"{name} needs {d} components, got {k}"))
    return tuple(_FINITE.check(name, c) for c in value)


def _field(default=MISSING, domain=None, **rule):
    """A dataclass field whose domain is domain, else _Domain(**rule). A
    dict of named domains makes a tuple field of those components."""
    return field(default=default, metadata={"domain": domain or _Domain(**rule)})


def _check_fields(obj):
    """Check every field of dataclass obj that has a domain, and store it
    as the domain returns it. A field whose default is None may be None."""
    for f in fields(obj):
        domain = f.metadata.get("domain")
        value = getattr(obj, f.name)
        if domain is None or (value is None and f.default is None):
            continue
        if isinstance(domain, dict):
            value = tuple(dom.check(f"{f.name}.{part}", x)
                          for (part, dom), x in zip(domain.items(), value, strict=True))
        else:
            value = domain.check(f.name, value)
        object.__setattr__(obj, f.name, value)
