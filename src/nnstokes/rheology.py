"""Viscosity laws and the shear-dependent viscous stress.

The stress kernel is

    S[rho, u] = nu(rho) (delta^2 + |Du|^2)^{(p-2)/2} Du,

with |Du| the Frobenius norm of the symmetric strain. At delta = 0 this is
the exact power law nu(rho) |Du|^{p-2} Du; the offset delta > 0 restores
differentiability at Du = 0 when p < 2.

This module owns every pointwise evaluation of the power law, at
m = |Du|^2: the stress factor (delta^2 + m)^{(p-2)/2} (_power_factor), the
curvature factor (delta^2 + m)^{(p-4)/2} (_curvature_factor), the lifted
power (delta^2 + m)^{p/2} - delta^p, p times the energy density
(_lifted_power), and the share m / (delta^2 + m) (_strain_share). delta
acts as zero where delta * delta == 0 (_acts_as_zero): its square
underflows, delta^2 + m is m, and every kernel takes its delta = 0 form,
a negative power and the share with the limit 0 where the strain
vanishes. The singular case is p < 2 with a delta that acts as zero
(_singular).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (_EXPONENT, _FINITE, _NONNEGATIVE, _POSITIVE, _check_fields, _field, _FieldError,
                     _finite_vector)
from .spectral import _DIMENSION, GridField


@dataclass(frozen=True)
class FluidParams:
    """Exponent and forcing pack for one fluid configuration.

    p is the power-law exponent (> 1), q the density integrability
    exponent (in the open interval (1, 2)), sigma the reciprocal-density
    exponent (in [1, inf]), gamma the degeneracy exponent of the viscosity
    lower bound, nu_star and nu_max the viscosity bounds, g the constant
    gravity vector, d the dimension, and delta the strain regularization
    offset; a delta below about 1.5e-162, whose square underflows, acts as
    0. nu_max defaults to nu_star, and g to -e_d. The derived exponent
    beta satisfies
    1/beta = (1/p)(1 + gamma/sigma); packs with beta <= 1 are representable
    so the classifier can see them, and they always classify inadmissible.
    """

    p: float = _field(low=1.0, open_low=True)
    q: float = _field(low=1.0, high=2.0, open_low=True, open_high=True)
    sigma: float = _field(math.inf, _EXPONENT)
    gamma: float = _field(0.0, _NONNEGATIVE)
    nu_star: float = _field(1.0, _POSITIVE)
    nu_max: float = _field(None, _POSITIVE)
    g: tuple = None
    d: int = _field(2, _DIMENSION)
    delta: float = _field(0.0, _NONNEGATIVE)

    def __post_init__(self):
        if self.nu_max is None:
            object.__setattr__(self, "nu_max", self.nu_star)
        _check_fields(self)
        raw = self.g if self.g is not None else (0.0,) * (self.d - 1) + (-1.0,)
        issues = []
        if self.nu_max < self.nu_star:
            issues.append(("nu_max", f"nu_max must be >= nu_star = {self.nu_star}, "
                                     f"got {self.nu_max}"))
        try:
            object.__setattr__(self, "g", _finite_vector("g", raw, self.d))
        except _FieldError as exc:
            issues += exc.issues
        if issues:
            raise _FieldError(*issues)

    def _gamma_over_sigma(self) -> float:
        if np.isinf(self.sigma):
            return 0.0
        return self.gamma / self.sigma

    @property
    def beta(self) -> float:
        return 1.0 / ((1.0 / self.p) * (1.0 + self._gamma_over_sigma()))

    @property
    def gamma_bar(self) -> float:
        return min(1.0, self.gamma)


@dataclass(frozen=True)
class ViscosityLaw:
    """Scalar viscosity as a function of the density value.

    kind is one of constant, power, bounded_power, user_table. The law is
    even in its argument (only |r| matters). A user_table interpolates its
    values table_nu (finite, nonnegative) between its nodes table_r (finite,
    strictly increasing, at least two).
    """

    kind: str = _field(choices=("constant", "power", "bounded_power", "user_table"))
    coef: float = _field(1.0, _NONNEGATIVE)
    exponent: float = _field(0.0, _NONNEGATIVE)
    cap: float = _field(math.inf, low=0.0, open_low=True, finite=False)
    table_r: tuple = field(default=())
    table_nu: tuple = field(default=())

    def __post_init__(self):
        _check_fields(self)
        if self.kind != "user_table":
            return
        r = tuple(_FINITE.check("table_r", x) for x in self.table_r)
        nu = tuple(_NONNEGATIVE.check("table_nu", x) for x in self.table_nu)
        if len(r) != len(nu) or len(r) < 2:
            raise _FieldError(("table_r", "table law needs matching node and value sequences"))
        if any(b <= a for a, b in zip(r, r[1:])):
            raise _FieldError(("table_r", "table nodes must be strictly increasing"))
        object.__setattr__(self, "table_r", r)
        object.__setattr__(self, "table_nu", nu)

    def __call__(self, r) -> np.ndarray:
        a = np.abs(np.asarray(r, dtype=np.float64))
        if self.kind == "constant":
            return np.full_like(a, self.coef)
        if self.kind == "power":
            return self.coef * a ** self.exponent
        if self.kind == "bounded_power":
            return np.minimum(self.cap, self.coef * a ** self.exponent)
        return np.interp(a, self.table_r, self.table_nu)


def constant_law(nu0: float) -> ViscosityLaw:
    return ViscosityLaw("constant", coef=nu0)


def power_law(coef: float, exponent: float) -> ViscosityLaw:
    return ViscosityLaw("power", coef=coef, exponent=exponent)


def bounded_power_law(coef: float, exponent: float, cap: float) -> ViscosityLaw:
    return ViscosityLaw("bounded_power", coef=coef, exponent=exponent, cap=cap)


def table_law(r_nodes, nu_values) -> ViscosityLaw:
    return ViscosityLaw("user_table", table_r=tuple(r_nodes), table_nu=tuple(nu_values))


def check_law(law: ViscosityLaw, params: FluidParams, samples: int = 400) -> list:
    """Sampled consistency check of a law against a parameter pack.

    Verifies 0 <= nu <= nu_max on a wide range, the degeneracy lower bound
    nu(|r|) >= nu_star |r|^gamma for |r| <= 1, and Holder continuity of
    order min(1, gamma) on [0.01, 10]. Returns a list of violation
    messages, empty when the law is consistent.
    """
    problems = []
    r = np.concatenate([[0.0], np.logspace(-6, 3, samples)])
    nu = law(r)
    if np.any(nu < 0):
        problems.append("law takes negative values")
    if np.any(nu > params.nu_max * (1 + 1e-12)):
        problems.append(f"law exceeds nu_max = {params.nu_max} (max {nu.max():.6g})")
    small = r[(r > 0) & (r <= 1.0)]
    lower = params.nu_star * small ** params.gamma
    if np.any(law(small) < lower * (1 - 1e-12)):
        problems.append("law falls below nu_star |r|^gamma on |r| <= 1")
    a = np.linspace(0.01, 10.0, samples)
    na = law(a)
    gb = params.gamma_bar
    if gb > 0:
        diffs = np.abs(np.diff(na))
        steps = np.diff(a) ** gb
        ratio = diffs / steps
        holder = float(ratio.max()) if ratio.size else 0.0
        # a finite sampled Holder constant; explode only on genuine jumps
        if not np.isfinite(holder) or holder > 1e6:
            problems.append("law is not Holder continuous of order gamma_bar on [0.01, 10]")
    return problems


# ---------------------------------------------------------------------------
# pointwise kernels on strain arrays of shape (d, d) + grid.shape

def strain_magnitude_sq(Du: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm, summed over both tensor axes."""
    return np.einsum("ij...,ij...->...", Du, Du)


def _acts_as_zero(delta: float) -> bool:
    """Whether delta acts as zero: its square underflows to 0."""
    return delta * delta == 0


def _singular(p: float, delta: float) -> bool:
    """Whether the energy is singular at Du = 0: p < 2 with a delta that
    acts as zero."""
    return p < 2 and _acts_as_zero(delta)


def _where_positive(base: np.ndarray, kernel) -> np.ndarray:
    """kernel(base) where base = delta^2 + |Du|^2 is positive, and its
    limit 0 where base vanishes: where delta acts as zero and the strain
    vanishes."""
    live = base > 0
    return np.where(live, kernel(np.where(live, base, 1.0)), 0.0)


def _guarded_power(mag2: np.ndarray, e: float, delta: float) -> np.ndarray:
    """(delta^2 + |Du|^2)^e, with the limit 0 for e < 0 where delta acts as
    zero and the strain vanishes."""
    base = delta * delta + mag2
    if e >= 0 or not _acts_as_zero(delta):
        return base ** e
    return _where_positive(base, lambda b: b ** e)


def _power_factor(mag2: np.ndarray, p: float, delta: float) -> np.ndarray:
    """(delta^2 + |Du|^2)^{(p-2)/2}, the stress factor."""
    return _guarded_power(mag2, (p - 2.0) / 2.0, delta)


def _curvature_factor(mag2: np.ndarray, p: float, delta: float) -> np.ndarray:
    """(delta^2 + |Du|^2)^{(p-4)/2}: the energy density's second derivative
    along a strain W is nu [power factor |W|^2 + (p - 2) curvature factor
    (Du : W)^2]."""
    return _guarded_power(mag2, (p - 4.0) / 2.0, delta)


def _lifted_power(mag2: np.ndarray, p: float, delta: float) -> np.ndarray:
    """(delta^2 + |Du|^2)^{p/2} - delta^p, free of cancellation where
    delta^2 >> |Du|^2; its derivative in |Du|^2 is (p/2) times the stress
    factor."""
    if _acts_as_zero(delta):
        return mag2 ** (p / 2.0)
    return delta ** p * np.expm1(0.5 * p * np.log1p(mag2 / delta ** 2))


def _strain_share(mag2: np.ndarray, delta: float) -> np.ndarray:
    """|Du|^2 / (delta^2 + |Du|^2), with the limit 0 where delta acts as
    zero and the strain vanishes."""
    return _where_positive(delta * delta + mag2, lambda b: mag2 / b)


def viscosity_eval(law: ViscosityLaw, rho: GridField) -> GridField:
    """Pointwise nu(rho)."""
    return GridField(rho.grid, law(rho.values), check=False)


def stress(law: ViscosityLaw, params: FluidParams, rho: GridField, Du: np.ndarray) -> np.ndarray:
    """Viscous stress nu(rho) (delta^2 + |Du|^2)^{(p-2)/2} Du."""
    nu = law(rho.values)
    factor = nu * _power_factor(strain_magnitude_sq(Du), params.p, params.delta)
    return factor[np.newaxis, np.newaxis] * Du


def dissipation_density(law: ViscosityLaw, params: FluidParams, rho: GridField, Du: np.ndarray) -> GridField:
    """Pointwise nu(rho) (delta^2 + |Du|^2)^{(p-2)/2} |Du|^2, the integrand
    whose integral balances the work of the forcing at a minimizer."""
    nu = law(rho.values)
    mag2 = strain_magnitude_sq(Du)
    vals = nu * _power_factor(mag2, params.p, params.delta) * mag2
    return GridField(rho.grid, vals, check=False)
