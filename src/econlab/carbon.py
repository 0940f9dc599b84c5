"""One-box atmospheric carbon model with exponential emissions.

Stock dynamics x' + c x = f(t), where c sums the ocean and land uptake
rates and f(t) = f0 e^{dt}.  The airborne fraction (share of emissions
staying in the atmosphere) has a closed form that converges to
d / (c + d) regardless of the initial stock.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class CarbonParams:
    """tau_oc/tau_ld: uptake time scales (years); f0: initial emissions;
    d: emission growth rate; x0: initial atmospheric stock at t = 0."""

    tau_oc: float
    tau_ld: float
    f0: float
    d: float
    x0: float

    def __post_init__(self):
        for name in ("tau_oc", "tau_ld", "f0", "d"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise DomainError(f"{name} must be positive, got {v}")
        if not np.isfinite(self.x0) or self.x0 < 0.0:
            raise DomainError(f"x0 must be nonnegative, got {self.x0}")

    @property
    def c(self) -> float:
        """Total uptake rate 1/tau_oc + 1/tau_ld."""
        return 1.0 / self.tau_oc + 1.0 / self.tau_ld


def _overflow(t) -> DomainError:
    return DomainError(
        f"emissions f0 e^(dt) exceed the floating-point range at t = {t:.6g}")


def emissions(p: CarbonParams, t):
    """f(t) = f0 e^{dt}; accepts scalars or arrays.  A value past the
    floating-point range raises DomainError."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        f = p.f0 * np.exp(p.d * t)
    bad = ~np.isfinite(f)
    if np.any(bad):
        raise _overflow(float(t[bad].flat[0]))
    return f


def concentration_closed(p: CarbonParams, t):
    """Closed-form stock: homogeneous decay of x0 plus the particular
    response to exponential emissions,
    x0 e^{-ct} + f0 (e^{dt} - e^{-ct}) / (c + d).  No factor grows like
    e^{(c+d)t}, so the form stays finite wherever e^{dt} does."""
    t = np.asarray(t, dtype=float)
    decay = np.exp(-p.c * t)
    return p.x0 * decay + p.f0 * (np.exp(p.d * t) - decay) / (p.c + p.d)


def concentration_rhs(p: CarbonParams):
    """Scalar vector field f(t) - c x for cross-checking the closed form
    by RK4.  Emissions past the floating-point range raise DomainError."""
    f0, d, c = p.f0, p.d, p.c

    def rhs(t, x):
        try:
            f = f0 * math.exp(d * t)
        except OverflowError:
            f = math.inf
        if f == math.inf:
            raise _overflow(t)
        return f - c * x

    return rhs


def airborne_fraction(p: CarbonParams, t):
    """AF(t) = (1/f) dx/dt = 1 - c x / f in closed form."""
    t = np.asarray(t, dtype=float)
    c, d = p.c, p.d
    return 1.0 - c * (p.x0 / p.f0 - 1.0 / (c + d)) * np.exp(-(c + d) * t) - c / (c + d)


def airborne_fraction_limit(p: CarbonParams) -> float:
    """Long-run airborne fraction d / (c + d)."""
    return p.d / (p.c + p.d)
