"""Constant-relative-risk-aversion utility, affine-family form
k0 * x^(1-theta)/(1-theta) + k1, with the log branch at theta = 1.

arrow_pratt recovers the relative risk aversion -U''(x) x / U'(x)
purely from utility values by central differences, which is the whole
point: the family is characterized by that measure being constant.
"""

import math
from dataclasses import dataclass

from .errors import DomainError

# distance from theta = 1 below which the log branch is used
_LOG_BRANCH_TOL = 1.0e-12


@dataclass(frozen=True)
class CrraSpec:
    theta: float
    k0: float = 1.0
    k1: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.theta) or self.theta <= 0.0:
            raise DomainError(f"theta must be positive, got {self.theta}")
        if not math.isfinite(self.k0) or self.k0 <= 0.0:
            raise DomainError(f"k0 must be positive, got {self.k0}")
        if not math.isfinite(self.k1):
            raise DomainError("k1 must be finite")


def _check_x(x):
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"consumption must be positive, got {x}")


def utility(s: CrraSpec, x: float) -> float:
    _check_x(x)
    if abs(s.theta - 1.0) <= _LOG_BRANCH_TOL:
        return s.k0 * math.log(x) + s.k1
    return s.k0 * x ** (1.0 - s.theta) / (1.0 - s.theta) + s.k1


def marginal(s: CrraSpec, x: float) -> float:
    """U'(x) = k0 x^(-theta) on both branches."""
    _check_x(x)
    return s.k0 * x ** (-s.theta)


def arrow_pratt(s: CrraSpec, x: float, h=None) -> float:
    """-U''(x) x / U'(x) with U', U'' from central differences.

    Default step 1e-4 * x balances truncation against roundoff across
    the usual consumption range.  Requires 0 < h < x.
    """
    _check_x(x)
    if h is None:
        h = 1.0e-4 * x
    if not math.isfinite(h) or h <= 0.0 or h >= x:
        raise DomainError(f"need 0 < h < x, got h={h}, x={x}")
    up = utility(s, x + h)
    u0 = utility(s, x)
    dn = utility(s, x - h)
    d1 = (up - dn) / (2.0 * h)
    if h * h == 0.0 or d1 == 0.0:
        raise DomainError(f"step h={h} too small to resolve U' and U'' at x={x}")
    d2 = (up - 2.0 * u0 + dn) / (h * h)
    return -d2 * x / d1
