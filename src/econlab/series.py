"""Maclaurin partial sums for sine, cosine and exp(ix).

Terms are accumulated by their recurrence ratio (no explicit
factorials), and every argument is first reduced to (-pi, pi], so the
alternating tails stay well conditioned.
"""

import math
from dataclasses import dataclass

from .errors import DomainError
from .matgeo import MatrixComplex, mc_mul


@dataclass(frozen=True)
class TaylorSpec:
    """Number of nonzero terms of a Maclaurin (center 0) series."""

    terms: int

    def __post_init__(self):
        if self.terms < 1:
            raise DomainError(f"need at least one term, got {self.terms}")


def _reduce(x: float) -> float:
    """Map x into (-pi, pi]; a non-finite x has no reduction."""
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    r = math.remainder(x, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


def sin_taylor(x: float, spec: TaylorSpec) -> float:
    x = _reduce(x)
    term = x
    total = term
    for n in range(1, spec.terms):
        term *= -x * x / ((2 * n) * (2 * n + 1))
        total += term
    return total


def cos_taylor(x: float, spec: TaylorSpec) -> float:
    x = _reduce(x)
    term = 1.0
    total = term
    for n in range(1, spec.terms):
        term *= -x * x / ((2 * n - 1) * (2 * n))
        total += term
    return total


def exp_i_taylor(x: float, spec: TaylorSpec) -> MatrixComplex:
    """Partial sum of exp(ix) in the 2x2 matrix representation.

    spec.terms counts cosine/sine term pairs (powers up to 2*terms - 1),
    so the real and imaginary parts are exactly the cos_taylor and
    sin_taylor partial sums with the same term count.
    """
    x = _reduce(x)
    ix = MatrixComplex(0.0, x)
    term = MatrixComplex(1.0, 0.0)
    re, im = term.re, term.im
    for n in range(1, 2 * spec.terms):
        term = mc_mul(term, ix)
        term = MatrixComplex(term.re / n, term.im / n)
        re += term.re
        im += term.im
    return MatrixComplex(re, im)


def sin_diff_identity_residual(alpha: float, beta: float) -> float:
    """|sin(b-a) - (cos a sin b - cos b sin a)| with 24-term evaluations."""
    s = TaylorSpec(24)
    lhs = sin_taylor(beta - alpha, s)
    rhs = (cos_taylor(alpha, s) * sin_taylor(beta, s)
           - cos_taylor(beta, s) * sin_taylor(alpha, s))
    return abs(lhs - rhs)
