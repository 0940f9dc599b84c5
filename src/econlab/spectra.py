"""Quadratic symmetric forms x^T A x: evaluation, the closed-form
gradient 2Ax, and their constrained extrema on the unit sphere.

The sphere extrema are found by shifted power iteration, which keeps
the iterates on the sphere (a projected ascent) and exhibits the
Lagrange multiplier as the limiting Rayleigh quotient: the multiplier
IS the eigenvalue, and the extremal value equals it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .matgeo import as_matn


def as_symmatn(a) -> np.ndarray:
    arr = as_matn(a)
    if np.max(np.abs(arr - arr.T)) > 1.0e-12:
        raise DomainError("matrix is not symmetric within 1e-12")
    return arr


def _check_vector(a, x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (a.shape[0],):
        raise DomainError(
            f"vector shape {v.shape} does not match matrix order {a.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    return v


def quadform_eval(a, x) -> float:
    a = as_symmatn(a)
    x = _check_vector(a, x)
    return float(x @ a @ x)


def quadform_grad(a, x) -> np.ndarray:
    """Gradient of x^T A x for symmetric A: exactly 2Ax."""
    a = as_symmatn(a)
    x = _check_vector(a, x)
    return 2.0 * (a @ x)


@dataclass
class SphereExtrema:
    """Constrained extrema of the form on the unit sphere.

    lambda_min/lambda_max are simultaneously the extremal values and
    the Lagrange multipliers; x_min/x_max are unit optimizers.
    """

    lambda_min: float
    x_min: np.ndarray
    lambda_max: float
    x_max: np.ndarray

    def __post_init__(self):
        self.x_min = np.asarray(self.x_min, dtype=float)
        self.x_max = np.asarray(self.x_max, dtype=float)
        for v in (self.x_min, self.x_max):
            if abs(np.linalg.norm(v) - 1.0) > 1.0e-10:
                raise DomainError("optimizers must be unit vectors")
        if self.lambda_min > self.lambda_max:
            raise DomainError("lambda_min must not exceed lambda_max")


def _power(op, a, start, tol, max_iter):
    """Power iteration on `op`, Rayleigh quotients taken against `a`.

    Converged when successive quotients differ by < tol and the
    eigen-residual is below sqrt(tol)/4, leaving headroom for the
    factor of two in the quadratic-form gradient.
    """
    x = start / np.linalg.norm(start)
    lam = float(x @ a @ x)
    resid_tol = 0.25 * math.sqrt(tol)
    resid = np.inf
    for _ in range(max_iter):
        y = op @ x
        x = y / np.linalg.norm(y)
        new_lam = float(x @ a @ x)
        resid = float(np.linalg.norm(a @ x - new_lam * x))
        if abs(new_lam - lam) < tol and resid < resid_tol:
            i = int(np.argmax(np.abs(x)))
            if x[i] < 0.0:
                x = -x
            return new_lam, x
        lam = new_lam
    raise ConvergenceError(
        f"power iteration not converged after {max_iter} iterations "
        f"(last residual {resid:.3e})")


def sphere_extrema(a, tol=1.0e-16, max_iter=100000, start=None) -> SphereExtrema:
    """Min and max of x^T A x on the unit sphere by shifted power iteration.

    The shift sigma = 1 + max absolute row sum makes both a + sigma*I
    and sigma*I - a positive definite (Gershgorin), so iterating each
    recovers the extremes of the spectrum.  The default start vector is
    the fixed uniform direction (1,...,1)/sqrt(n); pass `start` to
    override (repeated extremal eigenvalues make the optimizer
    non-unique, and the start picks the representative).
    """
    a = as_symmatn(a)
    if tol <= 0:
        raise DomainError("tol must be positive")
    n = a.shape[0]
    if start is None:
        start = np.full(n, 1.0 / math.sqrt(n))
    else:
        start = _check_vector(a, start)
        if np.linalg.norm(start) == 0.0:
            raise DomainError("start vector must be nonzero")
    sigma = 1.0 + float(np.max(np.abs(a).sum(axis=1)))
    eye = np.eye(n)
    lam_max, x_max = _power(a + sigma * eye, a, start, tol, max_iter)
    lam_min, x_min = _power(sigma * eye - a, a, start, tol, max_iter)
    return SphereExtrema(lam_min, x_min, lam_max, x_max)


def lagrange_residual(a, x, lam) -> float:
    """Norm of grad q_A - lambda * grad g at x on the sphere g(x)=0."""
    a = as_symmatn(a)
    x = _check_vector(a, x)
    if abs(np.linalg.norm(x) - 1.0) > 1.0e-8:
        raise DomainError("x must lie on the unit sphere (within 1e-8)")
    return float(np.linalg.norm(2.0 * (a @ x) - lam * 2.0 * x))
