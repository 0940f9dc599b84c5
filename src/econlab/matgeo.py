"""Determinant geometry and small-matrix linear algebra.

2x2 determinants as parallelogram areas, eigen-decomposition with a
fixed normalization, Cramer's rule on top of an LU determinant, the
companion-determinant evaluation of monic polynomials, and the 2x2
matrix representation of complex numbers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ComplexSpectrumError, DegenerateVectorError, DomainError,
                     NotDiagonalizableError, SingularSystemError)


def as_vec2(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (2,):
        raise DomainError(f"expected a 2-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    return arr


def as_mat2(m) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.shape != (2, 2):
        raise DomainError(f"expected a 2x2 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


def as_matn(m) -> np.ndarray:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("matrix entries must be finite")
    return arr


@dataclass(frozen=True)
class MatrixComplex:
    """a + bi represented as a*I + b*J with J = [[0,-1],[1,0]]."""

    re: float
    im: float

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.re, -self.im], [self.im, self.re]])


def mc_mul(p: MatrixComplex, q: MatrixComplex) -> MatrixComplex:
    """Product via the 2x2 representation: read (re, im) off column 0."""
    re = p.re * q.re + (-p.im) * q.im
    im = p.im * q.re + p.re * q.im
    return MatrixComplex(re, im)


def mc_square_is_minus_identity(p: MatrixComplex) -> bool:
    sq = mc_mul(p, p).as_matrix()
    return bool(np.max(np.abs(sq + np.eye(2))) <= 1.0e-12)


def _finite_ldexp(mantissa: float, exponent: int,
                what: str = "determinant") -> float:
    # mantissa * 2^exponent; the entries are finite, so a non-finite
    # result is an overflow
    try:
        value = math.ldexp(mantissa, exponent)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{what} exceeds the floating-point range")
    return value


def det2(m) -> float:
    # Python floats: an overflow gives inf or nan, never a numpy warning
    a, b, c, d = as_mat2(m).ravel().tolist()
    value = a * d - c * b
    if math.isfinite(value):
        return value
    # a product overflowed: retry on the entries scaled by one power of
    # two (exact) so that max |entry| lies in [1/2, 1)
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a, b, c, d = (math.ldexp(x, -e) for x in (a, b, c, d))
    return _finite_ldexp(a * d - c * b, 2 * e)


def parallelogram_area(v1, v2) -> float:
    """Area spanned by v1, v2 via the height construction.

    Project v2 onto v1, subtract to get the height vector h, and return
    base times height.  Degenerate v1 gives area 0.
    """
    v1 = as_vec2(v1)
    v2 = as_vec2(v2)
    base_sq = float(v1 @ v1)
    if base_sq == 0.0:
        return 0.0
    r = float(v2 @ v1) / base_sq
    h = v2 - r * v1
    return math.sqrt(base_sq) * math.hypot(h[0], h[1])


def rotation_scaling(m, x):
    """Signed angle in (-pi, pi] and scaling factor from x to m@x."""
    m = as_mat2(m)
    x = as_vec2(x)
    y = m @ x
    nx = math.hypot(x[0], x[1])
    ny = math.hypot(y[0], y[1])
    if nx == 0.0:
        raise DegenerateVectorError("x must be nonzero")
    if ny == 0.0:
        raise DegenerateVectorError("m maps x to the zero vector")
    cross = x[0] * y[1] - x[1] * y[0]
    angle = math.atan2(cross, float(x @ y))
    if angle == -math.pi:
        angle = math.pi
    return angle, ny / nx


def _canonical(v) -> np.ndarray:
    """Scale so the largest-magnitude component is exactly +1."""
    i = int(np.argmax(np.abs(v)))
    if v[i] == 0.0:
        raise DegenerateVectorError("cannot normalize the zero vector")
    return v / v[i]


def _null_vector(m, lam) -> np.ndarray:
    # rows of (m - lam*I) give two candidate null vectors; keep the bigger
    c1 = np.array([m[0, 1], lam - m[0, 0]])
    c2 = np.array([lam - m[1, 1], m[1, 0]])
    v = c1 if c1 @ c1 >= c2 @ c2 else c2
    return _canonical(v)


@dataclass
class EigenDecomp2:
    """Real 2x2 eigen-decomposition from its eigenpairs, vectors taken as
    given; P has columns v1, v2, which must be finite and not parallel."""

    lambda1: float
    v1: np.ndarray
    lambda2: float
    v2: np.ndarray

    def __post_init__(self):
        self.lambda1 = float(self.lambda1)
        self.lambda2 = float(self.lambda2)
        self.v1 = as_vec2(self.v1)
        self.v2 = as_vec2(self.v2)
        p = self.P
        scale = max(1.0, float(np.max(np.abs(p))))
        if abs(det2(p)) <= 1.0e-14 * scale * scale:
            raise SingularSystemError("eigenvectors are (numerically) parallel")

    @property
    def P(self) -> np.ndarray:
        return np.column_stack([self.v1, self.v2])

    @property
    def P_inv(self) -> np.ndarray:
        """The adjugate of P over its determinant."""
        p = self.P
        return np.array([[p[1, 1], -p[0, 1]], [-p[1, 0], p[0, 0]]]) / det2(p)


def eig2(m) -> EigenDecomp2:
    """Eigen-decomposition of a real 2x2 matrix by the quadratic formula.

    Eigenvalues ordered lambda1 >= lambda2; each eigenvector scaled so
    its largest-magnitude component is +1.  A complex conjugate pair
    raises ComplexSpectrumError carrying the pair as MatrixComplex
    values; a defective matrix raises NotDiagonalizableError.
    """
    m = as_mat2(m)
    # work on m scaled by one power of two so that max |a_ij| lies in
    # [1/2, 1): exact, so the eigenvectors keep their bits, the products
    # below cannot overflow and every threshold is relative to max |a_ij|
    e = math.frexp(float(np.max(np.abs(m))))[1]
    m = np.ldexp(m, -e)
    a11, a12, a21, a22 = m.ravel().tolist()
    tr = a11 + a22
    det = a11 * a22 - a21 * a12
    disc = tr * tr - 4.0 * det
    scale = max(abs(a11), abs(a12), abs(a21), abs(a22))
    if disc < -(1.0e-12 * scale * scale):
        half = _finite_ldexp(0.5 * tr, e, "eigenvalue")
        im = _finite_ldexp(0.5 * math.sqrt(-disc), e, "eigenvalue")
        raise ComplexSpectrumError(
            f"complex spectrum {half} +/- {im}i",
            pair=(MatrixComplex(half, im), MatrixComplex(half, -im)))
    s = math.sqrt(max(disc, 0.0))
    lam1 = 0.5 * (tr + s)
    lam2 = 0.5 * (tr - s)
    lambda1 = _finite_ldexp(lam1, e, "eigenvalue")
    lambda2 = _finite_ldexp(lam2, e, "eigenvalue")
    if s <= 1.0e-12 * scale:
        # repeated eigenvalue: diagonalizable only for a scaled identity
        if max(abs(a12), abs(a21), abs(a11 - a22)) <= 1.0e-12 * scale:
            return EigenDecomp2(lambda1, (1.0, 0.0), lambda2, (0.0, 1.0))
        raise NotDiagonalizableError(
            f"repeated eigenvalue {lambda1} with a one-dimensional eigenspace")
    return EigenDecomp2(lambda1, _null_vector(m, lam1),
                        lambda2, _null_vector(m, lam2))


def change_of_basis_apply(d: EigenDecomp2, x):
    """Three-stage chain: coordinates in the eigenbasis, the diagonal
    stretch, and the result back in standard coordinates.

    Returns (new_coords, stretched, y) with y = P diag(l1,l2) P^-1 x.
    """
    x = as_vec2(x)
    new_coords = d.P_inv @ x
    stretched = np.array([d.lambda1 * new_coords[0], d.lambda2 * new_coords[1]])
    y = d.P @ stretched
    return new_coords, stretched, y


def detN(m) -> float:
    """Determinant by LU elimination with partial pivoting; one past the
    floating-point range raises DomainError."""
    a = as_matn(m).copy()
    n = a.shape[0]
    sign = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for col in range(n - 1):
            piv = col + int(np.argmax(np.abs(a[col:, col])))
            if a[piv, col] == 0.0:
                return 0.0
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                sign = -sign
            factors = a[col + 1:, col] / a[col, col]
            a[col + 1:, col:] -= np.outer(factors, a[col, col:])
    # the pivot product as mantissa * 2^exponent, so that no partial
    # product overflows; each step rounds as the plain product would
    mantissa, exponent = sign, 0
    for pivot in np.diag(a).tolist():
        pm, pe = math.frexp(pivot)
        mantissa, me = math.frexp(mantissa * pm)
        exponent += pe + me
    return _finite_ldexp(mantissa, exponent)


def cramer_solve(a, b) -> np.ndarray:
    """Solve a x = b by determinant ratios (Cramer's rule)."""
    a = as_matn(a)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if b.shape != (n,):
        raise DomainError(f"right-hand side must have shape ({n},)")
    if not np.all(np.isfinite(b)):
        raise DomainError("right-hand side must be finite")
    # scale a and b by one power of two so that max |a_ij| lies in
    # [1/2, 1): exact, leaves every ratio det(a_i)/det(a) unchanged, and
    # keeps the determinants of very large or small matrices finite
    e = math.frexp(float(np.max(np.abs(a))))[1]
    a = np.ldexp(a, -e)
    with np.errstate(over="ignore"):
        b = np.ldexp(b, -e)
    if not np.all(np.isfinite(b)):
        # |x| >= max|b| / (n max|a|): the solution is past the float range
        raise DomainError("solution exceeds the floating-point range")
    max_col = float(np.max(np.sqrt((a * a).sum(axis=0))))
    d = detN(a)
    if abs(d) <= 1.0e-12 * max_col ** n:
        raise SingularSystemError(f"matrix numerically singular (det {d:.3e})")
    x = np.empty(n)
    for i in range(n):
        ai = a.copy()
        ai[:, i] = b
        x[i] = detN(ai) / d
    if not np.all(np.isfinite(x)):
        raise DomainError("solution exceeds the floating-point range")
    return x


def companion_det(coeffs, x) -> float:
    """Evaluate the monic polynomial x^n + a_{n-1} x^{n-1} + ... + a_0 as
    the determinant of its companion-style matrix.

    coeffs lists a_0 .. a_{n-1} (ascending).  The matrix has first row
    (a_{n-1}+x, a_{n-2}, ..., a_0), -1 on the subdiagonal and x on the
    diagonal below the first row, so its determinant expands to the
    polynomial value.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise DomainError("need at least one coefficient")
    if not (np.all(np.isfinite(c)) and np.isfinite(x)):
        raise DomainError("coefficients and x must be finite")
    n = c.size
    a = np.zeros((n, n))
    a[0, 0] = c[n - 1] + x
    for j in range(1, n):
        a[0, j] = c[n - 1 - j]
    for r in range(1, n):
        a[r, r - 1] = -1.0
        a[r, r] = x
    return detN(a)
