"""Determinants, planar maps, 2x2 spectra and companion forms."""

import math
import warnings

import numpy as np
import pytest

from econlab import (ComplexSpectrumError, DegenerateVectorError, DomainError,
                     EigenDecomp2, MatrixComplex, NotDiagonalizableError,
                     SingularSystemError, change_of_basis_apply, companion_det,
                     cramer_solve, det2, detN, eig2, mc_mul,
                     mc_square_is_minus_identity, parallelogram_area,
                     rotation_scaling)


def test_det2_known_value():
    assert det2(np.array([[3.0, 1.0], [1.0, 4.0]])) == 11.0


def test_det2_rejects_wrong_shape():
    with pytest.raises(DomainError):
        det2(np.eye(3))


def test_parallelogram_area_equals_abs_det():
    rng = np.random.default_rng(41)
    for _ in range(100):
        v1, v2 = rng.standard_normal(2), rng.standard_normal(2)
        m = np.column_stack([v1, v2])
        assert abs(parallelogram_area(v1, v2) - abs(det2(m))) < 1.0e-10


def test_parallelogram_area_degenerate_cases():
    v = np.array([2.0, 1.0])
    assert parallelogram_area(v, 3.0 * v) < 1.0e-12
    assert parallelogram_area(np.zeros(2), v) == 0.0


def test_rotation_scaling_recovers_angle_and_scale():
    phi, s = 0.75, 2.5
    a = s * np.array([[math.cos(phi), -math.sin(phi)],
                      [math.sin(phi), math.cos(phi)]])
    x = np.array([1.0, 0.2])
    angle, scale = rotation_scaling(a, x)
    assert abs(angle - phi) < 1.0e-12
    assert abs(scale - s) < 1.0e-12


def test_rotation_scaling_angle_depends_on_argument():
    # a shear stretches different directions by different amounts
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    ang1, sc1 = rotation_scaling(a, np.array([1.0, 0.0]))
    ang2, sc2 = rotation_scaling(a, np.array([0.0, 1.0]))
    assert ang1 == 0.0 and sc1 == 1.0
    assert abs(ang2 + math.pi / 4.0) < 1.0e-12
    assert abs(sc2 - math.sqrt(2.0)) < 1.0e-12


def test_rotation_scaling_degenerate_inputs():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateVectorError):
        rotation_scaling(a, np.zeros(2))
    with pytest.raises(DegenerateVectorError):
        rotation_scaling(a, np.array([0.0, 1.0]))  # x in the kernel


def test_matrix_complex_unit_squares_to_minus_identity():
    i = MatrixComplex(0.0, 1.0)
    sq = mc_mul(i, i)
    assert sq.re == -1.0 and sq.im == 0.0
    assert mc_square_is_minus_identity(i)
    assert not mc_square_is_minus_identity(MatrixComplex(1.0, 1.0))


def test_matrix_complex_multiplication_matches_complex_numbers():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b, c, d = rng.standard_normal(4)
        lhs = mc_mul(MatrixComplex(a, b), MatrixComplex(c, d))
        ref = complex(a, b) * complex(c, d)
        assert abs(lhs.re - ref.real) < 1.0e-12
        assert abs(lhs.im - ref.imag) < 1.0e-12
        rhs = mc_mul(MatrixComplex(c, d), MatrixComplex(a, b))
        assert lhs.re == rhs.re and lhs.im == rhs.im


def test_matrix_complex_as_matrix_layout():
    m = MatrixComplex(2.0, 3.0).as_matrix()
    assert np.array_equal(m, np.array([[2.0, -3.0], [3.0, 2.0]]))


def test_eig2_orders_and_normalizes():
    d = eig2(np.array([[2.5, -0.5], [-0.5, 2.5]]))
    assert d.lambda1 == 3.0 and d.lambda2 == 2.0
    # largest-magnitude component pinned to +1
    assert max(abs(d.v1)) == 1.0 and max(abs(d.v2)) == 1.0
    assert np.max(np.abs(d.P @ d.P_inv - np.eye(2))) < 1.0e-12


def test_eig2_matches_numpy_on_random_real_spectra():
    rng = np.random.default_rng(5)
    count = 0
    while count < 200:
        a = rng.standard_normal((2, 2)) * 3.0
        w = np.linalg.eigvals(a)
        if np.iscomplexobj(w) and np.max(np.abs(w.imag)) > 1.0e-9:
            continue
        if abs(w[0] - w[1]) < 1.0e-6:
            continue
        count += 1
        d = eig2(a)
        assert abs(d.lambda1 - max(w.real)) < 1.0e-9 * max(1.0, np.max(np.abs(w)))
        assert abs(d.lambda2 - min(w.real)) < 1.0e-9 * max(1.0, np.max(np.abs(w)))
        for lam, v in ((d.lambda1, d.v1), (d.lambda2, d.v2)):
            assert np.max(np.abs(a @ v - lam * v)) < 1.0e-8 * max(1.0, np.max(np.abs(a)))


def test_eig2_complex_spectrum_carries_conjugate_pair():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ComplexSpectrumError) as exc:
        eig2(rot)
    first, second = exc.value.pair
    assert abs(first.re) < 1.0e-12 and abs(second.re) < 1.0e-12
    assert abs(first.im - 1.0) < 1.0e-12
    assert abs(second.im + 1.0) < 1.0e-12


def test_eig2_scaled_identity_uses_standard_basis():
    d = eig2(3.0 * np.eye(2))
    assert d.lambda1 == d.lambda2 == 3.0
    assert np.array_equal(d.P, np.eye(2))


def test_eig2_defective_matrix_raises():
    with pytest.raises(NotDiagonalizableError):
        eig2(np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_from_pairs_keeps_supplied_vectors():
    d = EigenDecomp2.from_pairs(2.0, np.array([1.0, 1.0]),
                                3.0, np.array([-1.0, 1.0]))
    assert np.array_equal(d.v1, np.array([1.0, 1.0]))
    assert np.array_equal(d.P[:, 1], np.array([-1.0, 1.0]))
    assert np.max(np.abs(d.P @ d.P_inv - np.eye(2))) < 1.0e-12


def test_from_pairs_rejects_parallel_vectors():
    with pytest.raises(SingularSystemError):
        EigenDecomp2.from_pairs(2.0, np.array([1.0, 1.0]),
                                3.0, np.array([2.0, 2.0]))


def test_change_of_basis_chain_consistency():
    rng = np.random.default_rng(23)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        a = (a + a.T) / 2.0  # symmetric, so the spectrum is real
        try:
            d = eig2(a)
        except NotDiagonalizableError:
            continue
        x = rng.standard_normal(2)
        new, stretched, y = change_of_basis_apply(d, x)
        assert np.max(np.abs(d.P @ new - x)) < 1.0e-9
        assert np.max(np.abs(stretched - np.array([d.lambda1, d.lambda2]) * new)) < 1.0e-9
        assert np.max(np.abs(y - a @ x)) < 1.0e-8


def test_detn_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n))
        ref = np.linalg.det(a)
        assert abs(detN(a) - ref) < 1.0e-9 * max(1.0, abs(ref))


def test_detn_exact_on_permutation_matrices():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        perm = rng.permutation(n)
        a = np.eye(n)[perm]
        sign = np.linalg.det(a)  # +-1 up to rounding
        assert detN(a) == round(sign)


def test_detn_singular_is_exact_zero():
    a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 2.0]])
    assert detN(a) == 0.0


def test_cramer_matches_lu_solve():
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = cramer_solve(a, b)
        assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1.0e-8


def test_cramer_rejects_singular_system():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystemError):
        cramer_solve(a, np.array([1.0, 1.0]))


@pytest.mark.parametrize("scale", [1.0e200, 1.0e-200, 1.0e-300])
def test_cramer_solves_very_large_and_small_matrices(scale):
    a = np.array([[2.0, 1.0], [1.0, 3.0]]) * scale
    b = np.array([3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = cramer_solve(a, b)
    assert np.max(np.abs(x * scale - [1.0, 1.0])) < 1.0e-15


def test_cramer_solution_past_the_float_range_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            cramer_solve(np.eye(2) * 1.0e-320, np.array([1.0, 1.0]))


def test_cramer_shape_mismatch():
    with pytest.raises(DomainError):
        cramer_solve(np.eye(2), np.array([1.0, 2.0, 3.0]))


def _horner(coeffs, x):
    # monic: p(x) = x^n + a_{n-1} x^{n-1} + ... + a_0, coeffs ascending
    acc = 1.0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def test_companion_det_known_cubic_values():
    coeffs = np.array([1.0, 1.0, 1.0])
    assert companion_det(coeffs, -1.0) == 0.0
    assert companion_det(coeffs, 3.0) == 40.0


def test_companion_det_matches_horner():
    rng = np.random.default_rng(59)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        coeffs = rng.uniform(-3.0, 3.0, n)
        x = float(rng.uniform(-3.0, 3.0))
        ref = _horner(coeffs, x)
        assert abs(companion_det(coeffs, x) - ref) < 1.0e-9 * max(1.0, abs(ref))
