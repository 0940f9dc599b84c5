"""Maclaurin partial sums with argument reduction."""

import math

import numpy as np
import pytest

from econlab import (DomainError, TaylorSpec, cos_taylor, exp_i_taylor,
                     sin_diff_identity_residual, sin_taylor)


def test_spec_validation():
    with pytest.raises(DomainError):
        TaylorSpec(0)
    with pytest.raises(DomainError):
        TaylorSpec(8, center=1.0)
    assert TaylorSpec(8).terms == 8


def test_sin_cos_match_stdlib_after_reduction():
    spec = TaylorSpec(24)
    for x in np.linspace(-20.0, 20.0, 81):
        assert abs(sin_taylor(float(x), spec) - math.sin(x)) < 1.0e-12
        assert abs(cos_taylor(float(x), spec) - math.cos(x)) < 1.0e-12


def test_reduction_sends_minus_pi_to_plus_pi():
    spec = TaylorSpec(24)
    # both ends reduce to the same argument, so the sums are identical
    assert cos_taylor(-math.pi, spec) == cos_taylor(math.pi, spec)
    assert sin_taylor(-math.pi, spec) == sin_taylor(math.pi, spec)


def test_single_term_sums():
    spec = TaylorSpec(1)
    assert sin_taylor(0.3, spec) == 0.3
    assert cos_taylor(0.3, spec) == 1.0


def test_exp_i_components_track_sin_cos_sums():
    for terms in (1, 2, 3, 5, 8, 24):
        spec = TaylorSpec(terms)
        for x in (-3.0, -0.7, 0.0, 0.4, 2.9):
            m = exp_i_taylor(x, spec)
            assert abs(m.re - cos_taylor(x, spec)) < 1.0e-14
            assert abs(m.im - sin_taylor(x, spec)) < 1.0e-14


def test_exp_i_euler_identity_at_pi():
    m = exp_i_taylor(math.pi, TaylorSpec(24))
    assert abs(m.re + 1.0) < 1.0e-12
    assert abs(m.im) < 1.0e-12


def test_sin_difference_identity_residual_is_tiny():
    rng = np.random.default_rng(31)
    for _ in range(100):
        a, b = rng.uniform(-8.0, 8.0, 2)
        assert sin_diff_identity_residual(float(a), float(b)) < 1.0e-11


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_argument_is_a_domain_error(x):
    spec = TaylorSpec(8)
    for fn in (sin_taylor, cos_taylor, exp_i_taylor):
        with pytest.raises(DomainError):
            fn(x, spec)
