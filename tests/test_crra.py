"""Constant-relative-risk-aversion utility family."""

import math

import numpy as np
import pytest

from econlab import CrraSpec, DomainError, arrow_pratt, marginal, utility


def test_spec_validation():
    with pytest.raises(DomainError):
        CrraSpec(theta=0.0)
    with pytest.raises(DomainError):
        CrraSpec(theta=-1.0)
    with pytest.raises(DomainError):
        CrraSpec(theta=2.0, k0=0.0)


def test_power_branch_values():
    s = CrraSpec(theta=2.0)
    assert utility(s, 2.0) == -0.5
    assert marginal(s, 2.0) == 0.25


def test_log_branch_engages_near_one():
    # the branch protects utility (division by 1 - theta); the marginal
    # x^(-theta) is already continuous and keeps the actual exponent
    for theta in (1.0, 1.0 + 5.0e-13, 1.0 - 5.0e-13):
        s = CrraSpec(theta=theta)
        assert utility(s, 2.0) == math.log(2.0)
        assert abs(marginal(s, 2.0) - 0.5) < 1.0e-12
    assert marginal(CrraSpec(theta=1.0), 2.0) == 0.5


def test_log_branch_is_the_power_limit():
    x = 3.1
    base = utility(CrraSpec(theta=1.0), x)
    for eps in (1.0e-6, 1.0e-8):
        # normalized so the power branch converges to the log as theta -> 1
        s = CrraSpec(theta=1.0 + eps, k0=1.0, k1=-1.0 / (1.0 - (1.0 + eps)))
        assert abs(utility(s, x) - base) < 5.0 * eps


def test_affine_constants_shift_utility_not_curvature():
    plain = CrraSpec(theta=3.0)
    scaled = CrraSpec(theta=3.0, k0=2.0, k1=7.0)
    x = 1.7
    assert abs(utility(scaled, x) - (2.0 * utility(plain, x) + 7.0)) < 1.0e-12
    # curvature agrees up to finite-difference noise
    assert abs(arrow_pratt(scaled, x) - arrow_pratt(plain, x)) < 1.0e-7


def test_positive_consumption_required():
    s = CrraSpec(theta=2.0)
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            utility(s, bad)
        with pytest.raises(DomainError):
            marginal(s, bad)
        with pytest.raises(DomainError):
            arrow_pratt(s, bad)


def test_arrow_pratt_recovers_theta():
    rng = np.random.default_rng(37)
    for theta in (0.5, 1.0, 2.0, 5.0):
        s = CrraSpec(theta=theta)
        for x in rng.uniform(0.2, 10.0, 25):
            assert abs(arrow_pratt(s, float(x)) - theta) < 1.0e-5


def test_arrow_pratt_step_validation():
    s = CrraSpec(theta=2.0)
    with pytest.raises(DomainError):
        arrow_pratt(s, 1.0, h=1.0)  # step reaches the domain edge
    with pytest.raises(DomainError):
        arrow_pratt(s, 1.0, h=0.0)
    assert abs(arrow_pratt(s, 1.0, h=1.0e-5) - 2.0) < 1.0e-5


def test_arrow_pratt_underflowing_step_is_a_domain_error():
    # h = 1e-304: h*h underflows to zero, which must not divide
    with pytest.raises(DomainError):
        arrow_pratt(CrraSpec(theta=1.0), 1.0e-300)
