"""Single-box carbon stock under exponential emissions."""

import warnings

import numpy as np
import pytest

from econlab import (CarbonParams, DomainError, Grid, airborne_fraction,
                     airborne_fraction_limit, concentration_closed,
                     concentration_rhs, emissions, rk4_integrate)

DEFAULTS = CarbonParams(tau_oc=30.0, tau_ld=30.0, f0=10.0, d=0.02, x0=600.0)


def test_param_validation():
    with pytest.raises(DomainError):
        CarbonParams(tau_oc=0.0, tau_ld=30.0, f0=10.0, d=0.02, x0=600.0)
    with pytest.raises(DomainError):
        CarbonParams(tau_oc=30.0, tau_ld=30.0, f0=-1.0, d=0.02, x0=600.0)
    with pytest.raises(DomainError):
        CarbonParams(tau_oc=30.0, tau_ld=30.0, f0=10.0, d=0.0, x0=600.0)
    with pytest.raises(DomainError):
        CarbonParams(tau_oc=30.0, tau_ld=30.0, f0=10.0, d=0.02, x0=-5.0)


def test_total_decay_rate_combines_reservoirs():
    p = CarbonParams(tau_oc=20.0, tau_ld=40.0, f0=1.0, d=0.01, x0=0.0)
    assert abs(p.c - (1.0 / 20.0 + 1.0 / 40.0)) < 1.0e-15


def test_emissions_grow_exponentially():
    t = np.array([0.0, 10.0, 50.0])
    out = emissions(DEFAULTS, t)
    assert np.allclose(out, 10.0 * np.exp(0.02 * t), rtol=1.0e-14)


def test_emissions_past_the_float_range_raise_domain_error():
    p = CarbonParams(tau_oc=30.0, tau_ld=30.0, f0=1.0e-300, d=1.0, x0=600.0)
    rhs = concentration_rhs(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(emissions(p, 709.0))
        with pytest.raises(DomainError, match="emissions"):
            emissions(p, np.array([0.0, 800.0]))
        with pytest.raises(DomainError, match="emissions"):
            rhs(800.0, 600.0)


def test_closed_form_starts_at_x0_and_solves_the_ode():
    p = DEFAULTS
    assert concentration_closed(p, 0.0) == p.x0
    # derivative check at scattered times: x' = f - c x
    rhs = concentration_rhs(p)
    for t in (0.0, 3.7, 42.0, 150.0):
        h = 1.0e-5 * max(1.0, t)
        num = (concentration_closed(p, t + h)
               - concentration_closed(p, t - h)) / (2.0 * h)
        ana = rhs(t, float(concentration_closed(p, t)))
        assert abs(num - ana) < 1.0e-4 * max(1.0, abs(ana))


def test_closed_form_matches_rk4():
    p = DEFAULTS
    g = Grid(0.0, 100.0, 1000)
    traj = rk4_integrate(concentration_rhs(p), p.x0, g)
    ref = concentration_closed(p, g.times)
    assert np.max(np.abs(traj.states[:, 0] - ref) / np.abs(ref)) < 1.0e-8


def test_airborne_fraction_converges_to_limit():
    p = DEFAULTS
    lim = airborne_fraction_limit(p)
    assert abs(airborne_fraction(p, 200.0) - lim) < 1.0e-3
    assert abs(airborne_fraction(p, 400.0) - lim) < 1.0e-9


def test_airborne_fraction_limit_default_parameters():
    # d / (c + d) with c = 1/15 reduces to 3/13 exactly
    assert abs(airborne_fraction_limit(DEFAULTS) - 3.0 / 13.0) < 1.0e-15


def test_airborne_fraction_accepts_arrays():
    t = np.linspace(0.0, 100.0, 11)
    out = airborne_fraction(DEFAULTS, t)
    assert out.shape == t.shape
    assert np.all(np.isfinite(out))


def test_closed_form_stays_finite_when_the_decay_underflows():
    # at c = 2, t = 400 the old form's e^{(c+d)t} overflowed and its
    # product with e^{-ct} = 0 gave nan
    p = CarbonParams(tau_oc=1.0, tau_ld=1.0, f0=10.0, d=1.0e-9, x0=600.0)
    grid = Grid(0.0, 400.0, 4000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = concentration_closed(p, grid.times)
    traj = rk4_integrate(concentration_rhs(p), p.x0, grid)
    assert np.all(np.isfinite(closed))
    assert abs(closed[-1] - traj.states[-1, 0]) < 1.0e-9 * closed[-1]
