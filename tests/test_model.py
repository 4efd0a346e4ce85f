"""Exponent arithmetic, parameter validation, and feature invariants."""

import math

import pytest

from bnball.bubble import lambda_1
from bnball.model import (
    Error,
    InvalidDimension,
    InvalidLambda,
    NodalFeatures,
    NonpositiveLambda,
    Params,
    UndefinedExponent,
)
from bnball.shooting import solve_nodal


def test_exponents_n7():
    e = Params(n=7, lam=1.0)
    assert e.two_star == 14.0 / 5.0
    assert e.beta == 2.0 / 5.0
    assert e.rate_exp == 6.0 / 5.0
    assert e.green_exp == 5.0 / 6.0


def test_exponents_n8():
    e = Params(n=8, lam=1.0)
    assert e.two_star == 8.0 / 3.0
    assert e.beta == 1.0 / 3.0
    # computed as 2 - 2*beta, one ulp from the simplified fraction
    assert e.rate_exp == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert e.green_exp == 3.0 / 4.0


def test_exponents_n4():
    e = Params(n=4, lam=1.0)
    assert e.two_star == 4.0
    assert e.beta == 1.0
    assert e.rate_exp == 0.0
    with pytest.raises(UndefinedExponent):
        e.green_exp


@pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 12, 25])
def test_exponent_identity(n):
    e = Params(n=n, lam=1.0)
    assert e.two_star - 2.0 == pytest.approx(2.0 * e.beta, rel=1e-15)


@pytest.mark.parametrize("bad", [2, 1, 0, -3])
def test_dimension_too_small(bad):
    with pytest.raises(InvalidDimension):
        Params(n=bad, lam=1.0)


@pytest.mark.parametrize("bad", [3.0, "7", None, True])
def test_dimension_not_integer(bad):
    with pytest.raises(InvalidDimension):
        Params(n=bad, lam=1.0)


def test_params_rejects_negative_lambda():
    """A negative lambda has the code of lambda = 0 at solve time; a
    non-finite one is invalid."""
    with pytest.raises(NonpositiveLambda):
        Params(n=7, lam=-1.0)
    for bad in (math.nan, -math.inf, math.inf):
        with pytest.raises(InvalidLambda):
            Params(n=7, lam=bad)


def test_params_admits_zero_lambda():
    # lambda = 0 is the pure critical equation, kept for the bubble oracle.
    p = Params(n=7, lam=0.0)
    assert p.two_star == 14.0 / 5.0


def test_nonlinearity():
    p = Params(n=7, lam=1.0)
    assert p.nonlinearity(1.0) == pytest.approx(2.0, rel=1e-15)
    assert p.nonlinearity(-1.0) == pytest.approx(-2.0, rel=1e-15)
    assert p.nonlinearity(0.0) == 0.0


def test_validate_lambda():
    """Params admits any finite lambda >= 0; solving needs 0 < lambda <
    lambda_1, with one error code per side."""
    lam1 = 33.217461914268369
    assert lambda_1(7) == pytest.approx(lam1, rel=1e-12)
    for lam, error in [
        (-1.0, NonpositiveLambda),
        (0.0, NonpositiveLambda),
        (lambda_1(7), InvalidLambda),
        (40.0, InvalidLambda),
    ]:
        with pytest.raises(error):
            solve_nodal(Params(n=7, lam=lam), 2)


def _features(**overrides):
    base = dict(
        r_lambda=0.5,
        s_lambda=0.75,
        m_plus=1.0,
        m_minus=0.125,
        du_node=-1.0,
        du_boundary=1.0,
        sigma=0.5,
        rho=0.2,
        gamma=0.3,
    )
    base.update(overrides)
    return NodalFeatures(**base)


def test_features_accepts_valid():
    f = _features()
    assert 0.0 < f.r_lambda < f.s_lambda < 1.0


def test_features_rejects_bad_ordering():
    with pytest.raises(Error):
        _features(r_lambda=0.8, s_lambda=0.5)
    with pytest.raises(Error):
        _features(s_lambda=1.5)


def test_features_rejects_bad_signs():
    with pytest.raises(Error):
        _features(du_node=0.0)
    with pytest.raises(Error):
        _features(du_boundary=-1.0)
    with pytest.raises(Error):
        _features(m_minus=-0.125)
