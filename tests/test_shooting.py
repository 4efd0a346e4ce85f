"""Shooting solver: zero landscape, bracketing, features, and sweeps."""

import math

import pytest

from conftest import nodal_fixture
from bnball.bubble import bubble_eval, normalized_mu
from bnball.model import (
    ConfigError,
    InvalidLambda,
    MissingInteriorZero,
    NoBracketFound,
    Params,
)
from bnball.ode import integrate
from bnball.shooting import (
    continuation_sweep,
    extract_features,
    solve_nodal,
)


def test_landscape_small_amplitude():
    """Below the k=1 amplitude the profile stays positive on the ball."""
    profile = integrate(Params(n=7, lam=1.0), 1e-3, 1.0)
    assert not profile.zero_crossings()
    assert profile.u(1.0) > 0.0


def test_landscape_bubble():
    profile = integrate(Params(n=7, lam=0.0), 1.0, 1.0)
    assert not profile.zero_crossings()
    assert profile.u(1.0) == pytest.approx(
        bubble_eval(7, normalized_mu(7), 1.0), rel=1e-10
    )


def test_solve_k1(k1_solutions):
    sol = k1_solutions[2.0]
    assert sol.a_star > 0.0
    assert not sol.profile.zero_crossings() or all(
        e.r > 1.0 - 1e-9 for e in sol.profile.zero_crossings()
    )
    assert abs(sol.residuals.nehari) < 1e-6
    assert abs(float(sol.profile.u(1.0))) < 1e-9 * sol.a_star


def test_solve_k2_structure(sol7_lam2):
    f = sol7_lam2.features
    assert f is not None
    assert 0.0 < f.r_lambda < f.s_lambda < 1.0
    assert f.m_plus > f.m_minus > 0.0
    interior = [
        e for e in sol7_lam2.profile.zero_crossings() if e.r < 1.0 - 1e-9
    ]
    assert len(interior) == 1
    assert abs(float(sol7_lam2.profile.u(1.0))) < 1e-9 * sol7_lam2.a_star


def test_feature_scaling_identities(sol7_lam2):
    f = sol7_lam2.features
    beta = Params(n=7, lam=2.0).beta
    assert f.sigma == pytest.approx(f.m_plus**beta * f.r_lambda, rel=1e-12)
    assert f.rho == pytest.approx(f.m_minus**beta * f.r_lambda, rel=1e-12)
    assert f.gamma == pytest.approx(f.m_minus**beta * f.s_lambda, rel=1e-12)


def test_bubble_tower_speeds(sol7_lam2, k1_solutions):
    # the slow outer hump of the k=2 tower tracks the k=1 amplitude
    assert sol7_lam2.features.m_minus == pytest.approx(
        k1_solutions[2.0].a_star, rel=1e-2
    )


def test_solve_rejects_bad_lambda():
    with pytest.raises(InvalidLambda):
        solve_nodal(Params(n=7, lam=40.0), 2)


def test_no_bracket_in_low_dimension():
    """No second zero enters the ball for n=4 at small lambda."""
    with pytest.raises(NoBracketFound) as info:
        solve_nodal(Params(n=4, lam=0.5), 2)
    report = info.value.report
    assert report["n"] == 4
    assert report["k"] == 2
    assert report["evaluations"] > 10


def test_sweep_empty_grid():
    assert continuation_sweep(Params(n=7, lam=1.0), []) == []


def test_sweep_requires_decreasing_grid():
    with pytest.raises(ConfigError):
        continuation_sweep(Params(n=7, lam=1.0), [1.0, 2.0])


def test_sweep_records_per_point_errors():
    points = continuation_sweep(Params(n=7, lam=40.0), [40.0], k=2)
    assert len(points) == 1
    assert points[0].solution is None
    assert points[0].error == "invalid-lambda"


def test_sweep_trends(sweep7):
    m_plus = [p.solution.features.m_plus for p in sweep7]
    r_lam = [p.solution.features.r_lambda for p in sweep7]
    assert all(b > a for a, b in zip(m_plus, m_plus[1:]))
    assert all(b < a for a, b in zip(r_lam, r_lam[1:]))


def test_extract_features_fixture():
    f = extract_features(nodal_fixture(), Params(n=7, lam=2.0))
    assert f.r_lambda == 0.5
    assert f.s_lambda == 0.75
    assert f.m_plus == 1.0
    assert f.m_minus == 0.125
    assert f.du_node == -1.0


def test_extract_features_needs_interior_zero():
    profile = integrate(Params(n=7, lam=0.0), 1.0, 1.0)
    with pytest.raises(MissingInteriorZero):
        extract_features(profile, Params(n=7, lam=0.0))


def test_solve_k_validation():
    with pytest.raises(ConfigError):
        solve_nodal(Params(n=7, lam=2.0), 0)
