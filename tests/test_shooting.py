"""Shooting solver: zero landscape, bracketing, features, and sweeps."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nodal_fixture
from bnball import shooting
from bnball.bubble import bubble_eval, normalized_mu
from bnball.model import (
    ConfigError,
    Error,
    InvalidLambda,
    MissingInteriorZero,
    NoBracketFound,
    NonconvergentBisection,
    Params,
)
from bnball.ode import integrate, shoot
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


def _record_amplitudes(monkeypatch):
    """Amplitudes of every shooting evaluation solve_nodal runs, in call order."""
    tried = []

    def recording(params, a, **kwargs):
        tried.append(a)
        return shoot(params, a, **kwargs)

    monkeypatch.setattr(shooting, "shoot", recording)
    return tried


def test_no_bracket_in_low_dimension(monkeypatch):
    """No second zero enters the ball for n=4 at small lambda; the search
    gives up only after trying the ceiling of the full amplitude range."""
    tried = _record_amplitudes(monkeypatch)
    with pytest.raises(NoBracketFound) as info:
        solve_nodal(Params(n=4, lam=0.5), 2)
    report = info.value.report
    assert report["n"] == 4
    assert report["k"] == 2
    assert report["a_range_searched"] == [1e-3, 1e30]
    assert max(tried) == pytest.approx(report["a_range_searched"][1], rel=1e-14)
    assert report["evaluations"] == len(tried)


@pytest.mark.parametrize("n", [5, 6])
def test_no_bracket_classified_quickly(monkeypatch, n):
    """n=5, 6 have no k=2 solution at small lambda (Atkinson-Brezis-Peletier);
    the log-space bracket reaches that verdict in few evaluations."""
    tried = _record_amplitudes(monkeypatch)
    with pytest.raises(NoBracketFound):
        solve_nodal(Params(n=n, lam=0.5), 2)
    assert len(tried) <= 20


def test_each_amplitude_integrated_once(monkeypatch):
    """Each amplitude is shot once, and a successful solve runs integrate
    exactly once, at a*; its profile equals a fresh integration."""
    tried = _record_amplitudes(monkeypatch)
    integrated = []

    def recording(params, a, *args, **kwargs):
        profile = integrate(params, a, *args, **kwargs)
        integrated.append((a, profile))
        return profile

    monkeypatch.setattr(shooting, "integrate", recording)
    params = Params(n=7, lam=2.0)
    sol = solve_nodal(params, 2)
    assert tried and len(set(tried)) == len(tried)
    assert sol.a_star in tried
    [(a, profile)] = integrated
    assert a == sol.a_star
    assert sol.profile.knots is profile.knots

    fresh = integrate(params, sol.a_star, 1.0)
    for name in ("knots", "values", "derivs", "steps"):
        assert np.array_equal(getattr(fresh, name), getattr(sol.profile, name))
    assert fresh.events == sol.profile.events


@pytest.mark.parametrize("rtol", [4.610002271499707e-10, 3.395508712874561e-10])
def test_boundary_band_covers_shoot_integrate_gap(rtol):
    """At these inputs the full integration at a* puts the boundary zero
    more than 10 rtol inside the ball, although the shot there puts it on
    r=1; the band widened by the measured gap still reads it as the
    boundary zero."""
    sol = solve_nodal(Params(n=7, lam=2.0 ** (-7 / 4)), 2, rtol=rtol)
    assert len(sol.profile.interior_zeros()) == 1
    boundary = sol.profile.zero_crossings()[-1].r
    assert 1.0 - sol.profile.boundary_shift - 10.0 * rtol < boundary < 1.0 - 10.0 * rtol


def test_miscounted_zero_pair_is_rejected(monkeypatch):
    """Shots that count a pair of zeros the solution does not have leave
    (u(1), u'(1)) and hence the boundary band as they are; the full
    profile at the root they converge on fails the interior-zero check."""

    def overcounting(params, a, **kwargs):
        zeros, u1, du1 = shoot(params, a, **kwargs)
        return (zeros + 2 if zeros else 0), u1, du1

    monkeypatch.setattr(shooting, "shoot", overcounting)
    with pytest.raises(NonconvergentBisection, match="gives 0 interior zeros"):
        solve_nodal(Params(n=7, lam=2.0), 2)


@settings(derandomize=True, max_examples=6, deadline=None)
@example(log_rtol=-8.0, n=7, k=2)
@example(log_rtol=-11.0, n=8, k=2)
@given(
    log_rtol=st.floats(min_value=-12.0, max_value=-7.0),
    n=st.sampled_from([7, 8]),
    k=st.sampled_from([1, 2]),
)
def test_rtol_never_breaks_the_search(log_rtol, n, k):
    """Every rtol either certifies or fails with a classified solver error;
    the boundary band and the search tolerance follow rtol, so the search
    itself never reports a mismatch."""
    try:
        sol = solve_nodal(Params(n=n, lam=2.0), k, rtol=10.0**log_rtol)
    except Error as exc:
        assert exc.code not in ("nonconvergent-bisection", "missing-interior-zero")
    else:
        assert len(sol.profile.interior_zeros()) == k - 1


def test_sweep_empty_grid():
    assert continuation_sweep(Params(n=7, lam=1.0), []) == []


def test_sweep_requires_decreasing_grid():
    with pytest.raises(ConfigError):
        continuation_sweep(Params(n=7, lam=1.0), [1.0, 2.0])


@pytest.mark.parametrize("grid", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]])
def test_sweep_requires_finite_grid(monkeypatch, grid):
    def no_solve(*args, **kwargs):
        pytest.fail("solve_nodal ran on a non-finite grid")

    monkeypatch.setattr(shooting, "solve_nodal", no_solve)
    with pytest.raises(ConfigError):
        continuation_sweep(Params(n=7, lam=1.0), grid)


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
