"""Shooting solver: zero landscape, bracketing, features, and sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ACCEPTANCE_GRID, nodal_fixture
from bnball import shooting
from bnball.bubble import delta
from bnball.model import (
    ConfigError,
    Error,
    InvalidLambda,
    MissingInteriorZero,
    NoBracketFound,
    NonconvergentBisection,
    Params,
)
from bnball import ode
from bnball.diagnostics import RESIDUAL_TOL
from bnball.ode import DEFAULT_RTOL, integrate, shoot
from bnball.shooting import (
    BOUNDARY_TOL,
    _pruefer,
    continuation_sweep,
    extract_features,
    solve_nodal,
)


def _boundary_offset(sol):
    """The Pruefer proxy of the accepted profile: about 1 - r_k."""
    profile = sol.profile
    return _pruefer(len(profile.zero_crossings()), *profile.u_du(1.0), sol.k)


def test_landscape_small_amplitude():
    """Below the k=1 amplitude the profile stays positive on the ball."""
    profile = integrate(Params(n=7, lam=1.0), 1e-3, 1.0)
    assert not profile.zero_crossings()
    assert profile.u(1.0) > 0.0


def test_landscape_bubble():
    profile = integrate(Params(n=7, lam=0.0), 1.0, 1.0)
    assert not profile.zero_crossings()
    assert profile.u(1.0) == pytest.approx(
        delta(7, 1.0), rel=1e-10
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


def _record_shots(monkeypatch):
    """(amplitude, rtol, r_k) of every shooting evaluation solve_nodal runs,
    in call order."""
    shots = []

    def recording(params, a, k, **kwargs):
        r_k = shoot(params, a, k, **kwargs)
        shots.append((a, kwargs["rtol"], r_k))
        return r_k

    monkeypatch.setattr(shooting, "shoot", recording)
    return shots


def test_no_bracket_in_low_dimension(monkeypatch):
    """No second zero enters the ball for n=4 at small lambda; the search
    gives up only after trying the ceiling of the full amplitude range.
    There the deviation lies below the zero-trust floor, so the shot finds
    no zero 2 and the report has no gap."""
    shots = _record_shots(monkeypatch)
    with pytest.raises(NoBracketFound) as info:
        solve_nodal(Params(n=4, lam=0.5), 2)
    tried = [a for a, _, _ in shots]
    report = info.value.report
    assert report["n"] == 4
    assert report["k"] == 2
    assert report["a_range_searched"] == [1e-3, 1e30]
    assert max(tried) == pytest.approx(report["a_range_searched"][1], rel=1e-14)
    assert report["evaluations"] == len(tried)
    assert shots[-1][2] == math.inf and report["gap_at_largest"] is None


@pytest.mark.parametrize("n", [5, 6])
def test_no_bracket_classified_quickly(monkeypatch, n):
    """n=5, 6 have no k=2 solution at small lambda (Atkinson-Brezis-Peletier);
    the log-space bracket reaches that verdict in few evaluations."""
    shots = _record_shots(monkeypatch)
    with pytest.raises(NoBracketFound):
        solve_nodal(Params(n=n, lam=0.5), 2)
    assert len(shots) <= 20


def test_each_amplitude_integrated_once(monkeypatch):
    """No amplitude is shot twice, every shot runs at rtol, a* is one of
    them, and a successful solve runs integrate exactly once, at a*; its
    profile equals a fresh integration."""
    shots = _record_shots(monkeypatch)
    integrated = []

    def recording(params, a, *args, **kwargs):
        profile = integrate(params, a, *args, **kwargs)
        integrated.append((a, profile))
        return profile

    monkeypatch.setattr(shooting, "integrate", recording)
    params = Params(n=7, lam=2.0)
    sol = solve_nodal(params, 2)
    tried = [a for a, _, _ in shots]
    assert tried and len(set(tried)) == len(tried)
    assert all(rtol == DEFAULT_RTOL for _, rtol, _ in shots)
    assert sol.a_star in tried
    [(a, profile)] = integrated
    assert a == sol.a_star
    assert sol.profile.knots is profile.knots

    fresh = integrate(params, sol.a_star, 1.0)
    for name in ("knots", "values", "derivs", "steps"):
        assert np.array_equal(getattr(fresh, name), getattr(sol.profile, name))
    assert fresh.events == sol.profile.events


@pytest.mark.parametrize(
    "rtol",
    [
        pytest.param(3.4588713384451516e-10, id="rtol3.46e-10"),
        pytest.param(3.189164926472563e-10, id="rtol3.19e-10"),
    ],
)
def test_boundary_zero_inside_by_shoot_integrate_gap_certifies(monkeypatch, rtol):
    """At these inputs the full integration at a* puts the boundary zero
    more than 2 rtol inside the ball, and further inside than the shot at
    a* put it; the Pruefer offset of the profile is still far below the
    bound."""
    shots = _record_shots(monkeypatch)
    sol = solve_nodal(Params(n=7, lam=2.0 ** (-7 / 4)), 2, rtol=rtol)
    assert sol.features is not None
    # the node and the boundary zero, so the next line reads the latter
    assert len(sol.profile.zero_crossings()) == 2
    boundary = sol.profile.zero_crossings()[-1].r
    (r_shot,) = [r for a, _, r in shots if a == sol.a_star]
    assert boundary < 1.0 - 2.0 * rtol and boundary < r_shot
    assert abs(_boundary_offset(sol)) <= BOUNDARY_TOL


def test_boundary_zero_far_inside_at_small_lambda_certifies(monkeypatch):
    """At n=7, lambda=2^-5, rtol=1e-12 from a = 1e37 the full integration at
    a* puts the boundary zero 1.9e-10 = 186 rtol inside the ball, where an
    rtol-sized band would count it as interior; the Pruefer offset accepts
    it.  The amplitude lies above the default search ceiling, so the
    ceiling is raised here."""
    monkeypatch.setattr(shooting, "_A_MAX", 1e300)
    sol = solve_nodal(Params(n=7, lam=2.0**-5), 2, a_seed=1e37, rtol=1e-12)
    boundary = sol.profile.zero_crossings()[-1].r
    assert 1e-10 < 1.0 - boundary < 1e-9
    assert abs(_boundary_offset(sol)) <= BOUNDARY_TOL
    assert abs(sol.residuals.pohozaev_annulus) < 1e-6


def test_miscounted_zero_pair_is_rejected(monkeypatch):
    """Shots that count a pair of zeros the solution does not have report
    zero 2 as zero 4; the search converges on the k=2 a*, whose full
    profile is off the k=4 root of the Pruefer offset by -2 pi."""

    def overcounting(params, a, k, **kwargs):
        return shoot(params, a, k - 2, **kwargs)

    monkeypatch.setattr(shooting, "shoot", overcounting)
    with pytest.raises(NonconvergentBisection, match=r"offset -6\.283e\+00"):
        solve_nodal(Params(n=7, lam=2.0), 4)


@pytest.mark.parametrize("rtol", [1e-10, 1e-7])
def test_search_stops_at_first_shot_inside_noise_floor(monkeypatch, rtol):
    """The search ends on the first shot whose residual -log r_k lies within
    the noise floor, min(3 rtol, min(tolerances) / 100), and takes its
    amplitude as a*; no shot follows it.  At rtol 1e-7 the cap sets the
    floor."""
    shots = _record_shots(monkeypatch)
    sol = solve_nodal(Params(n=7, lam=2.0), 2, rtol=rtol)
    floor = min(3.0 * rtol, min(BOUNDARY_TOL, RESIDUAL_TOL) / 100.0)
    *before, (a_last, _, r_last) = shots
    assert abs(math.log(r_last)) <= floor
    assert all(abs(math.log(r)) > floor for _, _, r in before)
    assert sol.a_star == a_last


def test_loose_rtol_stop_still_certifies():
    """At rtol 1e-7 a shot with |P| = 2.3e-7 < 3 rtol precedes the root;
    accepting it fails the Pohozaev check, so the floor is capped."""
    sol = solve_nodal(Params(n=7, lam=0.5), 1, rtol=1e-7)
    assert abs(sol.residuals.pohozaev_ball) <= RESIDUAL_TOL


def test_reference_sweep_shot_count(monkeypatch):
    """Evaluations per point of the warm n=7 reference sweep, and the RHS
    calls of the shots, Fortran run and zero location together:
    deterministic counts, 22 evaluations ([7, 4, 4, 4, 3]) and 65,493 RHS
    calls.  Shots from integrate's two-term start and seeds extrapolated
    by grid index took 26 evaluations and 90,267 RHS calls; the Pruefer
    search before the residual -log r_k took 43 shots and 107,115 RHS
    calls."""
    evaluations = []
    rhs_calls = 0
    shooting_now = False

    def recording(params, a, k, **kwargs):
        nonlocal shooting_now
        evaluations.append(params.lam)
        shooting_now = True
        try:
            return shoot(params, a, k, **kwargs)
        finally:
            shooting_now = False

    deviation = ode._deviation

    def counting(*args, **kwargs):
        dev = deviation(*args, **kwargs)

        def counted(fn):
            def call(*args):
                nonlocal rhs_calls
                rhs_calls += shooting_now
                return fn(*args)

            return call

        return dataclasses.replace(dev, f=counted(dev.f), rhs=counted(dev.rhs))

    monkeypatch.setattr(shooting, "shoot", recording)
    monkeypatch.setattr(ode, "_deviation", counting)
    points = continuation_sweep(Params(n=7, lam=4.0), list(ACCEPTANCE_GRID), k=2)
    assert all(p.solution is not None for p in points)
    per_point = [evaluations.count(lam) for lam in ACCEPTANCE_GRID]
    assert sum(per_point) == len(evaluations) <= 23, per_point
    assert rhs_calls <= 68_000


@settings(derandomize=True, max_examples=6, deadline=None)
@example(log_rtol=-8.0, n=7, k=2)
@example(log_rtol=-11.0, n=8, k=2)
# At rtol 1e-4 the search converges but integration error leaves the
# profile's Pruefer offset at 3.3e-6: a certification failure, not a
# search defect.
@example(log_rtol=-4.0, n=7, k=2)
@given(
    log_rtol=st.floats(min_value=-12.0, max_value=-7.0),
    n=st.sampled_from([7, 8]),
    k=st.sampled_from([1, 2]),
)
def test_rtol_never_breaks_the_search(log_rtol, n, k):
    """Every rtol either certifies or fails with a classified solver error;
    the search tolerance follows rtol, so the search itself never reports
    a mismatch."""
    try:
        sol = solve_nodal(Params(n=n, lam=2.0), k, rtol=10.0**log_rtol)
    except Error as exc:
        assert exc.code not in ("nonconvergent-bisection", "missing-interior-zero")
    else:
        assert abs(_boundary_offset(sol)) <= BOUNDARY_TOL


def _fake_sweep(monkeypatch, grid, branch, slopes):
    """The (a_seed, slope) each point of continuation_sweep(grid) hands
    solve_nodal, whose solutions here sit on x* = branch(log lambda) and
    report the given measured slopes in turn."""
    calls = []

    def fake_solve(params, k, *, a_seed, slope, **options):
        calls.append((a_seed, slope))
        return shooting.SignChangingSolution(
            params, k, math.exp(branch(math.log(params.lam))), None, None, None,
            slope=slopes[len(calls) - 1],
        )

    monkeypatch.setattr(shooting, "solve_nodal", fake_solve)
    points = continuation_sweep(Params(n=7, lam=1.0), grid)
    assert all(p.solution is not None for p in points)
    return calls


def test_sweep_seeds_follow_log_lambda_on_uneven_grid(monkeypatch):
    """On a branch quadratic in t = log lambda, with the slopes m whose
    tangent -(1 - m/beta)/(2m) is the branch's own, every seed from the
    third point on is the branch itself, however unevenly the grid is
    spaced; the second follows the tangent alone.  Each solve gets the
    slope the previous one measured."""
    beta = Params(n=7, lam=1.0).beta
    grid = [4.0, 3.0, 1.0, 0.9, 0.2, 0.01]

    def branch(t):
        return 10.0 - 9.0 * t + 0.3 * t * t

    def slope_of(t):
        # m solving -(1 - m/beta)/(2m) = branch'(t) = -9 + 0.6 t
        return 1.0 / (2.0 * (9.0 - 0.6 * t) + 1.0 / beta)

    slopes = [slope_of(math.log(lam)) for lam in grid]
    calls = _fake_sweep(monkeypatch, grid, branch, slopes)
    seeds = [math.log(a_seed) for a_seed, _ in calls]
    t = [math.log(lam) for lam in grid]
    assert calls[0] == (1.0, shooting._SLOPE)
    assert seeds[1] == pytest.approx(
        branch(t[0]) + (-9.0 + 0.6 * t[0]) * (t[1] - t[0]), rel=1e-13
    )
    assert seeds[2:] == pytest.approx([branch(ti) for ti in t[2:]], rel=1e-13)
    assert [slope for _, slope in calls[1:]] == slopes[:-1]
    # the grid-index rule a_i^2 / a_(i-1) misses the third a* a thousandfold
    assert abs(2.0 * branch(t[1]) - branch(t[0]) - branch(t[2])) > math.log(1e3)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.05])
def test_sweep_without_measured_slope_extrapolates_amplitudes(monkeypatch, bad):
    """Where the previous solve measured no positive slope, the seed
    extrapolates the last two amplitudes geometrically, or repeats the
    last one, and the first step assumes the default slope."""
    grid = [4.0, 2.0, 1.0, 0.5]

    def branch(t):
        return 40.0 - 9.0 * t

    calls = _fake_sweep(monkeypatch, grid, branch, [bad] * 4)
    a = [math.exp(branch(math.log(lam))) for lam in grid]
    assert calls == [
        (1.0, shooting._SLOPE),
        (a[0], shooting._SLOPE),
        (a[1] * (a[1] / a[0]), shooting._SLOPE),
        (a[2] * (a[2] / a[1]), shooting._SLOPE),
    ]


def test_measured_slope_is_the_chord_nearest_a_star(sol7_lam2):
    """slope is the chord through the two evaluations nearest a*; with
    fewer than two it is NaN, as it is for a solution built without
    shooting."""
    evaluations = {0.0: -0.5, 1.0: 0.04, 1.5: 0.06, 3.0: 0.2}
    assert shooting._chord_slope(evaluations, 0.9) == pytest.approx(0.04, rel=1e-12)
    assert math.isnan(shooting._chord_slope({1.0: 0.04}, 0.9))
    assert math.isnan(shooting._chord_slope({}, 0.9))
    sol = sol7_lam2
    assert 0.03 < sol.slope < 0.06
    six = shooting.SignChangingSolution(
        sol.params, sol.k, sol.a_star, sol.profile, sol.features, sol.residuals
    )
    assert math.isnan(six.slope)


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
