"""Shooting solver: zero landscape, bracketing, features, and sweeps."""

import gc
import math
import re
import tracemalloc
import weakref

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
from bnball.ode import DEFAULT_RTOL, integrate
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
        run = ode.shot(params, a, k, **kwargs)
        shots.append((a, kwargs["rtol"], run.r_k))
        return run

    monkeypatch.setattr(shooting, "shot", recording)
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


def _recorded_zero(profile, k):
    """Zero k of a recorded profile: its k-th zero crossing, or, where zero
    k lies beyond r = 1, the Newton step 1 - u(1)/u'(1) toward it."""
    zeros = profile.zero_crossings()
    if len(zeros) >= k:
        return zeros[k - 1].r
    u1, du1 = profile.u_du(1.0)
    return 1.0 - u1 / du1


def test_each_amplitude_integrated_once(monkeypatch):
    """No amplitude is shot twice, every shot runs at rtol, a* is one of
    them, and a successful solve makes no integrate call (nor any solve_ivp
    call): each shot is one stepper run, the only run after the search is
    the one that rebuilds the core below the start of the shot at a*, and
    the profile is built exactly once, from that core and the record of
    the shot at a*, out to r = 1; it equals the profile of a fresh shot at
    a*."""
    ode._linear_response(7)  # built before counting: its runs are not the solve's
    shots, runs, built = [], [], []
    stepper, build = ode._dop853, ode.Shot.profile

    def shooting_at(params, a, k, **kwargs):
        run = ode.shot(params, a, k, **kwargs)
        shots.append((a, kwargs["rtol"], run))
        return run

    def counted(*args):
        runs.append(args[6])  # the start radius, one per run
        return stepper(*args)

    def recording(run):
        profile = build(run)
        built.append((run, profile, len(runs)))
        return profile

    def no_integration(*args, **kwargs):
        pytest.fail("a solve ran an integration")

    monkeypatch.setattr(shooting, "shot", shooting_at)
    monkeypatch.setattr(ode, "_dop853", counted)
    monkeypatch.setattr(ode.Shot, "profile", recording)
    monkeypatch.setattr(shooting, "integrate", no_integration)
    monkeypatch.setattr(ode, "integrate", no_integration)
    monkeypatch.setattr(ode, "solve_ivp", no_integration)
    params = Params(n=7, lam=2.0)
    sol = solve_nodal(params, 2)
    tried = [a for a, _, _ in shots]
    assert tried and len(set(tried)) == len(tried)
    assert all(rtol == DEFAULT_RTOL for _, rtol, _ in shots)
    assert sol.a_star in tried
    [(run, profile, runs_before)] = built
    # one run per shot, and one in the profile's build that rebuilds its
    # core, from the series start up to where the shot at a* started
    assert runs_before == len(runs) == len(shots) + 1
    y_s = run.dev.series_start()[0]
    assert y_s < run.y0 and runs[-1] == y_s
    assert [run] == [s for a, _, s in shots if a == sol.a_star]
    assert sol.profile is profile and profile.r_end == 1.0

    monkeypatch.undo()
    fresh = ode.shot(params, sol.a_star, 2).profile()
    for name in ("knots", "values", "derivs", "steps"):
        assert np.array_equal(getattr(fresh, name), getattr(sol.profile, name))
    assert fresh.events == sol.profile.events


@pytest.mark.parametrize(
    "rtols",
    [
        pytest.param((1.4e-10, 2.2e-10, 3.0e-10, 3.189164926472563e-10), id="rtol3.19e-10"),
        pytest.param(
            (3.4588713384451516e-10, 3.8e-10, 4.6e-10, 5.4e-10, 6.2e-10, 7.0e-10),
            id="rtol3.46e-10",
        ),
    ],
)
def test_boundary_zero_inside_by_shoot_integrate_gap_certifies(monkeypatch, rtols):
    """At n=7, lambda=2^(-7/4) over ten rtols from 1.4e-10 to 7e-10, split
    at the two named ones (each case runs its named rtol and the rtols on
    its side of the pair), the solved profile, built from the shot's own
    record out to r = 1, puts zero 2 within 2 rtol of the shot at a*, its
    Pruefer offset is far below the bound and its annulus Pohozaev
    residual is small.  On some of them a full integration at a* puts the
    boundary zero more than 2 rtol inside the ball, and further inside
    than the shot at a* put it; which ones rests on the last bits of a*,
    so each case asks for at least one."""
    shots = _record_shots(monkeypatch)
    params = Params(n=7, lam=2.0 ** (-7 / 4))
    gaps = 0
    for rtol in rtols:
        sol = solve_nodal(params, 2, rtol=rtol)
        assert sol.features is not None
        (r_shot,) = [r for a, _, r in shots if a == sol.a_star]
        assert abs(_recorded_zero(sol.profile, 2) - r_shot) <= 2.0 * rtol
        assert abs(_boundary_offset(sol)) <= BOUNDARY_TOL
        assert abs(sol.residuals.pohozaev_annulus) < 1e-6
        # the node and the boundary zero, so the last crossing is the latter
        full = integrate(params, sol.a_star, 1.0, rtol=rtol).zero_crossings()
        boundary = full[-1].r
        gaps += len(full) == 2 and boundary < 1.0 - 2.0 * rtol and boundary < r_shot
    assert gaps >= 1


def test_boundary_zero_far_inside_at_small_lambda_certifies(monkeypatch):
    """At n=7, lambda=2^-5 from a = 1e37 over six rtols near 1e-12, the
    solved profile puts zero 2 within 2 rtol of the shot at a*, its
    Pruefer offset accepts it and its annulus Pohozaev residual is small.
    On some of them a full integration at a* puts the boundary zero 1e-10
    to 1e-9 (50 to 1000 rtol) inside the ball, where an rtol-sized band
    would count it as interior; which ones rests on the last bits of a*,
    so the test asks for at least one.  The amplitude lies above the
    default search ceiling, so the ceiling is raised here."""
    monkeypatch.setattr(shooting, "_A_MAX", 1e300)
    shots = _record_shots(monkeypatch)
    params = Params(n=7, lam=2.0**-5)
    far_inside = 0
    for rtol in (0.9e-12, 1e-12, 1.2e-12, 1.5e-12, 1.6e-12, 2e-12):
        sol = solve_nodal(params, 2, a_seed=1e37, rtol=rtol)
        (r_shot,) = [r for a, _, r in shots if a == sol.a_star]
        assert abs(_recorded_zero(sol.profile, 2) - r_shot) <= 2.0 * rtol
        assert abs(_boundary_offset(sol)) <= BOUNDARY_TOL
        assert abs(sol.residuals.pohozaev_annulus) < 1e-6
        boundary = integrate(params, sol.a_star, 1.0, rtol=rtol).zero_crossings()[-1].r
        far_inside += 1e-10 < 1.0 - boundary < 1e-9
    assert far_inside >= 1


@pytest.mark.parametrize("inputs", [
    pytest.param(None, id="reference-sweep"),
    pytest.param((8, 1.0, 1, 1e-8), id="n8-k1-rtol1e-8"),
    pytest.param((7, 0.3, 2, 3e-9), id="n7-k2-rtol3e-9"),
])
def test_solved_profile_is_the_recorded_shot(monkeypatch, inputs):
    """Over the warm n=7 reference sweep, at rtol 1e-10 and 1e-11, and two
    cold solves, a* is the amplitude of a shot the search made, and the
    solved profile is that shot's record out to r = 1.  Where the shot's
    r_k < 1 the profile's k-th zero crossing is r_k bit for bit, located on
    the same step; where r_k >= 1 the profile has k - 1 zero crossings and
    ends at r = 1, and 1 - u(1)/u'(1) lies within 2 rtol of r_k.  Both
    cases occur over the ten sweep points; on which side of the root each
    a* lies rests on its last bits."""
    shots = _record_shots(monkeypatch)
    if inputs is None:
        solutions = [
            (p.solution, rtol)
            for rtol in (DEFAULT_RTOL, 1e-11)
            for p in continuation_sweep(
                Params(n=7, lam=4.0), list(ACCEPTANCE_GRID), k=2, rtol=rtol
            )
        ]
    else:
        n, lam, k, rtol = inputs
        solutions = [(solve_nodal(Params(n=n, lam=lam), k, rtol=rtol), rtol)]
    inside = 0
    for sol, rtol in solutions:
        (r_shot,) = [r for a, _, r in shots if a == sol.a_star]
        profile, k = sol.profile, sol.k
        assert profile.a == sol.a_star and profile.r_end == 1.0
        zeros = profile.zero_crossings()
        if r_shot < 1.0:
            inside += 1
            assert zeros[k - 1].r.hex() == r_shot.hex()
        else:
            assert len(zeros) == k - 1
        assert abs(_recorded_zero(profile, k) - r_shot) <= 2.0 * rtol
    if inputs is None:
        assert 0 < inside < len(solutions)


def test_miscounted_zero_pair_is_rejected(monkeypatch):
    """Shots that count a pair of zeros the solution does not have report
    zero 2 as zero 4; the search converges on the k=2 a*, whose full
    profile is off the k=4 root of the Pruefer offset by -2 pi."""

    def overcounting(params, a, k, **kwargs):
        return ode.shot(params, a, k - 2, **kwargs)

    monkeypatch.setattr(shooting, "shot", overcounting)
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
    evaluations of the stepper as it counts them (the start and hinit's
    Euler step, or the start alone where the first step comes with it; 11
    stages per attempt, 1 more per accepted step; the 3 dense-output
    stages of the located zero are the end-of-run pass's), over the shots
    and the runs that rebuild each accepted profile's core: deterministic
    counts, 22 evaluations ([7, 4, 4, 4, 3]) and 44,066 RHS evaluations,
    36,629 of them in the shots and 7,437 in the 5 core runs.  The linear
    response table is built before counting.  The search refined by
    scipy's brentq took 22 evaluations and 44,147.  Shots from the series
    start took 64,723 for the same 22 evaluations (64,789 with those
    stages); the shots that took no step in eighths into r = 1 and
    recorded nothing 63,771, the scipy.integrate.ode dop853 shots 65,493;
    shots from integrate's two-term start and seeds extrapolated by grid
    index took 26 evaluations and 90,267 RHS calls, and the Pruefer search
    before the residual -log r_k 43 shots and 107,115 RHS calls."""
    evaluations = []
    rhs_evaluations = 0
    stepper = ode._dop853
    ode._linear_response(7)

    def recording(params, a, k, **kwargs):
        evaluations.append(params.lam)
        return ode.shot(params, a, k, **kwargs)

    def counted(*args):
        nonlocal rhs_evaluations
        result = stepper(*args)
        rhs_evaluations += result[0]
        return result

    monkeypatch.setattr(shooting, "shot", recording)
    monkeypatch.setattr(ode, "_dop853", counted)
    points = continuation_sweep(Params(n=7, lam=4.0), list(ACCEPTANCE_GRID), k=2)
    assert all(p.solution is not None for p in points)
    per_point = [evaluations.count(lam) for lam in ACCEPTANCE_GRID]
    assert sum(per_point) == len(evaluations) <= 22, per_point
    assert all(abs(got - want) <= 1 for got, want in zip(per_point, [7, 4, 4, 4, 3])), per_point
    assert rhs_evaluations < 45_000, rhs_evaluations


def test_cold_seed_block_shot_count(monkeypatch):
    """perfbench's solve-cold block at seed 1, six cold solves (n, k,
    lambda, rtol) from a = 1, takes at most 39 shots: 38, deterministic,
    where the search refined with scipy's brentq took 39."""
    shots = _record_shots(monkeypatch)
    for n, k, lam, rtol in (
        (7, 1, 2.0 ** (-6 / 4), 2.258425725820192e-09),
        (8, 1, 2.0 ** (6 / 4), 4.42786312858188e-11),
        (7, 2, 2.0 ** (-8 / 4), 4.912491017824825e-10),
        (8, 2, 2.0 ** (0 / 4), 3.619913814776434e-11),
        (7, 2, 2.0 ** (3 / 4), 6.6179248876953295e-09),
        (8, 2, 2.0 ** (5 / 4), 8.497245507211892e-11),
    ):
        solve_nodal(Params(n=n, lam=lam), k, rtol=rtol)
    assert len(shots) <= 39, len(shots)


class _Accepted(Exception):
    """Raised with a* when the search accepts a stubbed shot."""


def _stub_search(monkeypatch, residual):
    """The x = log a of every shot solve_nodal makes when each shot's r_k
    is exp(-residual(x)); building the accepted shot's profile raises
    _Accepted with its amplitude."""
    xs = []

    class Stubbed:
        def __init__(self, a):
            self.a, self.r_k = a, math.exp(-residual(math.log(a)))

        def profile(self):
            raise _Accepted(self.a)

    def stubbed(params, a, k, **kwargs):
        xs.append(math.log(a))
        return Stubbed(a)

    monkeypatch.setattr(shooting, "shot", stubbed)
    return xs


def test_stalled_interpolation_ends_within_two_shots_per_halving(monkeypatch):
    """On P = (x - 1/2)^3, flat at its root, interpolation creeps in from
    one end of the bracket.  With no noise floor the search ends only
    where P rounds to 0, within 4e-6 of the root (the stub's r_k =
    exp(-P) is 1 for |P| < 6e-17), and it gets there within
    2 log2(W0/rtol) + 3 shots of the first bracket, of width W0, because
    it bisects whenever the bracket has not halved once per two steps:
    36 shots after the first bracket, against 84 with interpolation
    alone."""
    monkeypatch.setattr(shooting, "_FLOOR_CAP", 0.0)
    xs = _stub_search(monkeypatch, lambda x: (x - 0.5) ** 3)
    rtol = 1e-10
    # From a = 1 a first step of 3 brackets the root in two shots.
    with pytest.raises(_Accepted) as accepted:
        solve_nodal(Params(n=7, lam=2.0), 2, slope=0.5**3 / 3.0, rtol=rtol)
    (a_star,) = accepted.value.args
    assert xs[:2] == [0.0, pytest.approx(3.0, rel=1e-9)]
    width = xs[1] - xs[0]
    assert len(xs) - 2 <= 2.0 * math.log2(width / rtol) + 3.0, len(xs)
    assert abs(math.log(a_star) - 0.5) < 4e-6


@pytest.mark.parametrize("jump", [
    pytest.param((-1e-3, 2e-3), id="below-nearer"),
    pytest.param((-2e-3, 1e-3), id="above-nearer"),
])
def test_narrow_bracket_takes_the_end_nearer_the_root(monkeypatch, jump):
    """Where P jumps across zero at x = 1, the bracket narrows below rtol
    with both ends finite, and a* is the end with the smaller |P|,
    whichever side it lies on."""
    below, above = jump
    xs = _stub_search(monkeypatch, lambda x: below if x < 1.0 else above)
    rtol = 1e-10
    with pytest.raises(_Accepted) as accepted:
        solve_nodal(Params(n=7, lam=2.0), 2, rtol=rtol)
    (a_star,) = accepted.value.args
    x_lo = max(x for x in xs if x < 1.0)
    x_hi = min(x for x in xs if x >= 1.0)
    assert x_hi - x_lo < rtol
    assert math.log(a_star) == (x_lo if abs(below) < abs(above) else x_hi)


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
    """A solve that measures no positive slope leaves the seed on the
    tangent of the last slope measured, or of the default slope before
    any, from the last amplitude; that slope is the first step's.  The
    curvature term comes from the last two points that measured a slope,
    however far apart."""
    grid = [4.0, 2.0, 1.0, 0.5]
    t = [math.log(lam) for lam in grid]
    beta = Params(n=7, lam=1.0).beta

    def branch(t):
        return 40.0 - 9.0 * t

    def tangent(m):
        return -(1.0 - m / beta) / (2.0 * m)

    def seed(i, m, curvature=0.0):
        # log a_seed of point i + 1 from point i
        dt = t[i + 1] - t[i]
        return branch(t[i]) + tangent(m) * dt + 0.5 * curvature * dt * dt

    gap_curvature = (tangent(0.04) - tangent(0.05)) / (t[2] - t[0])
    for slopes, expected in (
        ([0.05, bad, bad, bad], [(seed(i, 0.05), 0.05) for i in range(3)]),
        ([bad] * 4, [(seed(i, shooting._SLOPE), shooting._SLOPE) for i in range(3)]),
        ([0.05, bad, 0.04, bad],
         [(seed(0, 0.05), 0.05), (seed(1, 0.05), 0.05),
          (seed(2, 0.04, gap_curvature), 0.04)]),
    ):
        calls = _fake_sweep(monkeypatch, grid, branch, slopes)
        assert calls[0] == (1.0, shooting._SLOPE)
        assert [slope for _, slope in calls[1:]] == [m for _, m in expected]
        assert [math.log(a_seed) for a_seed, _ in calls[1:]] == pytest.approx(
            [x for x, _ in expected], rel=1e-13
        )


def test_measured_slope_is_the_chord_nearest_a_star(sol7_lam2):
    """slope is the chord through the two (x, P) evaluations of the search
    trail nearest a* whose finite |P| clears the noise floor a hundredfold;
    with fewer than two it is NaN, as it is for a solution built without
    shooting.  The reference sweep's slope at lambda = 2 is 0.0441251."""
    floor = 1e-6
    trail = [(0.0, -0.5), (1.0, 0.04), (3.0, 0.2), (0.95, 5e-5), (0.8, -math.inf), (1.5, 0.06)]
    assert shooting._chord_slope(trail, 0.9, floor) == pytest.approx(0.04, rel=1e-12)
    assert math.isnan(shooting._chord_slope([(1.0, 0.04), (0.95, 5e-5)], 0.9, floor))
    assert math.isnan(shooting._chord_slope([], 0.9, floor))
    sol = sol7_lam2
    assert sol.slope == pytest.approx(0.0441251, rel=1e-6)
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


def test_sweep_requires_positive_grid(monkeypatch):
    """lambda <= 0 lies outside (0, lambda_1) for every n: the grid is an
    input error before any solve, not a log of a nonpositive lambda."""

    def no_solve(*args, **kwargs):
        pytest.fail("solve_nodal ran on a nonpositive grid")

    monkeypatch.setattr(shooting, "solve_nodal", no_solve)
    with pytest.raises(ConfigError, match=re.escape("must be positive, got [2.0, 0.0]")):
        continuation_sweep(Params(n=7, lam=1.0), [2.0, 0.0])


def test_sweep_records_per_point_errors():
    points = continuation_sweep(Params(n=7, lam=40.0), [40.0], k=2)
    assert len(points) == 1
    assert points[0].solution is None
    assert points[0].error == "invalid-lambda"


def test_interrupt_in_a_shot_escapes(monkeypatch):
    """Ctrl-C inside a shot's right-hand side is no integration failure: it
    leaves ode.shot, and the sweep, as KeyboardInterrupt, and no RHS
    evaluation follows it.  The interrupt is raised from expm1, which the
    inlined right-hand side calls on its stable branch; every evaluation
    calls abs, so its calls after the raise count the evaluations."""
    calls = {"expm1": 0, "abs": 0}
    at_raise = []

    def interrupted(x):
        calls["expm1"] += 1
        if calls["expm1"] == 500:
            at_raise.append(calls["abs"])
            raise KeyboardInterrupt
        return math.expm1(x)

    def counted(x):
        calls["abs"] += 1
        return abs(x)

    generated = ode._dop853.__globals__
    monkeypatch.setitem(generated, "expm1", interrupted)
    monkeypatch.setitem(generated, "abs", counted)
    with pytest.raises(KeyboardInterrupt):
        ode.shot(Params(n=7, lam=2.0), 4.25e19, 2)
    assert calls == {"expm1": 500, "abs": at_raise[-1]}
    calls["expm1"] = 0
    with pytest.raises(KeyboardInterrupt):
        continuation_sweep(Params(n=7, lam=2.0), [2.0, 1.0])
    assert calls == {"expm1": 500, "abs": at_raise[-1]}


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
    # a sweep raises solve_nodal's ConfigError rather than recording it
    with pytest.raises(ConfigError, match="k must be >= 1"):
        continuation_sweep(Params(n=7, lam=2.0), [2.0, 1.0], k=0)


def test_unaccepted_shots_freed_by_reference_counting(monkeypatch):
    """While a solve searches, no shot is alive but the two bracket ends
    (the latest shot with P < 0 and the latest with P >= 0) and the newest
    shot; the others are freed by reference counting as the search moves
    on, and the rest as the profile is built, not left to the cyclic
    collector.  With the collector off, no shot outlives its solve, and
    each repeated solve (five shots of n=7, k=1 at rtol 1e-6, each
    recording about 8.7 KB) leaves less than 20 KB behind: 5.3 KB
    measured.  The solves are small because tracemalloc slows the stepping
    a hundredfold."""
    params, rtol, made, alive_before = Params(n=7, lam=2.0), 1e-6, [], []
    seed = dict(a_seed=1.5 * solve_nodal(params, 1, rtol=rtol).a_star, slope=0.1)

    def tracked(params, a, k, **kwargs):
        alive_before.append(sum(ref() is not None for ref in made))
        run = ode.shot(params, a, k, **kwargs)
        made.append(weakref.ref(run))
        return run

    gc.collect()
    gc.disable()
    try:
        tracemalloc.start()
        solve_nodal(params, 1, rtol=rtol, **seed)  # caches filled
        before = tracemalloc.get_traced_memory()[0]
        monkeypatch.setattr(shooting, "shot", tracked)
        for _ in range(3):
            solve_nodal(params, 1, rtol=rtol, **seed)
        growth = tracemalloc.get_traced_memory()[0] - before
        alive = sum(ref() is not None for ref in made)
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(made) >= 6 and alive == 0
    assert max(alive_before) == 2, alive_before
    assert growth / 3 < 20_000, growth
