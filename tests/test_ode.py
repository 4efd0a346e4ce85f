"""Radial integrator: series start, events, and the lambda=0 bubble oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import OdeSolution
from scipy.integrate import ode as scipy_ode
from scipy.integrate._ivp.rk import Dop853DenseOutput

from bnball.bubble import bubble_eval, normalized_mu
from bnball import diagnostics, ode
from bnball.model import BlowUpDetected, Error, IntegrationFailed, Params, SingularPoint
from bnball.ode import DEFAULT_ATOL, DEFAULT_RTOL, integrate, shoot
from bnball.shooting import BOUNDARY_TOL, _pruefer, extract_features

# Below the first knot a profile evaluates the second-order series of the
# regular solution, u(r) = a - f(a) r^2/(2n), u'(r) = -f(a) r/n with
# f(a) = lambda a + |a|^(2*-2) a.  The first knot sits at 1e-6 for |a| = 1.
BELOW_START = 1e-7


def test_rhs_singular_origin():
    """The radial operator is singular at r=0, so no integration ends there."""
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1.0, 0.0)
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1.0, -1.0)


def test_stop_radius_inside_series_start():
    """|a|^beta r_stop at or below the series start would integrate inward,
    toward the singular origin; both integrators refuse it up front."""
    with pytest.raises(SingularPoint):
        integrate(Params(n=7, lam=1.0), 1e-20, 1.0)
    with pytest.raises(SingularPoint):
        integrate(Params(n=5, lam=0.5), 1e-20, 1.0, rtol=1e-8, atol=1e-10)
    with pytest.raises(SingularPoint):
        shoot(Params(n=7, lam=1.0), 1e-20)
    # at n=3 the smallest shooting amplitude 1e-3 ends exactly on it
    with pytest.raises(SingularPoint):
        integrate(Params(n=3, lam=1.0), 1e-3, 1.0)


def test_taylor_start_bubble_case():
    profile = integrate(Params(n=7, lam=0.0), 1.0, 1.0)
    assert BELOW_START < profile.knots[0]
    assert profile.u(BELOW_START) == pytest.approx(1.0 - 1e-14 / 14.0, rel=1e-15)
    assert profile.du(BELOW_START) == pytest.approx(-1e-7 / 7.0, rel=1e-15)


def test_taylor_start_negative_amplitude():
    # f(-1) = -1 - 1 = -2 at lambda=1
    profile = integrate(Params(n=7, lam=1.0), -1.0, 1.0)
    assert BELOW_START < profile.knots[0]
    assert profile.u(BELOW_START) == pytest.approx(-1.0 + 2e-14 / 14.0, rel=1e-15)
    assert profile.du(BELOW_START) == pytest.approx(2e-7 / 7.0, rel=1e-15)


def test_taylor_start_zero_amplitude():
    """At a = 0 the series-start radius 1e-6 |a|^(-beta) is infinite, so the
    integrator refuses the amplitude rather than divide by zero."""
    with pytest.raises(SingularPoint, match="series-start radius inf"):
        integrate(Params(n=7, lam=1.0), 0.0, 1.0)


def test_zero_amplitude_profile():
    """No zero profile is built at a = 0: shooting refuses it like integrate."""
    with pytest.raises(SingularPoint, match="series-start radius inf"):
        shoot(Params(n=7, lam=1.0), 0.0)


@pytest.mark.parametrize("n", [7, 9])
def test_bubble_oracle(n):
    """lambda=0 from a=1 reproduces the standard bubble to sup error < 1e-8."""
    profile = integrate(Params(n=n, lam=0.0), 1.0, 10.0)
    ys = np.linspace(0.0, 10.0, 2001)
    sup = float(np.max(np.abs(profile.u(ys) - bubble_eval(n, normalized_mu(n), ys))))
    assert sup < 1e-8
    assert not profile.events  # the bubble is positive and strictly decreasing


def test_knots_strictly_increasing(sol7_lam2):
    knots = sol7_lam2.profile.knots
    assert np.all(np.diff(knots) > 0.0)
    assert knots[0] > 0.0


def test_oscillation_at_large_amplitude():
    # beyond the k=1 shooting amplitude the first zero sits inside the ball
    profile = integrate(Params(n=7, lam=2.0), 1e4, 1.0)
    zeros = profile.zero_crossings()
    assert len(zeros) >= 1
    assert zeros[0].r < 1.0


def test_sign_constant_between_crossings():
    profile = integrate(Params(n=7, lam=2.0), 1e4, 1.0)
    bounds = [profile.knots[0]]
    bounds += [e.r for e in profile.zero_crossings()]
    bounds += [profile.r_end]
    for lo, hi in zip(bounds, bounds[1:]):
        inside = (profile.knots > lo * (1 + 1e-12)) & (profile.knots < hi * (1 - 1e-12))
        vals = profile.values[inside]
        if vals.size:
            assert np.all(vals > 0.0) or np.all(vals < 0.0)


def test_dense_output_matches_knots(sol7_lam2):
    profile = sol7_lam2.profile
    idx = np.arange(0, len(profile.knots), 97)
    vals = profile.u(profile.knots[idx])
    assert np.allclose(vals, profile.values[idx], rtol=1e-12, atol=0.0)


def test_events_located_on_dense_output(sol7_lam2):
    profile = sol7_lam2.profile
    for e in profile.zero_crossings():
        assert abs(float(profile.u(e.r))) <= 1e-9 * sol7_lam2.a_star


def test_untrusted_sign_structure_suppressed():
    """Below the noise floor (n<=6 at blow-up amplitude) no zero is reported.

    At n=4 the deviation signal scales as lambda/a^2 while the absolute
    noise floor scales as atol/a, so for huge amplitude any crossing of
    the numerical profile is noise; the integrator must not report it.
    """
    profile = integrate(Params(n=4, lam=0.5), 1e25, 1.0)
    assert not profile.zero_crossings()


def test_tolerance_tightening_converges():
    p = Params(n=7, lam=2.0)
    coarse = integrate(p, 1e4, 1.0, rtol=1e-8, atol=1e-10)
    fine = integrate(p, 1e4, 1.0, rtol=1e-12, atol=1e-14)
    r = np.linspace(0.1, 0.9, 17)
    gap = np.max(np.abs(coarse.u(r) - fine.u(r))) / 1e4
    assert gap < 1e-7


def test_nan_state_is_integration_failure():
    """Steps far beyond the stability region overflow the right-hand side
    to a NaN state before the blow-up guard can fire; that is a classified
    failure, not the ValueError of brentq locating a sign change on it."""
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationFailed):
        integrate(Params(n=7, lam=1e4), 1.0, 1.0, rtol=1e3, atol=1e9)


def test_amplitude_must_be_finite():
    with pytest.raises(Exception):
        integrate(Params(n=7, lam=1.0), math.inf, 1.0)


def _numpy_scalar_rhs(params, a, y, s):
    """The deviation right-hand side as it ran on numpy float64 scalars."""
    n = params.n
    K = n * (n - 2.0)
    h = (n - 2.0) / 2.0
    p = params.two_star - 1.0
    lam = params.lam * abs(a) ** (-2.0 * params.beta)
    v, vp = s
    t = K / (K + y * y)
    d = t**h
    w = d + v
    if w > 0.0 and abs(v) < 0.5 * d:
        df = d * t * t * math.expm1(p * math.log1p(v / d))
    else:
        df = abs(w) ** (p - 1.0) * w - d * t * t
    return [vp, -(n - 1.0) / y * vp - lam * w - df]


def test_rhs_on_floats_matches_numpy_scalars():
    """Both right-hand sides (f for shoot, rhs for integrate's stepper)
    compute on Python floats and return, bit for bit, what the same
    formula gives on numpy scalars, in both branches."""
    rng = np.random.default_rng(20)
    stable = other = 0
    for n in (5, 6, 7, 8):
        for lam in (1e-3, 0.25, 2.0, 50.0):
            for a in (1e-3, 1.0, 3e5, 1e16, 1e28, -3.0):
                params = Params(n=n, lam=lam)
                dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
                ys = np.exp(rng.uniform(math.log(dev.y0), math.log(dev.y_end), 50))
                ds = ode._bubble_terms(n, ys)[0]
                # v from far inside the stable branch to well past -delta
                vs = ds * rng.choice([-1.0, 1.0], 50) * 10.0 ** rng.uniform(-6, 1.5, 50)
                vps = rng.standard_normal(50) * 10.0 ** rng.uniform(-12, 2, 50)
                for y, v, vp in zip(ys, vs, vps):
                    s = np.array([v, vp])
                    got = dev.f(float(y), s)
                    assert type(got) is np.ndarray
                    assert got.dtype == np.float64 and got.shape == (2,)
                    got = got.tolist()
                    want = _numpy_scalar_rhs(params, a, np.float64(y), s)
                    assert [x.hex() for x in got] == [float(x).hex() for x in want]
                    # the float stepper's RHS is the same function
                    got = dev.rhs(float(y), float(v), float(vp))
                    assert [x.hex() for x in got] == [float(x).hex() for x in want]
                    d = ode._bubble_terms(n, float(y))[0]
                    if d + v > 0.0 and abs(v) < 0.5 * d:
                        stable += 1
                    else:
                        other += 1
    assert stable > 500 and other > 500


@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_rhs_overflow_in_shoot_is_integration_failure():
    """|w|^(p-1) overflowing inside a shot gives inf with numpy's warning,
    which the failed run reports, not an error escaping the Fortran
    callback.  The marker restores a user's default filter over tier-1's
    error filter; the error path is the next test's."""
    with pytest.raises(IntegrationFailed, match="overflow encountered in scalar power"):
        shoot(Params(n=4, lam=1e4), 1e28, rtol=1.0, atol=1.0)


@pytest.mark.parametrize("run", ["shoot", "integrate"])
def test_rhs_overflow_under_error_filter_is_integration_failure(run):
    """With every warning an error, the overflow warning raised inside the
    right-hand side is named in IntegrationFailed, not leaked raw from
    solve_ivp or as scipy's ValueError from the dop853 wrapper."""
    args = (Params(n=4, lam=1e4), 1e28) + ((1.0,) if run == "integrate" else ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            IntegrationFailed,
            match="RuntimeWarning: overflow encountered in scalar power",
        ):
            getattr(ode, run)(*args, rtol=1.0, atol=1.0)


def test_rhs_overflow_in_integrate_is_integration_failure():
    """The same overflow in a full integration is a classified failure."""
    with pytest.warns(RuntimeWarning), pytest.raises(IntegrationFailed):
        integrate(Params(n=4, lam=1e4), 1e28, 1.0, rtol=1.0, atol=1.0)


# Shooting amplitudes a* at lambda = 2, keyed by (n, k): n = 7, 8 from the
# benchmark's cold reference solves (perfbench/reference.json), n = 5, 6
# from solve_nodal; all at rtol 1e-12.
A_STAR = {
    (5, 1): 122.01509544236896,
    (6, 1): 563.3163869273433,
    (7, 1): 2896.0889828723157,
    (7, 2): 4.253137119342074e19,
    (8, 1): 16122.93140813103,
    (8, 2): 1752977281187904.0,
}

# (n, lambda, a, rtol, atol, k, trusted): k is set where a is the k-nodal
# a*; trusted is whether the zero-trust floor lets sign changes count.
SHOOT_CASES = [
    pytest.param(n, 2.0, factor * a_star, DEFAULT_RTOL, DEFAULT_ATOL,
                 k if factor == 1.0 else None, True, id=f"n{n}-k{k}-x{factor:g}")
    for (n, k), a_star in A_STAR.items()
    for factor in (0.5, 1.0, 2.0)
] + [
    pytest.param(5, 0.5, 1e28, DEFAULT_RTOL, DEFAULT_ATOL, None, False, id="n5-untrusted"),
    pytest.param(6, 1e-10, 1e3, DEFAULT_RTOL, DEFAULT_ATOL, None, False, id="n6-untrusted"),
    # steps far beyond the stability region drive |u| over the blow-up bound
    pytest.param(7, 1e8, 1.0, 100.0, 1e6, None, False, id="n7-blow-up"),
]


def _outcome(fn):
    try:
        return fn()
    except Error as exc:
        return type(exc)


@pytest.mark.parametrize("n, lam, a, rtol, atol, k, trusted", SHOOT_CASES)
def test_shoot_matches_integrate(n, lam, a, rtol, atol, k, trusted):
    """A shooting evaluation reads the same zero count, end state and error
    class as the full integration of the same amplitude."""
    params = Params(n=n, lam=lam)
    shot = _outcome(lambda: shoot(params, a, rtol=rtol, atol=atol))
    profile = _outcome(lambda: integrate(params, a, 1.0, rtol=rtol, atol=atol))
    assert ode._deviation(params, a, 1.0, atol).trusted == trusted
    if isinstance(profile, type):
        assert shot is profile
        return
    zeros, u1, du1 = shot
    if k is not None:
        # zero k sits on r = 1 to the integrators' accuracy; either may count it
        offset = _pruefer(len(profile.zero_crossings()), *profile.u_du(1.0), k)
        assert abs(offset) <= BOUNDARY_TOL
        assert zeros in (k - 1, k)
        return
    assert zeros == len(profile.zero_crossings())
    if trusted:
        assert u1 == pytest.approx(profile.u(1.0), rel=1e3 * rtol, abs=0.0)
        assert du1 == pytest.approx(profile.du(1.0), rel=1e3 * rtol, abs=0.0)


def test_shoot_step_budget_is_integration_failure(monkeypatch):
    """dop853 running out of steps is a classified failure, not a warning
    with a truncated state."""
    monkeypatch.setattr(ode, "SHOOT_MAX_STEPS", 20)
    with pytest.raises(IntegrationFailed) as info:
        shoot(Params(n=7, lam=2.0), 1e4)
    assert 0.0 < info.value.last_radius < 1.0


def _list_shoot(params, a, rtol, atol):
    """shoot as it ran with a list-returning RHS and its solout through
    dev.uhat: the outcome ((zeros, u1, du1) in hex, or the error) and
    dop853's counters iwork[16:20] (RHS calls, steps, accepted, rejected)."""
    dev = ode._deviation(params, a, 1.0, atol)
    zeros, negative, blown_at = 0, False, None

    def f(y, s):
        return list(dev.rhs(float(y), *s.tolist()))

    def solout(y, s):
        nonlocal zeros, negative, blown_at
        w = dev.uhat(y, s)
        if dev.blown_up(w):
            blown_at = y
            return -1
        if dev.trusted and (w < 0.0) != negative:
            zeros += 1
            negative = not negative
        return 0

    solver = scipy_ode(f).set_integrator(
        "dop853", rtol=rtol, atol=dev.atol_scaled, nsteps=ode.SHOOT_MAX_STEPS
    )
    solver.set_solout(solout)
    solver.set_initial_value(dev.s0, dev.y0)
    counters = solver._integrator.iwork[16:20]  # a view: read after the run
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings(
            "always", category=UserWarning, module="scipy.integrate._ode"
        )
        try:
            s1 = solver.integrate(dev.y_end)
        except ValueError as exc:
            return _error_outcome(ode._callback_failure(exc)), counters.tolist()
    if blown_at is not None:
        return _error_outcome(ode._blow_up(blown_at / dev.scale_r)), counters.tolist()
    if not solver.successful():
        reason = "; ".join(str(w.message) for w in caught)
        error = IntegrationFailed(
            f"integration failed: {reason} "
            f"(return code {solver.get_return_code()})",
            last_radius=solver.t / dev.scale_r,
        )
        return _error_outcome(error), counters.tolist()
    u1, du1 = dev.u_du(dev.y_end, s1)
    return (zeros, float(u1).hex(), float(du1).hex()), counters.tolist()


def _error_outcome(exc):
    return type(exc), str(exc), getattr(exc, "last_radius", None)


def _array_shoot(monkeypatch, params, a, rtol, atol):
    """shoot's outcome and counters, in _list_shoot's form."""
    solvers = []

    class Recorded(scipy_ode):
        def __init__(self, *args):
            super().__init__(*args)
            solvers.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(ode, "scipy_ode", Recorded)
        try:
            zeros, u1, du1 = shoot(params, a, rtol=rtol, atol=atol)
            outcome = (zeros, u1.hex(), du1.hex())
        except Error as exc:
            outcome = _error_outcome(exc)
    (solver,) = solvers
    return outcome, solver._integrator.iwork[16:20].tolist()


SHOOT_RTOLS = (1e-5, 1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_shoot_matches_list_rhs_bit_for_bit(monkeypatch, n):
    """shoot, whose RHS fills one reused array and whose solout computes
    u/a inline, takes the steps and returns the end state of the same run
    with a list-returning RHS and solout through dev.uhat, bit for bit."""
    zero_counts = set()
    for lam in (0.5, 2.0, 10.0):
        for a in (10.0, 1e6, 1e16, A_STAR.get((n, 2), 1e24), -3.0):
            for rtol in SHOOT_RTOLS:
                args = (Params(n=n, lam=lam), a, rtol, DEFAULT_ATOL)
                want = _list_shoot(*args)
                assert _array_shoot(monkeypatch, *args) == want
                zero_counts.add(want[0][0])
    assert len(zero_counts) >= 2


@pytest.mark.parametrize("n, lam, a, rtol, atol, error", [
    pytest.param(7, 1e8, 1.0, 100.0, 1e6, BlowUpDetected, id="n7-blow-up"),
    pytest.param(4, 1e4, 1e28, 1.0, 1.0, IntegrationFailed, id="n4-power-overflow"),
    pytest.param(5, 0.5, 1e28, 1e-10, DEFAULT_ATOL, None, id="n5-untrusted"),
    pytest.param(6, 1e-10, 1e3, 1e-8, DEFAULT_ATOL, None, id="n6-untrusted"),
])
@pytest.mark.parametrize("action", ["error", "default"])
def test_shoot_fails_as_list_rhs(monkeypatch, n, lam, a, rtol, atol, error, action):
    """The blow-up guard, the overflow of |w|^(p-1) (raised or only
    warned, by the RuntimeWarning filter) and the untrusted zero count end
    exactly as with a list-returning RHS, message and counters too."""
    args = (Params(n=n, lam=lam), a, rtol, atol)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        want = _list_shoot(*args)
        assert _array_shoot(monkeypatch, *args) == want
    if error is None:
        assert not ode._deviation(*args[:2], 1.0, atol).trusted and want[0][0] == 0
    else:
        assert want[0][0] is error


@pytest.mark.parametrize("rtol", SHOOT_RTOLS)
def test_shoot_step_budget_fails_as_list_rhs(monkeypatch, rtol):
    """Running out of steps ends at the same radius, with the same message
    and counters, as with a list-returning RHS."""
    monkeypatch.setattr(ode, "SHOOT_MAX_STEPS", 20)
    args = (Params(n=7, lam=2.0), 1e4, rtol, DEFAULT_ATOL)
    want = _list_shoot(*args)
    assert want[0][0] is IntegrationFailed
    assert _array_shoot(monkeypatch, *args) == want


@pytest.mark.parametrize("run", ["shoot", "integrate"])
def test_rtol_below_100_eps_runs_at_100_eps(run):
    """integrate and shoot raise an rtol below 100 eps to 100 eps, the
    least solve_ivp runs, without scipy's warning, and give exactly their
    result at 100 eps."""
    params, a = Params(n=7, lam=2.0), A_STAR[(7, 2)]
    call = getattr(ode, run)
    extra = (1.0,) if run == "integrate" else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = call(params, a, *extra, rtol=1e-16)
    want = call(params, a, *extra, rtol=ode.run_rtol(0.0))
    assert ode.run_rtol(1e-16) == 100 * np.finfo(float).eps == ode.run_rtol(0.0)
    if run == "shoot":
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
        return
    for name in ("knots", "values", "derivs", "steps"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.events == want.events and got.r_end == want.r_end


@pytest.mark.parametrize("n, lam, a, trusted", [
    pytest.param(n, 2.0, A_STAR[(n, 1)], True, id=f"n{n}-k1")
    for n in (5, 6, 7, 8)
] + [
    pytest.param(8, 2.0, A_STAR[(8, 2)], True, id="n8-k2"),
    pytest.param(5, 0.5, 1e28, False, id="n5-untrusted"),
])
def test_dense_output_matches_scipy(monkeypatch, n, lam, a, trusted):
    """The stacked step polynomials evaluate bit for bit as scipy's own
    OdeSolution over the same DOP853 pieces, on and between step radii."""
    results = []
    solve_ivp = ode.solve_ivp

    def capture(*args, **kwargs):
        results.append(solve_ivp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ode, "solve_ivp", capture)
    params = Params(n=n, lam=lam)
    profile = integrate(params, a, 1.0)
    dev = ode._deviation(params, a, 1.0, DEFAULT_ATOL)
    assert dev.trusted == trusted
    (result,) = results
    rng = np.random.default_rng(n)
    r0, r_end = profile.knots[0], profile.r_end
    random_radii = rng.uniform(r0, profile.knots[-1], 257)
    for r in (random_radii, profile.steps, profile.knots, r0, r_end, 1.0,
              rng.permutation(random_radii)):
        # A profile evaluates a scalar radius as a 1-element array; so does
        # the oracle, since numpy's scalar and array powers may differ in
        # the last bit.
        y = np.atleast_1d(r) * dev.scale_r
        want = dev.u_du(y, result.sol(y))
        assert np.array_equal(np.reshape(profile.u_du(r), np.shape(want)), want)
    # Step radii in the scaled variable are exact segment-boundary ties.
    pieces = ode._StepPolynomials.of(result.sol)
    assert np.array_equal(pieces(result.t), result.sol(result.t))
    for y in (result.t[0], result.t[1], result.t[-1]):
        assert np.array_equal(pieces(y), result.sol(y))


def test_step_polynomials_match_odesolution():
    """Pieces whose ends do not meet: on a step radius only the piece that
    OdeSolution picks gives its value, and beyond the ends the end pieces
    extrapolate."""
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.uniform(0.5, 1.5, 9))
    sol = OdeSolution(ts, [
        Dop853DenseOutput(t_old, t, rng.normal(size=2), rng.normal(size=(7, 2)))
        for t_old, t in zip(ts[:-1], ts[1:])
    ])
    stacked = ode._StepPolynomials.of(sol)
    y = np.concatenate([ts, rng.uniform(ts.min() - 1.0, ts.max() + 1.0, 64)])
    assert np.array_equal(stacked(y), sol(y))
    for t in y[:16]:
        assert np.array_equal(stacked(t), sol(t))


def test_u_du_agrees_with_u_and_du(sol7_lam2):
    """One u_du call gives u and du at once, below the first knot too."""
    profile = sol7_lam2.profile
    r = np.array([0.5 * profile.knots[0], 0.3, 1.0])
    u, du = profile.u_du(r)
    assert np.array_equal(u, profile.u(r)) and np.array_equal(du, profile.du(r))
    assert profile.u_du(1.0) == (profile.u(1.0), profile.du(1.0))
    assert isinstance(profile.u_du(1.0)[0], float)


def test_no_scipy_dense_output_after_integration(monkeypatch, sol7_lam2):
    """Once solve_ivp returns, integrate and certify read the dense output
    only through the stacked step polynomials and, for locating sign
    changes, the pieces' coefficients; no scipy interpolant is called."""
    calls = 0
    call_impl = Dop853DenseOutput._call_impl

    def counting(self, t):
        nonlocal calls
        calls += 1
        return call_impl(self, t)

    solve_ivp = ode.solve_ivp

    def solve_then_count(*args, **kwargs):
        result = solve_ivp(*args, **kwargs)
        monkeypatch.setattr(Dop853DenseOutput, "_call_impl", counting)
        return result

    monkeypatch.setattr(ode, "solve_ivp", solve_then_count)
    params = sol7_lam2.params
    profile = integrate(params, sol7_lam2.a_star, 1.0, rtol=DEFAULT_RTOL)
    diagnostics.certify(profile, params, features=extract_features(profile, params))
    assert calls == 0
