"""Node-targeted shooting for radial sign-changing solutions.

For the boundary-value problem on the unit ball, the free parameter is the
center amplitude a = u(0) > 0.  The zeros of the radial solution move
inward as a grows (for admissible lambda they lie beyond the ball at small
a, where the equation is essentially linear, and shrink toward the origin
in the blow-up regime).  The shooting proxy is the Pruefer angle of
(u(1), u'(1)) unwrapped by the zero count,

    P(a) = (Z - k) pi + atan2(s u(1), s u'(1)),    s = (-1)^Z,

where Z is the number of zeros in the ball.  P is continuous in a (when a
zero passes r=1, Z gains one and the angle drops from pi to 0), and is 0
exactly when the k-th zero sits on r=1, leaving k-1 interior zeros, i.e. a
solution with exactly k nodal regions; next to that root P is about
r_k - 1.  The amplitude spans tens of decades, so the search runs in
x = log a: a geometric bracket from the seed, then brentq to xtol = rtol,
which is as fine as the integrator resolves the profile.  Each evaluation
of P is one ode.shoot, which returns Z and (u(1), u'(1)) without events or
dense output; only the converged amplitude is integrated in full.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from scipy.optimize import brentq

from . import bubble, diagnostics
from .model import (
    ConfigError,
    Error,
    InvalidLambda,
    MissingInteriorZero,
    MissingMinimum,
    NodalFeatures,
    NonconvergentBisection,
    NoBracketFound,
    Params,
    check_lambda_grid,
    validate_lambda,
)
from .ode import DEFAULT_ATOL, DEFAULT_RTOL, RadialProfile, integrate, shoot

_A_MIN = 1e-3
# The k=2 amplitude at n=7 is already ~1e16 for lambda of order 1 and grows
# as lambda decreases; the ceiling must sit far above the sweep's range.
_A_MAX = 1e30
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SignChangingSolution:
    """A converged k-nodal radial solution."""

    params: Params
    k: int
    a_star: float
    profile: RadialProfile
    features: NodalFeatures | None
    residuals: diagnostics.Residuals


def solve_nodal(
    params: Params,
    k: int,
    *,
    a_seed: float = 1.0,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    boundary_tol: float = BOUNDARY_TOL,
    residual_tol: float = 1e-6,
) -> SignChangingSolution:
    """Find the amplitude whose radial solution has exactly k nodal regions.

    Bracket the root of the Pruefer proxy P in x = log a by steps from
    a_seed that double in length each time (up while P < 0, down while
    P > 0), within a in [1e-3, 1e30]; then refine with brentq to
    xtol = rtol, and integrate the profile at the root once.  That profile
    must carry exactly k-1 interior zeros (RadialProfile.interior_zeros,
    whose boundary band also covers the gap between this integration's
    boundary zero and the shot's at the root) with
    |u(1)| < boundary_tol * a_star, and must pass the Nehari /
    Pohozaev / energy-monotonicity certification, otherwise the solution
    is rejected.
    """
    if k < 1:
        raise ConfigError(f"nodal-region count k must be >= 1, got {k}")
    lam1 = bubble.lambda_1(params.n)
    if not validate_lambda(params, lam1):
        raise InvalidLambda(
            f"lambda={params.lam} outside the admissible range (0, {lam1:.6g}) "
            f"for n={params.n}"
        )

    # Cached because brentq evaluates the bracket ends once more, and the
    # boundary check below reads the shot at the root again.
    @functools.lru_cache(maxsize=None)
    def shot(x: float) -> tuple[int, float, float]:
        return shoot(params, math.exp(x), rtol=rtol, atol=atol)

    def proxy(x: float) -> float:
        zeros, u1, du1 = shot(x)
        s = -1.0 if zeros % 2 else 1.0
        # s*u(1) >= 0 up to roundoff; taking the angle mod 2 pi keeps P
        # continuous should the last zero sit on r=1 and be miscounted.
        angle = math.atan2(s * u1, s * du1) % (2.0 * math.pi)
        return (zeros - k) * math.pi + angle

    x_min, x_max = math.log(_A_MIN), math.log(_A_MAX)
    x = math.log(min(max(a_seed, _A_MIN), _A_MAX))
    p = proxy(x)
    step = math.log(2.0)
    while True:
        # P < 0: zero k lies beyond the ball (or is absent), so a is too small.
        up = p < 0.0
        if x == (x_max if up else x_min):
            report = {
                "n": params.n,
                "lambda": params.lam,
                "k": k,
                "a_range_searched": [_A_MIN, _A_MAX],
                "evaluations": shot.cache_info().misses,
            }
            if up:
                raise NoBracketFound(
                    f"no amplitude up to {_A_MAX:g} pulls zero {k} inside the "
                    f"ball at lambda={params.lam:g}, n={params.n}",
                    report={**report, "gap_at_largest": p},
                )
            raise NoBracketFound(
                f"every amplitude down to {_A_MIN:g} already has zero {k} "
                f"inside the ball at lambda={params.lam:g}, n={params.n}",
                report=report,
            )
        x_next = min(x + step, x_max) if up else max(x - step, x_min)
        p_next = proxy(x_next)
        if (p_next < 0.0) != up:
            break
        x, p = x_next, p_next
        step *= 2.0

    x_star, result = brentq(proxy, x, x_next, xtol=rtol, full_output=True, disp=False)
    if not result.converged:
        raise NonconvergentBisection(
            f"brentq did not converge on log a in [{min(x, x_next):.17g}, "
            f"{max(x, x_next):.17g}]: {result.flag}"
        )

    a_star = math.exp(x_star)
    # The shooting evaluations count zeros only at integrator steps; the
    # checks below on the full profile reject a miscounted double crossing.
    profile = integrate(params, a_star, 1.0, rtol=rtol, atol=atol)
    # This integration puts the boundary zero where the shot at a* did
    # only to the two integrators' reproducibility: widen the boundary band
    # by the gap between their boundary zeros, |delta u(1) / u'(1)|.
    u1, du1 = profile.u_du(1.0)
    gap = abs(u1 - shot(x_star)[1])
    profile = replace(profile, boundary_shift=gap / abs(du1) if du1 else 0.0)

    interior = profile.interior_zeros()
    if len(interior) != k - 1 or abs(u1) >= boundary_tol * a_star:
        raise NonconvergentBisection(
            f"converged amplitude {a_star:.17g} gives {len(interior)} interior "
            f"zeros and |u(1)|/a = {abs(u1) / a_star:.3e}; wanted {k - 1} zeros "
            f"and < {boundary_tol:g}"
        )

    features = extract_features(profile, params) if k == 2 else None
    residuals = diagnostics.certify(
        profile, params, features=features, residual_tol=residual_tol
    )
    return SignChangingSolution(
        params=params,
        k=k,
        a_star=a_star,
        profile=profile,
        features=features,
        residuals=residuals,
    )


def extract_features(profile: RadialProfile, params: Params) -> NodalFeatures:
    """Scalar features of a two-nodal-region profile.

    The node and the minimum point come from the recorded events; the
    derivative at the boundary from the dense output.
    """
    interior = profile.interior_zeros()
    if len(interior) != 1:
        raise MissingInteriorZero(
            f"expected exactly one interior zero-crossing, found {len(interior)}"
        )
    node = interior[0]
    r_lambda = node.r
    minima = [e for e in profile.derivative_zeros() if r_lambda < e.r < 1.0]
    if not minima:
        raise MissingMinimum(
            f"no critical point of u in ({r_lambda:g}, 1); cannot place s_lambda"
        )
    # The annulus minimum; accepted solutions carry exactly one candidate.
    s_event = min(minima, key=lambda e: e.value)
    m_plus = profile.a if profile.a > 0.0 else float(profile.values[0])
    m_minus = -s_event.value
    beta = params.beta
    return NodalFeatures(
        r_lambda=r_lambda,
        s_lambda=s_event.r,
        m_plus=m_plus,
        m_minus=m_minus,
        du_node=node.value,
        du_boundary=float(profile.du(1.0)),
        sigma=m_plus**beta * r_lambda,
        rho=m_minus**beta * r_lambda,
        gamma=m_minus**beta * s_event.r,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One lambda of a continuation sweep: a solution or a recorded failure."""

    lam: float
    solution: SignChangingSolution | None
    error: str | None
    detail: str | None = None


def continuation_sweep(
    params_base: Params,
    lambda_grid: list[float],
    k: int = 2,
    *,
    warm_start: bool = True,
    **solve_options,
) -> list[SweepPoint]:
    """Solve at each lambda of a decreasing grid, warm-starting the bracket.

    The amplitude grows as lambda shrinks, so the seed for the next point is
    the geometric extrapolation of the previous two converged amplitudes;
    solve_nodal's log-space bracket then starts one factor of 2 from it.
    Only the dimension of params_base is used.  solve_options are passed
    to every solve_nodal call (rtol, atol, boundary_tol, residual_tol).
    Per-point failures are recorded and the sweep continues.
    """
    grid = [float(x) for x in lambda_grid]
    check_lambda_grid(grid)

    points: list[SweepPoint] = []
    seeds: list[float] = []
    for lam in grid:
        if warm_start and len(seeds) >= 2:
            a_seed = seeds[-1] * (seeds[-1] / seeds[-2])
        elif warm_start and seeds:
            a_seed = seeds[-1]
        else:
            a_seed = 1.0
        try:
            sol = solve_nodal(
                Params(n=params_base.n, lam=lam), k, a_seed=a_seed, **solve_options
            )
        except Error as exc:
            points.append(
                SweepPoint(lam=lam, solution=None, error=exc.code, detail=str(exc))
            )
            continue
        seeds.append(sol.a_star)
        points.append(SweepPoint(lam=lam, solution=sol, error=None))
    return points
