"""Node-targeted shooting for radial sign-changing solutions.

For the boundary-value problem on the unit ball, the free parameter is the
center amplitude a = u(0) > 0.  The radius of the k-th zero of the radial
solution decreases as a grows (for admissible lambda it starts beyond the
ball at small a, where the equation is essentially linear, and shrinks
toward the origin in the blow-up regime), so

    g_k(a) = (radius of the k-th zero, +inf if absent) - 1

is a sign-definite bisection proxy: the amplitude a* with g_k(a*) = 0 puts
the k-th zero exactly on the boundary, leaving k-1 interior zeros, i.e. a
solution with exactly k nodal regions.  Bisecting on g_k rather than on
u(1) avoids the sign ambiguity of the boundary value when the zero count
changes under the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    validate_lambda,
)
from .ode import DEFAULT_ATOL, DEFAULT_RTOL, RadialProfile, integrate

# Zeros within this distance of the boundary are the boundary zero itself,
# not interior structure; converged solutions place the k-th zero within
# ~1e-13 of r=1.
BOUNDARY_ZERO_BAND = 1e-9

DEFAULT_A_MIN = 1e-3
# The k=2 amplitude at n=7 is already ~1e16 for lambda of order 1 and grows
# as lambda decreases; the ceiling must sit far above the sweep's range.
DEFAULT_A_MAX = 1e30
WIDTH_TOL = 1e-13
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


def _kth_zero_gap(
    params: Params, a: float, k: int, rtol: float, atol: float
) -> float:
    """The bisection proxy g_k(a); +inf when the k-th zero is absent."""
    profile = integrate(params, a, 1.0, rtol=rtol, atol=atol, zero_cap=k, refine=0)
    zeros = profile.zero_crossings()
    if len(zeros) < k:
        return math.inf
    return zeros[k - 1].r - 1.0


def solve_nodal(
    params: Params,
    k: int,
    *,
    a_seed: float = 1.0,
    a_min: float = DEFAULT_A_MIN,
    a_max: float = DEFAULT_A_MAX,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    boundary_tol: float = BOUNDARY_TOL,
    residual_tol: float = 1e-6,
) -> SignChangingSolution:
    """Find the amplitude whose radial solution has exactly k nodal regions.

    Bracket by geometric doubling of the amplitude from a_seed, then bisect
    g_k to relative width 1e-13.  The converged profile must carry exactly
    k-1 interior zeros with |u(1)| < boundary_tol * a_star, and must pass
    the Nehari / Pohozaev / energy-monotonicity certification, otherwise
    the solution is rejected.
    """
    if k < 1:
        raise ConfigError(f"nodal-region count k must be >= 1, got {k}")
    lam1 = bubble.lambda_1(params.n)
    if not validate_lambda(params, lam1):
        raise InvalidLambda(
            f"lambda={params.lam} outside the admissible range (0, {lam1:.6g}) "
            f"for n={params.n}"
        )

    def gap(a: float) -> float:
        return _kth_zero_gap(params, a, k, rtol, atol)

    a = min(max(a_seed, a_min), a_max)
    g = gap(a)
    evals = 1
    if g > 0.0:
        # k-th zero beyond the ball (or absent): amplitude too small.
        a_lo, a_hi = a, None
        while a < a_max:
            a = min(2.0 * a, a_max)
            g = gap(a)
            evals += 1
            if g < 0.0:
                a_hi = a
                break
            a_lo = a
        if a_hi is None:
            raise NoBracketFound(
                f"no amplitude up to {a_max:g} pulls zero {k} inside the "
                f"ball at lambda={params.lam:g}, n={params.n}",
                report={
                    "n": params.n,
                    "lambda": params.lam,
                    "k": k,
                    "a_range_searched": [a_min, a_max],
                    "gap_at_largest": g,
                    "evaluations": evals,
                },
            )
    else:
        a_hi, a_lo = a, None
        while a > a_min:
            a = max(0.5 * a, a_min)
            g = gap(a)
            evals += 1
            if g > 0.0:
                a_lo = a
                break
            a_hi = a
        if a_lo is None:
            raise NoBracketFound(
                f"every amplitude down to {a_min:g} already has zero {k} "
                f"inside the ball at lambda={params.lam:g}, n={params.n}",
                report={
                    "n": params.n,
                    "lambda": params.lam,
                    "k": k,
                    "a_range_searched": [a_min, a_max],
                    "evaluations": evals,
                },
            )

    for _ in range(200):
        if a_hi - a_lo <= WIDTH_TOL * a_hi:
            break
        mid = 0.5 * (a_lo + a_hi)
        if gap(mid) < 0.0:
            a_hi = mid
        else:
            a_lo = mid
    else:
        raise NonconvergentBisection(
            f"bisection failed to contract below relative width {WIDTH_TOL:g}"
        )

    a_star = 0.5 * (a_lo + a_hi)
    profile = integrate(params, a_star, 1.0, rtol=rtol, atol=atol)

    interior = [
        e for e in profile.zero_crossings() if e.r < 1.0 - BOUNDARY_ZERO_BAND
    ]
    u1 = profile.u(1.0)
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
    interior = [
        e for e in profile.zero_crossings() if e.r < 1.0 - BOUNDARY_ZERO_BAND
    ]
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
    the geometric extrapolation of the previous two converged amplitudes.
    Only the dimension of params_base is used.  solve_options are passed
    to every solve_nodal call (rtol, atol, boundary_tol, residual_tol,
    a_min, a_max).  Per-point failures are recorded and the sweep continues.
    """
    grid = [float(x) for x in lambda_grid]
    if any(b >= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("lambda grid must be strictly decreasing")

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
