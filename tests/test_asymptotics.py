"""Rescalings, envelopes, Green-limit gaps, and the rate-law report."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from bnball.asymptotics import (
    annulus_envelope_violation,
    bubble_deviation,
    build_record,
    center_envelope_violation,
    delta_of_epsilon,
    green_profile_gaps,
    rate_law_report,
    rescale_minus,
    rescale_plus,
    rescaled_envelope_violation,
)
from bnball.bubble import delta
from conftest import polynomial_profile
from bnball.green import (
    unit_source_green_at_center,
    unit_source_green_gradient_at_center,
)
from bnball.model import (
    ConfigError,
    EmptyWindow,
    EpsilonOutOfRange,
    InsufficientRecords,
    InvalidDimension,
    OutOfDomain,
    Params,
    RegionEmpty,
)
from bnball.ode import integrate

# Root of g(s) = 1/(k-2) + s - ((k-1)/(k-2)) s^{(k-2)/(k-1)} = 5/4 at n=7,
# k = 2(n-1)/(n-2); frozen from an independent bisection of g.
DELTA_7_AT_1_25 = 0.029542951800839081


def test_rescale_plus_normalization(sol7_lam2):
    f = sol7_lam2.features
    vals = rescale_plus(sol7_lam2, [0.0, f.sigma])
    assert vals[0] == pytest.approx(1.0, rel=1e-12)
    # sigma maps back to the node radius, where u crosses zero
    assert abs(vals[1]) < 1e-12


def test_rescale_plus_domain(sol7_lam2):
    f = sol7_lam2.features
    with pytest.raises(OutOfDomain):
        rescale_plus(sol7_lam2, [0.0, 1.001 * f.sigma])
    with pytest.raises(EmptyWindow):
        rescale_plus(sol7_lam2, [])


def test_rescaled_positive_part_hits_bubble_half_profile(sweep7):
    """At the smallest lambda, u~+(sqrt(K)) matches delta(sqrt(K)) = 2^{-5/2}."""
    sol = sweep7[-1].solution
    y = math.sqrt(35.0)
    val = float(rescale_plus(sol, [y])[0])
    assert val == pytest.approx(2.0 ** -2.5, abs=1e-8)


def test_rescale_minus_normalization(sol7_lam2):
    f = sol7_lam2.features
    vals = rescale_minus(sol7_lam2, [f.rho, f.gamma])
    # rho maps back to the node radius; gamma to the interior minimum
    assert abs(vals[0]) < 1e-12
    assert vals[1] == 1.0


def test_rescale_minus_extends_by_zero(sol7_lam2):
    f = sol7_lam2.features
    p = sol7_lam2.params
    outer = f.m_minus**p.beta * sol7_lam2.profile.r_end
    vals = rescale_minus(sol7_lam2, [1.5 * outer, 2.0 * outer])
    assert vals[0] == 0.0
    assert vals[1] == 0.0


def test_rescale_minus_domain(sol7_lam2):
    f = sol7_lam2.features
    with pytest.raises(OutOfDomain):
        rescale_minus(sol7_lam2, [0.5 * f.rho])
    with pytest.raises(EmptyWindow):
        rescale_minus(sol7_lam2, [])


def test_bubble_deviation_of_bubble_samples_is_zero():
    y = np.linspace(0.0, 10.0, 101)
    samples = delta(7, y)
    assert bubble_deviation(y, samples, 7) == 0.0


def test_bubble_deviation_of_integrated_bubble():
    profile = integrate(Params(n=7, lam=0.0), 1.0, 10.0)
    y = np.linspace(0.0, 10.0, 401)
    assert bubble_deviation(y, profile.u(y), 7) < 1e-8


def test_delta_of_epsilon_frozen():
    assert delta_of_epsilon(7, 1.25) == pytest.approx(DELTA_7_AT_1_25, rel=1e-12)


def test_delta_of_epsilon_monotone_toward_one():
    assert (
        delta_of_epsilon(7, 2.0)
        < delta_of_epsilon(7, 1.0)
        < delta_of_epsilon(7, 0.25)
        < delta_of_epsilon(7, 0.01)
        < 1.0
    )


def test_delta_of_epsilon_range():
    for eps in (0.0, 2.5, -1.0, 10.0):
        with pytest.raises(EpsilonOutOfRange):
            delta_of_epsilon(7, eps)


@pytest.mark.parametrize("n", [2, 7.0])
def test_delta_of_epsilon_dimension(n):
    """The dimension is checked as everywhere else, not as an epsilon."""
    with pytest.raises(InvalidDimension):
        delta_of_epsilon(n, 0.25)


def test_center_envelope_on_accepted(sol7_lam2):
    violation = center_envelope_violation(sol7_lam2)
    assert violation <= 1e-9 * sol7_lam2.features.m_plus


def test_rescaled_envelope_on_accepted(sol7_lam2):
    assert rescaled_envelope_violation(sol7_lam2) <= 1e-9


def test_annulus_envelope_on_accepted(sol7_lam2):
    env = annulus_envelope_violation(sol7_lam2)
    assert env.epsilon == pytest.approx(1.25)
    assert env.delta == pytest.approx(DELTA_7_AT_1_25, rel=1e-12)
    assert 0.0 < env.region[0] < 1.0
    assert env.violation <= 1e-9 * sol7_lam2.features.m_minus
    assert env.rescaled_violation <= 1e-9


@pytest.mark.parametrize("check", [
    lambda sol: rescale_plus(sol, [0.5]),
    lambda sol: rescale_minus(sol, [0.5]),
    center_envelope_violation,
    rescaled_envelope_violation,
    annulus_envelope_violation,
], ids=["rescale_plus", "rescale_minus", "center", "rescaled", "annulus"])
def test_one_region_solution_has_no_rescalings_or_envelopes(k1_solutions, check):
    """A positive (k=1) solution has no nodal features, so the rescalings
    and envelope checks, which read them, are a ConfigError."""
    sol = k1_solutions[2.0]
    assert sol.k == 1 and sol.features is None
    with pytest.raises(ConfigError, match="two-region solution"):
        check(sol)


def test_annulus_envelope_region_can_be_empty(sol7_lam2):
    """Moving the minimum point s_lambda toward 1 pushes the inner radius
    delta^{-1/n} s_lambda past the boundary, here to 1.1."""
    f = sol7_lam2.features
    pushed = dataclasses.replace(f, s_lambda=1.1 * DELTA_7_AT_1_25 ** (1.0 / 7.0))
    assert f.s_lambda < pushed.s_lambda < 1.0
    fake = SimpleNamespace(
        profile=sol7_lam2.profile, params=sol7_lam2.params, features=pushed
    )
    with pytest.raises(RegionEmpty):
        annulus_envelope_violation(fake)


def test_synthetic_envelope_violation_is_detected(sol7_lam2):
    """Shrinking the claimed center height must poke the profile through."""
    f = sol7_lam2.features
    shrunk = dataclasses.replace(f, m_plus=f.m_plus / 1.01)
    fake = SimpleNamespace(
        profile=sol7_lam2.profile, params=sol7_lam2.params, features=shrunk
    )
    assert center_envelope_violation(fake) > 0.0


def test_node_flux_ratio_positive(report7, records7):
    ratios = report7["informational"]["node_flux_ratio"]
    assert len(ratios) == len(records7)
    for ratio, rec in zip(ratios, records7):
        f = rec.features
        assert ratio > 0.0
        assert ratio == pytest.approx(abs(f.du_node) * f.r_lambda**3.5, rel=1e-15)


def test_green_gaps_zero_profile_give_kernel_sups():
    zero = polynomial_profile((0.0,), lam=1.0)
    from bnball.bubble import constants

    cte = constants(7).c_tilde
    grid = np.linspace(0.2, 0.8, 121)
    ref = max(abs(cte * unit_source_green_at_center(7, r)) for r in grid)
    dref = max(abs(cte * unit_source_green_gradient_at_center(7, r)) for r in grid)
    gap, dgap = green_profile_gaps(zero)
    assert gap == pytest.approx(ref, rel=1e-15)
    assert dgap == pytest.approx(dref, rel=1e-15)


def test_green_reference_built_once_per_dimension(monkeypatch):
    """The Green reference of green_profile_gaps is built once per
    dimension, from the same 242 scalar kernel calls as before, bit for
    bit, and kept read-only; later records of that dimension reuse it."""
    from bnball import asymptotics
    from bnball.bubble import constants

    calls = []

    def counted(kernel):
        def kernel_call(n, r):
            calls.append(n)
            return kernel(n, r)

        return kernel_call

    for name in ("unit_source_green_at_center", "unit_source_green_gradient_at_center"):
        monkeypatch.setattr(asymptotics, name, counted(getattr(asymptotics, name)))
    asymptotics._green_reference.cache_clear()
    try:
        zero = polynomial_profile((0.0,), lam=1.0)
        first = green_profile_gaps(zero)
        assert calls == [7] * 242
        assert green_profile_gaps(polynomial_profile((0.0,), lam=0.5)) and len(calls) == 242
        assert green_profile_gaps(zero) == first and len(calls) == 242
        gref, dgref = asymptotics._green_reference(7)
    finally:
        asymptotics._green_reference.cache_clear()
    cte = constants(7).c_tilde
    grid = np.linspace(0.2, 0.8, 121)
    assert gref.tolist() == [cte * unit_source_green_at_center(7, r) for r in grid]
    assert dgref.tolist() == [cte * unit_source_green_gradient_at_center(7, r) for r in grid]
    assert not gref.flags.writeable and not dgref.flags.writeable


def test_record_identity_and_finiteness(records7):
    for rec in records7:
        assert rec.q3 * rec.q1 == pytest.approx(rec.q2, rel=1e-12)
        for field in (
            "q1",
            "q2",
            "q3",
            "p1",
            "p2",
            "p3",
            "p4",
            "bubble_dev_plus",
            "bubble_dev_minus",
            "green_dev",
            "green_grad_dev",
            "energy",
        ):
            assert math.isfinite(getattr(rec, field)), field


def test_record_scalars_recompute_from_features(records7):
    for rec in records7:
        f = rec.features
        p1 = f.m_plus * abs(f.du_node) * f.r_lambda**6
        p2 = f.m_plus**0.8 * f.r_lambda**7 * f.du_node**2 / rec.lam
        assert rec.p1 == pytest.approx(p1, rel=1e-12)
        assert rec.p2 == pytest.approx(p2, rel=1e-12)


def test_report_overall_pass(report7):
    assert report7["overall_pass"] is True
    assert report7["identity_q3_q1_q2"]["passed"] is True
    assert report7["slope_log_m_minus"]["passed"] is True
    for name in ("q2", "q3", "p1", "p3"):
        assert report7["quantities"][name]["passed"] is True, name
    for name, verdict in report7["trends"].items():
        assert verdict["passed"] is True, name


def test_report_structure(report7, records7):
    assert report7["n"] == 7
    assert report7["lambda_grid"] == [r.lam for r in records7]
    assert report7["trends"]["green_dev"]["values"] == [
        r.green_dev for r in records7
    ]

    # Each law's limit (a key of report7["limits"], or 1), trend window,
    # gate and tolerance, in report order.
    wiring = {
        "q1": ("c3", "tail-3", False, 0.10),
        "q2": ("c3", "tail-3", True, 0.10),
        "q3": (1.0, "tail-3", True, 0.10),
        "p1": ("c1", "full", True, 0.10),
        "p2": ("c2", "tail-3", False, 0.10),
        "p3": ("c1", "full", True, 0.10),
        "p4": ("c2", "tail-3", False, 0.10),
    }
    assert list(report7["quantities"]) == list(wiring)
    for name, (limit, window, gated, tolerance) in wiring.items():
        v = report7["quantities"][name]
        if isinstance(limit, str):
            limit = report7["limits"][limit]
        assert v["limit"] == limit, name
        assert v["trend_window"] == window, name
        assert v["gated"] is gated, name
        assert v["tolerance"] == tolerance, name
    assert list(report7["trends"]) == [
        "bubble_dev_plus",
        "bubble_dev_minus",
        "green_dev",
        "green_grad_dev",
        "energy_gap",
    ]
    finals = {
        name: t["final_tolerance"]
        for name, t in report7["trends"].items()
        if "final_tolerance" in t
    }
    assert finals == {"bubble_dev_plus": 5e-2}


@pytest.mark.parametrize(
    "field, value", [("q1", math.nan), ("q2", 0.0)], ids=["nan-q1", "zero-q2"]
)
def test_identity_gate_fails_on_nan_or_zero_q2(records7, field, value):
    """A NaN gap fails the identity wherever it sits, and a zero q2 gives
    an infinite gap instead of a ZeroDivisionError."""
    records = list(records7)
    records[-1] = dataclasses.replace(records[-1], **{field: value})
    identity = rate_law_report(records, 7)["identity_q3_q1_q2"]
    assert identity["passed"] is False
    assert not math.isfinite(identity["max_relative_gap"])


def test_report_needs_three_records(records7):
    with pytest.raises(InsufficientRecords):
        rate_law_report(records7[:2], 7)
    with pytest.raises(InsufficientRecords):
        rate_law_report([], 7)


def test_report_rejects_increasing_lambda(records7):
    with pytest.raises(ConfigError):
        rate_law_report(records7[::-1], 7)


def test_build_record_carries_residuals(sol7_lam2):
    rec = build_record(sol7_lam2)
    assert rec.nehari == sol7_lam2.residuals.nehari
    assert rec.pohozaev_ball == sol7_lam2.residuals.pohozaev_ball
    assert abs(rec.nehari) < 1e-6
