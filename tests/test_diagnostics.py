"""Quadrature norms, variational identities, and solution certification."""

import math

import numpy as np
import pytest

from conftest import nodal_fixture, polynomial_profile
from bnball import diagnostics
from bnball.diagnostics import certify, radial_norms
from bnball.model import (
    CertificationFailed,
    EmptyDomain,
    OutOfDomain,
    Params,
    UndefinedResidual,
)
from bnball.ode import integrate


def test_cone_fixture_norms():
    """u(r) = 1-r on the unit ball at n=3; all three norms by hand."""
    p = Params(n=3, lam=1.0)
    profile = polynomial_profile((1.0, -1.0), n=3, lam=1.0, r0=1e-9)
    norms = radial_norms(profile, p)
    om = 4.0 * math.pi
    assert norms.grad_sq == pytest.approx(om / 3.0, rel=1e-12)
    # int (1-r)^2 r^2 dr = 1/30; int (1-r)^6 r^2 dr = B(3,7) = 1/252
    assert norms.l2_sq == pytest.approx(om / 30.0, rel=1e-12)
    assert norms.crit_pow == pytest.approx(om / 252.0, rel=1e-10)


def test_norms_zero_profile():
    profile = polynomial_profile((0.0,), lam=1.0)
    assert radial_norms(profile, profile.params) == (0.0, 0.0, 0.0)


def test_norms_additive_over_subdomains(sol7_lam2):
    p = sol7_lam2.params
    profile = sol7_lam2.profile
    whole = radial_norms(profile, p)
    left = radial_norms(profile, p, domain=(0.0, 0.3))
    right = radial_norms(profile, p, domain=(0.3, profile.r_end))
    assert left.grad_sq + right.grad_sq == pytest.approx(whole.grad_sq, rel=1e-12)
    assert left.l2_sq + right.l2_sq == pytest.approx(whole.l2_sq, rel=1e-12)
    assert left.crit_pow + right.crit_pow == pytest.approx(whole.crit_pow, rel=1e-12)


def test_norms_domain_validation(sol7_lam2):
    profile = sol7_lam2.profile
    p = sol7_lam2.params
    with pytest.raises(OutOfDomain):
        radial_norms(profile, p, domain=(0.5, 2.0))
    with pytest.raises(EmptyDomain):
        radial_norms(profile, p, domain=(0.5, 0.5))


def test_bubble_critical_norm_truncation(consts7):
    """int |u|^{2*} over [0,10] plus the closed-form tail recovers S^{n/2}."""
    n = 7
    p = Params(n=n, lam=0.0)
    profile = integrate(p, 1.0, 10.0)
    norms = radial_norms(profile, p)
    # tail of omega_n int_10^inf delta^{2*} s^{n-1} ds, delta = (K/(K+s^2))^{5/2}
    from scipy.integrate import quad

    K = 35.0
    tail = consts7.omega_n * quad(
        lambda s: (K / (K + s * s)) ** 7 * s**6, 10.0, np.inf
    )[0]
    assert norms.crit_pow + tail == pytest.approx(consts7.s_pow, rel=1e-8)


def _residuals_unchecked(monkeypatch, profile, params, features=None):
    """certify's residuals with every tolerance open, for non-solutions."""
    monkeypatch.setattr(diagnostics, "ENERGY_TOL", math.inf)
    return certify(profile, params, features, residual_tol=math.inf)


def test_nehari_on_accepted(sol7_lam2):
    """Nehari from the summed ball and annulus norms matches one whole-domain pass."""
    split = certify(sol7_lam2.profile, sol7_lam2.params, sol7_lam2.features)
    whole = certify(sol7_lam2.profile, sol7_lam2.params)
    assert abs(split.nehari) < 1e-6
    assert split.nehari == pytest.approx(whole.nehari, rel=0.0, abs=1e-15)


def test_nehari_fixture_nonzero(monkeypatch):
    res = _residuals_unchecked(monkeypatch, nodal_fixture(), Params(n=7, lam=2.0))
    assert abs(res.nehari) > 1e-3


def test_nehari_undefined_for_zero_profile():
    profile = polynomial_profile((0.0,), lam=1.0)
    with pytest.raises(UndefinedResidual):
        certify(profile, profile.params)


def test_pohozaev_on_accepted(sol7_lam2):
    """Both nodal-region identities hold, and so does the whole-ball one
    that certify checks when no node features are given."""
    res = certify(sol7_lam2.profile, sol7_lam2.params, sol7_lam2.features)
    assert abs(res.pohozaev_ball) < 1e-6
    assert abs(res.pohozaev_annulus) < 1e-6
    whole = certify(sol7_lam2.profile, sol7_lam2.params)
    assert abs(whole.pohozaev_ball) < 1e-6
    assert whole.pohozaev_annulus == 0.0


def test_pohozaev_zero_convention(monkeypatch):
    """With lambda = 0 and u'(1) = 0 both sides of the whole-ball identity
    vanish, and the residual is 0 by convention; so is the annulus one."""
    p = Params(n=7, lam=0.0)
    profile = polynomial_profile((1.0, -2.0, 1.0), lam=0.0)
    res = _residuals_unchecked(monkeypatch, profile, p)
    assert (res.pohozaev_ball, res.pohozaev_annulus) == (0.0, 0.0)


def test_pohozaev_fixture_nonzero(monkeypatch):
    profile = nodal_fixture()
    from bnball.shooting import extract_features

    f = extract_features(profile, Params(n=7, lam=2.0))
    res = _residuals_unchecked(monkeypatch, profile, Params(n=7, lam=2.0), f)
    assert abs(res.pohozaev_ball) > 1e-3 or abs(res.pohozaev_annulus) > 1e-3


def test_energy_positive_on_accepted(sol7_lam2):
    split = certify(sol7_lam2.profile, sol7_lam2.params, sol7_lam2.features)
    whole = certify(sol7_lam2.profile, sol7_lam2.params)
    assert split.energy > 0.0
    assert split.energy == pytest.approx(whole.energy, rel=1e-14)


def test_energy_density_monotone_on_accepted(sol7_lam2):
    violation = certify(
        sol7_lam2.profile, sol7_lam2.params, sol7_lam2.features
    ).e_monotone_violation
    u0 = float(sol7_lam2.profile.values[0])
    v0 = float(sol7_lam2.profile.derivs[0])
    p = sol7_lam2.params
    e0 = 0.5 * v0 * v0 + 0.5 * p.lam * u0 * u0 + abs(u0) ** p.two_star / p.two_star
    assert violation <= 1e-9 * e0


def test_energy_density_rises_on_increasing_fixture():
    # u = r has strictly increasing energy density; certify must see it
    profile = polynomial_profile((0.0, 1.0), n=7, lam=1.0)
    with pytest.raises(CertificationFailed, match="energy density rises"):
        certify(profile, Params(n=7, lam=1.0))


def test_certify_accepted(sol7_lam2):
    res = certify(sol7_lam2.profile, sol7_lam2.params, sol7_lam2.features)
    assert abs(res.nehari) < 1e-6
    assert abs(res.pohozaev_ball) < 1e-6
    assert abs(res.pohozaev_annulus) < 1e-6


def test_certify_norm_passes(monkeypatch, sol7_lam2, k1_solutions):
    """One quadrature pass per nodal region: two with a node, one without."""
    domains = []

    def counting(profile, params, domain=None):
        domains.append(domain)
        return radial_norms(profile, params, domain)

    monkeypatch.setattr(diagnostics, "radial_norms", counting)
    certify(sol7_lam2.profile, sol7_lam2.params, sol7_lam2.features)
    r_node = sol7_lam2.features.r_lambda
    assert domains == [(0.0, r_node), (r_node, sol7_lam2.profile.r_end)]
    domains.clear()
    sol = k1_solutions[2.0]
    certify(sol.profile, sol.params)
    assert domains == [None]


def test_certify_rejects_non_solution():
    from bnball.shooting import extract_features

    profile = nodal_fixture()
    f = extract_features(profile, Params(n=7, lam=2.0))
    with pytest.raises(CertificationFailed):
        certify(profile, Params(n=7, lam=2.0), f)
