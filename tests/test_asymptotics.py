import numpy as np
import pytest

from mssl import (
    AsymptoticSetting,
    DataValidationError,
    MixRisk,
    finite_m_limits,
    interp_limits,
    ols_limits,
)


def test_ols_limits_reference_configuration():
    # gamma=0.5, sigma2=25, tau2=1, c2=25 gives eta = 1 - 0.5^2
    rpt = ols_limits(AsymptoticSetting(gamma=0.5, sigma2=25.0, tau2=1.0, c2=25.0))
    assert rpt.eta_inf == pytest.approx(0.75, abs=1e-12)
    assert rpt.alpha_inf == pytest.approx(0.5, abs=1e-12)
    assert rpt.term_limits["v_u"] == pytest.approx(0.5)
    assert rpt.term_limits["v_l"] == pytest.approx(1.0)
    assert rpt.term_limits["b_u"] == pytest.approx(12.5)


def test_ols_limits_small_gamma_vanishing_gain():
    rpt = ols_limits(AsymptoticSetting(gamma=1e-4, sigma2=25.0, tau2=1.0, c2=25.0))
    assert rpt.eta_inf == pytest.approx(1.0, abs=1e-3)
    assert rpt.alpha_inf == pytest.approx(0.0, abs=1e-3)


def test_ols_limits_gamma_range():
    with pytest.raises(DataValidationError):
        ols_limits(AsymptoticSetting(gamma=1.5))
    with pytest.raises(DataValidationError):
        AsymptoticSetting(gamma=-0.1)


def test_ols_limits_monotone_in_gamma():
    gammas = np.linspace(0.05, 0.95, 19)
    etas = [
        ols_limits(AsymptoticSetting(gamma=g, sigma2=25.0, tau2=1.0, c2=25.0)).eta_inf
        for g in gammas
    ]
    assert all(a > b for a, b in zip(etas, etas[1:]))


def test_ols_alpha_increasing_in_sigma2():
    alphas = [
        ols_limits(AsymptoticSetting(gamma=0.5, sigma2=s, tau2=1.0, c2=25.0)).alpha_inf
        for s in (1.0, 4.0, 9.0, 25.0, 100.0)
    ]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))


def test_ols_limits_match_eta_identity():
    # the limiting eta equals the term-level identity evaluated at the limits
    s = AsymptoticSetting(gamma=0.37, sigma2=7.0, tau2=2.0, c2=11.0)
    rpt = ols_limits(s)
    t = rpt.term_limits
    direct = MixRisk.from_factors(s.sigma2, s.tau2 * t["b_u"], t["v_l"], t["v_u"], t["v_u"]).eta
    assert abs(rpt.eta_inf - direct) <= 1e-12


def test_interp_limits_term_values():
    rpt = interp_limits(AsymptoticSetting(gamma=2.0, gamma_tilde=1.6, c2=1.0))
    t = rpt.term_limits
    assert t["v_l"] == pytest.approx(1.0 / 0.6)
    assert t["v_u"] == pytest.approx(1.0)
    assert t["b_l"] == pytest.approx(0.375)
    assert t["b_u"] == pytest.approx(0.5)


def test_interp_limits_alpha_evaluation():
    rpt = interp_limits(
        AsymptoticSetting(gamma=2.0, gamma_tilde=1.6, sigma2=25.0, tau2=1.0, c2=25.0)
    )
    # arithmetic evaluation: 25 / (0.6 * (25/3.2 + 25/0.6))
    assert rpt.alpha_inf == pytest.approx(25.0 / (0.6 * (25.0 / 3.2 + 25.0 / 0.6)))
    assert rpt.alpha_inf == pytest.approx(0.8421, abs=5e-4)


def test_interp_limits_match_generic_mixing_formula():
    # the displayed limits agree with the generic alpha/eta formulas
    # evaluated at the term limits
    s = AsymptoticSetting(gamma=2.0, gamma_tilde=1.6, sigma2=25.0, tau2=1.0, c2=25.0)
    rpt = interp_limits(s)
    t = rpt.term_limits
    v_gap = t["v_l"] - t["v_u"]
    b_gap = t["b_u"] - t["b_l"]
    denom = s.tau2 * b_gap + s.sigma2 * v_gap
    alpha_direct = s.sigma2 * v_gap / denom
    r_hat_w = s.tau2 * t["b_l"] + s.sigma2 * t["v_l"]
    eta_direct = 1.0 - (s.sigma2 * v_gap) ** 2 / (denom * r_hat_w)
    assert rpt.alpha_inf == pytest.approx(alpha_direct, rel=1e-12)
    assert rpt.eta_inf == pytest.approx(eta_direct, rel=1e-12)


def test_interp_limits_boundary_degeneracy():
    # gamma_tilde -> gamma sends the relative gain to nothing
    rpt = interp_limits(
        AsymptoticSetting(gamma=2.0, gamma_tilde=2.0 - 1e-9, sigma2=25.0, tau2=1.0, c2=25.0)
    )
    assert rpt.eta_inf == pytest.approx(1.0, abs=1e-6)


def test_interp_limits_ordering_validation():
    with pytest.raises(DataValidationError):
        interp_limits(AsymptoticSetting(gamma=2.0, gamma_tilde=2.5))
    with pytest.raises(DataValidationError):
        interp_limits(AsymptoticSetting(gamma=0.9, gamma_tilde=0.5))


def test_finite_m_reduces_to_total_information():
    out = finite_m_limits(AsymptoticSetting(gamma=0.5, c2=25.0))
    assert out.eta_inf is None and out.alpha_inf is None
    out = out.term_limits
    rpt = ols_limits(AsymptoticSetting(gamma=0.5, c2=25.0))
    assert abs(out["b_u_tilde"] - rpt.term_limits["b_u"]) <= 1e-12
    assert abs(out["v_u_tilde"] - rpt.term_limits["v_u"]) <= 1e-12
    assert abs(out["v_s_tilde"] - 0.5) <= 1e-12
    assert abs(out["v_l"] - rpt.term_limits["v_l"]) <= 1e-12


def test_finite_m_hand_values():
    out = finite_m_limits(AsymptoticSetting(gamma=0.5, c2=25.0)).term_limits
    assert out["b_u_tilde"] == pytest.approx(12.5)  # (1+1-2+0.5)/1 * 25
    out2 = finite_m_limits(AsymptoticSetting(gamma=0.5, gamma_tilde=0.5, c2=25.0)).term_limits
    assert out2["v_u_tilde"] == pytest.approx(4.0)  # 0.5 / 0.125
    assert out2["v_s_tilde"] == pytest.approx(1.0)


def test_finite_m_range_checks():
    with pytest.raises(DataValidationError, match="gamma must be in"):
        finite_m_limits(AsymptoticSetting(gamma=1.2))
    with pytest.raises(DataValidationError, match="gamma_tilde must be in"):
        finite_m_limits(AsymptoticSetting(gamma=0.5, gamma_tilde=1.0))
    with pytest.raises(DataValidationError, match="c2"):
        finite_m_limits(AsymptoticSetting(gamma=0.5, c2=0.0))
