import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from mssl import (
    DataValidationError,
    GlmPoolStats,
    LabeledSet,
    MixRisk,
    OlsPoolModel,
    RegimeError,
    ResampleBudgetError,
    ResampleSpec,
    SingularMatrixError,
    UnlabeledPool,
    build_moments,
    elu_link,
    fit_loss_mixed_ols,
    fit_ols_semisupervised,
    fit_ols_supervised,
    mix_linear,
    noise_signal_ols,
    seeded_rng,
)


def _moments_with_H(H, n):
    """Moments object carrying a prescribed H for small hand examples."""
    from mssl.core import PopulationMoments, UnlabeledPool

    H = np.asarray(H, dtype=float)
    p = H.shape[0]
    return PopulationMoments(
        mean=np.zeros(p),
        Exx=H / n,
        H=H,
        n=n,
        pool=UnlabeledPool(np.zeros((2, p)), centered=True),
    )


# -- pure fits ---------------------------------------------------------------


def test_supervised_hand_example():
    ds = LabeledSet([[1.0, 0.0], [0.0, 2.0]], [1.0, 4.0])
    np.testing.assert_allclose(fit_ols_supervised(ds), [1.0, 2.0], atol=1e-12)


def test_supervised_zero_response():
    ds = LabeledSet(np.eye(2), [0.0, 0.0])
    np.testing.assert_allclose(fit_ols_supervised(ds), [0.0, 0.0])


def test_supervised_intercept_only():
    ds = LabeledSet([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(fit_ols_supervised(ds), [2.0], atol=1e-12)


def test_supervised_residual_orthogonality():
    rng = seeded_rng(1)
    ds = LabeledSet(rng.standard_normal((30, 4)), rng.standard_normal(30))
    beta = fit_ols_supervised(ds)
    resid_proj = ds.X.T @ (ds.Y - ds.X @ beta)
    assert np.linalg.norm(resid_proj) <= 1e-8 * np.linalg.norm(ds.X.T @ ds.Y)


def test_supervised_singular_design():
    ds = LabeledSet([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])
    with pytest.raises(SingularMatrixError) as err:
        fit_ols_supervised(ds)
    assert err.value.rank == 1


def test_semisupervised_hand_example():
    ds = LabeledSet(np.eye(2), [2.0, 4.0])
    beta = fit_ols_semisupervised(ds, _moments_with_H(2 * np.eye(2), 2))
    np.testing.assert_allclose(beta, [-0.5, 0.5], atol=1e-12)


def test_semisupervised_constant_response_is_zero():
    rng = seeded_rng(2)
    ds = LabeledSet(rng.standard_normal((5, 3)), np.full(5, 7.0))
    beta = fit_ols_semisupervised(ds, _moments_with_H(np.eye(3), 5))
    np.testing.assert_allclose(beta, np.zeros(3), atol=1e-12)


def test_semisupervised_centered_design():
    X = np.array([[1.0, -1.0], [-1.0, 1.0]])  # column means zero
    ds = LabeledSet(X, [3.0, 1.0])
    beta = fit_ols_semisupervised(ds, _moments_with_H(np.eye(2), 2))
    np.testing.assert_allclose(beta, X.T @ ds.Y, atol=1e-12)


# -- mixing -------------------------------------------------------------------


def test_mix_linear_endpoints_and_midpoint():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    np.testing.assert_array_equal(mix_linear(a, b, 0.0), a)
    np.testing.assert_array_equal(mix_linear(a, b, 1.0), b)
    np.testing.assert_allclose(mix_linear(a, b, 0.5), [2.0, 3.0])


def test_mix_linear_validation():
    with pytest.raises(DataValidationError):
        mix_linear(np.ones(2), np.ones(3), 0.5)
    with pytest.raises(DataValidationError):
        mix_linear(np.ones(2), np.ones(2), float("nan"))


@given(
    st.integers(1, 6),
    st.floats(-2.0, 3.0, allow_nan=False),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_mix_linear_is_affine(p, alpha, seed):
    rng = seeded_rng(seed)
    a, b = rng.standard_normal(p), rng.standard_normal(p)
    out = mix_linear(a, b, alpha)
    np.testing.assert_allclose(out, a + alpha * (b - a), rtol=1e-12, atol=1e-12)


def test_loss_mixed_endpoints():
    rng = seeded_rng(5)
    pool = UnlabeledPool(rng.standard_normal((500, 3)))
    mom = build_moments(pool, 12)
    ds = LabeledSet(rng.standard_normal((12, 3)), rng.standard_normal(12))
    b0 = fit_loss_mixed_ols(ds, mom, 0.0)
    b1 = fit_loss_mixed_ols(ds, mom, 1.0)
    np.testing.assert_allclose(b0, fit_ols_supervised(ds), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(b1, fit_ols_semisupervised(ds, mom), rtol=1e-10, atol=1e-12)


def test_loss_mixed_hand_example():
    ds = LabeledSet(np.eye(2), [2.0, 4.0])
    beta = fit_loss_mixed_ols(ds, _moments_with_H(2 * np.eye(2), 2), 0.5)
    np.testing.assert_allclose(beta, [1.0 / 3.0, 5.0 / 3.0], atol=1e-12)


def test_loss_mixed_alpha_range():
    ds = LabeledSet(np.eye(2), [1.0, 2.0])
    with pytest.raises(DataValidationError):
        fit_loss_mixed_ols(ds, _moments_with_H(np.eye(2), 2), 1.5)


def _blended_objective(beta, X, Y, H, alpha):
    # blended empirical loss with the squared-loss antiderivative:
    # (1-a) mean(0.5 (xb)^2 - xb y) + a (E[0.5 (xb)^2] - Cov(X beta, Y))
    n = X.shape[0]
    xb = X @ beta
    sup = np.mean(0.5 * xb**2 - xb * Y)
    semi = 0.5 * beta @ (H / n) @ beta - (
        np.mean(xb * Y) - (X.mean(axis=0) @ beta) * Y.mean()
    )
    return (1 - alpha) * sup + alpha * semi


def test_loss_mixed_matches_numeric_minimizer():
    # derivative-free oracle on 20 random small instances
    rng = seeded_rng(6)
    for trial in range(20):
        n = int(rng.integers(5, 11))
        p = int(rng.integers(1, 5))
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal(n)
        A = rng.standard_normal((p + 2, p))
        H = n * (A.T @ A / (p + 2) + 0.5 * np.eye(p))
        alpha = float(rng.uniform(0.05, 0.95))
        ds = LabeledSet(X, Y)
        mom = _moments_with_H(H, n)
        closed = fit_loss_mixed_ols(ds, mom, alpha)
        res = minimize(
            _blended_objective,
            x0=np.zeros(p),
            args=(X, Y, H, alpha),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000},
        )
        assert np.max(np.abs(closed - res.x)) < 1e-6, trial


# -- risk terms ---------------------------------------------------------------


def test_v_u_exact_value():
    rng = seeded_rng(7)
    pool = UnlabeledPool(rng.standard_normal((3000, 50)))
    model = OlsPoolModel(build_moments(pool, 100), ResampleSpec(50, 1))
    assert model.v_u == 99 * 50 / 100**2  # 0.495 exactly


def test_v_l_matches_wishart_closed_form():
    # Gaussian oracle: v_l = p / (n - p - 1)
    rng = seeded_rng(8)
    n, p = 60, 12
    pool = UnlabeledPool(rng.standard_normal((20000, p)))
    model = OlsPoolModel(build_moments(pool, n), ResampleSpec(400, 2))
    expected = p / (n - p - 1)
    assert abs(model.v_l - expected) < max(3 * model.se_v_l, 0.02 * expected)


def test_v_l_is_the_block_mean_of_its_defining_trace():
    # v_l = mean over blocks of tr((X^T X)^{-1} H) / n, each block from its plan
    from mssl.core import resample_block

    rng = seeded_rng(13)
    n, p = 40, 8
    mixing = np.eye(p) + 0.3 * rng.standard_normal((p, p))
    moments = build_moments(UnlabeledPool(rng.standard_normal((2000, p)) @ mixing), n)
    spec = ResampleSpec(30, 6)
    model = OlsPoolModel(moments, spec)
    blocks = [resample_block(moments, spec, i) for i in range(spec.replications)]
    want = [np.trace(np.linalg.solve(X.T @ X, moments.H)) / n for X in blocks]
    assert model.n_blocks == len(want)
    assert model.v_l == pytest.approx(np.mean(want), rel=1e-12)


def test_bias_zero_for_zero_plugin():
    rng = seeded_rng(9)
    pool = UnlabeledPool(rng.standard_normal((500, 4)))
    model = OlsPoolModel(build_moments(pool, 20), ResampleSpec(30, 3))
    assert model.bias_at(np.zeros(4)) == 0.0
    assert model.b_u_hat > 0.0


def test_bias_matches_wishart_oracle():
    # Gaussian oracle for the semi-supervised bias at a fixed beta:
    # (1/n) tr(H^{-1} Var(M beta)) with M ~ Wishart(Sigma, n-1) gives
    # (n-1)(p+1)/n^2 * beta' Sigma beta for Sigma = I.
    rng = seeded_rng(10)
    n, p = 40, 5
    pool = UnlabeledPool(rng.standard_normal((40000, p)))
    beta = np.ones(p)
    model = OlsPoolModel(build_moments(pool, n), ResampleSpec(2000, 4))
    expected = (n - 1) * (p + 1) / n**2 * float(beta @ beta)
    assert model.bias_at(beta) == pytest.approx(expected, rel=0.1)


def test_b_u_matches_random_beta_oracle():
    # under random beta with unit signal, the bias factor approaches
    # [(n-1) p + n] / n^2 * tr(Sigma) for Gaussian designs
    rng = seeded_rng(11)
    n, p = 40, 5
    pool = UnlabeledPool(rng.standard_normal((40000, p)))
    model = OlsPoolModel(build_moments(pool, n), ResampleSpec(2000, 5))
    expected = ((n - 1) * p + n) / n**2 * p
    assert model.b_u_hat == pytest.approx(expected, rel=0.1)


def test_risk_terms_need_n_above_p():
    rng = seeded_rng(12)
    pool = UnlabeledPool(rng.standard_normal((100, 10)))
    with pytest.raises(RegimeError):
        OlsPoolModel(build_moments(pool, 10), ResampleSpec(10, 0))


# -- noise and signal ----------------------------------------------------------


def test_noise_zero_on_exact_fit():
    rng = seeded_rng(13)
    X = rng.standard_normal((10, 2))
    beta = np.array([1.0, -2.0])
    ds = LabeledSet(X, X @ beta)
    mom = build_moments(UnlabeledPool(rng.standard_normal((100, 2))), 10)
    ns = noise_signal_ols(ds, fit_ols_supervised(ds), mom)
    assert ns.sigma2_hat == pytest.approx(0.0, abs=1e-18)


def test_noise_signal_hand_example():
    ds = LabeledSet([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0])
    mom = _moments_with_H(np.eye(1) * 3, 3)  # Exx = I, trace 1
    ns = noise_signal_ols(ds, fit_ols_supervised(ds), mom)
    assert ns.sigma2_hat == pytest.approx(1.0)
    assert ns.tau2_hat == pytest.approx(14.0 / 3.0 - 1.0)


def test_noise_signal_regime_error():
    ds = LabeledSet(np.eye(3)[:2], [1.0, 2.0])  # n=2, p=3
    mom = _moments_with_H(np.eye(3), 2)
    with pytest.raises(RegimeError, match="interpolators"):
        noise_signal_ols(ds, np.zeros(3), mom)


def test_sigma2_unbiased_over_replications():
    rng = seeded_rng(14)
    n, p, sigma2 = 12, 3, 4.0
    vals = []
    for _ in range(5000):
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        Y = X @ beta + math.sqrt(sigma2) * rng.standard_normal(n)
        b = np.linalg.lstsq(X, Y, rcond=None)[0]
        r = Y - X @ b
        vals.append(float(r @ r) / (n - p))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - sigma2) < 3 * se


# -- mixing-ratio formulas -------------------------------------------------------


def _ratio_and_minimum(sigma2, B, v_l, v_u):
    risk = MixRisk.from_factors(sigma2, B, v_l, v_u, v_u)
    return risk.ratio, risk.minimum


def _finite_m(sigma2, tau2, b_ut, v_ut, v_st, v_l):
    """The finite-pool risk: bias tau^2 b_u~ and variance factors v_l, v_u~, v_s~."""
    return MixRisk.from_factors(sigma2, tau2 * b_ut, v_l, v_ut, v_st)


def test_alpha_star_noiseless():
    assert _ratio_and_minimum(0.0, 1.0, 1.0, 0.5) == (0.0, 0.0)


def test_alpha_star_unbiased_semisupervised():
    alpha, r = _ratio_and_minimum(2.0, 0.0, 1.0, 0.5)
    assert alpha == 1.0
    assert r == pytest.approx(2.0 * 0.5)


def test_alpha_star_plugin_example():
    alpha, r = _ratio_and_minimum(2.0, 1.0, 1.0, 0.5)
    assert alpha == pytest.approx(0.5)
    assert r == pytest.approx(1.5)


def test_alpha_star_ordering_error():
    with pytest.raises(DataValidationError):
        MixRisk.from_factors(1.0, 1.0, 0.5, 1.0, 1.0).ratio


def test_alpha_star_ordering_within_noise_clips_to_zero():
    # v_l below v_u by less than 3 of v_l's SEs: the gain counts as 0
    assert MixRisk.from_factors(1.0, 1.0, 0.5, 1.0, 1.0, se_v_l=0.2).ratio == 0.0
    with pytest.raises(DataValidationError, match="gain"):
        MixRisk.from_factors(1.0, 1.0, 0.5, 1.0, 1.0, se_v_l=0.1).ratio


def test_alpha_star_flat_case_is_zero():
    # no noise and no bias: every ratio attains the same risk
    assert MixRisk.from_factors(0.0, 0.0, 1.0, 0.5, 0.5).ratio == 0.0


@given(
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)
@settings(max_examples=100, deadline=None)
def test_alpha_star_interior_and_consistent_with_curve(sigma2, B, gap):
    v_u = 0.5
    v_l = v_u + gap
    risk = MixRisk.from_factors(sigma2, B, v_l, v_u, v_u)
    alpha, r_min = risk.ratio, risk.minimum
    assert 0.0 < alpha < 1.0
    assert r_min <= sigma2 * v_l + 1e-12
    # the curve evaluated at the optimum returns the reported minimum
    assert risk.curve(alpha) == pytest.approx(r_min, rel=1e-12)
    # and the optimum beats the endpoints
    assert r_min <= risk.curve(0.0) + 1e-12
    assert r_min <= risk.curve(1.0) + 1e-12


def test_alpha_star_minimum_without_cancellation():
    # hypothesis found this example: the expanded sigma^2 v_l - ... form of
    # r_min came out 5.8e-11 above the curve at alpha = 1, which lies above it
    sigma2, B, v_u = 600.4375, 0.001953125, 0.5
    v_l = v_u + 617.4375
    risk = MixRisk.from_factors(sigma2, B, v_l, v_u, v_u)
    alpha, r_min = risk.ratio, risk.minimum
    assert risk.curve(alpha) == pytest.approx(r_min, rel=1e-15)
    assert r_min <= risk.curve(0.0)
    assert r_min <= risk.curve(1.0)


def test_r_dot_curve_endpoints():
    sigma2, B, v_l, v_u = 2.0, 1.0, 1.0, 0.5
    risk = MixRisk.from_factors(sigma2, B, v_l, v_u, v_u)
    assert risk.curve(0.0) == pytest.approx(sigma2 * v_l)
    assert risk.curve(1.0) == pytest.approx(B + sigma2 * v_u)
    assert risk.curve(0.5) == pytest.approx(1.5)


@given(st.floats(0.0, 1.0), st.floats(0.0, 0.9))
@settings(max_examples=60, deadline=None)
def test_r_dot_curve_convex(a0, width):
    alphas = np.array([a0, a0 + width / 2, a0 + width])
    vals = MixRisk.from_factors(1.3, 0.7, 2.0, 0.4, 0.4).curve(alphas)
    assert vals[0] + vals[2] - 2 * vals[1] >= -1e-12


def test_alpha_star_finite_m_examples():
    assert _finite_m(0.0, 1.0, 0.5, 1.5, 1.0, 2.0).ratio == 0.0
    # reduction to the classic formula when the tilde terms collapse
    sigma2, tau2, v_l, v_u, B = 2.0, 1.5, 1.0, 0.5, 0.9
    collapsed = _finite_m(sigma2, tau2, B / tau2, v_u, v_u, v_l).ratio
    assert collapsed == pytest.approx(MixRisk.from_factors(sigma2, B, v_l, v_u, v_u).ratio)
    assert _finite_m(1.0, 1.0, 0.5, 1.5, 1.0, 2.0).ratio == pytest.approx(0.5)


def test_alpha_star_finite_m_bad_denominator():
    with pytest.raises(DataValidationError):
        _finite_m(1.0, 1.0, -5.0, 0.0, 3.0, 2.0).ratio


# -- loss-mixed grid search -----------------------------------------------------


def test_grid_search_zero_bias_plugin():
    rng = seeded_rng(15)
    pool = UnlabeledPool(rng.standard_normal((2000, 4)))
    mom = build_moments(pool, 20)
    ddot = OlsPoolModel(mom, ResampleSpec(60, 6), grid=np.linspace(0, 1, 11)).ddot
    r_hat = ddot.curve(np.zeros(4), 1.0)
    assert np.all(r_hat[0] >= r_hat)  # alpha=0 is the worst point
    assert ddot.argmin_alpha(np.zeros(4), 1.0) >= 0.5


def test_grid_search_noiseless_prefers_supervised():
    rng = seeded_rng(16)
    pool = UnlabeledPool(rng.standard_normal((2000, 4)))
    mom = build_moments(pool, 20)
    ddot = OlsPoolModel(mom, ResampleSpec(60, 7), grid=np.linspace(0, 1, 11)).ddot
    assert ddot.argmin_alpha(np.ones(4), 0.0) == 0.0


def test_grid_search_endpoints_match_pure_risks():
    # at alpha=0 the curve estimates sigma^2 v_l, at alpha=1 B + sigma^2 v_u
    rng = seeded_rng(17)
    n, p, sigma2 = 30, 4, 2.0
    pool = UnlabeledPool(rng.standard_normal((20000, p)))
    beta = np.array([1.0, -1.0, 0.5, 2.0])
    spec = ResampleSpec(800, 8)
    mom = build_moments(pool, n)
    r_hat = OlsPoolModel(mom, spec, grid=np.linspace(0, 1, 5)).ddot.curve(beta, sigma2)
    model = OlsPoolModel(mom, spec)
    assert r_hat[0] == pytest.approx(sigma2 * model.v_l, rel=0.05)
    expected_end = model.bias_at(beta) + sigma2 * model.v_u
    assert r_hat[-1] == pytest.approx(expected_end, rel=0.05)


def test_ddot_model_matches_grid_search_curve():
    # the grid search averages, over blocks, the risk of each ratio computed
    # by factoring its blend
    rng = seeded_rng(18)
    n, p = 25, 3
    pool = UnlabeledPool(rng.standard_normal((3000, p)))
    mom = build_moments(pool, n)
    grid = np.linspace(0, 1, 9)
    spec = ResampleSpec(100, 9)
    beta = np.array([0.5, 1.0, -0.25])
    Q_ref, V_ref = _ddot_per_ratio_reference(mom, grid, spec)
    xi = 1.0 - (2.0 * grid - grid**2) / n
    search_curve = (np.einsum("aij,i,j->a", Q_ref, beta, beta) + 1.7 * xi * V_ref) / n
    model = OlsPoolModel(mom, spec, grid=grid).ddot
    np.testing.assert_allclose(model.curve(beta, 1.7), search_curve, rtol=1e-10)


def _ddot_per_ratio_reference(mom, alphas, spec):
    """Block-averaged (Q, V) by factoring the blend once per ratio and block."""
    from scipy.linalg import cho_factor, cho_solve

    from mssl import resample_block

    H, n, p = mom.H, mom.n, mom.H.shape[0]
    Q = np.zeros((alphas.size, p, p))
    V = np.zeros(alphas.size)
    for i in range(spec.replications):
        Xb = resample_block(mom, spec, i)
        G = Xb.T @ Xb
        xbar = Xb.mean(axis=0)
        C = n * np.outer(xbar, xbar)
        for j, a in enumerate(alphas):
            factor = cho_factor(a * H + (1.0 - a) * G, lower=True)
            delta = cho_solve(factor, G - a * C) - np.eye(p)
            Q[j] += delta.T @ H @ delta
            V[j] += np.trace(cho_solve(factor, H) @ cho_solve(factor, G))
    return Q / spec.replications, V / spec.replications


def _correlated_pool(rng, m, p):
    mix = np.eye(p) + 0.4 * rng.standard_normal((p, p))
    return UnlabeledPool(rng.standard_normal((m, p)) @ mix.T)


def test_ddot_model_matches_per_ratio_factorization():
    rng = seeded_rng(24)
    n, p = 30, 6
    mom = build_moments(_correlated_pool(rng, 3000, p), n)
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1.0, 12)])
    spec = ResampleSpec(5, 11)
    model = OlsPoolModel(mom, spec, grid=grid).ddot
    Q_ref, V_ref = _ddot_per_ratio_reference(mom, grid, spec)
    np.testing.assert_allclose(model._V, V_ref, rtol=1e-10)
    for j in range(1, grid.size):
        scale = np.abs(Q_ref[j]).max()
        np.testing.assert_allclose(model._Q[j], Q_ref[j], rtol=1e-10, atol=1e-12 * scale)
    assert np.array_equal(model._Q, model._Q.transpose(0, 2, 1))


def test_ddot_model_supervised_endpoint():
    # at alpha = 0 the loss-mixed fit is the supervised one: no bias, and the
    # variance trace is tr((X^T X)^{-1} H) = n v_l on the same blocks
    rng = seeded_rng(25)
    n, p = 40, 5
    mom = build_moments(_correlated_pool(rng, 4000, p), n)
    spec = ResampleSpec(30, 12)
    pool_model = OlsPoolModel(mom, spec, grid=np.linspace(0, 1, 6))
    model = pool_model.ddot
    assert np.abs(model._Q[0]).max() <= 1e-12 * np.abs(model._Q[-1]).max()
    assert model._V[0] == pytest.approx(n * pool_model.v_l, rel=1e-10)


@given(
    st.integers(2, 6),
    st.integers(3, 20),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_ddot_curves_finite_and_positive(p, extra_n, sigma2, seed):
    rng = seeded_rng(seed)
    n = p + extra_n
    pool = _correlated_pool(rng, 60 * n, p)
    mom = build_moments(pool, n)
    grid = np.linspace(0, 1, 6)
    spec = ResampleSpec(8, seed % 1000)
    beta = rng.standard_normal(p)
    model_curve = OlsPoolModel(mom, spec, grid=grid).ddot.curve(beta, sigma2)
    # built from the raw pool, as the grid search did
    search_curve = OlsPoolModel(build_moments(pool, n), spec, grid=grid).ddot.curve(beta, sigma2)
    for curve in (model_curve, search_curve):
        assert np.all(np.isfinite(curve))
        assert np.all(curve > 0)


def test_mc_argmin_agrees_with_alpha_star():
    # measured risk of the coefficient mix over a 0.02 grid, small scale
    rng = seeded_rng(19)
    n, p, sigma2, K = 40, 8, 9.0, 400
    pool = UnlabeledPool(rng.standard_normal((8000, p)))
    mom = build_moments(pool, n)
    beta_true = 0.6 * np.ones(p)
    model = OlsPoolModel(mom, ResampleSpec(400, 10))
    alpha_star = model.risk(sigma2, model.bias_at(beta_true)).ratio

    alphas = np.linspace(0, 1, 51)
    L = np.linalg.cholesky(mom.Exx)
    coeffs = []
    for k in range(K):
        X = mom.pool.Z[seeded_rng(100, k).choice(mom.pool.m, n, replace=False)]
        Y = X @ beta_true + math.sqrt(sigma2) * seeded_rng(101, k).standard_normal(n)
        bh = np.linalg.lstsq(X, Y, rcond=None)[0]
        bb = np.linalg.solve(mom.H, X.T @ Y - n * X.mean(axis=0) * Y.mean())
        u0 = L.T @ (bh - beta_true)
        u1 = L.T @ (bb - beta_true)
        d = u1 - u0
        coeffs.append((d @ d, 2 * u0 @ d, u0 @ u0))
    coeffs = np.asarray(coeffs)
    mean_curve = coeffs[:, 0].mean() * alphas**2 + coeffs[:, 1].mean() * alphas + coeffs[:, 2].mean()
    mc_argmin = alphas[int(np.argmin(mean_curve))]
    batches = np.array_split(coeffs, 10)
    batch_mins = [
        np.clip(-b[:, 1].mean() / (2 * b[:, 0].mean()), 0, 1) for b in batches
    ]
    se = np.std(batch_mins, ddof=1) / math.sqrt(len(batch_mins))
    assert abs(mc_argmin - alpha_star) <= 0.02 + 2 * se


def _sample_and_moments_for_half_n(n: int = 60, p: int = 3):
    rng = seeded_rng(23)
    X = rng.standard_normal((n, p))
    data = LabeledSet(X, X @ np.ones(p) + rng.standard_normal(n))
    return data, build_moments(UnlabeledPool(rng.standard_normal((2000, p))), n // 2)


def test_semisupervised_fit_rejects_moments_built_for_another_n():
    data, moments = _sample_and_moments_for_half_n()
    with pytest.raises(DataValidationError, match="n=60.*n=30"):
        fit_ols_semisupervised(data, moments)


def test_loss_mixed_fit_rejects_moments_built_for_another_n():
    data, moments = _sample_and_moments_for_half_n()
    with pytest.raises(DataValidationError, match="n=60.*n=30"):
        fit_loss_mixed_ols(data, moments, 0.5)


def test_v_l_exceeds_v_u_across_configurations():
    rng = seeded_rng(22)
    for n, p in ((20, 4), (40, 15), (100, 50)):
        pool = UnlabeledPool(rng.standard_normal((4000, p)))
        model = OlsPoolModel(build_moments(pool, n), ResampleSpec(100, n))
        assert model.v_l > model.v_u


def _line_pool(rng, m, generic):
    """Pool rows on a line through the origin, but for ``generic`` Gaussian rows.

    After centering the line rows span two of the three dimensions, so a
    block of 4 rows is singular unless it draws a generic row.
    """
    Z = np.outer(rng.standard_normal(m), [1.0, 2.0, -1.0])
    Z[:generic] = rng.standard_normal((generic, 3))
    return UnlabeledPool(Z)


@pytest.mark.parametrize("grid", [None, np.linspace(0, 1, 5)])
def test_pool_model_mostly_singular_blocks_exhaust_the_budget(grid):
    pool = _line_pool(seeded_rng(5), 200, 8)
    with pytest.raises(ResampleBudgetError):
        OlsPoolModel(build_moments(pool, 4), ResampleSpec(40, 0), grid=grid)


def test_pool_model_skips_a_block_for_every_statistic():
    # the skipped blocks are left out of v_l and the loss-mixed curve alike:
    # the curve's alpha = 0 variance trace is n v_l on the same blocks
    pool = _line_pool(seeded_rng(5), 200, 110)
    spec = ResampleSpec(100, 1)
    model = OlsPoolModel(build_moments(pool, 4), spec, grid=np.linspace(0, 1, 5))
    assert model.n_skipped == 5
    assert model.n_blocks == 95
    assert model.ddot._V[0] == pytest.approx(4 * model.v_l, rel=1e-10)


@pytest.mark.parametrize("grid", [[0.5], [0.0, 1.5], [0.0, np.nan, 1.0]])
def test_pool_model_rejects_a_bad_ratio_grid(grid):
    pool = UnlabeledPool(seeded_rng(6).standard_normal((500, 3)))
    with pytest.raises(DataValidationError, match="ratio grid"):
        OlsPoolModel(build_moments(pool, 10), ResampleSpec(20, 0), grid=grid)


# -- the stacked block pass -----------------------------------------------------


def _ols_per_block_reference(mom, n, spec):
    """Per-block v_l, b_u and whitened scatter, by the one-block-at-a-time formulas."""
    from scipy.linalg import solve_triangular

    from mssl import resample_block
    from mssl._blas import cho_solve
    from mssl.core import spd_factor

    L = np.linalg.cholesky(mom.H)
    v_l, b_u, W = [], [], []
    for i in range(spec.replications):
        Xb = resample_block(mom, spec, i)
        G = Xb.T @ Xb
        xbar = Xb.mean(axis=0)
        Wb = solve_triangular(L, G - n * np.outer(xbar, xbar), lower=True)
        v_l.append(np.trace(cho_solve(spd_factor(G, "X^T X"), mom.H)) / n)
        b_u.append(np.sum((Wb - L.T) ** 2) / n)
        W.append(Wb)
    return np.array(v_l), np.array(b_u), np.stack(W)


def test_pool_model_matches_the_per_block_formulas():
    rng = seeded_rng(26)
    n, p = 40, 6
    mom = build_moments(_correlated_pool(rng, 4000, p), n)
    spec = ResampleSpec(30, 13)
    model = OlsPoolModel(mom, spec)
    v_l, b_u, W = _ols_per_block_reference(mom, n, spec)
    assert model.v_l == pytest.approx(v_l.mean(), rel=1e-12)
    assert model.se_v_l == pytest.approx(v_l.std(ddof=1) / math.sqrt(v_l.size), rel=1e-12)
    assert model.b_u_hat == pytest.approx(b_u.mean(), rel=1e-12)
    for beta in rng.standard_normal((2, p)):  # the kept form, at two plug-in vectors
        U = W @ beta
        U -= U.mean(axis=0)
        assert model.bias_at(beta) == pytest.approx(np.sum(U * U) / (U.shape[0] - 1) / n,
                                                    rel=1e-12)
    np.testing.assert_allclose(model._bias, model._bias.T, rtol=0,
                               atol=1e-15 * np.abs(model._bias).max())


def _pool_model_numbers(moments, spec, grid, beta, link=None):
    """The statistics of ``OlsPoolModel`` at ``beta``, or of ``GlmPoolStats`` at ``link``."""
    if link is None:
        model = OlsPoolModel(moments, spec, grid=grid)
        numbers = [model.v_l, model.se_v_l, model.b_u_hat, model.bias_at(beta)]
    else:
        model = GlmPoolStats(moments, link, beta, spec, grid)
        numbers = [model.v_l, model.se_v_l, model.v_s, model.se_v_s, model.trace_sigma,
                   model.b_u_hat, model.B_hat]
    if grid is not None:
        numbers += [*model.ddot._V, *model.ddot._Q.ravel()]
    return model.n_skipped, np.array(numbers)


@pytest.mark.parametrize("grid", [None, np.linspace(0, 1, 7)])
def test_pool_model_does_not_depend_on_the_chunking(grid, monkeypatch):
    import mssl.core

    rng = seeded_rng(27)
    n, p = 30, 5
    mom = build_moments(_correlated_pool(rng, 3000, p), n)
    spec = ResampleSpec(25, 14)
    beta = rng.standard_normal(p)
    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", 1)  # one block per chunk
    _, one = _pool_model_numbers(mom, spec, grid, beta)
    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", 1 << 30)  # every block in one chunk
    _, all_ = _pool_model_numbers(mom, spec, grid, beta)
    np.testing.assert_allclose(one, all_, rtol=1e-13, atol=1e-13 * np.abs(all_).max())


def test_pool_model_skips_singular_blocks_inside_a_chunk(monkeypatch):
    import mssl.core

    pool = _line_pool(seeded_rng(5), 200, 110)
    spec = ResampleSpec(100, 1)
    grid, beta = np.linspace(0, 1, 5), np.array([1.0, -0.5, 2.0])
    runs = []
    for budget in (1, 1 << 30):  # one block per chunk, then every block in one chunk
        monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", budget)
        runs.append(_pool_model_numbers(build_moments(pool, 4), spec, grid, beta))
    assert runs[0][0] == runs[1][0] == 5
    np.testing.assert_allclose(runs[0][1], runs[1][1], rtol=1e-13,
                               atol=1e-13 * np.abs(runs[1][1]).max())


@pytest.mark.parametrize("link", [None, elu_link()], ids=["identity", "elu"])
def test_pool_model_leaves_a_block_with_a_masked_blend_out_of_every_statistic(link, monkeypatch):
    # a block whose blend is not positive definite is masked by the pencil; the
    # pass then equals one over the other blocks (one block per chunk in both)
    import mssl.core
    import mssl.glm
    from mssl import resample_block

    rng = seeded_rng(28)
    n, p = 30, 4
    mom = build_moments(_correlated_pool(rng, 3000, p), n)
    spec = ResampleSpec(20, 15)
    grid, beta = np.linspace(0, 1, 6), rng.standard_normal(p)
    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", 1)
    pencil, calls = mssl.glm._pencil, []

    def mask_block_2(F, L_inv, alphas):
        keep, *rest = pencil(F, L_inv, alphas)
        calls.append(F)
        return (keep & (len(calls) != 3), *rest)

    monkeypatch.setattr(mssl.glm, "_pencil", mask_block_2)
    masked = _pool_model_numbers(mom, spec, grid, beta, link)
    monkeypatch.setattr(mssl.glm, "_pencil", pencil)
    others = [i for i in range(spec.replications) if i != 2]
    monkeypatch.setattr(mssl.glm, "resample_block",
                        lambda m, s, i: resample_block(mom, spec, others[i]))
    full = _pool_model_numbers(mom, ResampleSpec(len(others), 15), grid, beta, link)
    assert len(calls) == spec.replications
    assert masked[0] == 1 and full[0] == 0
    np.testing.assert_allclose(masked[1], full[1], rtol=1e-13, atol=1e-13 * np.abs(full[1]).max())
