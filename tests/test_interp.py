import dataclasses
import math

import numpy as np
import pytest

from mssl import (
    DataValidationError,
    InterpSample,
    LabeledSet,
    RegimeError,
    ResampleBudgetError,
    ResampleSpec,
    SingularMatrixError,
    UnlabeledPool,
    alpha_star_interp,
    fit_min_norm,
    fit_min_variance,
    gaussian_sampler,
    interp_eta,
    interp_risk_terms,
    interp_terms_spiked_closed_form,
    iterate_sigma_tau,
    pool_sampler,
    seeded_rng,
)
from mssl.core import spd_factor
from mssl.interp import InterpRiskTerms


# -- interpolating fits ---------------------------------------------------------


def test_min_norm_hand_example():
    ds = LabeledSet([[1.0, 1.0]], [2.0])
    np.testing.assert_allclose(fit_min_norm(ds), [1.0, 1.0], atol=1e-12)


def test_min_norm_zero_response():
    rng = seeded_rng(1)
    ds = LabeledSet(rng.standard_normal((3, 6)), np.zeros(3))
    np.testing.assert_allclose(fit_min_norm(ds), np.zeros(6), atol=1e-12)


def test_min_norm_interpolates_and_lives_in_row_space():
    rng = seeded_rng(2)
    X = rng.standard_normal((3, 8))
    Y = rng.standard_normal(3)
    w = fit_min_norm(LabeledSet(X, Y))
    assert np.linalg.norm(X @ w - Y) < 1e-10
    # w is orthogonal to the null space of X (it lies in the row space)
    _, _, Vt = np.linalg.svd(X, full_matrices=True)
    null_basis = Vt[3:]
    assert np.max(np.abs(null_basis @ w)) < 1e-10


def test_min_norm_is_smallest_interpolator():
    rng = seeded_rng(3)
    X = rng.standard_normal((3, 8))
    Y = rng.standard_normal(3)
    w = fit_min_norm(LabeledSet(X, Y))
    # any other interpolator (min-norm plus a null-space shift) is longer
    _, _, Vt = np.linalg.svd(X, full_matrices=True)
    other = w + 0.3 * Vt[-1]
    assert np.linalg.norm(X @ other - Y) < 1e-9
    assert np.linalg.norm(other) > np.linalg.norm(w)


def test_min_norm_regime_check():
    with pytest.raises(RegimeError):
        fit_min_norm(LabeledSet(np.eye(3), np.ones(3)))


def test_min_variance_equals_min_norm_for_scaled_identity():
    rng = seeded_rng(4)
    ds = LabeledSet(rng.standard_normal((4, 9)), rng.standard_normal(4))
    w_hat = fit_min_norm(ds)
    w_tilde = fit_min_variance(ds, 2.5 * np.eye(9))
    np.testing.assert_allclose(w_tilde, w_hat, atol=1e-10)


def test_min_variance_hand_example():
    ds = LabeledSet([[1.0, 1.0]], [2.0])
    sigma = np.diag([1.0, 0.25])
    w = fit_min_variance(ds, sigma)
    np.testing.assert_allclose(w, [0.4, 1.6], atol=1e-12)
    assert w @ sigma @ w == pytest.approx(0.8)
    w_hat = fit_min_norm(ds)
    assert w_hat @ sigma @ w_hat == pytest.approx(1.25)


def test_min_variance_zero_response():
    rng = seeded_rng(5)
    ds = LabeledSet(rng.standard_normal((3, 7)), np.zeros(3))
    np.testing.assert_allclose(fit_min_variance(ds, np.eye(7)), np.zeros(7))


def test_min_variance_rejects_non_pd_sigma():
    ds = LabeledSet(np.ones((1, 2)), [1.0])
    with pytest.raises(SingularMatrixError):
        fit_min_variance(ds, np.zeros((2, 2)))


def test_variance_dominance_every_draw():
    rng = seeded_rng(6)
    sigma = np.diag(np.concatenate([np.ones(8), np.full(4, 0.05)]))
    for k in range(50):
        X = seeded_rng(7, k).standard_normal((5, 12)) @ np.sqrt(sigma)
        Y = seeded_rng(8, k).standard_normal(5)
        ds = LabeledSet(X, Y)
        w_hat = fit_min_norm(ds)
        w_tilde = fit_min_variance(ds, sigma)
        assert np.linalg.norm(X @ w_tilde - Y) < 1e-8 * (1 + np.linalg.norm(Y))
        assert w_tilde @ sigma @ w_tilde <= w_hat @ sigma @ w_hat + 1e-10


# -- risk terms -------------------------------------------------------------------


def test_interp_terms_gaussian_isotropic():
    # Wishart oracle: v_u = n/(p-n-1); with Sigma = I the two estimators
    # coincide so b_l = b_u and v_l = v_u
    n, p = 20, 45
    terms = interp_risk_terms(
        np.eye(p), n, p, gaussian_sampler(np.eye(p), n), ResampleSpec(n, 600, 1)
    )
    expected = n / (p - n - 1)
    assert terms.v_u == pytest.approx(expected, rel=0.05)
    assert terms.v_l == pytest.approx(terms.v_u, rel=0.05)
    assert terms.b_l == pytest.approx(terms.b_u, rel=0.05)


def test_interp_terms_spiked_match_closed_form():
    # with a negligible minor block the two-level closed forms are exact
    n, p = 30, 60
    p_tilde = 48
    diag = np.concatenate([np.ones(p_tilde), np.full(p - p_tilde, 1e-8)])
    sigma = np.diag(diag)
    terms = interp_risk_terms(
        sigma, n, p, gaussian_sampler(sigma, n), ResampleSpec(n, 800, 2)
    )
    closed = interp_terms_spiked_closed_form(n, p, p_tilde, 1.0, float(diag.sum()))
    assert terms.v_u == pytest.approx(closed.v_u, rel=0.02)
    assert terms.v_l == pytest.approx(closed.v_l, rel=0.02)
    assert terms.b_u == pytest.approx(closed.b_u, rel=0.02)
    assert terms.b_l == pytest.approx(closed.b_l, rel=0.02)


def test_interp_terms_spiked_working_config():
    # minor entries of 1/n leave a visible ridge effect: the closed form for
    # v_l (50/29 here) is only good to ~7% at this size, the others to ~1%
    n, p, p_tilde = 50, 100, 80
    diag = np.concatenate([np.ones(p_tilde), np.full(p - p_tilde, 1.0 / n)])
    sigma = np.diag(diag)
    terms = interp_risk_terms(
        sigma, n, p, gaussian_sampler(sigma, n), ResampleSpec(n, 600, 4)
    )
    closed = interp_terms_spiked_closed_form(n, p, p_tilde, 1.0, float(diag.sum()))
    assert closed.v_l == pytest.approx(50.0 / 29.0)
    assert terms.v_u == pytest.approx(closed.v_u, rel=0.02)
    assert terms.v_l == pytest.approx(closed.v_l, rel=0.10)
    assert terms.b_u == pytest.approx(closed.b_u, rel=0.05)


def test_interp_terms_ordering_properties():
    rng = seeded_rng(9)
    n, p = 25, 60
    diag = np.concatenate([np.ones(40), np.full(20, 0.02)])
    sigma = np.diag(diag)
    terms = interp_risk_terms(
        sigma, n, p, gaussian_sampler(sigma, n), ResampleSpec(n, 400, 3)
    )
    assert terms.b_l <= terms.b_u + 3 * (terms.se_b_l + terms.se_b_u)
    assert terms.v_l >= terms.v_u - 3 * (terms.se_v_l + terms.se_v_u)


def test_interp_terms_regime_check():
    with pytest.raises(RegimeError):
        interp_risk_terms(np.eye(4), 4, 4, gaussian_sampler(np.eye(4), 4), ResampleSpec(4, 5, 0))


def test_pool_sampler_draws_rows():
    rng = seeded_rng(10)
    pool = UnlabeledPool(rng.standard_normal((50, 4)))
    draw = pool_sampler(pool, 3)
    X = draw(seeded_rng(11))
    assert X.shape == (3, 4)
    # every drawn row exists in the pool
    for row in X:
        assert np.any(np.all(np.isclose(pool.Z, row), axis=1))


# -- mixing ratio ------------------------------------------------------------------


def _terms(b_l, v_l, b_u, v_u):
    return InterpRiskTerms(b_l=b_l, v_l=v_l, b_u=b_u, v_u=v_u)


def test_alpha_star_interp_edges():
    t = _terms(1.0, 2.0, 1.5, 1.0)
    assert alpha_star_interp(0.0, 1.0, t)[0] == 0.0
    assert alpha_star_interp(3.0, 0.0, t)[0] == 1.0


def test_alpha_star_interp_symmetry():
    # sigma^2 (v_l - v_u) = tau^2 (b_u - b_l) gives exactly one half
    t = _terms(1.0, 2.0, 2.0, 1.0)
    alpha, r_min = alpha_star_interp(1.0, 1.0, t)
    assert alpha == pytest.approx(0.5)
    assert r_min == pytest.approx(1.0 * 1.0 + 1.0 * 2.0 - 1.0 / 2.0)


def test_alpha_star_interp_ordering_error():
    bad = _terms(2.0, 1.0, 1.0, 2.0)
    with pytest.raises(DataValidationError):
        alpha_star_interp(1.0, 1.0, bad)


def test_interp_eta_below_one():
    t = _terms(1.0, 2.0, 2.0, 1.0)
    eta = interp_eta(2.0, 1.0, t)
    assert 0.0 < eta < 1.0


# -- noise and signal ---------------------------------------------------------------


def test_sigma2_known_tau_hand_examples():
    ds = LabeledSet([[1.0, 1.0]], [3.0])
    assert InterpSample(ds).sigma2_known_tau(0.0) == pytest.approx(9.0)
    assert InterpSample(ds).sigma2_known_tau(1.0) == pytest.approx(7.0)


def test_sigma2_known_tau_unbiased():
    rng = seeded_rng(12)
    n, p, sigma2, tau2 = 10, 25, 4.0, 1.0
    vals = []
    for k in range(5000):
        r = seeded_rng(13, k)
        X = r.standard_normal((n, p))
        w = math.sqrt(tau2) * r.standard_normal(p)
        Y = X @ w + math.sqrt(sigma2) * r.standard_normal(n)
        vals.append(InterpSample(LabeledSet(X, Y)).sigma2_known_tau(tau2))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - sigma2) < 3 * se


def test_iterate_sigma_tau_zero_response():
    rng = seeded_rng(14)
    ds = LabeledSet(rng.standard_normal((4, 9)), np.zeros(4))
    out = iterate_sigma_tau(ds, np.eye(9))
    assert out.converged
    assert (out.sigma2_hat, out.tau2_hat) == (0.0, 0.0)


def test_iterate_sigma_tau_noiseless():
    # noiseless draws: the iteration converges, the typical estimate is an
    # exact zero, and the zero-clipping leaves a bounded upward mean bias
    # (about 2.0 at this size; kept verbatim, see the raw estimator above)
    n, p = 50, 100
    diag = np.concatenate([np.ones(80), np.full(20, 1.0 / n)])
    sigma = np.diag(diag)
    L = np.sqrt(diag)
    vals = []
    for k in range(300):
        r = seeded_rng(15, k)
        X = r.standard_normal((n, p)) * L
        w = r.standard_normal(p)
        out = iterate_sigma_tau(LabeledSet(X, X @ w), sigma)
        assert out.converged
        vals.append(out.sigma2_hat)
    vals = np.asarray(vals)
    assert np.median(vals) == 0.0
    assert vals.mean() < 3.0


def test_iterate_sigma_tau_recovers_truth_at_scale():
    # working configuration of the sigma2-sweep study at sigma2 = 25
    n, p, sigma2, tau2 = 50, 100, 25.0, 1.0
    diag = np.concatenate([np.ones(80), np.full(20, 1.0 / n)])
    sigma = np.diag(diag)
    L = np.sqrt(diag)
    sig_vals, tau_vals = [], []
    for k in range(400):
        r = seeded_rng(16, k)
        X = r.standard_normal((n, p)) * L
        w = math.sqrt(tau2) * r.standard_normal(p)
        Y = X @ w + math.sqrt(sigma2) * r.standard_normal(n)
        out = iterate_sigma_tau(LabeledSet(X, Y), sigma)
        sig_vals.append(out.sigma2_hat)
        tau_vals.append(out.tau2_hat)
    assert np.mean(sig_vals) == pytest.approx(sigma2, rel=0.10)
    assert np.mean(tau_vals) == pytest.approx(tau2, rel=0.10)


def test_interp_terms_mostly_singular_draws_exhaust_the_budget():
    n, p = 5, 12
    draw = gaussian_sampler(np.eye(p), n)

    def sampler(rng):
        X = draw(rng)
        if rng.random() < 0.8:
            X[1] = X[0]  # a repeated row makes X X^T singular
        return X

    with pytest.raises(ResampleBudgetError):
        interp_risk_terms(np.eye(p), n, p, sampler, ResampleSpec(n, 40, 0))


def test_interp_terms_need_two_usable_draws():
    n, p = 5, 12
    with pytest.raises(DataValidationError, match="not enough usable blocks"):
        interp_risk_terms(np.eye(p), n, p, gaussian_sampler(np.eye(p), n), ResampleSpec(n, 1, 0))


# Sigma = diag(1, 1, 1, 1e-8) (cond 1e8) and a draw whose X X^T passes the
# condition check (cond 2.2e5) while X Sigma^{-1} X^T = diag(1 + 1e8, 9e-6)
# fails it (cond 1.1e13 > COND_LIMIT).
_INNER_SIGMA = np.diag([1.0, 1.0, 1.0, 1e-8])
_INNER_BAD = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 3e-3, 0.0, 0.0]])


def _listed(draws):
    """A sampler that hands out the given designs in plan order."""
    it = iter(draws)
    return lambda rng: next(it)


def _inner_draws(count: int, bad: set[int]) -> list[np.ndarray]:
    draw = gaussian_sampler(_INNER_SIGMA, 2)
    return [_INNER_BAD if i in bad else draw(seeded_rng(31, i)) for i in range(count)]


def test_interp_terms_skip_a_draw_whose_inner_gram_fails_the_check():
    with pytest.raises(SingularMatrixError):
        spd_factor(_INNER_BAD @ np.linalg.solve(_INNER_SIGMA, _INNER_BAD.T), "inner")
    spd_factor(_INNER_BAD @ _INNER_BAD.T, "X X^T")  # the outer Gram passes
    draws = _inner_draws(20, bad={5, 13})  # 2 of 20 skipped: within the 10% budget
    good = [X for i, X in enumerate(draws) if i not in {5, 13}]
    got = interp_risk_terms(_INNER_SIGMA, 2, 4, _listed(draws), ResampleSpec(2, 20, 0))
    want = interp_risk_terms(_INNER_SIGMA, 2, 4, _listed(good), ResampleSpec(2, 18, 0))
    assert dataclasses.replace(got, n_skipped=0) == want
    assert got.n_skipped == 2


def test_interp_terms_inner_gram_failures_count_against_the_budget():
    draws = _inner_draws(20, bad={2, 5, 13})  # 3 of 20 is over the 10% budget
    with pytest.raises(ResampleBudgetError, match="3/20"):
        interp_risk_terms(_INNER_SIGMA, 2, 4, _listed(draws), ResampleSpec(2, 20, 0))
