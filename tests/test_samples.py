"""Properties of the per-sample objects shared by ``mssl fit`` and the presets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssl import (
    DataValidationError,
    GlmSample,
    InterpRiskTerms,
    InterpSample,
    LabeledSet,
    OlsPoolModel,
    OlsSample,
    ResampleSpec,
    UnlabeledPool,
    build_moments,
    elu_link,
    fit_glm_loss_mixed,
    seeded_rng,
)
from mssl.core import spd_factor

seeds = st.integers(0, 2**16)
ratios = st.floats(0.0, 1.0)


def _ols_draw(seed: int, n: int = 25, p: int = 3, m: int = 400):
    """Correlated, off-center labeled covariates, responses and pool rows."""
    rng = seeded_rng(seed)
    L = np.tril(0.4 * rng.standard_normal((p, p))) + np.eye(p)
    X = rng.standard_normal((n, p)) @ L.T + 0.3
    Y = X @ rng.standard_normal(p) + rng.standard_normal(n)
    return X, Y, rng.standard_normal((m, p)) @ L.T + 0.3


def _ols_sample(X, Y, Z, grid=None) -> OlsSample:
    n = X.shape[0]
    moments = build_moments(UnlabeledPool(Z), n)
    model = OlsPoolModel(moments, ResampleSpec(n, 30, 5), grid=grid)
    return OlsSample(LabeledSet(X - moments.mean, Y), model)


def _well_conditioned(seed: int, p: int) -> np.ndarray:
    """U diag(s) V^T with orthogonal U, V and s in [0.5, 2], so cond(A) <= 4."""
    rng = seeded_rng(seed, 1)
    U = np.linalg.qr(rng.standard_normal((p, p)))[0]
    V = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return U @ np.diag(rng.uniform(0.5, 2.0, p)) @ V.T


@given(seeds, seeds, ratios)
@settings(max_examples=25, deadline=None)
def test_ols_sample_is_equivariant_under_linear_maps(seed, a_seed, alpha):
    # X -> XA and Z -> ZA map every fit beta to A^{-1} beta and leave the
    # noise, the plug-in bias and the formula ratio unchanged
    X, Y, Z = _ols_draw(seed)
    A = _well_conditioned(a_seed, X.shape[1])
    s, t = _ols_sample(X, Y, Z), _ols_sample(X @ A, Y, Z @ A)
    for fit in (lambda r: r.beta_hat, lambda r: r.beta_breve, lambda r: r.loss(alpha),
                lambda r: r.linear(alpha)):
        np.testing.assert_allclose(fit(t), np.linalg.solve(A, fit(s)), rtol=1e-8, atol=1e-10)
    for value in ("sigma2_hat", "B_hat", "alpha_hat"):
        assert getattr(t, value) == pytest.approx(getattr(s, value), rel=1e-8, abs=1e-12)


@given(seeds, st.floats(0.1, 10.0), ratios)
@settings(max_examples=25, deadline=None)
def test_ols_sample_scales_with_the_response(seed, c, alpha):
    X, Y, Z = _ols_draw(seed)
    s, t = _ols_sample(X, Y, Z), _ols_sample(X, c * Y, Z)
    for fit in (lambda r: r.beta_hat, lambda r: r.beta_breve, lambda r: r.loss(alpha)):
        np.testing.assert_allclose(fit(t), c * fit(s), rtol=1e-9, atol=1e-12)
    assert t.alpha_hat == pytest.approx(s.alpha_hat, rel=1e-9, abs=1e-12)


@given(seeds, seeds, ratios)
@settings(max_examples=25, deadline=None)
def test_ols_sample_ignores_the_order_of_labeled_rows(seed, perm_seed, alpha):
    X, Y, Z = _ols_draw(seed)
    order = seeded_rng(perm_seed, 2).permutation(X.shape[0])
    grid = np.linspace(0.0, 1.0, 11)
    s, t = _ols_sample(X, Y, Z, grid), _ols_sample(X[order], Y[order], Z, grid)
    for fit in (lambda r: r.beta_hat, lambda r: r.beta_breve, lambda r: r.loss(alpha),
                lambda r: r.linear(alpha)):
        np.testing.assert_allclose(fit(t), fit(s), rtol=1e-9, atol=1e-12)
    for value in ("sigma2_hat", "tau2_hat", "B_hat", "alpha_hat", "alpha_grid"):
        assert getattr(t, value) == pytest.approx(getattr(s, value), rel=1e-9, abs=1e-12)


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_ols_mix_endpoints_are_the_pure_fits(seed):
    X, Y, Z = _ols_draw(seed)
    s = _ols_sample(X, Y, Z)
    np.testing.assert_array_equal(s.linear(0.0), s.beta_hat)
    np.testing.assert_array_equal(s.linear(1.0), s.beta_breve)
    np.testing.assert_allclose(s.loss(0.0), s.beta_hat, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(s.loss(1.0), s.beta_breve, rtol=1e-12, atol=1e-14)


def _pool_moments_for_half_n(seed: int = 3, n: int = 60, p: int = 3):
    """A centered labeled sample of size n and pool moments built for n // 2."""
    X, Y, Z = _ols_draw(seed, n=n, p=p)
    moments = build_moments(UnlabeledPool(Z), n // 2)
    return LabeledSet(X - moments.mean, Y), moments


def test_ols_sample_rejects_a_model_built_for_another_n():
    # H = n Exx for the wrong n would scale beta_breve by the ratio of the sizes
    data, moments = _pool_moments_for_half_n()
    model = OlsPoolModel(moments, ResampleSpec(moments.n, 30, 5))
    with pytest.raises(DataValidationError, match="n=60.*n=30"):
        OlsSample(data, model)


def test_glm_sample_rejects_moments_built_for_another_n():
    data, moments = _pool_moments_for_half_n()
    with pytest.raises(DataValidationError, match="n=60.*n=30"):
        GlmSample(data, moments, elu_link(), ResampleSpec(moments.n, 30, 5))


def test_ols_sample_without_a_grid_has_no_grid_ratio():
    X, Y, Z = _ols_draw(0)
    s = _ols_sample(X, Y, Z)
    assert s.alpha_grid is None
    assert _ols_sample(X, Y, Z, np.linspace(0.0, 1.0, 5)).alpha_grid in np.linspace(0, 1, 5)


def _glm_sample(seed: int, n: int = 40, p: int = 3, m: int = 600, **kw) -> GlmSample:
    rng = seeded_rng(seed)
    link = elu_link()
    X = rng.standard_normal((n, p))
    Y = link.g(X @ np.ones(p)) + rng.standard_normal(n)
    moments = build_moments(UnlabeledPool(rng.standard_normal((m, p))), n)
    return GlmSample(LabeledSet(X - moments.mean, Y), moments, link, **kw)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_glm_sample_loss_endpoints_are_the_pure_fits(seed):
    s = _glm_sample(seed)
    np.testing.assert_array_equal(s.loss(0.0), s.beta_hat)
    np.testing.assert_array_equal(s.loss(1.0), s.beta_breve)
    np.testing.assert_array_equal(s.linear(0.0), s.beta_hat)
    np.testing.assert_array_equal(s.linear(1.0), s.beta_breve)
    assert s.nonconverged == 0


@given(seeds)
@settings(max_examples=10, deadline=None)
def test_glm_loss_mixed_solve_at_the_endpoints_is_the_pure_fits(seed):
    # GlmSample.loss returns the pure fits at 0 and 1 without a solve; the
    # Newton solve it skips lands there too, even started at the other end
    s = _glm_sample(seed)
    for alpha, pure, start in ((0.0, s.beta_hat, s.beta_breve), (1.0, s.beta_breve, s.beta_hat)):
        report = fit_glm_loss_mixed(s.data, s.pool, s.link, alpha, beta0=start)
        assert report.converged
        np.testing.assert_allclose(report.beta, pure, rtol=1e-8, atol=1e-10)


def test_glm_sample_builds_pool_stats_on_first_use():
    s = _glm_sample(1, spec=ResampleSpec(40, 30, 2), alphas=np.linspace(0.0, 1.0, 11))
    assert "stats" not in vars(s)
    assert 0.0 <= s.alpha_hat <= 1.0
    assert s.alpha_grid in s.stats.alphas
    assert s.sigma2_hat > 0
    assert _glm_sample(1, spec=ResampleSpec(40, 30, 2)).alpha_grid is None


# a risk-term set with v_l > v_u and b_u > b_l, as the mixing formula needs
_TERMS = InterpRiskTerms(b_l=1.0, v_l=2.0, b_u=3.0, v_u=0.5)


def _interp_sample(seed: int, n: int = 8, p: int = 20, factor=True) -> InterpSample:
    rng = seeded_rng(seed)
    Sigma = np.diag(rng.uniform(0.2, 2.0, p))
    X = rng.standard_normal((n, p)) @ np.sqrt(Sigma)
    data = LabeledSet(X, X @ rng.standard_normal(p) + rng.standard_normal(n))
    return InterpSample(data, spd_factor(Sigma, "Sigma") if factor else None)


@given(seeds, st.floats(0.01, 10.0))
@settings(max_examples=15, deadline=None)
def test_interp_mix_endpoints_are_the_pure_interpolators(seed, level):
    s = _interp_sample(seed)
    np.testing.assert_array_equal(s.linear(0.0), s.min_norm)
    np.testing.assert_array_equal(s.linear(1.0), s.min_variance)
    # no noise gives ratio 0, no signal ratio 1
    np.testing.assert_array_equal(s.mix(_TERMS, 0.0, level), s.min_norm)
    np.testing.assert_array_equal(s.mix(_TERMS, level, 0.0), s.min_variance)


def test_interp_sample_without_a_covariance_has_no_min_variance_fit():
    s = _interp_sample(0, factor=False)
    assert s.min_norm.shape == (20,)
    with pytest.raises(DataValidationError, match="covariance factor"):
        s.min_variance
