"""Properties of the per-sample objects shared by ``mssl fit`` and the presets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssl import (
    DataValidationError,
    GlmPoolStats,
    GlmProblem,
    GlmSample,
    InterpRiskTerms,
    InterpSample,
    LabeledSet,
    OlsPoolModel,
    ResampleSpec,
    UnlabeledPool,
    build_moments,
    elu_link,
    identity_link,
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


def _ols_sample(X, Y, Z, grid=None) -> GlmSample:
    """The least-squares sample: ``GlmSample`` at the identity link with a built pass."""
    n = X.shape[0]
    moments = build_moments(UnlabeledPool(Z), n)
    model = OlsPoolModel(moments, ResampleSpec(30, 5), grid=grid)
    return GlmSample(LabeledSet(X - moments.mean, Y), moments, identity_link(), stats=model)


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
    model = OlsPoolModel(moments, ResampleSpec(30, 5))
    with pytest.raises(DataValidationError, match="n=60.*n=30"):
        GlmSample(data, moments, identity_link(), stats=model)


def test_glm_sample_rejects_moments_built_for_another_n():
    data, moments = _pool_moments_for_half_n()
    with pytest.raises(DataValidationError, match="n=60.*n=30"):
        GlmSample(data, moments, elu_link(), ResampleSpec(30, 5))


def test_ols_sample_without_a_grid_has_no_grid_ratio():
    X, Y, Z = _ols_draw(0)
    s = _ols_sample(X, Y, Z)
    assert s.alpha_grid is None
    assert _ols_sample(X, Y, Z, np.linspace(0.0, 1.0, 5)).alpha_grid in np.linspace(0, 1, 5)


def test_identity_link_sample_solves_no_newton_problem(monkeypatch):
    # least squares has closed forms: the sample builds no GlmProblem and
    # runs no Newton solve, for its fits, its noise estimate or its ratios
    import mssl.glm

    def no_newton(*args, **kwargs):
        raise AssertionError("Newton ran at the identity link")

    monkeypatch.setattr(mssl.glm, "GlmProblem", no_newton)
    monkeypatch.setattr(mssl.glm, "_newton", no_newton)
    X, Y, Z = _ols_draw(6)
    moments = build_moments(UnlabeledPool(Z), X.shape[0])
    s = GlmSample(LabeledSet(X - moments.mean, Y), moments, identity_link(),
                  ResampleSpec(30, 5), np.linspace(0.0, 1.0, 11))
    for fit in (s.loss(0.3), *s.loss_path([0.2, 0.7]), s.loss(s.alpha_hat), s.loss(s.alpha_grid)):
        assert np.all(np.isfinite(fit))
    assert s.sigma2_hat > 0 and s.tau2_hat >= 0 and s.nonconverged == 0
    assert "problem" not in vars(s)


def test_a_built_pass_is_shared_only_at_the_identity_link_and_its_own_moments():
    X, Y, Z = _ols_draw(7)
    n = X.shape[0]
    moments = build_moments(UnlabeledPool(Z), n)
    data = LabeledSet(X - moments.mean, Y)
    model = OlsPoolModel(moments, ResampleSpec(30, 5))
    assert GlmSample(data, moments, identity_link(), stats=model).stats is model
    elu_pass = GlmPoolStats(moments, elu_link(), np.ones(X.shape[1]), ResampleSpec(30, 5))
    refused = [
        (moments, elu_link(), {"stats": model}),
        (moments, identity_link(), {"stats": elu_pass}),
        (build_moments(UnlabeledPool(Z), n), identity_link(), {"stats": model}),
        (moments, identity_link(), {"stats": model, "spec": ResampleSpec(30, 5)}),
    ]
    for other_moments, link, kw in refused:
        with pytest.raises(DataValidationError, match="built pass"):
            GlmSample(data, other_moments, link, **kw)


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
        report = GlmProblem(s.data, s.moments.pool, s.link).fit(alpha, beta0=start)
        assert report.converged
        np.testing.assert_allclose(report.beta, pure, rtol=1e-8, atol=1e-10)


def test_glm_sample_builds_one_problem_for_all_its_fits(monkeypatch):
    import mssl.glm

    built, fits = [], []

    class Counted(GlmProblem):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

        def fit(self, alpha, beta0=None):
            fits.append(alpha)
            return super().fit(alpha, beta0)

    monkeypatch.setattr(mssl.glm, "GlmProblem", Counted)
    s = _glm_sample(4)
    s.loss(0.3)
    s.loss_path([0.6, 0.9])
    assert fits == [0.0, 1.0, 0.3, 0.6, 0.9]
    assert len(built) == 1 and type(s.problem) is Counted


def test_glm_sample_starts_both_pure_fits_from_one_least_squares_solve(monkeypatch):
    lstsq, calls = np.linalg.lstsq, []
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **kw: calls.append(a) or lstsq(*a, **kw))
    s = _glm_sample(5)
    assert len(calls) == 1
    monkeypatch.undo()
    # each pure fit equals the fit from its own least-squares start, bit for bit
    problem = GlmProblem(s.data, s.moments.pool, s.link)
    for alpha, fit in ((0.0, s.beta_hat), (1.0, s.beta_breve)):
        np.testing.assert_array_equal(problem.fit(alpha).beta, fit)


def test_glm_sample_builds_pool_stats_on_first_use():
    s = _glm_sample(1, spec=ResampleSpec(30, 2), alphas=np.linspace(0.0, 1.0, 11))
    assert "stats" not in vars(s)
    assert 0.0 <= s.alpha_hat <= 1.0
    assert s.alpha_grid in s.stats.alphas
    assert s.sigma2_hat > 0
    assert _glm_sample(1, spec=ResampleSpec(30, 2)).alpha_grid is None


# a risk-term set with v_l > v_u and b_u > b_l, as the mixing formula needs
_TERMS = InterpRiskTerms(b_l=1.0, v_l=2.0, b_u=3.0, v_u=0.5)


def _interp_draw(seed: int, n: int = 8, p: int = 20):
    """A wide labeled sample (X, Y) and the diagonal covariance of its rows."""
    rng = seeded_rng(seed)
    Sigma = np.diag(rng.uniform(0.2, 2.0, p))
    X = rng.standard_normal((n, p)) @ np.sqrt(Sigma)
    return X, X @ rng.standard_normal(p) + rng.standard_normal(n), Sigma


def _interp_sample(seed: int, n: int = 8, p: int = 20, factor=True) -> InterpSample:
    X, Y, Sigma = _interp_draw(seed, n, p)
    return InterpSample(LabeledSet(X, Y), spd_factor(Sigma, "Sigma") if factor else None)


@given(seeds, seeds)
@settings(max_examples=25, deadline=None)
def test_interp_sample_is_equivariant_under_linear_maps(seed, a_seed):
    # X -> XR with R orthogonal maps the minimum-norm fit to R^T min_norm; X -> XA
    # with Sigma -> A^T Sigma A maps the minimum-variance fit to A^{-1} min_variance
    X, Y, Sigma = _interp_draw(seed)
    A = _well_conditioned(a_seed, X.shape[1])
    R = np.linalg.qr(A)[0]
    s = InterpSample(LabeledSet(X, Y), spd_factor(Sigma, "Sigma"))
    rotated = InterpSample(LabeledSet(X @ R, Y))
    mapped = InterpSample(LabeledSet(X @ A, Y), spd_factor(A.T @ Sigma @ A, "Sigma"))
    np.testing.assert_allclose(rotated.min_norm, R.T @ s.min_norm, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(mapped.min_variance, np.linalg.solve(A, s.min_variance),
                               rtol=1e-8, atol=1e-10)


@given(seeds, st.floats(0.01, 10.0))
@settings(max_examples=15, deadline=None)
def test_interp_mix_endpoints_are_the_pure_interpolators(seed, level):
    s = _interp_sample(seed)
    np.testing.assert_array_equal(s.linear(0.0), s.min_norm)
    np.testing.assert_array_equal(s.linear(1.0), s.min_variance)
    # no noise gives ratio 0, no signal ratio 1
    np.testing.assert_array_equal(s.linear(_TERMS.risk(0.0, level).ratio), s.min_norm)
    np.testing.assert_array_equal(s.linear(_TERMS.risk(level, 0.0).ratio), s.min_variance)


def test_interp_sample_without_a_covariance_has_no_min_variance_fit():
    s = _interp_sample(0, factor=False)
    assert s.min_norm.shape == (20,)
    with pytest.raises(DataValidationError, match="covariance factor"):
        s.min_variance
