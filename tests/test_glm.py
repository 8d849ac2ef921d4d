import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from mssl import (
    DataValidationError,
    GlmPoolStats,
    GlmProblem,
    LabeledSet,
    LinkValidationError,
    MixRisk,
    OlsPoolModel,
    ResampleBudgetError,
    ResampleSpec,
    SingularMatrixError,
    UnlabeledPool,
    build_moments,
    center_pool,
    custom_link,
    elu_link,
    estimate_noise_glm,
    fit_loss_mixed_ols,
    fit_ols_semisupervised,
    fit_ols_supervised,
    identity_link,
    seeded_rng,
)


def _random_instance(seed, n=20, p=3, m=400, link=None, sigma=1.0, beta=None):
    rng = seeded_rng(seed)
    link = link or elu_link()
    X = rng.standard_normal((n, p))
    beta = np.ones(p) if beta is None else beta
    Y = link.g(X @ beta) + sigma * rng.standard_normal(n)
    pool = build_moments(UnlabeledPool(rng.standard_normal((m, p))), n).pool
    return LabeledSet(X, Y), pool


# -- fits -----------------------------------------------------------------------


def test_supervised_identity_reduces_to_ols():
    ds, _ = _random_instance(1, link=identity_link())
    rpt = GlmProblem(ds, None, identity_link()).fit(0.0)
    assert rpt.converged
    np.testing.assert_allclose(rpt.beta, fit_ols_supervised(ds), atol=1e-9)


def test_supervised_identity_tiny():
    ds = LabeledSet(np.eye(2), [1.0, 2.0])
    rpt = GlmProblem(ds, None, identity_link()).fit(0.0)
    np.testing.assert_allclose(rpt.beta, [1.0, 2.0], atol=1e-10)


def test_supervised_elu_scalar_stationarity():
    # one observation, linear branch: g(beta) = y has the root beta = 2
    ds = LabeledSet([[1.0]], [2.0])
    rpt = GlmProblem(ds, None, elu_link()).fit(0.0)
    assert rpt.converged
    assert rpt.beta[0] == pytest.approx(2.0, abs=1e-8)


def test_supervised_recovers_noiseless_beta():
    rng = seeded_rng(2)
    X = rng.standard_normal((40, 3))
    beta0 = np.array([0.5, -0.25, 1.0])
    ds = LabeledSet(X, elu_link().g(X @ beta0))
    rpt = GlmProblem(ds, None, elu_link()).fit(0.0)
    assert rpt.converged
    np.testing.assert_allclose(rpt.beta, beta0, atol=1e-6)


def test_supervised_gradient_small_at_solution():
    ds, pool = _random_instance(3)
    rpt = GlmProblem(ds, None, elu_link()).fit(0.0)
    g = GlmProblem(ds, None, elu_link()).grad(rpt.beta, 0.0)
    bound = 1e-8 * (1.0 + np.linalg.norm(ds.X.T @ ds.Y) / ds.n)
    assert np.linalg.norm(g) < bound


def test_semisupervised_identity_reduces_to_ols():
    ds, pool = _random_instance(4, link=identity_link())
    mom = build_moments(pool, ds.n)
    rpt = GlmProblem(ds, pool, identity_link()).fit(1.0)
    assert rpt.converged
    np.testing.assert_allclose(rpt.beta, fit_ols_semisupervised(ds, mom), atol=1e-9)


def test_semisupervised_constant_response_symmetric_pool():
    # constant Y kills the covariance term; on a sign-symmetric pool the
    # ELU pool loss is minimized at zero
    rng = seeded_rng(5)
    half = rng.standard_normal((200, 2))
    pool = UnlabeledPool(np.vstack([half, -half]), centered=True)
    ds = LabeledSet(rng.standard_normal((10, 2)), np.full(10, 3.0))
    rpt = GlmProblem(ds, pool, elu_link()).fit(1.0)
    assert rpt.converged
    np.testing.assert_allclose(rpt.beta, np.zeros(2), atol=1e-7)


def test_semisupervised_centers_an_uncentered_pool_without_pool_moments(monkeypatch):
    # GlmProblem needs only the centered pool, not Exx and its eigenvalues
    import mssl.core
    import mssl.glm

    assert not hasattr(mssl.glm, "build_moments")  # else the patch below would not reach it

    rng = seeded_rng(5)
    raw = UnlabeledPool(rng.standard_normal((500, 3)) + 0.7)
    ds = LabeledSet(rng.standard_normal((30, 3)), rng.standard_normal(30))
    want = GlmProblem(ds, build_moments(raw, ds.n).pool, elu_link()).fit(1.0).beta

    def no_moments(*args, **kwargs):
        raise AssertionError("pool moments were computed to center the pool")

    monkeypatch.setattr(mssl.core, "build_moments", no_moments)
    np.testing.assert_array_equal(GlmProblem(ds, raw, elu_link()).fit(1.0).beta, want)
    np.testing.assert_array_equal(center_pool(raw)[0].Z, build_moments(raw, ds.n).pool.Z)


def test_semisupervised_is_the_minimizer():
    ds, pool = _random_instance(6)
    prob = GlmProblem(ds, pool, elu_link())
    rpt = GlmProblem(ds, pool, elu_link()).fit(1.0)
    sup = GlmProblem(ds, None, elu_link()).fit(0.0)
    assert prob.value(rpt.beta, 1.0) <= prob.value(sup.beta, 1.0) + 1e-12


def test_supervised_fit_never_reads_the_pool(monkeypatch):
    # alpha = 0 skips the pool side, so a problem with a pool fits exactly as
    # one without
    ds, pool = _random_instance(7)

    def no_pool(self, beta):
        raise AssertionError("the supervised fit read the pool")

    monkeypatch.setattr(GlmProblem, "_pool_eta", no_pool)
    with_pool = GlmProblem(ds, pool, elu_link()).fit(0.0)
    without = GlmProblem(ds, None, elu_link()).fit(0.0)
    np.testing.assert_array_equal(with_pool.beta, without.beta)
    assert (with_pool.iterations, with_pool.converged) == (without.iterations, without.converged)


def test_mixed_endpoints():
    # the endpoints skip one side of the blend; the fits there are still the
    # limits of the interior fits
    ds, pool = _random_instance(7)
    prob = GlmProblem(ds, pool, elu_link())
    for end, inner in ((0.0, 1e-10), (1.0, 1.0 - 1e-10)):
        np.testing.assert_allclose(prob.fit(end).beta, prob.fit(inner).beta, atol=1e-8)


def test_mixed_identity_matches_closed_form():
    ds, pool = _random_instance(8, link=identity_link())
    mom = build_moments(pool, ds.n)
    for alpha in (0.25, 0.5, 0.9):
        rpt = GlmProblem(ds, pool, identity_link()).fit(alpha)
        np.testing.assert_allclose(
            rpt.beta, fit_loss_mixed_ols(ds, mom, alpha), atol=1e-8
        )


def test_mixed_alpha_out_of_range():
    ds, pool = _random_instance(9)
    with pytest.raises(DataValidationError):
        GlmProblem(ds, pool, elu_link()).fit(-0.1)


def test_mixed_matches_numeric_minimizer_elu():
    ds, pool = _random_instance(10, n=12, p=2, m=200)
    prob = GlmProblem(ds, pool, elu_link())
    alpha = 0.4
    rpt = GlmProblem(ds, pool, elu_link()).fit(alpha)
    res = minimize(
        lambda b: prob.value(b, alpha),
        x0=np.zeros(2),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 20000},
    )
    np.testing.assert_allclose(rpt.beta, res.x, atol=1e-6)


def test_fits_are_deterministic():
    ds, pool = _random_instance(11)
    a = GlmProblem(ds, pool, elu_link()).fit(0.3)
    b = GlmProblem(ds, pool, elu_link()).fit(0.3)
    assert np.array_equal(a.beta, b.beta)
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert a.converged


_column_scales = st.one_of(
    st.floats(-6.0, 6.0).map(lambda e: np.full(5, 10.0**e)),  # uniform
    st.lists(st.floats(-6.0, 6.0), min_size=5, max_size=5).map(lambda e: 10.0 ** np.array(e)),
)


@given(st.integers(0, 2**16), _column_scales)
@example(0, np.full(5, 1e-6))
@example(0, np.full(5, 1e6))
@example(0, 10.0 ** np.array([0.0, 0.0, 0.0, 3.0, -3.0]))
@settings(max_examples=30, deadline=None)
def test_fits_converge_and_are_equivariant_under_column_scales(seed, s):
    # X -> X diag(s) and Z -> Z diag(s) map each fit beta to beta / s: the
    # decrement stop rule, the diagonal ridge and the check of the Hessian
    # scaled to a unit diagonal do not see the scale
    ds, pool = _random_instance(seed, n=60, p=5, m=4000)
    scaled = GlmProblem(LabeledSet(ds.X * s, ds.Y), UnlabeledPool(pool.Z * s, centered=True),
                        elu_link())
    for alpha in (0.0, 1.0):
        ref = GlmProblem(ds, pool, elu_link()).fit(alpha)
        rpt = scaled.fit(alpha)
        assert ref.converged and rpt.converged
        gap = np.linalg.norm(rpt.beta * s - ref.beta)
        assert gap <= 1e-12 * np.linalg.norm(ref.beta)


# -- gradient checks ---------------------------------------------------------


def _central_diff(f, beta, h=1e-6):
    g = np.zeros_like(beta)
    for i in range(beta.size):
        e = np.zeros_like(beta)
        e[i] = h
        g[i] = (f(beta + e) - f(beta - e)) / (2 * h)
    return g


@pytest.mark.parametrize("which", ["sup", "semi", "mixed"])
def test_gradients_match_finite_differences(which):
    alpha = {"sup": 0.0, "semi": 1.0, "mixed": 0.35}[which]
    ds, pool = _random_instance(12, n=15, p=4, m=300)
    prob = GlmProblem(ds, pool, elu_link())
    rng = seeded_rng(13)
    for _ in range(5):
        beta = rng.standard_normal(4)
        g = prob.grad(beta, alpha)
        fd = _central_diff(lambda b: prob.value(b, alpha), beta)
        assert np.max(np.abs(fd - g)) / (1.0 + np.max(np.abs(fd))) < 1e-5


# -- risk terms ----------------------------------------------------------------


def test_identity_link_collapses_v_terms():
    # v_s = v_u = (n - 1) p / n^2, the noise trace p and the noise
    # denominator n - p hold exactly, not to Monte Carlo error
    rng = seeded_rng(14)
    n, p = 25, 3
    pool = UnlabeledPool(rng.standard_normal((2000, p)))
    q = GlmPoolStats(build_moments(pool, n), identity_link(), np.ones(p), ResampleSpec(80, 1))
    assert q.v_u == q.v_s == (n - 1) * p / n**2
    assert q.se_v_s == 0.0
    assert q.trace_sigma == p
    assert q.sigma2_denominator() == n - p


def test_ols_pool_model_is_the_identity_link_pass():
    rng = seeded_rng(15)
    n, p = 25, 3
    moments = build_moments(UnlabeledPool(rng.standard_normal((2000, p)) + 0.5), n)
    spec, grid, beta = ResampleSpec(80, 2), np.linspace(0.0, 1.0, 11), rng.standard_normal(p)
    ols = OlsPoolModel(moments, spec, grid=grid)
    glm = GlmPoolStats(moments, identity_link(), None, spec, grid)
    for name in ("v_l", "se_v_l", "v_u", "v_s", "se_v_s", "trace_sigma", "b_u_hat",
                 "n_skipped", "n_blocks"):
        assert getattr(ols, name) == getattr(glm, name), name
    for a, b in ((ols._bias, glm._bias), (ols.ddot._Q, glm.ddot._Q), (ols.ddot._V, glm.ddot._V)):
        assert a.tobytes() == b.tobytes()
    assert ols.bias_at(beta) == glm.bias_at(beta)
    with pytest.raises(DataValidationError, match="beta_eval"):
        glm.B_hat


def test_identity_link_sample_matches_the_least_squares_sample():
    # the sample's closed-form fits at the identity link are the minimizers
    # Newton finds for the same blended loss
    from mssl import GlmSample

    rng = seeded_rng(15)
    n, p = 40, 4
    data, pool = _random_instance(15, n=n, p=p, m=3000, link=identity_link(), sigma=2.0,
                                  beta=0.3 * rng.standard_normal(p))
    moments = build_moments(pool, n)
    data = LabeledSet(data.X - moments.mean, data.Y)
    spec, grid = ResampleSpec(80, 2), np.linspace(0.0, 1.0, 11)
    s = GlmSample(data, moments, identity_link(), spec, grid)
    problem = GlmProblem(data, moments.pool, identity_link())
    for alpha, closed in ((0.0, s.beta_hat), (0.4, s.loss(0.4)), (1.0, s.beta_breve)):
        report = problem.fit(alpha)
        assert report.converged
        np.testing.assert_allclose(report.beta, closed, rtol=1e-10, atol=1e-10)
    # the pass at beta_breve reads its forms there, as the sample's ratios do
    stats = s.stats
    assert s.B_hat == stats.B_hat
    assert s.alpha_hat == stats.risk(s.sigma2_hat).ratio
    assert s.alpha_grid == stats.argmin_alpha(s.sigma2_hat)
    # ... and a sample given the shared least-squares pass gets the same numbers
    shared = GlmSample(data, moments, identity_link(), stats=OlsPoolModel(moments, spec, grid=grid))
    for name in ("beta_hat", "beta_breve", "sigma2_hat", "tau2_hat", "B_hat", "alpha_hat",
                 "alpha_grid"):
        np.testing.assert_array_equal(getattr(shared, name), getattr(s, name), err_msg=name)


def test_elu_at_zero_matches_identity_terms():
    # g'(0) = 1, so the local weights are unit at beta_eval = 0
    rng = seeded_rng(16)
    n, p = 25, 3
    pool = UnlabeledPool(rng.standard_normal((2000, p)))
    spec = ResampleSpec(60, 3)
    q_elu = GlmPoolStats(build_moments(pool, n), elu_link(), np.zeros(p), spec)
    q_id = GlmPoolStats(build_moments(pool, n), identity_link(), np.zeros(p), spec)
    assert q_elu.v_l == pytest.approx(q_id.v_l, rel=1e-10)
    assert q_elu.v_s == pytest.approx(q_id.v_s, rel=1e-10)
    np.testing.assert_allclose(q_elu.Hg, q_id.Hg, rtol=1e-10)


def test_pool_stats_need_beta_eval_away_from_the_identity_link():
    pool = UnlabeledPool(seeded_rng(17).standard_normal((200, 2)))
    with pytest.raises(DataValidationError, match="beta_eval"):
        GlmPoolStats(build_moments(pool, 10), elu_link(), None, ResampleSpec(10, 0))


def test_pool_stats_forms_away_from_the_identity_link_are_read_at_beta_eval_only():
    # the ELU pass keeps 1 x 1 forms at beta_eval: a plug-in beta there reads
    # them, any other beta is refused (it used to fail inside numpy's matmul)
    rng = seeded_rng(17)
    pool = UnlabeledPool(rng.standard_normal((400, 3)))
    beta_eval = np.array([0.5, -0.2, 0.1])
    stats = GlmPoolStats(build_moments(pool, 20), elu_link(), beta_eval, ResampleSpec(20, 0),
                         np.linspace(0.0, 1.0, 5))
    assert stats.bias_at(beta_eval.copy()) == stats.B_hat
    np.testing.assert_array_equal(stats.ddot_curve(1.0, beta_eval.copy()), stats.ddot_curve(1.0))
    for beta in (np.ones(3), np.ones(1), beta_eval[:2]):
        for read in (stats.bias_at, lambda b: stats.ddot_curve(1.0, b),
                     lambda b: stats.argmin_alpha(1.0, b)):
            with pytest.raises(DataValidationError, match="beta_eval only"):
                read(beta)


def test_nonpositive_gprime_rejected():
    rng = seeded_rng(17)
    pool = UnlabeledPool(rng.standard_normal((200, 2)))
    dead = custom_link(
        g=lambda z: np.maximum(z, 0.0),
        gprime=lambda z: (np.asarray(z) > 0).astype(float),
        G=lambda z: 0.5 * np.maximum(z, 0.0) ** 2,
    )
    with pytest.raises(LinkValidationError):
        GlmPoolStats(build_moments(pool, 20), dead, np.ones(2), ResampleSpec(10, 0))


# -- noise estimation -----------------------------------------------------------


def test_noise_identity_matches_ols_form():
    ds, pool = _random_instance(18, n=30, p=4, m=3000, link=identity_link(), sigma=2.0)
    beta_hat = fit_ols_supervised(ds)
    beta_breve = fit_ols_semisupervised(ds, build_moments(pool, ds.n))
    spec = ResampleSpec(400, 4)
    stats = GlmPoolStats(build_moments(pool, ds.n), identity_link(), beta_breve, spec)
    sigma2 = estimate_noise_glm(ds, beta_hat, identity_link(), stats)
    resid = ds.Y - ds.X @ beta_hat
    direct = float(resid @ resid) / (ds.n - ds.p)
    # the identity link's noise trace is p exactly, so the denominator is n - p
    assert sigma2 == direct


def test_noise_zero_for_noiseless_data():
    rng = seeded_rng(19)
    X = rng.standard_normal((30, 3))
    beta0 = np.array([1.0, 0.5, -0.5])
    ds = LabeledSet(X, elu_link().g(X @ beta0))
    pool = UnlabeledPool(rng.standard_normal((1000, 3)))
    beta_hat = GlmProblem(ds, None, elu_link()).fit(0.0).beta
    stats = GlmPoolStats(build_moments(pool, 30), elu_link(), beta_hat, ResampleSpec(50, 5))
    sigma2 = estimate_noise_glm(ds, beta_hat, elu_link(), stats)
    assert sigma2 <= 1e-10


def test_noise_rejects_pool_stats_built_for_another_n():
    ds, pool = _random_instance(20, n=60, p=3, m=2000)
    beta_hat = GlmProblem(ds, None, elu_link()).fit(0.0).beta
    stats = GlmPoolStats(build_moments(pool, 30), elu_link(), beta_hat, ResampleSpec(30, 6))
    with pytest.raises(DataValidationError, match="n=60.*n=30"):
        estimate_noise_glm(ds, beta_hat, elu_link(), stats)


# -- mixing formulas --------------------------------------------------------------


def test_alpha_dot_zero_noise():
    assert MixRisk.from_factors(0.0, 1.0, 2.0, 1.0, 1.0).ratio == 0.0


def test_alpha_dot_collapse_to_one():
    assert MixRisk.from_factors(3.0, 0.0, 2.0, 1.0, 1.0).ratio == pytest.approx(1.0)


def test_alpha_dot_plugin_example():
    assert MixRisk.from_factors(1.0, 1.0, 2.0, 1.0, 1.0).ratio == pytest.approx(0.5)


def test_alpha_dot_requires_positive_curvature():
    # v_l + v_u - 2 v_s < 0 with exact terms: the gain is negative beyond noise
    with pytest.raises(DataValidationError):
        MixRisk.from_factors(1.0, 1.0, 1.0, 1.0, 1.5).ratio


def test_alpha_dot_can_leave_unit_interval_and_clip_maps_it_back():
    # gain -0.5 within 3 SEs of v_l: the raw ratio is -0.25 and the ratio 0
    risk = MixRisk.from_factors(1.0, 1.0, 1.0, 3.0, 1.5, se_v_l=0.2)
    assert risk.raw == pytest.approx(-0.25)
    assert risk.ratio == 0.0
    # cost -0.3 within 3 SEs of v_s: the raw ratio is 1.3 and the ratio 1
    risk = MixRisk.from_factors(1.0, 0.0, 2.3, 0.7, 1.0, se_v_s=0.2)
    assert risk.raw == pytest.approx(1.3)
    assert risk.ratio == 1.0
    assert MixRisk.from_factors(1.0, 0.6, 1.4, 1.0, 1.0).ratio == pytest.approx(0.4)


def test_glm_negative_gain_beyond_noise_raises():
    # a raw ratio of -0.25 with positive curvature used to be clipped to 0
    with pytest.raises(DataValidationError, match="gain"):
        MixRisk.from_factors(1.0, 1.0, 1.0, 3.0, 1.5, se_v_l=0.1).ratio


def test_glm_nonpositive_curvature_within_noise_is_clipped():
    # v_l + v_u - 2 v_s = -0.3 used to raise; the cost -0.5 lies within 3 SEs of v_s
    risk = MixRisk.from_factors(1.0, 0.0, 1.2, 0.5, 1.0, se_v_s=0.2)
    assert risk.gain + risk.cost < 0.0
    assert risk.ratio == 1.0


def test_glm_flat_case_is_zero():
    # no noise and no bias used to raise ("nonpositive denominator")
    assert MixRisk.from_factors(0.0, 0.0, 2.0, 1.0, 1.0).ratio == 0.0


def test_curve_endpoints_and_minimum_identity():
    sigma2, B, v_l, v_u, v_s = 2.0, 1.5, 3.0, 1.0, 0.8
    risk = MixRisk.from_factors(sigma2, B, v_l, v_u, v_s)
    assert risk.curve(0.0) == pytest.approx(sigma2 * v_l)
    assert risk.curve(1.0) == pytest.approx(B + sigma2 * v_u)
    alpha, r_min = risk.ratio, risk.minimum
    assert abs(risk.curve(alpha) - r_min) < 1e-12
    # interior minimum beats the endpoints
    assert r_min <= risk.curve(0.0)
    assert r_min <= risk.curve(1.0)


# -- loss-mixed grid search --------------------------------------------------------


def test_glm_grid_zero_bias_degenerate():
    # identity link at beta_eval = 0 has zero bias: variance dominates and
    # the argmin sits at the semi-supervised end of the grid
    rng = seeded_rng(20)
    pool = UnlabeledPool(rng.standard_normal((3000, 3)))
    stats = GlmPoolStats(
        build_moments(pool, 25), identity_link(), np.zeros(3), ResampleSpec(80, 6),
        alphas=np.linspace(0, 1, 11),
    )
    # pure-variance curve: worst at the supervised end, argmin interior or 1
    assert stats.argmin_alpha(1.0) >= 0.5
    curve = stats.ddot_curve(1.0)
    assert curve[0] == max(curve)


def test_glm_grid_noiseless_prefers_supervised():
    rng = seeded_rng(21)
    pool = UnlabeledPool(rng.standard_normal((3000, 3)))
    stats = GlmPoolStats(
        build_moments(pool, 25), elu_link(), np.ones(3), ResampleSpec(80, 7),
        alphas=np.linspace(0, 1, 11),
    )
    assert stats.argmin_alpha(0.0) == 0.0


def test_noise_estimate_at_large_signal_documented_bias():
    # at the strong-signal experiment instance (beta = 2*1_p, block
    # covariance) the local-quadratic analysis behind the denominator is
    # only approximate: the estimator runs ~3% low at n=50.  Pin that the
    # deviation stays within 5% so regressions are visible.
    from mssl.simulate import CovarianceSpec, gen_sigma
    import math

    link = elu_link()
    n, p, sigma2 = 50, 10, 4.0
    Sigma = gen_sigma(CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9))
    chol = np.linalg.cholesky(Sigma)
    beta_true = np.full(p, 2.0)
    vals = []
    for k in range(400):
        r = seeded_rng(777, k)
        Z = r.standard_normal((2000, p)) @ chol.T
        X = r.standard_normal((n, p)) @ chol.T
        Y = link.g(X @ beta_true) + math.sqrt(sigma2) * r.standard_normal(n)
        data = LabeledSet(X, Y)
        moments = build_moments(UnlabeledPool(Z), n)
        prob = GlmProblem(data, moments.pool, link)
        bh = prob.fit(0.0).beta
        bb = prob.fit(1.0).beta
        stats = GlmPoolStats(moments, link, bb, ResampleSpec(40, 1000 + k))
        resid = link.g(X @ bh) - data.Y
        vals.append(float(resid @ resid) / stats.sigma2_denominator())
    mean = float(np.mean(vals))
    assert abs(mean - sigma2) / sigma2 < 0.05


def test_curvature_condition_on_elu_pool():
    # v_l + v_u - 2 v_s stays positive on resampled ELU pools (the quadratic
    # in the mixing ratio is strictly convex)
    rng = seeded_rng(23)
    n, p = 50, 10
    pool = UnlabeledPool(rng.standard_normal((4000, p)))
    q = GlmPoolStats(build_moments(pool, n), elu_link(), np.full(p, 2.0), ResampleSpec(150, 9))
    assert q.v_l + q.v_u - 2 * q.v_s > 0
    assert q.v_l > q.v_u


def _glm_curve_per_ratio_reference(stats, moments, spec, sigma2):
    """Loss-mixed GLM risk curve by factoring the blend once per ratio and block."""
    from scipy.linalg import cho_factor, cho_solve

    from mssl import resample_block
    from mssl.glm import _xi

    n, alphas, beta = stats.n, stats.alphas, stats.beta_eval
    exmu = _exmu(stats)
    rows = []
    for i in range(spec.replications):
        Xb = resample_block(moments, spec, i)
        F = (Xb * stats.link.gprime(Xb @ beta)[:, None]).T @ Xb
        G = Xb.T @ Xb
        mu = stats.link.g(Xb @ beta)
        zeta = exmu - (Xb.T @ mu - n * Xb.mean(axis=0) * mu.mean())
        bias = np.empty(alphas.size)
        var = np.empty(alphas.size)
        for j, a in enumerate(alphas):
            factor = cho_factor(a * stats.Hg + (1.0 - a) * F, lower=True)
            Sz = cho_solve(factor, zeta)
            bias[j] = Sz @ stats.Hg @ Sz
            var[j] = np.trace(cho_solve(factor, stats.Hg) @ cho_solve(factor, G))
        rows.append(alphas**2 * bias + _xi(alphas, n) * sigma2 * var)
    return np.mean(rows, axis=0) / n


def _exmu(stats):
    """n E_X[X^T g(X beta_eval)] over the pool of the stats' moments."""
    Z = stats.moments.pool.Z
    return stats.n * (Z.T @ stats.link.g(Z @ stats.beta_eval)) / Z.shape[0]


def test_pool_stats_curve_matches_per_ratio_factorization():
    rng = seeded_rng(32)
    n, p = 40, 6
    moments = build_moments(UnlabeledPool(rng.standard_normal((3000, p)) + 0.5), n)
    spec = ResampleSpec(5, 3)
    stats = GlmPoolStats(moments, elu_link(), np.full(p, 0.7), spec,
                         alphas=np.round(np.linspace(0.0, 1.0, 21), 10))
    r_ref = _glm_curve_per_ratio_reference(stats, moments, spec, 2.5)
    np.testing.assert_allclose(stats.ddot_curve(2.5), r_ref, rtol=1e-10)


def test_pool_stats_curve_supervised_endpoint():
    # at alpha = 0 the curve is sigma^2 times the supervised variance factor
    rng = seeded_rng(33)
    n, p = 50, 5
    pool = UnlabeledPool(rng.standard_normal((4000, p)))
    stats = GlmPoolStats(build_moments(pool, n), elu_link(), np.full(p, 1.5),
                         ResampleSpec(30, 4), alphas=np.linspace(0.0, 1.0, 11))
    s2 = 3.0
    assert stats.ddot_curve(s2)[0] == pytest.approx(s2 * stats.v_l, rel=1e-10)


@given(
    st.integers(2, 5),
    st.integers(4, 20),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_pool_stats_curve_finite_and_positive(p, extra_n, sigma2, seed):
    rng = seeded_rng(seed)
    n = p + extra_n
    mix = np.eye(p) + 0.4 * rng.standard_normal((p, p))
    pool = UnlabeledPool(rng.standard_normal((60 * n, p)) @ mix.T)
    stats = GlmPoolStats(build_moments(pool, n), elu_link(), 0.5 * rng.standard_normal(p),
                         ResampleSpec(8, seed % 1000), alphas=np.linspace(0, 1, 6))
    r_hat = stats.ddot_curve(sigma2)
    assert np.all(np.isfinite(r_hat))
    assert np.all(r_hat > 0)


def _line_pool(rng, m, generic):
    """Pool rows on a line through the origin, but for ``generic`` Gaussian rows
    (a block of 4 is singular unless it draws a generic row)."""
    Z = np.outer(rng.standard_normal(m), [1.0, 2.0, -1.0])
    Z[:generic] = rng.standard_normal((generic, 3))
    return UnlabeledPool(Z)


def test_pool_stats_mostly_singular_blocks_exhaust_the_budget():
    pool = _line_pool(seeded_rng(5), 200, 8)
    with pytest.raises(ResampleBudgetError):
        GlmPoolStats(build_moments(pool, 4), identity_link(), np.zeros(3), ResampleSpec(40, 0))


def test_pool_stats_count_skipped_blocks_like_the_ols_model():
    # under the identity link F = X^T X, so both passes skip the same blocks
    pool = _line_pool(seeded_rng(5), 200, 110)
    spec = ResampleSpec(100, 1)
    stats = GlmPoolStats(build_moments(pool, 4), identity_link(), np.zeros(3), spec,
                         alphas=np.linspace(0, 1, 5))
    assert stats.n_skipped == OlsPoolModel(build_moments(pool, 4), spec).n_skipped == 5
    assert stats.n_blocks == 95


# -- the stacked block pass -----------------------------------------------------


def _glm_per_block_reference(stats, moments, spec):
    """Per-block v_l, v_s, noise trace, c vectors and pencil curves, by the
    one-block-at-a-time formulas."""
    from mssl import resample_block
    from scipy.linalg import solve_triangular

    from mssl._blas import cho_solve
    from mssl.core import spd_factor

    n, link, beta, alphas = stats.n, stats.link, stats.beta_eval, stats.alphas
    exmu = _exmu(stats)
    Lg = np.linalg.cholesky(stats.Hg)
    Lg_inv = solve_triangular(Lg, np.eye(stats.p), lower=True)
    terms, cs, bias, var = [], [], [], []
    for i in range(spec.replications):
        Xb = resample_block(moments, spec, i)
        d = link.gprime(Xb @ beta)
        F = (Xb * d[:, None]).T @ Xb
        factor = spd_factor(F, "F")
        G = Xb.T @ Xb
        FiG = cho_solve(factor, G)
        FiG2 = cho_solve(factor, (Xb * (d**2)[:, None]).T @ Xb)
        terms.append((
            np.einsum("ij,ji->", FiG, cho_solve(factor, stats.Hg)),
            (n - 1) / n * np.trace(FiG),
            np.einsum("ij,ji->", FiG, FiG2),
        ))
        mu = link.g(Xb @ beta)
        c = Xb.T @ mu - n * Xb.mean(axis=0) * mu.mean()
        cs.append(c)
        mu_k, U = np.linalg.eigh(Lg_inv @ F @ Lg_inv.T)
        R = Lg_inv.T @ U
        inv_d2 = 1.0 / (alphas[:, None] + (1.0 - alphas)[:, None] * mu_k) ** 2
        w = R.T @ (exmu - c)
        bias.append(inv_d2 @ (w * w))
        var.append(inv_d2 @ np.sum(R * (G @ R), axis=0))
    return np.array(terms), np.array(cs), np.array(bias), np.array(var), Lg


def test_pool_stats_match_the_per_block_formulas():
    rng = seeded_rng(34)
    n, p = 40, 6
    mix = np.eye(p) + 0.3 * rng.standard_normal((p, p))
    moments = build_moments(UnlabeledPool(rng.standard_normal((3000, p)) @ mix.T), n)
    spec = ResampleSpec(30, 5)
    stats = GlmPoolStats(moments, elu_link(), 0.4 * rng.standard_normal(p), spec,
                         alphas=np.round(np.linspace(0.0, 1.0, 21), 10))
    terms, C, bias, var, Lg = _glm_per_block_reference(stats, moments, spec)
    terms[:, :2] /= n  # v_l and v_s on the per-sample scale
    mean = terms.mean(axis=0)
    se = terms.std(axis=0, ddof=1) / np.sqrt(terms.shape[0])
    got = [stats.v_l, stats.v_s, stats.trace_sigma]
    np.testing.assert_allclose(got, mean, rtol=1e-12)
    np.testing.assert_allclose([stats.se_v_l, stats.se_v_s], se[:2], rtol=1e-12)
    U = np.linalg.solve(Lg, (C - C.mean(axis=0)).T).T
    assert stats.B_hat == pytest.approx(np.sum(U * U) / (C.shape[0] - 1) / n, rel=1e-12)
    np.testing.assert_allclose(stats.ddot._Q[:, 0, 0], stats.alphas**2 * bias.mean(axis=0),
                               rtol=1e-12)
    np.testing.assert_allclose(stats.ddot._V, var.mean(axis=0), rtol=1e-12)


def _pool_stats_numbers(pool, n, link, beta, spec, alphas):
    stats = GlmPoolStats(build_moments(pool, n), link, beta, spec, alphas=alphas)
    numbers = [stats.v_l, stats.se_v_l, stats.v_s, stats.se_v_s, stats.B_hat,
               stats.trace_sigma, stats.b_u_hat, *stats.ddot._Q.ravel(), *stats.ddot._V]
    return stats.n_skipped, np.array(numbers)


@pytest.mark.parametrize("link", [identity_link(), elu_link()], ids=["identity", "elu"])
def test_pool_stats_do_not_depend_on_the_chunking(link, monkeypatch):
    import mssl.core

    rng = seeded_rng(35)
    n, p = 30, 5
    pool = UnlabeledPool(rng.standard_normal((3000, p)) + 0.3)
    args = (pool, n, link, np.full(p, 0.6), ResampleSpec(25, 6), np.linspace(0, 1, 7))
    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", 1)  # one block per chunk
    _, one = _pool_stats_numbers(*args)
    monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", 1 << 30)  # every block in one chunk
    _, all_ = _pool_stats_numbers(*args)
    np.testing.assert_allclose(one, all_, rtol=1e-13)


def test_pool_stats_skip_singular_blocks_inside_a_chunk(monkeypatch):
    import mssl.core
    import mssl.glm

    pool = _line_pool(seeded_rng(5), 200, 110)
    args = (pool, 4, identity_link(), np.zeros(3), ResampleSpec(100, 1), np.linspace(0, 1, 5))
    # The pool-level Grams are summed in row chunks of the same byte budget, and
    # the near-singular blocks here amplify their roundoff past 1e-13; compute
    # them one way in both runs, so that only the chunking of the blocks differs.
    monkeypatch.setattr(mssl.glm, "_weighted_gram",
                        lambda Z, s: (Z * s[:, None]).T @ (Z * s[:, None]))
    runs = []
    for budget in (1, 1 << 30):  # one block per chunk, then every block in one chunk
        monkeypatch.setattr(mssl.core, "_CHUNK_BYTES", budget)
        runs.append(_pool_stats_numbers(*args))
    assert runs[0][0] == runs[1][0] == 5
    np.testing.assert_allclose(runs[0][1], runs[1][1], rtol=1e-13,
                               atol=1e-13 * np.abs(runs[1][1]).max())


def test_singular_pool_hessian_is_a_singular_matrix_error():
    from mssl import SingularMatrixError

    rng = seeded_rng(36)
    Z = rng.standard_normal((500, 3))
    Z[:, 2] = Z[:, 1]  # H_g = n Z^T D Z / m has rank 2
    with pytest.raises(SingularMatrixError, match="H_g"):
        GlmPoolStats(build_moments(UnlabeledPool(Z), 20), elu_link(), np.zeros(3),
                     ResampleSpec(10, 0))



# -- Newton on the pool ---------------------------------------------------------


def test_semisupervised_fit_rejects_a_decreasing_link_on_the_pool():
    # g = sin decreases where |eta| > pi / 2, so the pool loss is not convex there
    data, pool = _random_instance(37, m=400)
    wide = UnlabeledPool(3.0 * pool.Z, centered=True)
    sine = custom_link(g=np.sin, gprime=np.cos, G=lambda z: -np.cos(z))
    with pytest.raises(LinkValidationError, match="negative"):
        GlmProblem(data, wide, sine).fit(1.0)


def _exp_instance():
    # an exponential link from a wide labeled design: the first Newton steps
    # overshoot, so the line search rejects trial points
    rng = seeded_rng(1)
    X = 4.0 * rng.standard_normal((40, 3))
    Y = np.exp(0.2 * X.sum(axis=1)) + 0.3 * rng.standard_normal(40)
    return LabeledSet(X, Y), build_moments(UnlabeledPool(rng.standard_normal((400, 3))), 40).pool


def test_newton_takes_one_pool_product_per_iterate():
    from mssl.glm import _newton

    data, pool = _exp_instance()
    Z, m = pool.Z, pool.m
    calls = []  # (function, argument) for every call on a pool-length array

    def counted(name):
        def fn(z):
            if np.ndim(z) == 1 and len(z) == m:
                calls.append((name, z))
            return np.exp(z)
        return fn

    link = custom_link(counted("g"), counted("gprime"), counted("G"))
    report = GlmProblem(data, pool, link).fit(1.0)

    # the reference: three closures, each forming Z beta itself
    zbar = Z.mean(axis=0)
    cov_xy = (data.xty - data.n * data.xbar * data.ybar) / data.n
    values = []

    def value(b):
        values.append(b)
        return float(np.mean(np.exp(Z @ b)) - ((zbar @ b) * data.ybar + cov_xy @ b))

    def grad(b):
        return Z.T @ np.exp(Z @ b) / m - zbar * data.ybar - cov_xy

    def hess(b):
        return (Z * np.exp(Z @ b)[:, None]).T @ Z / m

    start = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]
    ref = _newton(value, grad, hess, start)
    assert ref.converged and len(values) > ref.iterations + 1  # some trials were rejected
    assert (report.iterations, report.converged) == (ref.iterations, ref.converged)
    np.testing.assert_allclose(report.beta, ref.beta, rtol=1e-12)

    names = [name for name, _ in calls]
    # one G per point evaluated (start, accepted and rejected trials), and one g
    # and one g' per iterate
    assert names.count("G") == len(values)
    assert names.count("g") == names.count("gprime") == report.iterations
    # the gradient and the Hessian take the eta of the last point evaluated
    for k, (name, eta) in enumerate(calls):
        if name != "G":
            last_G = next(z for n_, z in reversed(calls[:k]) if n_ == "G")
            assert eta is last_G


def test_newton_damps_a_nearly_singular_pool_hessian(monkeypatch):
    import mssl.glm

    rng = seeded_rng(38)

    def collinear(rows):
        A = rng.standard_normal((rows, 4))
        A[:, 3] = A[:, 2] + 1e-7 * rng.standard_normal(rows)
        return A

    X = collinear(60)
    data = LabeledSet(X, elu_link().g(X @ np.arange(4.0)) + rng.standard_normal(60))
    pool = build_moments(UnlabeledPool(collinear(3000)), 60).pool
    rejected = []
    checked = mssl.glm.spd_factor

    def spy(A, what="matrix"):
        try:
            return checked(A, what)
        except SingularMatrixError:
            rejected.append(what)
            raise

    monkeypatch.setattr(mssl.glm, "spd_factor", spy)
    with np.errstate(over="ignore"):
        report = GlmProblem(data, pool, elu_link()).fit(1.0)
    assert "Newton Hessian" in rejected  # the ridge retry ran
    assert np.all(np.isfinite(report.beta))


def test_glm_sample_rejects_a_singular_pool_before_any_newton_solve(monkeypatch):
    # the pool of the ridge-retry test above: two columns 1e-7 apart make
    # H = n E[xx^T] fail the condition check, so the sample fails on H before
    # Newton runs (the fits alone would iterate and then fail on H_g)
    import mssl.glm
    from mssl import GlmSample

    rng = seeded_rng(38)

    def collinear(rows):
        A = rng.standard_normal((rows, 4))
        A[:, 3] = A[:, 2] + 1e-7 * rng.standard_normal(rows)
        return A

    X = collinear(60)
    data = LabeledSet(X, elu_link().g(X @ np.arange(4.0)) + rng.standard_normal(60))
    moments = build_moments(UnlabeledPool(collinear(3000)), 60)

    def newton(*args, **kwargs):
        raise AssertionError("Newton ran on a singular pool")

    monkeypatch.setattr(mssl.glm, "_newton", newton)
    with pytest.raises(SingularMatrixError, match=r"^H is singular"):
        GlmSample(data, moments, elu_link(), ResampleSpec(20, 0))
