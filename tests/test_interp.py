import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mssl import (
    DataValidationError,
    InterpSample,
    LabeledSet,
    RegimeError,
    ResampleBudgetError,
    ResampleSpec,
    SingularMatrixError,
    UnlabeledPool,
    build_moments,
    fit_min_norm,
    fit_min_variance,
    gaussian_sampler,
    interp_risk_terms,
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
        np.eye(p), gaussian_sampler(np.eye(p), n), ResampleSpec(600, 1)
    )
    expected = n / (p - n - 1)
    assert terms.v_u == pytest.approx(expected, rel=0.05)
    assert terms.v_l == pytest.approx(terms.v_u, rel=0.05)
    assert terms.b_l == pytest.approx(terms.b_u, rel=0.05)


def _spiked_closed_form(
    n: int, p: int, p_tilde: int, c1_sq: float, trace_sigma: float
) -> InterpRiskTerms:
    """Closed-form Gaussian terms for a two-level (spiked) diagonal covariance.

    v_u = n/(p-n-1), b_u = tr(Sigma)(1 - n/p), and the supervised factors
    behave as if only the p_tilde large-variance coordinates existed:
    v_l = n/(p_tilde-n-1), b_l = c1^2 (p_tilde - n).
    """
    if p <= n + 1 or p_tilde <= n + 1:
        raise RegimeError("closed forms need p, p_tilde > n + 1")
    return InterpRiskTerms(
        b_l=float(c1_sq * (p_tilde - n)),
        v_l=float(n / (p_tilde - n - 1)),
        b_u=float(trace_sigma * (1.0 - n / p)),
        v_u=float(n / (p - n - 1)),
    )


def test_interp_terms_spiked_match_closed_form():
    # with a negligible minor block the two-level closed forms are exact
    n, p = 30, 60
    p_tilde = 48
    diag = np.concatenate([np.ones(p_tilde), np.full(p - p_tilde, 1e-8)])
    sigma = np.diag(diag)
    terms = interp_risk_terms(
        sigma, gaussian_sampler(sigma, n), ResampleSpec(800, 2)
    )
    closed = _spiked_closed_form(n, p, p_tilde, 1.0, float(diag.sum()))
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
        sigma, gaussian_sampler(sigma, n), ResampleSpec(600, 4)
    )
    closed = _spiked_closed_form(n, p, p_tilde, 1.0, float(diag.sum()))
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
        sigma, gaussian_sampler(sigma, n), ResampleSpec(400, 3)
    )
    assert terms.b_l <= terms.b_u + 3 * (terms.se_b_l + terms.se_b_u)
    assert terms.v_l >= terms.v_u - 3 * (terms.se_v_l + terms.se_v_u)


def _recording(sampler, draws: list):
    """``sampler`` that also appends each design it hands out to ``draws``."""

    def draw(rng):
        X = sampler(rng)
        draws.append(X.copy())
        return X

    return draw


def _defining_traces(X: np.ndarray, Sigma: np.ndarray) -> tuple[float, ...]:
    """(b_l, v_l, b_u, v_u) of one design from their defining traces."""
    G = X @ X.T
    K = X @ np.linalg.solve(Sigma, X.T)
    P = X.T @ np.linalg.solve(G, X)  # X^T G^{-1} X
    return (
        np.trace(Sigma) - np.trace(Sigma @ P),
        np.trace(Sigma @ X.T @ np.linalg.solve(G, np.linalg.solve(G, X))),
        np.trace(Sigma) - np.trace(X.T @ np.linalg.solve(K, X)),
        np.trace(np.linalg.solve(K, np.eye(X.shape[0]))),
    )


@pytest.mark.parametrize("source", ["pool", "gaussian"])
def test_interp_terms_equal_the_defining_traces(source, monkeypatch):
    # the eigenbasis pass against per-draw solves, on a non-diagonal Sigma;
    # the pass inverts from its factors and solves nothing
    import mssl.interp

    def no_solve(*args, **kwargs):
        raise AssertionError("the pass called cho_solve")

    monkeypatch.setattr(mssl.interp, "cho_solve", no_solve)
    n, p = 12, 30
    rng = seeded_rng(40)
    mixing = np.eye(p) + 0.3 * rng.standard_normal((p, p))
    moments = build_moments(UnlabeledPool(rng.standard_normal((500, p)) @ mixing), n)
    Sigma = moments.Exx
    assert np.abs(Sigma - np.diag(np.diag(Sigma))).max() > 0.1
    sampler = pool_sampler(moments.pool, n) if source == "pool" else gaussian_sampler(Sigma, n)
    draws: list = []
    got = interp_risk_terms(Sigma, _recording(sampler, draws), ResampleSpec(40, 41))
    per_draw = np.array([_defining_traces(X, Sigma) for X in draws])
    assert per_draw.shape == (40, 4)
    mean = per_draw.mean(axis=0)
    se = per_draw.std(axis=0, ddof=1) / math.sqrt(len(draws))
    np.testing.assert_allclose([got.b_l, got.v_l, got.b_u, got.v_u], mean, rtol=1e-10)
    np.testing.assert_allclose([got.se_b_l, got.se_v_l, got.se_b_u, got.se_v_u], se, rtol=1e-10)
    assert got.n_skipped == 0


def test_interp_terms_regime_check():
    with pytest.raises(RegimeError):
        interp_risk_terms(np.eye(4), gaussian_sampler(np.eye(4), 4), ResampleSpec(5, 0))


def _no_factoring(monkeypatch):
    """Make any factorization of a draw inside the pass fail the test; the
    pass's own check of Sigma still runs."""
    import mssl.interp

    checked = mssl.interp.spd_factor

    def sigma_only(A, what="matrix"):
        if what != "Sigma":
            raise AssertionError("a draw was factored")
        return checked(A, what)

    def fail(*args, **kwargs):
        raise AssertionError("a draw was factored")

    monkeypatch.setattr(mssl.interp, "spd_factor", sigma_only)
    monkeypatch.setattr(mssl.interp, "cho_solve", fail)


def test_interp_terms_read_n_from_the_draws(monkeypatch):
    # p = 6 needs n <= 4: the same Sigma passes with 4-row draws and is
    # rejected with 5-row ones, before any draw is factored
    terms = interp_risk_terms(np.eye(6), gaussian_sampler(np.eye(6), 4), ResampleSpec(5, 0))
    assert terms.v_u > 0
    _no_factoring(monkeypatch)
    with pytest.raises(RegimeError, match="n=5, p=6"):
        interp_risk_terms(np.eye(6), gaussian_sampler(np.eye(6), 5), ResampleSpec(5, 0))


def test_interp_terms_check_sigma_before_any_draw():
    def no_draws(rng):
        raise AssertionError("a design was drawn")

    singular = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])
    with pytest.raises(SingularMatrixError, match="Sigma"):
        interp_risk_terms(singular, no_draws, ResampleSpec(5, 0))


def test_interp_terms_reject_draws_of_another_width(monkeypatch):
    _no_factoring(monkeypatch)
    with pytest.raises(DataValidationError, match="7 columns but Sigma has order 6"):
        interp_risk_terms(np.eye(6), gaussian_sampler(np.eye(7), 2), ResampleSpec(5, 0))


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
    assert t.risk(0.0, 1.0).ratio == 0.0
    assert t.risk(3.0, 0.0).ratio == 1.0


def test_alpha_star_interp_symmetry():
    # sigma^2 (v_l - v_u) = tau^2 (b_u - b_l) gives exactly one half
    t = _terms(1.0, 2.0, 2.0, 1.0)
    risk = t.risk(1.0, 1.0)
    assert risk.ratio == pytest.approx(0.5)
    assert risk.minimum == pytest.approx(1.0 * 1.0 + 1.0 * 2.0 - 1.0 / 2.0)


def test_alpha_star_interp_ordering_error():
    bad = _terms(2.0, 1.0, 1.0, 2.0)
    with pytest.raises(DataValidationError):
        bad.risk(1.0, 1.0).ratio


def test_alpha_star_interp_ordering_check_skips_a_term_of_weight_zero():
    # b_u < b_l, but tau^2 = 0 weighs the bias gap out: it used to raise
    bad_bias = _terms(2.0, 2.0, 1.0, 1.0)
    assert bad_bias.risk(1.0, 0.0).ratio == 1.0
    # v_l < v_u, but sigma^2 = 0 weighs the variance gap out
    bad_var = _terms(1.0, 1.0, 2.0, 2.0)
    assert bad_var.risk(0.0, 1.0).ratio == 0.0
    # both weights 0: the flat case
    assert _terms(1.0, 2.0, 2.0, 1.0).risk(0.0, 0.0).ratio == 0.0


def test_interp_eta_below_one():
    t = _terms(1.0, 2.0, 2.0, 1.0)
    eta = t.risk(2.0, 1.0).eta
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
    assert (out.sigma2_hat, out.tau2_hat) == (0.0, 0.0)


def test_iterate_sigma_tau_noiseless():
    # noiseless draws: the typical estimate is an exact zero, and the
    # zero-clipping leaves a bounded upward mean bias
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


def _alternate_sigma_tau(X, Y, Sigma):
    """The clipped noise/signal alternation, run until its iterates stop changing.

    Returns the limit and the moments (yq, tr1, tr2, y2, tr Sigma) it solves with.
    """
    n = X.shape[0]
    Gi = np.linalg.inv(X @ X.T)
    yq, tr1, tr2 = float(Y @ Gi @ Gi @ Y), float(np.trace(Gi)), float(np.trace(Gi @ Gi))
    y2, tr_sigma = float(Y @ Y) / n, float(np.trace(Sigma))
    w = X.T @ (Gi @ Y)
    sigma2, tau2 = 0.0, float(w @ Sigma @ w) / tr_sigma
    for _ in range(10**6):
        new_sigma2 = max((yq - tau2 * tr1) / tr2, 0.0)
        new = (new_sigma2, max((y2 - new_sigma2) / tr_sigma, 0.0))
        if new == (sigma2, tau2):
            return new, (yq, tr1, tr2, y2, tr_sigma)
        sigma2, tau2 = new
    raise AssertionError("the reference alternation did not settle")


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(3, 200), (5, 2000), (10, 500), (20, 60)]),
    st.floats(0.0, 3.0),
    st.floats(0.0, 0.3),
    st.floats(0.05, 2.0),
    st.floats(0.0, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_sigma_tau_is_the_limit_of_the_clipped_alternation(
    seed, shape, noise, signal, scale, lift
):
    # isotropic p >> n draws put tr G^{-2} tr Sigma - tr G^{-1} near 0, on
    # either side of it, where the alternation contracts slowly or runs to a
    # corner.  Sigma = scale I + lift (p / n) u u^T, with u along the
    # minimum-norm fit, moves the start w^T Sigma w / tr Sigma above
    # y2 / tr Sigma for the larger lifts.
    n, p = shape
    rng = seeded_rng(seed)
    X = rng.standard_normal((n, p))
    Y = X @ (signal * rng.standard_normal(p)) + noise * rng.standard_normal(n)
    u = X.T @ np.linalg.solve(X @ X.T, Y)
    norm = np.linalg.norm(u)
    u = u / norm if norm > 0 else np.eye(p)[0]
    Sigma = scale * np.eye(p) + lift * (p / n) * np.outer(u, u)

    out = iterate_sigma_tau(LabeledSet(X, Y), Sigma)
    (sigma2, tau2), (yq, tr1, tr2, y2, tr_sigma) = _alternate_sigma_tau(X, Y, Sigma)
    assert out.sigma2_hat == pytest.approx(sigma2, rel=1e-10, abs=1e-12 * yq / tr2)
    assert out.tau2_hat == pytest.approx(tau2, rel=1e-10, abs=1e-12 * y2 / tr_sigma)
    # the clipped moment equations hold at the result
    assert out.sigma2_hat == pytest.approx(
        max((yq - out.tau2_hat * tr1) / tr2, 0.0), rel=1e-10, abs=1e-10 * yq / tr2
    )
    assert out.tau2_hat == pytest.approx(
        max((y2 - out.sigma2_hat) / tr_sigma, 0.0), rel=1e-10, abs=1e-10 * y2 / tr_sigma
    )


def test_interp_terms_mostly_singular_draws_exhaust_the_budget():
    n, p = 5, 12
    draw = gaussian_sampler(np.eye(p), n)

    def sampler(rng):
        X = draw(rng)
        if rng.random() < 0.8:
            X[1] = X[0]  # a repeated row makes X X^T singular
        return X

    with pytest.raises(ResampleBudgetError):
        interp_risk_terms(np.eye(p), sampler, ResampleSpec(40, 0))


def test_interp_terms_need_two_usable_draws():
    # a one-draw plan is refused when it is made; one failing draw of two
    # exhausts the budget, so a pass never averages over fewer than 2 draws
    n, p = 5, 12
    with pytest.raises(DataValidationError, match="replications must be >= 2"):
        ResampleSpec(1, 0)
    draw = gaussian_sampler(np.eye(p), n)

    def sampler(rng):
        X = draw(rng)
        X[1] = X[0]  # a repeated row makes X X^T singular
        return X

    listed = _listed([draw(seeded_rng(5)), sampler(seeded_rng(6))])
    with pytest.raises(ResampleBudgetError, match="1/2"):
        interp_risk_terms(np.eye(p), listed, ResampleSpec(2, 0))


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
    got = interp_risk_terms(_INNER_SIGMA, _listed(draws), ResampleSpec(20, 0))
    want = interp_risk_terms(_INNER_SIGMA, _listed(good), ResampleSpec(18, 0))
    assert dataclasses.replace(got, n_skipped=0) == want
    assert got.n_skipped == 2


def test_interp_terms_inner_gram_failures_count_against_the_budget():
    draws = _inner_draws(20, bad={2, 5, 13})  # 3 of 20 is over the 10% budget
    with pytest.raises(ResampleBudgetError, match="3/20"):
        interp_risk_terms(_INNER_SIGMA, _listed(draws), ResampleSpec(20, 0))
