"""Acceptance suite: one numbered check per criterion, with a printed
pass/fail line each.  Shared Monte Carlo runs live in module-scoped
fixtures; every tolerance is pinned here, not deferred.

Known state: criterion 9's significance sub-check at sigma2=4 fails for the
fully-estimated mixing ratio (the true paired gain over the minimum-norm
fit at that noise level is ~0.01 +- 0.015, verified at K=8000, so p < 0.05
at K=1000 is unattainable); the oracle-ratio version required by the module
invariant passes overwhelmingly.  See the repository notes for the analysis.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from mssl import (
    ExperimentConfig,
    GlmProblem,
    InterpSample,
    LabeledSet,
    MixRisk,
    OlsPoolModel,
    ResampleSpec,
    UnlabeledPool,
    AsymptoticSetting,
    build_moments,
    elu_link,
    finite_m_limits,
    fit_loss_mixed_ols,
    fit_ols_semisupervised,
    fit_ols_supervised,
    gaussian_sampler,
    interp_risk_terms,
    mix_linear,
    ols_limits,
    run_experiment,
    seeded_rng,
)
from mssl._blas import single_blas_thread
from mssl.core import _forking, _map_indices
from mssl.glm import GlmPoolStats


def _report(num: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({time.time() - started:.1f}s): {detail}")


# ---------------------------------------------------------------------------
# shared Monte Carlo runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ols_constant_run():
    return run_experiment(
        ExperimentConfig(preset="ols_constant_beta", k=1000, seed=20250809)
    )


@pytest.fixture(scope="module")
def ols_random_run():
    return run_experiment(ExperimentConfig(preset="ols_random_beta", k=1000, seed=41))


@pytest.fixture(scope="module")
def glm_run():
    return run_experiment(
        ExperimentConfig(preset="glm_elu", k=1000, seed=42, sigma2_grid=(25.0,))
    )


@pytest.fixture(scope="module")
def glm_sweep_run():
    return run_experiment(ExperimentConfig(preset="glm_alpha_sweep", k=1000, seed=43))


@pytest.fixture(scope="module")
def interp_fixed_run():
    return run_experiment(
        ExperimentConfig(preset="interp_fixed", k=1000, seed=44, sigma2_grid=(1.0, 4.0, 25.0))
    )


@pytest.fixture(scope="module")
def interp_growth_run():
    return run_experiment(ExperimentConfig(preset="interp_growth", k=1000, seed=45))


def _rows(result):
    return {(r.grid_value, r.estimator): r.mean_error for r in result.rows}


def _pairs(result):
    return {(p.estimator_a, p.estimator_b, p.grid_value): p for p in result.paired}


# ---------------------------------------------------------------------------
# 1. endpoint identities and the numeric-minimizer oracle
# ---------------------------------------------------------------------------


def test_c1_endpoints_and_numeric_oracle():
    t0 = time.time()
    rng = seeded_rng(101)
    worst_endpoint = 0.0
    for trial in range(5):
        n, p = 20, 4
        pool = UnlabeledPool(rng.standard_normal((800, p)))
        mom = build_moments(pool, n)
        ds = LabeledSet(rng.standard_normal((n, p)), rng.standard_normal(n))
        b_hat = fit_ols_supervised(ds)
        b_breve = fit_ols_semisupervised(ds, mom)
        scale = np.linalg.norm(b_hat)
        for alpha, ref in ((0.0, b_hat), (1.0, b_breve)):
            worst_endpoint = max(
                worst_endpoint,
                np.max(np.abs(mix_linear(b_hat, b_breve, alpha) - ref)) / scale,
                np.max(np.abs(fit_loss_mixed_ols(ds, mom, alpha) - ref)) / scale,
            )
        # each GLM endpoint solve, started at the other endpoint, lands on the
        # pure fit started from least squares
        prob = GlmProblem(ds, mom.pool, elu_link())
        g_hat = prob.fit(0.0).beta
        g_breve = prob.fit(1.0).beta
        for alpha, ref, other in ((0.0, g_hat, g_breve), (1.0, g_breve, g_hat)):
            mixed = prob.fit(alpha, beta0=other).beta
            worst_endpoint = max(
                worst_endpoint, np.max(np.abs(mixed - ref)) / np.linalg.norm(ref)
            )

    def blended(beta, X, Y, H, alpha):
        xb = X @ beta
        sup = np.mean(0.5 * xb**2 - xb * Y)
        semi = 0.5 * beta @ (H / X.shape[0]) @ beta - (
            np.mean(xb * Y) - (X.mean(axis=0) @ beta) * Y.mean()
        )
        return (1 - alpha) * sup + alpha * semi

    worst_oracle = 0.0
    for trial in range(20):
        n = int(rng.integers(5, 11))
        p = int(rng.integers(1, 5))
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal(n)
        A = rng.standard_normal((p + 2, p))
        H = n * (A.T @ A / (p + 2) + 0.5 * np.eye(p))
        alpha = float(rng.uniform(0.05, 0.95))
        from mssl.core import PopulationMoments

        mom = PopulationMoments(
            mean=np.zeros(p), Exx=H / n, H=H, n=n,
            pool=UnlabeledPool(np.zeros((2, p)), centered=True),
        )
        closed = fit_loss_mixed_ols(LabeledSet(X, Y), mom, alpha)
        res = minimize(
            blended, np.zeros(p), args=(X, Y, H, alpha), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000},
        )
        worst_oracle = max(worst_oracle, float(np.max(np.abs(closed - res.x))))

    ok = worst_endpoint <= 1e-10 and worst_oracle < 1e-6
    _report(
        "1", ok,
        f"endpoint max rel dev {worst_endpoint:.2e} (<=1e-10), "
        f"numeric-oracle max dev {worst_oracle:.2e} (<1e-6)", t0,
    )
    assert worst_endpoint <= 1e-10
    assert worst_oracle < 1e-6


# ---------------------------------------------------------------------------
# 2. best-ratio formula vs Monte Carlo argmin (0.02 grid, K=1000)
# ---------------------------------------------------------------------------


def test_c2_best_ratio_formula_vs_mc_argmin(ols_constant_run):
    t0 = time.time()
    details = []
    ok = True
    for sigma2 in (1.0, 9.0, 25.0, 49.0):
        curve = ols_constant_run.extras["alpha_curve"][sigma2]
        alpha_star = ols_constant_run.extras["alpha_star"][sigma2]
        tol = 0.02 + 2.0 * curve["argmin_se"]
        gap = abs(curve["argmin_grid"] - alpha_star)
        ok &= gap <= tol
        details.append(f"s2={sigma2:g}: |{curve['argmin_grid']:.3f}-{alpha_star:.4f}|<= {tol:.4f}")
    _report("2", ok, "; ".join(details), t0)
    for sigma2 in (1.0, 9.0, 25.0, 49.0):
        curve = ols_constant_run.extras["alpha_curve"][sigma2]
        alpha_star = ols_constant_run.extras["alpha_star"][sigma2]
        assert abs(curve["argmin_grid"] - alpha_star) <= 0.02 + 2.0 * curve["argmin_se"]


# ---------------------------------------------------------------------------
# 3. mean-error ordering with significant outer inequality
# ---------------------------------------------------------------------------


def test_c3_estimator_ordering(ols_constant_run):
    t0 = time.time()
    rows = _rows(ols_constant_run)
    pairs = _pairs(ols_constant_run)
    ok = True
    details = []
    for sigma2 in (1.0, 9.0, 25.0, 49.0):
        grid = rows[(sigma2, "loss_mixed_grid")]
        lin = rows[(sigma2, "linear_mixed_est")]
        sup = rows[(sigma2, "supervised")]
        ordered = grid <= lin <= sup
        ok &= ordered
        details.append(f"s2={sigma2:g}: {grid:.3f}<={lin:.3f}<={sup:.3f}")
        if sigma2 >= 9.0:
            pr = pairs[("supervised", "loss_mixed_grid", sigma2)]
            significant = pr.p < 0.05 and pr.mean_diff > 0
            ok &= significant
            details.append(f"outer p={pr.p:.2g}")
    _report("3", ok, "; ".join(details), t0)
    assert ok


# ---------------------------------------------------------------------------
# 4. relative-risk convergence toward 1 - gamma^2
# ---------------------------------------------------------------------------


def test_c4_eta_convergence(ols_random_run):
    t0 = time.time()
    eta = ols_random_run.extras["eta_measured"][500]
    opt = eta["linear_mixed_opt"]
    tau = eta["linear_mixed_est_tau"]
    ok = abs(opt - 0.75) <= 0.05 and abs(tau - 0.75) <= 0.05
    _report("4", ok, f"n=500: eta_opt={opt:.4f}, eta_tau={tau:.4f} in 0.75+-0.05", t0)
    assert abs(opt - 0.75) <= 0.05
    assert abs(tau - 0.75) <= 0.05


# ---------------------------------------------------------------------------
# 5. noise-estimator unbiasedness (OLS, general link, interpolator), K=5000
# ---------------------------------------------------------------------------


def test_c5_noise_unbiasedness():
    t0 = time.time()
    K = 5000
    sigma2 = 4.0

    def run(rep):
        # through the package's Monte Carlo engine, as run_experiment runs its
        # loops, so the replications may be shared with forked workers
        with single_blas_thread(), _forking():
            return np.asarray(_map_indices(rep, K)[0])

    # squared loss: RSS/(n-p)
    n, p = 50, 10

    def ols_rep(k):
        r = seeded_rng(501, k)
        X = r.standard_normal((n, p))
        beta = r.standard_normal(p)
        Y = X @ beta + 2.0 * r.standard_normal(n)
        b = np.linalg.lstsq(X, Y, rcond=None)[0]
        resid = Y - X @ b
        return float(resid @ resid) / (n - p)

    vals = run(ols_rep)
    se_ols = vals.std(ddof=1) / math.sqrt(K)
    dev_ols = abs(vals.mean() - sigma2)
    ok_ols = dev_ols < 3 * se_ols

    # general link at a moderate signal level, where the local-quadratic
    # analysis behind the denominator is accurate (the bias grows with the
    # signal scale; see the repository notes)
    link = elu_link()
    beta_true = np.full(p, 0.25)

    def glm_rep(k):
        r = seeded_rng(502, k)
        Z = r.standard_normal((2000, p))
        X = r.standard_normal((n, p))
        Y = link.g(X @ beta_true) + 2.0 * r.standard_normal(n)
        data = LabeledSet(X, Y)
        moments = build_moments(UnlabeledPool(Z), n)
        prob = GlmProblem(data, moments.pool, link)
        b_hat = prob.fit(0.0).beta
        b_breve = prob.fit(1.0).beta
        stats = GlmPoolStats(moments, link, b_breve, ResampleSpec(40, 50000 + k))
        resid = link.g(X @ b_hat) - Y
        return float(resid @ resid) / stats.sigma2_denominator()

    vals = run(glm_rep)
    se_glm = vals.std(ddof=1) / math.sqrt(K)
    dev_glm = abs(vals.mean() - sigma2)
    ok_glm = dev_glm < 3 * se_glm

    # interpolator formula with the signal level known
    n_i, p_i, tau2 = 50, 100, 1.0
    diag = np.concatenate([np.ones(80), np.full(20, 1.0 / n_i)])
    scale = np.sqrt(diag)

    def interp_rep(k):
        r = seeded_rng(503, k)
        X = r.standard_normal((n_i, p_i)) * scale
        w = math.sqrt(tau2) * r.standard_normal(p_i)
        Y = X @ w + 2.0 * r.standard_normal(n_i)
        return InterpSample(LabeledSet(X, Y)).sigma2_known_tau(tau2)

    vals = run(interp_rep)
    se_int = vals.std(ddof=1) / math.sqrt(K)
    dev_int = abs(vals.mean() - sigma2)
    ok_int = dev_int < 3 * se_int

    ok = ok_ols and ok_glm and ok_int
    _report(
        "5", ok,
        f"OLS dev {dev_ols:.4f} (3se {3*se_ols:.4f}); "
        f"GLM dev {dev_glm:.4f} (3se {3*se_glm:.4f}); "
        f"interp dev {dev_int:.4f} (3se {3*se_int:.4f})", t0,
    )
    assert ok_ols and ok_glm and ok_int


# ---------------------------------------------------------------------------
# 6. inverse-Wishart closed forms
# ---------------------------------------------------------------------------


def test_c6_wishart_closed_forms():
    t0 = time.time()
    n, p = 100, 50
    pool = UnlabeledPool(seeded_rng(601).standard_normal((20000, p)))
    model = OlsPoolModel(build_moments(pool, n), ResampleSpec(400, 602))
    target = 50.0 / 49.0
    dev_vl = abs(model.v_l - target) / target

    n_i, p_i = 50, 100
    t_interp = interp_risk_terms(
        np.eye(p_i), gaussian_sampler(np.eye(p_i), n_i),
        ResampleSpec(600, 603),
    )
    dev_vu = abs(t_interp.v_u - target) / target

    ok = dev_vl < 0.02 and dev_vu < 0.02
    _report(
        "6", ok,
        f"v_l={model.v_l:.5f} vs 50/49 (rel {dev_vl:.4f}); "
        f"interp v_u={t_interp.v_u:.5f} (rel {dev_vu:.4f})", t0,
    )
    assert dev_vl < 0.02
    assert dev_vu < 0.02


# ---------------------------------------------------------------------------
# 7. general-link suite at sigma2 = 25
# ---------------------------------------------------------------------------


def test_c7_glm_elu_suite(glm_run, glm_sweep_run):
    t0 = time.time()
    oq = glm_run.extras["oracle_terms"]
    gap_ok = oq.v_l - oq.v_u > 3.0 * oq.se_v_l

    pr = _pairs(glm_run)[("supervised", "loss_mixed_grid", 25.0)]
    sig_ok = pr.mean_diff > 0 and pr.p < 0.05

    mc_argmin = glm_sweep_run.extras["mc_argmin"]["loss_mixed"]
    oracle = glm_sweep_run.extras["alpha_ddot_oracle"]
    argmin_ok = abs(mc_argmin - oracle) <= 0.05 + 1e-12
    interior_ok = 0.0 < oracle < 1.0

    ok = gap_ok and sig_ok and argmin_ok and interior_ok
    _report(
        "7", ok,
        f"v_l-v_u={oq.v_l - oq.v_u:.4f} > 3se={3*oq.se_v_l:.4f}; "
        f"outer p={pr.p:.2g}; sweep argmin {mc_argmin:.2f} vs oracle {oracle:.2f}", t0,
    )
    assert gap_ok
    assert sig_ok
    assert argmin_ok
    assert interior_ok


# ---------------------------------------------------------------------------
# 8. analytic gradients vs central differences (100 probes)
# ---------------------------------------------------------------------------


def test_c8_gradient_probes():
    t0 = time.time()
    rng = seeded_rng(801)
    worst = 0.0
    probes = 0
    while probes < 100:
        n, p = 15, 4
        X = rng.standard_normal((n, p))
        beta0 = rng.standard_normal(p)
        Y = elu_link().g(X @ beta0) + rng.standard_normal(n)
        pool = build_moments(UnlabeledPool(rng.standard_normal((300, p))), n).pool
        prob = GlmProblem(LabeledSet(X, Y), pool, elu_link())
        for alpha in (0.0, 1.0, float(rng.uniform(0, 1))):
            beta = rng.standard_normal(p)
            fd = np.zeros(p)
            h = 1e-6
            for i in range(p):
                e = np.zeros(p)
                e[i] = h
                fd[i] = (prob.value(beta + e, alpha) - prob.value(beta - e, alpha)) / (2 * h)
            rel = np.max(np.abs(fd - prob.grad(beta, alpha))) / (1.0 + np.max(np.abs(fd)))
            worst = max(worst, float(rel))
            probes += 1
    ok = worst < 1e-5
    _report("8", ok, f"{probes} probes, worst relative error {worst:.2e} (<1e-5)", t0)
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# 9. interpolator suite
# ---------------------------------------------------------------------------


def test_c9a_variance_dominance(interp_fixed_run):
    t0 = time.time()
    slacks = interp_fixed_run.extras["dominance_min_slack"]
    ok = all(v >= -1e-10 for v in slacks.values())
    _report("9a", ok, f"min variance-dominance slack {min(slacks.values()):.3g}", t0)
    assert ok


def test_c9b_mixed_dominance_significance(interp_fixed_run):
    # literal criterion: the fully-estimated mix beats both pure interpolators
    # with p < 0.05 at every sigma2 >= 4.  At sigma2 = 4 this is unattainable:
    # the paired gain over the minimum-norm fit is -0.021 +- 0.040 here and
    # +0.0015 +- 0.015 with this configuration at K=8000, so this check fails
    # honestly there.
    t0 = time.time()
    pairs = _pairs(interp_fixed_run)
    rows = _rows(interp_fixed_run)
    ok = True
    details = []
    for sigma2 in (4.0, 25.0):
        better = min(rows[(sigma2, "min_norm")], rows[(sigma2, "min_variance")])
        mixed = rows[(sigma2, "interp_mixed_est")]
        pn = pairs[("min_norm", "interp_mixed_est", sigma2)]
        pv = pairs[("min_variance", "interp_mixed_est", sigma2)]
        this_ok = (
            mixed < better
            and pn.mean_diff > 0 and pn.p < 0.05
            and pv.mean_diff > 0 and pv.p < 0.05
        )
        ok &= this_ok
        details.append(f"s2={sigma2:g}: p_norm={pn.p:.2g}, p_var={pv.p:.2g}")
    _report("9b", ok, "; ".join(details), t0)
    assert ok, (
        "estimated-ratio dominance not significant at sigma2=4 (expected: the "
        "criterion is unattainable there; see notes/decisions ledger)"
    )


def test_c9b_oracle_mixed_dominance(interp_fixed_run):
    # module-invariant version of the same statement, with the oracle ratio:
    # this is the form the oracle-optimality guarantee actually covers
    t0 = time.time()
    pairs = _pairs(interp_fixed_run)
    ok = True
    for sigma2 in (4.0, 25.0):
        pn = pairs[("min_norm", "interp_mixed_opt", sigma2)]
        pv = pairs[("min_variance", "interp_mixed_opt", sigma2)]
        ok &= pn.mean_diff > 0 and pn.p < 0.05 and pv.mean_diff > 0 and pv.p < 0.05
    _report("9b-oracle", ok, "oracle-ratio mix beats both pure fits, p<0.05", t0)
    assert ok


def test_c9c_growth_eta_limit(interp_growth_run):
    t0 = time.time()
    eta = interp_growth_run.extras["eta_measured"][300]["interp_mixed_opt"]
    limit = interp_growth_run.extras["eta_limit"]
    ok = abs(eta - limit) <= 0.05
    _report("9c", ok, f"eta(n=300)={eta:.4f} vs limit {limit:.4f} (+-0.05)", t0)
    assert ok


# ---------------------------------------------------------------------------
# 10. asymptotics self-consistency
# ---------------------------------------------------------------------------


def test_c10_asymptotics_identities():
    t0 = time.time()
    worst_eta = 0.0
    worst_red = 0.0
    for gamma in (0.1, 0.25, 0.5, 0.75, 0.9):
        for sigma2, tau2, c2 in ((25.0, 1.0, 25.0), (4.0, 2.0, 9.0), (1.0, 0.5, 3.0)):
            s = AsymptoticSetting(gamma=gamma, sigma2=sigma2, tau2=tau2, c2=c2)
            rpt = ols_limits(s)
            t = rpt.term_limits
            direct = MixRisk.from_factors(sigma2, tau2 * t["b_u"], t["v_l"], t["v_u"], t["v_u"]).eta
            worst_eta = max(worst_eta, abs(rpt.eta_inf - direct))
            fm = finite_m_limits(s).term_limits
            worst_red = max(
                worst_red,
                abs(fm["b_u_tilde"] - t["b_u"]),
                abs(fm["v_u_tilde"] - t["v_u"]),
                abs(fm["v_l"] - t["v_l"]),
            )
    ok = worst_eta <= 1e-12 and worst_red <= 1e-12
    _report(
        "10", ok,
        f"eta identity dev {worst_eta:.2e}; finite-pool reduction dev {worst_red:.2e}",
        t0,
    )
    assert worst_eta <= 1e-12
    assert worst_red <= 1e-12
