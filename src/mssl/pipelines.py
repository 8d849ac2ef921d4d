"""End-to-end fitting pipelines behind the CLI.

Each pipeline ingests a labeled sample and a pool, shifts the labeled
covariates into pool-centered coordinates, fits the pure estimators,
estimates the risk components, selects a mixing ratio (by formula, grid
search, or a fixed value), and returns a JSON-ready report.
"""

from __future__ import annotations

import numpy as np

from .core import LabeledSet, ResampleSpec, UnlabeledPool, build_moments
from .errors import DataValidationError, RegimeError
from .glm import (
    GlmPoolStats,
    alpha_dot_glm,
    clip_alpha,
    estimate_noise_glm,
    fit_glm_loss_mixed,
    fit_glm_semisupervised,
    fit_glm_supervised,
)
from .interp import (
    alpha_star_interp,
    fit_min_norm,
    fit_min_variance,
    interp_risk_terms,
    iterate_sigma_tau,
    pool_sampler,
)
from .links import LinkSpec
from .ols import (
    MixDiagnostics,
    OlsPoolModel,
    alpha_star_ols,
    fit_loss_mixed_ols,
    fit_ols_semisupervised,
    fit_ols_supervised,
    mix_linear,
    noise_signal_ols,
)

__all__ = ["fit_ols_pipeline", "fit_glm_pipeline", "fit_interp_pipeline"]


def _resolve_alpha(policy, alpha_hat, alpha_tilde):
    if policy == "auto":
        return alpha_hat, "formula"
    if policy == "grid":
        return alpha_tilde, "grid"
    try:
        fixed = float(policy)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"bad alpha policy {policy!r}") from exc
    if not 0.0 <= fixed <= 1.0:
        raise DataValidationError("fixed alpha must be in [0, 1]")
    return fixed, "fixed"


def _policy_grid(policy, size: int) -> np.ndarray | None:
    """The uniform ratio grid the 'grid' policy searches; None for the others."""
    if policy != "grid":
        return None
    if size < 2:
        raise DataValidationError(f"the ratio grid needs >= 2 points, got grid_size={size}")
    return np.linspace(0.0, 1.0, size)


def _centered(data: LabeledSet, mean: np.ndarray) -> LabeledSet:
    return LabeledSet(data.X - mean, data.Y)


def fit_ols_pipeline(
    data: LabeledSet,
    pool: UnlabeledPool,
    alpha_policy="auto",
    seed: int = 0,
    grid_size: int = 51,
    blocks: int = 200,
) -> dict:
    """Squared-loss fit with a data-driven mixing ratio."""
    if data.p != pool.p:
        raise DataValidationError("labeled data and pool disagree on p")
    if data.n <= data.p:
        raise RegimeError(
            f"ols needs n > p, got n={data.n}, p={data.p}; use the interp model"
        )
    moments = build_moments(pool, data.n)
    data_c = _centered(data, moments.mean)
    model = OlsPoolModel(
        moments.pool, data.n, ResampleSpec(data.n, blocks, seed), moments,
        grid=_policy_grid(alpha_policy, grid_size),
    )

    beta_hat = fit_ols_supervised(data_c)
    beta_breve = fit_ols_semisupervised(data_c, moments)
    ns = noise_signal_ols(data_c, beta_hat, moments)
    B_hat = model.bias_at(beta_breve)
    alpha_hat = alpha_star_ols(ns.sigma2_hat, B_hat, model.v_l, model.v_u)[0]

    alpha_tilde = None
    if model.ddot is not None:
        alpha_tilde = model.ddot.argmin_alpha(beta_breve, ns.sigma2_hat)

    alpha, source = _resolve_alpha(alpha_policy, alpha_hat, alpha_tilde)
    coeffs = fit_loss_mixed_ols(data_c, moments, alpha)
    diags = MixDiagnostics(
        v_l=model.v_l,
        v_u=model.v_u,
        B_hat=B_hat,
        sigma2_hat=ns.sigma2_hat,
        tau2_hat=ns.tau2_hat,
        alpha_hat=alpha_hat,
        alpha_tilde=alpha_tilde,
        se={"v_l": model.se_v_l},
    )
    return {
        "schema_version": 1,
        "model": "ols",
        "link": "identity",
        "n": data.n,
        "p": data.p,
        "m": pool.m,
        "alpha": float(alpha),
        "alpha_source": source,
        "coefficients": [float(v) for v in coeffs],
        "center": [float(v) for v in moments.mean],
        "diagnostics": diags.to_dict(),
    }


def fit_glm_pipeline(
    data: LabeledSet,
    pool: UnlabeledPool,
    link: LinkSpec,
    alpha_policy="auto",
    seed: int = 0,
    grid_size: int = 21,
    blocks: int = 200,
) -> dict:
    """General-link fit with a data-driven mixing ratio."""
    if data.p != pool.p:
        raise DataValidationError("labeled data and pool disagree on p")
    if data.n <= data.p:
        raise RegimeError(f"glm needs n > p, got n={data.n}, p={data.p}")
    moments = build_moments(pool, data.n)
    data_c = _centered(data, moments.mean)
    pool_c = moments.pool

    rep_hat = fit_glm_supervised(data_c, link)
    rep_breve = fit_glm_semisupervised(data_c, pool_c, link)
    stats = GlmPoolStats(
        pool_c, data.n, link, rep_breve.beta, ResampleSpec(data.n, blocks, seed),
        alphas=_policy_grid(alpha_policy, grid_size), moments=moments,
    )
    sigma2_hat = estimate_noise_glm(
        data_c, rep_hat.beta, rep_breve.beta, pool_c, link, stats=stats
    )
    alpha_hat = alpha_dot_glm(
        sigma2_hat, stats.B_g_hat, stats.v_l_g, stats.v_u_g, stats.v_s_g
    )[0]
    alpha_tilde = None
    if stats.alphas is not None:
        alpha_tilde = stats.ddot_curve(sigma2_hat).argmin_alpha

    alpha, source = _resolve_alpha(alpha_policy, clip_alpha(alpha_hat), alpha_tilde)
    rep_mix = fit_glm_loss_mixed(data_c, pool_c, link, alpha)
    diags = MixDiagnostics(
        v_l=stats.v_l_g,
        v_u=stats.v_u_g,
        B_hat=stats.B_g_hat,
        sigma2_hat=sigma2_hat,
        tau2_hat=None,
        alpha_hat=alpha_hat,
        alpha_tilde=alpha_tilde,
        se={"v_l": stats.se_v_l_g, "v_s": stats.se_v_s_g},
    ).to_dict()
    diags["v_s"] = stats.v_s_g
    return {
        "schema_version": 1,
        "model": "glm",
        "link": link.kind,
        "n": data.n,
        "p": data.p,
        "m": pool.m,
        "alpha": float(alpha),
        "alpha_source": source,
        "coefficients": [float(v) for v in rep_mix.beta],
        "center": [float(v) for v in moments.mean],
        "converged": bool(rep_hat.converged and rep_breve.converged and rep_mix.converged),
        "diagnostics": diags,
    }


def fit_interp_pipeline(
    data: LabeledSet,
    pool: UnlabeledPool,
    alpha_policy="auto",
    seed: int = 0,
    blocks: int = 200,
) -> dict:
    """Interpolator fit (p > n) with the iterated noise/signal estimates."""
    if data.p != pool.p:
        raise DataValidationError("labeled data and pool disagree on p")
    if data.p <= data.n:
        raise RegimeError(f"interp needs p > n, got n={data.n}, p={data.p}")
    if pool.m <= pool.p:
        raise DataValidationError("pool must have more rows than columns")
    moments = build_moments(pool, data.n)
    data_c = _centered(data, moments.mean)
    Sigma = moments.Exx

    w_hat = fit_min_norm(data_c)
    w_tilde = fit_min_variance(data_c, Sigma)
    ns = iterate_sigma_tau(data_c, Sigma)
    spec = ResampleSpec(data.n, blocks, seed)
    terms = interp_risk_terms(Sigma, data.n, data.p, pool_sampler(moments.pool, data.n), spec)
    alpha_hat = alpha_star_interp(ns.sigma2_hat, ns.tau2_hat, terms)[0]
    alpha, source = _resolve_alpha(alpha_policy, alpha_hat, None)
    if source == "grid":
        raise DataValidationError("grid alpha policy is not defined for interpolators")
    coeffs = mix_linear(w_hat, w_tilde, alpha)
    diags = MixDiagnostics(
        v_l=terms.v_l,
        v_u=terms.v_u,
        B_hat=ns.tau2_hat * max(terms.b_u - terms.b_l, 0.0),
        sigma2_hat=ns.sigma2_hat,
        tau2_hat=ns.tau2_hat,
        alpha_hat=alpha_hat,
        alpha_tilde=None,
        se={"v_l": terms.se_v_l, "v_u": terms.se_v_u,
            "b_l": terms.se_b_l, "b_u": terms.se_b_u},
    ).to_dict()
    diags["b_l"] = terms.b_l
    diags["b_u"] = terms.b_u
    return {
        "schema_version": 1,
        "model": "interp",
        "link": "identity",
        "n": data.n,
        "p": data.p,
        "m": pool.m,
        "alpha": float(alpha),
        "alpha_source": source,
        "coefficients": [float(v) for v in coeffs],
        "center": [float(v) for v in moments.mean],
        "diagnostics": diags,
    }
