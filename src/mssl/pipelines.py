"""End-to-end fitting pipelines behind the CLI.

Each pipeline checks the mixing policy (formula, grid search, or a fixed
value) and builds its resampling plan before any work, ingests a labeled
sample and a pool, shifts the labeled covariates into pool-centered
coordinates, builds the family's per-sample object (``GlmSample`` for least
squares and every other link, ``InterpSample`` for the interpolators, shared
with the presets) for the fits, risk estimates and ratios, and returns a
JSON-ready report.  The least-squares fit is ``GlmSample`` at the identity
link with the ``OlsPoolModel`` pass it is given; a GLM sample builds its own.
"""

from __future__ import annotations

import numpy as np

from .core import (
    LabeledSet, ResampleSpec, UnlabeledPool, build_moments, pool_sampler,
)
from .errors import DataValidationError, RegimeError
from .glm import GlmSample
from .interp import InterpSample, interp_risk_terms
from .links import LinkSpec, identity_link
from .ols import OlsPoolModel

__all__ = ["fit_ols_pipeline", "fit_glm_pipeline", "fit_interp_pipeline"]


def _parse_policy(policy, grid_size: int | None):
    """(alpha_source, fixed ratio, ratio grid) of a policy; grid_size None: no grid policy."""
    if policy == "auto":
        return "formula", None, None
    if policy == "grid":
        if grid_size is None:
            raise DataValidationError("grid alpha policy is not defined for interpolators")
        if grid_size < 2:
            raise DataValidationError(
                f"the ratio grid needs >= 2 points, got grid_size={grid_size}"
            )
        return "grid", None, np.linspace(0.0, 1.0, grid_size)
    try:
        fixed = float(policy)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"bad alpha policy {policy!r}") from exc
    if not 0.0 <= fixed <= 1.0:
        raise DataValidationError("fixed alpha must be in [0, 1]")
    return "fixed", fixed, None


def _centered(data: LabeledSet, pool: UnlabeledPool):
    """The pool moments for n = data.n and the labeled sample in their coordinates."""
    if data.p != pool.p:
        raise DataValidationError("labeled data and pool disagree on p")
    moments = build_moments(pool, data.n)
    return moments, LabeledSet(data.X - moments.mean, data.Y)


def _report(model, link, data, moments, alpha, source, coeffs, diagnostics, **extra):
    """The JSON fields every family reports; ``extra`` ones precede the diagnostics.

    Every family's ``diagnostics`` start with the keys v_l, v_u, B_hat,
    sigma2_hat, tau2_hat, alpha_hat, alpha_tilde and se, in that order.
    """
    return {
        "schema_version": 1,
        "model": model,
        "link": link,
        "n": data.n,
        "p": data.p,
        "m": moments.pool.m,
        "alpha": float(alpha),
        "alpha_source": source,
        "coefficients": [float(v) for v in coeffs],
        "center": [float(v) for v in moments.mean],
        **extra,
        "diagnostics": diagnostics,
    }


def fit_ols_pipeline(
    data: LabeledSet,
    pool: UnlabeledPool,
    alpha_policy="auto",
    seed: int = 0,
    grid_size: int = 51,
    blocks: int = 200,
) -> dict:
    """Squared-loss fit with a data-driven mixing ratio."""
    source, fixed, grid = _parse_policy(alpha_policy, grid_size)
    if data.n <= data.p:
        raise RegimeError(
            f"ols needs n > p, got n={data.n}, p={data.p}; use the interp model"
        )
    spec = ResampleSpec(blocks, seed)
    moments, data_c = _centered(data, pool)
    model = OlsPoolModel(moments, spec, grid=grid)
    s = GlmSample(data_c, moments, identity_link(), stats=model)
    alpha = {"formula": s.alpha_hat, "grid": s.alpha_grid, "fixed": fixed}[source]
    diags = {
        "v_l": model.v_l,
        "v_u": model.v_u,
        "B_hat": s.B_hat,
        "sigma2_hat": s.sigma2_hat,
        "tau2_hat": s.tau2_hat,
        "alpha_hat": s.alpha_hat,
        "alpha_tilde": s.alpha_grid,
        "se": {"v_l": model.se_v_l},
    }
    return _report("ols", "identity", data, moments, alpha, source, s.loss(alpha), diags)


def fit_glm_pipeline(
    data: LabeledSet,
    pool: UnlabeledPool,
    link: LinkSpec,
    alpha_policy="auto",
    seed: int = 0,
    grid_size: int = 51,
    blocks: int = 200,
) -> dict:
    """General-link fit with a data-driven mixing ratio."""
    source, fixed, grid = _parse_policy(alpha_policy, grid_size)
    if data.n <= data.p:
        raise RegimeError(f"glm needs n > p, got n={data.n}, p={data.p}")
    spec = ResampleSpec(blocks, seed)
    moments, data_c = _centered(data, pool)
    s = GlmSample(data_c, moments, link, spec, grid)
    alpha = {"formula": s.alpha_hat, "grid": s.alpha_grid, "fixed": fixed}[source]
    coeffs = s.loss(alpha)
    stats, n = s.stats, data.n  # the factors are reported on the n-scale of H_g
    diags = {
        "v_l": n * stats.v_l,
        "v_u": n * stats.v_u,
        "B_hat": n * s.B_hat,
        "sigma2_hat": s.sigma2_hat,
        "tau2_hat": s.tau2_hat,
        "alpha_hat": stats.risk(s.sigma2_hat, s.B_hat).raw,
        "alpha_tilde": s.alpha_grid,
        "se": {"v_l": n * stats.se_v_l, "v_s": n * stats.se_v_s},
        "v_s": n * stats.v_s,
    }
    return _report("glm", link.kind, data, moments, alpha, source, coeffs, diags,
                   converged=s.nonconverged == 0)


def fit_interp_pipeline(
    data: LabeledSet,
    pool: UnlabeledPool,
    alpha_policy="auto",
    seed: int = 0,
    blocks: int = 200,
) -> dict:
    """Interpolator fit (p > n) with the closed-form noise/signal estimates."""
    source, fixed, _ = _parse_policy(alpha_policy, None)
    if data.p <= data.n:
        raise RegimeError(f"interp needs p > n, got n={data.n}, p={data.p}")
    if pool.m <= pool.p:
        raise DataValidationError("pool must have more rows than columns")
    spec = ResampleSpec(blocks, seed)
    moments, data_c = _centered(data, pool)
    Sigma = moments.Exx
    s = InterpSample(data_c, moments.Exx_factor)
    ns = s.sigma_tau(Sigma)
    terms = interp_risk_terms(Sigma, pool_sampler(moments.pool, data.n), spec)
    risk = terms.risk(ns.sigma2_hat, ns.tau2_hat)
    alpha = risk.ratio if source == "formula" else fixed
    diags = {
        "v_l": terms.v_l,
        "v_u": terms.v_u,
        "B_hat": risk.terms[1],
        "sigma2_hat": ns.sigma2_hat,
        "tau2_hat": ns.tau2_hat,
        "alpha_hat": risk.ratio,
        "alpha_tilde": None,
        "se": {"v_l": terms.se_v_l, "v_u": terms.se_v_u, "b_l": terms.se_b_l,
               "b_u": terms.se_b_u},
        "b_l": terms.b_l,
        "b_u": terms.b_u,
    }
    return _report("interp", "identity", data, moments, alpha, source, s.linear(alpha), diags)
