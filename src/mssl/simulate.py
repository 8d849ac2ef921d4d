"""Covariance generators, dataset draws, and the Monte Carlo experiment engine.

Each preset reproduces one synthetic study at desk scale: estimators are
refit on K seeded training draws, errors are aggregated with standard
errors, and every estimator pair gets a paired t-test.  Replications are
pure functions of (seed, grid index, replication index), so results are
bit-reproducible regardless of worker count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import stdtr

from ._blas import single_blas_thread
from .core import (
    LabeledSet,
    ResampleSpec,
    UnlabeledPool,
    build_moments,
    center_pool,
    seeded_rng,
)
from .errors import DataValidationError, MsslError
from .glm import GlmPoolStats, GlmProblem, _newton, alpha_dot_glm, clip_alpha
from .interp import alpha_star_interp, interp_risk_terms, pool_sampler
from .links import LinkSpec, elu_link
from .ols import DdotRiskModel, OlsPoolModel, alpha_star_ols, mix_linear
from .asymptotics import AsymptoticSetting, eta_from_ols_terms, interp_limits

__all__ = [
    "CovarianceSpec",
    "BetaMode",
    "constant_beta",
    "random_beta",
    "ExperimentConfig",
    "ResultRow",
    "PairRow",
    "PairSummary",
    "ExperimentResult",
    "gen_sigma",
    "draw_dataset",
    "summarize_pairwise",
    "run_experiment",
    "write_result_csv",
    "load_config",
    "preset_names",
    "PRESETS",
]

# RNG stream tags
_S_POOL = 1
_S_REP = 2
_S_TERMS = 3
_S_REPBLOCKS = 4
_S_EVAL = 5


def _derive_seed(seed: int, *idx: int) -> int:
    """Collapse (seed, indices) into a single integer sub-seed."""
    ss = np.random.SeedSequence((int(seed),) + tuple(int(i) for i in idx))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# covariance generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceSpec:
    """Recipe for a p x p covariance matrix.

    kinds: "block_equicorrelated" (equal-size blocks, pairwise correlation
    rho inside each), "spiked_diagonal" (unit variances on the first
    spike_fraction of coordinates, minor_scale elsewhere), "identity", or
    "custom" (explicit matrix).  ``target_trace`` rescales the result.
    """

    kind: str
    p: int
    blocks: int = 1
    rho: float = 0.0
    spike_fraction: float = 0.8
    minor_scale: float = 0.0
    matrix: np.ndarray | None = None
    target_trace: float | None = None


def gen_sigma(spec: CovarianceSpec) -> np.ndarray:
    if spec.p < 1:
        raise DataValidationError("p must be positive")
    if spec.kind == "block_equicorrelated":
        if spec.p % spec.blocks != 0:
            raise DataValidationError(
                f"p={spec.p} not divisible by blocks={spec.blocks}"
            )
        bs = spec.p // spec.blocks
        lo = -1.0 / (bs - 1) if bs > 1 else -1.0
        if not lo < spec.rho < 1.0:
            raise DataValidationError(
                f"rho={spec.rho} outside ({lo:.4g}, 1) makes the block non-PSD"
            )
        block = np.full((bs, bs), spec.rho)
        np.fill_diagonal(block, 1.0)
        sigma = np.kron(np.eye(spec.blocks), block)
    elif spec.kind == "spiked_diagonal":
        if not 0.0 < spec.spike_fraction <= 1.0:
            raise DataValidationError("spike_fraction must be in (0, 1]")
        if spec.minor_scale < 0:
            raise DataValidationError("minor_scale must be nonnegative")
        n_major = int(round(spec.spike_fraction * spec.p))
        diag = np.full(spec.p, spec.minor_scale)
        diag[:n_major] = 1.0
        sigma = np.diag(diag)
    elif spec.kind == "identity":
        sigma = np.eye(spec.p)
    elif spec.kind == "custom":
        if spec.matrix is None:
            raise DataValidationError("custom covariance needs a matrix")
        sigma = np.asarray(spec.matrix, dtype=float)
        if sigma.shape != (spec.p, spec.p):
            raise DataValidationError("custom matrix shape mismatch")
        if np.max(np.abs(sigma - sigma.T)) > 1e-10:
            raise DataValidationError("custom matrix must be symmetric")
        if np.linalg.eigvalsh(sigma).min() < -1e-10 * max(np.trace(sigma), 1.0):
            raise DataValidationError("custom matrix is not PSD")
    else:
        raise DataValidationError(f"unknown covariance kind {spec.kind!r}")
    if spec.target_trace is not None:
        sigma = sigma * (spec.target_trace / np.trace(sigma))
    return sigma


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaMode:
    """Coefficient mechanism: every entry equal to a constant, or iid draws."""

    kind: str  # "constant" | "random_iid"
    value: float


def constant_beta(c: float) -> BetaMode:
    return BetaMode("constant", float(c))


def random_beta(tau: float) -> BetaMode:
    return BetaMode("random_iid", float(tau))


def draw_dataset(
    Sigma: np.ndarray,
    n: int,
    beta_mode: BetaMode,
    link: LinkSpec,
    sigma2: float,
    rng: np.random.Generator,
    pool: UnlabeledPool | None = None,
) -> tuple[LabeledSet, np.ndarray]:
    """Draw one labeled sample with Y = g(X beta) + Gaussian noise.

    X rows come from the pool when one is given, otherwise they are fresh
    zero-mean Gaussians with the requested covariance.  The rng is consumed
    in the fixed order (X, beta, noise).
    """
    Sigma = np.asarray(Sigma, dtype=float)
    p = Sigma.shape[0]
    if pool is not None:
        X = pool.Z[rng.choice(pool.m, size=n, replace=False)]
    else:
        X = rng.standard_normal((n, p)) @ np.linalg.cholesky(Sigma).T
    if beta_mode.kind == "constant":
        beta = np.full(p, beta_mode.value)
    elif beta_mode.kind == "random_iid":
        beta = beta_mode.value * rng.standard_normal(p)
    else:
        raise DataValidationError(f"unknown beta mode {beta_mode.kind!r}")
    Y = link.g(X @ beta) + math.sqrt(sigma2) * rng.standard_normal(n)
    return LabeledSet(X, Y), beta


# ---------------------------------------------------------------------------
# pairwise summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairSummary:
    mean: float
    se: float
    t: float
    p: float


def summarize_pairwise(diffs) -> PairSummary:
    """Two-sided paired t-test summary of a vector of differences.

    Degenerate zero-variance inputs use the conventions p = 0 for a nonzero
    mean and p = 1 for an identically zero difference.
    """
    d = np.asarray(diffs, dtype=float)
    if d.size < 2:
        raise DataValidationError("need at least 2 paired differences")
    mean = float(d.mean())
    se = float(d.std(ddof=1) / math.sqrt(d.size))
    if se == 0.0:
        if mean == 0.0:
            return PairSummary(mean=0.0, se=0.0, t=0.0, p=1.0)
        return PairSummary(mean=mean, se=0.0, t=math.copysign(math.inf, mean), p=0.0)
    t = mean / se
    # stdtr(df, -|t|) is the upper tail scipy.stats.t.sf computes, without
    # the start-up cost of importing scipy.stats
    p = float(2.0 * stdtr(d.size - 1, -abs(t)))
    return PairSummary(mean=mean, se=se, t=float(t), p=p)


# ---------------------------------------------------------------------------
# experiment configuration and results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Preset name plus the knobs every preset understands.

    Unset fields fall back to the preset's defaults.  ``eval_cov`` picks the
    quadratic form used for reducible errors ("pool" moments or the "true"
    generating covariance); ``rep_blocks`` is the per-replication resampling
    budget for data-driven mixing ratios, ``resample_blocks`` the one-time
    budget for pool-level statistics.
    """

    preset: str
    k: int = 1000
    seed: int = 0
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    p_rule: str | None = None
    sigma2_grid: tuple[float, ...] | None = None
    pool_size: int | None = None
    estimators: tuple[str, ...] | None = None
    resample_blocks: int = 200
    rep_blocks: int = 40
    alpha_grid_size: int = 51
    eval_cov: str = "pool"
    x_source: str | None = None
    threads: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        if self.k < 2:
            raise DataValidationError("k must be >= 2")
        if self.sigma2_grid is not None and len(self.sigma2_grid) == 0:
            raise DataValidationError("sigma2_grid must be nonempty")
        if self.n_grid is not None and len(self.n_grid) == 0:
            raise DataValidationError("n_grid must be nonempty")
        if self.eval_cov not in ("pool", "true"):
            raise DataValidationError("eval_cov must be 'pool' or 'true'")


@dataclass(frozen=True)
class ResultRow:
    estimator: str
    grid_name: str
    grid_value: float
    mean_error: float
    se: float
    k_effective: int


@dataclass(frozen=True)
class PairRow:
    estimator_a: str
    estimator_b: str
    grid_value: float
    mean_diff: float
    se_diff: float
    t: float
    p: float


@dataclass(frozen=True)
class ExperimentResult:
    preset: str
    grid_name: str
    rows: tuple[ResultRow, ...]
    paired: tuple[PairRow, ...]
    extras: dict = field(default_factory=dict)


def _p_from_rule(rule: str, n: int) -> int:
    kind, _, arg = rule.partition(":")
    if kind == "fixed":
        return int(arg)
    if kind == "ratio":
        return int(round(float(arg) * n))
    raise DataValidationError(f"unknown p rule {rule!r}")


def _parallel_map(fn, items, threads: int) -> list:
    if threads <= 1:
        return [fn(i) for i in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))


def _run_reps(cfg: ExperimentConfig, rep_fn, k: int):
    """Run K replications, tolerating up to 5% failures."""

    def safe(i):
        try:
            return rep_fn(i)
        except (MsslError, np.linalg.LinAlgError):
            return None

    out = _parallel_map(safe, range(k), cfg.threads)
    ok = [r for r in out if r is not None]
    failures = k - len(ok)
    if failures > 0.05 * k:
        raise RuntimeError(f"{failures}/{k} replications failed; aborting the run")
    return ok


def _aggregate(
    grid_name: str,
    grid_value: float,
    per_rep: list[dict],
    estimators: list[str],
) -> tuple[list[ResultRow], list[PairRow]]:
    errs = {name: np.asarray([r[name] for r in per_rep]) for name in estimators}
    k_eff = len(per_rep)
    rows = [
        ResultRow(
            estimator=name,
            grid_name=grid_name,
            grid_value=grid_value,
            mean_error=float(errs[name].mean()),
            se=float(errs[name].std(ddof=1) / math.sqrt(k_eff)),
            k_effective=k_eff,
        )
        for name in estimators
    ]
    pairs = []
    for a, b in combinations(estimators, 2):
        s = summarize_pairwise(errs[a] - errs[b])
        pairs.append(
            PairRow(
                estimator_a=a,
                estimator_b=b,
                grid_value=grid_value,
                mean_diff=s.mean,
                se_diff=s.se,
                t=s.t,
                p=s.p,
            )
        )
    return rows, pairs


def _quad_err(L_eval: np.ndarray, diff: np.ndarray) -> float:
    u = L_eval.T @ diff
    return float(u @ u)


def _gaussian_pool(seed: int, m: int, Sigma: np.ndarray, *idx: int) -> UnlabeledPool:
    rng = seeded_rng(seed, _S_POOL, *idx)
    Z = rng.standard_normal((m, Sigma.shape[0])) @ np.linalg.cholesky(Sigma).T
    return UnlabeledPool(Z)


def _batched_argmins(coeffs: np.ndarray, n_batches: int = 10) -> tuple[float, float]:
    """Continuous argmin of the mean quadratic curve, with a batch-based SE.

    ``coeffs`` has one (a, b, c) row per replication for r(alpha) =
    a alpha^2 + b alpha + c.
    """
    a, b = coeffs[:, 0].mean(), coeffs[:, 1].mean()
    argmin = float(np.clip(-b / (2.0 * a), 0.0, 1.0))
    batches = np.array_split(coeffs, n_batches)
    vals = []
    for batch in batches:
        if len(batch) == 0:
            continue
        ab, bb = batch[:, 0].mean(), batch[:, 1].mean()
        vals.append(np.clip(-bb / (2.0 * ab), 0.0, 1.0))
    se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return argmin, se


# ---------------------------------------------------------------------------
# OLS presets
# ---------------------------------------------------------------------------

_OLS_CONSTANT_ESTIMATORS = (
    "supervised",
    "semisupervised",
    "linear_mixed_opt",
    "linear_mixed_est",
    "adaptive_select",
    "loss_mixed_est",
    "loss_mixed_grid",
    "loss_mixed_opt",
)


def _parse_fixed_mix(name: str) -> tuple[str, float] | None:
    for prefix in ("linear_mixed(", "loss_mixed("):
        if name.startswith(prefix) and name.endswith(")"):
            return prefix[:-1], float(name[len(prefix):-1])
    return None


def _run_ols_constant(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n or 100
    p = _p_from_rule(cfg.p_rule or "fixed:50", n)
    sigma2s = cfg.sigma2_grid or (1.0, 9.0, 25.0, 49.0)
    m = cfg.pool_size or 20000
    estimators = list(cfg.estimators or _OLS_CONSTANT_ESTIMATORS)
    for name in estimators:
        if name not in _OLS_CONSTANT_ESTIMATORS and _parse_fixed_mix(name) is None:
            raise DataValidationError(f"unknown estimator {name!r} for this preset")

    Sigma = gen_sigma(CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9))
    beta_true = np.full(p, 1.5)
    pool = _gaussian_pool(cfg.seed, m, Sigma)
    moments = build_moments(pool, n)
    pool_c = moments.pool
    spec = ResampleSpec(n, cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS))
    model = OlsPoolModel(pool_c, n, spec, moments)
    # uniform grid for the measured mixed-coefficient curve; a zero-anchored
    # geometric grid for the loss-mixed search (the best ratio can sit well
    # below one uniform step at low noise)
    alphas = np.linspace(0.0, 1.0, cfg.alpha_grid_size)
    ddot_grid = np.concatenate([[0.0], np.geomspace(2e-4, 1.0, cfg.alpha_grid_size - 1)])
    ddot = DdotRiskModel(pool_c, n, ddot_grid, spec, moments)
    B_true = model.bias_at(beta_true)

    eval_sigma = moments.Exx if cfg.eval_cov == "pool" else Sigma
    L_eval = np.linalg.cholesky(eval_sigma)
    H_factor = cho_factor(moments.H, lower=True)
    chol_x = np.linalg.cholesky(Sigma)
    from_pool = (cfg.x_source or "pool") == "pool"
    v_l, v_u = model.v_l, model.v_u

    rows: list[ResultRow] = []
    paired: list[PairRow] = []
    extras: dict = {
        "alpha_star": {},
        "alpha_ddot_oracle": {},
        "alpha_curve": {},
        "terms": model.terms(beta_true),
        "B_true": B_true,
    }

    for gi, sigma2 in enumerate(sigma2s):
        alpha_star = alpha_star_ols(sigma2, B_true, v_l, v_u)[0]
        alpha_ddot_oracle = ddot.argmin_alpha(beta_true, sigma2)
        extras["alpha_star"][sigma2] = alpha_star
        extras["alpha_ddot_oracle"][sigma2] = alpha_ddot_oracle

        def rep(k: int, sigma2=sigma2, alpha_star=alpha_star, oracle_a=alpha_ddot_oracle):
            rng = seeded_rng(cfg.seed, _S_REP, gi, k)
            if from_pool:
                X = pool_c.Z[rng.choice(pool_c.m, size=n, replace=False)]
            else:
                X = rng.standard_normal((n, p)) @ chol_x.T
            Y = X @ beta_true + math.sqrt(sigma2) * rng.standard_normal(n)
            xbar, ybar = X.mean(axis=0), Y.mean()
            G = X.T @ X
            XtY = X.T @ Y
            g_factor = cho_factor(G, lower=True)
            beta_hat = cho_solve(g_factor, XtY)
            beta_breve = cho_solve(H_factor, XtY - n * xbar * ybar)
            resid = Y - X @ beta_hat
            sigma2_hat = float(resid @ resid) / (n - p)
            B_rep = model.bias_at(beta_breve)
            alpha_hat = alpha_star_ols(sigma2_hat, B_rep, v_l, v_u)[0]

            def ddot_fit(alpha: float) -> np.ndarray:
                blend = alpha * moments.H + (1.0 - alpha) * G
                rhs = XtY - alpha * n * xbar * ybar
                return cho_solve(cho_factor(blend, lower=True), rhs)

            out: dict[str, float] = {}
            cache: dict[str, np.ndarray] = {}
            for name in estimators:
                parsed = _parse_fixed_mix(name)
                if name == "supervised":
                    bt = beta_hat
                elif name == "semisupervised":
                    bt = beta_breve
                elif name == "linear_mixed_opt":
                    bt = mix_linear(beta_hat, beta_breve, alpha_star)
                elif name == "linear_mixed_est":
                    bt = mix_linear(beta_hat, beta_breve, alpha_hat)
                elif name == "adaptive_select":
                    bt = beta_breve if sigma2_hat > B_rep / (v_l - v_u) else beta_hat
                elif name == "loss_mixed_est":
                    bt = ddot_fit(alpha_hat)
                elif name == "loss_mixed_grid":
                    alpha_tilde = ddot.argmin_alpha(beta_breve, sigma2_hat)
                    bt = ddot_fit(alpha_tilde)
                elif name == "loss_mixed_opt":
                    bt = ddot_fit(oracle_a)
                elif parsed is not None:
                    kind, a = parsed
                    bt = (
                        mix_linear(beta_hat, beta_breve, a)
                        if kind == "linear_mixed"
                        else ddot_fit(a)
                    )
                cache[name] = bt
                out[name] = _quad_err(L_eval, bt - beta_true)

            # quadratic coefficients of the mixed-coefficient error curve
            u0 = L_eval.T @ (beta_hat - beta_true)
            u1 = L_eval.T @ (beta_breve - beta_true)
            d = u1 - u0
            out["_curve"] = (float(d @ d), float(2.0 * u0 @ d), float(u0 @ u0))
            return out

        per_rep = _run_reps(cfg, rep, cfg.k)
        r, pr = _aggregate("sigma2", sigma2, per_rep, estimators)
        rows += r
        paired += pr

        coeffs = np.asarray([rep["_curve"] for rep in per_rep])
        curve_mean = (
            coeffs[:, 0].mean() * alphas**2
            + coeffs[:, 1].mean() * alphas
            + coeffs[:, 2].mean()
        )
        argmin_cont, argmin_se = _batched_argmins(coeffs)
        extras["alpha_curve"][sigma2] = {
            "alphas": alphas,
            "mean_r": curve_mean,
            "argmin_grid": float(alphas[int(np.argmin(curve_mean))]),
            "argmin_cont": argmin_cont,
            "argmin_se": argmin_se,
        }

    return ExperimentResult(cfg.preset, "sigma2", tuple(rows), tuple(paired), extras)


_OLS_RANDOM_ESTIMATORS = (
    "supervised",
    "semisupervised",
    "linear_mixed_opt",
    "linear_mixed_est",
    "linear_mixed_est_tau",
)


def _run_ols_random(cfg: ExperimentConfig) -> ExperimentResult:
    ns = cfg.n_grid or (100, 200, 500)
    sigma2 = (cfg.sigma2_grid or (25.0,))[0]
    tau2 = 1.0
    estimators = list(cfg.estimators or _OLS_RANDOM_ESTIMATORS)
    for name in estimators:
        if name not in _OLS_RANDOM_ESTIMATORS:
            raise DataValidationError(f"unknown estimator {name!r} for this preset")

    rows: list[ResultRow] = []
    paired: list[PairRow] = []
    extras: dict = {"eta_measured": {}, "eta_theory": {}, "alpha_star": {}, "terms": {}}

    for gi, n in enumerate(ns):
        p = _p_from_rule(cfg.p_rule or "ratio:0.5", n)
        Sigma = gen_sigma(
            CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9, target_trace=25.0)
        )
        m = cfg.pool_size or 10000
        pool = _gaussian_pool(cfg.seed, m, Sigma, gi)
        moments = build_moments(pool, n)
        pool_c = moments.pool
        spec = ResampleSpec(n, cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS, gi))
        model = OlsPoolModel(pool_c, n, spec, moments, keep_blocks=False)
        v_l, v_u, b_u = model.v_l, model.v_u, model.b_u_hat
        tr_sigma = float(np.trace(moments.Sigma))
        alpha_star = alpha_star_ols(sigma2, tau2 * b_u, v_l, v_u)[0]
        extras["alpha_star"][n] = alpha_star
        extras["eta_theory"][n] = eta_from_ols_terms(sigma2, tau2, v_l, v_u, b_u)
        extras["terms"][n] = {"v_l": v_l, "v_u": v_u, "b_u": b_u}

        eval_sigma = moments.Exx if cfg.eval_cov == "pool" else Sigma
        L_eval = np.linalg.cholesky(eval_sigma)
        H_factor = cho_factor(moments.H, lower=True)

        chol_x = np.linalg.cholesky(Sigma)
        from_pool = (cfg.x_source or "pool") == "pool"

        def rep(k: int, n=n, p=p, alpha_star=alpha_star, pool_c=pool_c,
                L_eval=L_eval, H_factor=H_factor, v_l=v_l, v_u=v_u, b_u=b_u,
                tr_sigma=tr_sigma, gi=gi, chol_x=chol_x, from_pool=from_pool):
            rng = seeded_rng(cfg.seed, _S_REP, gi, k)
            if from_pool:
                X = pool_c.Z[rng.choice(pool_c.m, size=n, replace=False)]
            else:
                X = rng.standard_normal((n, p)) @ chol_x.T
            beta = math.sqrt(tau2) * rng.standard_normal(p)
            Y = X @ beta + math.sqrt(sigma2) * rng.standard_normal(n)
            G = X.T @ X
            XtY = X.T @ Y
            beta_hat = cho_solve(cho_factor(G, lower=True), XtY)
            beta_breve = cho_solve(H_factor, XtY - n * X.mean(axis=0) * Y.mean())
            resid = Y - X @ beta_hat
            sigma2_hat = float(resid @ resid) / (n - p)
            tau2_hat = max((float(Y @ Y) / n - sigma2_hat) / tr_sigma, 0.0)
            alpha_tau = alpha_star_ols(sigma2_hat, tau2 * b_u, v_l, v_u)[0]
            alpha_est = alpha_star_ols(sigma2_hat, tau2_hat * b_u, v_l, v_u)[0]
            betas = {
                "supervised": beta_hat,
                "semisupervised": beta_breve,
                "linear_mixed_opt": mix_linear(beta_hat, beta_breve, alpha_star),
                "linear_mixed_est": mix_linear(beta_hat, beta_breve, alpha_est),
                "linear_mixed_est_tau": mix_linear(beta_hat, beta_breve, alpha_tau),
            }
            return {
                name: _quad_err(L_eval, betas[name] - beta) for name in estimators
            }

        per_rep = _run_reps(cfg, rep, cfg.k)
        r, pr = _aggregate("n", n, per_rep, estimators)
        rows += r
        paired += pr
        sup_mean = next(x.mean_error for x in r if x.estimator == "supervised")
        extras["eta_measured"][n] = {
            x.estimator: x.mean_error / sup_mean for x in r
        }

    return ExperimentResult(cfg.preset, "n", tuple(rows), tuple(paired), extras)


# ---------------------------------------------------------------------------
# GLM presets
# ---------------------------------------------------------------------------

_GLM_ESTIMATORS = (
    "supervised",
    "semisupervised",
    "linear_mixed_est",
    "linear_mixed_opt",
    "loss_mixed_est",
    "loss_mixed_grid",
    "loss_mixed_opt",
)


def _glm_pred_error(Z_eval: np.ndarray, mu_true: np.ndarray, link: LinkSpec, beta) -> float:
    eta = Z_eval @ beta
    return float(np.mean(link.G(eta) - eta * mu_true))


def _glm_setup(cfg: ExperimentConfig):
    n = cfg.n or 50
    p = _p_from_rule(cfg.p_rule or "fixed:10", n)
    link = elu_link()
    Sigma = gen_sigma(CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9))
    beta_true = np.full(p, 2.0)
    chol = np.linalg.cholesky(Sigma)
    m_eval = 10000
    Z_eval = seeded_rng(cfg.seed, _S_EVAL).standard_normal((m_eval, p)) @ chol.T
    mu_true = link.g(Z_eval @ beta_true)
    return n, p, link, Sigma, chol, beta_true, Z_eval, mu_true


def _glm_rep_draw(cfg, gi, k, n, p, chol, beta_true, link, sigma2, m_fit):
    rng = seeded_rng(cfg.seed, _S_REP, gi, k)
    Z = rng.standard_normal((m_fit, p)) @ chol.T
    X = rng.standard_normal((n, p)) @ chol.T
    Y = link.g(X @ beta_true) + math.sqrt(sigma2) * rng.standard_normal(n)
    return LabeledSet(X, Y), UnlabeledPool(Z)


def _run_glm_elu(cfg: ExperimentConfig) -> ExperimentResult:
    n, p, link, Sigma, chol, beta_true, Z_eval, mu_true = _glm_setup(cfg)
    sigma2s = cfg.sigma2_grid or (1.0, 9.0, 25.0, 49.0)
    m_fit = cfg.pool_size or 5000
    estimators = list(cfg.estimators or _GLM_ESTIMATORS)
    for name in estimators:
        if name not in _GLM_ESTIMATORS:
            raise DataValidationError(f"unknown estimator {name!r} for this preset")
    alphas = np.round(np.linspace(0.0, 1.0, 21), 10)

    # oracle statistics from one large fixed pool at the true coefficients
    oracle_pool = _gaussian_pool(cfg.seed, 20000, Sigma)
    oracle_stats = GlmPoolStats(
        oracle_pool, n, link, beta_true,
        ResampleSpec(n, cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS)),
        alphas=alphas,
    )
    oq = oracle_stats.quadratic()

    rows: list[ResultRow] = []
    paired: list[PairRow] = []
    extras: dict = {
        "oracle_terms": oq,
        "alpha_dot_oracle": {},
        "alpha_ddot_oracle": {},
    }

    for gi, sigma2 in enumerate(sigma2s):
        alpha_dot = clip_alpha(alpha_dot_glm(sigma2, oq.B_g_hat, oq.v_l_g, oq.v_u_g, oq.v_s_g)[0])
        alpha_ddot = oracle_stats.ddot_curve(sigma2).argmin_alpha
        extras["alpha_dot_oracle"][sigma2] = alpha_dot
        extras["alpha_ddot_oracle"][sigma2] = alpha_ddot

        def rep(k: int, sigma2=sigma2, alpha_dot=alpha_dot, alpha_ddot=alpha_ddot, gi=gi):
            data, raw_pool = _glm_rep_draw(cfg, gi, k, n, p, chol, beta_true, link, sigma2, m_fit)
            moments = build_moments(raw_pool, n)
            pool = moments.pool
            prob = GlmProblem(data, pool, link)
            start = prob.ols_start()
            rep_hat = _newton(prob.sup_value, prob.sup_grad, prob.sup_hess, start)
            rep_breve = _newton(prob.semi_value, prob.semi_grad, prob.semi_hess, start)
            beta_hat, beta_breve = rep_hat.beta, rep_breve.beta

            stats = GlmPoolStats(
                pool, n, link, beta_breve,
                ResampleSpec(n, cfg.rep_blocks, _derive_seed(cfg.seed, _S_REPBLOCKS, gi, k)),
                alphas=alphas, moments=moments,
            )
            denom = stats.sigma2_denominator()
            if denom <= 0:
                raise DataValidationError("nonpositive noise denominator")
            resid = link.g(data.X @ beta_hat) - data.Y
            sigma2_hat = max(float(resid @ resid) / denom, 0.0)
            alpha_hat = clip_alpha(
                alpha_dot_glm(sigma2_hat, stats.B_g_hat, stats.v_l_g, stats.v_u_g, stats.v_s_g)[0]
            )
            alpha_tilde = stats.ddot_curve(sigma2_hat).argmin_alpha

            def mixed_fit(alpha: float) -> np.ndarray:
                rpt = _newton(
                    lambda b: prob.mixed_value(b, alpha),
                    lambda b: prob.mixed_grad(b, alpha),
                    lambda b: prob.mixed_hess(b, alpha),
                    beta_breve if alpha > 0.5 else beta_hat,
                )
                return rpt.beta

            betas = {}
            for name in estimators:
                if name == "supervised":
                    betas[name] = beta_hat
                elif name == "semisupervised":
                    betas[name] = beta_breve
                elif name == "linear_mixed_est":
                    betas[name] = mix_linear(beta_hat, beta_breve, alpha_hat)
                elif name == "linear_mixed_opt":
                    betas[name] = mix_linear(beta_hat, beta_breve, alpha_dot)
                elif name == "loss_mixed_est":
                    betas[name] = mixed_fit(alpha_hat)
                elif name == "loss_mixed_grid":
                    betas[name] = mixed_fit(alpha_tilde)
                elif name == "loss_mixed_opt":
                    betas[name] = mixed_fit(alpha_ddot)
            return {
                name: _glm_pred_error(Z_eval, mu_true, link, betas[name])
                for name in estimators
            }

        per_rep = _run_reps(cfg, rep, cfg.k)
        r, pr = _aggregate("sigma2", sigma2, per_rep, estimators)
        rows += r
        paired += pr

    return ExperimentResult(cfg.preset, "sigma2", tuple(rows), tuple(paired), extras)


def _run_glm_alpha_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    n, p, link, Sigma, chol, beta_true, Z_eval, mu_true = _glm_setup(cfg)
    sigma2 = (cfg.sigma2_grid or (25.0,))[0]
    m_fit = cfg.pool_size or 5000
    alphas = np.round(np.linspace(0.0, 1.0, 21), 10)
    estimators = ["linear_mixed", "loss_mixed"]

    oracle_pool = _gaussian_pool(cfg.seed, 20000, Sigma)
    oracle_stats = GlmPoolStats(
        oracle_pool, n, link, beta_true,
        ResampleSpec(n, cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS)),
        alphas=alphas,
    )
    oq = oracle_stats.quadratic()
    alpha_dot = clip_alpha(alpha_dot_glm(sigma2, oq.B_g_hat, oq.v_l_g, oq.v_u_g, oq.v_s_g)[0])
    alpha_ddot = oracle_stats.ddot_curve(sigma2).argmin_alpha

    def rep(k: int):
        data, raw_pool = _glm_rep_draw(cfg, 0, k, n, p, chol, beta_true, link, sigma2, m_fit)
        prob = GlmProblem(data, center_pool(raw_pool)[0], link)
        start = prob.ols_start()
        beta_hat = _newton(prob.sup_value, prob.sup_grad, prob.sup_hess, start).beta
        beta_breve = _newton(prob.semi_value, prob.semi_grad, prob.semi_hess, start).beta
        lin = np.empty(alphas.size)
        dd = np.empty(alphas.size)
        warm = beta_hat
        for j, a in enumerate(alphas):
            lin[j] = _glm_pred_error(
                Z_eval, mu_true, link, mix_linear(beta_hat, beta_breve, a)
            )
            warm = _newton(
                lambda b: prob.mixed_value(b, a),
                lambda b: prob.mixed_grad(b, a),
                lambda b: prob.mixed_hess(b, a),
                warm,
            ).beta
            dd[j] = _glm_pred_error(Z_eval, mu_true, link, warm)
        return {"linear_mixed": lin, "loss_mixed": dd}

    per_rep = _run_reps(cfg, rep, cfg.k)
    rows: list[ResultRow] = []
    paired: list[PairRow] = []
    mean_curves: dict[str, np.ndarray] = {}
    for name in estimators:
        stack = np.stack([r[name] for r in per_rep])
        mean_curves[name] = stack.mean(axis=0)
        for j, a in enumerate(alphas):
            col = stack[:, j]
            rows.append(
                ResultRow(
                    estimator=name,
                    grid_name="alpha",
                    grid_value=float(a),
                    mean_error=float(col.mean()),
                    se=float(col.std(ddof=1) / math.sqrt(col.size)),
                    k_effective=col.size,
                )
            )
    for j, a in enumerate(alphas):
        d = np.stack([r["linear_mixed"][j] - r["loss_mixed"][j] for r in per_rep])
        s = summarize_pairwise(d)
        paired.append(
            PairRow("linear_mixed", "loss_mixed", float(a), s.mean, s.se, s.t, s.p)
        )
    extras = {
        "alphas": alphas,
        "alpha_dot_oracle": alpha_dot,
        "alpha_ddot_oracle": alpha_ddot,
        "mc_argmin": {
            name: float(alphas[int(np.argmin(curve))])
            for name, curve in mean_curves.items()
        },
        "mean_curves": mean_curves,
    }
    return ExperimentResult(cfg.preset, "alpha", tuple(rows), tuple(paired), extras)


# ---------------------------------------------------------------------------
# interpolator presets
# ---------------------------------------------------------------------------

_INTERP_ESTIMATORS = (
    "min_norm",
    "min_variance",
    "interp_mixed_est",
    "interp_mixed_est_tau",
    "interp_mixed_opt",
)


def _interp_rep(rng, draw_x, Sigma_fit, sig_factor, n, p, tau2, sigma2, terms, L_eval):
    """One interpolator replication; returns per-estimator errors and the
    realization-wise variance-dominance slack."""
    X = draw_x(rng)
    w_true = math.sqrt(tau2) * rng.standard_normal(p)
    Y = X @ w_true + math.sqrt(sigma2) * rng.standard_normal(n)

    gf = cho_factor(X @ X.T, lower=True)
    w_hat = X.T @ cho_solve(gf, Y)
    A = cho_solve(sig_factor, X.T)
    w_tilde = A @ cho_solve(cho_factor(X @ A, lower=True), Y)

    Gi = cho_solve(gf, np.eye(n))
    Gi2 = Gi @ Gi
    yq = float(Y @ Gi2 @ Y)
    tr1, tr2 = float(np.trace(Gi)), float(np.trace(Gi2))
    y2 = float(Y @ Y) / n
    tr_sigma = float(np.trace(Sigma_fit))

    tau2_it = float(w_hat @ Sigma_fit @ w_hat) / tr_sigma
    sigma2_it = 0.0
    for _ in range(100):
        s_new = max((yq - tau2_it * tr1) / tr2, 0.0)
        t_new = max((y2 - s_new) / tr_sigma, 0.0)
        done = abs(s_new - sigma2_it) < 1e-10 and abs(t_new - tau2_it) < 1e-10
        sigma2_it, tau2_it = s_new, t_new
        if done:
            break
    alpha_est = alpha_star_interp(sigma2_it, tau2_it, terms)[0]
    sigma2_tau = max((yq - tau2 * tr1) / tr2, 0.0)
    alpha_tau = alpha_star_interp(sigma2_tau, tau2, terms)[0]
    alpha_opt = alpha_star_interp(sigma2, tau2, terms)[0]

    ws = {
        "min_norm": w_hat,
        "min_variance": w_tilde,
        "interp_mixed_est": mix_linear(w_hat, w_tilde, alpha_est),
        "interp_mixed_est_tau": mix_linear(w_hat, w_tilde, alpha_tau),
        "interp_mixed_opt": mix_linear(w_hat, w_tilde, alpha_opt),
    }
    out = {name: _quad_err(L_eval, w - w_true) for name, w in ws.items()}
    var_hat = float(w_hat @ Sigma_fit @ w_hat)
    var_tilde = float(w_tilde @ Sigma_fit @ w_tilde)
    out["_dominance_slack"] = var_hat - var_tilde
    return out


def _interp_grid_point(cfg, gi, n, p, sigma2, tau2, Sigma, estimators):
    m = cfg.pool_size or 5000
    if m <= p:
        raise DataValidationError(f"pool size {m} must exceed p={p}")
    pool = _gaussian_pool(cfg.seed, m, Sigma, gi)
    moments = build_moments(pool, n)
    pool_c = moments.pool
    Sigma_fit = moments.Sigma
    sig_factor = cho_factor(Sigma_fit, lower=True)
    spec = ResampleSpec(n, cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS, gi))
    terms = interp_risk_terms(Sigma_fit, n, p, pool_sampler(pool_c, n), spec)
    eval_sigma = Sigma_fit if cfg.eval_cov == "pool" else Sigma
    L_eval = np.linalg.cholesky(eval_sigma)
    if (cfg.x_source or "pool") == "pool":
        draw_x = pool_sampler(pool_c, n)
    else:
        chol_x = np.linalg.cholesky(Sigma)

        def draw_x(rng):
            return rng.standard_normal((n, p)) @ chol_x.T

    def rep(k: int):
        rng = seeded_rng(cfg.seed, _S_REP, gi, k)
        return _interp_rep(
            rng, draw_x, Sigma_fit, sig_factor, n, p, tau2, sigma2, terms, L_eval
        )

    per_rep = _run_reps(cfg, rep, cfg.k)
    return per_rep, terms


def _run_interp_fixed(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n or 50
    p = _p_from_rule(cfg.p_rule or "fixed:100", n)
    sigma2s = cfg.sigma2_grid or (1.0, 4.0, 25.0)
    tau2 = 1.0
    estimators = list(cfg.estimators or _INTERP_ESTIMATORS)
    Sigma = gen_sigma(
        CovarianceSpec("spiked_diagonal", p, spike_fraction=0.8, minor_scale=1.0 / n)
    )

    rows, paired = [], []
    extras: dict = {"alpha_oracle": {}, "dominance_min_slack": {}, "terms": None}
    for gi, sigma2 in enumerate(sigma2s):
        per_rep, terms = _interp_grid_point(cfg, gi, n, p, sigma2, tau2, Sigma, estimators)
        extras["terms"] = terms
        extras["alpha_oracle"][sigma2] = alpha_star_interp(sigma2, tau2, terms)[0]
        extras["dominance_min_slack"][sigma2] = min(
            r["_dominance_slack"] for r in per_rep
        )
        r, pr = _aggregate("sigma2", sigma2, per_rep, estimators)
        rows += r
        paired += pr
    return ExperimentResult(cfg.preset, "sigma2", tuple(rows), tuple(paired), extras)


def _run_interp_growth(cfg: ExperimentConfig) -> ExperimentResult:
    ns = cfg.n_grid or (100, 200, 300)
    sigma2 = (cfg.sigma2_grid or (25.0,))[0]
    tau2 = 1.0
    estimators = list(cfg.estimators or _INTERP_ESTIMATORS)

    rows, paired = [], []
    extras: dict = {"eta_measured": {}, "terms": {}, "eta_limit": None}
    for gi, n in enumerate(ns):
        p = _p_from_rule(cfg.p_rule or "ratio:2.0", n)
        Sigma = gen_sigma(
            CovarianceSpec(
                "spiked_diagonal", p, spike_fraction=0.8, minor_scale=1.0 / n,
                target_trace=25.0,
            )
        )
        per_rep, terms = _interp_grid_point(cfg, gi, n, p, sigma2, tau2, Sigma, estimators)
        extras["terms"][n] = terms
        r, pr = _aggregate("n", n, per_rep, estimators)
        rows += r
        paired += pr
        base = next(x.mean_error for x in r if x.estimator == "min_norm")
        extras["eta_measured"][n] = {x.estimator: x.mean_error / base for x in r}
    extras["eta_limit"] = interp_limits(
        AsymptoticSetting(gamma=2.0, gamma_tilde=1.6, sigma2=sigma2, tau2=tau2, c2=25.0)
    ).eta_inf
    return ExperimentResult(cfg.preset, "n", tuple(rows), tuple(paired), extras)


# ---------------------------------------------------------------------------
# dispatch, CSV output, config files
# ---------------------------------------------------------------------------

PRESETS = {
    "ols_constant_beta": _run_ols_constant,
    "ols_random_beta": _run_ols_random,
    "glm_elu": _run_glm_elu,
    "glm_alpha_sweep": _run_glm_alpha_sweep,
    "interp_fixed": _run_interp_fixed,
    "interp_growth": _run_interp_growth,
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESETS)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run a preset described by the config; fully reproducible from its seed.

    The run uses one BLAS thread unless OPENBLAS_NUM_THREADS or
    OMP_NUM_THREADS is set; the previous thread counts are restored after.
    """
    if cfg.preset not in PRESETS:
        raise DataValidationError(
            f"unknown preset {cfg.preset!r}; available: {', '.join(PRESETS)}"
        )
    with single_blas_thread():
        return PRESETS[cfg.preset](cfg)


def write_result_csv(result: ExperimentResult, out_dir) -> tuple[Path, Path]:
    """Write the rows CSV and the sibling _pairs.csv; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    main = out / f"{result.preset}.csv"
    pairs = out / f"{result.preset}_pairs.csv"
    with open(main, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["preset", "estimator", "grid_name", "grid_value", "mean_error", "se", "k_effective"]
        )
        for r in result.rows:
            w.writerow(
                [result.preset, r.estimator, r.grid_name, r.grid_value,
                 f"{r.mean_error:.10g}", f"{r.se:.10g}", r.k_effective]
            )
    with open(pairs, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["estimator_a", "estimator_b", "grid_value", "mean_diff", "se_diff", "t", "p"]
        )
        for r in result.paired:
            w.writerow(
                [r.estimator_a, r.estimator_b, r.grid_value,
                 f"{r.mean_diff:.10g}", f"{r.se_diff:.10g}", f"{r.t:.10g}", f"{r.p:.10g}"]
            )
    return main, pairs


_CONFIG_KEYS = {
    "preset": str,
    "k": int,
    "seed": int,
    "n": int,
    "pool_size": int,
    "p_rule": str,
    "eval_cov": str,
    "x_source": str,
    "threads": int,
    "resample_blocks": int,
    "rep_blocks": int,
    "alpha_grid_size": int,
    "out_dir": str,
}


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a key=value sections file.

    Expected shape: an ``[experiment]`` section whose keys mirror the config
    fields; grids are comma-separated lists (``sigma2_grid``, ``n_grid``,
    ``estimators``).
    """
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read or "experiment" not in parser:
        raise DataValidationError(f"{path}: missing [experiment] section")
    section = parser["experiment"]
    kwargs: dict = {}
    for key, raw in section.items():
        if key in _CONFIG_KEYS:
            kwargs[key] = _CONFIG_KEYS[key](raw)
        elif key == "sigma2_grid":
            kwargs[key] = tuple(float(v) for v in raw.split(","))
        elif key == "n_grid":
            kwargs[key] = tuple(int(v) for v in raw.split(","))
        elif key == "estimators":
            kwargs[key] = tuple(v.strip() for v in raw.split(","))
        else:
            raise DataValidationError(f"{path}: unknown config key {key!r}")
    if "preset" not in kwargs:
        raise DataValidationError(f"{path}: config must name a preset")
    return ExperimentConfig(**kwargs)
