"""Covariance generators, dataset draws, and the Monte Carlo experiment engine.

Each preset reproduces one synthetic study at desk scale: estimators are
refit on K seeded training draws, errors are aggregated with standard
errors, and every estimator pair gets a paired t-test.  Replications are
pure functions of (seed, grid index, replication index), so results are
bit-reproducible from the seed.  They run one after another in a single
loop (``_run_reps``): they are bound by the interpreter, so a thread pool
only added contention.

Presets are compositions of the library.  A grid point builds what its
replications share (pool moments with the cached factor of H, resampled pool
statistics, oracle ratios, the factor of the pool covariance).  A replication
draws X through ``pool_sampler``/``gaussian_sampler`` and builds its family's
per-sample object, the one ``mssl fit`` uses (``OlsSample``, ``GlmSample``,
``InterpSample``).  One table per family maps each estimator name to a fit of
that object and the grid point's data, checked before any replication runs.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._blas import single_blas_thread
from .core import (
    LabeledSet, ResampleSpec, UnlabeledPool, build_moments, seeded_rng, spd_factor,
)
from .errors import DataValidationError, MsslError
from .glm import GlmPoolStats, GlmSample, clip_alpha
from .interp import (
    InterpRiskTerms, InterpSample, alpha_star_interp, gaussian_sampler, interp_risk_terms,
    pool_sampler,
)
from .links import LinkSpec, elu_link, identity_link
from .ols import OlsPoolModel, OlsSample, alpha_star_ols
from .asymptotics import AsymptoticSetting, eta_from_ols_terms, interp_limits

__all__ = [
    "CovarianceSpec", "BetaMode", "constant_beta", "random_beta", "ExperimentConfig",
    "ResultRow", "PairRow", "PairSummary", "ExperimentResult", "gen_sigma",
    "summarize_pairwise", "run_experiment", "write_result_csv", "load_config", "preset_names",
    "PRESETS",
]

# RNG stream tags
_S_POOL = 1
_S_REP = 2
_S_TERMS = 3
_S_REPBLOCKS = 4
_S_EVAL = 5

_IDENTITY = identity_link()


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
            raise DataValidationError(f"p={spec.p} not divisible by blocks={spec.blocks}")
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


def _label(X: np.ndarray, beta_mode: BetaMode, link: LinkSpec, sigma2: float, rng):
    """Draw the coefficients, then Y = g(X beta) + Gaussian noise, from rng."""
    n, p = X.shape
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
    # the in-house tail matches scipy.special.stdtr to about 3e-13 relative
    # (down to p = 1e-300), and spares each simulate process the import of
    # scipy.special, which costs more than all of mssl's own start-up
    return PairSummary(mean=mean, se=se, t=float(t), p=2.0 * _t_tail(d.size - 1, t))


_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _t_tail(df: int, t: float) -> float:
    """P(T > |t|) for Student's t with df degrees of freedom: I_x(df/2, 1/2) / 2.

    x = df / (df + t^2) and y = t^2 / (df + t^2) are formed separately, so
    that y keeps its precision as t -> 0, and x^a y^(1/2) / B(a, 1/2) is taken
    in logs with a log x = -a log1p(t^2 / df).
    """
    if math.isnan(t):
        return math.nan
    t2 = t * t
    if math.isinf(t2):
        return 0.0
    x, y = df / (df + t2), t2 / (df + t2)
    if y == 0.0:
        return 0.5
    a = 0.5 * df
    front = math.exp(-a * math.log1p(t2 / df) + 0.5 * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return 0.5 * front * _beta_cf(a, 0.5, x, y) / a
    # I_x(a, 1/2) = 1 - I_y(1/2, a), where the fraction in y converges fast
    return 0.5 - front * _beta_cf(0.5, a, y, x)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2), from log G(a + 1/2) - log G(a) without cancellation."""
    if a < 30.0:
        return _LOG_SQRT_PI - (math.lgamma(a + 0.5) - math.lgamma(a))
    r = 1.0 / (a * a)
    series = (((17.0 / 14336.0 * r - 1.0 / 640.0) * r + 1.0 / 192.0) * r - 0.125) / a
    return _LOG_SQRT_PI - (0.5 * math.log(a) + series)


def _beta_cf(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction of I_x(a, b) (DLMF 8.17.22), with y = 1 - x.

    It is summed from its last term back, with 16, 32, 64, ... terms until two
    sums agree.  Forward (Lentz) evaluation loses about a * eps as x -> 1:
    1.3e-12 against stdtr at df = 9999.  For x > 1/2 an odd step forms
    1 - c x / (den u) as ((den - c) + c y + den (u - 1)) / (den u), where
    den - c is exact, so that 1 is never cancelled against c x / (den u).
    """
    prev = math.inf
    for n in (16 << i for i in range(12)):
        u = 1.0
        for k in range(n, 0, -1):
            m = k // 2
            den = (a + k - 1.0) * (a + k)
            if k % 2 == 0:
                u = 1.0 + m * (b - m) * x / (den * u)
                continue
            c = (a + m) * (a + b + m)
            if x > 0.5:
                u = ((den - c) + c * y + den * (u - 1.0)) / (den * u)
            else:
                u = 1.0 - c * x / (den * u)
        if abs(1.0 - prev * u) <= 1e-13:
            return 1.0 / u
        prev = 1.0 / u
    raise ArithmeticError(f"incomplete beta fraction did not converge (a={a}, x={x})")


# ---------------------------------------------------------------------------
# experiment configuration and results
# ---------------------------------------------------------------------------


# the grid each preset sweeps; it runs at one sigma2 and one n otherwise
_SWEEPS = {
    "ols_constant_beta": "sigma2",
    "ols_random_beta": "n",
    "glm_elu": "sigma2",
    "glm_alpha_sweep": "alpha",
    "interp_fixed": "sigma2",
    "interp_growth": "n",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Preset name plus the knobs of the presets.

    Unset fields fall back to the preset's defaults, and a field the preset
    does not read is rejected.  ``eval_cov`` picks the quadratic form used for
    reducible errors ("pool" moments or the "true" generating covariance);
    ``rep_blocks`` is the per-replication resampling budget for data-driven
    mixing ratios, ``resample_blocks`` the one-time budget for pool-level
    statistics.
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
    rep_blocks: int | None = None
    alpha_grid_size: int | None = None
    eval_cov: str | None = None
    x_source: str | None = None

    def __post_init__(self):
        if self.k < 2:
            raise DataValidationError("k must be >= 2")
        # a block pass averages over at least 2 usable blocks
        if self.rep_blocks is not None and self.rep_blocks < 2:
            raise DataValidationError("rep_blocks must be >= 2")
        if self.resample_blocks < 2:
            raise DataValidationError("resample_blocks must be >= 2")
        if self.alpha_grid_size is not None and self.alpha_grid_size < 2:
            raise DataValidationError("alpha_grid_size must be >= 2")
        if self.sigma2_grid is not None and len(self.sigma2_grid) == 0:
            raise DataValidationError("sigma2_grid must be nonempty")
        if self.n_grid is not None and len(self.n_grid) == 0:
            raise DataValidationError("n_grid must be nonempty")
        # a zero size would otherwise fall back to the preset's default
        for name, values in (("n", (self.n,)), ("pool_size", (self.pool_size,)),
                             ("n_grid", self.n_grid or ())):
            if any(v is not None and v < 1 for v in values):
                raise DataValidationError(f"{name} must be >= 1")
        if self.eval_cov not in (None, "pool", "true"):
            raise DataValidationError("eval_cov must be 'pool' or 'true'")
        if self.x_source not in (None, "pool", "gaussian"):
            raise DataValidationError("x_source must be 'pool' or 'gaussian'")
        sweep = _SWEEPS.get(self.preset)
        if sweep not in (None, "sigma2") and len(self.sigma2_grid or ()) > 1:
            raise DataValidationError(
                f"{self.preset} runs at one sigma2 and does not sweep sigma2_grid; give one value"
            )
        if sweep not in (None, "n") and self.n_grid is not None:
            raise DataValidationError(f"{self.preset} does not sweep n_grid; set n instead")
        glm = self.preset.startswith("glm_")
        reads = {"x_source": not glm, "eval_cov": not glm, "rep_blocks": self.preset == "glm_elu",
                 "alpha_grid_size": self.preset == "ols_constant_beta"}
        ignored = [key for key, read in reads.items() if not read and getattr(self, key) is not None]
        if sweep is not None and ignored:
            raise DataValidationError(f"{self.preset} does not read {', '.join(ignored)}")


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
    try:
        if kind == "fixed":
            return int(arg)
        if kind == "ratio":
            return int(round(float(arg) * n))
    except ValueError as exc:
        raise DataValidationError(f"bad p rule {rule!r}: {exc}") from exc
    raise DataValidationError(f"unknown p rule {rule!r}")


def _run_reps(cfg: ExperimentConfig, rep_fn, k: int):
    """Run replications 0..k-1 in order, tolerating up to 5% failures.

    A replication that raises MsslError or LinAlgError is dropped; above the
    budget the run aborts with the count of each exception class.
    """
    ok = []
    failed: Counter[str] = Counter()
    for i in range(k):
        try:
            ok.append(rep_fn(i))
        except (MsslError, np.linalg.LinAlgError) as exc:
            failed[type(exc).__name__] += 1
    n_failed = k - len(ok)
    if n_failed > 0.05 * k:
        causes = ", ".join(f"{name}: {count}" for name, count in sorted(failed.items()))
        raise RuntimeError(f"{cfg.preset}: {n_failed}/{k} replications failed ({causes})")
    return ok


def _aggregate(
    grid_name: str, grid_value: float, per_rep: list[dict], estimators: list[str]
) -> tuple[list[ResultRow], list[PairRow]]:
    errs = {name: np.asarray([r[name] for r in per_rep]) for name in estimators}
    k_eff = len(per_rep)
    rows = [
        ResultRow(name, grid_name, grid_value, float(errs[name].mean()),
                  float(errs[name].std(ddof=1) / math.sqrt(k_eff)), k_eff)
        for name in estimators
    ]
    pairs = []
    for a, b in combinations(estimators, 2):
        s = summarize_pairwise(errs[a] - errs[b])
        pairs.append(PairRow(a, b, grid_value, s.mean, s.se, s.t, s.p))
    return rows, pairs


def _quad_err(L_eval: np.ndarray, diff: np.ndarray) -> float:
    u = L_eval.T @ diff
    return float(u @ u)


def _alpha_curve(coeffs: np.ndarray, alphas: np.ndarray, n_batches: int = 10) -> dict:
    """The mean mixed-coefficient error curve on a ratio grid, and its argmins.

    ``coeffs`` has one (a, b, c) row per replication for r(alpha) =
    a alpha^2 + b alpha + c; the continuous argmin gets a batch-based SE.
    """

    def argmin(c: np.ndarray):
        return np.clip(-c[:, 1].mean() / (2.0 * c[:, 0].mean()), 0.0, 1.0)

    mean_r = coeffs[:, 0].mean() * alphas**2 + coeffs[:, 1].mean() * alphas + coeffs[:, 2].mean()
    vals = [argmin(batch) for batch in np.array_split(coeffs, n_batches) if len(batch)]
    return {
        "alphas": alphas,
        "mean_r": mean_r,
        "argmin_grid": float(alphas[int(np.argmin(mean_r))]),
        "argmin_cont": float(argmin(coeffs)),
        "argmin_se": float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0,
    }


def _select(cfg: ExperimentConfig, table: dict, names: tuple[str, ...], parse=None):
    """(name, fit) of each requested estimator, checked before any replication.

    ``names`` is the preset's default set, mapped to fits by ``table``;
    ``parse`` resolves other names (fixed mixing ratios) or returns None.
    """
    fits = [
        (name, table[name] if name in names else parse and parse(name))
        for name in cfg.estimators or names
    ]
    for name, fit in fits:
        if fit is None:
            raise DataValidationError(
                f"unknown estimator {name!r} for preset {cfg.preset!r}; "
                f"available: {', '.join(names)}"
            )
    return fits


def _grid(cfg, grid_name, values, fits, run_point, extras: dict) -> ExperimentResult:
    """Aggregate ``run_point(gi, value)``, the replications of each grid point."""
    estimators = [name for name, _ in fits]
    rows, paired = [], []
    for gi, value in enumerate(values):
        r, pr = _aggregate(grid_name, value, run_point(gi, value), estimators)
        rows += r
        paired += pr
    return ExperimentResult(cfg.preset, grid_name, tuple(rows), tuple(paired), extras)


def _gaussian_pool(seed: int, m: int, Sigma: np.ndarray, *idx: int) -> UnlabeledPool:
    return UnlabeledPool(gaussian_sampler(Sigma, m)(seeded_rng(seed, _S_POOL, *idx)))


def _pool_point(cfg, n: int, Sigma: np.ndarray, m: int, *idx: int):
    """The Gaussian pool of a grid point and what its replications share.

    Returns the pool moments, the resampling plan of the pool statistics, the
    factor of the covariance errors are measured in, and the design sampler
    (pool rows, or fresh Gaussians when ``x_source`` says so).
    """
    moments = build_moments(_gaussian_pool(cfg.seed, m, Sigma, *idx), n)
    spec = ResampleSpec(n, cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS, *idx))
    L_eval = np.linalg.cholesky(Sigma if cfg.eval_cov == "true" else moments.Exx)
    if (cfg.x_source or "pool") == "pool":
        return moments, spec, L_eval, pool_sampler(moments.pool, n)
    return moments, spec, L_eval, gaussian_sampler(Sigma, n)


def _relative_errors(per_rep: list[dict], fits, base: str) -> dict[str, float]:
    """Mean error of each estimator over that of ``base``; empty without ``base``."""
    means = {name: float(np.mean([r[name] for r in per_rep])) for name, _ in fits}
    return {name: e / means[base] for name, e in means.items()} if base in means else {}


# ---------------------------------------------------------------------------
# OLS presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OlsPoint:
    """What the replications of one OLS grid point share besides the pool model:
    the oracle ratios, and for random coefficients b_u and the bias tau^2 b_u
    (the estimated ratio then takes the plug-in bias tau_hat^2 b_u)."""

    model: OlsPoolModel
    alpha_star: float
    alpha_ddot: float | None = None
    b_u: float | None = None
    bias_tau: float | None = None

    def alpha_est(self, s: OlsSample) -> float:
        return s.alpha_hat if self.b_u is None else s.ratio(s.tau2_hat * self.b_u)


# each fit maps (OlsSample, _OlsPoint) to coefficients
_OLS_FITS = {
    "supervised": lambda s, pt: s.beta_hat,
    "semisupervised": lambda s, pt: s.beta_breve,
    "linear_mixed_opt": lambda s, pt: s.linear(pt.alpha_star),
    "linear_mixed_est": lambda s, pt: s.linear(pt.alpha_est(s)),
    "linear_mixed_est_tau": lambda s, pt: s.linear(s.ratio(pt.bias_tau)),
    "adaptive_select": lambda s, pt: (
        s.beta_breve if s.sigma2_hat > s.B_hat / (s.model.v_l - s.model.v_u) else s.beta_hat
    ),
    "loss_mixed_est": lambda s, pt: s.loss(s.alpha_hat),
    "loss_mixed_grid": lambda s, pt: s.loss(s.alpha_grid),
    "loss_mixed_opt": lambda s, pt: s.loss(pt.alpha_ddot),
}
# each preset's estimators, in the order of its CSV rows
_OLS_CONSTANT_ESTIMATORS = tuple(name for name in _OLS_FITS if name != "linear_mixed_est_tau")
_OLS_RANDOM_ESTIMATORS = tuple(_OLS_FITS)[:5]


def _ols_fixed_mix(name: str):
    """The fit of ``linear_mixed(a)`` or ``loss_mixed(a)``, a fixed ratio a.

    The ratio is checked here, before any replication runs, against what the
    library fit accepts: any finite a for the coefficient mix, a in [0, 1]
    for the loss mix.
    """
    for prefix, mix in (("linear_mixed(", OlsSample.linear), ("loss_mixed(", OlsSample.loss)):
        if name.startswith(prefix) and name.endswith(")"):
            try:
                a = float(name[len(prefix):-1])
            except ValueError:
                return None
            if not math.isfinite(a) or (mix is OlsSample.loss and not 0.0 <= a <= 1.0):
                raise DataValidationError(
                    f"estimator {name!r}: the ratio must be finite, and in [0, 1] for loss_mixed"
                )
            return lambda s, pt: mix(s, a)
    return None


def _ols_reps(cfg, gi, point, draw_x, beta_mode, sigma2, fits, L_eval) -> list[dict]:
    """The K replications of one OLS grid point.

    Besides the estimator errors, each returns the quadratic coefficients of
    its mixed-coefficient error curve under ``_curve``.
    """

    def rep(k: int) -> dict:
        rng = seeded_rng(cfg.seed, _S_REP, gi, k)
        data, beta = _label(draw_x(rng), beta_mode, _IDENTITY, sigma2, rng)
        s = OlsSample(data, point.model)
        out = {name: _quad_err(L_eval, fit(s, point) - beta) for name, fit in fits}
        u0 = L_eval.T @ (s.beta_hat - beta)
        d = L_eval.T @ (s.beta_breve - beta) - u0
        out["_curve"] = (float(d @ d), float(2.0 * u0 @ d), float(u0 @ u0))
        return out

    return _run_reps(cfg, rep, cfg.k)


def _run_ols_constant(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n or 100
    p = _p_from_rule(cfg.p_rule or "fixed:50", n)
    fits = _select(cfg, _OLS_FITS, _OLS_CONSTANT_ESTIMATORS, _ols_fixed_mix)
    Sigma = gen_sigma(CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9))
    beta_mode = constant_beta(1.5)
    beta_true = np.full(p, beta_mode.value)
    moments, spec, L_eval, draw_x = _pool_point(cfg, n, Sigma, cfg.pool_size or 20000)
    # uniform grid for the measured mixed-coefficient curve; a zero-anchored
    # geometric grid for the loss-mixed search (the best ratio can sit well
    # below one uniform step at low noise)
    size = cfg.alpha_grid_size or 51
    alphas = np.linspace(0.0, 1.0, size)
    ddot_grid = np.concatenate([[0.0], np.geomspace(2e-4, 1.0, size - 1)])
    model = OlsPoolModel(moments, spec, grid=ddot_grid)
    ddot = model.ddot
    B_true = model.bias_at(beta_true)
    extras: dict = {"alpha_star": {}, "alpha_ddot_oracle": {}, "alpha_curve": {},
                    "terms": {"v_l": model.v_l, "v_u": model.v_u, "b_u": model.b_u_hat},
                    "B_true": B_true}

    def run_point(gi: int, sigma2: float) -> list[dict]:
        point = _OlsPoint(
            model,
            alpha_star=alpha_star_ols(sigma2, B_true, model.v_l, model.v_u)[0],
            alpha_ddot=ddot.argmin_alpha(beta_true, sigma2),
        )
        extras["alpha_star"][sigma2] = point.alpha_star
        extras["alpha_ddot_oracle"][sigma2] = point.alpha_ddot
        per_rep = _ols_reps(cfg, gi, point, draw_x, beta_mode, sigma2, fits, L_eval)
        coeffs = np.asarray([rep["_curve"] for rep in per_rep])
        extras["alpha_curve"][sigma2] = _alpha_curve(coeffs, alphas)
        return per_rep

    sigma2s = cfg.sigma2_grid or (1.0, 9.0, 25.0, 49.0)
    return _grid(cfg, "sigma2", sigma2s, fits, run_point, extras)


def _run_ols_random(cfg: ExperimentConfig) -> ExperimentResult:
    sigma2 = (cfg.sigma2_grid or (25.0,))[0]
    tau2 = 1.0
    beta_mode = random_beta(math.sqrt(tau2))
    fits = _select(cfg, _OLS_FITS, _OLS_RANDOM_ESTIMATORS)
    extras: dict = {"eta_measured": {}, "eta_theory": {}, "alpha_star": {}, "terms": {}}

    def run_point(gi: int, n: int) -> list[dict]:
        p = _p_from_rule(cfg.p_rule or "ratio:0.5", n)
        Sigma = gen_sigma(
            CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9, target_trace=25.0)
        )
        moments, spec, L_eval, draw_x = _pool_point(cfg, n, Sigma, cfg.pool_size or 10000, gi)
        model = OlsPoolModel(moments, spec, keep_blocks=False)
        v_l, v_u, b_u = model.v_l, model.v_u, model.b_u_hat
        point = _OlsPoint(
            model,
            alpha_star=alpha_star_ols(sigma2, tau2 * b_u, v_l, v_u)[0],
            b_u=b_u,
            bias_tau=tau2 * b_u,
        )
        extras["alpha_star"][n] = point.alpha_star
        extras["eta_theory"][n] = eta_from_ols_terms(sigma2, tau2, v_l, v_u, b_u)
        extras["terms"][n] = {"v_l": v_l, "v_u": v_u, "b_u": b_u}
        per_rep = _ols_reps(cfg, gi, point, draw_x, beta_mode, sigma2, fits, L_eval)
        extras["eta_measured"][n] = _relative_errors(per_rep, fits, "supervised")
        return per_rep

    return _grid(cfg, "n", cfg.n_grid or (100, 200, 500), fits, run_point, extras)


# ---------------------------------------------------------------------------
# GLM presets
# ---------------------------------------------------------------------------


class _GlmOracle(NamedTuple):
    """Oracle ratios: the clipped formula (coefficient mix) and the grid (loss mix)."""

    alpha_dot: float
    alpha_ddot: float


# each fit maps (GlmSample, _GlmOracle) to coefficients
_GLM_FITS = {
    "supervised": lambda s, o: s.beta_hat,
    "semisupervised": lambda s, o: s.beta_breve,
    "linear_mixed_est": lambda s, o: s.linear(s.alpha_hat),
    "linear_mixed_opt": lambda s, o: s.linear(o.alpha_dot),
    "loss_mixed_est": lambda s, o: s.loss(s.alpha_hat),
    "loss_mixed_grid": lambda s, o: s.loss(s.alpha_grid),
    "loss_mixed_opt": lambda s, o: s.loss(o.alpha_ddot),
}
# glm_alpha_sweep: each estimator is a curve of fits over the ratio grid
_GLM_SWEEP_CURVES = {
    "linear_mixed": lambda s, alphas: [s.linear(a) for a in alphas],
    "loss_mixed": lambda s, alphas: s.loss_path(alphas),
}


class _GlmStudy:
    """The ELU study of both GLM presets: the design, the oracle statistics (one
    large pool at the true coefficients) and the excess-loss error on a fixed
    evaluation sample."""

    def __init__(self, cfg: ExperimentConfig):
        self.seed = cfg.seed
        self.n = n = cfg.n or 50
        p = _p_from_rule(cfg.p_rule or "fixed:10", n)
        self.link = elu_link()
        Sigma = gen_sigma(CovarianceSpec("block_equicorrelated", p, blocks=5, rho=0.9))
        self.beta_mode = constant_beta(2.0)
        beta_true = np.full(p, self.beta_mode.value)
        self.Z_eval = gaussian_sampler(Sigma, 10000)(seeded_rng(cfg.seed, _S_EVAL))
        self.mu_true = self.link.g(self.Z_eval @ beta_true)
        self.draw_pool = gaussian_sampler(Sigma, cfg.pool_size or 5000)
        self.draw_x = gaussian_sampler(Sigma, n)
        self.alphas = np.round(np.linspace(0.0, 1.0, 21), 10)
        self.oracle = GlmPoolStats(
            build_moments(_gaussian_pool(cfg.seed, 20000, Sigma), n), self.link, beta_true,
            ResampleSpec(n, cfg.resample_blocks, _derive_seed(cfg.seed, _S_TERMS)),
            alphas=self.alphas,
        )

    def oracle_ratios(self, sigma2: float) -> _GlmOracle:
        return _GlmOracle(
            clip_alpha(self.oracle.alpha_dot(sigma2)), self.oracle.ddot_curve(sigma2).argmin_alpha
        )

    def draw(self, gi: int, k: int, sigma2: float) -> tuple[LabeledSet, UnlabeledPool]:
        """The labeled sample and the raw pool of one replication."""
        rng = seeded_rng(self.seed, _S_REP, gi, k)
        pool = UnlabeledPool(self.draw_pool(rng))
        return _label(self.draw_x(rng), self.beta_mode, self.link, sigma2, rng)[0], pool

    def error(self, beta: np.ndarray) -> float:
        eta = self.Z_eval @ beta
        return float(np.mean(self.link.G(eta) - eta * self.mu_true))


def _nonconverged(per_rep: list[dict]) -> int:
    return sum(r["_nonconverged"] for r in per_rep)


def _run_glm_elu(cfg: ExperimentConfig) -> ExperimentResult:
    fits = _select(cfg, _GLM_FITS, tuple(_GLM_FITS))
    study = _GlmStudy(cfg)
    n, link = study.n, study.link
    extras: dict = {"oracle_terms": study.oracle, "alpha_dot_oracle": {},
                    "alpha_ddot_oracle": {}, "newton_nonconverged": {}}

    def run_point(gi: int, sigma2: float) -> list[dict]:
        oracle = study.oracle_ratios(sigma2)
        extras["alpha_dot_oracle"][sigma2] = oracle.alpha_dot
        extras["alpha_ddot_oracle"][sigma2] = oracle.alpha_ddot

        def rep(k: int) -> dict:
            data, raw_pool = study.draw(gi, k, sigma2)
            s = GlmSample(
                data, build_moments(raw_pool, n), link,
                ResampleSpec(n, cfg.rep_blocks or 40, _derive_seed(cfg.seed, _S_REPBLOCKS, gi, k)),
                study.alphas,
            )
            out = {name: study.error(fit(s, oracle)) for name, fit in fits}
            out["_nonconverged"] = s.nonconverged
            return out

        per_rep = _run_reps(cfg, rep, cfg.k)
        extras["newton_nonconverged"][sigma2] = _nonconverged(per_rep)
        return per_rep

    sigma2s = cfg.sigma2_grid or (1.0, 9.0, 25.0, 49.0)
    return _grid(cfg, "sigma2", sigma2s, fits, run_point, extras)


def _run_glm_alpha_sweep(cfg: ExperimentConfig) -> ExperimentResult:
    sigma2 = (cfg.sigma2_grid or (25.0,))[0]
    curves = _select(cfg, _GLM_SWEEP_CURVES, tuple(_GLM_SWEEP_CURVES))
    estimators = [name for name, _ in curves]
    study = _GlmStudy(cfg)
    alphas = study.alphas
    alpha_dot, alpha_ddot = study.oracle_ratios(sigma2)

    def rep(k: int) -> dict:
        data, raw_pool = study.draw(0, k, sigma2)
        s = GlmSample(data, build_moments(raw_pool, study.n), study.link)
        out = {name: np.array([study.error(b) for b in curve(s, alphas)]) for name, curve in curves}
        out["_nonconverged"] = s.nonconverged
        return out

    per_rep = _run_reps(cfg, rep, cfg.k)
    # one grid point per ratio; the rows are listed estimator by estimator
    by_alpha = [
        _aggregate("alpha", float(a), [{e: r[e][j] for e in estimators} for r in per_rep],
                   estimators)
        for j, a in enumerate(alphas)
    ]
    rows = [row for name in estimators for rs, _ in by_alpha for row in rs if row.estimator == name]
    paired = [pair for _, prs in by_alpha for pair in prs]
    mean_curves = {name: np.stack([r[name] for r in per_rep]).mean(axis=0) for name in estimators}
    extras = {
        "alphas": alphas,
        "alpha_dot_oracle": alpha_dot,
        "alpha_ddot_oracle": alpha_ddot,
        "mc_argmin": {name: float(alphas[int(np.argmin(c))]) for name, c in mean_curves.items()},
        "mean_curves": mean_curves,
        "newton_nonconverged": {sigma2: _nonconverged(per_rep)},
    }
    return ExperimentResult(cfg.preset, "alpha", tuple(rows), tuple(paired), extras)


# ---------------------------------------------------------------------------
# interpolator presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _InterpPoint:
    """What the replications of one interpolator grid point share."""

    Sigma_fit: np.ndarray
    sigma_factor: tuple[np.ndarray, bool]
    terms: InterpRiskTerms
    sigma2: float
    tau2: float


def _interp_mixed_est(s: InterpSample, pt: _InterpPoint) -> np.ndarray:
    noise = s.sigma_tau(pt.Sigma_fit)
    return s.mix(pt.terms, noise.sigma2_hat, noise.tau2_hat)


# each fit maps (InterpSample, _InterpPoint) to coefficients
_INTERP_FITS = {
    "min_norm": lambda s, pt: s.min_norm,
    "min_variance": lambda s, pt: s.min_variance,
    "interp_mixed_est": _interp_mixed_est,
    "interp_mixed_est_tau": lambda s, pt: s.mix(
        pt.terms, max(s.sigma2_known_tau(pt.tau2), 0.0), pt.tau2
    ),
    "interp_mixed_opt": lambda s, pt: s.mix(pt.terms, pt.sigma2, pt.tau2),
}


def _interp_point(cfg, gi, n, p, sigma2, tau2, Sigma, fits):
    """The replications of one grid point and its pool risk terms.

    Each replication also returns its realization-wise variance-dominance
    slack under ``_dominance_slack``.
    """
    m = cfg.pool_size or 5000
    if m <= p:
        raise DataValidationError(f"pool size {m} must exceed p={p}")
    moments, spec, L_eval, draw_x = _pool_point(cfg, n, Sigma, m, gi)
    Sigma_fit = moments.Exx
    factor = spd_factor(Sigma_fit, "Sigma")
    terms = interp_risk_terms(Sigma_fit, n, p, pool_sampler(moments.pool, n), spec, factor)
    point = _InterpPoint(Sigma_fit, factor, terms, sigma2, tau2)
    beta_mode = random_beta(math.sqrt(tau2))

    def rep(k: int) -> dict:
        rng = seeded_rng(cfg.seed, _S_REP, gi, k)
        data, w_true = _label(draw_x(rng), beta_mode, _IDENTITY, sigma2, rng)
        s = InterpSample(data, point.sigma_factor)
        out = {name: _quad_err(L_eval, fit(s, point) - w_true) for name, fit in fits}
        var_hat = float(s.min_norm @ Sigma_fit @ s.min_norm)
        out["_dominance_slack"] = var_hat - float(s.min_variance @ Sigma_fit @ s.min_variance)
        return out

    return _run_reps(cfg, rep, cfg.k), terms


def _run_interp_fixed(cfg: ExperimentConfig) -> ExperimentResult:
    n = cfg.n or 50
    p = _p_from_rule(cfg.p_rule or "fixed:100", n)
    tau2 = 1.0
    fits = _select(cfg, _INTERP_FITS, tuple(_INTERP_FITS))
    Sigma = gen_sigma(CovarianceSpec("spiked_diagonal", p, spike_fraction=0.8, minor_scale=1 / n))
    extras: dict = {"alpha_oracle": {}, "dominance_min_slack": {}, "terms": None}

    def run_point(gi: int, sigma2: float) -> list[dict]:
        per_rep, terms = _interp_point(cfg, gi, n, p, sigma2, tau2, Sigma, fits)
        extras["terms"] = terms
        extras["alpha_oracle"][sigma2] = alpha_star_interp(sigma2, tau2, terms)[0]
        extras["dominance_min_slack"][sigma2] = min(r["_dominance_slack"] for r in per_rep)
        return per_rep

    sigma2s = cfg.sigma2_grid or (1.0, 4.0, 25.0)
    return _grid(cfg, "sigma2", sigma2s, fits, run_point, extras)


def _run_interp_growth(cfg: ExperimentConfig) -> ExperimentResult:
    sigma2 = (cfg.sigma2_grid or (25.0,))[0]
    tau2 = 1.0
    fits = _select(cfg, _INTERP_FITS, tuple(_INTERP_FITS))
    extras: dict = {"eta_measured": {}, "terms": {}, "eta_limit": None}

    def run_point(gi: int, n: int) -> list[dict]:
        p = _p_from_rule(cfg.p_rule or "ratio:2.0", n)
        Sigma = gen_sigma(CovarianceSpec(
            "spiked_diagonal", p, spike_fraction=0.8, minor_scale=1 / n, target_trace=25.0
        ))
        per_rep, terms = _interp_point(cfg, gi, n, p, sigma2, tau2, Sigma, fits)
        extras["terms"][n] = terms
        extras["eta_measured"][n] = _relative_errors(per_rep, fits, "min_norm")
        return per_rep

    result = _grid(cfg, "n", cfg.n_grid or (100, 200, 300), fits, run_point, extras)
    extras["eta_limit"] = interp_limits(
        AsymptoticSetting(gamma=2.0, gamma_tilde=1.6, sigma2=sigma2, tau2=tau2, c2=25.0)
    ).eta_inf
    return result


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


def _list_of(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(","))


# the parser of each key an [experiment] section may set
_CONFIG_KEYS = {
    **dict.fromkeys(("preset", "p_rule", "eval_cov", "x_source"), str),
    **dict.fromkeys(("k", "seed", "n", "pool_size", "resample_blocks", "rep_blocks",
                     "alpha_grid_size"), int),
    "sigma2_grid": _list_of(float),
    "n_grid": _list_of(int),
    "estimators": _list_of(str),
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
        if key not in _CONFIG_KEYS:
            raise DataValidationError(f"{path}: unknown config key {key!r}")
        try:
            kwargs[key] = _CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise DataValidationError(f"{path}: bad value {raw!r} for {key!r}") from exc
    if "preset" not in kwargs:
        raise DataValidationError(f"{path}: config must name a preset")
    return ExperimentConfig(**kwargs)
