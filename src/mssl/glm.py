"""General-link estimators and their quadratic-approximation risk terms.

All fits minimize the canonical loss G(x^T beta) - x^T beta y (or its
pool-averaged semi-supervised analogue) by damped Newton-Raphson.  Risk
factors for the mixing-ratio formulas come from a quadratic expansion of
the losses around an evaluation point, with the required expectations over
fresh design matrices realized by block resampling from the pool.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import cho_solve
from .core import (
    LabeledSet,
    PopulationMoments,
    ResampleSpec,
    UnlabeledPool,
    _block_pass,
    _each_block,
    _weighted_gram,
    center_pool,
    resample_block,
    spd_factor,
)
from .errors import (
    DataValidationError,
    LinkValidationError,
    RegimeError,
    SingularMatrixError,
)
from .links import LinkSpec
from .ols import RiskCurve, _blend_denominators, _check_n, _ratio_grid, _xi, mix_linear

__all__ = [
    "GlmFitReport",
    "GlmProblem",
    "GlmPoolStats",
    "GlmSample",
    "fit_glm_supervised",
    "fit_glm_semisupervised",
    "fit_glm_loss_mixed",
    "estimate_noise_glm",
    "alpha_dot_glm",
    "clip_alpha",
    "r_dot_glm_curve",
    "alpha_M_dispersion",
]


@dataclass(frozen=True)
class GlmFitReport:
    """Outcome of one Newton solve."""

    beta: np.ndarray
    iterations: int
    final_step_norm: float
    converged: bool


class GlmProblem:
    """Objective, gradient, and Hessian closures for one training instance.

    The semi-supervised pieces average over a centered pool; the mixed loss
    blends the supervised and semi-supervised pieces with weight alpha on
    the pool side.
    """

    def __init__(self, data: LabeledSet, pool: UnlabeledPool | None, link: LinkSpec):
        self.data = data
        self.link = link
        self.X = data.X
        self.Y = data.Y
        self.n = data.n
        if pool is not None:
            if pool.p != data.p:
                raise DataValidationError("pool and labeled data disagree on p")
            if not pool.centered:
                pool = center_pool(pool)[0]
            self.Z = pool.Z
            self.m = pool.m
            self.zbar = self.Z.mean(axis=0)
        else:
            self.Z = None
            self.m = 0
            self.zbar = None
        self._eta_at = None  # the last point whose pool product is kept
        self._eta = None
        # gradient of the sample covariance term Cov(X beta, Y)
        self._cov_xy = (data.xty - self.n * data.xbar * data.ybar) / self.n
        self._ybar = data.ybar

    # -- supervised loss ---------------------------------------------------
    def sup_value(self, beta: np.ndarray) -> float:
        eta = self.X @ beta
        return float(np.mean(self.link.G(eta) - eta * self.Y))

    def sup_grad(self, beta: np.ndarray) -> np.ndarray:
        return self.X.T @ (self.link.g(self.X @ beta) - self.Y) / self.n

    def sup_hess(self, beta: np.ndarray) -> np.ndarray:
        d = self.link.gprime(self.X @ beta)
        return (self.X * d[:, None]).T @ self.X / self.n

    # -- semi-supervised loss ----------------------------------------------
    def _pool_eta(self, beta: np.ndarray) -> np.ndarray:
        """eta = Z beta, kept for the last point evaluated.

        The value, gradient and Hessian at one beta share one pool product,
        and Newton's accepted line-search point (the last one it evaluated)
        hands its eta to the next iterate's gradient and Hessian.
        """
        if self.Z is None:
            raise DataValidationError("this objective needs an unlabeled pool")
        if self._eta_at is None or not np.array_equal(beta, self._eta_at):
            self._eta_at = np.array(beta, dtype=float)
            self._eta = self.Z @ self._eta_at
        return self._eta

    def semi_value(self, beta: np.ndarray) -> float:
        zeta = self._pool_eta(beta)
        lin = (self.zbar @ beta) * self._ybar + self._cov_xy @ beta
        return float(np.mean(self.link.G(zeta)) - lin)

    def semi_grad(self, beta: np.ndarray) -> np.ndarray:
        return (
            self.Z.T @ self.link.g(self._pool_eta(beta)) / self.m
            - self.zbar * self._ybar
            - self._cov_xy
        )

    def semi_hess(self, beta: np.ndarray) -> np.ndarray:
        """Z^T D Z / m, D = diag(g'(Z beta)); g' < 0 on the pool is rejected."""
        d = self.link.gprime(self._pool_eta(beta))
        if np.min(d) < 0.0:
            raise LinkValidationError(
                "g' is negative somewhere on the pool; the semi-supervised loss "
                "needs a nondecreasing link there"
            )
        return _weighted_gram(self.Z, np.sqrt(d)) / self.m

    # -- blended loss --------------------------------------------------------
    def mixed_value(self, beta: np.ndarray, alpha: float) -> float:
        return (1.0 - alpha) * self.sup_value(beta) + alpha * self.semi_value(beta)

    def mixed_grad(self, beta: np.ndarray, alpha: float) -> np.ndarray:
        return (1.0 - alpha) * self.sup_grad(beta) + alpha * self.semi_grad(beta)

    def mixed_hess(self, beta: np.ndarray, alpha: float) -> np.ndarray:
        return (1.0 - alpha) * self.sup_hess(beta) + alpha * self.semi_hess(beta)

    def ols_start(self) -> np.ndarray:
        return np.linalg.lstsq(self.X, self.Y, rcond=None)[0]


def _newton(value, grad, hess, beta0, max_iter: int = 100, tol: float = 1e-10) -> GlmFitReport:
    """Damped Newton minimization of a smooth convex objective.

    Each step solves against the checked factor of the Hessian (``spd_factor``,
    the package's one conditioning policy); a Hessian that fails the check
    is damped by a growing ridge, up to three times, before Newton gives up
    with SingularMatrixError.  Steps are halved until the objective stops
    increasing; five successive step-norm growths without convergence end in
    a non-converged report.
    """
    beta = np.asarray(beta0, dtype=float).copy()
    f = value(beta)
    step_norm = math.inf
    prev_norm = math.inf
    growth = 0
    for it in range(1, max_iter + 1):
        g = grad(beta)
        Hm = hess(beta)
        step = None
        ridge = 0.0
        for attempt in range(4):
            try:
                factor = spd_factor(Hm + ridge * np.eye(Hm.shape[0]), "Newton Hessian")
                step = cho_solve(factor, g)
                break
            except (SingularMatrixError, np.linalg.LinAlgError):
                base = max(np.trace(Hm) / Hm.shape[0], 1.0)
                ridge = base * (1e-10 if ridge == 0.0 else 1e4 * ridge / base)
        if step is None:
            raise SingularMatrixError("Newton Hessian remained singular after damping")

        t = 1.0
        accepted = False
        for _ in range(30):
            cand = beta - t * step
            fc = value(cand)
            if fc <= f + 1e-12 * (1.0 + abs(f)):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return GlmFitReport(beta=beta, iterations=it, final_step_norm=step_norm, converged=False)

        step_norm = float(t * np.linalg.norm(step))
        beta, f = cand, fc
        if step_norm < tol:
            return GlmFitReport(beta=beta, iterations=it, final_step_norm=step_norm, converged=True)
        growth = growth + 1 if step_norm > prev_norm else 0
        if growth >= 5:
            return GlmFitReport(beta=beta, iterations=it, final_step_norm=step_norm, converged=False)
        prev_norm = step_norm
    return GlmFitReport(beta=beta, iterations=max_iter, final_step_norm=step_norm, converged=False)


def fit_glm_supervised(
    data: LabeledSet, link: LinkSpec, max_iter: int = 100, tol: float = 1e-10
) -> GlmFitReport:
    """Newton minimizer of the supervised canonical loss."""
    prob = GlmProblem(data, None, link)
    return _newton(prob.sup_value, prob.sup_grad, prob.sup_hess, prob.ols_start(), max_iter, tol)


def fit_glm_semisupervised(
    data: LabeledSet,
    pool: UnlabeledPool,
    link: LinkSpec,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> GlmFitReport:
    """Newton minimizer of the pool-averaged semi-supervised loss."""
    prob = GlmProblem(data, pool, link)
    return _newton(prob.semi_value, prob.semi_grad, prob.semi_hess, prob.ols_start(), max_iter, tol)


def fit_glm_loss_mixed(
    data: LabeledSet,
    pool: UnlabeledPool,
    link: LinkSpec,
    alpha: float,
    max_iter: int = 100,
    tol: float = 1e-10,
    beta0: np.ndarray | None = None,
) -> GlmFitReport:
    """Newton minimizer of the alpha-blended loss.

    The update solves (alpha H_m + (1 - alpha) H_n) step = blended gradient,
    with H_m the pool Hessian and H_n the labeled-sample one; alpha = 0
    reproduces the supervised fit and alpha = 1 the semi-supervised fit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DataValidationError(f"alpha must be in [0, 1], got {alpha}")
    prob = GlmProblem(data, pool, link)
    start = prob.ols_start() if beta0 is None else np.asarray(beta0, dtype=float)
    return _newton(
        lambda b: prob.mixed_value(b, alpha),
        lambda b: prob.mixed_grad(b, alpha),
        lambda b: prob.mixed_hess(b, alpha),
        start,
        max_iter,
        tol,
    )


class GlmPoolStats:
    """One resampling pass computing every pool statistic at ``beta_eval``.

    Collects the v-terms of the quadratic risk expansion, the bias factor,
    the trace appearing in the noise-estimator denominator, the dispersion
    variant's v-terms, and (optionally) the loss-mixed risk curve over a
    mixing-ratio grid.  ``moments``, the pool's moments for one labeled size,
    gives the centered pool, n and H.  Every statistic averages over the same
    blocks; ``n_skipped`` counts the blocks skipped as singular.  The v-terms
    and ``B_g_hat`` are n times their squared-loss counterparts under the
    identity link, a scale the ratio formula ignores.

    The pass hands each chunk of resampled blocks (see ``core._block_pass``)
    to one stacked kernel: F = X^T D X, X^T X, X^T D^2 X and the c vectors of
    every block by batched products, F^{-1} by one batched inverse, and the
    traces by ``einsum``.  Whether a block is usable is still decided per
    block, by ``spd_factor`` of its F; a block whose blend (below) is not
    positive definite is masked as well.

    The curve needs, per block and ratio, S_alpha = (alpha H_g + (1 - alpha) F)^{-1}.
    Each block solves the pencil (F, H_g) once: with H_g = L_g L_g^T,
    eigh(L_g^{-1} F L_g^{-T}) = U diag(mu) U^T and R = L_g^{-T} U give
    S_alpha = R diag(1/d) R^T, d = alpha + (1 - alpha) mu, so the bias
    zeta^T S_alpha H_g S_alpha zeta is sum_k w_k^2 / d_k^2 with w = R^T zeta and
    the variance tr(S_alpha H_g S_alpha X^T X) is sum_k (R^T X^T X R)_kk / d_k^2.
    The grid then costs O(p^3 + A p) per block for A ratios, in place of one
    factorization and three solves of the blend per ratio, O(A p^3); the
    eigendecompositions of a chunk are one batched ``eigh``.
    """

    def __init__(
        self,
        moments: PopulationMoments,
        link: LinkSpec,
        beta_eval: np.ndarray,
        spec: ResampleSpec,
        alphas=None,
    ):
        n, pool = moments.n, moments.pool
        if n <= pool.p:
            raise RegimeError(f"need n > p, got n={n}, p={pool.p}")
        if spec.block_size != n:
            raise DataValidationError("resample block_size must equal n")
        beta_eval = np.asarray(beta_eval, dtype=float)
        self.n, self.p = n, pool.p
        self.beta_eval = beta_eval
        self.link = link

        Z = pool.Z
        m = pool.m
        eta_pool = Z @ beta_eval
        d_pool = link.gprime(eta_pool)
        if np.min(d_pool) <= 0.0:
            raise LinkValidationError(
                "g' is nonpositive somewhere on the pool; the quadratic "
                "expansion needs a strictly increasing link there"
            )
        self.Hg = n * _weighted_gram(Z, np.sqrt(d_pool)) / m
        self.H2 = n * _weighted_gram(Z, d_pool) / m
        self.exmu = n * (Z.T @ link.g(eta_pool)) / m  # total-information E_X[X^T mu]

        Lg = np.tril(spd_factor(self.Hg, "H_g")[0])
        self.v_u_g = (n - 1) / n * float(np.trace(cho_solve((Lg, True), moments.H)))

        self.alphas = None if alphas is None else _ratio_grid(alphas)
        if self.alphas is not None:
            Lg_inv = np.linalg.inv(Lg)

        def kernel(X: np.ndarray):
            # X is a chunk of blocks (b, n, p); every statistic is a stack over it
            eta = X @ beta_eval
            d = link.gprime(eta)
            F = (X * d[..., None]).transpose(0, 2, 1) @ X
            ok, _ = _each_block(lambda Fb: spd_factor(Fb, "F"), F)
            X, d, eta, F = X[ok], d[ok], eta[ok], F[ok]
            Fi = np.linalg.inv(F)
            G = X.transpose(0, 2, 1) @ X
            FiG = Fi @ G
            FiG2 = Fi @ ((X * (d**2)[..., None]).transpose(0, 2, 1) @ X)
            mu = link.g(eta)
            c = (mu[:, None, :] @ X)[:, 0] - n * X.mean(axis=1) * mu.mean(axis=1)[:, None]
            stats = {
                "v_l": np.einsum("bij,bji->b", FiG, Fi @ self.Hg),
                "v_s": (n - 1) / n * np.einsum("bii->b", FiG),
                "trace_sigma": np.einsum("bij,bji->b", FiG, FiG2),  # noise-denominator trace
                "v_l_M": np.einsum("bij,ji->b", Fi, self.H2),
                "c": c,
            }
            if self.alphas is not None:
                # pencil (F, H_g): R^T H_g R = I and R^T F R = diag(mu_k)
                mu_k, U = np.linalg.eigh(Lg_inv @ F @ Lg_inv.T)
                R = Lg_inv.T @ U
                den = _blend_denominators(self.alphas, mu_k)
                keep = np.all(den > 0.0, axis=(1, 2))
                inv_d2 = 1.0 / den**2
                w = ((self.exmu - c)[:, None, :] @ R)[:, 0]  # w = R^T zeta
                stats["bias"] = (inv_d2 @ (w * w)[..., None])[..., 0]
                stats["var"] = (inv_d2 @ np.sum(R * (G @ R), axis=1)[..., None])[..., 0]
                ok[ok] = keep
                stats = {key: value[keep] for key, value in stats.items()}
            return ok, stats

        stats, self.n_skipped = _block_pass(
            spec, lambda i: resample_block(pool, spec, i), kernel
        )

        def _mean_se(arr):
            return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))

        self.v_l_g, self.se_v_l_g = _mean_se(stats["v_l"])
        self.v_s_g, self.se_v_s_g = _mean_se(stats["v_s"])
        self.trace_sigma = float(np.mean(stats["trace_sigma"]))
        self.v_l_M = float(np.mean(stats["v_l_M"]))
        self.v_u_M = (n - 1) / n * float(np.trace(cho_solve((Lg, True), self.H2)))

        C = stats["c"]
        self.zeta_hat_mean = self.exmu - C.mean(axis=0)
        zetas = self.exmu[None, :] - C
        self.zeta_hat_cov = np.cov(zetas.T, ddof=1)
        U = np.linalg.solve(Lg, (C - C.mean(axis=0)).T).T
        self.B_g_hat = float(np.sum(U * U) / (C.shape[0] - 1))
        if self.alphas is not None:
            self._curve_bias, self._curve_var = stats["bias"], stats["var"]

    def sigma2_denominator(self) -> float:
        return self.n - 2 * self.p + self.trace_sigma

    def alpha_dot(self, sigma2: float) -> float:
        """Formula ratio ``alpha_dot_glm`` at noise level sigma2, unclipped."""
        return alpha_dot_glm(sigma2, self.B_g_hat, self.v_l_g, self.v_u_g, self.v_s_g)[0]

    def ddot_curve(self, sigma2_hat: float) -> RiskCurve:
        if self.alphas is None:
            raise DataValidationError("stats were built without a mixing-ratio grid")
        xi = _xi(self.alphas, self.n)
        rows = self.alphas**2 * self._curve_bias + xi * sigma2_hat * self._curve_var
        r_hat = rows.mean(axis=0)
        se = rows.std(axis=0, ddof=1) / math.sqrt(rows.shape[0])
        return RiskCurve(
            alphas=self.alphas,
            r_hat=r_hat,
            se=se,
            argmin_alpha=float(self.alphas[int(np.argmin(r_hat))]),
        )


def estimate_noise_glm(
    data: LabeledSet, beta_hat: np.ndarray, link: LinkSpec, stats: GlmPoolStats
) -> float:
    """Approximately unbiased noise estimate for a general link.

    RSS of the supervised fit divided by n - 2p + the trace of ``stats``, the
    pool statistics at the semi-supervised fit.  Negative raw values are
    clipped at zero with a warning.  ``stats`` must be built for the sample's n.
    """
    _check_n(data.n, stats.n)
    denom = stats.sigma2_denominator()
    if denom <= 0:
        raise DataValidationError(
            f"nonpositive noise-estimator denominator (trace {stats.trace_sigma:.4g})"
        )
    resid = link.g(data.X @ np.asarray(beta_hat, dtype=float)) - data.Y
    sigma2 = float(resid @ resid) / denom
    if sigma2 < 0:
        warnings.warn("noise estimate clipped at zero", stacklevel=2)
        return 0.0
    return sigma2


class GlmSample:
    """The Newton fits and mixing ratios of one centered labeled sample.

    The fits use the centered pool of ``moments``, which must be built for
    the sample's n.  ``nonconverged`` counts the solves that did not converge
    (their results are still used).  ``GlmPoolStats`` at beta_breve (plan
    ``spec``, grid ``alphas``) is built on first use, and from it the noise
    estimate and the ratios; a sample built without ``spec`` has the fits
    only.  Shared by ``fit_glm_pipeline`` and the GLM presets.
    """

    def __init__(
        self,
        data: LabeledSet,
        moments: PopulationMoments,
        link: LinkSpec,
        spec: ResampleSpec | None = None,
        alphas=None,
    ):
        _check_n(data.n, moments.n)
        self.data, self.moments, self.link = data, moments, link
        self.pool, self.spec, self.alphas = moments.pool, spec, alphas
        self.nonconverged = 0
        self.beta_hat = self._beta(fit_glm_supervised(data, link))
        self.beta_breve = self._beta(fit_glm_semisupervised(data, self.pool, link))

    def _beta(self, report: GlmFitReport) -> np.ndarray:
        self.nonconverged += not report.converged
        return report.beta

    @cached_property
    def stats(self) -> GlmPoolStats:
        if self.spec is None:
            raise DataValidationError("the sample was built without a resampling plan")
        return GlmPoolStats(self.moments, self.link, self.beta_breve, self.spec, self.alphas)

    @cached_property
    def sigma2_hat(self) -> float:
        return estimate_noise_glm(self.data, self.beta_hat, self.link, self.stats)

    @cached_property
    def alpha_raw(self) -> float:
        """Formula ratio before clipping to [0, 1]."""
        return self.stats.alpha_dot(self.sigma2_hat)

    @property
    def alpha_hat(self) -> float:
        return clip_alpha(self.alpha_raw)

    @cached_property
    def alpha_grid(self) -> float | None:
        """Argmin of the loss-mixed curve; None when the stats have no grid."""
        if self.stats.alphas is None:
            return None
        return self.stats.ddot_curve(self.sigma2_hat).argmin_alpha

    def linear(self, alpha: float) -> np.ndarray:
        return mix_linear(self.beta_hat, self.beta_breve, alpha)

    def loss(self, alpha: float, beta0: np.ndarray | None = None) -> np.ndarray:
        """Loss-mixed fit, started at the nearer pure fit unless beta0 is given.

        The endpoints are the pure fits themselves: alpha = 0 is beta_hat and
        alpha = 1 is beta_breve, with no further Newton solve.
        """
        if alpha == 0.0:
            return self.beta_hat
        if alpha == 1.0:
            return self.beta_breve
        if beta0 is None:
            beta0 = self.beta_breve if alpha > 0.5 else self.beta_hat
        return self._beta(fit_glm_loss_mixed(self.data, self.pool, self.link, alpha, beta0=beta0))

    def loss_path(self, alphas) -> list[np.ndarray]:
        """Loss-mixed fits along a ratio grid, each warm-started at the previous."""
        path = [self.beta_hat]
        for a in alphas:
            path.append(self.loss(a, beta0=path[-1]))
        return path[1:]


def alpha_dot_glm(
    sigma2: float, B_g: float, v_l_g: float, v_u_g: float, v_s_g: float
) -> tuple[float, float]:
    """Best mixing ratio under the quadratic expansion, and its risk value."""
    curv = v_l_g + v_u_g - 2.0 * v_s_g
    if curv <= 0:
        raise DataValidationError(
            f"v_l + v_u - 2 v_s = {curv:.4g} <= 0: quadratic curvature "
            "condition violated (Monte Carlo noise or assumption breach)"
        )
    denom = B_g + sigma2 * curv
    if denom <= 0:
        raise DataValidationError("nonpositive denominator")
    alpha = sigma2 * (v_l_g - v_s_g) / denom
    r_min = sigma2 * v_l_g - sigma2**2 * (v_l_g - v_s_g) ** 2 / denom
    return float(alpha), float(r_min)


def clip_alpha(alpha: float) -> float:
    """Clip a formula mixing ratio to [0, 1].

    ``alpha_dot_glm`` can leave the unit interval when the plug-in terms are
    noisy; a blend outside it extrapolates instead of mixing.
    """
    return min(max(alpha, 0.0), 1.0)


def r_dot_glm_curve(
    alpha, sigma2: float, B_g: float, v_l_g: float, v_u_g: float, v_s_g: float
):
    """Quadratic risk of the coefficient mix under the general-link expansion."""
    curv = v_l_g + v_u_g - 2.0 * v_s_g
    if curv <= 0:
        raise DataValidationError(f"v_l + v_u - 2 v_s = {curv:.4g} <= 0")
    alpha = np.asarray(alpha, dtype=float)
    out = (
        alpha**2 * (B_g + sigma2 * curv)
        - 2.0 * alpha * sigma2 * (v_l_g - v_s_g)
        + sigma2 * v_l_g
    )
    return float(out) if out.ndim == 0 else out


def alpha_M_dispersion(sigma2: float, B: float, v_l_M: float, v_u_M: float) -> float:
    """Best mixing ratio when the conditional variance scales with g'."""
    if v_l_M <= v_u_M:
        raise DataValidationError(f"v_l_M={v_l_M} <= v_u_M={v_u_M}: ordering violated")
    gap = sigma2 * (v_l_M - v_u_M)
    denom = B + gap
    if denom <= 0:
        raise DataValidationError("nonpositive denominator")
    return float(gap / denom)
