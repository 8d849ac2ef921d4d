"""General-link estimators and their quadratic-approximation risk terms.

There is one objective, the alpha-blended canonical loss of ``GlmProblem``:
(1 - alpha) times the labeled loss G(x^T beta) - x^T beta y plus alpha times
its pool-averaged semi-supervised analogue, so alpha = 0 is the supervised
fit and alpha = 1 the semi-supervised one.  ``GlmProblem.fit`` minimizes it
by damped Newton-Raphson (``_newton``).  Risk factors for the mixing-ratio
formulas come from a quadratic expansion of the losses around an evaluation
point, with the required expectations over fresh design matrices realized
by block resampling from the pool (``GlmPoolStats``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import cho_solve
from .core import (
    LabeledSet,
    MixRisk,
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
from .ols import _check_n, _pencil, _ratio_grid, _xi, mix_linear

__all__ = [
    "GlmFitReport",
    "GlmProblem",
    "GlmPoolStats",
    "GlmSample",
    "estimate_noise_glm",
]


@dataclass(frozen=True)
class GlmFitReport:
    """Outcome of one Newton solve."""

    beta: np.ndarray
    iterations: int
    converged: bool


class GlmProblem:
    """The alpha-blended loss of one training instance, and its Newton fit.

    ``value``, ``grad`` and ``hess`` at (beta, alpha) are (1 - alpha) times
    the labeled canonical loss plus alpha times its pool-averaged
    semi-supervised analogue; a side of weight 0 is not evaluated, so
    alpha = 0 (the supervised loss) needs no pool and alpha = 1 (the
    semi-supervised loss) never reads the labeled design.  An uncentered
    pool is centered here.
    """

    def __init__(self, data: LabeledSet, pool: UnlabeledPool | None, link: LinkSpec):
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
        self._eta_at = None  # the last point whose pool product is kept
        self._eta = None
        # gradient of the sample covariance term Cov(X beta, Y)
        self._cov_xy = (data.xty - self.n * data.xbar * data.ybar) / self.n
        self._ybar = data.ybar

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

    def value(self, beta: np.ndarray, alpha: float) -> float:
        def labeled():
            eta = self.X @ beta
            return float(np.mean(self.link.G(eta) - eta * self.Y))

        def pool():
            zeta = self._pool_eta(beta)
            lin = (self.zbar @ beta) * self._ybar + self._cov_xy @ beta
            return float(np.mean(self.link.G(zeta)) - lin)

        return _blend(alpha, labeled, pool)

    def grad(self, beta: np.ndarray, alpha: float) -> np.ndarray:
        return _blend(
            alpha,
            lambda: self.X.T @ (self.link.g(self.X @ beta) - self.Y) / self.n,
            lambda: self.Z.T @ self.link.g(self._pool_eta(beta)) / self.m
            - self.zbar * self._ybar
            - self._cov_xy,
        )

    def hess(self, beta: np.ndarray, alpha: float) -> np.ndarray:
        """Pool side Z^T D Z / m, D = diag(g'(Z beta)); g' < 0 on the pool is rejected."""

        def labeled():
            d = self.link.gprime(self.X @ beta)
            return (self.X * d[:, None]).T @ self.X / self.n

        def pool():
            d = self.link.gprime(self._pool_eta(beta))
            if np.min(d) < 0.0:
                raise LinkValidationError(
                    "g' is negative somewhere on the pool; the semi-supervised loss "
                    "needs a nondecreasing link there"
                )
            return _weighted_gram(self.Z, np.sqrt(d)) / self.m

        return _blend(alpha, labeled, pool)

    def fit(self, alpha: float, beta0: np.ndarray | None = None) -> GlmFitReport:
        """Newton minimizer of the blended loss, from the least-squares fit unless beta0.

        Its steps solve (alpha H_m + (1 - alpha) H_n) step = blended gradient,
        with H_m the pool Hessian and H_n the labeled one.
        """
        if not 0.0 <= alpha <= 1.0:
            raise DataValidationError(f"alpha must be in [0, 1], got {alpha}")
        if beta0 is None:
            beta0 = np.linalg.lstsq(self.X, self.Y, rcond=None)[0]
        return _newton(
            lambda b: self.value(b, alpha),
            lambda b: self.grad(b, alpha),
            lambda b: self.hess(b, alpha),
            beta0,
        )


def _blend(alpha: float, labeled, pool):
    """(1 - alpha) labeled() + alpha pool(), calling only a side of nonzero weight."""
    if alpha == 0.0:
        return labeled()
    if alpha == 1.0:
        return pool()
    return (1.0 - alpha) * labeled() + alpha * pool()


_NEWTON_MAX_ITER = 100
_NEWTON_RIDGES = (1e-10, 1e-6, 1e-2)  # times diag(H), tried in turn


def _newton(value, grad, hess, beta0) -> GlmFitReport:
    """Damped Newton minimization of a smooth convex objective.

    Each step solves against the checked factor (``spd_factor``, the
    package's one conditioning policy) of the Hessian scaled to a unit
    diagonal (``_newton_step``); a Hessian H that fails the check is damped
    to H + r diag(H) for each r of ``_NEWTON_RIDGES`` in turn (a nonpositive
    diagonal entry counts as the mean of |diag(H)|, or 1 if all are 0)
    before Newton gives up with SingularMatrixError.  Steps are halved until
    the objective stops increasing.  The fit has converged after a full step
    whose Newton decrement g^T step is at most 1e-12 (1 + |f|), a rule that
    linear changes of the coefficients leave alone (Boyd and Vandenberghe
    2004, 9.5); no decrease after 30 halvings, or reaching
    ``_NEWTON_MAX_ITER``, ends in a non-converged report.
    """
    beta = np.asarray(beta0, dtype=float).copy()
    f = value(beta)
    for it in range(1, _NEWTON_MAX_ITER + 1):
        g = grad(beta)
        step = _newton_step(hess(beta), g)
        t = 1.0
        for _ in range(30):
            cand = beta - t * step
            fc = value(cand)
            if fc <= f + 1e-12 * (1.0 + abs(f)):
                break
            t *= 0.5
        else:
            return GlmFitReport(beta=beta, iterations=it, converged=False)
        if t == 1.0 and g @ step <= 1e-12 * (1.0 + abs(fc)):
            return GlmFitReport(beta=cand, iterations=it, converged=True)
        beta, f = cand, fc
    return GlmFitReport(beta=beta, iterations=it, converged=False)


def _newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """H^{-1} g, damped by ``_NEWTON_RIDGES`` if H fails the check.

    The check and the solve are made on the unit-diagonal H / (d d^T),
    d = sqrt(D), so that a scaling of the coefficients does not change
    them: (H / (d d^T) + r I) y = g / d gives the step y / d of H + r D.
    """
    D = np.diag(H).copy()
    D[D <= 0.0] = np.mean(np.abs(D)) or 1.0
    d = np.sqrt(D)
    A, b = H / np.outer(d, d), g / d
    for ridge in (0.0,) + _NEWTON_RIDGES:
        try:
            return cho_solve(spd_factor(A + ridge * np.eye(d.size), "Newton Hessian"), b) / d
        except (SingularMatrixError, np.linalg.LinAlgError):
            pass
    raise SingularMatrixError("Newton Hessian remained singular after damping")


class GlmPoolStats:
    """One resampling pass computing every pool statistic at ``beta_eval``.

    Collects the v-terms of the quadratic risk expansion, the bias factor,
    the trace appearing in the noise-estimator denominator and (optionally)
    the loss-mixed risk curve over a mixing-ratio grid.  ``moments``, the
    pool's moments for one labeled size, gives the centered pool, n and H.
    Every statistic averages over the same blocks; ``n_skipped`` counts the
    blocks skipped as singular.  The v-terms and ``B_g_hat`` are n times their
    squared-loss counterparts under the identity link, a scale the ratio
    formula ignores.

    The pass hands each chunk of resampled blocks (see ``core._block_pass``)
    to one stacked kernel: F = X^T D X, X^T X, X^T D^2 X and the c vectors of
    every block by batched products, F^{-1} by one batched inverse, and the
    traces by ``einsum``.  Whether a block is usable is still decided per
    block, by ``spd_factor`` of its F; a block whose blend (below) is not
    positive definite is masked as well.

    The curve needs, per block and ratio, S_alpha = (alpha H_g + (1 - alpha) F)^{-1}.
    Each block solves the pencil (F, H_g) once (``_pencil``, shared with the
    least-squares curve): with H_g = L_g L_g^T, eigh(L_g^{-1} F L_g^{-T}) =
    U diag(mu) U^T and R = L_g^{-T} U give S_alpha = R diag(1/d) R^T,
    d = alpha + (1 - alpha) mu, so the bias zeta^T S_alpha H_g S_alpha zeta is
    sum_k w_k^2 / d_k^2 with w = R^T zeta and the variance
    tr(S_alpha H_g S_alpha X^T X) is sum_k (R^T X^T X R)_kk / d_k^2.  The
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
                "c": c,
            }
            if self.alphas is not None:
                keep, _, U, inv_d2 = _pencil(F, Lg_inv, self.alphas)
                R = Lg_inv.T @ U  # R^T H_g R = I and R^T F R = diag(mu)
                w = ((self.exmu - c)[:, None, :] @ R)[:, 0]  # w = R^T zeta
                stats["bias"] = (inv_d2 @ (w * w)[..., None])[..., 0]
                stats["var"] = (inv_d2 @ np.sum(R * (G @ R), axis=1)[..., None])[..., 0]
                ok[ok] = keep
                stats = {key: value[keep] for key, value in stats.items()}
            return ok, stats

        stats, self.n_skipped = _block_pass(
            spec, lambda i: resample_block(moments, spec, i), kernel
        )

        def _mean_se(arr):
            return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))

        self.v_l_g, self.se_v_l_g = _mean_se(stats["v_l"])
        self.v_s_g, self.se_v_s_g = _mean_se(stats["v_s"])
        self.trace_sigma = float(np.mean(stats["trace_sigma"]))

        C = stats["c"]
        U = np.linalg.solve(Lg, (C - C.mean(axis=0)).T).T
        self.B_g_hat = float(np.sum(U * U) / (C.shape[0] - 1))
        if self.alphas is not None:
            self._curve_bias, self._curve_var = stats["bias"], stats["var"]

    def sigma2_denominator(self) -> float:
        return self.n - 2 * self.p + self.trace_sigma

    def risk(self, sigma2: float) -> MixRisk:
        """The coefficient mix's risk at noise level sigma2 (``MixRisk.from_factors``)."""
        return MixRisk.from_factors(sigma2, self.B_g_hat, self.v_l_g, self.v_u_g, self.v_s_g,
                                    self.se_v_l_g, self.se_v_s_g)

    def ddot_curve(self, sigma2_hat: float) -> np.ndarray:
        """The loss-mixed fit's estimated risk at each ratio of ``alphas``, averaged over blocks."""
        if self.alphas is None:
            raise DataValidationError("stats were built without a mixing-ratio grid")
        xi = _xi(self.alphas, self.n)
        rows = self.alphas**2 * self._curve_bias + xi * sigma2_hat * self._curve_var
        return rows.mean(axis=0)

    def argmin_alpha(self, sigma2_hat: float) -> float:
        """The ratio of ``alphas`` at which ``ddot_curve`` is least."""
        return float(self.alphas[int(np.argmin(self.ddot_curve(sigma2_hat)))])


def estimate_noise_glm(
    data: LabeledSet, beta_hat: np.ndarray, link: LinkSpec, stats: GlmPoolStats
) -> float:
    """Approximately unbiased noise estimate for a general link.

    RSS of the supervised fit divided by n - 2p + the trace of ``stats``, the
    pool statistics at the semi-supervised fit.  ``stats`` must be built for
    the sample's n.
    """
    _check_n(data.n, stats.n)
    denom = stats.sigma2_denominator()
    if denom <= 0:
        raise DataValidationError(
            f"nonpositive noise-estimator denominator (trace {stats.trace_sigma:.4g})"
        )
    resid = link.g(data.X @ np.asarray(beta_hat, dtype=float)) - data.Y
    return float(resid @ resid) / denom


class GlmSample:
    """The Newton fits and mixing ratios of one centered labeled sample.

    The fits use the centered pool of ``moments``, which must be built for
    the sample's n; a pool whose Gram H fails ``moments.H_factor`` raises
    SingularMatrixError before any fit.  One ``GlmProblem``, ``problem``,
    serves every fit: beta_hat (alpha = 0), beta_breve (alpha = 1) and the
    loss-mixed fits in between.  ``nonconverged`` counts the solves
    that did not converge (their results are still used).  ``GlmPoolStats``
    at beta_breve (plan ``spec``, grid ``alphas``) is built on first use, and
    from it the noise estimate and the ratios; a sample built without
    ``spec`` has the fits only.  Shared by ``fit_glm_pipeline`` and the GLM
    presets.
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
        moments.H_factor  # checked once, before any Newton solve
        self.data, self.moments, self.link = data, moments, link
        self.spec, self.alphas = spec, alphas
        self.problem = GlmProblem(data, moments.pool, link)
        self.nonconverged = 0
        start = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]  # both pure fits start here
        self.beta_hat = self._fit(0.0, start)
        self.beta_breve = self._fit(1.0, start)

    def _fit(self, alpha: float, beta0: np.ndarray | None = None) -> np.ndarray:
        report = self.problem.fit(alpha, beta0)
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
    def alpha_hat(self) -> float:
        return self.stats.risk(self.sigma2_hat).ratio

    @cached_property
    def alpha_grid(self) -> float | None:
        """Argmin of the loss-mixed curve; None when the stats have no grid."""
        if self.stats.alphas is None:
            return None
        return self.stats.argmin_alpha(self.sigma2_hat)

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
        return self._fit(alpha, beta0)

    def loss_path(self, alphas) -> list[np.ndarray]:
        """Loss-mixed fits along a ratio grid, each warm-started at the previous."""
        path = [self.beta_hat]
        for a in alphas:
            path.append(self.loss(a, beta0=path[-1]))
        return path[1:]
