"""General-link estimators and their quadratic-approximation risk terms.

There is one objective, the alpha-blended canonical loss of ``GlmProblem``:
(1 - alpha) times the labeled loss G(x^T beta) - x^T beta y plus alpha times
its pool-averaged semi-supervised analogue, so alpha = 0 is the supervised
fit and alpha = 1 the semi-supervised one.  ``GlmProblem.fit`` minimizes it
by damped Newton-Raphson (``_newton``).  Risk factors for the mixing-ratio
formulas come from a quadratic expansion of the losses around an evaluation
point, with the required expectations over fresh design matrices realized
by block resampling from the pool (``GlmPoolStats``).  Least squares is the
identity link, where the loss is the squared loss and the expansion is
exact: its minimizers have closed forms (``fit_ols_supervised``,
``fit_ols_semisupervised``, ``fit_loss_mixed_ols``), which ``GlmSample``,
the one per-sample object of every link, uses there in place of Newton.
``GlmPoolStats`` is the one pool pass of every link, ``ols.OlsPoolModel`` is
that pass at the identity link, and ``DdotRiskModel``, the loss-mixed risk
over a ratio grid, is built by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import cho_inverse, cho_solve
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

__all__ = [
    "DdotRiskModel",
    "GlmFitReport",
    "GlmProblem",
    "GlmPoolStats",
    "GlmSample",
    "estimate_noise_glm",
    "fit_loss_mixed_ols",
    "fit_ols_semisupervised",
    "fit_ols_supervised",
    "mix_linear",
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


def _check_n(n: int, built_for: int) -> None:
    """A labeled sample of size n against statistics built for ``built_for`` rows."""
    if n != built_for:
        raise DataValidationError(
            f"the labeled sample has n={n}, but its pool statistics were built for n={built_for}"
        )


def mix_linear(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Componentwise mix (1 - alpha) a + alpha b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    if not np.isfinite(alpha):
        raise DataValidationError("alpha must be finite")
    return (1.0 - alpha) * a + alpha * b


def fit_ols_supervised(data: LabeledSet) -> np.ndarray:
    """Least-squares coefficients (X^T X)^{-1} X^T Y."""
    return cho_solve(spd_factor(data.gram, "X^T X"), data.xty)


def fit_ols_semisupervised(data: LabeledSet, moments: PopulationMoments) -> np.ndarray:
    """Semi-supervised coefficients H^{-1}(X^T Y - n Xbar Ybar).

    Solves against ``moments.H_factor``, so H is factored once per moments
    object however many samples are fit against it.  H = n Exx must be built
    for the sample's n.
    """
    _check_n(data.n, moments.n)
    return cho_solve(moments.H_factor, data.xty - data.n * data.xbar * data.ybar)


def fit_loss_mixed_ols(
    data: LabeledSet, moments: PopulationMoments, alpha: float
) -> np.ndarray:
    """Minimizer of the blended squared loss.

    Closed form S_alpha (X^T Y - alpha n Xbar Ybar) with
    S_alpha = (alpha H + (1 - alpha) X^T X)^{-1}; equals the supervised fit
    at alpha = 0 and the semi-supervised one at alpha = 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DataValidationError(f"alpha must be in [0, 1], got {alpha}")
    _check_n(data.n, moments.n)
    blend = alpha * moments.H + (1.0 - alpha) * data.gram
    rhs = data.xty - alpha * data.n * data.xbar * data.ybar
    return cho_solve(spd_factor(blend, "alpha H + (1-alpha) X^T X"), rhs)


def _xi(alpha, n: int):
    return 1.0 - (2.0 * alpha - alpha**2) / n


def _ratio_grid(grid) -> np.ndarray:
    """A pass's mixing-ratio grid as an array: at least 2 points, all in [0, 1]."""
    alphas = np.asarray(grid, dtype=float).ravel()
    if alphas.size < 2 or not np.all((alphas >= 0.0) & (alphas <= 1.0)):
        raise DataValidationError("a ratio grid needs >= 2 points inside [0, 1]")
    return alphas


def _pencil(F: np.ndarray, L_inv: np.ndarray, alphas: np.ndarray):
    """The pencil (F, L L^T) of a chunk of blocks, solved once for every ratio.

    Per block, eigh(L^{-1} F L^{-T}) = U diag(mu) U^T gives R = L^{-T} U with
    R^T L L^T R = I and R^T F R = diag(mu), so the blend alpha L L^T +
    (1 - alpha) F has the inverse S_alpha = R diag(1/d) R^T, d = alpha +
    (1 - alpha) mu: O(p^3 + A p) per block for A ratios, not O(A p^3).  A
    block with any d <= 0 has a blend that is not positive definite and is
    masked.  Returns that mask, mu, U and 1/d^2 (ratios x p per block).
    """
    mu, U = np.linalg.eigh(L_inv @ F @ L_inv.T)
    d = alphas[:, None] + (1.0 - alphas)[:, None] * mu[..., None, :]
    return np.all(d > 0.0, axis=(1, 2)), mu, U, 1.0 / d**2


class DdotRiskModel:
    """The estimated reducible error of the loss-mixed fit over a ratio grid.

    Per ratio, the block-averaged bias form ``_Q`` (q x q) and variance trace
    ``_V`` of ``GlmPoolStats``: the error at a plug-in point beta (any beta
    at the identity link, the 1 x 1 forms' unit at other links) is
    (beta^T Q beta + sigma^2 xi_alpha V) / n, one quadratic form per call.
    Its grid argmin is ``GlmPoolStats.argmin_alpha``.
    """

    def __init__(self, alphas: np.ndarray, n: int, Q: np.ndarray, V: np.ndarray):
        self.alphas, self.n, self._Q, self._V = alphas, n, Q, V
        self._xi = _xi(alphas, n)

    def curve(self, beta_plugin: np.ndarray, sigma2_hat: float) -> np.ndarray:
        beta = np.asarray(beta_plugin, dtype=float)
        bias = (self._Q @ beta) @ beta
        return (bias + sigma2_hat * self._xi * self._V) / self.n


class GlmPoolStats:
    """The one resampling pass of every link: each pool statistic of the risk formulas.

    On the per-sample scale of least squares: v_l, v_s (each with its SE) and
    v_u of the quadratic expansion around ``beta_eval``, the noise trace, b_u,
    the bias form and, given ``alphas``, ``ddot`` (``DdotRiskModel``).  Every
    statistic averages over the same blocks; ``n_skipped`` counts those whose
    F = X^T diag(g'(X beta)) X fails ``spd_factor`` or whose blend ``_pencil``
    masks.  ``bias=False`` skips the bias form.

    With H_g = L L^T the pool Hessian, the semi-supervised fit's error is
    H_g^{-1} zeta, zeta = E_X[X^T g(X beta)] minus the block's centered
    X^T g(X beta).  Bias and curve are forms in W = L^{-1} zeta: the bias is
    the covariance of W over blocks (from each chunk's sums), b_u the mean of
    ||W||_F^2 / n, and the curve's bias at a ratio alpha is alpha^2
    ||diag(1/d) U^T W beta||^2.  At the identity link zeta = (H - M) beta (M
    the block's centered scatter), so W = L^T - L^{-1} M is p x p and the
    forms take any beta (``beta_eval`` may be None); H_g = H with the cached
    ``moments.H_factor``, F = X^T X, whose checked factor gives
    v_l = <(X^T X)^{-1}, H> / n, and v_s = v_u = (n - 1) p / n^2 and the noise
    trace p are exact.  At other links W is one column at ``beta_eval``.
    """

    def __init__(self, moments: PopulationMoments, link: LinkSpec, beta_eval: np.ndarray | None,
                 spec: ResampleSpec, alphas=None, bias: bool = True):
        n, pool, p = moments.n, moments.pool, moments.pool.p
        if n <= p:
            raise RegimeError(f"n={n} <= p={p}: these risk terms need n > p (use the "
                              "interpolators module in the over-parameterized regime)")
        linear = link.kind == "identity"
        if beta_eval is None and not linear:
            raise DataValidationError(f"the {link.kind} link's statistics need beta_eval")
        self.n, self.p, self.moments, self.link = n, p, moments, link
        self.beta_eval = None if beta_eval is None else np.asarray(beta_eval, dtype=float)
        self.alphas = alphas = None if alphas is None else _ratio_grid(alphas)
        if linear:
            self.Hg = H = moments.H
            L = np.tril(moments.H_factor[0])
            self.v_u = (n - 1) * p / n**2
        else:
            eta_pool = pool.Z @ self.beta_eval
            d_pool = link.gprime(eta_pool)
            if np.min(d_pool) <= 0.0:
                raise LinkValidationError("g' is nonpositive somewhere on the pool; the quadratic "
                                          "expansion needs a strictly increasing link there")
            self.Hg = H = n * _weighted_gram(pool.Z, np.sqrt(d_pool)) / pool.m
            exmu = n * (pool.Z.T @ link.g(eta_pool)) / pool.m  # E_X[X^T g(X beta)]
            L = np.tril(spd_factor(H, "H_g")[0])
            self.v_u = (n - 1) / n**2 * float(np.trace(cho_solve((L, True), moments.H)))
        L_inv = np.linalg.inv(L)

        def kernel(X: np.ndarray):
            # X is a chunk of blocks (b, n, p); every statistic is a stack over it
            G = X.transpose(0, 2, 1) @ X
            if linear:
                ok, v_l = _each_block(
                    lambda Gb: np.vdot(cho_inverse(spd_factor(Gb, "X^T X")), H) / n, G
                )
                X, G = X[ok], G[ok]
                F, xbar, stats = G, X.mean(axis=1), {"v_l": np.array(v_l, dtype=float)}
                W = L.T - L_inv @ (G - n * (xbar[:, :, None] * xbar[:, None, :]))
            else:
                eta = X @ self.beta_eval
                d = link.gprime(eta)
                F = (X * d[..., None]).transpose(0, 2, 1) @ X
                ok, _ = _each_block(lambda Fb: spd_factor(Fb, "F"), F)
                X, d, eta, F, G = X[ok], d[ok], eta[ok], F[ok], G[ok]
                Fi = np.linalg.inv(F)
                FiG = Fi @ G
                FiG2 = Fi @ ((X * (d**2)[..., None]).transpose(0, 2, 1) @ X)
                stats = {
                    "v_l": np.einsum("bij,bji->b", FiG, Fi @ H) / n,
                    "v_s": (n - 1) / n**2 * np.einsum("bii->b", FiG),
                    "trace_sigma": np.einsum("bij,bji->b", FiG, FiG2),
                }
                mu = link.g(eta)
                c = (mu[:, None, :] @ X)[:, 0] - n * X.mean(axis=1) * mu.mean(axis=1)[:, None]
                W = L_inv @ (exmu - c)[..., None]
            stats["b_u"] = np.sum(W**2, axis=(1, 2)) / n
            if alphas is not None:
                keep, mu_k, U, inv_d2 = _pencil(F, L_inv, alphas)
                if not keep.all():  # masking copies every stack, so only when needed
                    ok[ok] = keep
                    stats = {key: value[keep] for key, value in stats.items()}
                    mu_k, U, inv_d2, W, G = mu_k[keep], U[keep], inv_d2[keep], W[keep], G[keep]
                if not linear:  # at the identity link R^T X^T X R = R^T F R = diag(mu)
                    R = L_inv.T @ U
                    mu_k = np.sum(R * (G @ R), axis=1)
                stats["var_tr"] = (inv_d2 @ mu_k[..., None])[..., 0]
                stats["A"], stats["inv_d2"] = U.transpose(0, 2, 1) @ W, inv_d2
            if bias:
                W_rows = W.reshape(-1, W.shape[2])  # sum of W^T W over blocks is one product
                stats["W"] = W.sum(axis=0, keepdims=True)
                stats["WtW"] = (W_rows.T @ W_rows)[None]
            return ok, stats

        stats, self.n_skipped = _block_pass(
            spec, lambda i: resample_block(moments, spec, i), kernel
        )
        self.n_blocks = B = stats["v_l"].size
        self.v_l, self.se_v_l = _mean_se(stats["v_l"])
        if linear:
            self.v_s, self.se_v_s, self.trace_sigma = self.v_u, 0.0, float(p)
        else:
            self.v_s, self.se_v_s = _mean_se(stats["v_s"])
            self.trace_sigma = float(np.mean(stats["trace_sigma"]))
        self.b_u_hat = float(np.mean(stats["b_u"]))
        self._bias = self.ddot = None
        if bias:  # the covariance over blocks of W, as a form
            W_mean = stats["W"].sum(axis=0) / B
            self._bias = (stats["WtW"].sum(axis=0) - B * (W_mean.T @ W_mean)) / ((B - 1) * n)
        if alphas is not None:
            # Q = mean over blocks of alpha^2 A^T diag(1/d^2) A, upper triangle only:
            # one block at a time, its outer products hold q^3 / 2 numbers
            q = stats["A"].shape[2]
            iu, ju = np.triu_indices(q)
            Q_upper = np.zeros((alphas.size, iu.size))
            for A, w in zip(stats["A"], stats["inv_d2"]):
                Q_upper += w @ (A[:, iu] * A[:, ju])
            Q = np.empty((alphas.size, q, q))
            Q[:, iu, ju] = Q[:, ju, iu] = Q_upper * (alphas**2 / B)[:, None]
            self.ddot = DdotRiskModel(alphas, n, Q, stats["var_tr"].mean(axis=0))

    def _point(self, beta: np.ndarray | None) -> np.ndarray:
        """Where the forms are read for a plug-in beta (None: ``beta_eval``): beta
        itself at the identity link, the 1 x 1 forms' unit at ``beta_eval`` elsewhere."""
        if beta is None:
            beta = self.beta_eval
            if beta is None:
                raise DataValidationError("the pass was built without beta_eval")
        beta = np.asarray(beta, dtype=float)
        if self.link.kind == "identity":
            return beta
        if not np.array_equal(beta, self.beta_eval):
            raise DataValidationError(
                f"the {self.link.kind} link's forms are read at beta_eval only"
            )
        return np.ones(1)

    @property
    def B_hat(self) -> float:
        """The bias at ``beta_eval``."""
        return self.bias_at(None)

    def bias_at(self, beta: np.ndarray | None) -> float:
        """The bias at a plug-in beta: any beta at the identity link, ``beta_eval`` elsewhere."""
        if self._bias is None:
            raise DataValidationError("model was built with bias=False")
        at = self._point(beta)
        return float(at @ self._bias @ at)

    def sigma2_denominator(self) -> float:
        return self.n - 2 * self.p + self.trace_sigma

    def risk(self, sigma2: float, B: float | None = None) -> MixRisk:
        """The coefficient mix's risk at noise sigma2 and bias B (default ``B_hat``)."""
        return MixRisk.from_factors(sigma2, self.B_hat if B is None else B, self.v_l,
                                    self.v_u, self.v_s, self.se_v_l, self.se_v_s)

    def ddot_curve(self, sigma2_hat: float, beta: np.ndarray | None = None) -> np.ndarray:
        """The loss-mixed fit's estimated risk at each ratio of ``alphas``, at a plug-in
        beta as ``bias_at`` takes it (default ``beta_eval``)."""
        if self.ddot is None:
            raise DataValidationError("stats were built without a mixing-ratio grid")
        return self.ddot.curve(self._point(beta), sigma2_hat)

    def argmin_alpha(self, sigma2_hat: float, beta: np.ndarray | None = None) -> float:
        """The ratio of ``alphas`` at which ``ddot_curve`` is least: the one grid argmin of
        the loss mix, for a sample's plug-in and for the presets' oracle at the true beta."""
        return float(self.alphas[int(np.argmin(self.ddot_curve(sigma2_hat, beta)))])


def _mean_se(arr: np.ndarray) -> tuple[float, float]:
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def estimate_noise_glm(
    data: LabeledSet, beta_hat: np.ndarray, link: LinkSpec, stats: GlmPoolStats
) -> float:
    """Approximately unbiased noise estimate for a general link.

    RSS of the supervised fit divided by n - 2p + the trace of ``stats``, the
    pool statistics at the semi-supervised fit.  ``stats`` must be built for
    the sample's n.  At the identity link the trace is p exactly, so this is
    the unbiased RSS/(n - p).
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
    """The fits, noise estimates and mixing ratios of one centered labeled sample.

    The one per-sample object of every link, shared by ``fit_ols_pipeline``,
    ``fit_glm_pipeline`` and the OLS and GLM presets.  ``moments`` must be
    built for the sample's n; a pool whose Gram H fails ``moments.H_factor``
    raises SingularMatrixError before any fit.  At the identity link the fits
    are the closed forms of least squares (``fit_ols_supervised``,
    ``fit_ols_semisupervised``, ``fit_loss_mixed_ols``) and tau2_hat =
    max((Y^T Y / n - sigma2_hat) / tr Exx, 0) estimates the signal.  At other
    links one ``GlmProblem``, ``problem``, serves every Newton fit: beta_hat
    (alpha = 0), beta_breve (alpha = 1) and the loss-mixed fits in between;
    ``nonconverged`` counts the solves that did not converge (their results
    are still used), and tau2_hat is None.

    ``stats`` is ``GlmPoolStats`` at beta_breve (plan ``spec``, grid
    ``alphas``), built on first use.  At the identity link the pass does not
    depend on the fit, so a pass built for the same ``moments`` may be given
    in place of a plan and shared by many samples.  From ``stats`` come the
    noise estimate (``estimate_noise_glm``), the bias B_hat at beta_breve and
    the ratios; a sample built with neither has the fits only.
    """

    def __init__(
        self,
        data: LabeledSet,
        moments: PopulationMoments,
        link: LinkSpec,
        spec: ResampleSpec | None = None,
        alphas=None,
        stats: GlmPoolStats | None = None,
    ):
        _check_n(data.n, moments.n)
        moments.H_factor  # checked once, before any fit
        self.data, self.moments, self.link = data, moments, link
        self.spec, self.alphas = spec, alphas
        self.nonconverged = 0
        linear = link.kind == "identity"
        if stats is not None:
            if not (linear and stats.link.kind == "identity" and stats.moments is moments
                    and spec is None and alphas is None):
                raise DataValidationError("a built pass is taken in place of a plan only at "
                                          "the identity link and for the sample's own moments")
            self.stats = stats
        if linear:
            self.beta_hat = fit_ols_supervised(data)
            self.beta_breve = fit_ols_semisupervised(data, moments)
        else:
            start = np.linalg.lstsq(data.X, data.Y, rcond=None)[0]  # both pure fits start here
            self.beta_hat = self._fit(0.0, start)
            self.beta_breve = self._fit(1.0, start)

    @cached_property
    def problem(self) -> GlmProblem:
        return GlmProblem(self.data, self.moments.pool, self.link)

    def _fit(self, alpha: float, beta0: np.ndarray | None = None) -> np.ndarray:
        if self.link.kind == "identity":
            return fit_loss_mixed_ols(self.data, self.moments, alpha)
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
    def tau2_hat(self) -> float | None:
        if self.link.kind != "identity":
            return None
        signal = float(self.data.Y @ self.data.Y) / self.data.n - self.sigma2_hat
        return max(signal / float(np.trace(self.moments.Exx)), 0.0)

    @cached_property
    def B_hat(self) -> float:
        return self.stats.bias_at(self.beta_breve)

    @cached_property
    def alpha_hat(self) -> float:
        """Formula ratio at the plug-in bias B_hat."""
        return self.ratio()

    @cached_property
    def alpha_grid(self) -> float | None:
        """Argmin of the loss-mixed curve at beta_breve; None when the stats have no grid."""
        if self.stats.ddot is None:
            return None
        return self.stats.argmin_alpha(self.sigma2_hat, self.beta_breve)

    def ratio(self, B: float | None = None) -> float:
        """Formula ratio at the estimated noise and a plug-in bias B (default B_hat)."""
        return self.stats.risk(self.sigma2_hat, self.B_hat if B is None else B).ratio

    def linear(self, alpha: float) -> np.ndarray:
        return mix_linear(self.beta_hat, self.beta_breve, alpha)

    def loss(self, alpha: float, beta0: np.ndarray | None = None) -> np.ndarray:
        """Loss-mixed fit, started at the nearer pure fit unless beta0 is given.

        The endpoints are the pure fits themselves: alpha = 0 is beta_hat and
        alpha = 1 is beta_breve, with no further solve.  At the identity link
        the fit is the closed form and beta0 is not read.
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
