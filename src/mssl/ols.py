"""Squared-loss estimators, mixing rules, and risk-term estimation.

Implements the supervised least-squares fit, its semi-supervised
counterpart built from pool moments, the two mixing mechanisms (mixing the
coefficient vectors, and mixing the loss functions), the closed-form best
mixing ratio for the coefficient mix, and block-resampling estimators of
every variance/bias factor those formulas need.
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
    _block_pass,
    _each_block,
    resample_block,
    spd_factor,
)
from .errors import DataValidationError, RegimeError

__all__ = [
    "OlsPoolModel",
    "OlsSample",
    "DdotRiskModel",
    "fit_ols_supervised",
    "fit_ols_semisupervised",
    "mix_linear",
    "fit_loss_mixed_ols",
    "NoiseSignal",
    "noise_signal_ols",
]


def fit_ols_supervised(data: LabeledSet) -> np.ndarray:
    """Least-squares coefficients (X^T X)^{-1} X^T Y."""
    return cho_solve(spd_factor(data.gram, "X^T X"), data.xty)


def _check_n(n: int, built_for: int) -> None:
    """A labeled sample of size n against statistics built for ``built_for`` rows."""
    if n != built_for:
        raise DataValidationError(
            f"the labeled sample has n={n}, but its pool statistics were built for n={built_for}"
        )


def fit_ols_semisupervised(data: LabeledSet, moments: PopulationMoments) -> np.ndarray:
    """Semi-supervised coefficients H^{-1}(X^T Y - n Xbar Ybar).

    Solves against ``moments.H_factor``, so H is factored once per moments
    object however many samples are fit against it.  H = n Exx must be built
    for the sample's n.
    """
    _check_n(data.n, moments.n)
    return cho_solve(moments.H_factor, data.xty - data.n * data.xbar * data.ybar)


def mix_linear(a: np.ndarray, b: np.ndarray, alpha: float) -> np.ndarray:
    """Componentwise mix (1 - alpha) a + alpha b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DataValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    if not np.isfinite(alpha):
        raise DataValidationError("alpha must be finite")
    return (1.0 - alpha) * a + alpha * b


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


class OlsPoolModel:
    """Pool statistics for the squared-loss risk formulas.

    One pass of block resampling estimates v_l (with its standard error),
    the random-coefficient bias factor b_u, and the bias form of the
    semi-supervised estimator, so that its bias can be evaluated at any
    plug-in coefficient vector as one p x p quadratic form (``bias_at``).
    ``moments``, the pool's moments for one labeled size, gives the centered
    pool, n and H.  Given a ratio ``grid``, the same pass also builds
    ``ddot``, the loss-mixed risk model over that grid (``DdotRiskModel``), so
    every statistic averages over the same blocks, each drawn and checked once.
    ``bias=False`` skips the bias form, for callers that never read it.

    Every statistic is a form in D = L^{-1}(H - M) = L^T - L^{-1} M, with M
    the block's centered scatter and H = L L^T from ``moments.H_factor``, the
    one checked factor of H that every statistic uses: b_u is ||D||_F^2 / n,
    and the semi-supervised fit's error is H^{-1}(H - M) beta = L^{-T} D beta.
    The pass hands each chunk of resampled blocks (see ``core._block_pass``)
    to one stacked kernel.  It returns the chunk's sums of D and D^T D, which
    give the bias form, and per-block values: v_l, b_u and, with a grid, the
    curve's pieces (``DdotRiskModel``), which are summed after the pass and
    not kept.  Whether a block is usable is still decided per block, by
    ``spd_factor`` of its X^T X, and that factor also gives the block's
    v_l = <(X^T X)^{-1}, H> / n, the sum of the entrywise products, with the
    inverse from ``cho_inverse`` (``dpotri`` takes about a third of the flops
    of a solve against H's p columns).
    """

    def __init__(
        self, moments: PopulationMoments, spec: ResampleSpec, bias: bool = True, grid=None
    ):
        n, p = moments.n, moments.pool.p
        if n <= p:
            raise RegimeError(
                f"n={n} <= p={p}: these risk terms need n > p "
                "(use the interpolators module in the over-parameterized regime)"
            )
        self.n = n
        self.moments = moments
        L = np.tril(moments.H_factor[0])  # H = L L^T, one factor for every statistic
        L_inv = np.linalg.inv(L)
        alphas = None if grid is None else _ratio_grid(grid)

        def kernel(X: np.ndarray):
            # X is a chunk of blocks (b, n, p); every statistic is a stack over it
            G = X.transpose(0, 2, 1) @ X
            ok, v_l = _each_block(  # the checked factor of each X^T X gives its v_l
                lambda Gb: np.vdot(cho_inverse(spd_factor(Gb, "X^T X")), moments.H) / n, G
            )
            X, G = X[ok], G[ok]
            xbar = X.mean(axis=1)
            D = L.T - L_inv @ (G - n * (xbar[:, :, None] * xbar[:, None, :]))
            stats = {"v_l": np.array(v_l, dtype=float), "b_u": np.sum(D**2, axis=(1, 2)) / n}
            if alphas is not None:
                keep, mu, U, inv_d2 = _pencil(G, L_inv, alphas)
                if not keep.all():  # masking copies every stack, so only when needed
                    ok[ok] = keep
                    stats = {key: value[keep] for key, value in stats.items()}
                    mu, U, inv_d2, D = mu[keep], U[keep], inv_d2[keep], D[keep]
                stats["var_tr"] = (inv_d2 @ mu[..., None])[..., 0]
                stats["A"], stats["inv_d2"] = U.transpose(0, 2, 1) @ D, inv_d2
            if bias:
                D_rows = D.reshape(-1, p)  # sum of D^T D over blocks is one product
                stats["D"] = D.sum(axis=0, keepdims=True)
                stats["DtD"] = (D_rows.T @ D_rows)[None]
            return ok, stats

        stats, self.n_skipped = _block_pass(
            spec, lambda i: resample_block(moments, spec, i), kernel
        )
        arr = stats["v_l"]
        self.n_blocks = B = arr.size
        self.v_l = float(arr.mean())
        self.se_v_l = float(arr.std(ddof=1) / math.sqrt(arr.size))
        self.v_u = (n - 1) * p / n**2
        self.b_u_hat = float(np.mean(stats["b_u"]))
        self._bias = None
        if bias:  # the covariance over blocks of D, as a form in beta
            D_mean = stats["D"].sum(axis=0) / B
            self._bias = (stats["DtD"].sum(axis=0) - B * (D_mean.T @ D_mean)) / ((B - 1) * n)
        self.ddot = None
        if alphas is not None:
            # Q = mean over blocks of alpha^2 A^T diag(1/d^2) A, upper triangle only:
            # one block at a time, its outer products hold p^3 / 2 numbers
            iu, ju = np.triu_indices(p)
            Q_upper = np.zeros((alphas.size, iu.size))
            for A, w in zip(stats["A"], stats["inv_d2"]):
                Q_upper += w @ (A[:, iu] * A[:, ju])
            Q = np.empty((alphas.size, p, p))
            Q[:, iu, ju] = Q[:, ju, iu] = Q_upper * (alphas**2 / B)[:, None]
            self.ddot = DdotRiskModel(alphas, n, Q, stats["var_tr"].mean(axis=0))

    def risk(self, sigma2: float, B: float) -> MixRisk:
        """The coefficient mix's risk at noise sigma2 and bias B (``MixRisk.from_factors``)."""
        return MixRisk.from_factors(sigma2, B, self.v_l, self.v_u, self.v_u, self.se_v_l)

    def bias_at(self, beta: np.ndarray) -> float:
        """Estimated bias of the semi-supervised estimator at a plug-in beta.

        (1/n) tr(H^{-1} Var_X(X^T X beta - n Xbar (Xbar . beta))) with the
        variance taken over the resampled blocks: beta^T Var(D) beta / n, the
        kept form at beta.
        """
        if self._bias is None:
            raise DataValidationError("model was built with bias=False")
        beta = np.asarray(beta, dtype=float)
        return float(beta @ self._bias @ beta)


class OlsSample:
    """The fits, noise estimates and mixing ratios of one centered labeled sample.

    ``model`` is the ``OlsPoolModel`` of the sample's pool and n; the fits
    solve against its moments, and the plug-in bias at beta_breve and the
    ratios come from it on first use.  Shared by ``fit_ols_pipeline`` and the
    OLS presets.
    """

    def __init__(self, data: LabeledSet, model: OlsPoolModel):
        self.data, self.model, self.moments = data, model, model.moments
        self.beta_hat = fit_ols_supervised(data)
        self.beta_breve = fit_ols_semisupervised(data, self.moments)
        noise = noise_signal_ols(data, self.beta_hat, self.moments)
        self.sigma2_hat, self.tau2_hat = noise.sigma2_hat, noise.tau2_hat

    @cached_property
    def B_hat(self) -> float:
        return self.model.bias_at(self.beta_breve)

    @cached_property
    def alpha_hat(self) -> float:
        """Formula ratio at the plug-in bias B_hat."""
        return self.ratio(self.B_hat)

    @cached_property
    def alpha_grid(self) -> float | None:
        """Argmin of the model's loss-mixed curve; None when it has no grid."""
        ddot = self.model.ddot
        return None if ddot is None else ddot.argmin_alpha(self.beta_breve, self.sigma2_hat)

    def ratio(self, B: float) -> float:
        """Formula ratio at the estimated noise and a plug-in bias B."""
        return self.model.risk(self.sigma2_hat, B).ratio

    def linear(self, alpha: float) -> np.ndarray:
        return mix_linear(self.beta_hat, self.beta_breve, alpha)

    def loss(self, alpha: float) -> np.ndarray:
        return fit_loss_mixed_ols(self.data, self.moments, alpha)


@dataclass(frozen=True)
class NoiseSignal:
    """Noise and signal estimates of ``noise_signal_ols`` and ``InterpSample.sigma_tau``."""

    sigma2_hat: float
    tau2_hat: float


def noise_signal_ols(
    data: LabeledSet, beta_hat: np.ndarray, moments: PopulationMoments
) -> NoiseSignal:
    """Unbiased noise estimate RSS/(n-p) and the matching signal estimate."""
    n, p = data.n, data.p
    if n <= p:
        raise RegimeError(
            "noise estimation by RSS/(n-p) needs n > p; "
            "use the interpolators module when p >= n"
        )
    resid = data.Y - data.X @ np.asarray(beta_hat, dtype=float)
    sigma2 = float(resid @ resid) / (n - p)
    tr_exx = float(np.trace(moments.Exx))
    if tr_exx <= 0:
        raise DataValidationError("tr(Exx) must be positive to estimate the signal")
    tau2 = max((float(data.Y @ data.Y) / n - sigma2) / tr_exx, 0.0)
    return NoiseSignal(sigma2_hat=sigma2, tau2_hat=tau2)


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

    ``F`` stacks one p x p matrix per block.  Per block,
    eigh(L^{-1} F L^{-T}) = U diag(mu) U^T gives R = L^{-T} U with
    R^T L L^T R = I and R^T F R = diag(mu), so the blend
    alpha L L^T + (1 - alpha) F equals R^{-T} diag(d) R^{-1} and its inverse
    S_alpha is R diag(1/d) R^T, with d = alpha + (1 - alpha) mu.  The blend is
    positive definite exactly when every d is positive: a block with any
    other d is masked, as a failed Cholesky factorization of its blend would
    skip it.  Returns that mask, mu, U and 1/d^2 (one ratios x p matrix per
    block).  A grid of A ratios costs O(p^3 + A p) per block, in place of one
    factorization of the blend per ratio, O(A p^3).
    """
    mu, U = np.linalg.eigh(L_inv @ F @ L_inv.T)
    d = alphas[:, None] + (1.0 - alphas)[:, None] * mu[..., None, :]
    return np.all(d > 0.0, axis=(1, 2)), mu, U, 1.0 / d**2


class DdotRiskModel:
    """The estimated reducible error of the loss-mixed fit over a ratio grid.

    For each alpha the bias term (1/n) E_X[beta^T Delta_alpha^T H Delta_alpha
    beta] at a plug-in beta and the variance term
    (sigma^2 xi_alpha / n) tr(H E_X[S_alpha X^T X S_alpha]) are averaged over
    resampled blocks.  The model holds the block-averaged operators ``_Q``
    (one p x p matrix per ratio) and ``_V`` (one trace per ratio), so the
    curve is re-evaluated for many plug-in vectors (one per Monte Carlo
    replication) at quadratic-form cost.  ``OlsPoolModel(..., grid=...)``
    builds it in its block pass, with the general-link curve's formulas at
    the identity link (``GlmPoolStats``): Delta_alpha beta =
    -alpha S_alpha (H - M) beta, so with the block's pencil (X^T X, H) solved
    once (``_pencil``) the bias is alpha^2 beta^T A^T diag(1/d^2) A beta, with
    A = U^T D and D = L^{-1}(H - M), and the variance trace is
    sum_k mu_k / d_k^2.
    """

    def __init__(self, alphas: np.ndarray, n: int, Q: np.ndarray, V: np.ndarray):
        self.alphas = alphas
        self.n = n
        self._xi = _xi(alphas, n)
        self._Q = Q
        self._V = V

    def curve(self, beta_plugin: np.ndarray, sigma2_hat: float) -> np.ndarray:
        beta = np.asarray(beta_plugin, dtype=float)
        bias = (self._Q @ beta) @ beta
        return (bias + sigma2_hat * self._xi * self._V) / self.n

    def argmin_alpha(self, beta_plugin: np.ndarray, sigma2_hat: float) -> float:
        return float(self.alphas[int(np.argmin(self.curve(beta_plugin, sigma2_hat)))])
