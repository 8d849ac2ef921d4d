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
    COND_LIMIT,
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
    "COND_LIMIT",
    "RiskCurve",
    "OlsPoolModel",
    "OlsSample",
    "DdotRiskModel",
    "fit_ols_supervised",
    "fit_ols_semisupervised",
    "mix_linear",
    "fit_loss_mixed_ols",
    "NoiseSignalOls",
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


@dataclass(frozen=True)
class RiskCurve:
    """A grid of estimated reducible errors over mixing ratios."""

    alphas: np.ndarray
    r_hat: np.ndarray
    se: np.ndarray
    argmin_alpha: float

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=float)
        r_hat = np.asarray(self.r_hat, dtype=float)
        se = np.asarray(self.se, dtype=float)
        if not (alphas.size == r_hat.size == se.size) or alphas.size < 2:
            raise DataValidationError("curve grids must share a length >= 2")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "r_hat", r_hat)
        object.__setattr__(self, "se", se)


class OlsPoolModel:
    """Pool statistics for the squared-loss risk formulas.

    One pass of block resampling estimates v_l (with its standard error),
    the random-coefficient bias factor b_u, and keeps the whitened centered
    scatter of every block so the bias of the semi-supervised estimator can
    be evaluated at any plug-in coefficient vector without re-resampling.
    ``moments``, the pool's moments for one labeled size, gives the centered
    pool, n and H.  Given a ratio ``grid``, the same pass also builds
    ``ddot``, the loss-mixed risk model over that grid (``DdotRiskModel``), so
    every statistic averages over the same blocks, each drawn and checked once.
    The pass hands each chunk of resampled blocks (see ``core._block_pass``)
    to one stacked kernel: X^T X of every block by a batched product, and the
    whitened scatter L^{-1} M by one product with L^{-1}, where H = L L^T is
    ``moments.H_factor``, the one checked factor of H that every statistic
    uses.  Whether a block is usable is still decided per block, by
    ``spd_factor`` of its X^T X, and that factor also gives the block's
    v_l = <(X^T X)^{-1}, H> / n, the sum of the entrywise products, with the
    inverse from ``cho_inverse`` (``dpotri`` takes about a third of the flops
    of a solve against H's p columns).
    """

    def __init__(
        self, moments: PopulationMoments, spec: ResampleSpec, keep_blocks: bool = True, grid=None
    ):
        n, p = moments.n, moments.pool.p
        if n <= p:
            raise RegimeError(
                f"n={n} <= p={p}: these risk terms need n > p "
                "(use the interpolators module in the over-parameterized regime)"
            )
        self.n = n
        self.moments = moments
        L, L_inv = _cholesky_pair(moments)  # H = L L^T, one factor for every statistic
        alphas = None if grid is None else _ratio_grid(grid)

        def kernel(X: np.ndarray):
            # X is a chunk of blocks (b, n, p); every statistic is a stack over it
            G = X.transpose(0, 2, 1) @ X
            ok, v_l = _each_block(  # the checked factor of each X^T X gives its v_l
                lambda Gb: np.vdot(cho_inverse(spd_factor(Gb, "X^T X")), moments.H) / n, G
            )
            X, G = X[ok], G[ok]
            xbar = X.mean(axis=1)
            W = L_inv @ (G - n * (xbar[:, :, None] * xbar[:, None, :]))  # L^{-1} M
            stats = {
                "v_l": np.array(v_l, dtype=float),
                # tr(Delta1^T H Delta1) with Delta1 = H^{-1} M - I equals
                # ||L^{-1} M - L^T||_F^2.
                "b_u": np.sum((W - L.T) ** 2, axis=(1, 2)) / n,
            }
            if keep_blocks:
                stats["W"] = W
            if alphas is not None:
                keep, pencil = _ddot_block(G, xbar, L, L_inv, n, alphas)
                ok[ok] = keep
                stats = {key: value[keep] for key, value in (stats | pencil).items()}
            return ok, stats

        stats, self.n_skipped = _block_pass(
            spec, lambda i: resample_block(moments, spec, i), kernel
        )
        arr = stats["v_l"]
        self.n_blocks = arr.size
        self.v_l = float(arr.mean())
        self.se_v_l = float(arr.std(ddof=1) / math.sqrt(arr.size))
        self.v_u = (n - 1) * p / n**2
        self.b_u_hat = float(np.mean(stats["b_u"]))
        self._W = stats["W"] if keep_blocks else None
        self.ddot = None
        if alphas is not None:
            self.ddot = DdotRiskModel(alphas, n, *_ddot_operators(stats))

    def risk(self, sigma2: float, B: float) -> MixRisk:
        """The coefficient mix's risk at noise sigma2 and bias B (``MixRisk.from_factors``)."""
        return MixRisk.from_factors(sigma2, B, self.v_l, self.v_u, self.v_u, self.se_v_l)

    def bias_at(self, beta: np.ndarray) -> float:
        """Estimated bias of the semi-supervised estimator at a plug-in beta.

        (1/n) tr(H^{-1} Var_X(X^T X beta - n Xbar (Xbar . beta))) with the
        variance taken over the resampled blocks.
        """
        if self._W is None:
            raise DataValidationError("model was built with keep_blocks=False")
        beta = np.asarray(beta, dtype=float)
        U = self._W @ beta  # (blocks, p) whitened covariance vectors
        U = U - U.mean(axis=0)
        return float(np.sum(U * U) / (U.shape[0] - 1) / self.n)


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
class NoiseSignalOls:
    """Noise and signal estimates from the supervised residuals."""

    sigma2_hat: float
    tau2_hat: float


def noise_signal_ols(
    data: LabeledSet, beta_hat: np.ndarray, moments: PopulationMoments
) -> NoiseSignalOls:
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
    return NoiseSignalOls(sigma2_hat=sigma2, tau2_hat=tau2)


def _xi(alpha, n: int):
    return 1.0 - (2.0 * alpha - alpha**2) / n


def _ratio_grid(grid) -> np.ndarray:
    """A pass's mixing-ratio grid as an array: at least 2 points, all in [0, 1]."""
    alphas = np.asarray(grid, dtype=float).ravel()
    if alphas.size < 2 or not np.all((alphas >= 0.0) & (alphas <= 1.0)):
        raise DataValidationError("a ratio grid needs >= 2 points inside [0, 1]")
    return alphas


def _blend_denominators(alphas: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """alpha + (1 - alpha) lam_k for every ratio (rows) and eigenvalue (columns).

    ``lam`` holds one row of eigenvalues per block, and the result one
    (ratios x eigenvalues) matrix per block.  With V^T A V = I and
    V^T B V = diag(lam), the blend alpha A + (1 - alpha) B equals
    V^{-T} diag(d) V^{-1}, so it is positive definite exactly when every d is
    positive: a block with any other d is masked, as a failed Cholesky
    factorization of its blend would skip it.
    """
    return alphas[:, None] + (1.0 - alphas)[:, None] * lam[..., None, :]


def _cholesky_pair(moments: PopulationMoments) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor L of H and its inverse, for a whole pass."""
    L = np.tril(moments.H_factor[0])
    return L, np.linalg.inv(L)


def _ddot_block(
    G: np.ndarray,
    xbar: np.ndarray,
    L: np.ndarray,
    L_inv: np.ndarray,
    n: int,
    alphas: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Loss-mixed risk pieces of a chunk of blocks for every ratio, one pencil solve each.

    ``G`` stacks X^T X and ``xbar`` the column means of b blocks.  Per block,
    eigh(L^{-1} G L^{-T}) = U diag(lam) U^T gives V = L^{-T} U with V^T H V = I
    and V^T G V = diag(lam).  Then, with d = alpha + (1 - alpha) lam,
    S_alpha = V diag(1/d) V^T, the variance trace tr(H S_alpha G S_alpha) is
    sum_k lam_k / d_k^2, and Delta_alpha = S_alpha (G - alpha z z^T) - I equals
    V M_alpha W with W = V^{-1} = U^T L^T, z = sqrt(n) Xbar and the diagonal plus
    rank-one M_alpha = diag(e) - a u^T, where e = alpha (lam - 1) / d,
    a = alpha u / d and u = V^T z.  Returns the mask of the blocks whose blends
    are positive definite and the stacks W, z, e, a and var_tr (keys "Wd",
    "z", "e", "a", "var_tr"); e, a and var_tr carry one row per ratio.  Cost
    O(p^3 + A p) per block for A ratios.
    """
    lam, U = np.linalg.eigh(L_inv @ G @ L_inv.T)
    z = math.sqrt(n) * xbar
    u = ((z @ L_inv.T)[:, None, :] @ U)[:, 0]
    d = _blend_denominators(alphas, lam)
    keep = np.all(d > 0.0, axis=(1, 2))
    a_col = alphas[:, None]
    e = a_col * (lam[:, None, :] - 1.0) / d
    a = a_col * u[:, None, :] / d
    var_tr = ((1.0 / d**2) @ lam[..., None])[..., 0]
    Wd = U.transpose(0, 2, 1) @ L.T
    return keep, {"Wd": Wd, "z": z, "e": e, "a": a, "var_tr": var_tr}


def _ddot_operators(stacks: dict) -> tuple[np.ndarray, np.ndarray]:
    """Block averages of Delta_alpha^T H Delta_alpha and of the variance trace.

    ``stacks`` holds the ``_ddot_block`` stacks of every usable block.  With
    Delta_alpha = V M_alpha W, Delta_alpha^T H Delta_alpha = W^T M_alpha^T M_alpha W,
    which expands to sum_k e_k^2 w_k w_k^T - (r z^T + z r^T) + ||a||^2 z z^T with
    w_k the rows of W and r = W^T (e * a).  Per block, the first sum is one
    matrix product of the A rows of e^2 with the p outer products w_k w_k^T
    (upper triangle only); the rest is O(A p^2) per block, for A ratios, and
    runs over all blocks at once.  Returns (Q, V): Q has one exactly symmetric
    p x p matrix per ratio.
    """
    Wd, z, e, a = (stacks[key] for key in ("Wd", "z", "e", "a"))
    B, A, p = e.shape
    iu, ju = np.triu_indices(p)
    Q_upper = np.zeros((A, iu.size))
    for W, e_b in zip(Wd, e):  # one block at a time: its outer products hold p^3 / 2 numbers
        Q_upper += (e_b * e_b) @ (W[:, iu] * W[:, ju])
    r = (e * a) @ Wd  # (B, A, p)
    rz = r.transpose(1, 2, 0) @ z  # sum over blocks of r z^T, per ratio
    aa = np.sum(a * a, axis=2).T  # (A, B)
    azz = (aa[:, :, None] * z).transpose(0, 2, 1) @ z  # sum of ||a||^2 z z^T
    Q_upper += (azz - rz - rz.transpose(0, 2, 1))[:, iu, ju]
    Q = np.empty((A, p, p))
    Q[:, iu, ju] = Q_upper
    Q[:, ju, iu] = Q_upper
    return Q / B, stacks["var_tr"].mean(axis=0)


class DdotRiskModel:
    """The estimated reducible error of the loss-mixed fit over a ratio grid.

    For each alpha the bias term (1/n) E_X[beta^T Delta_alpha^T H Delta_alpha
    beta] at a plug-in beta and the variance term
    (sigma^2 xi_alpha / n) tr(H E_X[S_alpha X^T X S_alpha]) are averaged over
    resampled blocks.  The model holds the block-averaged operators ``_Q``
    (one p x p matrix per ratio) and ``_V`` (one trace per ratio), so the
    curve is re-evaluated for many plug-in vectors (one per Monte Carlo
    replication) at quadratic-form cost.  ``OlsPoolModel(..., grid=...)``
    builds it in its block pass; each block solves the pencil (X^T X, H) once
    (see ``_ddot_block``), O(p^3 + A p^2) for A ratios, in place of one
    factorization of the blend per ratio, O(A p^3).
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
