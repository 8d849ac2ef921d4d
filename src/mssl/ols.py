"""Squared-loss estimators: what least squares has beyond the identity-link GLM.

The supervised and semi-supervised fits, the closed-form loss-mixed fit, the
noise and signal estimates RSS/(n - p) and ``OlsSample``.  The pool
statistics are ``glm.GlmPoolStats`` at the identity link (``OlsPoolModel``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import cho_solve
from .core import LabeledSet, PopulationMoments, ResampleSpec, spd_factor
from .errors import DataValidationError, RegimeError
from .glm import DdotRiskModel, GlmPoolStats, _check_n, mix_linear
from .links import identity_link

__all__ = [
    "DdotRiskModel",
    "OlsPoolModel",
    "OlsSample",
    "fit_ols_supervised",
    "fit_ols_semisupervised",
    "fit_loss_mixed_ols",
    "NoiseSignal",
    "noise_signal_ols",
]


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


class OlsPoolModel(GlmPoolStats):
    """The squared-loss pool statistics: ``GlmPoolStats`` at ``identity_link()``,
    whose forms take any plug-in beta (``bias_at``, ``ddot.curve``)."""

    def __init__(
        self, moments: PopulationMoments, spec: ResampleSpec, bias: bool = True, grid=None
    ):
        super().__init__(moments, identity_link(), None, spec, grid, bias)


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
