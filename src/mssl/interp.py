"""Over-parameterized estimators: minimum-norm and minimum-variance
interpolators, their mixing rule, risk terms and noise/signal estimation.
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
    ResampleSpec,
    _block_pass,
    _each_block,
    seeded_rng,
    spd_factor,
)
from .errors import DataValidationError, RegimeError
from .ols import NoiseSignal, mix_linear

__all__ = [
    "InterpSample",
    "InterpRiskTerms",
    "NoiseSignal",
    "fit_min_norm",
    "fit_min_variance",
    "interp_risk_terms",
    "iterate_sigma_tau",
]


def fit_min_norm(data: LabeledSet) -> np.ndarray:
    """Minimum-l2-norm interpolator X^T (X X^T)^{-1} Y (needs p > n)."""
    return InterpSample(data).min_norm


def fit_min_variance(data: LabeledSet, Sigma: np.ndarray) -> np.ndarray:
    """Minimum-predictive-variance interpolator for a given covariance.

    Sigma^{-1} X^T (X Sigma^{-1} X^T)^{-1} Y; among interpolators it
    minimizes w^T Sigma w for every realization of the data.
    """
    return InterpSample(data, spd_factor(np.asarray(Sigma, dtype=float), "Sigma")).min_variance


@dataclass(frozen=True)
class InterpRiskTerms:
    """Bias/variance factors of the two interpolators with their MC errors.

    ``n_skipped`` counts the design draws the Monte Carlo pass skipped.
    """

    b_l: float
    v_l: float
    b_u: float
    v_u: float
    se_b_l: float = 0.0
    se_v_l: float = 0.0
    se_b_u: float = 0.0
    se_v_u: float = 0.0
    n_skipped: int = 0

    def risk(self, sigma2: float, tau2: float) -> MixRisk:
        """The interpolator mix's risk at noise sigma2 and signal tau2.

        floor tau^2 b_l + sigma^2 v_u, gain sigma^2 (v_l - v_u) and cost
        tau^2 (b_u - b_l), so the ratio is
        sigma^2 (v_l - v_u) / (tau^2 (b_u - b_l) + sigma^2 (v_l - v_u)).
        Each gap's SE is the sum of its two terms' SEs.
        """
        return MixRisk(
            tau2 * self.b_l + sigma2 * self.v_u,
            sigma2 * (self.v_l - self.v_u),
            tau2 * (self.b_u - self.b_l),
            se_gain=sigma2 * (self.se_v_l + self.se_v_u),
            se_cost=tau2 * (self.se_b_l + self.se_b_u),
        )


def interp_risk_terms(Sigma: np.ndarray, sampler, spec: ResampleSpec) -> InterpRiskTerms:
    """Monte Carlo estimates of (b_l, v_l, b_u, v_u) over design draws.

    b_l = tr(Sigma - Sigma E[X^T (X X^T)^{-1} X]),
    v_l = tr(Sigma E[X^T (X X^T)^{-2} X]),
    b_u = tr(Sigma - E[X^T (X Sigma^{-1} X^T)^{-1} X]),
    v_u = tr(E[(X Sigma^{-1} X^T)^{-1}]).
    ``sampler(rng)`` draws one n x p design; p is the order of Sigma and n is
    read from the draws.  A draw of another width raises DataValidationError,
    and p <= n + 1 raises RegimeError, both on the first chunk of draws,
    before any draw is factored.

    The pass works in Sigma's eigenbasis, Sigma = Q D Q^T, found once per
    call: each chunk of draws is rotated by one product, X~ = X Q, and a draw
    then needs three n x n Gram matrices, G = X~ X~^T (= X X^T),
    S = X~ D X~^T (= X Sigma X^T) and K = X~ D^{-1} X~^T (= X Sigma^{-1} X^T).
    With G^{-1} and K^{-1} from their checked factors (``cho_inverse``),
    b_l = tr Sigma - <G^{-1}, S>, v_l = <G^{-1} S, G^{-1}>,
    b_u = tr Sigma - <K^{-1}, G> and v_u = tr K^{-1}, where <A, B> is the
    sum of the entrywise products.  A draw whose G or K fails ``spd_factor``
    is skipped and counted in ``n_skipped``.  Sigma itself must pass
    ``spd_factor``, checked on every call before its eigendecomposition.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    p = Sigma.shape[0]
    tr_sigma = float(np.trace(Sigma))
    spd_factor(Sigma, "Sigma")
    D, Q = np.linalg.eigh(Sigma)
    root = np.sqrt(D)
    inv_root = 1.0 / root

    def per_draw(X: np.ndarray):  # one rotated draw X~
        G = X @ X.T
        g_inv = cho_inverse(spd_factor(G, "X X^T"))
        Y = X * inv_root
        k_inv = cho_inverse(spd_factor(Y @ Y.T, "X Sigma^{-1} X^T"))
        Y = X * root
        S = Y @ Y.T
        return (
            tr_sigma - float(np.vdot(g_inv, S)),
            float(np.vdot(g_inv @ S, g_inv)),
            tr_sigma - float(np.vdot(k_inv, G)),
            float(np.trace(k_inv)),
        )

    def kernel(Xs: np.ndarray):
        n, width = Xs.shape[1:]
        if width != p:
            raise DataValidationError(f"a draw has {width} columns but Sigma has order {p}")
        if p <= n + 1:
            raise RegimeError(f"need p > n + 1, got n={n}, p={p}")
        ok, rows = _each_block(per_draw, (Xs.reshape(-1, p) @ Q).reshape(Xs.shape))
        return ok, {"terms": np.array(rows, dtype=float).reshape(len(rows), 4)}

    stats, n_skipped = _block_pass(
        spec, lambda i: sampler(seeded_rng(spec.seed, 0x1D4A, i)), kernel
    )
    arr = stats["terms"]
    mean = arr.mean(axis=0)
    se = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    return InterpRiskTerms(
        b_l=mean[0], v_l=mean[1], b_u=mean[2], v_u=mean[3],
        se_b_l=se[0], se_v_l=se[1], se_b_u=se[2], se_v_u=se[3], n_skipped=n_skipped,
    )


class InterpSample:
    """A labeled sample of the p > n regime; X X^T is factored once, on first use.

    The minimum-norm fit and both noise estimators (``sigma2_known_tau`` and
    the closed-form ``sigma_tau``) solve against the same n x n Gram matrix
    G = X X^T, so a caller that needs several of them (one Monte Carlo
    replication, say) builds one sample and asks it for each.  Given
    ``sigma_factor`` (``spd_factor(Sigma)``) it also fits and mixes the
    minimum-variance interpolator.  ``fit_interp_pipeline`` and the presets
    share it; ``fit_min_norm``, ``fit_min_variance`` and ``iterate_sigma_tau``
    are its shorthands.
    """

    def __init__(self, data: LabeledSet, sigma_factor=None):
        if data.p <= data.n:
            raise RegimeError(f"interpolation needs p > n, got n={data.n}, p={data.p}")
        self.data = data
        self._sigma_factor = sigma_factor

    @cached_property
    def _gram(self) -> tuple[np.ndarray, bool]:
        return spd_factor(self.data.X @ self.data.X.T, "X X^T")

    @cached_property
    def min_norm(self) -> np.ndarray:
        """Minimum-l2-norm interpolator X^T G^{-1} Y."""
        return self.data.X.T @ cho_solve(self._gram, self.data.Y)

    @cached_property
    def min_variance(self) -> np.ndarray:
        """``fit_min_variance`` at the covariance of ``sigma_factor``."""
        if self._sigma_factor is None:
            raise DataValidationError("the sample was built without a covariance factor")
        A = cho_solve(self._sigma_factor, self.data.X.T)  # Sigma^{-1} X^T, p x n
        return A @ cho_solve(spd_factor(self.data.X @ A, "X Sigma^{-1} X^T"), self.data.Y)

    def linear(self, alpha: float) -> np.ndarray:
        """Coefficient mix (1 - alpha) min_norm + alpha min_variance."""
        return mix_linear(self.min_norm, self.min_variance, alpha)

    @cached_property
    def _inverse_moments(self) -> tuple[float, float, float]:
        """(Y^T G^{-2} Y, tr G^{-1}, tr G^{-2}) as ||G^{-1} Y||^2 and <G^{-1}, G^{-1}>."""
        Gi = cho_inverse(self._gram)
        v = Gi @ self.data.Y
        return float(v @ v), float(np.trace(Gi)), float(np.vdot(Gi, Gi))

    def sigma2_known_tau(self, tau2: float) -> float:
        """Unbiased noise estimate when the signal level tau^2 is known.

        (Y^T G^{-2} Y - tau^2 tr(G^{-1})) / tr(G^{-2}); the raw value may be
        negative and is returned unclipped.
        """
        yq, tr1, tr2 = self._inverse_moments
        return (yq - tau2 * tr1) / tr2

    def sigma_tau(self, Sigma: np.ndarray) -> NoiseSignal:
        """Noise and signal estimates: the clipped solution of two moment equations.

        With yq = Y^T G^{-2} Y, tr1 = tr G^{-1}, tr2 = tr G^{-2} and y2 = Y^T Y / n,
        sigma^2 = max((yq - tau^2 tr1) / tr2, 0) and tau^2 = max((y2 - sigma^2) / tr Sigma, 0),
        the limit of alternating the two from tau^2 = w^T Sigma w / tr Sigma at
        the minimum-norm fit w.  If det = tr2 tr Sigma - tr1 > 0 the alternation
        contracts to the 2 x 2 solve, or to the corner (0, y2 / tr Sigma) or
        (yq / tr2, 0) where that is negative.  Otherwise the tau^2 update has
        slope >= 1 until it clips, and the alternation runs to the corner that
        its direction after one clipped step points at.
        """
        Sigma = np.asarray(Sigma, dtype=float)
        tr_sigma = float(np.trace(Sigma))
        if tr_sigma <= 0:
            raise DataValidationError("tr(Sigma) must be positive")
        yq, tr1, tr2 = self._inverse_moments
        y2 = float(self.data.Y @ self.data.Y) / self.data.n
        no_noise, no_signal = NoiseSignal(0.0, y2 / tr_sigma), NoiseSignal(yq / tr2, 0.0)
        det = tr2 * tr_sigma - tr1
        if det > 0:
            sigma2, tau2 = (yq * tr_sigma - tr1 * y2) / det, (tr2 * y2 - yq) / det
            if sigma2 < 0:
                return no_noise
            if tau2 < 0:
                return no_signal
            return NoiseSignal(sigma2, tau2)
        w = self.min_norm
        sigma2 = max((yq - float(w @ Sigma @ w) / tr_sigma * tr1) / tr2, 0.0)
        tau2 = max((y2 - sigma2) / tr_sigma, 0.0)
        step = (y2 - (yq - tau2 * tr1) / tr2) / tr_sigma  # the next tau^2, unclipped
        if step > tau2:
            return no_noise
        if step < tau2:
            return no_signal
        return NoiseSignal(sigma2, tau2)


def iterate_sigma_tau(data: LabeledSet, Sigma: np.ndarray) -> NoiseSignal:
    """Noise/signal estimates of a p > n sample; see ``InterpSample.sigma_tau``."""
    return InterpSample(data).sigma_tau(Sigma)

