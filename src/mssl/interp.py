"""Over-parameterized estimators: minimum-norm and minimum-variance
interpolators, their mixing rule, risk terms and noise/signal estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._blas import cho_solve
from .core import (
    LabeledSet,
    ResampleSpec,
    UnlabeledPool,
    _block_pass,
    _each_block,
    seeded_rng,
    spd_factor,
)
from .errors import DataValidationError, RegimeError
from .ols import mix_linear

__all__ = [
    "InterpSample",
    "InterpRiskTerms",
    "NoiseSignalInterp",
    "fit_min_norm",
    "fit_min_variance",
    "interp_risk_terms",
    "interp_terms_spiked_closed_form",
    "alpha_star_interp",
    "interp_eta",
    "iterate_sigma_tau",
    "gaussian_sampler",
    "pool_sampler",
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


def gaussian_sampler(Sigma: np.ndarray, n: int):
    """Factory: draws n x p Gaussian designs with the given covariance."""
    L = np.linalg.cholesky(np.asarray(Sigma, dtype=float))
    p = L.shape[0]

    def draw(rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal((n, p)) @ L.T

    return draw


def pool_sampler(pool: UnlabeledPool, n: int):
    """Factory: draws n pool rows without replacement."""
    if n > pool.m:
        raise DataValidationError(f"n={n} exceeds pool size {pool.m}")

    def draw(rng: np.random.Generator) -> np.ndarray:
        return pool.Z[rng.choice(pool.m, size=n, replace=False)]

    return draw


def interp_risk_terms(
    Sigma: np.ndarray, n: int, p: int, sampler, spec: ResampleSpec, sigma_factor=None
) -> InterpRiskTerms:
    """Monte Carlo estimates of (b_l, v_l, b_u, v_u) over design draws.

    b_l = tr(Sigma - Sigma E[X^T (X X^T)^{-1} X]),
    v_l = tr(Sigma E[X^T (X X^T)^{-2} X]),
    b_u = tr(Sigma - E[X^T (X Sigma^{-1} X^T)^{-1} X]),
    v_u = tr(E[(X Sigma^{-1} X^T)^{-1}]).
    A draw whose X X^T or X Sigma^{-1} X^T fails ``spd_factor`` is skipped and
    counted in ``n_skipped``.  ``sigma_factor`` spares the factorization to a
    caller that holds ``spd_factor(Sigma)``.
    """
    if p <= n + 1:
        raise RegimeError(f"need p > n + 1, got n={n}, p={p}")
    Sigma = np.asarray(Sigma, dtype=float)
    tr_sigma = float(np.trace(Sigma))
    sig_factor = spd_factor(Sigma, "Sigma") if sigma_factor is None else sigma_factor

    def per_draw(X: np.ndarray):
        Gn = X @ X.T
        gf = spd_factor(Gn, "X X^T")
        XSX = X @ Sigma @ X.T
        GiXSX = cho_solve(gf, XSX)
        b_l = tr_sigma - float(np.trace(GiXSX))
        v_l = float(np.trace(cho_solve(gf, GiXSX.T)))
        A = cho_solve(sig_factor, X.T)
        inf_factor = spd_factor(X @ A, "X Sigma^{-1} X^T")
        b_u = tr_sigma - float(np.trace(cho_solve(inf_factor, Gn)))
        v_u = float(np.trace(cho_solve(inf_factor, np.eye(n))))
        return b_l, v_l, b_u, v_u

    def kernel(Xs: np.ndarray):
        ok, rows = _each_block(per_draw, Xs)
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


def interp_terms_spiked_closed_form(
    n: int, p: int, p_tilde: int, c1_sq: float, trace_sigma: float
) -> InterpRiskTerms:
    """Closed-form Gaussian terms for a two-level (spiked) diagonal covariance.

    v_u = n/(p-n-1), b_u = tr(Sigma)(1 - n/p), and the supervised factors
    behave as if only the p_tilde large-variance coordinates existed:
    v_l = n/(p_tilde-n-1), b_l = c1^2 (p_tilde - n).
    """
    if p <= n + 1 or p_tilde <= n + 1:
        raise RegimeError("closed forms need p, p_tilde > n + 1")
    return InterpRiskTerms(
        b_l=float(c1_sq * (p_tilde - n)),
        v_l=float(n / (p_tilde - n - 1)),
        b_u=float(trace_sigma * (1.0 - n / p)),
        v_u=float(n / (p - n - 1)),
    )


def alpha_star_interp(
    sigma2: float, tau2: float, terms: InterpRiskTerms
) -> tuple[float, float]:
    """Best interpolator mixing ratio and the risk value it attains.

    alpha = sigma^2 (v_l - v_u) / (tau^2 (b_u - b_l) + sigma^2 (v_l - v_u)).
    """
    slack_v = 3.0 * (terms.se_v_l + terms.se_v_u)
    slack_b = 3.0 * (terms.se_b_l + terms.se_b_u)
    if terms.v_l < terms.v_u - slack_v or terms.b_u < terms.b_l - slack_b:
        raise DataValidationError(
            "bias/variance ordering violated beyond Monte Carlo error: "
            f"v_l={terms.v_l:.4g} vs v_u={terms.v_u:.4g}, "
            f"b_l={terms.b_l:.4g} vs b_u={terms.b_u:.4g}"
        )
    v_gap = max(terms.v_l - terms.v_u, 0.0)
    b_gap = max(terms.b_u - terms.b_l, 0.0)
    denom = tau2 * b_gap + sigma2 * v_gap
    if denom <= 0:
        raise DataValidationError("nonpositive denominator in the mixing formula")
    alpha = sigma2 * v_gap / denom
    r_min = tau2 * terms.b_l + sigma2 * terms.v_l - (sigma2 * v_gap) ** 2 / denom
    return float(alpha), float(r_min)


def interp_eta(sigma2: float, tau2: float, terms: InterpRiskTerms) -> float:
    """Risk of the best mix relative to the minimum-norm interpolator."""
    _, r_min = alpha_star_interp(sigma2, tau2, terms)
    return float(r_min / (tau2 * terms.b_l + sigma2 * terms.v_l))


@dataclass(frozen=True)
class NoiseSignalInterp:
    """Jointly iterated noise/signal estimates (clipped at zero)."""

    sigma2_hat: float
    tau2_hat: float
    iterations: int
    converged: bool


class InterpSample:
    """A labeled sample of the p > n regime; X X^T is factored once, on first use.

    The minimum-norm fit and both noise estimators solve against the same
    n x n Gram matrix G = X X^T, so a caller that needs several of them (one
    Monte Carlo replication, say) builds one sample and asks it for each.
    Given ``sigma_factor`` (``spd_factor(Sigma)``) it also fits and mixes the
    minimum-variance interpolator.  ``fit_interp_pipeline`` and the presets
    share it; ``fit_min_norm``, ``fit_min_variance`` and ``iterate_sigma_tau`` are its shorthands.
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

    def mix(self, terms: InterpRiskTerms, sigma2: float, tau2: float) -> np.ndarray:
        """Coefficient mix at the formula ratio ``alpha_star_interp(sigma2, tau2, terms)``."""
        return self.linear(alpha_star_interp(sigma2, tau2, terms)[0])

    @cached_property
    def _inverse_moments(self) -> tuple[float, float, float]:
        """(Y^T G^{-2} Y, tr G^{-1}, tr G^{-2})."""
        Gi = cho_solve(self._gram, np.eye(self.data.n))
        Gi2 = Gi @ Gi
        Y = self.data.Y
        return float(Y @ Gi2 @ Y), float(np.trace(Gi)), float(np.trace(Gi2))

    def sigma2_known_tau(self, tau2: float) -> float:
        """Unbiased noise estimate when the signal level tau^2 is known.

        (Y^T G^{-2} Y - tau^2 tr(G^{-1})) / tr(G^{-2}); the raw value may be
        negative and is returned unclipped.
        """
        yq, tr1, tr2 = self._inverse_moments
        return (yq - tau2 * tr1) / tr2

    def sigma_tau(
        self, Sigma: np.ndarray, tol: float = 1e-10, max_iter: int = 100
    ) -> NoiseSignalInterp:
        """Alternate the known-tau noise formula with a second-moment signal update.

        Starts from tau^2 = w^T Sigma w / tr(Sigma) at the minimum-norm fit;
        each round clips at zero.  Stops when both estimates move by less
        than tol.
        """
        Sigma = np.asarray(Sigma, dtype=float)
        tr_sigma = float(np.trace(Sigma))
        if tr_sigma <= 0:
            raise DataValidationError("tr(Sigma) must be positive")
        w_hat = self.min_norm
        yq, tr1, tr2 = self._inverse_moments
        y2 = float(self.data.Y @ self.data.Y) / self.data.n

        tau2 = float(w_hat @ Sigma @ w_hat) / tr_sigma
        sigma2 = 0.0
        for it in range(1, max_iter + 1):
            sigma2_new = max((yq - tau2 * tr1) / tr2, 0.0)
            tau2_new = max((y2 - sigma2_new) / tr_sigma, 0.0)
            done = abs(sigma2_new - sigma2) < tol and abs(tau2_new - tau2) < tol
            sigma2, tau2 = sigma2_new, tau2_new
            if done:
                return NoiseSignalInterp(sigma2, tau2, it, True)
        return NoiseSignalInterp(sigma2, tau2, max_iter, False)


def iterate_sigma_tau(
    data: LabeledSet, Sigma: np.ndarray, tol: float = 1e-10, max_iter: int = 100
) -> NoiseSignalInterp:
    """Iterated noise/signal estimates (p > n); see ``InterpSample.sigma_tau``."""
    return InterpSample(data).sigma_tau(Sigma, tol, max_iter)

