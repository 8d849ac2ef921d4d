"""Closed-form limits of the risk factors and mixing ratios as n, p grow.

Used by the convergence acceptance tests and for quick what-if evaluation;
everything here is an exact scalar formula in the aspect ratios, the noise
and signal levels, and the limiting covariance trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DataValidationError

__all__ = [
    "AsymptoticSetting",
    "LimitReport",
    "ols_limits",
    "interp_limits",
    "finite_m_limits",
]


@dataclass(frozen=True)
class AsymptoticSetting:
    """Limiting problem description.

    gamma is the p/n limit; gamma_tilde is the large-coordinate ratio
    p_tilde/n in the interpolator regime (or the p/m pool ratio in the
    finite-pool mode); c2 the limiting covariance trace.
    """

    gamma: float
    gamma_tilde: float = 0.0
    sigma2: float = 1.0
    tau2: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        # a nan fails each check too
        if not 0.0 < self.gamma < math.inf:
            raise DataValidationError("gamma must be positive and finite")
        if not 0.0 < self.c2 < math.inf:
            raise DataValidationError("c2 must be positive and finite")
        if not (0.0 <= self.sigma2 < math.inf and 0.0 <= self.tau2 < math.inf):
            raise DataValidationError("sigma2 and tau2 must be finite and nonnegative")


@dataclass(frozen=True)
class LimitReport:
    """Limiting relative risk, mixing ratio, and the term limits behind them."""

    eta_inf: float | None
    alpha_inf: float | None
    term_limits: dict = field(default_factory=dict)


def ols_limits(s: AsymptoticSetting) -> LimitReport:
    """Gaussian limits in the under-parameterized regime p/n -> gamma < 1."""
    g = s.gamma
    if not 0.0 < g < 1.0:
        raise DataValidationError(f"gamma must be in (0, 1), got {g}")
    eta = 1.0 - g**4 * s.sigma2 / ((1.0 - g) * g**2 * s.tau2 * s.c2 + g**3 * s.sigma2)
    alpha = g**2 * s.sigma2 / ((1.0 - g) * g * s.tau2 * s.c2 + g**2 * s.sigma2)
    terms = {"v_l": g / (1.0 - g), "v_u": g, "b_u": g * s.c2}
    return LimitReport(eta_inf=float(eta), alpha_inf=float(alpha), term_limits=terms)


def interp_limits(s: AsymptoticSetting) -> LimitReport:
    """Limits for the spiked-covariance interpolators, 1 < gamma_tilde < gamma."""
    g, gt = s.gamma, s.gamma_tilde
    if not (g > 1.0 and 1.0 < gt < g):
        raise DataValidationError(
            f"need gamma > 1 and 1 < gamma_tilde < gamma, got ({g}, {gt})"
        )
    c2, sig2, tau2 = s.c2, s.sigma2, s.tau2
    bracket1 = tau2 * c2 / (g * gt) + sig2 / ((g - 1.0) * (gt - 1.0))
    bracket2 = tau2 * c2 * (gt - 1.0) / gt + sig2 / (gt - 1.0)
    eta = 1.0 - (g - gt) * sig2**2 / (
        (g - 1.0) ** 2 * (gt - 1.0) ** 2 * bracket1 * bracket2
    )
    alpha = sig2 / ((g - 1.0) * (gt - 1.0) * bracket1)
    terms = {
        "v_l": 1.0 / (gt - 1.0),
        "b_l": c2 * (1.0 - 1.0 / gt),
        "v_u": 1.0 / (g - 1.0),
        "b_u": c2 * (1.0 - 1.0 / g),
    }
    return LimitReport(eta_inf=float(eta), alpha_inf=float(alpha), term_limits=terms)


def finite_m_limits(s: AsymptoticSetting) -> LimitReport:
    """Term limits when the pool is finite, with p/m -> gamma_tilde (in [0, 1)).

    gamma_tilde = 0 recovers the infinite-pool limits exactly.  The mode has
    no closed-form eta or alpha, so both are None.
    """
    g, gt = s.gamma, s.gamma_tilde
    if not 0.0 < g < 1.0:
        raise DataValidationError(f"gamma must be in (0, 1), got {g}")
    if not 0.0 <= gt < 1.0:
        raise DataValidationError(f"gamma_tilde must be in [0, 1), got {gt}")
    one = 1.0 - gt
    terms = {
        "b_u_tilde": s.c2 * (1.0 + one**3 - 2.0 * one**2 + g) / one**3,
        "v_u_tilde": g / one**3,
        "v_s_tilde": g / one,
        "v_l": g / (1.0 - g),
    }
    return LimitReport(eta_inf=None, alpha_inf=None, term_limits=terms)
