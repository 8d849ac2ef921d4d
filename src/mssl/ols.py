"""Squared-loss pool statistics: what least squares has beyond the identity-link GLM.

Least squares is ``glm.GlmSample`` at ``identity_link()``, whose fits are the
closed forms ``glm.fit_ols_supervised``, ``glm.fit_ols_semisupervised`` and
``glm.fit_loss_mixed_ols``.  ``OlsPoolModel`` is ``glm.GlmPoolStats`` at that
link with no evaluation point: one pass that every sample of its moments can
share, since at the identity link the pass does not depend on the fit.
"""

from __future__ import annotations

from .core import PopulationMoments, ResampleSpec
from .glm import DdotRiskModel, GlmPoolStats
from .links import identity_link

__all__ = ["DdotRiskModel", "OlsPoolModel"]


class OlsPoolModel(GlmPoolStats):
    """The squared-loss pool statistics: ``GlmPoolStats`` at ``identity_link()``,
    whose forms take any plug-in beta (``bias_at``, ``ddot.curve``)."""

    def __init__(
        self, moments: PopulationMoments, spec: ResampleSpec, bias: bool = True, grid=None
    ):
        super().__init__(moments, identity_link(), None, spec, grid, bias)
