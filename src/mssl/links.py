"""Link function triples (g, g', G).

Every estimator in this package works with a monotone map ``g`` together
with its derivative ``gprime`` and antiderivative ``G``.  Identity and ELU
are built in; anything else goes through :func:`custom_link`, whose caller
keeps the triple consistent (G' = g and g' = gprime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataValidationError

__all__ = [
    "LinkSpec",
    "identity_link",
    "elu_link",
    "custom_link",
    "link_by_name",
]


@dataclass(frozen=True)
class LinkSpec:
    """A link function triple: g, its derivative, and its antiderivative."""

    kind: str  # "identity" | "elu" | "custom"
    g: Callable[[np.ndarray], np.ndarray]
    gprime: Callable[[np.ndarray], np.ndarray]
    G: Callable[[np.ndarray], np.ndarray]


def _identity_g(z):
    return np.asarray(z, dtype=float) + 0.0


def _identity_gprime(z):
    return np.ones_like(np.asarray(z, dtype=float))


def _identity_G(z):
    z = np.asarray(z, dtype=float)
    return 0.5 * z * z


def _elu_g(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, np.expm1(z), z)


def _elu_gprime(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, np.exp(z), 1.0)


def _elu_G(z):
    # Antiderivative of the ELU, with the constant fixed so G is continuous
    # at 0 with G(0) = 1.  Constants cancel in all loss differences.
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, np.exp(z) - z, 0.5 * z * z + 1.0)


def identity_link() -> LinkSpec:
    return LinkSpec("identity", _identity_g, _identity_gprime, _identity_G)


def elu_link() -> LinkSpec:
    """ELU link: g(z) = min(e^z - 1, max(0, z))."""
    return LinkSpec("elu", _elu_g, _elu_gprime, _elu_G)


def custom_link(g, gprime, G) -> LinkSpec:
    return LinkSpec("custom", g, gprime, G)


def link_by_name(name: str) -> LinkSpec:
    """Resolve "identity" or "elu"; custom links only exist programmatically."""
    table = {"identity": identity_link, "elu": elu_link}
    if name not in table:
        raise DataValidationError(
            f"unknown link {name!r}; available: {sorted(table)}"
        )
    return table[name]()
