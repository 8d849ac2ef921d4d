"""Link function triples (g, g', G) and their validation.

Every estimator in this package works with a monotone map ``g`` together
with its derivative ``gprime`` and antiderivative ``G``.  Identity and ELU
are built in; anything else goes through :func:`custom_link` and should be
checked with :func:`validate_link` before use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DataValidationError

__all__ = [
    "LinkSpec",
    "LinkReport",
    "identity_link",
    "elu_link",
    "custom_link",
    "link_by_name",
    "validate_link",
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


@dataclass(frozen=True)
class LinkReport:
    """Outcome of finite-difference and monotonicity checks on a link."""

    passed: bool
    max_rel_err_G: float
    max_rel_err_g: float
    failures: tuple[str, ...] = field(default_factory=tuple)


def validate_link(
    link: LinkSpec,
    probes,
    step: float = 1e-5,
    tol: float = 1e-6,
) -> LinkReport:
    """Check G' ~ g and g' ~ gprime by central differences at the probes.

    Passes iff both maximal relative errors are below ``tol`` and g is
    nondecreasing between consecutive sorted probes.
    """
    probes = np.sort(np.asarray(probes, dtype=float))
    if probes.size < 3:
        raise DataValidationError("need at least 3 probe points")
    if not np.all(np.isfinite(probes)):
        raise DataValidationError("probe points must be finite")

    failures: list[str] = []

    def _rel(err, ref):
        return err / max(abs(ref), 1e-8)

    err_G = 0.0
    err_g = 0.0
    for z in probes:
        fd_G = (link.G(z + step) - link.G(z - step)) / (2.0 * step)
        fd_g = (link.g(z + step) - link.g(z - step)) / (2.0 * step)
        err_G = max(err_G, _rel(abs(fd_G - link.g(z)), link.g(z)))
        err_g = max(err_g, _rel(abs(fd_g - link.gprime(z)), link.gprime(z)))

    g_vals = np.asarray([link.g(z) for z in probes], dtype=float)
    for i in range(len(probes) - 1):
        if g_vals[i + 1] < g_vals[i]:
            failures.append(
                f"g not increasing on [{probes[i]:g}, {probes[i + 1]:g}]"
            )

    if err_G >= tol:
        failures.append(f"G' vs g mismatch: max relative error {err_G:.3e}")
    if err_g >= tol:
        failures.append(f"g' vs gprime mismatch: max relative error {err_g:.3e}")

    return LinkReport(
        passed=not failures,
        max_rel_err_G=float(err_G),
        max_rel_err_g=float(err_g),
        failures=tuple(failures),
    )
