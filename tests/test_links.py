import math

import numpy as np
import pytest

from mssl import (
    DataValidationError,
    custom_link,
    elu_link,
    identity_link,
    link_by_name,
    validate_link,
)


def test_link_eval_identity():
    link = identity_link()
    assert (link.g(3.0), link.gprime(3.0), link.G(3.0)) == (3.0, 1.0, 4.5)


def test_link_eval_elu_at_zero():
    # direct evaluation of the ELU definition and the continuity constant
    link = elu_link()
    assert link.g(0.0) == 0.0
    assert link.gprime(0.0) == 1.0
    assert link.G(0.0) == 1.0


def test_link_eval_elu_negative_branch():
    # oracle: min(e^z - 1, max(0, z)) and the antiderivative e^z - z
    link, z = elu_link(), -1.0
    assert link.g(z) == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-15)
    assert link.gprime(z) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert link.G(z) == pytest.approx(math.exp(-1.0) + 1.0, rel=1e-15)


def test_link_eval_elu_positive_branch():
    link = elu_link()
    assert (link.g(2.0), link.gprime(2.0)) == (2.0, 1.0)
    assert link.G(2.0) == pytest.approx(2.0**2 / 2.0 + 1.0)


def test_validate_identity_passes_exactly():
    report = validate_link(identity_link(), [-1.0, 0.0, 1.0])
    assert report.passed
    assert report.max_rel_err_G < 1e-9


def test_validate_elu_passes():
    report = validate_link(elu_link(), [-2.0, -0.5, 0.5, 2.0], step=1e-5, tol=1e-6)
    assert report.passed, report.failures


def test_validate_detects_wrong_antiderivative():
    # deliberate mismatch: G(z) = z has G' = 1 != z = g(z)
    bad = custom_link(g=lambda z: z, gprime=lambda z: 1.0, G=lambda z: z)
    report = validate_link(bad, [-1.0, 0.5, 2.0])
    assert not report.passed
    assert any("G'" in msg for msg in report.failures)


def test_validate_detects_nonmonotone_g():
    bad = custom_link(g=lambda z: -z, gprime=lambda z: -1.0, G=lambda z: -0.5 * z * z)
    report = validate_link(bad, [-1.0, 0.0, 1.0])
    assert not report.passed
    assert any("not increasing" in msg for msg in report.failures)


def test_validate_requires_three_probes():
    with pytest.raises(DataValidationError):
        validate_link(identity_link(), [0.0, 1.0])


def test_link_by_name():
    assert link_by_name("elu").kind == "elu"
    assert link_by_name("identity").kind == "identity"
    with pytest.raises(DataValidationError):
        link_by_name("relu")


def test_elu_vectorized_matches_scalar():
    link = elu_link()
    zs = np.linspace(-3, 3, 13)
    vec = link.g(zs)
    scal = np.array([float(link.g(z)) for z in zs])
    np.testing.assert_allclose(vec, scal, rtol=0, atol=0)
