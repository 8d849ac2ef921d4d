import math

import numpy as np
import pytest

from mssl import DataValidationError, elu_link, identity_link, link_by_name


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


@pytest.mark.parametrize("link", [identity_link(), elu_link()], ids=["identity", "elu"])
def test_link_triple_is_consistent_by_central_differences(link):
    # G' = g and g' = gprime (probes away from 0, where the ELU's g' has a
    # kink), and g is nondecreasing
    z, h = np.array([-2.0, -0.5, 0.5, 2.0]), 1e-5
    np.testing.assert_allclose((link.G(z + h) - link.G(z - h)) / (2 * h), link.g(z), rtol=1e-6)
    np.testing.assert_allclose(
        (link.g(z + h) - link.g(z - h)) / (2 * h), link.gprime(z), rtol=1e-6
    )
    assert np.all(np.diff(link.g(np.linspace(-3.0, 3.0, 61))) >= 0.0)


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
