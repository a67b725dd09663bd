"""Shared fixtures."""

from types import SimpleNamespace

import pytest

from nonclassical_mc import CrossSectionSpec, make_model


@pytest.fixture(scope="session")
def sp3():
    """sp3's two-exponential constants, read from make_model.

    At sigma_t = 1 the sp3 density is s (A+ e^{-l+ s} + A- e^{-l- s}): the
    decay rates l+- are the model's mu, the amplitudes are A+- = w+- l+-^2,
    and a+- = 14/(35 - 9 l+-^2) couple them in the second-moment equation.
    """
    model = make_model("sp3", CrossSectionSpec(1.0, 0.0))
    (lam_plus, lam_minus), (w_plus, w_minus) = model.mu, model.weights
    return SimpleNamespace(
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        a_plus=14.0 / (35.0 - 9.0 * lam_plus**2),
        a_minus=14.0 / (35.0 - 9.0 * lam_minus**2),
        A_plus=w_plus * lam_plus**2,
        A_minus=w_minus * lam_minus**2,
    )
