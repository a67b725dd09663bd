"""Path-length law definitions: constants, densities, hazards, CDFs, moments."""

import math
from decimal import Decimal, localcontext
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate

from nonclassical_mc import (
    CrossSectionSpec,
    ModelKind,
    make_model,
)

ALL_KINDS = list(ModelKind)
SQRT3 = math.sqrt(3.0)
ORDER = {"diffusion": 1, "sp2": 2, "sp3": 3}


def sp3_oracle():
    """sp3's constants solved from their defining equations, without Gauss-Legendre.

    lambda^2 are the roots of 3 x^2 - 30 x + 35 (quadratic formula), a+-
    couple the second moment equation, and A+- solve the 2x2 linear system
    A+ a+ + A- a- = -14/9, A+ + A- = 55/9 fixed by the point-source
    normalization.
    """
    half_gap = 2.0 * math.sqrt(10.0 / 3.0)
    lam2_plus = 5.0 + half_gap
    lam2_minus = 5.0 - half_gap
    a_plus = 14.0 / (35.0 - 9.0 * lam2_plus)
    a_minus = 14.0 / (35.0 - 9.0 * lam2_minus)
    A_plus = (-14.0 / 9.0 - (55.0 / 9.0) * a_minus) / (a_plus - a_minus)
    return SimpleNamespace(lambda_plus=math.sqrt(lam2_plus), lambda_minus=math.sqrt(lam2_minus),
                           a_plus=a_plus, a_minus=a_minus,
                           A_plus=A_plus, A_minus=55.0 / 9.0 - A_plus)


def continued_fraction(order, q):
    """Convergent `order` of arctan(k)/k = 1/(1 + q/(3 + 4q/(5 + 9q/(7 + ...)))), q = k^2."""
    x = 2.0 * order + 1.0
    for n in range(order, 0, -1):
        x = (2.0 * n - 1.0) + n * n * q / x
    return 1.0 / x


def quad_tail(model, lo=0.0, hi=None):
    """Independent normalization oracle: adaptive quadrature of the density.

    Integrates on [lo, 60/sigma_t] and bounds the remainder analytically:
    every law decays at least as fast as e^{-1.16 sigma_t s}, so the tail
    beyond 60 mean free paths is below 1e-25.
    """
    st = model.xs.sigma_t
    hi = 60.0 / st if hi is None else hi
    value, err = integrate.quad(model.density, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-10
    return value


class TestCrossSectionSpec:
    def test_derived_quantities(self):
        xs = CrossSectionSpec(2.0, 1.0)
        assert xs.c == 0.5

    @pytest.mark.parametrize("sigma_t,sigma_s", [(0.0, 0.0), (-1.0, 0.0), (1.0, 1.0),
                                                 (1.0, 1.5), (1.0, -0.1), (math.inf, 0.0)])
    def test_rejects_bad_media(self, sigma_t, sigma_s):
        with pytest.raises(ValueError):
            CrossSectionSpec(sigma_t, sigma_s)


class TestSP3Constants:
    def test_quartic_roots(self, sp3):
        for lam in (sp3.lambda_plus, sp3.lambda_minus):
            assert abs(3.0 * lam**4 - 30.0 * lam**2 + 35.0) < 1e-12

    def test_coupling_coefficients(self, sp3):
        oracle = sp3_oracle()
        # make_model's rates through the coupling formula vs the quadratic-formula rates
        assert sp3.a_plus == pytest.approx(oracle.a_plus, abs=1e-12)
        assert sp3.a_minus == pytest.approx(oracle.a_minus, abs=1e-12)

    def test_amplitude_system(self, sp3):
        assert sp3.A_plus * sp3.a_plus + sp3.A_minus * sp3.a_minus == pytest.approx(
            -14.0 / 9.0, abs=1e-12)
        assert sp3.A_plus + sp3.A_minus == pytest.approx(55.0 / 9.0, abs=1e-12)

    def test_density_normalization_identity(self, sp3):
        assert sp3.A_plus / sp3.lambda_plus**2 + sp3.A_minus / sp3.lambda_minus**2 == pytest.approx(
            1.0, abs=1e-12)

    def test_six_decimal_values(self, sp3):
        # lambda and a match their printed 6-decimal values; the printed
        # amplitudes carry ~2e-6 rounding slop and are pinned in the
        # acceptance suite instead (criterion 1)
        assert sp3.lambda_plus == pytest.approx(2.941340, abs=1e-6)
        assert sp3.lambda_minus == pytest.approx(1.161256, abs=1e-6)
        assert sp3.a_plus == pytest.approx(-0.326619, abs=1e-6)
        assert sp3.a_minus == pytest.approx(0.612334, abs=1e-6)
        # exact solutions of the 2x2 system, frozen at double precision
        assert sp3.A_plus == pytest.approx(5.64202318821884, rel=1e-12)
        assert sp3.A_minus == pytest.approx(0.4690879228922711, rel=1e-12)

    def test_reciprocal_lambdas_are_gauss_legendre_nodes(self, sp3):
        s2 = np.polynomial.legendre.leggauss(2)[0]
        s4 = np.polynomial.legendre.leggauss(4)[0]
        assert 1.0 / SQRT3 == pytest.approx(s2.max(), abs=1e-12)
        assert sorted([1.0 / sp3.lambda_plus, 1.0 / sp3.lambda_minus]) == pytest.approx(
            sorted(s4[s4 > 0]), abs=1e-12)


class TestMakeModel:
    def test_sp3_example(self):
        model = make_model(ModelKind.SP3, CrossSectionSpec(1.0, 0.5))
        assert model.mu[0] == pytest.approx(2.941340, abs=1e-6)
        assert model.mu[1] == pytest.approx(1.161256, abs=1e-6)

    def test_sp2_atom(self):
        model = make_model("sp2", CrossSectionSpec(1.0, 0.0))
        assert model.atom_at_zero == 4.0 / 9.0

    def test_classical_has_no_atom(self):
        model = make_model("classical", CrossSectionSpec(2.0, 1.0))
        assert model.atom_at_zero == 0.0
        assert model.xs.c == 0.5

    def test_mixture_constants(self):
        # within 4 ulp of the closed forms. Rates are measured in their own
        # ulp; the atom and weights are probabilities that share the total 1,
        # so in ulp(1): numpy's Gauss-Legendre weights for sp3 are a few ulp
        # of their own off (18 +- sqrt 30)/36, about 1.5 ulp(1) from the oracle
        xs = CrossSectionSpec(1.0, 0.5)
        k = sp3_oracle()
        expected = {
            "diffusion": (0.0, (SQRT3,), (1.0,)),
            "sp2": (4.0 / 9.0, (math.sqrt(5.0 / 3.0),), (5.0 / 9.0,)),
            "sp3": (0.0, (k.lambda_plus, k.lambda_minus),
                    (k.A_plus / k.lambda_plus**2, k.A_minus / k.lambda_minus**2)),
        }
        for kind, (atom, mu, weights) in expected.items():
            model = make_model(kind, xs)
            assert len(model.mu) == len(mu) and len(model.weights) == len(weights)
            for got, want in zip((model.atom_at_zero, *model.weights), (atom, *weights)):
                assert abs(got - want) <= 4 * math.ulp(1.0), (kind, got, want)
            for got, want in zip(model.mu, mu):
                assert abs(got - want) <= 4 * math.ulp(want), (kind, got, want)
        classical = make_model("classical", xs)
        assert classical.mu == () and classical.weights == ()

    @pytest.mark.parametrize("kind", ["diffusion", "sp2", "sp3"])
    def test_mixture_normalization_and_second_moment(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.5))
        # exact by construction: the last weight is the remainder
        assert model.atom_at_zero + sum(model.weights) == 1.0
        assert model.cdf(0.0) == model.atom_at_zero
        assert all(w > 0.0 for w in model.weights)
        assert all(a > b for a, b in zip(model.mu, model.mu[1:]))
        # a Gamma(2, mu) term has second moment 6/mu^2
        second = sum(6.0 * w / m**2 for m, w in zip(model.mu, model.weights))
        assert abs(second - 2.0) <= 1e-14

    @pytest.mark.parametrize("kind", ["diffusion", "sp2", "sp3"])
    def test_transform_is_continued_fraction_convergent(self, kind):
        # SP_N's p_hat(q) = atom + sum_j w_j mu_j^2/(mu_j^2 + q) is the N-th
        # convergent of arctan(k)/k, evaluated here with no quadrature rule
        model = make_model(kind, CrossSectionSpec(1.0, 0.5))
        for q in (1e-3, 0.1, 1.0, 10.0, 1e4):
            p_hat = model.atom_at_zero + sum(w * m * m / (m * m + q)
                                             for m, w in zip(model.mu, model.weights))
            expected = continued_fraction(ORDER[kind], q)
            assert abs(p_hat - expected) <= 1e-14 * expected, (q, p_hat, expected)

    @pytest.mark.parametrize("nodes,weights", [
        ([-0.9, -0.3, 0.3, 0.9], [-0.1, 1.1, 1.1, -0.1]),  # a negative weight
        ([-0.5, 0.5], [1.0, 1.0]),  # second moment 6/2^2 = 1.5, not 2
    ])
    def test_rejects_a_rule_that_is_no_law(self, monkeypatch, nodes, weights):
        rule = (np.array(nodes), np.array(weights))
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda points: rule)
        with pytest.raises(ArithmeticError):
            make_model("diffusion", CrossSectionSpec(1.0, 0.5))

    def test_rejects_bad_medium(self):
        with pytest.raises(ValueError):
            make_model("diffusion", CrossSectionSpec(1.0, 1.0))
        with pytest.raises(ValueError):
            make_model("diffusion", CrossSectionSpec(0.0, 0.0))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_model("p5", CrossSectionSpec(1.0, 0.0))

    def test_models_are_immutable(self):
        # shared concurrently without synchronization, so frozen
        model = make_model("sp3", CrossSectionSpec(1.0, 0.5))
        with pytest.raises(AttributeError):
            model.atom_at_zero = 0.5
        with pytest.raises(AttributeError):
            model.xs.sigma_t = 2.0


class TestDensity:
    def test_diffusion_zero(self):
        model = make_model("diffusion", CrossSectionSpec(1.0, 0.0))
        assert model.density(0.0) == 0.0

    def test_diffusion_mode_value(self):
        # p'(s) = 3 e^{-sqrt3 s}(1 - sqrt3 s) vanishes at s = 1/sqrt3,
        # where p = sqrt3/e
        model = make_model("diffusion", CrossSectionSpec(1.0, 0.0))
        s_mode = 1.0 / SQRT3
        assert model.density(s_mode) == pytest.approx(SQRT3 / math.e, rel=1e-12)
        eps = 1e-7
        assert model.density(s_mode) >= model.density(s_mode - eps)
        assert model.density(s_mode) >= model.density(s_mode + eps)

    def test_sp3_direct_substitution(self, sp3):
        model = make_model("sp3", CrossSectionSpec(1.0, 0.5))
        expected = sp3.A_plus * math.exp(-sp3.lambda_plus) + sp3.A_minus * math.exp(-sp3.lambda_minus)
        assert model.density(1.0) == pytest.approx(expected, rel=1e-12)

    def test_classical_at_zero_is_sigma_t(self):
        model = make_model("classical", CrossSectionSpec(2.5, 0.0))
        assert model.density(0.0) == 2.5

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_negative_s(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        with pytest.raises(ValueError):
            model.density(-0.1)
        with pytest.raises(ValueError):
            model.density(np.array([0.5, -1e-9]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("function", ["density", "survival", "cdf", "hazard"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_nonfinite_s(self, kind, function, value):
        # NaN and +inf are refused like a negative length, not returned as NaN
        evaluate = getattr(make_model(kind, CrossSectionSpec(1.0, 0.0)), function)
        with pytest.raises(ValueError):
            evaluate(value)
        with pytest.raises(ValueError):
            evaluate(np.array([0.5, value]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nonnegative_everywhere(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        s = np.linspace(0.0, 50.0, 2001)
        assert np.all(model.density(s) >= 0.0)


class TestHazard:
    def test_classical_constant(self):
        model = make_model("classical", CrossSectionSpec(2.0, 1.0))
        assert model.hazard(0.7) == 2.0
        assert np.all(model.hazard(np.array([0.1, 1.0, 40.0])) == 2.0)

    def test_diffusion_limit(self):
        model = make_model("diffusion", CrossSectionSpec(1.0, 0.0))
        assert model.hazard(1e7) == pytest.approx(SQRT3, rel=1e-6)

    def test_sp2_form(self):
        model = make_model("sp2", CrossSectionSpec(1.0, 0.0))
        big = math.sqrt(5.0 / 3.0)
        s = 0.8
        assert model.hazard(s) == pytest.approx(big**2 * s / (1.0 + big * s), rel=1e-12)

    def test_sp3_limit(self, sp3):
        model = make_model("sp3", CrossSectionSpec(1.0, 0.5))
        assert model.hazard(1e7) == pytest.approx(sp3.lambda_minus, rel=1e-6)

    @pytest.mark.parametrize("kind", ["diffusion", "sp2", "sp3"])
    def test_stable_beyond_naive_underflow(self, kind, sp3):
        # the unscaled numerator/denominator both underflow near s ~ 700;
        # the hazard tends to the slowest decay rate of each law
        asymptote = {"diffusion": SQRT3, "sp2": math.sqrt(5.0 / 3.0),
                     "sp3": sp3.lambda_minus}[kind]
        model = make_model(kind, CrossSectionSpec(1.0, 0.5))
        for s in (700.0, 2000.0, 1e5):
            h = model.hazard(s)
            assert math.isfinite(h)
            assert h == pytest.approx(asymptote, rel=1e-2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rejects_negative_s(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        with pytest.raises(ValueError):
            model.hazard(-1.0)

    @pytest.mark.parametrize("sigma_t", [1.0, 2.5])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_is_the_continuous_limit(self, kind, sigma_t):
        # hazard(0) is density(0) / survival(0): the sp2 atom is left out
        model = make_model(kind, CrossSectionSpec(sigma_t, 0.5))
        h0 = model.hazard(0.0)
        assert h0 == model.density(0.0) / model.survival(0.0)
        assert h0 == (sigma_t if kind is ModelKind.CLASSICAL else 0.0)
        assert model.hazard(np.array([0.0, 0.5]))[0] == h0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_definitional_identity(self, kind):
        # density(s) = hazard(s) * (1 - cdf(s)), the continuous part
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        for st in (0.5, 1.0, 2.0):
            model = make_model(kind, CrossSectionSpec(st, 0.0))
            s = np.array([0.1, 0.5, 1.0, 2.0, 5.0]) / st
            lhs = model.density(s)
            rhs = model.hazard(s) * (1.0 - model.cdf(s))
            np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-9)


class TestCdf:
    def test_classical_value(self):
        model = make_model("classical", CrossSectionSpec(1.0, 0.0))
        assert model.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_sp2_atom_is_exact(self):
        model = make_model("sp2", CrossSectionSpec(1.0, 0.0))
        assert model.cdf(0.0) == 4.0 / 9.0

    def test_diffusion_zero(self):
        model = make_model("diffusion", CrossSectionSpec(1.0, 0.0))
        assert model.cdf(0.0) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_relative_precision_from_1e_300_to_40(self, kind):
        # 1 - survival(s) cancels near s = 0; the exact CDF of the model's own
        # (atom, mu, weights), from 700-digit decimals, is met to 1e-13
        # relative wherever it is a normal double
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        s = np.concatenate([np.geomspace(1e-300, 40.0, 400), np.linspace(0.05, 5.0, 100)])
        with localcontext(prec=700):
            def part(x):  # the CDF of Gamma(1) (classical) or Gamma(2) at x
                return 1 - (-x).exp() * (1 if kind is ModelKind.CLASSICAL else 1 + x)
            laws = list(zip(model.mu, model.weights)) or [(1.0, 1.0)]
            exact = [float(Decimal(model.atom_at_zero)
                           + sum(Decimal(w) * part(Decimal(m) * Decimal(float(v)))
                                 for m, w in laws))
                     for v in s]
        np.testing.assert_allclose(model.cdf(s), exact, rtol=1e-13,
                                   atol=np.finfo(float).tiny)
        assert model.cdf(0.0) == model.atom_at_zero
        assert model.cdf(np.zeros(2))[0] == model.atom_at_zero

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_monotone_and_saturating(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        s = np.linspace(0.0, 80.0, 4001)
        cdf = model.cdf(s)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert cdf[0] == pytest.approx(model.atom_at_zero, abs=0.0)


class TestMoments:
    @pytest.mark.parametrize("kind,expected", [
        (ModelKind.CLASSICAL, 1.0),
        (ModelKind.DIFFUSION, 2.0 / SQRT3),
        (ModelKind.SP2, math.sqrt(20.0 / 27.0)),
        (ModelKind.SP3, 1.0425348572615272),  # 2A+/l+^3 + 2A-/l-^3, frozen
    ])
    def test_mean_closed_forms(self, kind, expected):
        for st in (0.5, 1.0, 2.0):
            model = make_model(kind, CrossSectionSpec(st, 0.0))
            assert model.moment(1) == pytest.approx(expected / st, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_second_moment_is_classical_value(self, kind):
        for st in (0.5, 1.0, 2.0):
            model = make_model(kind, CrossSectionSpec(st, 0.0))
            assert model.moment(2) == pytest.approx(2.0 / st**2, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_moments_match_quadrature(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        m1, err1 = integrate.quad(lambda s: s * model.density(s), 0.0, 60.0,
                                  limit=400, epsabs=1e-12, epsrel=1e-12)
        m2, err2 = integrate.quad(lambda s: s * s * model.density(s), 0.0, 60.0,
                                  limit=400, epsabs=1e-12, epsrel=1e-12)
        assert m1 == pytest.approx(model.moment(1), rel=1e-6)
        assert m2 == pytest.approx(model.moment(2), rel=1e-6)

    def test_unsupported_order(self):
        model = make_model("classical", CrossSectionSpec(1.0, 0.0))
        with pytest.raises(ValueError):
            model.moment(3)
        with pytest.raises(ValueError):
            model.moment(0)


class TestLawInvariants:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_normalization(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        total = model.atom_at_zero + quad_tail(model)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_normalization_scales(self, kind):
        model = make_model(kind, CrossSectionSpec(3.0, 0.0))
        total = model.atom_at_zero + quad_tail(model)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scale_covariance(self, kind):
        # density depends on s only through sigma_t s:
        # p_{sigma}(s) = sigma * p_1(sigma s)
        sigma = 2.7
        scaled = make_model(kind, CrossSectionSpec(sigma, 0.0))
        unit = make_model(kind, CrossSectionSpec(1.0, 0.0))
        s = np.linspace(0.0, 8.0, 301)
        np.testing.assert_allclose(scaled.density(s), sigma * unit.density(sigma * s),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(scaled.cdf(s), unit.cdf(sigma * s), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_survival_complements_cdf(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        s = np.linspace(0.0, 30.0, 301)
        np.testing.assert_allclose(model.survival(s) + model.cdf(s), 1.0, atol=1e-12)
