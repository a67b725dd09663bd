"""Path-length distribution families for infinite-medium transport.

Four distance-to-collision laws are supported. Writing z = sigma_t * s
(every law depends on s only through z), the classical law is
p(s) = sigma_t e^{-z}, and each non-classical law is an atom at s = 0
plus a mixture of Gamma(2) densities,

    p(s) = atom delta(s) + sigma_t sum_j w_j mu_j^2 z e^{-mu_j z},
    sum_j w_j = 1 - atom:

    diffusion   mu = (sqrt 3,)        w = (1,)
    sp2         mu = (sqrt(5/3),)     w = (5/9,)   atom 4/9
    sp3         mu = (l+, l-)         w = (A+/l+^2, A-/l-^2)

The sp2 atom means that with probability 4/9 a particle "collides" again
without moving. The atom is never folded into the continuous density; it
is reported separately as ``PathLengthModel.atom_at_zero``. Every
quantity of a law (density, survival, hazard, moments, the sampler's
quantile table, the oracle's kernel profile) is read from (atom, mu,
weights); only :func:`make_model` knows which law has which.

The sp3 constants (l+, l-, a+, a-, A+, A-) are solved fresh from their
defining equations at model construction and verified against those
equations, never hard-coded from rounded decimals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelKind",
    "CrossSectionSpec",
    "SP3Constants",
    "PathLengthModel",
    "solve_sp3_constants",
    "make_model",
]

SQRT3 = math.sqrt(3.0)
SP2_LAMBDA = math.sqrt(5.0 / 3.0)
SP2_ATOM = 4.0 / 9.0


class ModelKind(str, enum.Enum):
    """Which distance-to-collision law a model follows."""

    CLASSICAL = "classical"
    DIFFUSION = "diffusion"
    SP2 = "sp2"
    SP3 = "sp3"


@dataclass(frozen=True)
class CrossSectionSpec:
    """Macroscopic cross sections of the homogeneous medium (1/length).

    sigma_a and the scattering ratio c are derived, never stored, so
    sigma_a + sigma_s == sigma_t holds exactly.
    """

    sigma_t: float
    sigma_s: float

    def __post_init__(self):
        if not (self.sigma_t > 0.0 and math.isfinite(self.sigma_t)):
            raise ValueError(f"sigma_t must be positive and finite, got {self.sigma_t}")
        if not (0.0 <= self.sigma_s < self.sigma_t):
            raise ValueError(
                f"need 0 <= sigma_s < sigma_t, got sigma_s={self.sigma_s}, sigma_t={self.sigma_t}"
            )

    @property
    def sigma_a(self) -> float:
        return self.sigma_t - self.sigma_s

    @property
    def c(self) -> float:
        """Scattering ratio (probability a collision is a scatter)."""
        return self.sigma_s / self.sigma_t


@dataclass(frozen=True)
class SP3Constants:
    """Constants of the two-exponential (sp3) law, all dimensionless."""

    lambda_plus: float
    lambda_minus: float
    a_plus: float
    a_minus: float
    A_plus: float
    A_minus: float

    def verify(self, tol: float = 1e-12) -> None:
        """Check the defining equations; raises if any residual exceeds tol."""
        for lam in (self.lambda_plus, self.lambda_minus):
            res = 3.0 * lam**4 - 30.0 * lam**2 + 35.0
            if abs(res) > tol:
                raise ArithmeticError(f"quartic residual {res:.3e} at lambda={lam!r}")
        for lam, a in ((self.lambda_plus, self.a_plus), (self.lambda_minus, self.a_minus)):
            if abs(a - 14.0 / (35.0 - 9.0 * lam**2)) > tol:
                raise ArithmeticError(f"coupling coefficient off at lambda={lam!r}")
        if abs(self.A_plus * self.a_plus + self.A_minus * self.a_minus + 14.0 / 9.0) > tol:
            raise ArithmeticError("amplitude system row 1 violated")
        if abs(self.A_plus + self.A_minus - 55.0 / 9.0) > tol:
            raise ArithmeticError("amplitude system row 2 violated")
        norm = self.A_plus / self.lambda_plus**2 + self.A_minus / self.lambda_minus**2
        if abs(norm - 1.0) > tol:
            raise ArithmeticError(f"density normalization {norm!r} != 1")


def solve_sp3_constants() -> SP3Constants:
    """Solve for the sp3 law constants from their defining equations.

    lambda^2 are the roots of 3 x^2 - 30 x + 35 (quadratic formula),
    a+- couple the second moment equation, and A+- solve the 2x2 linear
    system fixed by the point-source normalization.
    """
    half_gap = 2.0 * math.sqrt(10.0 / 3.0)
    lam2_plus = 5.0 + half_gap
    lam2_minus = 5.0 - half_gap
    lam_plus = math.sqrt(lam2_plus)
    lam_minus = math.sqrt(lam2_minus)
    a_plus = 14.0 / (35.0 - 9.0 * lam2_plus)
    a_minus = 14.0 / (35.0 - 9.0 * lam2_minus)
    # A+ a+ + A- a- = -14/9 and A+ + A- = 55/9
    A_plus = (-14.0 / 9.0 - (55.0 / 9.0) * a_minus) / (a_plus - a_minus)
    A_minus = 55.0 / 9.0 - A_plus
    constants = SP3Constants(lam_plus, lam_minus, a_plus, a_minus, A_plus, A_minus)
    constants.verify()
    return constants


def _as_path_lengths(s, allow_zero: bool):
    arr = np.asarray(s, dtype=float)
    bad = (arr < 0.0) if allow_zero else (arr <= 0.0)
    if np.any(bad):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"path length must be {bound}")
    return arr, np.ndim(s) == 0


def _maybe_scalar(out, scalar: bool):
    return float(out) if scalar else out




@dataclass(frozen=True)
class PathLengthModel:
    """One distance-to-collision law with its medium.

    A non-classical law is an atom at s = 0 plus a mixture of Gamma(2)
    densities in z = sigma_t s,

        p(s) = atom delta(s) + sigma_t sum_j w_j mu_j^2 z e^{-mu_j z},

    with sum_j w_j = 1 - atom; its survival is
    sum_j w_j (1 + mu_j z) e^{-mu_j z}. The classical law has empty mu and
    weights. Immutable after construction; safe to share across
    threads/processes. Use :func:`make_model` to build one.
    """

    kind: ModelKind
    xs: CrossSectionSpec
    atom_at_zero: float
    mu: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    def density(self, s):
        """Continuous part of p(s) (1/length); the sp2 atom is excluded.

        Accepts scalars or arrays; s must be >= 0.
        """
        z, scalar = _as_path_lengths(s, allow_zero=True)
        st = self.xs.sigma_t
        z = st * z
        if self.kind is ModelKind.CLASSICAL:
            out = st * np.exp(-z)
        else:
            out = st * z * sum(w * m * m * np.exp(-m * z) for m, w in zip(self.mu, self.weights))
        return _maybe_scalar(out, scalar)

    def survival(self, s):
        """P(path length > s), excluding nothing: survival(0) = 1 - atom_at_zero."""
        z, scalar = _as_path_lengths(s, allow_zero=True)
        z = self.xs.sigma_t * z
        if self.kind is ModelKind.CLASSICAL:
            out = np.exp(-z)
        else:
            out = sum(w * (1.0 + m * z) * np.exp(-m * z) for m, w in zip(self.mu, self.weights))
        return _maybe_scalar(out, scalar)

    def cdf(self, s):
        """Cumulative distribution, atom included: cdf(0) = atom_at_zero."""
        z, scalar = _as_path_lengths(s, allow_zero=True)
        return _maybe_scalar(1.0 - self.survival(z), scalar)

    def hazard(self, s):
        """Path-length dependent collision rate at s > 0 (1/length).

        The sp2 atom contributes a distributional spike at s = 0 that has no
        finite value; query ``atom_at_zero`` instead of calling hazard(0).
        Numerator and denominator are both scaled by e^{+mu_min z}, so they
        stay O(1) far beyond the z ~ 700 where the unscaled forms underflow.
        """
        z, scalar = _as_path_lengths(s, allow_zero=False)
        st = self.xs.sigma_t
        z = st * z
        if self.kind is ModelKind.CLASSICAL:
            out = np.full_like(z, st)
        else:
            slowest = min(self.mu)
            num = den = 0.0
            for m, w in zip(self.mu, self.weights):
                e = np.exp(-(m - slowest) * z)
                num = num + w * m * m * e
                den = den + w * (1.0 + m * z) * e
            out = st * z * num / den
        return _maybe_scalar(out, scalar)

    def moment(self, k: int) -> float:
        """Closed-form k-th moment of the path length, k in {1, 2}.

        A Gamma(2, mu) component has k-th moment (k + 1)! / mu^k, so a
        mixture's is sum_j w_j (k + 1)! / mu_j^k / sigma_t^k. The laws'
        weights make the second moment 2/sigma_t^2 for every law, matching
        the classical exponential.
        """
        if k not in (1, 2):
            raise ValueError(f"moment order must be 1 or 2, got {k}")
        st = self.xs.sigma_t
        if self.kind is ModelKind.CLASSICAL:
            return math.factorial(k) / st**k
        gamma2 = math.factorial(k + 1)
        return sum(w * gamma2 / m**k for m, w in zip(self.mu, self.weights)) / st**k


def make_model(kind: ModelKind | str, xs: CrossSectionSpec) -> PathLengthModel:
    """Build a path-length model for the given law and medium.

    The only place that knows each law's atom and mixture: diffusion is
    one Gamma(2, sqrt 3); sp2 is its 4/9 atom plus 5/9 of Gamma(2, L_hat);
    sp3 is two Gamma(2) terms, mu = (l+, l-) and w = (A+/l+^2, A-/l-^2),
    with the constants solved (and verified) here.
    """
    kind = ModelKind(kind)
    if not isinstance(xs, CrossSectionSpec):
        raise TypeError("xs must be a CrossSectionSpec")
    atom, mu, weights = 0.0, (), ()
    if kind is ModelKind.DIFFUSION:
        mu, weights = (SQRT3,), (1.0,)
    elif kind is ModelKind.SP2:
        atom, mu, weights = SP2_ATOM, (SP2_LAMBDA,), (5.0 / 9.0,)
    elif kind is ModelKind.SP3:
        k = solve_sp3_constants()
        mu = (k.lambda_plus, k.lambda_minus)
        weights = (k.A_plus / k.lambda_plus**2, k.A_minus / k.lambda_minus**2)
    return PathLengthModel(kind=kind, xs=xs, atom_at_zero=atom, mu=mu, weights=weights)
