"""Path-length distribution families for infinite-medium transport.

Four distance-to-collision laws are supported. Writing z = sigma_t * s
(every law depends on s only through z), the classical law is
p(s) = sigma_t e^{-z}, and each non-classical law is an atom at s = 0
plus a mixture of Gamma(2) densities,

    p(s) = atom delta(s) + sigma_t sum_j w_j mu_j^2 z e^{-mu_j z},
    sum_j w_j = 1 - atom:

    diffusion   mu = (sqrt 3,)               w = (1,)
    sp2         mu = (sqrt(5/3),)            w = (5/9,)   atom 4/9
    sp3         mu = (l+, l-) = (2.94, 1.16) w = (0.652, 0.348)

These are SP_1, SP_2 and SP_3, and each is read off the (N + 1)-point
Gauss-Legendre rule: mu_j is the reciprocal of a positive node, w_j its
weight, and the atom half the weight of the node at 0. No constant is
typed in or hand-solved; the sp3 amplitudes of the two-exponential form
are A+- = w+- l+-^2.

The sp2 atom means that with probability 4/9 a particle "collides" again
without moving. The atom is never folded into the continuous density; it
is reported separately as ``PathLengthModel.atom_at_zero``. Every
quantity of a law (density, survival, hazard, moments, the sampler's
quantile table, the oracle's kernel profile) is read from (atom, mu,
weights); only :func:`make_model` knows which law has which.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelKind",
    "CrossSectionSpec",
    "PathLengthModel",
    "make_model",
]


class ModelKind(str, enum.Enum):
    """Which distance-to-collision law a model follows."""

    CLASSICAL = "classical"
    DIFFUSION = "diffusion"
    SP2 = "sp2"
    SP3 = "sp3"


@dataclass(frozen=True)
class CrossSectionSpec:
    """Macroscopic cross sections of the homogeneous medium (1/length);
    the scattering ratio c is derived, never stored."""

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
    def c(self) -> float:
        """Scattering ratio (probability a collision is a scatter)."""
        return self.sigma_s / self.sigma_t


def _as_path_lengths(s):
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise ValueError("path length must be finite and >= 0")
    return arr, np.ndim(s) == 0


def _maybe_scalar(out, scalar: bool):
    return float(out) if scalar else out


# P(2, x) = 1 - (1 + x) e^{-x} = sum_{n >= 2} (-1)^n (n - 1) x^n / n!; below
# x = 0.5 the terms left out are under 4e-18 of the sum
_GAMMA2_SERIES = tuple((-1) ** n * (n - 1) / math.factorial(n) for n in range(2, 17))


def _gamma2_cdf(x):
    """The Gamma(2) CDF P(2, x) = 1 - (1 + x) e^{-x} at x >= 0, to full relative
    precision: below x = 0.5, where the difference cancels, from its series."""
    small = np.minimum(x, 0.5)
    series = 0.0
    for coef in reversed(_GAMMA2_SERIES):
        series = series * small + coef
    return np.where(x < 0.5, small * small * series, 1.0 - (1.0 + x) * np.exp(-x))


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

    @property
    def continuous_part(self) -> "PathLengthModel":
        """The law of a flight that is not zero-length: atom 0, the weights
        divided by 1 - atom (the very tuples the sampler keys its quantile
        table by, so no second table is built). An atomless law is its own
        continuous part."""
        if not self.atom_at_zero:
            return self
        scale = 1.0 - self.atom_at_zero
        return PathLengthModel(kind=self.kind, xs=self.xs, atom_at_zero=0.0, mu=self.mu,
                               weights=tuple(w / scale for w in self.weights))

    def density(self, s):
        """Continuous part of p(s) (1/length); the sp2 atom is excluded.

        Accepts scalars or arrays; s must be finite and >= 0 (else
        ValueError), here and in survival, cdf and hazard.
        """
        z, scalar = _as_path_lengths(s)
        st = self.xs.sigma_t
        z = st * z
        if self.kind is ModelKind.CLASSICAL:
            out = st * np.exp(-z)
        else:
            out = st * z * sum(w * m * m * np.exp(-m * z) for m, w in zip(self.mu, self.weights))
        return _maybe_scalar(out, scalar)

    def survival(self, s):
        """P(path length > s), excluding nothing: survival(0) = 1 - atom_at_zero."""
        z, scalar = _as_path_lengths(s)
        z = self.xs.sigma_t * z
        if self.kind is ModelKind.CLASSICAL:
            out = np.exp(-z)
        else:
            out = sum(w * (1.0 + m * z) * np.exp(-m * z) for m, w in zip(self.mu, self.weights))
        return _maybe_scalar(out, scalar)

    def cdf(self, s):
        """Cumulative distribution, atom included: cdf(0) = atom_at_zero.

        Summed from each part's own CDF rather than taken as 1 - survival(s),
        which cancels near s = 0, so it keeps full relative precision there.
        """
        z, scalar = _as_path_lengths(s)
        z = self.xs.sigma_t * z
        if self.kind is ModelKind.CLASSICAL:
            out = -np.expm1(-z)
        else:
            out = self.atom_at_zero + sum(w * _gamma2_cdf(m * z)
                                          for m, w in zip(self.mu, self.weights))
        return _maybe_scalar(out, scalar)

    def hazard(self, s):
        """Path-length dependent collision rate at s >= 0 (1/length).

        hazard(0) is the continuous part's limit density(0) / survival(0):
        sigma_t for the classical law, 0 for the others. The sp2 atom is a
        spike at s = 0 with no finite rate; query ``atom_at_zero`` for it.
        Numerator and denominator are both scaled by e^{+mu_min z}, so they
        stay O(1) far beyond the z ~ 700 where the unscaled forms underflow.
        """
        z, scalar = _as_path_lengths(s)
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

    The only place that knows each law's atom and mixture. Diffusion, sp2
    and sp3 are SP_N for N = 1, 2, 3, whose transform
    atom + sum_j w_j mu_j^2 / (mu_j^2 + k^2) is the N-th Pade approximant of
    arctan(k)/k = int_0^1 dt / (1 + k^2 t^2). That approximant is the
    (N + 1)-point Gauss-Legendre rule (t_j, g_j) applied to the integral:
    mu_j = 1/t_j and w_j = g_j over the nodes t_j > 0 (ascending t, so mu
    descends), and the node t = 0 of an even N gives the atom g/2. The last
    weight is the remainder, so atom + sum(weights) == 1 exactly. A rule
    with a non-positive weight, or a second moment off 2/sigma_t^2, raises
    ArithmeticError.
    """
    kind = ModelKind(kind)
    if not isinstance(xs, CrossSectionSpec):
        raise TypeError("xs must be a CrossSectionSpec")
    if kind is ModelKind.CLASSICAL:
        return PathLengthModel(kind=kind, xs=xs, atom_at_zero=0.0)
    order = {ModelKind.DIFFUSION: 1, ModelKind.SP2: 2, ModelKind.SP3: 3}[kind]
    t, g = np.polynomial.legendre.leggauss(order + 1)
    atom = float(g[t == 0.0].sum() / 2.0)
    mu = tuple(float(1.0 / node) for node in t[t > 0.0])
    weights = [float(w) for w in g[t > 0.0]]
    weights[-1] = (1.0 - atom) - sum(weights[:-1])
    model = PathLengthModel(kind=kind, xs=xs, atom_at_zero=atom, mu=mu, weights=tuple(weights))
    second = model.moment(2) * xs.sigma_t**2
    if min(weights) <= 0.0 or abs(second - 2.0) > 1e-14:
        raise ArithmeticError(f"{kind.value} rule is no law: weights {weights}, "
                              f"second moment {second!r} (want 2)")
    return model
