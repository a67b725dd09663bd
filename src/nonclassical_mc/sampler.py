"""Exact inverse-transform sampling of the path-length laws.

Every law's CDF is inverted to rounding level, without iteration. The
classical law is s = -ln(1 - xi) / sigma_t. Every other law is an atom
plus a Gamma(2) mixture in z = sigma_t s (see :mod:`.kernels`), and its
continuous part has the survival S(z) = sum_j w_j f(mu_j z) with the
weights normalized to sum_j w_j = 1, where f(u) = (1 + u) e^{-u}. A law
with an atom returns s = 0 for xi <= atom, and inverts only the other
lanes, solving S(z) = (1 - xi) / (1 - atom). A cubic-Hermite table of z
against v = sqrt(-ln S) on 16,384 knots gives z to rounding level by
itself, so a sample reads one cubic row whatever the number of mixture
components. Each law's table, cubic rows cached by (mu, normalized w),
is built on first use. The identity z = -1 - W_{-1}(-y / e) with the
lower Lambert-W branch inverts f itself; the tests check the diffusion
law, S(z) = f(sqrt(3) z), against it.

Sampling is a pure function of (model, xi), applied elementwise with a
fixed sequence of array operations; all randomness is supplied by the
caller: the engine passes row 1 of each step's ``uniforms_at`` doubles.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .kernels import ModelKind, PathLengthModel

__all__ = ["sample_path"]

_TABLE_KNOTS = 16384
# e^{-38} < 2^-53: the table covers the survival of every xi <= 1 - 2^-53
_KNOT_V = np.linspace(0.0, math.sqrt(38.0), _TABLE_KNOTS)  # the knots in v, for every law
# Newton steps per knot when a table is built. 5 pass its 1e-12 check, but no
# count leaves the knots fixed: at step 8 about a fifth of them still move, by
# up to 2.4e-13 relative, all over the table. The table is the 8th iterate,
# so this count is part of every seed's output.
_BUILD_STEPS = 8


def _minus_log(cdf, surv):
    """-ln S from whichever of the CDF 1 - S and the survival S is exact."""
    return np.where(cdf < 0.5, -np.log1p(-np.minimum(cdf, 0.5)), -np.log(surv))


def _log_survival(mu, weights, z):
    """-ln S(z) and the hazard p/S, accurate near z = 0 and in the tail."""
    surv = cdf = pdf = 0.0
    for m, w in zip(mu, weights):
        x = m * z
        e = np.exp(-x)
        surv = surv + w * (1.0 + x) * e
        cdf = cdf + w * (-np.expm1(-x) - x * e)
        pdf = pdf + w * m * x * e
    return _minus_log(cdf, surv), pdf / surv


@functools.cache
def _quantile_table(mu: tuple[float, ...], weights: tuple[float, ...]) -> np.ndarray:
    """Cubic-Hermite quantile z(v) of S(z) = sum_j w_j (1 + mu_j z) e^{-mu_j z}.

    Knots are _KNOT_V, evenly spaced in v = sqrt(-ln S) on [0, sqrt(38)]: v
    is analytic in z at z = 0, where -ln S is quadratic, and nearly linear
    in the exponential tail. Knot slopes are dz/dv = 2 v / hazard. Row k
    holds the cubic of interval k in powers of the fraction of it.
    """
    v = _KNOT_V
    slope0 = 1.0 / math.sqrt(sum(w * m * m for m, w in zip(mu, weights)) / 2.0)
    # v(z) is concave, so Newton from the tangent at 0 climbs to each root
    z = slope0 * v[1:]
    for _ in range(_BUILD_STEPS):
        t, hazard = _log_survival(mu, weights, z)
        vz = np.sqrt(t)
        z = z - (vz - v[1:]) * 2.0 * vz / hazard
    t, hazard = _log_survival(mu, weights, z)
    if not np.all(np.abs(np.sqrt(t) - v[1:]) <= 1e-12 * v[1:]):
        raise ArithmeticError("quantile table knots did not converge")
    z = np.concatenate(([0.0], z))
    slope = np.concatenate(([slope0], 2.0 * v[1:] / hazard))
    if np.any(np.diff(z) <= 0.0):
        raise ArithmeticError("quantile table knots are not strictly increasing")
    h = v[1] - v[0]
    dz = np.diff(z)
    d0, d1 = h * slope[:-1], h * slope[1:]
    return np.stack([z[:-1], d0, 3.0 * dz - 2.0 * d0 - d1, d0 + d1 - 2.0 * dz], axis=1)


def _quantile(mu, weights, t):
    """z >= 0 with -ln S(z) = t, read off the table's cubic as is.

    No correction step follows: over [0, 1 - 2^-53] the cubic's 1 - S(z)
    is within 5e-16 of 1 - S, S(z) is within 3e-14 of S relative in the
    tail, and 1 - S(z) within 1e-12 of 1 - S relative near z = 0, where
    z is linear in v to leading order.
    """
    x = np.sqrt(t)
    x *= (_TABLE_KNOTS - 1) / _KNOT_V[-1]
    i = x.astype(np.intp)  # at most knots - 2: t <= 53 ln 2 < 38 (sample_path)
    x -= i
    c = _quantile_table(mu, weights).take(i, axis=0)  # each lane's cubic, highest power last
    z = c[:, 3] * x
    for k in (2, 1):
        z += c[:, k]
        z *= x
    z += c[:, 0]
    return z


def sample_path(model: PathLengthModel, xi):
    """Map unit-interval variates to path lengths by inverting the CDF.

    Pure elementwise function: all randomness comes in through xi (scalar
    or array, each value in [0, 1); NaN raises ValueError), and each
    output depends only on its own xi. For a law with an atom (sp2),
    xi <= atom returns exactly 0.0, which is how the atom at s = 0 is
    realized.
    """
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if arr.size and not (arr.min() >= 0.0 and arr.max() < 1.0):  # NaN fails both
        raise ValueError("xi must lie in [0, 1)")
    st = model.xs.sigma_t
    if model.kind is ModelKind.CLASSICAL:
        s = -np.log1p(-arr) / st
    else:
        atom = model.atom_at_zero
        law = model.mu, tuple(w / (1.0 - atom) for w in model.weights)  # the continuous part
        if atom:
            # only the lanes past the atom are inverted, the rest stay 0.0
            # (selected by index: a boolean mask reads and writes ~3x slower),
            # from their conditional CDF q and survival 1 - q
            cont = np.flatnonzero(arr > atom)
            x = arr.take(cont)
            q = (x - atom) / (1.0 - atom)
            surv = (1.0 - x) / (1.0 - atom)
            z = np.zeros(arr.shape)
            z[cont] = _quantile(*law, _minus_log(q, surv))
        else:
            z = _quantile(*law, -np.log1p(-arr))
        s = z / st
    return float(s[0]) if np.ndim(xi) == 0 else s
