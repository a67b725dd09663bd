"""Shared fixtures."""

import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

import nonclassical_mc
from nonclassical_mc import CrossSectionSpec, make_model, sample_path
from nonclassical_mc.rng import uniforms_at

SRC = os.path.dirname(os.path.dirname(nonclassical_mc.__file__))  # holds the package under test


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


@dataclass(frozen=True)
class MomentReport:
    """Sampling statistics from empirical_check, with standard errors."""

    n: int
    mean: float
    mean_se: float
    second_moment: float
    second_moment_se: float
    max_cdf_gap: float
    max_cdf_gap_se: float
    max_cdf_gap_at: float
    zero_fraction: float
    zero_fraction_se: float


def _stream_uniforms(seed, stream_id, skip, n):
    """Variates skip .. skip + n - 1 of key (seed, stream_id) read as a sequence.

    Variate i is double i % 3 of counter i // 3: double i of the key's
    PCG64DXSM stream.
    """
    first, offset = divmod(skip, 3)
    counters = -(-(offset + n) // 3)
    return uniforms_at(seed, [stream_id], [first], [counters]).T.ravel()[offset:offset + n]


@pytest.fixture(scope="session")
def stream_uniforms():
    """stream_uniforms(seed, stream_id, skip, n) -> variates skip .. skip + n - 1."""
    return _stream_uniforms


def _empirical_check(model, n, seed, stream_id):
    """Draw n samples and compare empirical statistics to the analytic law.

    The variates are the first n of stream (seed, stream_id) read as a
    sequence (``_stream_uniforms``). Reports the sample mean and second moment, the largest
    |empirical CDF - analytic CDF| over a fixed probe grid (101 points on
    [0, 10] mean free paths), and the fraction of exact zeros, each with a
    standard error.
    """
    if n < 10_000:
        raise ValueError("empirical_check needs n >= 1e4 for stable error estimates")
    xi = _stream_uniforms(seed, stream_id, 0, n)
    s = sample_path(model, xi)
    s2 = s * s
    root_n = math.sqrt(n)
    probes = np.linspace(0.0, 10.0, 101) / model.xs.sigma_t
    ecdf = np.searchsorted(np.sort(s), probes, side="right") / n
    gaps = np.abs(ecdf - model.cdf(probes))
    j = int(np.argmax(gaps))
    f_at_j = float(model.cdf(probes[j]))
    p_zero = float(np.mean(s == 0.0))
    return MomentReport(
        n=n,
        mean=float(s.mean()),
        mean_se=float(s.std(ddof=1) / root_n),
        second_moment=float(s2.mean()),
        second_moment_se=float(s2.std(ddof=1) / root_n),
        max_cdf_gap=float(gaps[j]),
        max_cdf_gap_se=math.sqrt(max(f_at_j * (1.0 - f_at_j), 0.0) / n),
        max_cdf_gap_at=float(probes[j]),
        zero_fraction=p_zero,
        zero_fraction_se=math.sqrt(max(p_zero * (1.0 - p_zero), 0.0) / n),
    )


@pytest.fixture(scope="session")
def empirical_check():
    """empirical_check(model, n, seed, stream_id) -> MomentReport."""
    return _empirical_check


def _subprocess_env(**variables):
    """os.environ plus variables, with SRC first on PYTHONPATH."""
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]]
                                               if env.get("PYTHONPATH") else []))
    return env


@pytest.fixture(scope="session")
def subprocess_env():
    """subprocess_env(**variables) -> the environment of a Python subprocess
    that imports the package under test, with variables set."""
    return _subprocess_env
