"""Monte Carlo transport with non-exponential distance-to-collision laws.

The classical exponential law and three diffusion-type laws (diffusion,
sp2, sp3) share one transport process: only the path-length distribution
changes. This package provides the laws with exact constants, inverse
transform samplers, an analog Monte Carlo engine with radial tallies,
deterministic integral-equation oracles, and a CLI that writes CSV tables.
It holds what the commands run; the sampler's statistical checks live in
the tests, which read their variates through ``rng.uniforms_at``.
Imported before numpy, it loads numpy's OpenBLAS with one thread unless
``OPENBLAS_NUM_THREADS`` is set, since the package parallelizes by forking
its own workers and an idle BLAS pool only spins a CPU beside them.
"""

import os

if "OPENBLAS_NUM_THREADS" not in os.environ:
    # OpenBLAS reads the variable once, as numpy loads it, so deleting it
    # afterwards leaves the environment of later subprocesses as it was.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .engine import (
    ProblemConfig,
    TallyResult,
    simulate,
)
from .kernels import (
    CrossSectionSpec,
    ModelKind,
    PathLengthModel,
    make_model,
)
from .reference import (
    ClosedForm,
    ConvergenceError,
    RadialGrid,
    RadialSolution,
    closed_form,
    solve_integral_equation,
)
from .sampler import sample_path

__version__ = "0.1.0"

__all__ = [
    "CrossSectionSpec",
    "ModelKind",
    "PathLengthModel",
    "make_model",
    "sample_path",
    "ProblemConfig",
    "TallyResult",
    "simulate",
    "ConvergenceError",
    "ClosedForm",
    "closed_form",
    "RadialGrid",
    "RadialSolution",
    "solve_integral_equation",
    "__version__",
]
