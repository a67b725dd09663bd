"""Monte Carlo transport with non-exponential distance-to-collision laws.

The classical exponential law and three diffusion-type laws (diffusion,
sp2, sp3) share one transport process: only the path-length distribution
changes. This package provides the laws with exact constants, inverse
transform samplers, an analog Monte Carlo engine with radial tallies,
deterministic integral-equation oracles, and a CLI that writes CSV tables.
"""

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
    RadialKernel,
    RadialSolution,
    closed_form,
    solve_integral_equation,
)
from .rng import RandomStream
from .sampler import MomentReport, empirical_check, sample_path

__version__ = "0.1.0"

__all__ = [
    "CrossSectionSpec",
    "ModelKind",
    "PathLengthModel",
    "make_model",
    "RandomStream",
    "MomentReport",
    "sample_path",
    "empirical_check",
    "ProblemConfig",
    "TallyResult",
    "simulate",
    "ConvergenceError",
    "ClosedForm",
    "closed_form",
    "RadialGrid",
    "RadialKernel",
    "RadialSolution",
    "solve_integral_equation",
    "__version__",
]
