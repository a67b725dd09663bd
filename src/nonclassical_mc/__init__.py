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
    SP3Constants,
    make_model,
    solve_sp3_constants,
)
from .reference import (
    ConvergenceError,
    RadialGrid,
    RadialKernel,
    RadialSolution,
    diffusion_point_source,
    shell_average_from_function,
    solve_integral_equation,
    sp3_green_scalar,
)
from .rng import RandomStream
from .sampler import MomentReport, empirical_check, invert_f, sample_path

__version__ = "0.1.0"

__all__ = [
    "CrossSectionSpec",
    "ModelKind",
    "PathLengthModel",
    "SP3Constants",
    "make_model",
    "solve_sp3_constants",
    "RandomStream",
    "MomentReport",
    "invert_f",
    "sample_path",
    "empirical_check",
    "ProblemConfig",
    "TallyResult",
    "simulate",
    "ConvergenceError",
    "RadialGrid",
    "RadialKernel",
    "RadialSolution",
    "diffusion_point_source",
    "sp3_green_scalar",
    "solve_integral_equation",
    "shell_average_from_function",
    "__version__",
]
