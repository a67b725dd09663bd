"""Monte Carlo transport with non-exponential distance-to-collision laws.

The classical exponential law and three diffusion-type laws (diffusion,
sp2, sp3) share one transport process: only the path-length distribution
changes. This package provides the laws with exact constants, inverse
transform samplers, an analog Monte Carlo engine with radial tallies,
deterministic integral-equation oracles, and a CLI that writes CSV tables.
"""

from .engine import (
    ProblemConfig,
    ScalarFluxEstimate,
    ShellTally,
    TallyResult,
    run_history,
    scalar_flux_from_collisions,
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
    exp_integral_E1,
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
    "ShellTally",
    "ProblemConfig",
    "TallyResult",
    "ScalarFluxEstimate",
    "run_history",
    "simulate",
    "scalar_flux_from_collisions",
    "ConvergenceError",
    "RadialGrid",
    "RadialKernel",
    "RadialSolution",
    "diffusion_point_source",
    "sp3_green_scalar",
    "exp_integral_E1",
    "solve_integral_equation",
    "shell_average_from_function",
    "__version__",
]
