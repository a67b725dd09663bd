"""Command-line front end: curve tables, simulation, oracle, comparison.

Subcommands
    curves     write hazard/density/cdf tables for all four laws as CSV
    simulate   run the Monte Carlo engine and write the shell tally as CSV
    reference  run the deterministic integral-equation solver, write CSV
    compare    score a simulation against the exact closed form, shell by shell,
               with a PASS/FAIL verdict

Each command takes exactly the flags it reads, as _COMMANDS lists them; reference
also takes --seed and ignores it, so one argument list serves every command. A
--config JSON file may set the same options, keyed by flag name with underscores
(any other key is a configuration error); flags override it. Numeric output has
9 significant digits. Exit codes: 0 success/PASS, 1 configuration error,
2 comparison FAIL, 3 internal fault.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .engine import ProblemConfig, _integral, configured_workers, simulate
from .kernels import CrossSectionSpec, ModelKind, make_model
from .reference import ConvergenceError, RadialGrid, closed_form, solve_integral_equation

__all__ = ["RunManifest", "cmd_curves", "cmd_simulate", "cmd_reference", "cmd_compare",
           "compare_verdict", "main"]

VERDICT_ALPHA = 0.01  # false-FAIL rate each verdict leg allows on a correct run
MIN_SCORES = 100  # scores a shell needs before its z-score counts
MIN_GRID_NODES = 256  # fewest oracle nodes reference accepts


@dataclass
class RunManifest:
    """One resolved run configuration (defaults < config file < flags)."""

    command: str
    model: str = "diffusion"
    sigma_t: float = 1.0
    sigma_s: float = 0.5
    seed: int = 1
    histories: int = 100_000
    batches: int = 100
    rmax: float | None = None
    shells: int = 64
    capture: str = "analog"
    s_min: float = 0.0
    s_max: float | None = None
    points: int = 601
    oracle_model: str | None = None
    oracle_tol: float = 1e-10
    oracle_nodes: int = 512
    oracle_rmax: float | None = None
    out: str = "."

    def __post_init__(self):
        self.model = ModelKind(self.model).value
        if self.oracle_model is not None:
            self.oracle_model = ModelKind(self.oracle_model).value
        # curves' tables depend on sigma_t * s alone, so it builds its laws at sigma_s = 0
        CrossSectionSpec(self.sigma_t, 0.0 if self.command == "curves" else self.sigma_s)
        if self.s_max is None:
            self.s_max = 6.0 / self.sigma_t
        if self.oracle_rmax is None:
            self.oracle_rmax = 12.0 / self.sigma_t
        self.points = _integral("points", self.points)
        self.oracle_nodes = _integral("oracle_nodes", self.oracle_nodes)
        if self.points < 2:
            raise ValueError("curve grid needs at least 2 points")
        if self.oracle_nodes < MIN_GRID_NODES:
            raise ValueError(f"oracle_nodes must be at least {MIN_GRID_NODES}, "
                             f"got {self.oracle_nodes}")
        for name in ("oracle_rmax", "oracle_tol"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        spacing = self.oracle_rmax * self.sigma_t / self.oracle_nodes
        if spacing > 1.0:
            raise ValueError(f"oracle node spacing oracle_rmax * sigma_t / oracle_nodes = "
                             f"{spacing:g} mean free paths; it must be at most 1")
        for name in ("s_min", "s_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.s_max > self.s_min >= 0.0):
            raise ValueError("need s_max > s_min >= 0")

    def problem_config(self) -> ProblemConfig:
        return ProblemConfig(
            kind=self.model, sigma_t=self.sigma_t, sigma_s=self.sigma_s,
            histories=self.histories, batches=self.batches, seed=self.seed,
            r_max=self.rmax, shells=self.shells, capture=self.capture,
        )

    def curve_grid(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.points)


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _write_csv(out: str, name: str, metadata: dict, header: list[str], columns) -> None:
    """Write the metadata lines, the header and one row per entry of the
    columns: integer columns as integers, the rest to 9 significant digits."""
    columns = [np.asarray(column) for column in columns]
    template = ",".join("{:d}" if column.dtype.kind in "iu" else "{:.9g}"
                        for column in columns) + "\n"
    path = os.path.join(out, name)
    try:
        with open(path, "w", newline="") as fh:
            for key, value in metadata.items():
                fh.write(f"# {key}={_fmt(value)}\n")
            fh.write(",".join(header) + "\n")
            fh.writelines(template.format(*row)
                          for row in zip(*(column.tolist() for column in columns)))
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    print(f"wrote {path}")


def cmd_curves(manifest: RunManifest) -> int:
    """Write hazard.csv, density.csv, cdf.csv over the curve grid; the sp2 atom
    is in the metadata, and the s = 0 hazard row is each law's hazard(0)."""
    s = manifest.curve_grid()
    xs = CrossSectionSpec(manifest.sigma_t, 0.0)
    models = {kind: make_model(kind, xs) for kind in ModelKind}
    meta = {
        "command": "curves",
        "sigma_t": manifest.sigma_t,
        "sp2_atom_at_zero": models[ModelKind.SP2].atom_at_zero,
    }
    header = ["s", *(kind.value for kind in models)]
    for quantity in ("hazard", "density", "cdf"):
        columns = [getattr(model, quantity)(s) for model in models.values()]
        _write_csv(manifest.out, f"{quantity}.csv", meta, header, [s, *columns])
    return 0


def _tally_metadata(command: str, config: ProblemConfig, result) -> dict:
    return {
        "command": command,
        "model": config.kind.value,
        "sigma_t": config.sigma_t,
        "sigma_s": config.sigma_s,
        "histories": result.histories,
        "batches": config.batches,
        "seed": config.seed,
        "capture": config.capture,
        "collisions_per_history": result.collisions_per_history,
        "collisions_per_history_se": result.collisions_per_history_se,
        "zero_length_fraction": result.zero_length_fraction,
        "absorbed_weight_per_history": result.absorbed_weight_per_history,
        "faults": result.faults,
        "capped": result.capped,
    }


def _warn_capped(result) -> None:
    """One stderr line when histories were stopped at the engine's collision cap."""
    if result.capped:
        print(f"warning: {result.capped} histories were stopped at the collision cap "
              "(engine.MAX_COLLISIONS); their later collisions went unscored, so the "
              "tally and collisions/history are biased low", file=sys.stderr)


def cmd_simulate(manifest: RunManifest) -> int:
    """Run the engine; write tally.csv; print the run summary."""
    config = manifest.problem_config()
    started = time.perf_counter()
    result = simulate(config)
    elapsed = time.perf_counter() - started
    _warn_capped(result)
    columns = [result.r_edges[:-1], result.r_edges[1:],
               result.f_mean, result.f_stderr, result.n_scores]
    _write_csv(manifest.out, "tally.csv", _tally_metadata("simulate", config, result),
               ["r_lo", "r_hi", "f_mean", "f_stderr", "n_scores"], columns)
    print(f"collisions/history = {_fmt(result.collisions_per_history)} "
          f"+- {_fmt(result.collisions_per_history_se)}")
    print(f"wall time = {elapsed:.3f} s")
    print(f"seed = {config.seed}")
    return 0


def cmd_reference(manifest: RunManifest) -> int:
    """Solve the integral equation on the oracle grid; write reference.csv.

    The metadata and the printout carry mass_error, |(1 - c) * volume
    integral - 1|, the solution's miss of the infinite medium's balance,
    and closed_form_gap, sum w r^2 |f - f_exact| / sum w r^2 f_exact over
    the nodes, its distance from the exact density.
    """
    xs = CrossSectionSpec(manifest.sigma_t, manifest.sigma_s)
    model = make_model(manifest.model, xs)
    grid = RadialGrid(manifest.oracle_rmax, manifest.oracle_nodes)
    solution = solve_integral_equation(model, xs, grid, tol=manifest.oracle_tol)
    volume = solution.volume_integral()
    # a unit source makes 1/(1 - c) collisions in the infinite medium; the
    # truncated domain loses some and the quadrature may add some
    mass_error = abs((1.0 - xs.c) * volume - 1.0)
    g = grid.weights * grid.nodes**2
    exact = closed_form(model).density(grid.nodes)
    gap = np.sum(g * np.abs(solution.f - exact)) / np.sum(g * exact)
    meta = {
        "command": "reference",
        "model": manifest.model,
        "sigma_t": manifest.sigma_t,
        "sigma_s": manifest.sigma_s,
        "nodes": grid.nodes.size,
        "r_max": grid.r_max,
        "tol": manifest.oracle_tol,
        "iterations": solution.iterations,
        "residual": solution.residual,
        "rcond": solution.rcond,
        "origin_mass": solution.origin_mass,
        "volume_integral": volume,
        "mass_error": mass_error,
        "closed_form_gap": gap,
    }
    _write_csv(manifest.out, "reference.csv", meta, ["r", "f"], [grid.nodes, solution.f])
    print(f"mass_error = {_fmt(mass_error)}")
    print(f"closed_form_gap = {_fmt(gap)}")
    return 0


def _t_tail(t: float, dof: int) -> float:
    """P(|T| > t) for Student's t with dof degrees of freedom, t > sqrt(3).

    It is the regularized incomplete beta I_x(a, b) at a = dof/2, b = 1/2
    and x = dof / (dof + t^2), here by its continued fraction (modified
    Lentz, as in Numerical Recipes' betacf), which converges fast for
    x < (a + 1) / (a + b + 2), that is for every dof once t^2 > 3.
    """
    a, b = 0.5 * dof, 0.5
    x = dof / (dof + t * t)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 - a * math.log1p(t * t / dof) + b * math.log(t * t / (dof + t * t)))
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    c, h = 1.0, d
    for m in itertools.count(1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h *= c * d
        if abs(c * d - 1.0) <= sys.float_info.epsilon:
            return math.exp(log_front) * h / a


def _allowed_over(threshold: float, n_eligible: int, batches: int) -> int:
    """Shells over |z| = threshold that a correct run exceeds with
    probability <= VERDICT_ALPHA.

    On a correct run each shell's z-score is a Student t statistic with
    batches - 1 degrees of freedom (the stderr comes from the batch spread),
    so it passes the threshold with probability p = P(|t| > threshold).
    Taking shells as independent, the count over it is
    Binomial(n_eligible, p); the allowance is the smallest k with
    P(Binomial > k) <= VERDICT_ALPHA.
    """
    p = _t_tail(threshold, batches - 1)
    n = n_eligible

    def pmf(k):
        return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                        + k * math.log(p) + (n - k) * math.log1p(-p))

    k, below = 0, pmf(0)  # below is P(Binomial <= k)
    while 1.0 - below > VERDICT_ALPHA:
        k += 1
        below += pmf(k)
    return k


def compare_verdict(z: np.ndarray, n_scores: np.ndarray, batches: int) -> tuple[bool, dict]:
    """PASS/FAIL of per-shell z-scores, with the counts behind it.

    Shells with at least MIN_SCORES scores and a finite z are eligible.
    PASS needs at least one eligible shell, at most
    _allowed_over(5.0, eligible, batches) over |z| = 5, and at most
    _allowed_over(3.0, eligible, batches) over |z| = 3. On a correct run
    each leg FAILs with probability at most VERDICT_ALPHA (1%). At the
    defaults of 64 shells and 100 batches the 3-sigma leg allows 2, and the
    5-sigma leg none (1 at 10 batches), FAILing about 2e-4 of the time.
    """
    eligible = (n_scores >= MIN_SCORES) & np.isfinite(z)
    n_eligible = int(eligible.sum())
    over3 = int(np.sum(np.abs(z[eligible]) > 3.0))
    over5 = int(np.sum(np.abs(z[eligible]) > 5.0))
    allowed3 = _allowed_over(3.0, n_eligible, batches)
    allowed5 = _allowed_over(5.0, n_eligible, batches)
    passed = n_eligible > 0 and over5 <= allowed5 and over3 <= allowed3
    return passed, {
        "eligible_shells": n_eligible,
        "shells_over_3sigma": over3,
        "allowed_over_3sigma": allowed3,
        "shells_over_5sigma": over5,
        "allowed_over_5sigma": allowed5,
    }


def cmd_compare(manifest: RunManifest) -> int:
    """Monte Carlo vs the closed form, shell by shell; 0 on compare_verdict's PASS, 2 on FAIL."""
    config = manifest.problem_config()
    oracle_kind = manifest.oracle_model or manifest.model
    result = simulate(config)
    _warn_capped(result)
    f_oracle = closed_form(make_model(oracle_kind, config.xs)).shell_averages(result.r_edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (result.f_mean - f_oracle) / result.f_stderr
    passed, counts = compare_verdict(z, result.n_scores, config.batches)
    meta = _tally_metadata("compare", config, result)
    meta.update({"oracle_model": oracle_kind, **counts,
                 "verdict": "PASS" if passed else "FAIL"})
    columns = [result.r_mid, result.f_mean, result.f_stderr, f_oracle, z]
    _write_csv(manifest.out, "compare.csv", meta,
               ["r_mid", "f_mc", "stderr", "f_oracle", "z_score"], columns)
    print(f"verdict: {meta['verdict']} "
          f"({counts['shells_over_3sigma']}/{counts['eligible_shells']} eligible shells "
          f"over 3 sigma, {counts['allowed_over_3sigma']} allowed; "
          f"{counts['shells_over_5sigma']} over 5 sigma, "
          f"{counts['allowed_over_5sigma']} allowed)")
    return 0 if passed else 2


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    """Defaults < config file < flags. The namespace holds exactly the chosen
    command's flags, and they are the config file's only keys."""
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "run", "config")}
    settings: dict = {}
    if args.config:
        with open(args.config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(settings) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command} in {args.config}: "
                             f"{sorted(unknown)}")
    settings.update({key: value for key, value in flags.items() if value is not None})
    return RunManifest(command=args.command, **settings)


_LAWS = [k.value for k in ModelKind]
_FLAGS = {  # flag: add_argument keywords
    "--config": dict(help="JSON config file of this command's flags; flags override it"),
    "--out": dict(help="output directory (default: current)"),
    "--model": dict(choices=_LAWS),
    "--sigma-t": dict(type=float, help="total cross section"),
    "--sigma-s": dict(type=float, help="scattering cross section"),
    "--seed": dict(type=int),
    "--histories": dict(type=int),
    "--batches": dict(type=int),
    "--rmax": dict(type=float, help="tally grid radius"),
    "--shells": dict(type=int),
    "--capture": dict(choices=["analog", "implicit"]),
    "--s-min": dict(type=float),
    "--s-max": dict(type=float),
    "--points": dict(type=int),
    "--oracle-model": dict(choices=_LAWS),
    "--oracle-tol": dict(type=float),
    "--oracle-nodes": dict(type=int),
    "--oracle-rmax": dict(type=float),
}
_MEDIUM = "--config --out --model --sigma-t --sigma-s --seed"
_MC = _MEDIUM + " --histories --batches --rmax --shells --capture"
_COMMANDS = {  # command: (run, help, the flags it reads; reference ignores its --seed)
    "curves": (cmd_curves, "hazard/density/cdf tables for all four laws",
               "--config --out --sigma-t --s-min --s-max --points"),
    "simulate": (cmd_simulate, "run the Monte Carlo engine", _MC),
    "reference": (cmd_reference, "run the deterministic solver",
                  _MEDIUM + " --oracle-tol --oracle-nodes --oracle-rmax"),
    "compare": (cmd_compare, "Monte Carlo vs oracle verdict", _MC + " --oracle-model"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonclassical-mc",
        description="Monte Carlo transport with non-exponential path-length laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (run, summary, flags) in _COMMANDS.items():
        subparser = sub.add_parser(command, help=summary)
        for flag in flags.split():
            subparser.add_argument(flag, **_FLAGS[flag])
        subparser.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        manifest = _manifest_from_args(args)
        if args.command in ("simulate", "compare"):
            manifest.problem_config()  # reject bad configs before any work
            configured_workers()  # and a bad worker count
        os.makedirs(manifest.out, exist_ok=True)  # only for a configuration that passed
        if not os.access(manifest.out, os.W_OK):
            raise ValueError(f"output directory not writable: {manifest.out}")
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.run(manifest)
    except ConvergenceError as exc:
        print(f"oracle solve failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal fault: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
