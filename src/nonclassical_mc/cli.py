"""Command-line front end: curve tables, simulation, oracle, comparison.

Subcommands
    curves     write hazard/density/cdf tables for all four laws as CSV
    simulate   run the Monte Carlo engine and write the shell tally as CSV
    reference  run the deterministic integral-equation solver, write CSV
    compare    run both and emit per-shell z-scores with a PASS/FAIL verdict

All options can come from a JSON config file (--config) whose keys mirror
the flag names with underscores; explicit flags override the file. Numeric
output is printed with 9 significant digits. Exit codes: 0 success/PASS,
1 configuration error, 2 comparison FAIL, 3 internal fault.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .engine import ProblemConfig, configured_workers, simulate
from .kernels import CrossSectionSpec, ModelKind, make_model
from .reference import (
    ConvergenceError,
    RadialGrid,
    diffusion_point_source,
    shell_average_from_function,
    solve_integral_equation,
)

__all__ = ["RunManifest", "cmd_curves", "cmd_simulate", "cmd_reference", "cmd_compare",
           "allowed_over_3sigma", "compare_verdict", "main"]

VERDICT_ALPHA = 0.01  # false-FAIL rate the 3-sigma leg allows on a correct run
MIN_SCORES = 100  # scores a shell needs before its z-score counts

_CONFIG_KEYS = {
    "model", "sigma_t", "sigma_s", "seed", "histories", "batches", "rmax",
    "shells", "capture", "source_strength", "s_min", "s_max", "points",
    "oracle_model", "oracle_tol", "oracle_nodes", "oracle_rmax", "out",
}


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
    source_strength: float = 1.0
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
        CrossSectionSpec(self.sigma_t, self.sigma_s)
        if self.s_max is None:
            self.s_max = 6.0 / self.sigma_t
        if self.oracle_rmax is None:
            self.oracle_rmax = 12.0 / self.sigma_t
        if self.points < 2:
            raise ValueError("curve grid needs at least 2 points")
        if not (self.s_max > self.s_min >= 0.0):
            raise ValueError("need s_max > s_min >= 0")
        os.makedirs(self.out, exist_ok=True)
        if not os.access(self.out, os.W_OK):
            raise ValueError(f"output directory not writable: {self.out}")

    def problem_config(self) -> ProblemConfig:
        return ProblemConfig(
            kind=self.model, sigma_t=self.sigma_t, sigma_s=self.sigma_s,
            histories=self.histories, batches=self.batches, seed=self.seed,
            source_strength=self.source_strength, r_max=self.rmax,
            shells=self.shells, capture=self.capture,
        )

    def curve_grid(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.points)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _write_csv(path: str, metadata: dict, header: list[str], rows) -> str:
    try:
        with open(path, "w", newline="") as fh:
            for key, value in metadata.items():
                fh.write(f"# {key}={_fmt(value)}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def _all_models(manifest: RunManifest):
    xs = CrossSectionSpec(manifest.sigma_t, manifest.sigma_s)
    return {kind: make_model(kind, xs) for kind in ModelKind}


def cmd_curves(manifest: RunManifest) -> list[str]:
    """Write hazard.csv, density.csv, cdf.csv over the curve grid."""
    s = manifest.curve_grid()
    models = _all_models(manifest)
    meta = {
        "command": "curves",
        "sigma_t": manifest.sigma_t,
        "sp2_atom_at_zero": models[ModelKind.SP2].atom_at_zero,
    }
    header = ["s", "classical", "diffusion", "sp2", "sp3"]

    def hazard_curve(model):
        out = np.empty_like(s)
        positive = s > 0.0
        out[positive] = model.hazard(s[positive])
        # s = 0 rows carry the continuous-part limit density(0)/survival(0);
        # the sp2 atom itself is in the metadata, not the table
        out[~positive] = model.density(0.0) / (1.0 - model.atom_at_zero)
        return out

    tables = {
        "hazard.csv": hazard_curve,
        "density.csv": lambda model: model.density(s),
        "cdf.csv": lambda model: model.cdf(s),
    }
    paths = []
    for name, column_of in tables.items():
        columns = [column_of(models[k]) for k in
                   (ModelKind.CLASSICAL, ModelKind.DIFFUSION, ModelKind.SP2, ModelKind.SP3)]
        rows = zip(s, *columns)
        paths.append(_write_csv(os.path.join(manifest.out, name), meta, header, rows))
    for path in paths:
        print(f"wrote {path}")
    return paths


def _tally_metadata(manifest: RunManifest, result) -> dict:
    return {
        "command": manifest.command,
        "model": manifest.model,
        "sigma_t": manifest.sigma_t,
        "sigma_s": manifest.sigma_s,
        "histories": result.histories,
        "batches": result.batches,
        "seed": result.seed,
        "capture": result.capture,
        "collisions_per_history": result.collisions_per_history,
        "collisions_per_history_se": result.collisions_per_history_se,
        "zero_length_fraction": result.zero_length_fraction,
        "absorbed_weight_per_history": result.absorbed_weight_per_history,
        "faults": result.faults,
        "capped": result.capped,
    }


def cmd_simulate(manifest: RunManifest) -> str:
    """Run the engine; write tally.csv; print the run summary."""
    config = manifest.problem_config()
    started = time.perf_counter()
    result = simulate(config)
    elapsed = time.perf_counter() - started
    rows = zip(result.r_edges[:-1], result.r_edges[1:],
               result.f_mean, result.f_stderr, result.n_scores)
    path = _write_csv(
        os.path.join(manifest.out, "tally.csv"),
        _tally_metadata(manifest, result),
        ["r_lo", "r_hi", "f_mean", "f_stderr", "n_scores"],
        rows,
    )
    print(f"wrote {path}")
    print(f"collisions/history = {_fmt(result.collisions_per_history)} "
          f"+- {_fmt(result.collisions_per_history_se)}")
    print(f"wall time = {elapsed:.3f} s")
    print(f"seed = {result.seed}")
    return path


def cmd_reference(manifest: RunManifest) -> str:
    """Solve the integral equation on the oracle grid; write reference.csv."""
    kind = manifest.oracle_model or manifest.model
    xs = CrossSectionSpec(manifest.sigma_t, manifest.sigma_s)
    model = make_model(kind, xs)
    grid = RadialGrid.uniform(manifest.oracle_rmax, manifest.oracle_nodes)
    solution = solve_integral_equation(model, xs, grid, tol=manifest.oracle_tol)
    meta = {
        "command": "reference",
        "model": kind,
        "sigma_t": manifest.sigma_t,
        "sigma_s": manifest.sigma_s,
        "nodes": grid.nodes.size,
        "r_max": grid.r_max,
        "tol": manifest.oracle_tol,
        "iterations": solution.iterations,
        "residual": solution.residual,
        "origin_mass": solution.origin_mass,
        "volume_integral": solution.volume_integral(),
    }
    path = _write_csv(os.path.join(manifest.out, "reference.csv"), meta,
                      ["r", "f"], zip(grid.nodes, solution.f))
    print(f"wrote {path}")
    return path


def _validate_compare(manifest: RunManifest, config: ProblemConfig) -> None:
    """Reject oracle/tally grid mismatches before any histories run."""
    oracle_kind = ModelKind(manifest.oracle_model or manifest.model)
    if oracle_kind is not ModelKind.DIFFUSION and manifest.oracle_rmax < config.r_max:
        raise ValueError(
            f"oracle grid (r_max={manifest.oracle_rmax}) must reach the outermost "
            f"tally shell (r_max={config.r_max})")


def _oracle_shell_averages(manifest: RunManifest, kind: str, edges: np.ndarray) -> np.ndarray:
    """Shell-averaged oracle densities: closed form for diffusion, solver else."""
    xs = CrossSectionSpec(manifest.sigma_t, manifest.sigma_s)
    if ModelKind(kind) is ModelKind.DIFFUSION:
        return shell_average_from_function(lambda r: diffusion_point_source(xs, r), edges)
    model = make_model(kind, xs)
    grid = RadialGrid.uniform(manifest.oracle_rmax, manifest.oracle_nodes)
    solution = solve_integral_equation(model, xs, grid, tol=manifest.oracle_tol)
    return solution.shell_averages(edges)


def allowed_over_3sigma(n_eligible: int, batches: int) -> int:
    """Shells over |z| = 3 that a correct run exceeds with probability <= 1%.

    On a correct run each shell's z-score is a Student t statistic with
    batches - 1 degrees of freedom (the stderr comes from the batch spread),
    so it passes 3 with probability p = P(|t| > 3). Taking shells as
    independent, the count over 3 is Binomial(n_eligible, p); the allowance
    is the smallest k with P(Binomial > k) <= VERDICT_ALPHA.
    """
    p = 2.0 * special.stdtr(batches - 1, -3.0)
    k = 0
    while special.bdtrc(k, n_eligible, p) > VERDICT_ALPHA:
        k += 1
    return k


def compare_verdict(z: np.ndarray, n_scores: np.ndarray, batches: int) -> tuple[bool, dict]:
    """PASS/FAIL of per-shell z-scores, with the counts behind it.

    Shells with at least MIN_SCORES scores and a finite z are eligible.
    PASS needs at least one eligible shell, none over |z| = 5, and at most
    allowed_over_3sigma(eligible, batches) over |z| = 3. On a correct run the
    3-sigma leg FAILs with probability at most VERDICT_ALPHA (1%), and the
    5-sigma leg with about eligible * P(|t| > 5) (2e-4 at the defaults of 64
    shells and 100 batches).
    """
    eligible = (n_scores >= MIN_SCORES) & np.isfinite(z)
    n_eligible = int(eligible.sum())
    over3 = int(np.sum(np.abs(z[eligible]) > 3.0))
    over5 = int(np.sum(np.abs(z[eligible]) > 5.0))
    allowed = allowed_over_3sigma(n_eligible, batches)
    passed = n_eligible > 0 and over5 == 0 and over3 <= allowed
    return passed, {
        "eligible_shells": n_eligible,
        "shells_over_3sigma": over3,
        "allowed_over_3sigma": allowed,
        "shells_over_5sigma": over5,
    }


def cmd_compare(manifest: RunManifest) -> tuple[bool, str]:
    """Monte Carlo vs oracle, shell by shell; PASS/FAIL by compare_verdict."""
    config = manifest.problem_config()
    oracle_kind = manifest.oracle_model or manifest.model
    result = simulate(config)
    f_oracle = _oracle_shell_averages(manifest, oracle_kind, result.r_edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (result.f_mean - f_oracle) / result.f_stderr
    passed, counts = compare_verdict(z, result.n_scores, result.batches)
    meta = _tally_metadata(manifest, result)
    meta.update({"command": "compare", "oracle_model": oracle_kind, **counts,
                 "verdict": "PASS" if passed else "FAIL"})
    rows = zip(result.r_mid, result.f_mean, result.f_stderr, f_oracle, z)
    path = _write_csv(os.path.join(manifest.out, "compare.csv"), meta,
                      ["r_mid", "f_mc", "stderr", "f_oracle", "z_score"], rows)
    print(f"wrote {path}")
    print(f"verdict: {'PASS' if passed else 'FAIL'} "
          f"({counts['shells_over_3sigma']}/{counts['eligible_shells']} eligible shells "
          f"over 3 sigma, {counts['allowed_over_3sigma']} allowed; "
          f"{counts['shells_over_5sigma']} over 5 sigma)")
    return passed, path


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
    return data


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    settings: dict = {}
    if args.config:
        settings.update(_load_config_file(args.config))
    manifest_fields = {f.name for f in fields(RunManifest)}
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None and key in manifest_fields:
            settings[key] = value
    return RunManifest(command=args.command, **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonclassical-mc",
        description="Monte Carlo transport with non-exponential path-length laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its keys")
    common.add_argument("--out", help="output directory (default: current)")
    common.add_argument("--model", choices=[k.value for k in ModelKind])
    common.add_argument("--sigma-t", dest="sigma_t", type=float, help="total cross section")
    common.add_argument("--sigma-s", dest="sigma_s", type=float, help="scattering cross section")
    common.add_argument("--seed", type=int)

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--histories", type=int)
    mc.add_argument("--batches", type=int)
    mc.add_argument("--rmax", type=float, help="tally grid radius")
    mc.add_argument("--shells", type=int)
    mc.add_argument("--capture", choices=["analog", "implicit"])

    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument("--oracle-model", dest="oracle_model",
                        choices=[k.value for k in ModelKind])
    oracle.add_argument("--oracle-tol", dest="oracle_tol", type=float)
    oracle.add_argument("--oracle-nodes", dest="oracle_nodes", type=int)
    oracle.add_argument("--oracle-rmax", dest="oracle_rmax", type=float)

    curves = sub.add_parser("curves", parents=[common],
                            help="hazard/density/cdf tables for all four laws")
    curves.add_argument("--s-min", dest="s_min", type=float)
    curves.add_argument("--s-max", dest="s_max", type=float)
    curves.add_argument("--points", type=int)

    sub.add_parser("simulate", parents=[common, mc], help="run the Monte Carlo engine")
    sub.add_parser("reference", parents=[common, oracle], help="run the deterministic solver")
    sub.add_parser("compare", parents=[common, mc, oracle], help="Monte Carlo vs oracle verdict")
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
            config = manifest.problem_config()  # reject bad configs before any work
            configured_workers()  # and a bad worker count
            if args.command == "compare":
                _validate_compare(manifest, config)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "curves":
            cmd_curves(manifest)
        elif args.command == "simulate":
            cmd_simulate(manifest)
        elif args.command == "reference":
            cmd_reference(manifest)
        else:
            passed, _ = cmd_compare(manifest)
            if not passed:
                return 2
    except ConvergenceError as exc:
        print(f"oracle failed to converge: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal fault: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
