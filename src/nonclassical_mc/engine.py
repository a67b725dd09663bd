"""Analog Monte Carlo transport in an infinite homogeneous medium.

A history is born at the origin of an isotropic point source, flies a
distance drawn from the model's path-length law, scores its weight in the
radial shell containing the collision site, and then either dies (analog
capture, probability 1 - c) or scatters isotropically with the path-length
coordinate reset to zero. Zero-length sp2 flights score in the shell
containing the current position and still roll the absorption test.

Histories are independent tasks: history h draws every variate from the
counter-based stream (seed, h), one Philox block per collision. Block j of
the stream serves collision j: lanes 0-1 give the direction of flight j
(the birth direction for j = 0, the post-scatter direction after that),
lane 2 the flight variate, and lane 3 the analog capture test, or in
implicit capture the roulette test (read only when the weight falls below
the cutoff). The result of a run is therefore a pure function of
(seed, histories, batches) no matter how batches are distributed over
worker processes. Batches are the unit of parallel work and are always
reduced in batch order, which keeps output bitwise reproducible for any
worker count (set NONCLASSICAL_MC_WORKERS to override the default of all
available CPUs).

Particles that leave the tally grid keep transporting (the medium is
infinite) but score nothing; histories are never truncated spatially.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .kernels import CrossSectionSpec, ModelKind, PathLengthModel, make_model
from .rng import RandomStream, uniforms_at
from .sampler import sample_path

__all__ = [
    "Particle",
    "ShellTally",
    "ProblemConfig",
    "TallyResult",
    "ScalarFluxEstimate",
    "run_history",
    "simulate",
    "scalar_flux_from_collisions",
    "batch_slices",
    "configured_workers",
    "MAX_COLLISIONS",
]

MAX_COLLISIONS = 100_000  # guards pathological configurations; unreachable for c < 1
WEIGHT_CUTOFF = 0.01
ROULETTE_SURVIVAL = 0.1
WORKERS_ENV = "NONCLASSICAL_MC_WORKERS"


@dataclass
class Particle:
    """Transport state: position and unit direction (length units), weight."""

    position: np.ndarray
    direction: np.ndarray
    weight: float = 1.0

    def validate(self) -> None:
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")
        if not (0.0 < self.weight <= 1.0):
            raise ValueError("weight must lie in (0, 1]")


def _directions(u1, u2):
    """Isotropic unit vectors from uniform cos(theta) and uniform azimuth."""
    mu = 2.0 * np.asarray(u1) - 1.0
    phi = 2.0 * math.pi * np.asarray(u2)
    sin_theta = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
    return np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), mu], axis=-1)


class ShellTally:
    """Radial-shell accumulator for collision-rate density, batched.

    Scores are kept per (batch, shell); the reported density is
    weight / (histories * shell volume) and its standard error comes from
    the spread of the per-batch densities (meaningful for >= 10 batches).
    """

    def __init__(self, edges, n_batches: int):
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least two shell edges")
        if edges[0] != 0.0:
            raise ValueError("innermost shell edge must be 0")
        if np.any(np.diff(edges) <= 0.0):
            raise ValueError("shell edges must be strictly increasing")
        if n_batches < 1:
            raise ValueError("need at least one batch")
        self.edges = edges
        self.n_batches = int(n_batches)
        k = edges.size - 1
        b = self.n_batches
        self.weight = np.zeros((b, k))
        self.scores = np.zeros((b, k), dtype=np.int64)
        self.histories = np.zeros(b, dtype=np.int64)
        self.collisions = np.zeros(b, dtype=np.int64)
        self.zero_length = np.zeros(b, dtype=np.int64)
        self.first_flight_s2 = np.zeros(b)
        self.first_flights = np.zeros(b, dtype=np.int64)
        self.absorbed_weight = np.zeros(b)
        self.faults = np.zeros(b, dtype=np.int64)
        self.capped = np.zeros(b, dtype=np.int64)

    @property
    def volumes(self) -> np.ndarray:
        return 4.0 * math.pi / 3.0 * np.diff(self.edges**3)

    def score(self, batch: int, radius: float, weight: float = 1.0) -> None:
        """Deposit one collision at the given radius (no-op beyond the grid)."""
        k = int(np.searchsorted(self.edges, radius, side="right")) - 1
        if 0 <= k < self.edges.size - 1:
            self.weight[batch, k] += weight
            self.scores[batch, k] += 1

    def record_history(self, batch: int, collisions: int, zero_length: int,
                       first_s2: float | None, absorbed: float,
                       fault: bool = False, capped: bool = False) -> None:
        self.histories[batch] += 1
        self.collisions[batch] += collisions
        self.zero_length[batch] += zero_length
        if first_s2 is not None:
            self.first_flight_s2[batch] += first_s2
            self.first_flights[batch] += 1
        self.absorbed_weight[batch] += absorbed
        if fault:
            self.faults[batch] += 1
        if capped:
            self.capped[batch] += 1

    def finalize(self, source_strength: float = 1.0,
                 config: "ProblemConfig | None" = None) -> "TallyResult":
        q = float(source_strength)
        v = self.volumes
        n_total = int(self.histories.sum())
        if n_total == 0:
            raise ValueError("no histories recorded")
        f_mean = q * self.weight.sum(axis=0) / (n_total * v)
        b = self.n_batches
        if b >= 2:
            per_batch = q * self.weight / (np.maximum(self.histories, 1)[:, None] * v)
            f_stderr = per_batch.std(axis=0, ddof=1) / math.sqrt(b)
            cph_batch = self.collisions / np.maximum(self.histories, 1)
            cph_se = float(cph_batch.std(ddof=1) / math.sqrt(b))
            s2_batch = self.first_flight_s2 / np.maximum(self.first_flights, 1)
            msd_se = float(s2_batch.std(ddof=1) / math.sqrt(b))
        else:
            f_stderr = np.full(v.shape, np.nan)
            cph_se = math.nan
            msd_se = math.nan
        total_coll = int(self.collisions.sum())
        first_n = int(self.first_flights.sum())
        return TallyResult(
            r_edges=self.edges.copy(),
            f_mean=f_mean,
            f_stderr=f_stderr,
            n_scores=self.scores.sum(axis=0),
            histories=n_total,
            batches=b,
            collisions_per_history=total_coll / n_total,
            collisions_per_history_se=cph_se,
            zero_length_fraction=(self.zero_length.sum() / total_coll) if total_coll else 0.0,
            first_flight_msd=(self.first_flight_s2.sum() / first_n) if first_n else math.nan,
            first_flight_msd_se=msd_se,
            absorbed_weight_per_history=q * float(self.absorbed_weight.sum()) / n_total,
            faults=int(self.faults.sum()),
            capped=int(self.capped.sum()),
            kind=config.kind if config else None,
            sigma_t=config.sigma_t if config else None,
            sigma_s=config.sigma_s if config else None,
            capture=config.capture if config else None,
            seed=config.seed if config else None,
        )


@dataclass(frozen=True)
class TallyResult:
    """Per-shell collision-rate density with statistics and run totals."""

    r_edges: np.ndarray
    f_mean: np.ndarray
    f_stderr: np.ndarray
    n_scores: np.ndarray
    histories: int
    batches: int
    collisions_per_history: float
    collisions_per_history_se: float
    zero_length_fraction: float
    first_flight_msd: float
    first_flight_msd_se: float
    absorbed_weight_per_history: float
    faults: int
    capped: int
    kind: ModelKind | None = None
    sigma_t: float | None = None
    sigma_s: float | None = None
    capture: str | None = None
    seed: int | None = None

    @property
    def r_mid(self) -> np.ndarray:
        return 0.5 * (self.r_edges[:-1] + self.r_edges[1:])


@dataclass(frozen=True)
class ProblemConfig:
    """Full description of one Monte Carlo run."""

    kind: ModelKind | str
    sigma_t: float = 1.0
    sigma_s: float = 0.0
    histories: int = 100_000
    batches: int = 100
    seed: int = 0
    source_strength: float = 1.0
    r_max: float | None = None
    shells: int = 64
    capture: str = "analog"

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        CrossSectionSpec(self.sigma_t, self.sigma_s)  # raises on bad medium
        if self.r_max is None:
            object.__setattr__(self, "r_max", 10.0 / self.sigma_t)
        if not (self.histories >= self.batches >= 10):
            raise ValueError("need histories >= batches >= 10")
        if self.r_max * self.sigma_t < 5.0:
            raise ValueError("tally grid must reach at least 5 mean free paths")
        if self.shells < 1:
            raise ValueError("need at least one shell")
        if self.capture not in ("analog", "implicit"):
            raise ValueError(f"unknown capture mode {self.capture!r}")
        if not (self.source_strength > 0.0):
            raise ValueError("source strength must be positive")

    @property
    def xs(self) -> CrossSectionSpec:
        return CrossSectionSpec(self.sigma_t, self.sigma_s)


def run_history(model: PathLengthModel, xs: CrossSectionSpec, stream: RandomStream,
                tally: ShellTally, batch: int = 0, capture: str = "analog",
                max_collisions: int = MAX_COLLISIONS) -> int:
    """Transport one history; returns the number of collisions scored.

    The caller supplies a stream no other history uses; flight j reads
    block j of it whole (the lane roles are in the module docstring). A
    non-finite position aborts the history and is recorded as a diagnostic
    fault on the tally, never silently dropped.
    """
    if model.xs != xs:
        raise ValueError("model was built for a different medium than xs")
    c = xs.c
    u = stream.block(0)
    particle = Particle(
        position=np.zeros(3),
        direction=_directions(u[0], u[1]),
        weight=1.0,
    )
    collisions = 0
    zero_length = 0
    first_s2: float | None = None
    absorbed = 0.0
    while True:
        s = sample_path(model, float(u[2]))
        particle.position = particle.position + s * particle.direction
        radius = float(np.linalg.norm(particle.position))
        if not math.isfinite(radius):
            tally.record_history(batch, collisions, zero_length, first_s2, absorbed, fault=True)
            return collisions
        if first_s2 is None:
            first_s2 = s * s
        collisions += 1
        if s == 0.0:
            zero_length += 1
        tally.score(batch, radius, particle.weight)
        if capture == "analog":
            if u[3] < 1.0 - c:
                absorbed += particle.weight
                break
        else:
            absorbed += particle.weight * (1.0 - c)
            particle.weight *= c
            if particle.weight < WEIGHT_CUTOFF:
                if u[3] < ROULETTE_SURVIVAL:
                    particle.weight /= ROULETTE_SURVIVAL
                else:
                    break
        if collisions >= max_collisions:
            tally.record_history(batch, collisions, zero_length, first_s2, absorbed, capped=True)
            return collisions
        u = stream.block(collisions)
        particle.direction = _directions(u[0], u[1])
    tally.record_history(batch, collisions, zero_length, first_s2, absorbed)
    return collisions


def _transport_batch(model: PathLengthModel, xs: CrossSectionSpec, seed: int,
                     start_id: int, n: int, edges: np.ndarray, capture: str,
                     max_collisions: int) -> dict:
    """Run histories [start_id, start_id + n) in lockstep over collisions.

    Each lockstep step makes one ``uniforms_at`` call: every live history
    reads the Philox block whose counter is its collision count, from its
    own (seed, history id) stream, and spends the four lanes on direction,
    flight and capture as run_history does. The two paths are
    interchangeable and the tests assert it. One block is used per
    collision, plus one per faulted flight.
    """
    k_shells = edges.size - 1
    c = xs.c
    out = {
        "weight": np.zeros(k_shells), "scores": np.zeros(k_shells, dtype=np.int64),
        "histories": n, "collisions": 0, "zero_length": 0,
        "first_s2": 0.0, "first_flights": 0, "absorbed": 0.0,
        "faults": 0, "capped": 0,
    }
    ids = np.arange(start_id, start_id + n, dtype=np.uint64)
    pos = np.zeros((n, 3))
    w = np.ones(n)
    ncoll = np.zeros(n, dtype=np.uint64)
    first = True
    while ids.size:
        u = uniforms_at(seed, ids, ncoll)
        s = sample_path(model, u[2])
        pos += s[:, None] * _directions(u[0], u[1])
        radius = np.sqrt(np.einsum("ij,ij->i", pos, pos))
        ok = np.isfinite(radius)
        if not ok.all():
            out["faults"] += int((~ok).sum())
            ids, pos, w, ncoll = ids[ok], pos[ok], w[ok], ncoll[ok]
            u, s, radius = u[:, ok], s[ok], radius[ok]
            if not ids.size:
                break
        if first:
            out["first_s2"] += float((s * s).sum())
            out["first_flights"] += ids.size
            first = False
        out["collisions"] += ids.size
        out["zero_length"] += int((s == 0.0).sum())
        shell = np.searchsorted(edges, radius, side="right") - 1
        hit = shell < k_shells
        np.add.at(out["weight"], shell[hit], w[hit])
        np.add.at(out["scores"], shell[hit], 1)
        ncoll += 1
        if capture == "analog":
            die = u[3] < (1.0 - c)
            out["absorbed"] += float(w[die].sum())
            alive = ~die
        else:
            out["absorbed"] += float((w * (1.0 - c)).sum())
            w = w * c
            alive = np.ones(ids.size, dtype=bool)
            need = w < WEIGHT_CUTOFF
            if need.any():
                survive = u[3, need] < ROULETTE_SURVIVAL
                boosted = w[need]
                boosted[survive] = boosted[survive] / ROULETTE_SURVIVAL
                w[need] = boosted
                alive[need] = survive
        hit_cap = alive & (ncoll >= max_collisions)
        out["capped"] += int(hit_cap.sum())
        alive &= ~hit_cap
        idx = np.nonzero(alive)[0]
        ids, pos, w, ncoll = ids[idx], pos[idx], w[idx], ncoll[idx]
    return out


def _batch_task(args):
    return _transport_batch(*args)


def batch_slices(histories: int, batches: int) -> list[tuple[int, int]]:
    """Contiguous (start, size) history ranges per batch, sizes within 1."""
    base, extra = divmod(histories, batches)
    slices = []
    start = 0
    for b in range(batches):
        size = base + (1 if b < extra else 0)
        slices.append((start, size))
        start += size
    return slices


def configured_workers() -> int:
    """Worker processes from NONCLASSICAL_MC_WORKERS, else all CPUs.

    Raises ValueError when the variable is set to anything but a positive
    integer.
    """
    raw = os.environ.get(WORKERS_ENV)
    if not raw:
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = 0  # reported below, like any other non-positive value
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return count


def simulate(config: ProblemConfig) -> TallyResult:
    """Run the configured number of histories in batches; fully reproducible.

    The output is a pure function of the configuration: history h always
    uses stream (seed, h) and batch results are merged in batch order, so
    1, 2, or 8 workers produce bitwise identical tallies.
    """
    model = make_model(config.kind, config.xs)
    edges = np.linspace(0.0, config.r_max, config.shells + 1)
    tally = ShellTally(edges, config.batches)
    tasks = [
        (model, config.xs, config.seed, start, size, edges, config.capture, MAX_COLLISIONS)
        for start, size in batch_slices(config.histories, config.batches)
    ]
    workers = min(configured_workers(), len(tasks))
    if workers <= 1:
        results = [_batch_task(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            results = pool.map(_batch_task, tasks, chunksize=max(1, len(tasks) // (4 * workers)))
    for b, res in enumerate(results):
        tally.weight[b] = res["weight"]
        tally.scores[b] = res["scores"]
        tally.histories[b] = res["histories"]
        tally.collisions[b] = res["collisions"]
        tally.zero_length[b] = res["zero_length"]
        tally.first_flight_s2[b] = res["first_s2"]
        tally.first_flights[b] = res["first_flights"]
        tally.absorbed_weight[b] = res["absorbed"]
        tally.faults[b] = res["faults"]
        tally.capped[b] = res["capped"]
    return tally.finalize(config.source_strength, config=config)


@dataclass(frozen=True)
class ScalarFluxEstimate:
    """Per-shell scalar-flux estimate, or the collision density with a flag.

    Only the classical law admits the direct conversion phi0 = f / sigma_t;
    the other laws would need a path-length dependent weighting that plain
    collision tallies do not record, so f is returned unchanged with
    is_direct_flux False.
    """

    values: np.ndarray
    stderr: np.ndarray
    is_direct_flux: bool
    note: str


def scalar_flux_from_collisions(result: TallyResult, xs: CrossSectionSpec) -> ScalarFluxEstimate:
    """Estimate the scalar flux from a collision tally where that is exact."""
    if result.kind is ModelKind.CLASSICAL:
        return ScalarFluxEstimate(
            values=result.f_mean / xs.sigma_t,
            stderr=result.f_stderr / xs.sigma_t,
            is_direct_flux=True,
            note="classical law: phi0 = f / sigma_t per shell",
        )
    return ScalarFluxEstimate(
        values=result.f_mean.copy(),
        stderr=result.f_stderr.copy(),
        is_direct_flux=False,
        note="non-classical law: reporting collision-rate density f, not phi0",
    )
