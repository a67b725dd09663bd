"""Analog Monte Carlo transport in an infinite homogeneous medium.

A history is born at the origin of an isotropic point source, flies a
distance drawn from the model's path-length law, scores its weight in the
radial shell containing the collision site, and then either dies (analog
capture, probability 1 - c) or scatters isotropically with the path-length
coordinate reset to zero. A law with an atom at s = 0 (sp2) sends a
scattered history back to the same point with the atom's probability: a
zero-length flight, after which it collides again without moving. The
transport folds these collisions into one site visit: K >= 1 collisions at
one point, all scored in its shell and each with its own absorption test
or roulette (_site_visits), then a flight from the law's continuous part.
For an atomless law a site visit is one collision. Only a history's first
flight, from the source, is drawn from the full law, so it alone can be a
zero-length flight between two site visits; every other zero-length
collision happens inside a site.

Every variate comes from the random-access streams of ``rng``: one
PCG64DXSM stream per key, whose counter h holds three doubles. A batch's
site visit j reads key (seed, j): the r-th live history of the batch,
counting in history order, reads the counter s + r, where s is the id of
the batch's first history. So a history's first site visit reads counter
h, and a batch of one history reads (seed, j; h) at every site visit j. A
batch reads key j first at its site visit j, and which counter a history
takes there depends only on earlier variates, so given the past the
variates of site visit j are independent and uniform. A counter's three
doubles are spent on one site visit: u[0] gives flight j's cosine to the
radius vector (at birth for j = 0, after the scatter after that), u[1] the
flight variate, and u[2] the analog capture test, or in implicit capture
the roulette test, which decides only for the lanes whose weight falls
below the cutoff; under a law with an atom, u[2] gives the visit's
collision count and its capture tests and roulettes together. The result
of a run is therefore a pure function of (seed, histories, batches) no
matter how batches are distributed over worker processes (set
NONCLASSICAL_MC_WORKERS to override the default of all CPUs the process
may run on).

Each worker runs one contiguous range of batches (as many ranges as
workers, at most one per batch) in a refilling lockstep over site visits,
so the per-step cost is shared. Before each step the lockstep admits the
next batches in order, each whole, while its width stays within LANES
histories; a batch wider than LANES joins only an empty lockstep. As
histories die, lanes free up and later batches join, so the width stays
near LANES and the step count follows the range's site visits over the
width. One step thus holds batches at different site-visit indices, and
its one ``uniforms_at`` call gives each batch a run of counters under the
key of its own site-visit index. The grouping depends on the worker
count, but the output does not: admission appends batches in order and
compaction keeps the live lanes in history order, so a batch's counters at
each site visit depend only on its own histories, each (batch, shell) cell
receives its additions in (site-visit index, history id) order whatever
the batch's step-mates are, and per-batch results are reduced in batch
order.

Every worker count goes through one executor, ``_run_shares``. It first
builds the RNG reader (``rng.reader``, which imports numpy.random), then,
for two or more workers, forks one child per range: each child pickles its
result dict to its own pipe and leaves with os._exit, and the parent, which
runs no range itself, reads the pipes in range order and reaps every child,
killing and reaping those left on an error or interrupt. The children start
from the warmed parent, so none imports numpy.random or builds a reader of
its own; a spawn or forkserver worker would start from a fresh import,
which costs several times a run's transport. The ranges run one after
another in the calling process instead for one worker, where os.fork is
missing, on macOS (whose system libraries are not safe after a fork), and
while another Python thread is alive, since forking a threaded process can
copy a lock that a thread holds. The output is the same either way.
Imported before numpy, the package loads numpy's OpenBLAS with one thread
unless OPENBLAS_NUM_THREADS is set (see ``__init__``): the parallelism is
these processes, the BLAS calls are vector-sized, and an idle OpenBLAS
pool spins a CPU for about 0.1 s after loading, so the parent forks its
workers from a one-thread process. Untested with MKL or Accelerate builds
of numpy, which ignore the variable.

The source, the scattering and the tally are spherically symmetric, so a
history carries only its radius (``_radius_after``), and under implicit
capture its weight: the lockstep keeps them in one list of per-lane arrays
beside the lanes' batch indices. Analog capture keeps no weight, since every
analog weight is 1: a cell's weight is its score count, and a batch's
absorbed weight the number of its histories that were absorbed. The tally
grid is np.linspace(0, r_max, shells + 1), so a collision's shell is r over
the shell width, corrected by one step against the edges, which equals a
search of the edges.

Particles that leave the tally grid keep transporting (the medium is
infinite) but score nothing; histories are never truncated spatially.
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .kernels import CrossSectionSpec, ModelKind, PathLengthModel, make_model
from .rng import reader, uniforms_at
from .sampler import sample_path

__all__ = [
    "ProblemConfig",
    "TallyResult",
    "simulate",
    "batch_slices",
    "configured_workers",
    "MAX_COLLISIONS",
]

# the cap on a history's site visits (lockstep steps): one collision each for an
# atomless law, one or more for sp2, whose zero-length collisions happen inside a
# site. An analog history of an atomless law is still alive after MAX_COLLISIONS
# collisions with probability c**MAX_COLLISIONS: about 4.5e-5 at c = 0.9999 and
# 3.5e-44 at c = 0.999 (an sp2 site visit ends alive with probability
# c(1 - a)/(1 - c a) < c). A history at the cap is stopped and counted in
# `capped`, and its later collisions go unscored
MAX_COLLISIONS = 100_000
WEIGHT_CUTOFF = 0.01
ROULETTE_SURVIVAL = 0.1
WORKERS_ENV = "NONCLASSICAL_MC_WORKERS"
LANES = 16_384  # lockstep width cap, near a 1e4-history batch, so peak memory does not grow
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


@dataclass(frozen=True)
class TallyResult:
    """Per-shell collision-rate density with statistics and run totals."""

    r_edges: np.ndarray
    f_mean: np.ndarray
    f_stderr: np.ndarray
    n_scores: np.ndarray
    histories: int
    collisions_per_history: float
    collisions_per_history_se: float
    zero_length_fraction: float
    absorbed_weight_per_history: float
    faults: int
    capped: int

    @property
    def r_mid(self) -> np.ndarray:
        return 0.5 * (self.r_edges[:-1] + self.r_edges[1:])


def _integral(name: str, value) -> int:
    """value as an int when it is integral (10000 or 1e4), else ValueError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ProblemConfig:
    """Full description of one Monte Carlo run."""

    kind: ModelKind | str
    sigma_t: float = 1.0
    sigma_s: float = 0.0
    histories: int = 100_000
    batches: int = 100
    seed: int = 0
    r_max: float | None = None
    shells: int = 64
    capture: str = "analog"

    def __post_init__(self):
        object.__setattr__(self, "kind", ModelKind(self.kind))
        for name in ("histories", "batches", "shells", "seed"):
            object.__setattr__(self, name, _integral(name, getattr(self, name)))
        CrossSectionSpec(self.sigma_t, self.sigma_s)  # raises on bad medium
        if self.r_max is None:
            object.__setattr__(self, "r_max", 10.0 / self.sigma_t)
        if not (self.histories >= self.batches >= 10):
            raise ValueError("need histories >= batches >= 10")
        if not math.isfinite(self.r_max):
            raise ValueError(f"r_max must be finite, got {self.r_max}")
        if self.r_max * self.sigma_t < 5.0:
            raise ValueError("tally grid must reach at least 5 mean free paths")
        if self.shells < 1:
            raise ValueError("need at least one shell")
        if self.capture not in ("analog", "implicit"):
            raise ValueError(f"unknown capture mode {self.capture!r}")

    @property
    def xs(self) -> CrossSectionSpec:
        return CrossSectionSpec(self.sigma_t, self.sigma_s)


def _radius_after(r, s, u0):
    """Radius after a flight s from radius r at cosine mu = 2 u0 - 1 to the
    radius vector; for isotropic mu, the 3-D walk's radius in law. 1 - mu^2
    is 4 u0 (1 - u0), 1 - u0 exact on numpy's 2^-53 grid: no cancellation
    through the origin, and s = 0 returns r bit for bit (sqrt(r r) = r)."""
    along = r + s * (2.0 * u0 - 1.0)
    return np.sqrt(along * along + s * s * (4.0 * u0 * (1.0 - u0)))


def _site_visits(xi, c, log_q, log_c, atom, w):
    """The collisions of each lane's site visit, all read from its double xi.

    After a collision the history stays at the site, a zero-length flight,
    with probability q (c atom under analog capture, atom under implicit,
    where every collision scatters), so the extra collisions
    K - 1 = floor(ln(1 - xi) / ln q) are geometric, and what xi has left,
    v = (1 - (1 - xi) / q^(K - 1)) / (1 - q), is uniform on [0, 1) and
    independent of K. Under analog capture the visit ends in absorption when
    v < (1 - c) / (1 - q), that is when ln(1 - xi) - (K - 1) ln q > ln c,
    and in a flight otherwise. Under implicit capture w is the weight each
    lane arrives with, and collision i of the visit scores w c^(i - 1); a
    lane whose weight stays at or above WEIGHT_CUTOFF leaves with w c^K, the
    others play each collision's roulette (_roulettes).

    Returns per lane the collisions made k (floats), whether the history
    leaves in a flight, and under implicit capture the sum of its
    collisions' weights and the weight it leaves with (None under analog).
    """
    log_left = np.log1p(-xi)
    extra = np.floor(log_left / log_q)
    k = extra + 1.0
    if w is None:
        return k, log_left - extra * log_q <= log_c, None, None
    leave = w * c**k
    score = (w - leave) / (1.0 - c)
    alive = np.ones(k.size, dtype=bool)
    slow = np.flatnonzero(leave < WEIGHT_CUTOFF)
    if slow.size:
        v = -np.expm1(log_left.take(slow) - extra.take(slow) * log_q) / (1.0 - atom)
        k[slow], alive[slow], score[slow], leave[slow] = _roulettes(
            w.take(slow), k.take(slow), v, c, log_c)
    return k, alive, score, leave


def _roulettes(w, left, v, c, log_c):
    """Implicit-capture visits of `left` collisions from weight w, with the
    roulette of every collision whose weight falls below WEIGHT_CUTOFF.

    The roulettes a visit survives, floor(ln(1 - v) / ln ROULETTE_SURVIVAL),
    are geometric and read from v, uniform and independent of the visit's
    length. Each lane walks from roulette to roulette: collisions up to the
    first whose weight w c^j falls below the cutoff, then death there, or
    the weight divided by ROULETTE_SURVIVAL and the collisions left. Returns
    the collisions made, whether the history lives, the sum of their
    weights and the weight left, per lane.
    """
    lives = np.floor(np.log1p(-np.clip(v, 0.0, _BELOW_ONE)) / math.log(ROULETTE_SURVIVAL))
    k = np.zeros(w.size)
    score = np.zeros(w.size)
    alive = np.ones(w.size, dtype=bool)
    walking = np.arange(w.size)
    while walking.size:
        wa, todo = w[walking], left[walking]
        j = np.ones(walking.size)  # collisions to the first below the cutoff
        far = np.flatnonzero(wa * c >= WEIGHT_CUTOFF)  # so c > 0 and wa > 0 there
        j[far] += np.floor(np.log(WEIGHT_CUTOFF / wa[far]) / log_c)
        np.minimum(j, todo, out=j)
        end = wa * c**j
        score[walking] += (wa - end) / (1.0 - c)
        k[walking] += j
        todo -= j
        left[walking] = todo
        roulette = end < WEIGHT_CUTOFF
        dead = roulette & (lives[walking] == 0.0)
        alive[walking[dead]] = False
        lives[walking] -= roulette
        w[walking] = np.where(roulette, end / ROULETTE_SURVIVAL, end)
        walking = walking[(todo > 0.0) & ~dead]
    return k, alive, score, w


_heap_prepared = False


def _prepare_heap() -> None:
    """Once per process: free a 4 MiB block, so that glibc's malloc raises its
    dynamic mmap threshold to 4 MiB (and its trim threshold to 8 MiB), then
    write one such block on the heap and free it. The lockstep's temporaries,
    128 KiB and more at full width, then reuse pages already faulted in, in
    every group, instead of being mmapped, faulted in and unmapped on every
    step (a block per group would come from the heap and stretch it into new
    pages). Under any other allocator these are two short-lived allocations.
    """
    global _heap_prepared
    if not _heap_prepared:
        np.empty(1 << 19)
        np.ones(1 << 19)
        _heap_prepared = True


def _transport_group(model: PathLengthModel, seed: int, start_id: int, sizes,
                     r_max: float, shells: int, capture: str, max_visits: int) -> dict:
    """Run consecutive batches in one refilling lockstep over site visits.

    Batch b holds the sizes[b] histories that follow those of batch b - 1,
    the first starting at history start_id. Before each step the kernel
    admits the next batches in order, each whole, while the width stays
    within LANES (a batch wider than LANES only into an empty lockstep);
    a batch admitted at step t takes its site visit j at step t + j. Every
    lane carries its batch index, counted from the oldest batch in the
    lockstep. Each step makes one ``uniforms_at`` call with one run of
    counters per batch, keyed by the batch's site-visit index (module
    docstring); lanes stay sorted by batch and history, so the call's
    columns line up with the lanes. One counter is used per site visit,
    plus one per faulted flight, and a batch's histories still live after
    max_visits site visits are capped. A step samples the flights of the
    lanes already in the lockstep from the law's continuous part, and
    under a law with an atom those of its newborn lanes, the last ones, in
    a second ``sample_path`` call from the full law. Collisions score on
    the grid np.linspace(0, r_max, shells + 1).

    Returns per-batch arrays by name, in batch order, for _finalize.
    """
    _prepare_heap()
    edges = np.linspace(0.0, r_max, shells + 1)
    to_shell = shells / r_max
    nb = len(sizes)
    c = model.xs.c
    analog = capture == "analog"
    out = {
        "weight": np.zeros(nb * shells), "scores": np.zeros(nb * shells, dtype=np.int64),
        "histories": np.asarray(sizes, dtype=np.int64),
        "collisions": np.zeros(nb, dtype=np.int64), "zero_length": np.zeros(nb, dtype=np.int64),
        "absorbed_weight": np.zeros(nb),
        "faults": np.zeros(nb, dtype=np.int64), "capped": np.zeros(nb, dtype=np.int64),
    }
    sizes = out["histories"]
    firsts = start_id + np.cumsum(sizes) - sizes
    admitted = np.zeros(nb, dtype=np.int64)  # the step each batch joins at
    live = np.zeros(nb, dtype=np.int64)  # live histories per batch
    batch = np.zeros(0, dtype=np.intp)
    atom = model.atom_at_zero
    leaving = model.continuous_part  # the law of every flight but a newborn's
    if atom:
        # extra collisions at a site come with probability q each: c atom under
        # analog capture, atom under implicit (q = 0 at c = 0 reads as the
        # smallest float, whose log makes every site one collision)
        log_q = math.log(max(c * atom if analog else atom, sys.float_info.min))
        log_c = math.log(c) if c else -math.inf
    births = [0.0] if analog else [0.0, 1.0]  # radius, then weight (analog weights are all 1)
    lanes = [np.zeros(0) for _ in births]
    lo = hi = 0  # the lockstep holds batches lo .. hi - 1
    step = 0
    while True:
        width, joined, new = batch.size, hi, 0
        while hi < nb and (width == 0 or width + sizes[hi] <= LANES):
            width += sizes[hi]
            hi += 1
        if hi > joined:
            admitted[joined:hi] = step
            live[joined:hi] = sizes[joined:hi]
            new = width - batch.size
            batch = np.concatenate([batch, np.repeat(np.arange(joined - lo, hi - lo),
                                                     sizes[joined:hi])])
            lanes = [np.concatenate([a, np.full(new, birth)]) for a, birth in zip(lanes, births)]
        if not width:
            break
        held = slice(lo, hi)
        nh = hi - lo
        u = uniforms_at(seed, step - admitted[held], firsts[held], live[held])
        if atom and new:
            # the newborn lanes, the last ones, fly the full law: a history born
            # at the origin collides there first with probability atom
            born = sample_path(model, u[1][-new:])
            s = born if new == width else np.concatenate([sample_path(leaving, u[1][:-new]),
                                                          born])
            out["zero_length"][held] += np.bincount(
                batch[-new:].take(np.flatnonzero(born == 0.0)), minlength=nh)
        else:
            s = sample_path(leaving, u[1])
        lanes[0] = _radius_after(lanes[0], s, u[0])
        xi = u[2]
        ok = np.isfinite(lanes[0])
        if not ok.all():
            faulted = np.bincount(batch[~ok], minlength=nh)
            out["faults"][held] += faulted
            live[held] -= faulted
            batch, xi, s, *lanes = (a[ok] for a in (batch, xi, s, *lanes))
        radius = lanes[0]
        if atom:
            k, alive, score, leave = _site_visits(xi, c, log_q, log_c, atom,
                                                  None if analog else lanes[1])
            if not analog:
                lanes[1] = leave
            collided = np.bincount(batch, k, minlength=nh).astype(np.int64)
            out["collisions"][held] += collided
            out["zero_length"][held] += collided - live[held]
        else:
            out["collisions"][held] += live[held]
            out["zero_length"][held] += np.bincount(batch.take(np.flatnonzero(s == 0.0)),
                                                    minlength=nh)
            score = None if analog else lanes[1]
        # the uniform grid's shell, estimated within one of the true index (at
        # most shells, as r < r_max) and corrected against the edges: exactly
        # searchsorted(edges, r, "right") - 1
        hit = radius < r_max
        hit = None if hit.all() else np.flatnonzero(hit)  # None: every lane is on the grid
        r, scored = (radius, batch) if hit is None else (radius.take(hit), batch.take(hit))
        shell = (r * to_shell).astype(np.intp)
        shell -= r < edges[shell]
        shell += r >= edges[shell + 1]
        cell = scored * shells + shell
        cells = slice(lo * shells, hi * shells)
        if atom:  # a site scores each of its k collisions
            out["scores"][cells] += np.bincount(cell, k if hit is None else k.take(hit),
                                                nh * shells).astype(np.int64)
        else:
            out["scores"][cells] += np.bincount(cell, minlength=nh * shells)
        step += 1
        if not analog:
            np.add.at(out["weight"][cells], cell, score if hit is None else score.take(hit))
            out["absorbed_weight"][held] += np.bincount(batch, score * (1.0 - c), minlength=nh)
        if not atom:  # a site visit has set alive and the weight already
            if analog:
                alive = xi >= 1.0 - c
            else:
                lanes[1] = w = lanes[1] * c
                # roulette below the cutoff (a loser's weight is boosted too, then dropped)
                need = w < WEIGHT_CUTOFF
                alive = ~need | (xi < ROULETTE_SURVIVAL)
                np.divide(w, ROULETTE_SURVIVAL, out=w, where=need)
        survivors = live[held]
        if not alive.all():
            idx = np.flatnonzero(alive)
            batch, *lanes = (a[idx] for a in (batch, *lanes))
            survivors = np.bincount(batch, minlength=nh)
        if analog:
            out["absorbed_weight"][held] += live[held] - survivors
        live[held] = survivors
        if step - admitted[lo] >= max_visits:
            # admission order makes the batches at the cap the oldest ones, and
            # their histories the first lanes
            done = slice(lo, lo + np.searchsorted(admitted[held], step - max_visits, "right"))
            out["capped"][done] += live[done]
            cut = int(live[done].sum())
            live[done] = 0
            batch, *lanes = (a[cut:] for a in (batch, *lanes))
        gone = lo
        while lo < hi and not live[lo]:
            lo += 1
        if lo > gone:
            batch -= lo - gone
    out["scores"] = out["scores"].reshape(nb, shells)
    # analog scores carry weight 1, so each weight sum is its exact score count
    out["weight"] = out["scores"].astype(float) if analog else out["weight"].reshape(nb, shells)
    return out


def _finalize(edges: np.ndarray, sums: dict) -> TallyResult:
    """Reduce the per-batch sums of a run to its TallyResult.

    The density is weight / (histories * shell volume); its standard error
    is the spread of the per-batch densities, and the same holds for the
    collisions per history (ProblemConfig guarantees at least 10 batches,
    each with at least one history).
    """
    histories = sums["histories"]
    root_b = math.sqrt(histories.size)
    v = 4.0 * math.pi / 3.0 * np.diff(edges**3)
    n_total = int(histories.sum())
    per_batch = sums["weight"] / (histories[:, None] * v)
    cph_batch = sums["collisions"] / histories
    total_coll = int(sums["collisions"].sum())
    return TallyResult(
        r_edges=edges,
        f_mean=sums["weight"].sum(axis=0) / (n_total * v),
        f_stderr=per_batch.std(axis=0, ddof=1) / root_b,
        n_scores=sums["scores"].sum(axis=0),
        histories=n_total,
        collisions_per_history=total_coll / n_total,
        collisions_per_history_se=float(cph_batch.std(ddof=1) / root_b),
        zero_length_fraction=(sums["zero_length"].sum() / total_coll) if total_coll else 0.0,
        absorbed_weight_per_history=float(sums["absorbed_weight"].sum()) / n_total,
        faults=int(sums["faults"].sum()),
        capped=int(sums["capped"].sum()),
    )


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
    """Worker processes from NONCLASSICAL_MC_WORKERS, else all CPUs this
    process may run on (its affinity mask where the platform has one, so a
    taskset or cpuset limit counts).

    Raises ValueError when the variable is set to anything but a positive
    integer.
    """
    raw = os.environ.get(WORKERS_ENV)
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        count = 0  # reported below, like any other non-positive value
    if count < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return count


def _run_shares(tasks: list) -> list[dict]:
    """_transport_group's result for each task, in task order.

    Builds the RNG reader first (the import of numpy.random), then forks one
    child per task where forking is safe: more than one task, os.fork
    available, not macOS, and no other Python thread alive. Each child runs
    its task, pickles the result dict, or the exception it raised, to its own
    pipe and leaves with os._exit; the parent, which runs no task itself,
    reads the pipes in task order, reaps each child, and raises a child's
    exception, or RuntimeError for a child that ended without a result. On
    any way out, children not yet reaped are killed and reaped. Elsewhere the
    tasks run one after another in this process, with the same results.
    """
    reader()
    if (len(tasks) == 1 or not hasattr(os, "fork") or sys.platform == "darwin"
            or threading.active_count() > 1):
        return [_transport_group(*task) for task in tasks]
    results = []
    children = []  # (pid, read end of its pipe) of each child not yet reaped, in task order
    try:
        for task in tasks:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if not pid:
                code = 1
                try:
                    try:
                        outcome = _transport_group(*task)
                    except BaseException as exc:  # noqa: BLE001 - the parent raises it
                        outcome = exc
                    with open(write_fd, "wb") as sink:
                        pickle.dump(outcome, sink, pickle.HIGHEST_PROTOCOL)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        while children:
            pid, source = children[0]
            with source:
                data = source.read()
            status = os.waitpid(pid, 0)[1]
            children.pop(0)
            if status or not data:
                raise RuntimeError(f"transport worker {len(results)} (pid {pid}) sent no "
                                   f"result: wait status {status}")
            outcome = pickle.loads(data)  # written by our own child
            if isinstance(outcome, BaseException):
                raise outcome
            results.append(outcome)
    finally:
        for pid, source in children:
            source.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def simulate(config: ProblemConfig) -> TallyResult:
    """Run the configured number of histories in batches; fully reproducible.

    The output is a pure function of the configuration: a batch's variates
    depend only on the seed and its own histories, and per-batch results do
    not depend on how the batches are grouped (module docstring), so 1, 2,
    or 8 workers produce bitwise identical tallies.
    """
    model = make_model(config.kind, config.xs)
    edges = np.linspace(0.0, config.r_max, config.shells + 1)
    slices = batch_slices(config.histories, config.batches)
    workers = min(config.batches, configured_workers())
    tasks = [
        (model, config.seed, slices[first][0],
         [size for _, size in slices[first:first + count]], config.r_max, config.shells,
         config.capture, MAX_COLLISIONS)
        for first, count in batch_slices(config.batches, workers)
    ]
    results = _run_shares(tasks)
    sums = {name: np.concatenate([res[name] for res in results]) for name in results[0]}
    return _finalize(edges, sums)
