"""Monte Carlo engine: history semantics, tallies, balance, determinism."""

import json
import math
import os
import platform
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from nonclassical_mc import CrossSectionSpec, ModelKind, ProblemConfig, make_model, simulate
from nonclassical_mc import engine
from nonclassical_mc.engine import (
    MAX_COLLISIONS,
    ROULETTE_SURVIVAL,
    WEIGHT_CUTOFF,
    WORKERS_ENV,
    _transport_group,
    batch_slices,
)
from emulation import counter_uniforms

ALL_KINDS = list(ModelKind)
GRID = (10.0, 64)  # r_max, shells


def small_config(**overrides):
    params = dict(kind="diffusion", sigma_t=1.0, sigma_s=0.5, histories=20_000,
                  batches=20, seed=7)
    params.update(overrides)
    return ProblemConfig(**params)


def _elementwise(f, *args):
    """f with its last argument in a one-element array, the others scalars,
    as the kernel broadcasts them, so the ufunc takes the kernel's array
    path, not numpy's scalar one."""
    return float(f(*args[:-1], np.array([args[-1]]))[0])


class ScalarHistory:
    """One history, transported site visit by site visit from the doubles it is given.

    A counter's double 0 gives the flight's cosine to the radius vector,
    double 1 the flight variate and double 2 the capture or roulette test;
    under a law with an atom, double 2 gives the visit's collisions and how
    it ends (engine._site_visits), and every flight but the first comes
    from the law's continuous part. The radius and the visit follow the
    kernel's recurrences in the kernel's order of operations, so the two
    agree bit for bit. The flight length comes from engine.sample_path,
    looked up at call time, so a sampler a test patches in applies to both
    paths. Records the radius, collisions and summed weight of every site
    visit, the flight lengths, the collision and zero-length flight counts,
    the absorbed weight and how the history ended (end: None while live,
    then "done", "fault" or "capped").
    """

    def __init__(self, model, capture, max_visits):
        self.model, self.capture, self.max_visits = model, capture, max_visits
        self.r = 0.0
        self.weight, self.absorbed = 1.0, 0.0
        self.sites, self.flights = [], []  # sites: (radius, collisions, weight scored)
        self.collisions = self.zero_length = 0
        self.end = None

    def visit(self, u):
        model = self.model
        atom = model.atom_at_zero
        law = model.continuous_part if atom and self.flights else model
        s = float(engine.sample_path(law, u[1]))
        along = self.r + s * (2.0 * u[0] - 1.0)
        radius = math.sqrt(along * along + s * s * (4.0 * u[0] * (1.0 - u[0])))
        if not math.isfinite(radius):
            self.end = "fault"
            return
        self.r = radius
        self.zero_length += s == 0.0 and (not atom or not self.flights)
        self.flights.append(s)
        k, alive, score, leave = self.site(u[2]) if atom else self.collision(u[2])
        self.sites.append((radius, k, score))
        self.collisions += k
        self.zero_length += k - 1
        if self.capture == "implicit":
            self.absorbed += score * (1.0 - model.xs.c)
            self.weight = leave
        elif not alive:
            self.absorbed += 1.0
        if not alive:
            self.end = "done"
        elif len(self.flights) >= self.max_visits:
            self.end = "capped"

    def collision(self, xi):
        """A collision of an atomless law: (1, alive, weight scored, weight left)."""
        c, w = self.model.xs.c, self.weight
        if self.capture == "analog":
            return 1, xi >= 1.0 - c, 1.0, 1.0
        leave = w * c
        if leave < WEIGHT_CUTOFF:
            return 1, xi < ROULETTE_SURVIVAL, w, leave / ROULETTE_SURVIVAL
        return 1, True, w, leave

    def site(self, xi):
        """A site visit of a law with an atom: (collisions, alive, weight
        scored, weight left), the kernel's arithmetic on one lane."""
        c, atom, w = self.model.xs.c, self.model.atom_at_zero, self.weight
        analog = self.capture == "analog"
        log_q = math.log(max(c * atom if analog else atom, sys.float_info.min))
        log_c = math.log(c) if c else -math.inf
        log_left = _elementwise(np.log1p, -xi)
        extra = float(math.floor(log_left / log_q))
        k = extra + 1.0
        if analog:
            return int(k), log_left - extra * log_q <= log_c, k, 1.0
        leave = w * _elementwise(np.power, c, k)
        if leave >= WEIGHT_CUTOFF:
            return int(k), True, (w - leave) / (1.0 - c), leave
        v = -_elementwise(np.expm1, log_left - extra * log_q) / (1.0 - atom)
        v = min(max(v, 0.0), 1.0 - 2.0**-53)
        lives = math.floor(_elementwise(np.log1p, -v) / math.log(ROULETTE_SURVIVAL))
        done = score = 0.0
        while True:
            j = 1.0
            if w * c >= WEIGHT_CUTOFF:
                j += math.floor(_elementwise(np.log, WEIGHT_CUTOFF / w) / log_c)
            j = min(j, k - done)
            end = w * _elementwise(np.power, c, j)
            score += (w - end) / (1.0 - c)
            done += j
            if end < WEIGHT_CUTOFF:
                if lives == 0:
                    return int(done), False, score, end
                lives -= 1
                end /= ROULETTE_SURVIVAL
            w = end
            if done == k:
                return int(done), True, score, w


def walk_3d(model, rng, n, collisions):
    """Radii of n histories after collisions 1 .. collisions of a 3-D walk
    in x, y, z from the origin, the reference for the radial chain's law:
    the direction's cosine from u0, its azimuth from u1, the flight from u2."""
    x, y, z = np.zeros(n), np.zeros(n), np.zeros(n)
    radii = []
    for _ in range(collisions):
        u = rng.random((3, n))
        s = engine.sample_path(model, u[2])
        mu = 2.0 * u[0] - 1.0
        phi = 2.0 * math.pi * u[1]
        sin_theta = np.sqrt(np.maximum(1.0 - mu * mu, 0.0))
        x += s * (sin_theta * np.cos(phi))
        y += s * (sin_theta * np.sin(phi))
        z += s * mu
        radii.append(np.sqrt(x * x + y * y + z * z))
    return radii


def walk_radial(model, rng, n, collisions):
    """Radii of n histories after collisions 1 .. collisions of the kernel's
    radial chain from the origin, the cosine from u0 and the flight from u1."""
    r = np.zeros(n)
    radii = []
    for _ in range(collisions):
        u = rng.random((2, n))
        r = engine._radius_after(r, engine.sample_path(model, u[1]), u[0])
        radii.append(r)
    return radii


def exact_radius(r, s, u0):
    """The recurrence's radius for the float inputs, in exact rationals,
    rounded to the nearest float (the integer square root carries 200 bits
    below the float's last one)."""
    r, s, u0 = (Fraction(v) for v in (r, s, u0))
    square = (r + s * (2 * u0 - 1)) ** 2 + s * s * 4 * u0 * (1 - u0)
    scale = 2**200
    root = math.isqrt(square.numerator * square.denominator * scale * scale)
    return float(Fraction(root, square.denominator * scale))


def run_history(model, seed, h, capture="analog", max_visits=MAX_COLLISIONS):
    """Scalar oracle for a one-history batch: site visit j of history h reads
    counter h of key (seed, j). Returns the finished ScalarHistory."""
    history = ScalarHistory(model, capture, max_visits)
    while history.end is None:
        history.visit(counter_uniforms(seed, len(history.flights), h))
    return history


def history_loop(model, seed, start_id, sizes, r_max, shells, capture, max_visits):
    """The per-batch sums _transport_group returns, replayed one history at a time.

    Step-major: at step j, the r-th live history of the batch starting at
    history s (counting in history order) reads counter s + r of key (seed, j).
    """
    nb = len(sizes)
    edges = np.linspace(0.0, r_max, shells + 1)
    starts = [start_id + sum(sizes[:b]) for b in range(nb)]
    batches = [[ScalarHistory(model, capture, max_visits) for _ in range(size)]
               for size in sizes]
    step = 0
    while any(h.end is None for batch in batches for h in batch):
        for first, batch in zip(starts, batches):
            for r, history in enumerate([h for h in batch if h.end is None]):
                history.visit(counter_uniforms(seed, step, first + r))
        step += 1
    out = {name: np.zeros(nb, dtype=np.int64) for name in (
        "histories", "collisions", "zero_length", "faults", "capped")}
    out.update(weight=np.zeros((nb, shells)), scores=np.zeros((nb, shells), dtype=np.int64),
               absorbed_weight=np.zeros(nb))
    for b, batch in enumerate(batches):
        for history in batch:
            for radius, k, score in history.sites:
                shell = int(np.searchsorted(edges, radius, side="right")) - 1
                if shell < shells:
                    out["weight"][b, shell] += k if capture == "analog" else score
                    out["scores"][b, shell] += k
            out["histories"][b] += 1
            out["collisions"][b] += history.collisions
            out["zero_length"][b] += history.zero_length
            out["absorbed_weight"][b] += history.absorbed
            out["faults"][b] += history.end == "fault"
            out["capped"][b] += history.end == "capped"
    return out


class TestProblemConfig:
    def test_defaults(self):
        config = ProblemConfig(kind="classical", sigma_t=2.0)
        assert config.r_max == pytest.approx(5.0)
        assert config.kind is ModelKind.CLASSICAL

    @pytest.mark.parametrize("overrides", [
        dict(sigma_s=1.0),                      # c = 1
        dict(histories=5, batches=10),          # histories < batches
        dict(batches=5),                        # batches < 10
        dict(r_max=1.0),                        # under 5 mean free paths
        dict(shells=0),
        dict(capture="weighted"),
        dict(histories=20_000.5),               # counts must be integral
        dict(r_max=math.nan),
        dict(r_max=math.inf),
        dict(sigma_t=math.inf),                 # medium must be finite
    ])
    def test_rejections(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_integral_counts_become_int(self):
        # JSON config files carry 1e4 as a float
        config = small_config(histories=2e4, batches=20.0, shells=16.0, seed=7.0)
        for name, value in (("histories", 20_000), ("batches", 20), ("shells", 16), ("seed", 7)):
            assert type(getattr(config, name)) is int
            assert getattr(config, name) == value


class TestTransportGroup:
    def test_binning(self, monkeypatch):
        # flights along +z from the origin, all absorbed at c = 0: r = 0 lands
        # in the innermost shell, a boundary belongs to the outer shell, and
        # the outer edge and beyond score nothing
        flights = np.array([0.0, 1.0, 1.999, 2.0, 5.0])
        monkeypatch.setattr(engine, "uniforms_at", lambda seed, step, firsts, counts:
                            np.repeat([[1.0], [0.0], [0.0]], sum(counts), axis=1))
        monkeypatch.setattr(engine, "sample_path", lambda model, xi: flights)
        model = make_model("classical", CrossSectionSpec(1.0, 0.0))
        out = _transport_group(model, 0, 0, [flights.size], 2.0, 2, "analog", MAX_COLLISIONS)
        np.testing.assert_array_equal(out["scores"][0], [1, 2])

    @pytest.mark.parametrize("r_max", [10.0, ProblemConfig("classical", sigma_t=3.0).r_max,
                                       0.7, 1e3 * math.pi])
    @pytest.mark.parametrize("shells", [1, 7, 64, 1000])
    def test_shell_index_is_searchsorted(self, r_max, shells, monkeypatch):
        # one history per batch flies along +z from the origin and is absorbed
        # at c = 0, so each batch's scores are one-hot at the kernel's shell
        # index: 0, every edge and both its neighbours, and beyond the grid.
        # At r_max = 10/3 and 7 shells, r_max's lower neighbour estimates shell 7
        edges = np.linspace(0.0, r_max, shells + 1)
        flights = np.concatenate([edges, np.nextafter(edges, -np.inf),
                                  np.nextafter(edges, np.inf), [2.0 * r_max, 1e150]])
        flights = np.unique(flights[flights >= 0.0])
        radius = np.sqrt(flights * flights)  # the kernel's radius on the z axis
        expected = np.searchsorted(edges, radius, side="right") - 1
        model = make_model("classical", CrossSectionSpec(1.0, 0.0))
        monkeypatch.setattr(engine, "uniforms_at", lambda seed, step, firsts, counts:
                            np.repeat([[1.0], [0.0], [0.0]], sum(counts), axis=1))
        for lo in range(0, flights.size, 256):
            chunk = slice(lo, lo + 256)
            monkeypatch.setattr(engine, "sample_path", lambda model, xi: flights[chunk])
            out = _transport_group(model, 0, 0, [1] * flights[chunk].size, r_max, shells,
                                   "analog", MAX_COLLISIONS)
            scores = np.zeros_like(out["scores"])
            on_grid = expected[chunk] < shells
            scores[np.flatnonzero(on_grid), expected[chunk][on_grid]] = 1
            np.testing.assert_array_equal(out["scores"], scores)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_analog_tallies_are_counts(self, kind, monkeypatch):
        # every analog weight is 1: each weight sum is its score count, and
        # every history that neither faulted nor was capped was absorbed
        TestStreamLayout.count_reads(monkeypatch)
        model = make_model(kind, CrossSectionSpec(1.0, 0.9))
        out = _transport_group(model, 3, 40, [300, 250, 320], *GRID, "analog", 12)
        assert (out["faults"] > 0).all()
        assert (out["capped"] > 0).all()
        assert out["weight"].dtype == np.float64
        np.testing.assert_array_equal(out["weight"], out["scores"])
        np.testing.assert_array_equal(out["absorbed_weight"],
                                      out["histories"] - out["faults"] - out["capped"])

    def test_nonfinite_position_is_a_counted_fault(self, monkeypatch):
        monkeypatch.setattr(engine, "sample_path", lambda model, xi: np.full(xi.shape, np.inf))
        model = make_model("diffusion", CrossSectionSpec(1.0, 0.5))
        out = _transport_group(model, 3, 0, [200], *GRID, "analog", MAX_COLLISIONS)
        assert out["faults"][0] == 200
        assert out["collisions"][0] == 0

    def test_collision_cap_is_counted(self):
        model = make_model("classical", CrossSectionSpec(1.0, 0.999999))
        out = _transport_group(model, 4, 0, [200], *GRID, "analog", 5)
        assert out["collisions"][0] == 5 * 200
        assert out["capped"][0] == 200

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="pins glibc malloc's dynamic mmap threshold")
    def test_repeat_group_reuses_heap_memory(self, subprocess_env):
        # a fresh process, so nothing else has moved malloc's thresholds: the
        # second identical group finds its per-step arrays on the heap and
        # faults fewer pages than it takes steps (not one mmap per array)
        script = """
import json, resource, sys
import numpy as np
from nonclassical_mc import CrossSectionSpec, engine, make_model
steps = 0
def counted(*args, _uniforms=engine.uniforms_at):
    global steps
    steps += 1
    return _uniforms(*args)
engine.uniforms_at = counted
model = make_model("sp3", CrossSectionSpec(1.0, 0.5))
task = (model, 1, 0, [10_000] * 10, 10.0, 64, "analog", engine.MAX_COLLISIONS)
engine._transport_group(*task)
steps = 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
engine._transport_group(*task)
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, steps]))
"""
        done = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        faults, steps = json.loads(done.stdout)
        assert steps > 10
        assert faults < steps


class TestRunHistory:
    def test_sp2_zero_length_scores_at_same_radius(self):
        # a site visit's k collisions share its exact float radius, and
        # consecutive sites share it iff the flight between them had length
        # zero, which only a newborn's flight from the full law can have; the
        # fraction of zero-length flights over all collisions is the 4/9 atom
        model = make_model("sp2", CrossSectionSpec(1.0, 0.9))
        repeats = 0
        near_misses = 0
        pairs = 0
        zero_flights = 0
        for h in range(1500):
            history = run_history(model, 5, h)
            radii = [r for r, k, _ in history.sites for _ in range(k)]
            gaps = np.abs(np.diff([0.0] + radii))  # born at the origin
            pairs += gaps.size
            repeats += int(np.sum(gaps == 0.0))
            near_misses += int(np.sum((gaps > 0.0) & (gaps < 1e-13)))
            zero_flights += history.zero_length
            assert history.zero_length == history.collisions - len(history.sites) + (
                history.flights[0] == 0.0)
        assert near_misses == 0          # zero-length flights never drift
        assert repeats == zero_flights   # radius repeats exactly when s == 0
        p = repeats / pairs
        se = math.sqrt(p * (1.0 - p) / pairs)
        assert abs(p - 4.0 / 9.0) <= 4.0 * se


def unfolded_walk(model, capture, rng, sizes, r_max, shells):
    """The per-collision walk the site visits fold, as per-batch sums.

    Every flight comes from the full law, atom included, and every
    collision is scored, then absorbed (analog capture) or weighted by c and
    rouletted below WEIGHT_CUTOFF (implicit capture): the kernel before the
    fold, one lockstep step per collision, with variates from rng.
    """
    c, analog, nb = model.xs.c, capture == "analog", len(sizes)
    edges = np.linspace(0.0, r_max, shells + 1)
    batch = np.repeat(np.arange(nb), sizes)
    r, w = np.zeros(batch.size), np.ones(batch.size)
    out = {"collisions": np.zeros(nb), "zero_length": np.zeros(nb),
           "absorbed_weight": np.zeros(nb), "weight": np.zeros((nb, shells))}
    while batch.size:
        u = rng.random((3, batch.size))
        s = engine.sample_path(model, u[1])
        r = engine._radius_after(r, s, u[0])
        out["collisions"] += np.bincount(batch, minlength=nb)
        out["zero_length"] += np.bincount(batch[s == 0.0], minlength=nb)
        shell = np.searchsorted(edges, r, side="right") - 1
        on = shell < shells
        np.add.at(out["weight"], (batch[on], shell[on]), w[on])
        if analog:
            alive = u[2] >= 1.0 - c
            out["absorbed_weight"] += np.bincount(batch[~alive], minlength=nb)
        else:
            out["absorbed_weight"] += np.bincount(batch, w * (1.0 - c), minlength=nb)
            w = w * c
            need = w < WEIGHT_CUTOFF
            alive = ~need | (u[2] < ROULETTE_SURVIVAL)
            w = np.where(need, w / ROULETTE_SURVIVAL, w)
        batch, r, w = batch[alive], r[alive], w[alive]
    return out


def in_law_z(folded, unfolded, sizes):
    """Two-sample z-scores, from the spread of the per-batch values, of the
    collisions per history, the zero-length fraction, the absorbed weight per
    history and each shell's weight per history (shells every batch of both
    runs scored in)."""
    histories = np.asarray(sizes, dtype=float)
    values = {}
    for name, run in (("folded", folded), ("unfolded", unfolded)):
        values[name] = {
            "collisions": run["collisions"] / histories,
            "zero_length": run["zero_length"] / run["collisions"],
            "absorbed": run["absorbed_weight"] / histories,
            "shells": run["weight"] / histories[:, None],
        }
    eligible = (folded["weight"] > 0.0).all(axis=0) & (unfolded["weight"] > 0.0).all(axis=0)
    z = {}
    for key in values["folded"]:
        a, b = values["folded"][key], values["unfolded"][key]
        if key == "shells":
            a, b = a[:, eligible], b[:, eligible]
        diff = a.mean(axis=0) - b.mean(axis=0)
        se = np.hypot(a.std(axis=0, ddof=1), b.std(axis=0, ddof=1)) / math.sqrt(len(sizes))
        z[key] = np.abs(np.divide(diff, se, out=np.zeros_like(diff), where=diff != 0.0))
    assert eligible.sum() >= 8
    return {key: float(np.max(value)) for key, value in z.items()}


class TestSiteVisitsInLaw:
    """The folded kernel against the per-collision walk, within statistics:
    collisions per history, zero-length fraction, absorbed weight and shell
    tallies of sp2. c <= 0.1 under implicit capture puts several roulettes
    inside one site."""

    BOUND = 4.5
    HISTORIES = {0.0: 40_000, 0.1: 40_000, 0.9: 20_000, 0.99: 4_000}

    def z_scores(self, c, capture, seed=1):
        model = make_model("sp2", CrossSectionSpec(1.0, c))
        sizes = [self.HISTORIES[c] // 40] * 40
        folded = _transport_group(model, seed, 0, sizes, 10.0, 16, capture, MAX_COLLISIONS)
        assert folded["faults"].sum() == folded["capped"].sum() == 0
        unfolded = unfolded_walk(model, capture, np.random.default_rng(seed), sizes, 10.0, 16)
        return in_law_z(folded, unfolded, sizes)

    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    @pytest.mark.parametrize("c", [0.0, 0.1, 0.9, 0.99])
    def test_folded_kernel_has_the_walks_law(self, c, capture):
        z = self.z_scores(c, capture)
        assert max(z.values()) <= self.BOUND, z

    @pytest.mark.parametrize("c", [0.1, 0.9])
    def test_counting_the_drawn_collisions_is_caught(self, c, monkeypatch):
        # a history that dies at a roulette inside a site made fewer
        # collisions than the site drew; a kernel that counts the drawn ones
        # reads too many collisions and zero-length flights
        real = engine._roulettes

        def drawn(w, left, v, c, log_c):
            k = left.copy()
            return (k, *real(w, left, v, c, log_c)[1:])

        monkeypatch.setattr(engine, "_roulettes", drawn)
        z = self.z_scores(c, "implicit")
        assert max(z["collisions"], z["zero_length"]) > 2.0 * self.BOUND, z


def _recorded(names, name, func):
    """func, appending name to names at each call."""
    def call(*args, **kwargs):
        names.append(name)
        return func(*args, **kwargs)
    return call


class NumpyCalls:
    """Stands in for the engine's numpy module and records the name of each
    function or ufunc method called through it, in order."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if isinstance(attr, np.ufunc):
            return self.Ufunc(attr, self.names)
        if callable(attr) and not isinstance(attr, type):
            return _recorded(self.names, name, attr)
        return attr

    class Ufunc:
        def __init__(self, ufunc, names):
            self.ufunc, self.names = ufunc, names

        def __call__(self, *args, **kwargs):
            self.names.append(self.ufunc.__name__)
            return self.ufunc(*args, **kwargs)

        def __getattr__(self, method):
            return _recorded(self.names, f"{self.ufunc.__name__}.{method}",
                             getattr(self.ufunc, method))


# the numpy calls of one lockstep step of an atomless law, as before the fold:
# the radius, the fault check (and count), the zero-length count, the shell
# picks, the score count, then the capture or roulette and the compaction,
# and the cap
ATOMLESS_STEP = {
    "analog": r"sqrt isfinite( bincount)? flatnonzero bincount( flatnonzero)? bincount"
              r"( flatnonzero bincount)?( searchsorted)?",
    "implicit": r"sqrt isfinite( bincount)? flatnonzero bincount( flatnonzero)? bincount"
                r" add\.at bincount divide( flatnonzero bincount)?( searchsorted)?",
}


class TestAtomlessLawsKeepTheirStep:
    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    @pytest.mark.parametrize("kind", ["classical", "diffusion", "sp3", "sp2"])
    def test_numpy_calls_per_step(self, kind, capture, monkeypatch):
        # an atomless law's step samples its own law once and makes today's
        # numpy calls, with no site arithmetic (no log1p of u[2]); sp2's
        # steps, the check that the probe sees the fold, make it
        calls = NumpyCalls()
        marks, laws = [], []
        real_uniforms, real_sample = engine.uniforms_at, engine.sample_path

        def marked(*args):
            marks.append(len(calls.names))
            return real_uniforms(*args)

        def sampled(law, xi):
            laws.append(law)
            return np.where(xi > 0.995, np.inf, real_sample(law, xi))  # some faults

        monkeypatch.setattr(engine, "uniforms_at", marked)
        monkeypatch.setattr(engine, "sample_path", sampled)
        monkeypatch.setattr(engine, "np", calls)
        model = make_model(kind, CrossSectionSpec(1.0, 0.9))
        out = _transport_group(model, 1, 0, [300] * 5, 10.0, 16, capture, 40)
        assert out["faults"].sum() > 0 and out["capped"].sum() > 0
        bounds = marks + [len(calls.names)]
        steps = [" ".join(calls.names[a:b]) for a, b in zip(bounds, bounds[1:])]
        if model.atom_at_zero:
            assert all("log1p" in step for step in steps)
            return
        assert len(laws) == len(steps)
        assert all(law is model for law in laws)
        for step in steps:
            assert re.fullmatch(ATOMLESS_STEP[capture], step), step


class TestRadialChain:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_radius_has_the_3d_walks_law(self, kind):
        # after each of the first four collisions, the radial chain's radii
        # and the 3-D walk's radii, 20,000 a side from independent streams,
        # pass a two-sample Kolmogorov-Smirnov test at p > 0.001
        model = make_model(kind, CrossSectionSpec(1.0, 0.9))
        radial = walk_radial(model, np.random.default_rng(11), 20_000, 4)
        walk = walk_3d(model, np.random.default_rng(12), 20_000, 4)
        for collision, (a, b) in enumerate(zip(radial, walk), start=1):
            assert stats.ks_2samp(a, b).pvalue > 1e-3, collision

    @pytest.mark.parametrize("s", [0.1, 1.0 / 3.0, math.pi, 7.3])
    @pytest.mark.parametrize("k", [1, 2, 3, 17])
    def test_flight_back_through_the_origin(self, s, k):
        # from r = s, a flight s at mu = 2 u0 - 1 with u0 = k 2^-53 ends
        # 2 s sqrt(u0) from the origin: the kernel's radius is within 2 ulp
        # of the exact one, the naive r^2 + s^2 + 2 r s mu over 1000 ulp off
        u0 = k * 2.0**-53
        exact = exact_radius(s, s, u0)
        got = float(engine._radius_after(np.array([s]), np.array([s]), np.array([u0]))[0])
        assert abs(got - exact) <= 2 * math.ulp(exact)
        mu = 2.0 * u0 - 1.0
        naive = math.sqrt(max(s * s + s * s + 2.0 * s * s * mu, 0.0))
        assert abs(naive - exact) > 1000 * math.ulp(exact)

    def test_zero_length_flight_keeps_the_radius(self):
        # sqrt(r r) = r in binary floating point while r r neither underflows
        # nor overflows, for every cosine
        rng = np.random.default_rng(13)
        r = np.concatenate([[0.0, 1e-150, 1.0, 1e150], rng.exponential(3.0, 10_000)])
        u0 = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53, 2.0**-53], rng.random(10_000)])
        np.testing.assert_array_equal(engine._radius_after(r, np.zeros_like(r), u0), r)


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_batch_kernel_reproduces_run_history(self, kind, capture, monkeypatch):
        # three uneven batches from history 40, each with faulted flights and
        # capped histories; implicit capture reaches its roulette at collision
        # 7. At c = 0.5 every weight is dyadic (the boost 2^-7 / 0.1 rounds to
        # 5 * 2^-6), so the weight sums are exact in any order
        self.check_against_history_loop(kind, capture, monkeypatch)

    @pytest.mark.parametrize("lanes", [400, 1])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_staggered_batches_reproduce_run_history(self, kind, capture, lanes, monkeypatch):
        # under 400 lanes the later batches join mid-run, under 1 lane each
        # joins when the one before has ended; the oracle runs them all from
        # step 0
        monkeypatch.setattr(engine, "LANES", lanes)
        self.check_against_history_loop(kind, capture, monkeypatch)

    @staticmethod
    def check_against_history_loop(kind, capture, monkeypatch):
        TestStreamLayout.count_reads(monkeypatch)
        model = make_model(kind, CrossSectionSpec(1.0, 0.5))
        cap = {"analog": 4, "implicit": 8}[capture]
        args = (model, 9, 40, [300, 250, 320], *GRID, capture, cap)
        group = _transport_group(*args)
        oracle = history_loop(*args)
        assert (group["faults"] > 0).all()
        assert (group["capped"] > 0).all()
        assert group.keys() == oracle.keys()
        for name in group:
            if name == "absorbed_weight" and capture == "implicit":
                np.testing.assert_allclose(group[name], oracle[name], rtol=1e-12)
            else:
                np.testing.assert_array_equal(group[name], oracle[name])

    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_one_history_batch_is_run_history(self, capture):
        # a batch of one history reads (seed, j; h) at every step j
        model = make_model("sp2", CrossSectionSpec(1.0, 0.9))
        out = _transport_group(model, 9, 40, [1] * 60, *GRID, capture, MAX_COLLISIONS)
        for b in range(60):
            history = run_history(model, 9, 40 + b, capture)
            assert out["collisions"][b] == history.collisions
            assert out["zero_length"][b] == history.zero_length
            assert out["absorbed_weight"][b] == pytest.approx(history.absorbed, rel=1e-12)
            assert out["scores"][b].sum() == sum(k for r, k, _ in history.sites if r < GRID[0])

    def test_simulate_equals_manual_history_loop(self):
        config = small_config(histories=500, batches=10)
        result = simulate(config)
        edges = np.linspace(0.0, config.r_max, config.shells + 1)
        sizes = [size for _, size in batch_slices(config.histories, config.batches)]
        sums = history_loop(make_model(config.kind, config.xs), config.seed, 0, sizes,
                            config.r_max, config.shells, config.capture, MAX_COLLISIONS)
        manual = engine._finalize(edges, sums)
        np.testing.assert_array_equal(result.f_mean, manual.f_mean)
        np.testing.assert_array_equal(result.f_stderr, manual.f_stderr)
        np.testing.assert_array_equal(result.n_scores, manual.n_scores)
        assert result.collisions_per_history == manual.collisions_per_history


class TestStreamLayout:
    @staticmethod
    def count_reads(monkeypatch):
        """Record uniforms_at calls, the (key, first, count) of each run they
        read, the (key, counter) pairs and the sizes of the sample_path calls
        after each; fault the flights with xi > 0.995."""
        real_uniforms, real_sample = engine.uniforms_at, engine.sample_path
        counts = {"calls": 0, "runs": [], "counters": [], "sampled": []}

        def counting_uniforms(seed, step, firsts, lengths):
            out = real_uniforms(seed, step, firsts, lengths)
            runs = [(int(key), int(first), int(n))
                    for key, first, n in zip(np.broadcast_to(step, len(lengths)), firsts, lengths)]
            counts["calls"] += 1
            counts["runs"].append(runs)
            counts["sampled"].append([])
            counts["counters"] += [(key, first + r) for key, first, n in runs for r in range(n)]
            assert out.shape == (3, sum(lengths))
            return out

        def faulting_sample(model, xi):
            counts["sampled"][-1].append(np.size(xi))
            return np.where(xi > 0.995, np.inf, real_sample(model, xi))

        monkeypatch.setattr(engine, "uniforms_at", counting_uniforms)
        monkeypatch.setattr(engine, "sample_path", faulting_sample)
        return counts

    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_one_counter_per_collision(self, capture, monkeypatch):
        # one uniforms_at call per lockstep step; the k-th step a batch takes
        # part in reads key k; every flight reads one counter's three doubles,
        # a faulted flight included, and no (key, counter) is read twice. A
        # step of sp3 is one collision, a step of sp2 one site visit
        for kind in ("sp3", "sp2"):
            assert self.steps_joined(kind, capture, monkeypatch) == [0, 0, 0]

    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_one_counter_per_collision_staggered(self, capture, monkeypatch):
        # under 1000 lanes no two of the batches start together
        monkeypatch.setattr(engine, "LANES", 1000)
        for kind in ("sp3", "sp2"):
            joined = self.steps_joined(kind, capture, monkeypatch)
            assert 0 == joined[0] < joined[1] < joined[2]

    def steps_joined(self, kind, capture, monkeypatch):
        """Transport three batches, check their counters and keys, and return
        the step each batch first took part in."""
        counts = self.count_reads(monkeypatch)
        model = make_model(kind, CrossSectionSpec(1.0, 0.9))
        out = _transport_group(model, 3, 40, [700, 650, 650], *GRID, capture, 20)
        assert (out["faults"] > 0).all()
        assert (out["capped"] > 0).all()
        read = counts["counters"]
        assert len(set(read)) == len(read) == sum(map(sum, counts["sampled"]))
        visits = len(read) - out["faults"].sum()
        if model.atom_at_zero:  # a visit makes one collision or more
            assert out["collisions"].sum() > visits
        else:
            assert out["collisions"].sum() == visits
        taken = {}  # the (step, key) of each call a batch has counters in, by first counter
        for step, (runs, sampled) in enumerate(zip(counts["runs"], counts["sampled"])):
            assert sum(sampled) == sum(n for _, _, n in runs)
            # a step of a law with an atom samples its newborn lanes apart
            newborn = sum(n for key, _, n in runs if key == 0 and n)
            assert len(sampled) == 1 + bool(model.atom_at_zero and newborn
                                            and newborn < sum(sampled))
            for key, first, n in runs:
                if n:
                    taken.setdefault(first, []).append((step, key))
        assert sorted(taken) == [40, 740, 1390]
        for first in taken:
            assert [key for _, key in taken[first]] == list(range(len(taken[first])))
        return [taken[first][0][0] for first in sorted(taken)]

    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_group_equals_separate_batches(self, capture, monkeypatch):
        # a batch's tallies do not depend on the batches it shares a lockstep with
        self.check_group_against_alone(capture, monkeypatch)

    @pytest.mark.parametrize("lanes", [400, 1])
    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_staggered_group_equals_separate_batches(self, capture, lanes, monkeypatch):
        # nor on the step it joins the lockstep at
        monkeypatch.setattr(engine, "LANES", lanes)
        self.check_group_against_alone(capture, monkeypatch)

    def check_group_against_alone(self, capture, monkeypatch):
        self.count_reads(monkeypatch)
        model = make_model("sp2", CrossSectionSpec(1.0, 0.9))
        sizes = [300, 250, 320]
        group = _transport_group(model, 3, 40, sizes, *GRID, capture, 12)
        assert (group["faults"] > 0).all()
        assert (group["capped"] > 0).all()
        start = 40
        for b, size in enumerate(sizes):
            alone = _transport_group(model, 3, start, [size], *GRID, capture, 12)
            start += size
            for name in group:
                np.testing.assert_array_equal(group[name][b], alone[name][0])

    def test_batches_share_one_lockstep(self, monkeypatch):
        # on one worker, 20 batches of 50 run in one lockstep: it takes as
        # many steps as the longest of the batches run alone
        in_simulate, alone = self.steps_in_simulate_and_alone(monkeypatch, engine.LANES)
        assert in_simulate == max(alone) < sum(alone)

    def test_batches_refill_the_lockstep(self, monkeypatch):
        # two batches of 50 fit in 100 lanes, and the next batch joins as
        # lanes free up: more steps than the longest batch alone, fewer than
        # fixed pairs of batches one pair after another would take
        in_simulate, alone = self.steps_in_simulate_and_alone(monkeypatch, 100)
        in_fixed_pairs = sum(max(pair) for pair in zip(alone[::2], alone[1::2]))
        assert max(alone) < in_simulate < in_fixed_pairs < sum(alone)

    def steps_in_simulate_and_alone(self, monkeypatch, lanes):
        """uniforms_at calls of a one-worker simulate of 20 batches of 50
        under the width cap lanes, and of each batch run alone."""
        monkeypatch.setenv(WORKERS_ENV, "1")
        monkeypatch.setattr(engine, "LANES", lanes)
        counts = self.count_reads(monkeypatch)
        config = small_config(histories=1000, batches=20)
        simulate(config)
        in_simulate = counts["calls"]
        model = make_model(config.kind, config.xs)
        alone = []
        for start, size in batch_slices(config.histories, config.batches):
            counts["calls"] = 0
            _transport_group(model, config.seed, start, [size], config.r_max, config.shells,
                             config.capture, MAX_COLLISIONS)
            alone.append(counts["calls"])
        return in_simulate, alone


class TestSimulate:
    def test_pure_absorber_is_exact(self):
        result = simulate(small_config(sigma_s=0.0, histories=5_000, batches=10))
        assert result.collisions_per_history == 1.0
        assert result.collisions_per_history_se == 0.0
        assert result.absorbed_weight_per_history == 1.0
        assert result.faults == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pure_absorber_means_one_collision(self, kind):
        result = simulate(small_config(kind=kind, sigma_s=0.0, histories=200, batches=10))
        assert result.collisions_per_history == 1.0
        assert result.collisions_per_history_se == 0.0
        assert result.absorbed_weight_per_history == 1.0
        assert result.faults == 0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("c", [0.0, 0.5, 0.9])
    def test_collision_balance(self, kind, c):
        result = simulate(small_config(kind=kind, sigma_s=c, histories=20_000, seed=31))
        expected = 1.0 / (1.0 - c)
        if c == 0.0:
            assert result.collisions_per_history == expected
        else:
            z = (result.collisions_per_history - expected) / result.collisions_per_history_se
            assert abs(z) <= 4.0

    def test_classical_pure_absorber_matches_first_flight_kernel(self):
        config = small_config(kind="classical", sigma_s=0.0, histories=200_000,
                              batches=100, seed=35)
        result = simulate(config)
        lo, hi = result.r_edges[:-1], result.r_edges[1:]
        shell_avg = (np.exp(-lo) - np.exp(-hi)) / (4.0 * math.pi / 3.0 * (hi**3 - lo**3))
        ok = result.n_scores >= 100
        z = (result.f_mean[ok] - shell_avg[ok]) / result.f_stderr[ok]
        assert np.max(np.abs(z)) <= 4.0

    def test_sp2_zero_length_fraction(self):
        result = simulate(small_config(kind="sp2", histories=50_000, seed=37))
        total = result.collisions_per_history * result.histories
        se = math.sqrt((4.0 / 9.0) * (5.0 / 9.0) / total)
        assert abs(result.zero_length_fraction - 4.0 / 9.0) <= 4.0 * se

    def test_implicit_capture_agrees_with_analog(self):
        analog = simulate(small_config(histories=80_000, batches=40, seed=41))
        implicit = simulate(small_config(histories=80_000, batches=40, seed=43,
                                         capture="implicit"))
        se = np.hypot(analog.f_stderr, implicit.f_stderr)
        ok = (analog.n_scores >= 100) & (implicit.n_scores >= 100)
        z = (analog.f_mean[ok] - implicit.f_mean[ok]) / se[ok]
        assert np.max(np.abs(z)) <= 5.0
        assert implicit.absorbed_weight_per_history == pytest.approx(1.0, abs=0.02)

    def test_parallel_determinism(self, monkeypatch):
        config = small_config(histories=10_000, batches=10, seed=45)
        results = {}
        for workers in ("1", "2", "8"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            results[workers] = simulate(config)
        base = results["1"]
        for workers in ("2", "8"):
            other = results[workers]
            np.testing.assert_array_equal(base.f_mean, other.f_mean)
            np.testing.assert_array_equal(base.f_stderr, other.f_stderr)
            np.testing.assert_array_equal(base.n_scores, other.n_scores)
            assert base.collisions_per_history == other.collisions_per_history

    def test_parallel_determinism_implicit_capture(self, monkeypatch):
        # unequal weights make the order of additions show; 13 batches make
        # uneven groups on 2 and 8 workers
        config = small_config(kind="sp2", sigma_s=0.9, capture="implicit", histories=2_610,
                              batches=13, seed=57)
        results = {}
        for workers in ("1", "2", "8"):
            monkeypatch.setenv(WORKERS_ENV, workers)
            results[workers] = simulate(config)
        base = results["1"]
        for workers in ("2", "8"):
            for name in ("f_mean", "f_stderr", "n_scores", "absorbed_weight_per_history",
                         "zero_length_fraction"):
                np.testing.assert_array_equal(getattr(results[workers], name),
                                              getattr(base, name))

    def test_rerun_is_identical(self):
        config = small_config(histories=5_000, batches=10, seed=47)
        first = simulate(config)
        second = simulate(config)
        np.testing.assert_array_equal(first.f_mean, second.f_mean)
        np.testing.assert_array_equal(first.f_stderr, second.f_stderr)


@pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin",
                    reason="the engine forks its workers only where os.fork is safe")
class TestForkedWorkers:
    """simulate's executor on two workers: a child's exception or death
    reaches the caller, no child outlives simulate on any way out, and a
    process with a second thread runs its shares in process instead."""

    CONFIG = dict(histories=200, batches=10)

    @staticmethod
    def count_forks(monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_worker_exception_reaches_the_caller(self, monkeypatch):
        parent = os.getpid()

        def fail(*task):
            raise ValueError(f"share failed in {os.getpid()}")

        monkeypatch.setenv(WORKERS_ENV, "2")
        monkeypatch.setattr(engine, "_transport_group", fail)
        forks = self.count_forks(monkeypatch)
        with pytest.raises(ValueError, match=r"^share failed in \d+$") as raised:
            simulate(small_config(**self.CONFIG))
        assert int(str(raised.value).split()[-1]) != parent  # raised in a child
        assert len(forks) == 2
        self.assert_no_child_left()

    def test_a_killed_worker_fails_the_run(self, monkeypatch, tmp_path, capsys):
        from nonclassical_mc import cli

        monkeypatch.setenv(WORKERS_ENV, "2")
        monkeypatch.setattr(engine, "_transport_group",
                            lambda *task: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=f"wait status {signal.SIGKILL}$"):
            simulate(small_config(**self.CONFIG))
        self.assert_no_child_left()
        code = cli.main(["compare", "--model", "sp2", "--histories", "200", "--batches", "10",
                         "--out", str(tmp_path)])
        assert code == 3
        assert f"wait status {signal.SIGKILL}" in capsys.readouterr().err
        self.assert_no_child_left()

    def test_an_interrupted_parent_leaves_no_child(self, monkeypatch):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        monkeypatch.setenv(WORKERS_ENV, "2")
        monkeypatch.setattr(engine, "_transport_group", lambda *task: time.sleep(60))
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)  # not inherited by the children
            with pytest.raises(Interrupted):
                simulate(small_config(**self.CONFIG))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30  # the sleeping children were killed
        self.assert_no_child_left()

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        config = small_config(kind="sp2", sigma_s=0.9, capture="implicit", histories=2_610,
                              batches=13, seed=57)
        monkeypatch.setenv(WORKERS_ENV, "1")
        alone = simulate(config)
        forks = self.count_forks(monkeypatch)
        monkeypatch.setenv(WORKERS_ENV, "2")
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            threaded = simulate(config)
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert forks == []
        forked = simulate(config)  # the thread is gone: the same run forks
        assert len(forks) == 2
        for result in (threaded, forked):
            for field in fields(result):
                np.testing.assert_array_equal(getattr(result, field.name),
                                              getattr(alone, field.name))
        self.assert_no_child_left()


class TestBatchSlices:
    def test_partition(self):
        slices = batch_slices(103, 10)
        assert len(slices) == 10
        assert sum(size for _, size in slices) == 103
        assert slices[0] == (0, 11)
        assert slices[-1] == (93, 10)
        sizes = {size for _, size in slices}
        assert sizes == {10, 11}


class TestConfiguredWorkers:
    def test_default_is_the_affinity_mask(self, monkeypatch):
        # a taskset or cpuset limit, not the host's CPU count, sets the default
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert engine.configured_workers() == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert engine.configured_workers() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert engine.configured_workers() == 1
