"""Monte Carlo engine: history semantics, tallies, balance, determinism."""

import math
import os

import numpy as np
import pytest

from nonclassical_mc import (
    CrossSectionSpec,
    ModelKind,
    ProblemConfig,
    RandomStream,
    ShellTally,
    make_model,
    run_history,
    scalar_flux_from_collisions,
    simulate,
)
from nonclassical_mc import engine
from nonclassical_mc.engine import MAX_COLLISIONS, WORKERS_ENV, _transport_group, batch_slices

ALL_KINDS = list(ModelKind)


def small_config(**overrides):
    params = dict(kind="diffusion", sigma_t=1.0, sigma_s=0.5, histories=20_000,
                  batches=20, seed=7)
    params.update(overrides)
    return ProblemConfig(**params)


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
        dict(source_strength=0.0),
        dict(r_max=math.nan),
        dict(r_max=math.inf),
        dict(source_strength=math.inf),
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


class TestShellTally:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            ShellTally([1.0, 2.0], 10)      # must start at 0
        with pytest.raises(ValueError):
            ShellTally([0.0, 2.0, 1.0], 10)
        with pytest.raises(ValueError):
            ShellTally([0.0], 10)

    def test_binning(self):
        tally = ShellTally([0.0, 1.0, 2.0], 1)
        tally.score(0, 0.0, 1.0)     # origin lands in the innermost shell
        tally.score(0, 1.0, 1.0)     # boundary belongs to the outer shell
        tally.score(0, 1.999, 1.0)
        tally.score(0, 2.0, 1.0)     # on the outer edge: outside, no score
        tally.score(0, 5.0, 1.0)
        np.testing.assert_array_equal(tally.scores[0], [1, 2])

    def test_volumes(self):
        tally = ShellTally([0.0, 1.0, 2.0], 1)
        np.testing.assert_allclose(
            tally.volumes, [4.0 * math.pi / 3.0, 4.0 * math.pi / 3.0 * 7.0])

    def test_finalize_requires_histories(self):
        tally = ShellTally([0.0, 1.0], 2)
        with pytest.raises(ValueError):
            tally.finalize()


class TestRunHistory:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pure_absorber_means_one_collision(self, kind):
        xs = CrossSectionSpec(1.0, 0.0)
        model = make_model(kind, xs)
        tally = ShellTally(np.linspace(0.0, 10.0, 65), 1)
        for h in range(200):
            n = run_history(model, xs, RandomStream(seed=1, stream_id=h), tally)
            assert n == 1
        assert tally.collisions[0] == 200

    def test_collision_balance(self):
        # E[collisions] = 1/(1-c) = 2 at c = 0.5
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("diffusion", xs)
        tally = ShellTally(np.linspace(0.0, 10.0, 65), 10)
        n = 20_000
        for h in range(n):
            run_history(model, xs, RandomStream(seed=2, stream_id=h), tally, batch=h % 10)
        result = tally.finalize()
        assert abs(result.collisions_per_history - 2.0) <= 4.0 * result.collisions_per_history_se

    def test_model_medium_mismatch_rejected(self):
        model = make_model("diffusion", CrossSectionSpec(1.0, 0.5))
        tally = ShellTally(np.linspace(0.0, 10.0, 65), 1)
        with pytest.raises(ValueError):
            run_history(model, CrossSectionSpec(1.0, 0.4),
                        RandomStream(seed=0, stream_id=0), tally)

    def test_nonfinite_position_is_a_counted_fault(self, monkeypatch):
        monkeypatch.setattr("nonclassical_mc.engine.sample_path",
                            lambda model, xi: math.inf)
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("diffusion", xs)
        tally = ShellTally(np.linspace(0.0, 10.0, 65), 1)
        n = run_history(model, xs, RandomStream(seed=3, stream_id=0), tally)
        assert n == 0
        assert tally.faults[0] == 1
        assert tally.collisions[0] == 0

    def test_collision_cap_is_counted(self):
        xs = CrossSectionSpec(1.0, 0.999999)
        model = make_model("classical", xs)
        tally = ShellTally(np.linspace(0.0, 10.0, 65), 1)
        n = run_history(model, xs, RandomStream(seed=4, stream_id=0), tally,
                        max_collisions=5)
        assert n == 5
        assert tally.capped[0] == 1

    def test_sp2_zero_length_scores_at_same_radius(self):
        # consecutive collisions of a history share the exact float radius
        # iff the connecting flight had length zero; the fraction of such
        # flights is the 4/9 atom
        xs = CrossSectionSpec(1.0, 0.9)
        model = make_model("sp2", xs)

        class Recorder(ShellTally):
            def __init__(self, edges, batches):
                super().__init__(edges, batches)
                self.radii: list[float] = []

            def score(self, batch, radius, weight=1.0):
                super().score(batch, radius, weight)
                self.radii.append(radius)

        repeats = 0
        near_misses = 0
        pairs = 0
        zero_flights = 0
        flights = 0
        for h in range(1500):
            tally = Recorder(np.linspace(0.0, 10.0, 65), 1)
            run_history(model, xs, RandomStream(seed=5, stream_id=h), tally)
            radii = np.array([0.0] + tally.radii)  # born at the origin
            gaps = np.abs(np.diff(radii))
            pairs += gaps.size
            repeats += int(np.sum(gaps == 0.0))
            near_misses += int(np.sum((gaps > 0.0) & (gaps < 1e-13)))
            flights += len(tally.radii)
            zero_flights += int(tally.zero_length[0])
        assert near_misses == 0          # zero-length flights never drift
        assert repeats == zero_flights   # radius repeats exactly when s == 0
        p = repeats / pairs
        se = math.sqrt(p * (1.0 - p) / pairs)
        assert abs(p - 4.0 / 9.0) <= 4.0 * se


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_batch_kernel_reproduces_run_history(self, kind, capture):
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model(kind, xs)
        edges = np.linspace(0.0, 10.0, 65)
        n = 300
        tally = ShellTally(edges, 1)
        for h in range(n):
            run_history(model, xs, RandomStream(seed=9, stream_id=h), tally,
                        capture=capture)
        batch = _transport_group(model, xs, 9, 0, [n], edges, capture, 100_000)
        np.testing.assert_array_equal(tally.weight, batch["weight"])
        np.testing.assert_array_equal(tally.scores, batch["scores"])
        np.testing.assert_array_equal(tally.collisions, batch["collisions"])
        np.testing.assert_array_equal(tally.zero_length, batch["zero_length"])
        np.testing.assert_allclose(tally.first_flight_s2, batch["first_flight_s2"], rtol=1e-12)
        np.testing.assert_allclose(tally.absorbed_weight, batch["absorbed_weight"], rtol=1e-12)

    def test_simulate_equals_manual_history_loop(self):
        config = small_config(histories=500, batches=10)
        result = simulate(config)
        model = make_model(config.kind, config.xs)
        edges = np.linspace(0.0, config.r_max, config.shells + 1)
        tally = ShellTally(edges, config.batches)
        for b, (start, size) in enumerate(batch_slices(config.histories, config.batches)):
            for h in range(start, start + size):
                run_history(model, config.xs, RandomStream(config.seed, h), tally, batch=b)
        manual = tally.finalize(config.source_strength, config=config)
        np.testing.assert_array_equal(result.f_mean, manual.f_mean)
        np.testing.assert_array_equal(result.f_stderr, manual.f_stderr)
        np.testing.assert_array_equal(result.n_scores, manual.n_scores)
        assert result.collisions_per_history == manual.collisions_per_history


class TestStreamLayout:
    @staticmethod
    def count_blocks(monkeypatch):
        """Count uniforms_at calls and blocks; fault the flights with xi > 0.995."""
        real_uniforms, real_sample = engine.uniforms_at, engine.sample_path
        counts = {"calls": 0, "blocks": 0, "steps": 0}

        def counting_uniforms(seed, ids, counters):
            out = real_uniforms(seed, ids, counters)
            counts["calls"] += 1
            counts["blocks"] += out.shape[1]
            return out

        def faulting_sample(model, xi):
            counts["steps"] += 1
            return np.where(xi > 0.995, np.inf, real_sample(model, xi))

        monkeypatch.setattr(engine, "uniforms_at", counting_uniforms)
        monkeypatch.setattr(engine, "sample_path", faulting_sample)
        return counts

    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_one_block_per_collision(self, capture, monkeypatch):
        # every flight reads one Philox block, through one uniforms_at call
        # per lockstep step; a faulted flight spends its block too
        counts = self.count_blocks(monkeypatch)
        xs = CrossSectionSpec(1.0, 0.9)
        model = make_model("sp2", xs)
        out = _transport_group(model, xs, 3, 0, [2000], np.linspace(0.0, 10.0, 65),
                               capture, 100_000)
        assert out["faults"].sum() > 0
        assert counts["blocks"] == out["collisions"].sum() + out["faults"].sum()
        assert counts["calls"] == counts["steps"]

    @pytest.mark.parametrize("capture", ["analog", "implicit"])
    def test_group_equals_separate_batches(self, capture, monkeypatch):
        # a batch's tallies do not depend on the batches it shares a lockstep with
        self.count_blocks(monkeypatch)
        xs = CrossSectionSpec(1.0, 0.9)
        model = make_model("sp2", xs)
        edges = np.linspace(0.0, 10.0, 65)
        sizes = [300, 250, 320]
        group = _transport_group(model, xs, 3, 40, sizes, edges, capture, 12)
        assert (group["faults"] > 0).all()
        assert (group["capped"] > 0).all()
        start = 40
        for b, size in enumerate(sizes):
            alone = _transport_group(model, xs, 3, start, [size], edges, capture, 12)
            start += size
            for name in ("weight", "scores", "histories", "collisions", "zero_length",
                         "first_flights", "faults", "capped"):
                np.testing.assert_array_equal(group[name][b], alone[name][0])
            for name in ("first_flight_s2", "absorbed_weight"):
                assert group[name][b] == pytest.approx(alone[name][0], rel=1e-12)

    def test_batches_share_one_lockstep(self, monkeypatch):
        # on one worker, 20 batches of 50 take as many steps as one batch of 1000
        monkeypatch.setenv(WORKERS_ENV, "1")
        counts = self.count_blocks(monkeypatch)
        config = small_config(histories=1000, batches=20)
        simulate(config)
        in_simulate = counts["calls"]
        counts["calls"] = 0
        model = make_model(config.kind, config.xs)
        edges = np.linspace(0.0, config.r_max, config.shells + 1)
        _transport_group(model, config.xs, config.seed, 0, [1000], edges, config.capture,
                         MAX_COLLISIONS)
        assert in_simulate == counts["calls"]


class TestSimulate:
    def test_pure_absorber_is_exact(self):
        result = simulate(small_config(sigma_s=0.0, histories=5_000, batches=10))
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

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_first_flight_second_moment(self, kind):
        # E[s^2] over first flights equals the classical 2/sigma_t^2
        result = simulate(small_config(kind=kind, histories=40_000, seed=33))
        z = (result.first_flight_msd - 2.0) / result.first_flight_msd_se
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

    def test_parallel_determinism(self):
        config = small_config(histories=10_000, batches=10, seed=45)
        results = {}
        previous = os.environ.get(WORKERS_ENV)
        try:
            for workers in ("1", "2", "8"):
                os.environ[WORKERS_ENV] = workers
                results[workers] = simulate(config)
        finally:
            if previous is None:
                os.environ.pop(WORKERS_ENV, None)
            else:
                os.environ[WORKERS_ENV] = previous
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
                         "first_flight_msd", "zero_length_fraction"):
                np.testing.assert_array_equal(getattr(results[workers], name),
                                              getattr(base, name))

    def test_rerun_is_identical(self):
        config = small_config(histories=5_000, batches=10, seed=47)
        first = simulate(config)
        second = simulate(config)
        np.testing.assert_array_equal(first.f_mean, second.f_mean)
        np.testing.assert_array_equal(first.f_stderr, second.f_stderr)

    def test_source_strength_scales_density(self):
        weak = simulate(small_config(histories=5_000, batches=10, seed=49))
        strong = simulate(small_config(histories=5_000, batches=10, seed=49,
                                       source_strength=3.0))
        np.testing.assert_allclose(strong.f_mean, 3.0 * weak.f_mean, rtol=1e-12)


class TestScalarFlux:
    def test_classical_division(self):
        xs = CrossSectionSpec(2.0, 0.0)
        result = simulate(ProblemConfig(kind="classical", sigma_t=2.0, sigma_s=0.0,
                                        histories=5_000, batches=10, seed=51))
        flux = scalar_flux_from_collisions(result, xs)
        assert flux.is_direct_flux
        np.testing.assert_allclose(flux.values, result.f_mean / 2.0, rtol=1e-15)
        np.testing.assert_allclose(flux.stderr, result.f_stderr / 2.0, rtol=1e-15)

    def test_non_classical_flagged(self):
        xs = CrossSectionSpec(1.0, 0.5)
        result = simulate(small_config(histories=5_000, batches=10, seed=53))
        flux = scalar_flux_from_collisions(result, xs)
        assert not flux.is_direct_flux
        np.testing.assert_array_equal(flux.values, result.f_mean)

    def test_uncollided_point_source_flux(self):
        # classical, c = 0: phi0 shell average around r = 1 is close to
        # e^{-1} / 4 pi (flux of a bare point source through one mean free path)
        config = ProblemConfig(kind="classical", sigma_t=1.0, sigma_s=0.0,
                               histories=400_000, batches=100, seed=55)
        result = simulate(config)
        xs = config.xs
        flux = scalar_flux_from_collisions(result, xs)
        k = int(np.searchsorted(result.r_edges, 1.0, side="right")) - 1
        lo, hi = result.r_edges[k], result.r_edges[k + 1]
        shell_avg = (math.exp(-lo) - math.exp(-hi)) / (4.0 * math.pi / 3.0 * (hi**3 - lo**3))
        assert flux.values[k] == pytest.approx(shell_avg, abs=4.0 * flux.stderr[k])
        # the volume average over the default shell width sits ~4.7% below
        # the point value e^{-1}/4pi because of the 1/r^2 weighting
        assert shell_avg == pytest.approx(math.exp(-1.0) / (4.0 * math.pi), rel=0.06)


class TestBatchSlices:
    def test_partition(self):
        slices = batch_slices(103, 10)
        assert len(slices) == 10
        assert sum(size for _, size in slices) == 103
        assert slices[0] == (0, 11)
        assert slices[-1] == (93, 10)
        sizes = {size for _, size in slices}
        assert sizes == {10, 11}
