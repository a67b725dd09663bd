"""Inverse-transform sampling: exactness, round trips, sampled statistics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from nonclassical_mc import (
    CrossSectionSpec,
    ModelKind,
    make_model,
    sample_path,
)
from nonclassical_mc import sampler

ALL_KINDS = list(ModelKind)
TABLE_KINDS = ["diffusion", "sp2", "sp3"]
XS = CrossSectionSpec(1.0, 0.0)
SP2_ATOM = make_model("sp2", XS).atom_at_zero


def law_of(model):
    """The (mu, normalized w) of a law's continuous part, as sample_path forms it."""
    return model.mu, tuple(w / (1.0 - model.atom_at_zero) for w in model.weights)


def table_of(model):
    """The quantile table a law reads, and its continuous part's CDF at a knot.

    The table is read back from its cubic rows: knot k's z is column 0 of
    row k and its slope dz/dv column 1 over the knot spacing; the last
    knot's z and slope are the last cubic and its derivative at fraction 1.
    """
    rows = sampler._quantile_table(*law_of(model))
    v = sampler._KNOT_V
    h = v[1] - v[0]
    z = np.append(rows[:, 0], rows[-1].sum())
    slope = np.append(rows[:, 1], rows[-1, 1:] @ [1.0, 2.0, 3.0]) / h
    table = SimpleNamespace(rows=rows, v=v, z=z, slope=slope, knots=v.size)
    return table, lambda k: model.atom_at_zero + (1.0 - model.atom_at_zero) * -math.expm1(
        -v[k] ** 2)


@pytest.fixture
def numpy_calls(monkeypatch):
    """The names of the numpy functions sample_path(model, xi) calls, in order."""
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if not callable(attr) or isinstance(attr, type):
                return attr

            def counted(*args, **kwargs):
                calls.append(name)
                return attr(*args, **kwargs)
            return counted

    def count(model, xi):
        sample_path(model, 0.5)  # builds the lazy table outside the count
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "np", CountingNumpy())
            calls.clear()
            sample_path(model, xi)
        return tuple(calls)
    return count


def lambert_inverse(y):
    """Independent oracle for the inverse of f(z) = (1 + z) e^{-z}: z = -1 - W_{-1}(-y/e)."""
    return float(np.real(-1.0 - special.lambertw(-y / math.e, k=-1)))


DIFFUSION = make_model("diffusion", XS)


def sp2_all_lanes(model, xi):
    """sample_path's atom branch as it was when every lane was inverted and
    the atom lanes were overwritten with 0.0 afterwards."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    atom = model.atom_at_zero
    q = np.maximum(arr - atom, 0.0) / (1.0 - atom)
    surv = (1.0 - arr) / (1.0 - atom)
    t = np.where(q < 0.5, -np.log1p(-np.minimum(q, 0.5)), -np.log(surv))
    z = sampler._quantile(*law_of(model), t)
    s = np.where(arr > atom, z, 0.0) / model.xs.sigma_t
    return float(s[0]) if np.ndim(xi) == 0 else s


def invert_f(y):
    """The inverse of f through the one sampling path, and the y it inverted.

    The diffusion law at sigma_t = 1 has the survival f(sqrt(3) s), so
    sqrt(3) * sample_path(diffusion, xi) inverts f at y = 1 - xi. That y is
    taken from the xi actually passed: 1 - y rounds, and at y = 1e-14 the
    nominal y is off by 8e-4 relative, which moves z by 2e-5.
    """
    xi = 1.0 - np.asarray(y, dtype=float)
    return math.sqrt(3.0) * sample_path(DIFFUSION, xi), 1.0 - xi


class TestInvertF:
    def test_one_maps_to_zero(self):
        assert invert_f(1.0)[0] == 0.0

    def test_known_points(self):
        assert invert_f(2.0 / math.e)[0] == pytest.approx(1.0, abs=1e-12)
        assert invert_f(6.0 * math.exp(-5.0))[0] == pytest.approx(5.0, abs=1e-10)

    def test_residual_tolerance(self):
        z, y = invert_f(np.exp(-np.linspace(1e-4, 34.0, 4001)))
        residual = np.abs((1.0 + z) * np.exp(-z) - y)
        assert residual.max() <= 1e-12
        assert np.all(z >= 0.0)

    def test_against_lambert_w_branch(self):
        for nominal in (0.9999, 0.9, 0.7357588823428847, 0.5, 0.1, 1e-3, 1e-8, 1e-14):
            z, y = invert_f(nominal)
            assert z == pytest.approx(lambert_inverse(y), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("y", [0.0, -0.5, 1.0000001, 2.0, math.nan,
                                   np.array([0.5, math.nan])])
    def test_domain_rejection(self, y):
        # y outside (0, 1] is xi = 1 - y outside [0, 1)
        with pytest.raises(ValueError):
            invert_f(y)

    @given(st.floats(min_value=1e-12, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, nominal):
        z, y = invert_f(nominal)
        assert z >= 0.0
        assert abs((1.0 + z) * math.exp(-z) - y) <= 1e-12


class TestSamplePath:
    def test_sp2_atom_branch(self):
        model = make_model("sp2", XS)
        assert sample_path(model, 0.3) == 0.0

    def test_classical_inversion(self):
        model = make_model("classical", XS)
        assert sample_path(model, 1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_sp2_continuous_branch(self):
        # xi chosen so L_hat * s = 1: xi = 1 - (5/9) f(1)
        model = make_model("sp2", XS)
        xi = 1.0 - (5.0 / 9.0) * (2.0 / math.e)
        assert sample_path(model, xi) == pytest.approx(math.sqrt(3.0 / 5.0), abs=1e-12)

    @pytest.mark.parametrize("xi", [-0.1, 1.0, 1.5])
    def test_domain_rejection(self, xi):
        model = make_model("classical", XS)
        with pytest.raises(ValueError):
            sample_path(model, xi)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_round_trip(self, kind):
        model = make_model(kind, XS)
        xi = np.linspace(model.atom_at_zero + 1e-9, 1.0 - 1e-9, 10_000)
        s = sample_path(model, xi)
        np.testing.assert_allclose(model.cdf(s), xi, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_monotone_in_xi(self, kind):
        model = make_model(kind, XS)
        xi = np.linspace(0.0, 1.0 - 1e-9, 5000)
        s = sample_path(model, xi)
        assert np.all(np.diff(s) >= 0.0)

    def test_sp2_zero_iff_xi_at_most_atom(self):
        model = make_model("sp2", XS)
        atom = 4.0 / 9.0
        below = np.linspace(0.0, atom, 1000)  # includes the boundary exactly
        assert np.all(sample_path(model, below) == 0.0)
        above = atom + np.logspace(-16, -1, 200)
        s = sample_path(model, above)
        assert np.all(s > 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_scale_covariance(self, kind):
        sigma = 3.2
        xi = np.linspace(0.01, 0.999, 500)
        unit = sample_path(make_model(kind, CrossSectionSpec(1.0, 0.0)), xi)
        scaled = sample_path(make_model(kind, CrossSectionSpec(sigma, 0.0)), xi)
        np.testing.assert_allclose(scaled, unit / sigma, rtol=1e-12, atol=0.0)

    def test_deep_tail_quantiles(self):
        # survivals of 1e-13 and 1e-15 are read off intervals 14,540 and
        # 15,619 of the table's 16,383, where z grows nearly linearly in v
        model = make_model("sp3", XS)
        xi = np.array([1.0 - 1e-13, 1.0 - 1e-15])
        s = sample_path(model, xi)
        np.testing.assert_allclose(model.cdf(s), xi, atol=1e-12)
        assert np.all(np.diff(s) > 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_cdf_round_trip_property_sp3(self, xi):
        model = make_model("sp3", XS)
        s = sample_path(model, xi)
        assert abs(model.cdf(s) - xi) <= 1e-9

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_nan_rejected(self, kind):
        model = make_model(kind, XS)
        with pytest.raises(ValueError):
            sample_path(model, float("nan"))
        with pytest.raises(ValueError):
            sample_path(model, np.array([0.1, np.nan, 0.9]))


class TestTableSampling:
    """The table-only inversion of diffusion, sp2 and sp3."""

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_edge_variates(self, kind):
        model = make_model(kind, XS)
        _, knot_xi = table_of(model)
        xi = np.array([0.0, 5e-324, 3.2e-33, SP2_ATOM, 0.5, knot_xi(5602),
                       1.0 - 1e-15, 1.0 - 2.0**-53])
        s = sample_path(model, xi)
        assert np.all(np.isfinite(s)) and np.all(s >= 0.0)
        assert s[0] == 0.0
        if kind == "sp2":
            assert np.array_equal(s == 0.0, xi <= SP2_ATOM)
        else:
            assert np.all(s[1:] > 0.0)  # down to xi = 5e-324
        assert np.all(np.diff(s) >= 0.0)
        assert abs(model.cdf(s[4]) - 0.5) <= 1e-15

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_elementwise_bitwise(self, kind):
        model = make_model(kind, XS)
        xi = np.random.default_rng(5).random(400)
        xi[:4] = [0.0, 3.2e-33, SP2_ATOM, 1.0 - 2.0**-53]
        s = sample_path(model, xi)
        for i in range(xi.size):
            assert s[i] == sample_path(model, float(xi[i]))
        assert np.array_equal(sample_path(model, xi[::-1]), s[::-1])

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_fixed_operation_count(self, kind, numpy_calls):
        # every numpy call sample_path makes is counted: the count must not
        # depend on the variates, which rules out any convergence loop
        model = make_model(kind, XS)
        counts = set()
        for xi in (np.full(64, 1e-300), np.full(64, 0.5), np.full(64, 1.0 - 2.0**-53),
                   np.linspace(0.0, 1.0 - 1e-12, 5000)):
            counts.add(numpy_calls(model, xi))
        assert len(counts) == 1

    def test_operation_count_independent_of_components(self, numpy_calls):
        # diffusion has one Gamma(2) component and sp3 two: the per-sample
        # work reads one table row either way, so SP_N costs the same for any N
        xi = np.linspace(0.0, 1.0 - 1e-12, 5000)
        diffusion, sp3 = make_model("diffusion", XS), make_model("sp3", XS)
        assert len(diffusion.mu) == 1 and len(sp3.mu) == 2
        assert numpy_calls(diffusion, xi) == numpy_calls(sp3, xi)

    @pytest.mark.parametrize("sigma_t", [1.0, 2.5])
    def test_sp2_atom_lanes_skip_the_inversion_bitwise(self, sigma_t):
        # inverting only the lanes past the atom changes no bit of any lane
        model = make_model("sp2", CrossSectionSpec(sigma_t, 0.0))
        edges = [0.0, np.nextafter(SP2_ATOM, 0.0), SP2_ATOM, np.nextafter(SP2_ATOM, 1.0),
                 1.0 - 2.0**-53]
        xi = np.concatenate([edges, np.random.default_rng(19).random(100_000)])
        expected = sp2_all_lanes(model, xi)
        assert sample_path(model, xi).tobytes() == expected.tobytes()
        assert sample_path(model, np.repeat(xi, 2)[::2]).tobytes() == expected.tobytes()
        for i in [*range(len(edges)), *range(-50, 0)]:  # scalar input
            one = sample_path(model, float(xi[i]))
            assert isinstance(one, float) and np.float64(one).tobytes() == expected[i].tobytes()

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_cdf_residual_bound(self, kind):
        model = make_model(kind, XS)
        xi = np.linspace(model.atom_at_zero, 1.0 - 1e-12, 2_000_000)
        s = sample_path(model, xi)
        assert np.max(np.abs(model.cdf(s) - xi)) <= 1e-13

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_tail_relative_bound(self, kind):
        model = make_model(kind, XS)
        xi = 1.0 - np.geomspace(2.0**-53, 0.5, 200_000)
        surv = 1.0 - xi  # exact: the survival each xi really asks for
        s = sample_path(model, xi)
        assert np.max(np.abs(model.survival(s) - surv) / surv) <= 1e-13

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_head_relative_bound(self, kind):
        # from xi = 1e-300 through the table's third interval the CDF q of
        # the continuous part is tiny, so it is checked relative to itself
        # against the cancellation-free sum_j w_j P(2, mu_j sigma_t s)
        model = make_model(kind, XS)
        atom = model.atom_at_zero
        _, knot_xi = table_of(model)
        xi = np.unique(atom + np.geomspace(1e-300, knot_xi(3) - atom, 20_000))
        xi = xi[xi > atom]
        q = (xi - atom) / (1.0 - atom)  # the conditional CDF sample_path inverts
        s = sample_path(model, xi)
        mu, w = law_of(model)
        cdf = sum(wj * special.gammainc(2.0, mj * model.xs.sigma_t * s) for mj, wj in zip(mu, w))
        assert xi[-1] >= knot_xi(3) * (1.0 - 1e-15)
        assert np.max(np.abs(cdf - q) / q) <= 2e-12

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_monotone_across_knots(self, kind):
        model = make_model(kind, XS)
        _, knot_xi = table_of(model)
        for k in (1, 2, 3, 400, 5600, 12000, 16100):
            x = knot_xi(k)
            step = max(1e-9 * min(x - model.atom_at_zero, 1.0 - x), np.spacing(x))
            xi = x + step * np.arange(-40, 41)
            xi = xi[xi < 1.0]
            assert np.all(np.diff(xi) > 0.0)
            assert np.all(np.diff(sample_path(model, xi)) >= 0.0), k


class TestQuantileTable:
    def test_strictly_monotone_and_covering(self):
        table, _ = table_of(make_model("sp3", XS))
        assert table.knots == 16384
        assert table.rows.shape == (16383, 4)
        assert np.all(np.diff(table.v) > 0.0)
        assert np.all(np.diff(table.z) > 0.0)
        assert table.v[0] == 0.0
        # the last knot's survival lies below that of xi = 1 - 2^-53
        assert math.exp(-table.v[-1] ** 2) <= 2.0**-53

    @pytest.mark.parametrize("kind", ["diffusion", "sp3"])
    def test_knots_solve_the_survival(self, kind):
        model = make_model(kind, XS)
        table, _ = table_of(model)
        s = table.z
        head = table.v < 1.0
        # model.cdf is 1 - survival, so it carries an absolute rounding of ~1e-16
        np.testing.assert_allclose(model.cdf(s[head]), -np.expm1(-table.v[head] ** 2),
                                   rtol=1e-13, atol=3e-16)
        np.testing.assert_allclose(model.survival(s[~head]), np.exp(-table.v[~head] ** 2),
                                   rtol=1e-13, atol=0.0)
        # dz/dv = 2 v / hazard, and sqrt(18/55) at v = 0 for sp3
        hazard = model.hazard(s[1:])
        np.testing.assert_allclose(table.slope[1:], 2.0 * table.v[1:] / hazard, rtol=1e-12)
        if kind == "sp3":
            assert table.slope[0] == pytest.approx(math.sqrt(18.0 / 55.0), rel=1e-15)

    def test_one_table_per_continuous_law(self):
        # the table's key is the continuous part's (mu, normalized w), which
        # sigma_t leaves alone: three laws build three tables, and a repeated
        # call builds none (a key unequal on each call would rebuild the
        # 16,384-knot table at every lockstep step)
        sampler._quantile_table.cache_clear()
        for sigma_t in (1.0, 2.5):
            for kind in TABLE_KINDS:
                sample_path(make_model(kind, CrossSectionSpec(sigma_t, 0.0)),
                            np.array([0.5, 0.99]))
        info = sampler._quantile_table.cache_info()
        assert info.currsize == 3
        sample_path(make_model("sp3", CrossSectionSpec(2.5, 0.0)), np.array([0.5, 0.99]))
        assert sampler._quantile_table.cache_info().misses == info.misses

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_largest_variate_stays_inside_the_table(self, kind, monkeypatch):
        # xi = 1 - 2^-53 gives t = -ln S <= 53 ln 2 < 38, so the knot interval
        # _quantile reads is at most floor(sqrt(53 ln 2) (knots - 1) / sqrt(38))
        # = 16108 of the table's knots - 1 = 16383 intervals
        model = make_model(kind, XS)
        table, _ = table_of(model)
        read = []

        class RecordingCoef(np.ndarray):
            def take(self, indices, *args, **kwargs):
                read.append(int(np.max(indices)))
                return np.asarray(self).take(indices, *args, **kwargs)

        recording = table.rows.view(RecordingCoef)
        monkeypatch.setattr(sampler, "_quantile_table", lambda mu, weights: recording)
        s = sample_path(model, np.array([0.5, np.nextafter(1.0, 0.0)]))
        assert np.all(np.isfinite(s))
        bound = math.floor(math.sqrt(53.0 * math.log(2.0)) * (table.knots - 1) / table.v[-1])
        assert bound == 16108
        assert read[0] <= bound <= table.knots - 2
        if not model.atom_at_zero:
            assert read[0] == bound


class TestEmpiricalCheck:
    def test_rejects_small_n(self, empirical_check):
        model = make_model("classical", XS)
        with pytest.raises(ValueError):
            empirical_check(model, 100, seed=0, stream_id=0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_moments_within_four_sigma(self, kind, empirical_check):
        model = make_model(kind, XS)
        report = empirical_check(model, 200_000, seed=11, stream_id=0)
        assert abs(report.mean - model.moment(1)) <= 4.0 * report.mean_se
        assert abs(report.second_moment - model.moment(2)) <= 4.0 * report.second_moment_se
        # the largest ECDF gap should look like ordinary binomial noise
        assert report.max_cdf_gap <= 5.0 * max(report.max_cdf_gap_se, 1e-6)

    def test_sp2_zero_fraction(self, empirical_check):
        model = make_model("sp2", XS)
        report = empirical_check(model, 200_000, seed=12, stream_id=0)
        assert abs(report.zero_fraction - 4.0 / 9.0) <= 4.0 * report.zero_fraction_se

    def test_nonatomic_laws_have_no_zeros(self, empirical_check):
        for kind in (ModelKind.CLASSICAL, ModelKind.DIFFUSION, ModelKind.SP3):
            report = empirical_check(make_model(kind, XS), 20_000, seed=13, stream_id=0)
            assert report.zero_fraction == 0.0

    def test_deterministic_given_stream(self, empirical_check):
        model = make_model("diffusion", XS)
        a = empirical_check(model, 20_000, seed=21, stream_id=3)
        b = empirical_check(model, 20_000, seed=21, stream_id=3)
        assert a == b
