"""Deterministic oracles: kernel profiles, closed forms, integral solver.

The package runs on numpy alone; scipy serves here as the independent
oracle for its quadratures, its exponential integral and, by LU, its
Toeplitz solve.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, linalg, special

from nonclassical_mc import (
    ConvergenceError,
    CrossSectionSpec,
    ModelKind,
    PathLengthModel,
    RadialGrid,
    closed_form,
    make_model,
    solve_integral_equation,
)
from nonclassical_mc import reference
from nonclassical_mc.reference import (_exp1, _first_column, _operator, _profile, _profile_integral,
                                       _scaled_toeplitz, _slowest_decay)

ALL_KINDS = list(ModelKind)
NON_CLASSICAL = [kind for kind in ModelKind if kind is not ModelKind.CLASSICAL]
EXTREME_SCATTERING = (1e-12, 1e-9, 1e-6, 1e-4, 0.5, 0.99, 1.0 - 1e-9)
MASS_CASES = ([(kind, c) for c in (0.0, 0.5, 0.9, 0.99) for kind in NON_CLASSICAL]
              + [(ModelKind.CLASSICAL, c)
                 for c in (0.0, 1e-3, 0.03, 0.07, 0.1, 0.5, 0.9, 0.99, 0.999)])


@pytest.fixture(scope="module")
def grid():
    return RadialGrid(12.0, 512)


def point_kernel(model, r):
    """Continuous first-flight density p(r) / (4 pi r^2) at r > 0."""
    return model.density(r) / (4.0 * math.pi * r * r)


def dense_collision_matrix(model, grid):
    """Independent oracle for the solver's operator: K with P evaluated at
    every |r - r'| and r + r' of the M x M node pairs, no Toeplitz
    structure; 512 rows at a time, so a 3,072-node grid stays near one
    M x M array."""
    r = grid.nodes
    m = r.size
    h = grid.spacing
    w = grid.weights
    coef = np.empty((m, m))
    for rows in np.split(np.arange(m), range(512, m, 512)):
        sep = np.abs(r[rows, None] - r[None, :])
        profile_sep = np.zeros(sep.shape)
        off = sep > 0.0
        profile_sep[off] = _profile(model, sep[off])
        coef[rows] = w[None, :] * (profile_sep - _profile(model, r[rows, None] + r[None, :]))
    ip = float(_profile_integral(model, h))
    p_h = float(_profile(model, h))
    idx = np.arange(m)
    coef[idx, idx] += ip
    coef[m - 1, m - 1] -= 0.5 * ip
    near = 0.5 * ip - 0.5 * h * p_h
    coef[idx[:-1], idx[:-1] + 1] += near
    coef[idx[1:], idx[1:] - 1] += near
    return coef * r[None, :] / (2.0 * r[:, None])


class TestRadialKernel:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("u", [0.05, 0.5, 2.0])
    def test_profile_matches_quadrature(self, kind, u):
        # P(u) = integral_u^inf p(s)/s ds, checked against direct quadrature
        model = make_model(kind, CrossSectionSpec(1.3, 0.0))
        oracle, err = integrate.quad(lambda s: model.density(s) / s, u, 80.0,
                                     limit=400, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        assert _profile(model, u) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_profile_integral_matches_quadrature(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        for x in (0.02, 0.4, 3.0):
            # from 0 so QUADPACK's extrapolation absorbs the classical
            # profile's logarithmic endpoint singularity
            oracle, _ = integrate.quad(lambda u: _profile(model, u) if u > 0 else 0.0,
                                       0.0, x, limit=400, epsabs=1e-12, epsrel=1e-10)
            assert _profile_integral(model, x) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_profile_total_mass(self, kind):
        # integral_0^inf P = integral p = 1 - atom
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        assert _profile_integral(model, 200.0) == pytest.approx(
            1.0 - model.atom_at_zero, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_profile_positive_decreasing(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        u = np.linspace(1e-4, 20.0, 400)
        p = _profile(model, u)
        assert np.all(p > 0.0)
        assert np.all(np.diff(p) < 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_point_kernel_normalization(self, kind):
        # 4 pi integral k(s) s^2 ds = 1 - atom
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        total, err = integrate.quad(
            lambda s: 4.0 * math.pi * s * s * point_kernel(model, s), 1e-14, 60.0,
            limit=400, epsabs=1e-12, epsrel=1e-12)
        assert total == pytest.approx(1.0 - model.atom_at_zero, abs=1e-8)


def sp3_green(xs, r):
    """Scalar-flux Green function of the sp3 operator: the c = 0 collision
    density over sigma_t, (sigma_t / 4 pi r) sum_j A_j e^{-sigma_t l_j r}."""
    pure = CrossSectionSpec(xs.sigma_t, 0.0)
    return closed_form(make_model("sp3", pure)).density(r) / xs.sigma_t


class TestClosedForms:
    def test_diffusion_point_source_value(self):
        xs = CrossSectionSpec(1.0, 0.0)  # c = 0, sigma_a = 1
        expected = 3.0 * math.exp(-math.sqrt(3.0)) / (4.0 * math.pi)
        density = closed_form(make_model("diffusion", xs)).density(1.0)
        assert density == pytest.approx(expected, rel=1e-12)

    def test_diffusion_reduces_to_green_function_scale(self):
        # at c = 0 the decay constant is sqrt(3) sigma_t and the prefactor
        # 3 sigma_t^2: exactly 3 sigma_t^2 G(r) with G = e^{-sqrt3 st r}/4 pi r
        xs = CrossSectionSpec(2.0, 0.0)
        r = 0.7
        g = math.exp(-math.sqrt(3.0) * 2.0 * r) / (4.0 * math.pi * r)
        density = closed_form(make_model("diffusion", xs)).density(r)
        assert density == pytest.approx(3.0 * 4.0 * g, rel=1e-12)

    def test_diffusion_volume_integral_is_balance(self):
        # integral f dV = sigma_t / sigma_a = Q / (1 - c)
        xs = CrossSectionSpec(1.0, 0.5)
        exact = closed_form(make_model("diffusion", xs))
        total, _ = integrate.quad(lambda r: 4.0 * math.pi * r * r * exact.density(r),
                                  1e-12, 200.0, limit=400)
        assert total == pytest.approx(1.0 / (1.0 - xs.c), rel=1e-9)

    def test_diffusion_rejects_origin(self):
        with pytest.raises(ValueError):
            closed_form(make_model("diffusion", CrossSectionSpec(1.0, 0.0))).density(0.0)

    @pytest.mark.parametrize("scattering", [0.0, 0.5, 0.9, 0.99])
    def test_diffusion_decay_and_amplitude(self, scattering):
        # the classic diffusion kernel: kappa = sqrt(3 sigma_t sigma_a), 3 sigma_t^2
        xs = CrossSectionSpec(1.7, 1.7 * scattering)
        exact = closed_form(make_model("diffusion", xs))
        assert exact.origin_mass == 0.0
        np.testing.assert_allclose(exact.decay, [xs.sigma_t * math.sqrt(3.0 * (1.0 - xs.c))],
                                   rtol=1e-12)
        np.testing.assert_allclose(exact.amplitude, [3.0 * xs.sigma_t**2], rtol=1e-12)

    @pytest.mark.parametrize("kind, scattering", MASS_CASES,
                             ids=[f"{c}-{kind.value}" for kind, c in MASS_CASES])
    def test_mass_balance(self, kind, scattering):
        # integral f dV = M + sum_j R_j / kappa_j^2 = 1 / (1 - c); at c = 0.07
        # the classical continuum peaks near 1 - t = 2e-12, which a rule in
        # 1 - t = (1 - s)^3 resolves too coarsely to meet 1e-12
        xs = CrossSectionSpec(2.0, 2.0 * scattering)
        exact = closed_form(make_model(kind, xs))
        total = exact.origin_mass + float(np.sum(exact.amplitude / exact.decay**2))
        assert (1.0 - xs.c) * total == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("kind", NON_CLASSICAL)
    def test_pure_absorber_is_first_flight_kernel(self, kind):
        xs = CrossSectionSpec(1.3, 0.0)
        model = make_model(kind, xs)
        exact = closed_form(model)
        r = np.array([0.05, 0.2, 1.0, 3.0, 10.0])
        np.testing.assert_allclose(exact.density(r), point_kernel(model, r),
                                   rtol=1e-12)
        assert exact.origin_mass == model.atom_at_zero

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("scattering", [0.0, 0.07, 0.5, 0.9, 0.99])
    def test_transform_is_law_over_one_minus_c_law(self, kind, scattering):
        # M + sum_j R_j / (kappa_j^2 + k^2) = p / (1 - c p), with p the law's
        # own transform in q = k / st: arctan(q) / q, or
        # atom + sum_j w_j mu_j^2 / (mu_j^2 + q^2)
        st = 2.0
        model = make_model(kind, CrossSectionSpec(st, st * scattering))
        exact = closed_form(model)
        q = np.array([1e-3, 0.1, 1.0, 10.0, 100.0])  # k / sigma_t
        if kind is ModelKind.CLASSICAL:
            law = np.arctan(q) / q
        else:
            law = model.atom_at_zero + sum(w * m * m / (m * m + q * q)
                                           for m, w in zip(model.mu, model.weights))
        k = st * q
        transform = exact.origin_mass + (exact.amplitude / (exact.decay**2 + k[:, None]**2)).sum(1)
        np.testing.assert_allclose(transform, law / (1.0 - scattering * law), rtol=1e-12)

    def test_classical_pure_absorber_shell_averages(self):
        # at c = 0 the continuum alone is the first flight: 4 pi int f r^2 dr
        # over a shell is e^{-st lo} - e^{-st hi}
        st = 1.3
        exact = closed_form(make_model("classical", CrossSectionSpec(st, 0.0)))
        edges = np.linspace(0.0, 10.0, 65)
        lo, hi = edges[:-1], edges[1:]
        first_flight = (np.exp(-st * lo) - np.exp(-st * hi)) / (4.0 * math.pi / 3.0 * (hi**3 - lo**3))
        np.testing.assert_allclose(exact.shell_averages(edges), first_flight, rtol=1e-12)

    def test_classical_rule_is_built_once(self):
        # the Gauss-Legendre continuum rule does not depend on c or sigma_t:
        # two classical closed forms build it once, and a third law never
        reference._continuum_rule.cache_clear()
        closed_form(make_model("classical", CrossSectionSpec(1.0, 0.5)))
        closed_form(make_model("classical", CrossSectionSpec(2.0, 1.8)))
        closed_form(make_model("sp3", CrossSectionSpec(1.0, 0.5)))
        info = reference._continuum_rule.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("scattering", [0.0, 0.5, 0.9, 0.99])
    def test_sp_n_mass_balance_up_to_63(self, scattering):
        # SP_N is the (N + 1)-point Gauss-Legendre rule for arctan(k)/k; the
        # eigenvalue construction stays exact to N = 63
        xs = CrossSectionSpec(1.0, scattering)
        for order in range(1, 64):
            t, g = np.polynomial.legendre.leggauss(order + 1)
            model = PathLengthModel(ModelKind.SP3, xs, float(g[t == 0.0].sum() / 2.0),
                                    mu=tuple(1.0 / t[t > 0.0]), weights=tuple(g[t > 0.0]))
            exact = closed_form(model)
            total = exact.origin_mass + float(np.sum(exact.amplitude / exact.decay**2))
            assert (1.0 - xs.c) * total == pytest.approx(1.0, rel=1e-12), order

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_near_critical_medium_accepted(self, kind):
        # at c = 0.99999 the mass balance misses 1 by rounding of order
        # 1e-16 / (1 - c), which the check allows
        exact = closed_form(make_model(kind, CrossSectionSpec(3.0, 3.0 * 0.99999)))
        assert np.all(exact.decay > 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("scattering", EXTREME_SCATTERING)
    def test_balance_from_weak_to_near_critical_scattering(self, kind, scattering):
        # the secular equation is solved for each gap mu_j^2 - lambda_j, so
        # nothing cancels as c -> 0 (subtracting eigvalsh's lambda_j from
        # mu_j^2 missed the balance by up to 1.2e-4 at c = 1e-12); the
        # bound is closed_form's own, 1e-12 / (1 - c)
        xs = CrossSectionSpec(1.0, scattering)
        exact = closed_form(make_model(kind, xs))
        total = exact.origin_mass + float(np.sum(exact.amplitude / exact.decay**2))
        assert abs((1.0 - scattering) * total - 1.0) <= 1e-12 / (1.0 - scattering)
        if scattering <= 1e-6:  # f tends to the first flight as c -> 0
            r = np.array([0.05, 1.0, 5.0])
            first_flight = closed_form(make_model(kind, CrossSectionSpec(1.0, 0.0))).density(r)
            np.testing.assert_allclose(exact.density(r), first_flight, rtol=1e-4)

    def test_complex_poles_rejected(self):
        # a mixture with a negative weight is no law make_model builds: its
        # secular equation has no real root there, and the closed form refuses
        xs = CrossSectionSpec(1.0, 0.5)
        bogus = PathLengthModel(ModelKind.SP3, xs, 0.0, mu=(1.0, 2.0), weights=(-1.0, 2.0))
        with pytest.raises(ArithmeticError), np.errstate(invalid="ignore"):
            closed_form(bogus)

    def test_sp3_green_value(self, sp3):
        expected = (sp3.A_plus * math.exp(-sp3.lambda_plus)
                    + sp3.A_minus * math.exp(-sp3.lambda_minus)) / (4.0 * math.pi)
        assert sp3_green(CrossSectionSpec(1.0, 0.5), 1.0) == pytest.approx(expected, rel=1e-12)

    def test_sp3_green_dimensional_scaling(self):
        # f / sigma_t has units 1/length^2, so at a fixed c
        # G_sigma(r) = sigma^2 G_1(sigma r)
        sigma = 2.0
        unit = closed_form(make_model("sp3", CrossSectionSpec(1.0, 0.25)))
        scaled = closed_form(make_model("sp3", CrossSectionSpec(sigma, 0.5)))
        for r in (0.3, 0.7, 2.0):
            assert scaled.density(r) / sigma == pytest.approx(
                sigma**2 * unit.density(sigma * r), rel=1e-12)

    def test_sp3_green_volume_integral(self):
        # each exponential term integrates to A/(sigma_t lambda^2), so the
        # total is 1/sigma_t by the normalization identity
        for st in (1.0, 2.0):
            xs = CrossSectionSpec(st, 0.0)
            total, _ = integrate.quad(
                lambda r: 4.0 * math.pi * r * r * sp3_green(xs, r),
                1e-12, 120.0 / st, limit=400)
            assert total == pytest.approx(1.0 / st, rel=1e-9)

    def test_sp3_green_rejects_origin(self):
        with pytest.raises(ValueError):
            sp3_green(CrossSectionSpec(1.0, 0.0), -1.0)

    def test_sp3_green_matches_pure_absorber_collision_density(self):
        # for c = 0 the collision density is p(r)/4 pi r^2 = sigma_t G0(r)
        xs = CrossSectionSpec(1.0, 0.0)
        model = make_model("sp3", xs)
        r = np.array([0.2, 1.0, 3.0])
        np.testing.assert_allclose(point_kernel(model, r),
                                   xs.sigma_t * sp3_green(xs, r), rtol=1e-12)


class TestRadialGrid:
    def test_uniform_constructor(self, grid):
        assert grid.nodes.size == 512
        assert grid.spacing == pytest.approx(12.0 / 512)
        assert grid.r_max == 12.0
        assert grid.weights[-1] == pytest.approx(grid.spacing / 2.0)



def dense_operator(tau, u):
    """S made dense from _operator's (tau, u): the Toeplitz symbol on odd
    vectors, tau(|n - n'|) - tau(n + n') for n, n' = 1..M, plus u in the
    last column."""
    n = np.arange(1, u.size + 1)
    s = tau[np.abs(n[:, None] - n)] - tau[n[:, None] + n]
    s[:, -1] += u
    return s


def toeplitz_direct(tau, x):
    """Rows 1..M of T applied to the odd extension of x as a direct O(M^2)
    sum: the oracle of _scaled_toeplitz."""
    m = x.size
    return np.convolve(np.concatenate((tau[m - 1:0:-1], tau)),
                       np.concatenate((-x[::-1], [0.0], x)), "valid")


class TestCollisionMatrix:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_structured_build_matches_dense(self, kind, grid):
        # A = D^-1 S D with D = diag(r), against I(1 - c atom) - cK built
        # pair by pair
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model(kind, xs)
        r = grid.nodes
        a = dense_operator(*_operator(model, grid, xs.c)) * r / r[:, None]
        expected = -xs.c * dense_collision_matrix(model, grid)
        expected[np.diag_indices_from(expected)] += 1.0 - xs.c * model.atom_at_zero
        np.testing.assert_allclose(a, expected, rtol=1e-13, atol=0.0)


class TestSolver:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_pure_absorber_is_single_flight(self, kind, grid):
        xs = CrossSectionSpec(1.0, 0.0)
        model = make_model(kind, xs)
        solution = solve_integral_equation(model, xs, grid)
        np.testing.assert_array_equal(solution.f, point_kernel(model, grid.nodes))
        assert solution.iterations == 0
        assert solution.rcond == 1.0

    def test_diffusion_matches_closed_form(self, grid):
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("diffusion", xs)
        solution = solve_integral_equation(model, xs, grid, tol=1e-10)
        window = (grid.nodes >= 0.5) & (grid.nodes <= 8.0)
        exact = closed_form(model).density(grid.nodes[window])
        np.testing.assert_allclose(solution.f[window], exact, rtol=5e-3)

    @pytest.mark.parametrize("kind", ["sp2", "sp3", "classical"])
    def test_solver_converges_to_closed_form(self, kind):
        # the nodal gap to the exact density falls as O(h^2): halving h
        # divides it by about 4; the classical law's falls as O(h), a ratio
        # of about 2 (5.1e-2, 2.6e-2, 1.3e-2 at 1,024, 2,048, 4,096 nodes)
        (low, high), bound = ((1.7, 2.3), 3e-2) if kind == "classical" else ((3.5, 4.5), 5e-3)
        xs = CrossSectionSpec(1.0, 0.9)
        model = make_model(kind, xs)
        exact = closed_form(model)
        gaps = []
        for nodes in (1024, 2048):
            grid = RadialGrid(40.0, nodes)
            solution = solve_integral_equation(model, xs, grid)
            window = (grid.nodes >= 0.5) & (grid.nodes <= 10.0)
            r = grid.nodes[window]
            gaps.append(np.max(np.abs(solution.f[window] / exact.density(r) - 1.0)))
        assert low <= gaps[0] / gaps[1] <= high
        assert gaps[1] < bound

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_volume_balance(self, kind, grid):
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model(kind, xs)
        solution = solve_integral_equation(model, xs, grid, tol=1e-10)
        assert solution.volume_integral() == pytest.approx(2.0, rel=5e-3)

    def test_neumann_series_consistency(self, grid):
        # the fixed point at c = 0.3 equals the explicitly summed first 30
        # Neumann terms of the same discrete operator
        xs = CrossSectionSpec(1.0, 0.3)
        model = make_model("diffusion", xs)
        solution = solve_integral_equation(model, xs, grid, tol=1e-12)
        kmat = dense_collision_matrix(model, grid)
        src = point_kernel(model, grid.nodes)
        term = src.copy()
        total = src.copy()
        c = xs.c
        for _ in range(30):
            term = c * (kmat @ term)
            total += term
        assert float(np.max(np.abs(total - solution.f))) < 1e-6

    def test_kernel_reciprocity(self, grid):
        # r k(r, r') r' is symmetric; in discrete form r_i K_ij / (w_j r_j)
        # is symmetric away from the half-weighted boundary node
        xs = CrossSectionSpec(1.0, 0.5)
        kmat = dense_collision_matrix(make_model("sp3", xs), grid)
        r = grid.nodes
        w = grid.weights
        sym = kmat * r[:, None] / (w[None, :] * r[None, :])
        interior = sym[:-1, :-1]
        np.testing.assert_allclose(interior, interior.T, rtol=1e-12, atol=1e-12)

    def test_sp2_fixed_point_with_atom(self, grid):
        # residual of f = c[(4/9) f + K_cont f] + first flight below tol,
        # with the origin mass feeding the volumetric source
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("sp2", xs)
        solution = solve_integral_equation(model, xs, grid, tol=1e-10)
        c = xs.c
        assert solution.origin_mass == pytest.approx((4.0 / 9.0) / (1.0 - 4.0 * c / 9.0),
                                                     rel=1e-12)
        kmat = dense_collision_matrix(model, grid)
        src = (c * solution.origin_mass + 1.0) * point_kernel(model, grid.nodes)
        rhs = c * ((4.0 / 9.0) * solution.f + kmat @ solution.f) + src
        residual = np.max(np.abs(rhs - solution.f)) / np.max(np.abs(solution.f))
        assert residual < 1e-9

    def test_medium_mismatch_rejected(self, grid):
        model = make_model("diffusion", CrossSectionSpec(1.0, 0.5))
        with pytest.raises(ValueError):
            solve_integral_equation(model, CrossSectionSpec(1.0, 0.4), grid)

    def test_nonconvergence_reports_residual(self, grid, monkeypatch):
        # tau and u all zero make A = D^-1 S D exactly zero: a singular
        # operator the solve must refuse rather than return garbage
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("diffusion", xs)
        m = grid.nodes.size
        monkeypatch.setattr("nonclassical_mc.reference._operator",
                            lambda model, g, c: (np.zeros(2 * m + 1), np.zeros(m)))
        with pytest.raises(ConvergenceError) as excinfo:
            solve_integral_equation(model, xs, grid, tol=1e-10)
        assert excinfo.value.residual > 1e-10
        assert excinfo.value.iterations > 0

    def test_non_finite_operator_is_refused(self, grid, monkeypatch):
        xs = CrossSectionSpec(1.0, 0.5)
        m = grid.nodes.size
        tau = np.zeros(2 * m + 1)
        tau[0] = 1.0
        tau[7] = np.nan  # one NaN lag of an otherwise identity operator
        monkeypatch.setattr("nonclassical_mc.reference._operator",
                            lambda model, g, c: (tau, np.zeros(m)))
        with pytest.raises(ConvergenceError):
            solve_integral_equation(make_model("sp3", xs), xs, grid)

    def test_unreachable_tolerance_reports_residual(self, grid):
        # rounding bounds the residual near 1e-16; a tighter tol is refused
        xs = CrossSectionSpec(1.0, 0.5)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_integral_equation(make_model("sp3", xs), xs, grid, tol=1e-30)
        assert 1e-30 <= excinfo.value.residual < 1e-12
        assert excinfo.value.iterations == 1

    def test_supercritical_discrete_operator_is_refused(self):
        # at c = 0.9999 on [0, 60] the O(h) quadrature over-integrates the
        # classical law's log-singular kernel, so A^-1 has negative entries
        # and f dips to -0.11 on 512 nodes, with a residual that passes
        xs = CrossSectionSpec(1.0, 0.9999)
        with pytest.raises(ConvergenceError, match="negative.*supercritical") as excinfo:
            solve_integral_equation(make_model("classical", xs), xs,
                                    RadialGrid(60.0, 512))
        assert excinfo.value.residual < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_high_scattering_hits_discrete_fixed_point(self, kind, grid):
        # the direct solve leaves no c/(1-c) amplification of the stopping
        # tolerance: f satisfies the discrete equation to rounding
        xs = CrossSectionSpec(1.0, 0.99)
        model = make_model(kind, xs)
        solution = solve_integral_equation(model, xs, grid)
        kmat = dense_collision_matrix(model, grid)
        c, atom, f = xs.c, model.atom_at_zero, solution.f
        src = (c * solution.origin_mass + 1.0) * point_kernel(model, grid.nodes)
        rhs = c * (atom * f + kmat @ f) + src
        assert np.max(np.abs(rhs - f)) / np.max(np.abs(f)) < 1e-12
        assert solution.iterations == 1
        assert solution.residual < 1e-12

    def test_refined_solve_holds_no_square_matrix(self):
        # the benchmark's refined grid, 3,072 nodes on [0, 60]: one M x M
        # array of floats alone is 72 MiB, and the Toeplitz solve keeps
        # only O(M) arrays
        xs = CrossSectionSpec(1.0, 0.99)
        model = make_model("sp3", xs)
        tracemalloc.start()
        try:
            solve_integral_equation(model, xs, RadialGrid(60.0, 3072))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("scattering, expected", [(0.5, 0.31), (0.99, 0.0087)])
    def test_condition_estimate(self, grid, scattering, expected):
        # rcond falls with 1 - c, roughly in proportion
        xs = CrossSectionSpec(1.0, scattering)
        solution = solve_integral_equation(make_model("sp3", xs), xs, grid)
        assert 0.0 < solution.rcond <= 1.0
        assert solution.rcond == pytest.approx(expected, rel=0.1)

    def test_high_scattering_converges_within_budget(self, grid):
        # the solve stays accurate as c -> 1
        xs = CrossSectionSpec(1.0, 0.99)
        model = make_model("diffusion", xs)
        solution = solve_integral_equation(model, xs, grid, tol=1e-10)
        assert solution.residual < 1e-10
        assert np.all(solution.f > 0.0)


REFINED = RadialGrid(60.0, 3072)  # the benchmark's refined oracle grid


class TestScaledProduct:
    @pytest.mark.parametrize("kind, scattering", [("sp3", 0.3), ("sp3", 0.99), ("sp2", 0.5),
                                                  ("classical", 0.5)])
    def test_every_row_is_accurate(self, kind, scattering):
        # on the solver's own x = r f, scaled by the closed form's slowest
        # decay, each row is within 1e-13 of the direct sum relative to
        # that row's |T||x| (a plain FFT product misses by up to 2.4e12 at
        # sp3 c = 0.3); classical c = 0.5 scales by 57 e-folds at r_max
        xs = CrossSectionSpec(1.0, scattering)
        model = make_model(kind, xs)
        tau, _ = _operator(model, REFINED, scattering)
        x = REFINED.nodes * solve_integral_equation(model, xs, REFINED).f
        kappa = _slowest_decay(model) * REFINED.spacing
        assert kappa * REFINED.m <= 72.0
        product = _scaled_toeplitz(tau, kappa)(x)
        bound = toeplitz_direct(np.abs(tau), np.abs(x))
        assert np.max(np.abs(product - toeplitz_direct(tau, x)) / bound) < 1e-13

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_long_refined_domain_solves(self, kind):
        # c = 0.5 on [0, 60] scales by 57 to 66 e-folds at r_max, more than
        # the first solve's eps max|x| noise allows at once: refining in one
        # step scaled there left residuals of 1.5e-10 to 5.7e-2, and one
        # step scaled by ln(1/eps) alone leaves f 1e-9 off where it is 1e-16
        # of its peak; f matches LAPACK down to there
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model(kind, xs)
        assert _slowest_decay(model) * REFINED.r_max > 36.0
        solution = solve_integral_equation(model, xs, REFINED)
        assert solution.residual < 1e-14
        # f falls by 1e-30 to 1e-35 over the domain: below that, rounding
        assert np.min(solution.f) >= -1e-30 * np.max(solution.f)
        r = REFINED.nodes
        src = (xs.c * solution.origin_mass + 1.0) * point_kernel(model, r)
        f = linalg.solve(dense_operator(*_operator(model, REFINED, xs.c)), r * src) / r
        above = f > 1e-16 * np.max(f)
        np.testing.assert_allclose(solution.f[above], f[above], rtol=1e-12, atol=0.0)

    def test_thousand_mean_free_paths_stay_finite(self):
        # sp3 c = 0.3 decays by 1,100 e-folds over [0, 1000]; each step's
        # scaling stays below e^{2 ln(1/eps)} at r_max, so nothing overflows
        xs = CrossSectionSpec(1.0, 0.3)
        model = make_model("sp3", xs)
        grid = RadialGrid(1000.0, 1024)
        solution = solve_integral_equation(model, xs, grid)
        assert np.all(np.isfinite(solution.f))
        assert solution.residual < 1e-14
        near = grid.nodes <= 10.0
        exact = closed_form(model).density(grid.nodes[near])
        np.testing.assert_allclose(solution.f[near], exact, rtol=0.3)


class TestShellAverages:
    def test_function_averages_match_analytic(self):
        # analytic shell integral of the diffusion closed form:
        # integral r e^{-kappa r} dr = [(1+kappa lo)e^{-kappa lo} -
        # (1+kappa hi)e^{-kappa hi}] / kappa^2
        xs = CrossSectionSpec(1.0, 0.5)
        kappa = math.sqrt(3.0 * xs.sigma_t * (xs.sigma_t - xs.sigma_s))
        edges = np.linspace(0.0, 10.0, 65)
        averages = closed_form(make_model("diffusion", xs)).shell_averages(edges)
        lo, hi = edges[:-1], edges[1:]
        radial = ((1.0 + kappa * lo) * np.exp(-kappa * lo)
                  - (1.0 + kappa * hi) * np.exp(-kappa * hi)) / kappa**2
        analytic = 3.0 * xs.sigma_t**2 / (4.0 * math.pi) * radial * 3.0 / (hi**3 - lo**3)
        np.testing.assert_allclose(averages, analytic, rtol=1e-9)

    @pytest.mark.parametrize("kind", NON_CLASSICAL)
    def test_averages_match_quadrature_of_density(self, kind):
        # adaptive quadrature of 4 pi r^2 f on each of 64 shells, with the
        # origin mass in the innermost one
        xs = CrossSectionSpec(1.0, 0.9)
        exact = closed_form(make_model(kind, xs))
        edges = np.linspace(0.0, 10.0, 65)
        lo, hi = edges[:-1], edges[1:]
        volumes = 4.0 * math.pi / 3.0 * (hi**3 - lo**3)
        expected = np.array([
            integrate.quad(lambda r: 4.0 * math.pi * r * r * exact.density(r), a, b,
                           epsabs=0.0, epsrel=1e-13)[0]
            for a, b in zip(lo, hi)]) / volumes
        expected[0] += exact.origin_mass / volumes[0]
        np.testing.assert_allclose(exact.shell_averages(edges), expected, rtol=1e-12)


class TestAgainstScipy:
    def test_exp1_matches_scipy(self):
        # the series on (0, 2] and the continued fraction above, densest
        # around the switch at 2
        x = np.concatenate([np.geomspace(1e-300, 700.0, 20_001), np.linspace(1.9, 2.1, 2_001)])
        np.testing.assert_allclose(_exp1(x), special.exp1(x), rtol=5e-14, atol=0.0)

    @staticmethod
    def assert_matches_lapack(kind, scattering, grid):
        # T^-1 e_0 against scipy's Levinson solve, rcond from the second
        # right-hand side against LAPACK's gecon estimate, and f against a
        # getrf/getrs solve of the same matrix
        xs = CrossSectionSpec(1.0, scattering)
        model = make_model(kind, xs)
        tau, _ = _operator(model, grid, scattering)
        levinson = linalg.solve_toeplitz(tau, np.eye(1, tau.size)[0])
        gap = np.max(np.abs(_first_column(tau) - levinson))
        assert gap <= 1e-13 * np.max(np.abs(levinson))
        solution = solve_integral_equation(model, xs, grid, tol=1e-8)
        a = -scattering * dense_collision_matrix(model, grid)
        a[np.diag_indices_from(a)] += 1.0 - scattering * model.atom_at_zero
        lu, piv = linalg.lu_factor(a)
        gecon = linalg.get_lapack_funcs("gecon", (a,))
        rcond = float(gecon(lu, linalg.norm(a, 1))[0])
        src = (scattering * solution.origin_mass + 1.0) * point_kernel(model, grid.nodes)
        f = linalg.lu_solve((lu, piv), src)
        assert abs(solution.rcond - rcond) < 1e-6
        np.testing.assert_allclose(solution.f, f, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("scattering", [0.3, 0.5, 0.99, 0.9999])
    def test_solve_matches_lapack(self, grid, kind, scattering):
        self.assert_matches_lapack(kind, scattering, grid)

    def test_refined_solve_matches_lapack(self):
        # the benchmark's refined oracle grid: 3,072 nodes on [0, 60]
        self.assert_matches_lapack("sp3", 0.99, RadialGrid(60.0, 3072))

    def test_singular_to_rounding_is_refused(self, grid, monkeypatch):
        # S = I plus a 1e20 at the top of its last column: T = I, so CG
        # takes T^-1 e_0 in one step and only rcond (far below eps) finds
        # S singular
        xs = CrossSectionSpec(1.0, 0.5)
        m = grid.nodes.size
        tau, u = np.zeros(2 * m + 1), np.zeros(m)
        tau[0], u[0] = 1.0, 1e20
        monkeypatch.setattr("nonclassical_mc.reference._operator", lambda model, g, c: (tau, u))
        with pytest.raises(ConvergenceError, match="singular") as excinfo:
            solve_integral_equation(make_model("diffusion", xs), xs, grid)
        assert "rcond 0.000e+00" not in str(excinfo.value)

    def test_zero_in_the_circulant_spectrum_is_solved(self, grid, monkeypatch):
        # tau = (1, -0.5, 0, ..) is a definite 1-D Laplacian whose circulant
        # spectrum is exactly 0 at theta = 0; that zero's reciprocal is
        # guarded, where it once made the solve refuse T as singular (rcond
        # nan). The Laplacian's solution does not decay like the law's
        # collision density, so the scaled residuals, and with them f, are
        # good to 1.3e-10 of LAPACK here (a direct residual sum gave 3e-13)
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("sp3", xs)
        m = grid.nodes.size
        tau, u = np.zeros(2 * m + 1), np.zeros(m)
        tau[:2] = 1.0, -0.5
        monkeypatch.setattr("nonclassical_mc.reference._operator", lambda model, g, c: (tau, u))
        levinson = linalg.solve_toeplitz(tau, np.eye(1, tau.size)[0])
        assert np.max(np.abs(_first_column(tau) - levinson)) <= 1e-11 * np.max(levinson)
        solution = solve_integral_equation(model, xs, grid)
        r = grid.nodes
        s = dense_operator(tau, u)
        f = linalg.solve(s, r * point_kernel(model, r)) / r
        np.testing.assert_allclose(solution.f, f, rtol=1e-9, atol=0.0)
        # rcond is 1 / (||A||_1 ||A^-1||_1), A = D^-1 S D, exact but for the
        # last node's half weight
        assert solution.rcond == pytest.approx(1.0 / np.linalg.cond(s * r / r[:, None], 1),
                                               rel=1e-4)

    @pytest.mark.parametrize("scattering", [1.01, 1.1, 3.0])
    def test_indefinite_symbol_is_solved_or_refused(self, grid, monkeypatch, scattering):
        # past c = 1 the symbol is negative at theta = 0, so neither T nor
        # CG's preconditioner need be definite: the solve either refuses or
        # returns LAPACK's f (at 1.01 the truncated domain leaks enough
        # that it does), never another
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("sp3", xs)
        tau, u = _operator(model, grid, scattering)
        monkeypatch.setattr("nonclassical_mc.reference._operator", lambda model, g, c: (tau, u))
        r = grid.nodes
        f = linalg.solve(dense_operator(tau, u), r * point_kernel(model, r)) / r
        try:
            solution = solve_integral_equation(model, xs, grid)
        except ConvergenceError:
            return
        np.testing.assert_allclose(solution.f, f, rtol=1e-12, atol=0.0)
