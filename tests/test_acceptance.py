"""Acceptance criteria, one test (or parametrized family) per criterion.

Each check prints one `[acceptance] criterion N ...` PASS/FAIL line (run
with `pytest -s -v` to see them all).

Three printed six-decimal reference values are known to be unreachable at
their stated tolerances because they carry rounding/approximation slop of
their own; the corresponding tests state the exact analysis in their
failure message and are left red rather than loosened:

* criterion 1, A+ and A-: the exact solution of the amplitude system is
  A+ = 5.6420232, A- = 0.4690879 (these satisfy A+/l+^2 + A-/l-^2 = 1 to
  machine precision; the printed 5.642025 / 0.469086 violate it by 2e-6),
  both ~1.9e-6 from the printed values, beyond the 1e-6 tolerance.
* criterion 2, sp3 mean: follows from A+-, so the exact value 1.0425349
  is 1.9e-6 from the printed 1.042533.
* criterion 10, hazard anchors: the hazard approaches its asymptote like
  1/s, so at s = 4 the diffusion hazard is 12.6% below sqrt(3) (not within
  1%) and at s = 50 the sp3 hazard is 1.7% below 1.161256 (not within
  0.1%). The anchors hold only at s of several hundred mean free paths
  (covered by a green long-grid check in the CLI tests).
"""

import math
import os

import numpy as np
import pytest

from nonclassical_mc import (
    CrossSectionSpec,
    ModelKind,
    ProblemConfig,
    RadialGrid,
    closed_form,
    make_model,
    sample_path,
    simulate,
    solve_integral_equation,
)
from nonclassical_mc.cli import main as cli_main

ALL_KINDS = list(ModelKind)
SQRT3 = math.sqrt(3.0)


def report(criterion, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestCriterion1SP3Constants:
    """make_model's sp3 constants vs the printed six-decimal values, 1e-6 each.

    lambda+- are the model's mu, A+- = w+- lambda+-^2 and
    a+- = 14/(35 - 9 lambda+-^2) (the `sp3` fixture).
    """

    PRINTED = {
        "lambda_plus": 2.941340,
        "lambda_minus": 1.161256,
        "a_plus": -0.326619,
        "a_minus": 0.612334,
        "A_plus": 5.642025,
        "A_minus": 0.469086,
    }

    @pytest.mark.parametrize("name", list(PRINTED))
    def test_constant(self, name, sp3):
        solved = getattr(sp3, name)
        printed = self.PRINTED[name]
        delta = abs(solved - printed)
        ok = delta <= 1e-6
        report("1", ok, f"{name}: solved {solved:.9f} vs printed {printed} (|delta|={delta:.2e})")
        assert ok, (
            f"{name} solved from its defining equations is {solved:.9f}, which is "
            f"{delta:.2e} from the printed {printed} (> 1e-6). For A+/A- the solved "
            f"values satisfy the normalization A+/l+^2 + A-/l-^2 = 1 to machine "
            f"precision while the printed pair misses it by ~2e-6, so the printed "
            f"decimals carry the error; hard-coding them would violate the "
            f"defining-equation invariants required at construction."
        )


class TestCriterion2MeanFreePaths:
    PRINTED = {
        ModelKind.CLASSICAL: 1.0,
        ModelKind.DIFFUSION: 1.154701,   # 2/sqrt(3)
        ModelKind.SP2: 0.860663,         # sqrt(20/27)
        ModelKind.SP3: 1.042533,
    }

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_closed_form_vs_printed(self, kind):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        mean = model.moment(1)
        delta = abs(mean - self.PRINTED[kind])
        ok = delta <= 1e-6
        report("2", ok, f"{kind.value} mean: {mean:.9f} vs printed {self.PRINTED[kind]} "
                        f"(|delta|={delta:.2e})")
        assert ok, (
            f"{kind.value} mean free path from the closed form is {mean:.9f}; the "
            f"printed {self.PRINTED[kind]} is {delta:.2e} away (> 1e-6). The sp3 "
            f"mean inherits the ~2e-6 slop of the printed A+- amplitudes "
            f"(see criterion 1); the exact value is 2A+/l+^3 + 2A-/l-^3 = 1.042534857."
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_quadrature_confirms_closed_form(self, kind):
        from scipy import integrate
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        quad_mean, _ = integrate.quad(lambda s: s * model.density(s), 0.0, 60.0,
                                      limit=400, epsabs=1e-12, epsrel=1e-12)
        delta = abs(quad_mean - model.moment(1))
        ok = delta <= 1e-6
        report("2", ok, f"{kind.value} quadrature of s*p: {quad_mean:.9f} vs "
                        f"moment(1) (|delta|={delta:.2e})")
        assert ok


class TestCriterion3SecondMoment:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("sigma_t", [0.5, 1.0, 2.0])
    def test_exact_transport_value(self, kind, sigma_t):
        model = make_model(kind, CrossSectionSpec(sigma_t, 0.0))
        expected = 2.0 / sigma_t**2
        delta = abs(model.moment(2) - expected)
        ok = delta <= 1e-6
        report("3", ok, f"{kind.value} sigma_t={sigma_t}: m2={model.moment(2):.9f} "
                        f"vs 2/sigma_t^2 (|delta|={delta:.2e})")
        assert ok


class TestCriterion4QuadratureNodes:
    def test_reciprocal_decay_rates_are_gauss_legendre_abscissae(self, sp3):
        diffusion = make_model("diffusion", CrossSectionSpec(1.0, 0.0))
        checks = [
            ("1/sqrt(3) vs S2 node", 1.0 / diffusion.mu[0], 0.577350),
            ("1/lambda+ vs S4 inner node", 1.0 / sp3.lambda_plus, 0.339981),
            ("1/lambda- vs S4 outer node", 1.0 / sp3.lambda_minus, 0.861137),
        ]
        worst = max(abs(value - target) for _, value, target in checks)
        ok = worst <= 1e-6
        report("4", ok, f"reciprocal decay rates vs Gauss-Legendre abscissae "
                        f"(worst |delta|={worst:.2e})")
        assert ok
        # cross-check against numpy's own Gauss-Legendre nodes
        s4 = np.polynomial.legendre.leggauss(4)[0]
        assert sorted([1.0 / sp3.lambda_plus, 1.0 / sp3.lambda_minus]) == pytest.approx(
            sorted(s4[s4 > 0]), abs=1e-12)


class TestCriterion5SamplerStatistics:
    N = 1_000_000

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_moments_and_round_trip(self, kind, empirical_check):
        model = make_model(kind, CrossSectionSpec(1.0, 0.0))
        rep = empirical_check(model, self.N, seed=2, stream_id=0)
        z_mean = abs(rep.mean - model.moment(1)) / rep.mean_se
        z_m2 = abs(rep.second_moment - model.moment(2)) / rep.second_moment_se
        xi = np.linspace(model.atom_at_zero + 1e-9, 1.0 - 1e-9, 10_000)
        rt = float(np.max(np.abs(model.cdf(sample_path(model, xi)) - xi)))
        ok = z_mean <= 4.0 and z_m2 <= 4.0 and rt <= 1e-9
        report("5", ok, f"{kind.value}: mean z={z_mean:.2f}, m2 z={z_m2:.2f}, "
                        f"round-trip max={rt:.1e}")
        assert z_mean <= 4.0
        assert z_m2 <= 4.0
        assert rt <= 1e-9

    def test_sp2_zero_fraction(self, empirical_check):
        model = make_model("sp2", CrossSectionSpec(1.0, 0.0))
        rep = empirical_check(model, self.N, seed=2, stream_id=1)
        z = abs(rep.zero_fraction - 4.0 / 9.0) / rep.zero_fraction_se
        ok = z <= 4.0
        report("5", ok, f"sp2 exact-zero fraction {rep.zero_fraction:.6f} vs 4/9 (z={z:.2f})")
        assert ok


class TestCriterion6MonteCarloVsClosedForm:
    def test_diffusion_compare_verdict(self, tmp_path):
        code = cli_main(["compare", "--model", "diffusion", "--sigma-t", "1",
                         "--sigma-s", "0.5", "--histories", "1000000",
                         "--batches", "100", "--seed", "2", "--rmax", "10",
                         "--shells", "64", "--out", str(tmp_path)])
        ok = code == 0
        report("6", ok, f"diffusion 1e6 histories vs closed form: exit code {code}")
        assert ok


class TestCriterion7MonteCarloVsSolverOracle:
    @pytest.mark.parametrize("kind", ["sp2", "sp3"])
    def test_compare_verdict(self, kind, tmp_path):
        code = cli_main(["compare", "--model", kind, "--sigma-t", "1",
                         "--sigma-s", "0.5", "--histories", "1000000",
                         "--batches", "100", "--seed", "2", "--rmax", "10",
                         "--shells", "64", "--out", str(tmp_path)])
        ok = code == 0
        report("7", ok, f"{kind} 1e6 histories vs closed_form oracle: exit code {code}")
        assert ok

    def test_oracle_self_check_against_diffusion_closed_form(self):
        xs = CrossSectionSpec(1.0, 0.5)
        model = make_model("diffusion", xs)
        grid = RadialGrid(12.0, 512)
        solution = solve_integral_equation(model, xs, grid, tol=1e-10)
        window = (grid.nodes >= 0.5) & (grid.nodes <= 8.0)
        exact = closed_form(model).density(grid.nodes[window])
        rel = np.max(np.abs(solution.f[window] / exact - 1.0))
        ok = rel <= 5e-3
        report("7", ok, f"solver self-check vs diffusion closed_form: max rel {rel:.2e}")
        assert ok


class TestCriterion8BalanceIdentity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("c", [0.0, 0.5, 0.9])
    def test_collisions_per_history(self, kind, c):
        config = ProblemConfig(kind=kind, sigma_t=1.0, sigma_s=c,
                               histories=100_000, batches=100, seed=8)
        result = simulate(config)
        expected = 1.0 / (1.0 - c)
        if c == 0.0:
            ok = result.collisions_per_history == expected
            z = 0.0
        else:
            z = abs(result.collisions_per_history - expected) / result.collisions_per_history_se
            ok = z <= 4.0
        report("8", ok, f"{kind.value} c={c}: collisions/history "
                        f"{result.collisions_per_history:.4f} vs {expected:.4f} (z={z:.2f})")
        assert ok


class TestCriterion9Determinism:
    def test_byte_identical_across_workers_and_reruns(self, tmp_path, monkeypatch):
        args = ["simulate", "--model", "sp3", "--sigma-t", "1", "--sigma-s", "0.5",
                "--histories", "20000", "--batches", "20", "--seed", "9"]
        blobs = {}
        for label, workers in (("w1", "1"), ("w2", "2"), ("w8", "8"), ("rerun", "8")):
            out = tmp_path / label
            monkeypatch.setenv("NONCLASSICAL_MC_WORKERS", workers)
            assert cli_main(args + ["--out", str(out)]) == 0
            blobs[label] = (out / "tally.csv").read_bytes()
        ok = blobs["w1"] == blobs["w2"] == blobs["w8"] == blobs["rerun"]
        report("9", ok, "tally.csv byte-identical for 1/2/8 workers and consecutive runs")
        assert ok


class TestCriterion10FigureAnchors:
    @pytest.fixture()
    def curve_dir(self, tmp_path):
        code = cli_main(["curves", "--sigma-t", "1",
                         "--s-min", "0", "--s-max", "50", "--points", "501",
                         "--out", str(tmp_path)])
        assert code == 0
        return tmp_path

    @staticmethod
    def _column(path, name):
        header = None
        rows = []
        with open(path) as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                if header is None:
                    header = line.strip().split(",")
                    continue
                rows.append([float(v) for v in line.strip().split(",")])
        data = np.array(rows)
        return data[:, 0], data[:, header.index(name)]

    def test_sp2_cdf_atom_exact(self, curve_dir):
        s, sp2 = self._column(curve_dir / "cdf.csv", "sp2")
        emitted = sp2[s == 0.0][0]
        ok = emitted == float(f"{4.0 / 9.0:.9g}")
        report("10", ok, f"sp2 cdf(0) emitted as {emitted!r} (4/9 at output precision)")
        assert ok
        # and the library value itself is exactly 4/9
        model = make_model("sp2", CrossSectionSpec(1.0, 0.5))
        assert model.cdf(0.0) == 4.0 / 9.0

    def test_diffusion_hazard_anchor_at_s4(self, curve_dir):
        s, diffusion = self._column(curve_dir / "hazard.csv", "diffusion")
        value = diffusion[s == 4.0][0]
        rel = abs(value - SQRT3) / SQRT3
        ok = rel <= 0.01
        report("10", ok, f"diffusion hazard(4) = {value:.6f} vs sqrt(3) (rel dev {rel:.3f})")
        assert ok, (
            f"diffusion hazard at s=4 is 3s/(1+sqrt(3)s) = {value:.6f}, which is "
            f"{rel:.1%} below sqrt(3) = {SQRT3:.6f}; the approach to the asymptote "
            f"is ~1/(sqrt(3)s), so a 1% anchor needs s >= 57 mean free paths. "
            f"The stated tolerance at s=4 is unreachable with the mandated hazard "
            f"formula (it would require dropping the '1+' in the denominator)."
        )

    def test_sp3_hazard_anchor_at_s50(self, curve_dir):
        s, sp3 = self._column(curve_dir / "hazard.csv", "sp3")
        value = sp3[s == 50.0][0]
        rel = abs(value - 1.161256) / 1.161256
        ok = rel <= 0.001
        report("10", ok, f"sp3 hazard(50) = {value:.6f} vs 1.161256 (rel dev {rel:.4f})")
        assert ok, (
            f"sp3 hazard at s=50 is {value:.6f}, which is {rel:.2%} below the "
            f"asymptote 1.161256; the exact ratio tends to lambda_minus like "
            f"1/(1+lambda_minus s), so a 0.1% anchor needs s >= 861 mean free "
            f"paths. The stated tolerance at s=50 is unreachable with the "
            f"mandated two-exponential hazard formula."
        )
