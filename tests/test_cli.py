"""CLI front end: CSV schemas, config handling, verdicts, exit codes.

scipy's Student t and binomial tails are the oracle for the verdict's
allowances, which the package computes on its own.
"""

import argparse
import csv
import json
import math
import os

import numpy as np
import pytest
from scipy import special

from nonclassical_mc import CrossSectionSpec, closed_form, make_model
from nonclassical_mc.cli import (RunManifest, _allowed_over, _manifest_from_args, _write_csv,
                                 build_parser, compare_verdict, main)


def read_csv(path):
    """Parse one of our CSV artifacts: (metadata dict, header, float columns)."""
    metadata = {}
    rows = []
    header = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append([float(v) for v in line.split(",")])
    columns = {name: np.array([row[i] for row in rows]) for i, name in enumerate(header)}
    return metadata, header, columns


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("curves")
    code = run_cli("curves", "--sigma-t", "1.0",
                   "--points", "301", "--s-max", "6.0", "--out", str(out))
    assert code == 0
    return out


def test_csv_writer_golden(tmp_path, capsys):
    # integer columns as integers and the rest to 9 significant digits,
    # non-finite values and signed zero included: the row-by-row writer's
    # output, byte for byte
    counts = np.array([0, -7, 2**62, 123456789012, 1, 2], dtype=np.int64)
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 123456789.5])
    _write_csv(str(tmp_path), "golden.csv", {"command": "x", "n": np.int64(3), "v": 0.1},
               ["n", "v"], [counts, values])
    assert (tmp_path / "golden.csv").read_bytes() == (
        b"# command=x\n# n=3\n# v=0.1\nn,v\n0,nan\n-7,inf\n4611686018427387904,-inf\n"
        b"123456789012,-0\n1,1e-300\n2,123456790\n")
    assert capsys.readouterr().out == f"wrote {tmp_path / 'golden.csv'}\n"


class TestCurves:
    def test_schema(self, outputs):
        for name in ("hazard.csv", "density.csv", "cdf.csv"):
            metadata, header, columns = read_csv(outputs / name)
            assert header == ["s", "classical", "diffusion", "sp2", "sp3"]
            assert metadata["sp2_atom_at_zero"] == f"{4.0 / 9.0:.9g}"
            assert columns["s"].size == 301

    def test_density_at_zero(self, outputs):
        _, _, col = read_csv(outputs / "density.csv")
        assert col["classical"][0] == 1.0  # sigma_t
        assert col["diffusion"][0] == 0.0
        assert col["sp2"][0] == 0.0
        assert col["sp3"][0] == 0.0

    def test_cdf_at_zero(self, outputs):
        _, _, col = read_csv(outputs / "cdf.csv")
        assert col["sp2"][0] == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert col["classical"][0] == 0.0
        assert col["diffusion"][0] == 0.0
        assert col["sp3"][0] == 0.0

    def test_hazard_row_at_zero_is_continuous_limit(self, outputs):
        _, _, col = read_csv(outputs / "hazard.csv")
        xs = CrossSectionSpec(1.0, 0.5)
        for law in ("classical", "diffusion", "sp2", "sp3"):
            assert col[law][0] == make_model(law, xs).hazard(0.0)
        assert col["classical"][0] == 1.0
        assert col["sp2"][0] == 0.0

    def test_hazard_asymptotes_on_long_grid(self, tmp_path):
        # intent of the figure tables: the diffusion and sp3 hazards level
        # out at sqrt(3) and lambda_minus; the approach is like 1/s, so the
        # anchor needs s of a few hundred mean free paths
        code = run_cli("curves", "--sigma-t", "1.0",
                       "--s-min", "0", "--s-max", "2000", "--points", "2001",
                       "--out", str(tmp_path))
        assert code == 0
        _, _, col = read_csv(tmp_path / "hazard.csv")
        s = col["s"]
        assert col["diffusion"][s == 400.0][0] == pytest.approx(math.sqrt(3.0), rel=2e-3)
        assert col["sp3"][s == 2000.0][0] == pytest.approx(1.161256, rel=1e-3)
        assert np.all(col["classical"] == 1.0)

    def test_tables_do_not_read_scattering(self, tmp_path):
        # the tables depend on sigma_t * s alone: at sigma_t = 0.25, below the
        # sigma_s = 0.5 default of the other commands, curves still runs, and
        # its laws are those of the pure absorber
        assert run_cli("curves", "--sigma-t", "0.25", "--out", str(tmp_path)) == 0
        s = np.linspace(0.0, 24.0, 601)  # the default grid [0, 6 / sigma_t]
        xs = CrossSectionSpec(0.25, 0.0)
        for quantity in ("hazard", "density", "cdf"):
            _, _, col = read_csv(tmp_path / f"{quantity}.csv")
            for law in ("classical", "diffusion", "sp2", "sp3"):
                exact = getattr(make_model(law, xs), quantity)(s)
                np.testing.assert_array_equal(col[law], [float(f"{v:.9g}") for v in exact])

    def test_round_trip_parse(self, outputs):
        # schema stability: emitted files parse back with the csv module
        with open(outputs / "cdf.csv") as fh:
            data_lines = [ln for ln in fh if not ln.startswith("#")]
        parsed = list(csv.reader(data_lines))
        assert parsed[0] == ["s", "classical", "diffusion", "sp2", "sp3"]
        assert len(parsed) == 302


class TestSimulate:
    def test_deterministic_rerun_and_workers(self, tmp_path, monkeypatch):
        args = ("simulate", "--model", "diffusion", "--sigma-t", "1", "--sigma-s", "0.5",
                "--histories", "5000", "--batches", "10", "--seed", "9")
        blobs = {}
        for label, workers in (("w1", "1"), ("w2", "2"), ("w8", "8"), ("rerun", "2")):
            out = tmp_path / label
            monkeypatch.setenv("NONCLASSICAL_MC_WORKERS", workers)
            assert run_cli(*args, "--out", str(out)) == 0
            blobs[label] = (out / "tally.csv").read_bytes()
        assert blobs["w1"] == blobs["w2"] == blobs["w8"] == blobs["rerun"]

    def test_pure_absorber_summary(self, tmp_path, capsys):
        code = run_cli("simulate", "--model", "classical", "--sigma-t", "1",
                       "--sigma-s", "0", "--histories", "2000", "--batches", "10",
                       "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        captured = capsys.readouterr().out
        assert "collisions/history = 1 +- 0" in captured
        metadata, header, col = read_csv(tmp_path / "tally.csv")
        assert header == ["r_lo", "r_hi", "f_mean", "f_stderr", "n_scores"]
        assert metadata["collisions_per_history"] == "1"
        assert col["n_scores"].sum() <= 2000  # collisions beyond r_max score nothing

    def test_balance_in_metadata(self, tmp_path):
        code = run_cli("simulate", "--model", "sp2", "--sigma-t", "1", "--sigma-s", "0.5",
                       "--histories", "20000", "--batches", "20", "--seed", "2",
                       "--out", str(tmp_path))
        assert code == 0
        metadata, _, _ = read_csv(tmp_path / "tally.csv")
        mean = float(metadata["collisions_per_history"])
        se = float(metadata["collisions_per_history_se"])
        assert abs(mean - 2.0) <= 4.0 * se


@pytest.mark.parametrize("command, name, tail", [
    ("simulate", "tally.csv", []),
    # compare adds the oracle, the verdict's counts leg by leg and the verdict
    ("compare", "compare.csv", ["oracle_model", "eligible_shells", "shells_over_3sigma",
                                "allowed_over_3sigma", "shells_over_5sigma",
                                "allowed_over_5sigma", "verdict"])])
def test_tally_metadata_keys_in_order(tmp_path, command, name, tail):
    code = run_cli(command, "--model", "sp2", "--sigma-t", "2", "--sigma-s", "0.5",
                   "--histories", "2000", "--batches", "10", "--out", str(tmp_path))
    assert code in (0, 2)
    metadata, _, _ = read_csv(tmp_path / name)
    assert list(metadata) == ["command", "model", "sigma_t", "sigma_s", "histories", "batches",
                              "seed", "capture", "collisions_per_history",
                              "collisions_per_history_se", "zero_length_fraction",
                              "absorbed_weight_per_history", "faults", "capped", *tail]
    assert list(metadata.values())[:4] == [command, "sp2", "2", "0.5"]


class TestCappedHistories:
    CSV = {"simulate": "tally.csv", "compare": "compare.csv"}
    ARGS = ("--model", "classical", "--sigma-s", "0.99", "--histories", "200", "--batches", "10")

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_capped_histories_are_reported(self, command, tmp_path, monkeypatch, capsys):
        # a history stopped at the collision cap leaves its later collisions
        # unscored: one stderr line says so; the CSV, stdout and exit code
        # are those of any run
        monkeypatch.setattr("nonclassical_mc.engine.MAX_COLLISIONS", 5)
        monkeypatch.setenv("NONCLASSICAL_MC_WORKERS", "1")
        assert run_cli(command, *self.ARGS, "--out", str(tmp_path)) in (0, 2)
        metadata, _, _ = read_csv(tmp_path / self.CSV[command])
        capped = int(metadata["capped"])
        assert capped > 0
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert f"warning: {capped} histories were stopped at the collision cap" in captured.err
        assert "later collisions went unscored" in captured.err
        assert "warning" not in captured.out

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_uncapped_run_prints_no_warning(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NONCLASSICAL_MC_WORKERS", "1")
        assert run_cli(command, *self.ARGS, "--out", str(tmp_path)) in (0, 2)
        metadata, _, _ = read_csv(tmp_path / self.CSV[command])
        assert metadata["capped"] == "0"
        assert capsys.readouterr().err == ""


class TestCompare:
    def test_diffusion_pass(self, tmp_path):
        code = run_cli("compare", "--model", "diffusion", "--sigma-t", "1",
                       "--sigma-s", "0.5", "--histories", "200000", "--batches", "100",
                       "--seed", "5", "--out", str(tmp_path))
        assert code == 0
        metadata, header, col = read_csv(tmp_path / "compare.csv")
        assert header == ["r_mid", "f_mc", "stderr", "f_oracle", "z_score"]
        assert metadata["verdict"] == "PASS"

    def test_mismatched_oracle_fails_near_field(self, tmp_path):
        # sp2 histories against the diffusion closed form: the 4/9 atom
        # piles collisions into the near field, so inner shells blow past 5
        code = run_cli("compare", "--model", "sp2", "--oracle-model", "diffusion",
                       "--sigma-t", "1", "--sigma-s", "0.5", "--histories", "200000",
                       "--batches", "100", "--seed", "5", "--out", str(tmp_path))
        assert code == 2
        metadata, _, col = read_csv(tmp_path / "compare.csv")
        assert metadata["verdict"] == "FAIL"
        near = col["r_mid"] < 2.0
        assert np.max(np.abs(col["z_score"][near])) > 5.0

    def test_solver_oracle_pass_small(self, tmp_path):
        # the classical law is scored against Case's expansion
        code = run_cli("compare", "--model", "classical", "--sigma-t", "1", "--sigma-s", "0.5",
                       "--histories", "100000", "--batches", "100", "--seed", "5",
                       "--out", str(tmp_path))
        assert code == 0

    def test_weak_scattering_has_a_closed_form(self, tmp_path):
        # at c = 1e-4 the sp3 closed form once missed its own mass balance
        # (internal fault, exit 3); now the verdict decides
        code = run_cli("compare", "--model", "sp3", "--sigma-s", "1e-4",
                       "--histories", "20000", "--batches", "20", "--seed", "5",
                       "--out", str(tmp_path))
        assert code in (0, 2)
        metadata, _, _ = read_csv(tmp_path / "compare.csv")
        assert metadata["verdict"] in ("PASS", "FAIL")

    def test_sp3_high_scattering_pass(self, tmp_path):
        # at c = 0.9 the 512-node solver on [0, 12] is off by about 4.5% for
        # sp3 and 2.2% for classical, enough to FAIL these runs; the closed
        # form leaves statistical error only
        edges = np.linspace(0.0, 10.0, 65)
        for kind in ("sp3", "classical"):
            code = run_cli("compare", "--model", kind, "--sigma-s", "0.9",
                           "--histories", "1000000", "--batches", "100", "--seed", "5",
                           "--out", str(tmp_path / kind))
            assert code == 0, kind
            _, _, col = read_csv(tmp_path / kind / "compare.csv")
            exact = closed_form(make_model(kind, CrossSectionSpec(1.0, 0.9))).shell_averages(edges)
            np.testing.assert_array_equal(col["f_oracle"], [float(f"{v:.9g}") for v in exact])


class TestVerdictRule:
    SHELLS = 64
    BATCHES = 100

    def verdict(self, z, n_scores=None, batches=BATCHES):
        z = np.asarray(z, dtype=float)
        if n_scores is None:
            n_scores = np.full(z.size, 1000)
        return compare_verdict(z, np.asarray(n_scores), batches)

    def test_allowance_at_defaults(self):
        # P(|t_99| > 3) = 0.0034, so 64 shells allow 2: P(Binomial > 2) = 0.0014
        assert _allowed_over(3.0, self.SHELLS, self.BATCHES) == 2
        assert _allowed_over(3.0, 10, self.BATCHES) == 1
        assert _allowed_over(3.0, 0, self.BATCHES) == 0
        # fewer batches give fatter t tails and a larger allowance
        assert _allowed_over(3.0, self.SHELLS, 10) > 2

    @pytest.mark.parametrize("threshold", [3.0, 5.0])
    def test_allowances_match_scipy(self, threshold):
        # the smallest k with P(Binomial(n, P(|t_(batches-1)| > T)) > k) <= 1%,
        # by scipy's stdtr and bdtrc
        shells = [*range(80), 100, 128, 256, 512, 1_000, 10_000]
        batches = [*range(10, 60), 64, 100, 128, 200, 500, 1_000, 10_000, 1_000_000]
        for b in batches:
            p = 2.0 * special.stdtr(b - 1, -threshold)
            for n in shells:
                k = 0
                while special.bdtrc(k, n, p) > 0.01:
                    k += 1
                assert _allowed_over(threshold, n, b) == k, (n, b)

    def test_clean_run_passes(self):
        passed, counts = self.verdict(np.zeros(self.SHELLS))
        assert passed
        assert counts == {"eligible_shells": 64, "shells_over_3sigma": 0,
                          "allowed_over_3sigma": 2, "shells_over_5sigma": 0,
                          "allowed_over_5sigma": 0}

    def test_3sigma_leg(self):
        z = np.zeros(self.SHELLS)
        z[[3, 40]] = [3.5, -4.2]
        assert self.verdict(z)[0]
        z[50] = 3.1
        passed, counts = self.verdict(z)
        assert not passed
        assert counts["shells_over_3sigma"] == 3

    def test_5sigma_leg(self):
        z = np.zeros(self.SHELLS)
        z[7] = -5.5
        passed, counts = self.verdict(z)
        assert not passed
        assert counts["shells_over_5sigma"] == 1

    def test_5sigma_allowance(self):
        # P(|t_9| > 5) = 7.4e-4: with no allowance a correct 64-shell run at
        # 10 batches would FAIL the 5-sigma leg about 4.6% of the time
        assert _allowed_over(5.0, self.SHELLS, 10) == 1
        assert _allowed_over(5.0, self.SHELLS, 20) == 0
        assert _allowed_over(5.0, self.SHELLS, self.BATCHES) == 0
        assert _allowed_over(5.0, 0, 10) == 0

    def test_5sigma_leg_at_10_batches(self):
        z = np.zeros(self.SHELLS)
        z[7] = -5.5
        passed, counts = self.verdict(z, batches=10)
        assert passed
        assert counts["shells_over_5sigma"] == 1
        assert counts["allowed_over_5sigma"] == 1
        z[20] = 6.0
        assert not self.verdict(z, batches=10)[0]

    def test_ineligible_shells_do_not_count(self):
        z = np.zeros(self.SHELLS)
        n_scores = np.full(self.SHELLS, 1000)
        z[:10] = 9.0
        n_scores[:10] = 99
        z[10] = np.nan
        passed, counts = self.verdict(z, n_scores)
        assert passed
        assert counts["eligible_shells"] == 53

    def test_nothing_eligible_fails(self):
        assert not self.verdict(np.zeros(4), np.zeros(4))[0]

    def test_false_fail_rate_on_correct_runs(self):
        # z drawn as the verdict sees them on a correct run: t statistics
        # with batches - 1 degrees of freedom; the 3-sigma leg allows 1%
        # false FAILs and the 5-sigma leg about 2e-4
        rng = np.random.default_rng(2024)
        runs = 20_000
        z = rng.standard_t(self.BATCHES - 1, size=(runs, self.SHELLS))
        fails = sum(not self.verdict(row)[0] for row in z)
        rate = fails / runs
        assert rate <= 0.01 + 0.0002 + 4.0 * math.sqrt(0.01 / runs)

    def test_false_fail_rate_at_10_batches(self):
        # each leg allows 1% false FAILs, so together at most 2%
        rng = np.random.default_rng(10)
        runs = 20_000
        z = rng.standard_t(9, size=(runs, self.SHELLS))
        fails = sum(not self.verdict(row, batches=10)[0] for row in z)
        rate = fails / runs
        assert rate <= 0.02 + 4.0 * math.sqrt(0.02 / runs)


class TestReference:
    def test_schema_and_solve_report(self, tmp_path):
        code = run_cli("reference", "--model", "sp3", "--sigma-t", "1", "--sigma-s", "0.99",
                       "--out", str(tmp_path))
        assert code == 0
        metadata, header, col = read_csv(tmp_path / "reference.csv")
        assert header == ["r", "f"]
        assert int(metadata["iterations"]) == 1
        assert float(metadata["residual"]) < float(metadata["tol"])
        assert 0.0 < float(metadata["rcond"]) <= 1.0
        assert np.all(col["f"] > 0.0)

    @pytest.mark.parametrize("c, low, high", [("0.5", 0.0, 1e-4), ("0.99", 0.4, 0.6)])
    def test_mass_error_shows_the_lost_mass(self, tmp_path, capsys, c, low, high):
        # the default domain, 12 mean free paths, misses almost no collision
        # at c = 0.5 and about half of them at c = 0.99
        assert run_cli("reference", "--model", "sp3", "--sigma-s", c, "--out", str(tmp_path)) == 0
        metadata, _, _ = read_csv(tmp_path / "reference.csv")
        mass_error = float(metadata["mass_error"])
        volume = float(metadata["volume_integral"])
        # volume_integral is written to 9 digits
        expected = abs((1.0 - float(c)) * volume - 1.0)
        assert mass_error == pytest.approx(expected, rel=1e-6, abs=1e-8)
        assert low <= mass_error < high
        assert f"mass_error = {metadata['mass_error']}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("law, c, bound", [
        ("diffusion", "0", 1e-14), ("sp2", "0", 1e-14), ("sp3", "0", 1e-14),
        ("classical", "0", 1e-7), ("sp3", "0.5", 1e-3)])
    def test_closed_form_gap_where_the_solve_is_right(self, tmp_path, capsys, law, c, bound):
        # at c = 0 f is the first flight, which the rational closed forms
        # equal to rounding and the classical one to its continuum rule's
        # error; at c = 0.5 the sp3 gap is the O(h^2) quadrature error
        assert run_cli("reference", "--model", law, "--sigma-s", c, "--out", str(tmp_path)) == 0
        metadata, _, _ = read_csv(tmp_path / "reference.csv")
        assert 0.0 <= float(metadata["closed_form_gap"]) < bound
        assert f"closed_form_gap = {metadata['closed_form_gap']}\n" in capsys.readouterr().out

    def test_closed_form_gap_flags_the_classical_overshoot(self, tmp_path):
        # on [0, 60] with 3,072 nodes the classical O(h) quadrature
        # over-integrates its log-singular kernel at c = 0.99: f ends up 49%
        # above the closed form at r = 30, and the solve still passes
        assert run_cli("reference", "--model", "classical", "--sigma-s", "0.99",
                       "--oracle-rmax", "60", "--oracle-nodes", "3072",
                       "--out", str(tmp_path)) == 0
        metadata, _, col = read_csv(tmp_path / "reference.csv")
        gap = float(metadata["closed_form_gap"])
        assert gap > 0.1
        r, f = col["r"], col["f"]
        exact = closed_form(make_model("classical", CrossSectionSpec(1.0, 0.99))).density(r)
        w = np.full(r.size, r[0])  # the trapezoid weights, halved at r_max
        w[-1] /= 2.0
        expected = np.sum(w * r * r * np.abs(f - exact)) / np.sum(w * r * r * exact)
        assert gap == pytest.approx(expected, rel=1e-6)  # f is written to 9 digits

    def test_singular_oracle_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("nonclassical_mc.reference._operator",
                            lambda model, g, c: (np.zeros(2 * g.m + 1), np.zeros(g.m)))
        assert run_cli("reference", "--model", "sp3", "--sigma-t", "1",
                       "--sigma-s", "0.5", "--out", str(tmp_path)) == 3
        assert "oracle solve failed" in capsys.readouterr().err

    def test_supercritical_oracle_exits_3(self, tmp_path, capsys):
        # the classical quadrature at c = 0.9999 on a long refined domain
        # would give f < 0 at 2,398 of 3,072 nodes
        assert run_cli("reference", "--model", "classical", "--sigma-s", "0.9999",
                       "--oracle-rmax", "60", "--oracle-nodes", "3072",
                       "--out", str(tmp_path)) == 3
        assert "supercritical" in capsys.readouterr().err
        assert not (tmp_path / "reference.csv").exists()


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, monkeypatch):
        config = {"model": "classical", "sigma_t": 1.0, "sigma_s": 0.0,
                  "histories": 2000, "batches": 10, "seed": 4, "out": str(tmp_path / "a")}
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert run_cli("simulate", "--config", str(config_path)) == 0
        assert (tmp_path / "a" / "tally.csv").exists()
        # flag overrides the file's output directory
        assert run_cli("simulate", "--config", str(config_path),
                       "--out", str(tmp_path / "b")) == 0
        assert (tmp_path / "b" / "tally.csv").exists()

    def test_unknown_config_key(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"sigma_total": 1.0}))
        assert run_cli("simulate", "--config", str(config_path)) == 1

    def test_malformed_json(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{not json")
        assert run_cli("simulate", "--config", str(config_path)) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("simulate", "--config", str(tmp_path / "nope.json")) == 1

    @pytest.mark.parametrize("command, key, value", [
        ("simulate", "oracle_nodes", 10), ("compare", "points", 1),
        ("curves", "histories", 2000), ("reference", "oracle_model", "sp2")])
    def test_other_commands_key_is_unknown(self, tmp_path, capsys, command, key, value):
        # a command's config keys are its own flags: another command's key
        # would be ignored or, worse, refuse the run over a value never read
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: value}))
        out = tmp_path / "new" / "out"
        assert run_cli(command, "--config", str(config_path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err
        assert not (tmp_path / "new").exists()

    def test_source_strength_is_an_unknown_key(self, tmp_path, capsys):
        config_path = tmp_path / "q2.json"
        config_path.write_text(json.dumps({"source_strength": 2.0}))
        out = tmp_path / "new" / "out"
        assert run_cli("compare", "--config", str(config_path), "--out", str(out)) == 1
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()


class TestExitCodes:
    @pytest.mark.parametrize("command", ["simulate", "reference", "compare"])
    def test_invalid_medium(self, tmp_path, capsys, command):
        # each command that reads sigma_s refuses sigma_s > sigma_t before any work
        out = tmp_path / "new" / "out"
        assert run_cli(command, "--sigma-t", "1", "--sigma-s", "1.5", "--out", str(out)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_invalid_batching(self, tmp_path):
        assert run_cli("simulate", "--histories", "5", "--batches", "10",
                       "--out", str(tmp_path)) == 1

    def test_invalid_curve_grid(self, tmp_path):
        assert run_cli("curves", "--s-min", "5", "--s-max", "1",
                       "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize("args", [
        ("simulate", "--histories", "5"),
        ("curves", "--s-min", "5", "--s-max", "1"),
        ("compare", "--histories", "5"),
    ])
    def test_rejected_config_leaves_no_directory(self, tmp_path, capsys, args):
        out = tmp_path / "new" / "out"
        assert run_cli(*args, "--out", str(out)) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_unwritable_out(self, tmp_path, capsys):
        # a regular file where the directory should go; root ignores mode bits
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("curves", "--points", "3", "--out", str(blocker / "out")) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_usage_error(self):
        assert run_cli("simulate", "--model", "p7") == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("workers", ["abc", "0", "-2"])
    def test_bad_worker_count(self, tmp_path, monkeypatch, capsys, command, workers):
        monkeypatch.setenv("NONCLASSICAL_MC_WORKERS", workers)
        assert run_cli(command, "--histories", "2000", "--batches", "10",
                       "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "NONCLASSICAL_MC_WORKERS must be a positive integer" in err

    def test_integral_float_counts_in_config_file(self, tmp_path):
        # JSON has no integer type for 1e4; integral values are accepted
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"histories": 2e3, "batches": 10.0, "shells": 16.0,
                                           "seed": 3.0, "out": str(tmp_path)}))
        assert run_cli("simulate", "--config", str(config_path)) == 0
        metadata, _, columns = read_csv(tmp_path / "tally.csv")
        assert metadata["histories"] == "2000"
        assert columns["n_scores"].size == 16

    @pytest.mark.parametrize("field", ["histories", "batches", "shells", "seed"])
    def test_non_integral_count_in_config_file(self, tmp_path, capsys, field):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"histories": 2000, field: 12.5,
                                           "out": str(tmp_path)}))
        assert run_cli("simulate", "--config", str(config_path)) == 1
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, settings, message", [
        ("reference", {"oracle_nodes": 100.5}, "oracle_nodes must be an integer"),
        ("curves", {"points": 60.5}, "points must be an integer"),
        ("reference", {"oracle_nodes": 0}, "oracle_nodes must be at least 256"),
        ("reference", {"oracle_nodes": 1}, "oracle_nodes must be at least 256"),
        ("reference", {"oracle_nodes": True}, "oracle_nodes must be an integer"),
    ])
    def test_bad_grid_size_in_config_file(self, tmp_path, capsys, command, settings, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({**settings, "out": str(tmp_path)}))
        assert run_cli(command, "--config", str(config_path)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert message in err

    @pytest.mark.parametrize("args, field", [
        (["reference", "--oracle-rmax", "-1"], "oracle_rmax"),
        (["reference", "--oracle-rmax", "0"], "oracle_rmax"),
        (["reference", "--oracle-rmax", "nan"], "oracle_rmax"),
        (["reference", "--oracle-tol", "-1"], "oracle_tol"),
        (["reference", "--oracle-tol", "0"], "oracle_tol"),
        (["reference", "--oracle-tol", "nan"], "oracle_tol"),
        (["simulate", "--rmax", "nan"], "r_max"),
        (["simulate", "--rmax", "inf"], "r_max"),
        (["curves", "--s-max", "inf"], "s_max"),
    ])
    def test_non_finite_or_non_positive_float(self, tmp_path, capsys, args, field):
        # rejected in the configuration phase, before any solve or history
        assert run_cli(*args, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert field in err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("sigma_s", ["0", "0.5"])
    def test_oracle_grid_coarser_than_a_mean_free_path(self, tmp_path, capsys, sigma_s):
        # 1e6 / 256 mean free paths between nodes: the solve would give a nan
        # closed_form_gap (sigma_s = 0) or a nan residual (sigma_s = 0.5)
        out = tmp_path / "out"
        assert run_cli("reference", "--model", "sp3", "--sigma-s", sigma_s,
                       "--oracle-rmax", "1e6", "--oracle-nodes", "256", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "oracle node spacing" in err and "3906.25" in err
        assert not out.exists()

    def test_oracle_grid_of_one_mean_free_path_is_accepted(self):
        from nonclassical_mc.cli import RunManifest

        RunManifest("reference", sigma_t=2.0, oracle_rmax=128.0, oracle_nodes=256)
        with pytest.raises(ValueError, match="oracle node spacing"):
            RunManifest("reference", sigma_t=2.0, oracle_rmax=128.5, oracle_nodes=256)

    def test_tolerance_below_rounding_is_oracle_fault(self, tmp_path, capsys):
        # a positive tolerance is accepted; one the solve cannot reach exits 3
        assert run_cli("reference", "--oracle-tol", "1e-20", "--out", str(tmp_path)) == 3
        assert "oracle solve failed" in capsys.readouterr().err

    def test_integral_float_points_in_config_file(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"points": 61.0, "out": str(tmp_path)}))
        assert run_cli("curves", "--config", str(config_path)) == 0

    def test_oracle_grid_too_short_for_shells(self, tmp_path, capsys):
        # compare has no oracle grid: every shell out to --rmax gets the
        # closed form
        args = ("compare", "--model", "classical", "--sigma-t", "1", "--sigma-s", "0.5",
                "--histories", "2000", "--batches", "10", "--rmax", "10")
        assert run_cli(*args, "--out", str(tmp_path)) != 1
        _, _, col = read_csv(tmp_path / "compare.csv")
        assert col["f_oracle"].size == 64
        assert np.all(np.isfinite(col["f_oracle"]))
        # and it takes none of the grid's flags: each is a usage error
        for flag, value in (("--oracle-nodes", "100000"), ("--oracle-tol", "0.5"),
                            ("--oracle-rmax", "30")):
            other = tmp_path / "other"
            assert run_cli(*args, flag, value, "--out", str(other)) == 1
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not other.exists()

    @pytest.mark.parametrize("args", [
        ("curves", "--model", "sp3"), ("curves", "--sigma-s", "0"), ("curves", "--seed", "2"),
        ("reference", "--oracle-model", "sp2")],
        ids=["curves-model", "curves-sigma-s", "curves-seed", "reference-oracle-model"])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, tmp_path, capsys, args):
        assert run_cli(*args, "--out", str(tmp_path / "out")) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oracle_nonconvergence_is_internal_fault(self, tmp_path, monkeypatch):
        from nonclassical_mc import ConvergenceError

        def stalled(*args, **kwargs):
            raise ConvergenceError("stalled", residual=1.0)

        monkeypatch.setattr("nonclassical_mc.cli.solve_integral_equation", stalled)
        assert run_cli("reference", "--model", "sp2", "--sigma-t", "1",
                       "--sigma-s", "0.5", "--out", str(tmp_path)) == 3


class TestEachCommandReadsItsFlags:
    """A flag the command never reads is a knob that changes nothing, and a
    config key of it would move a run manifest's hash with no effect."""

    FLAGS = {
        "curves": "--config --out --sigma-t --s-min --s-max --points",
        "simulate": "--config --out --model --sigma-t --sigma-s --seed --histories --batches "
                    "--rmax --shells --capture",
        "reference": "--config --out --model --sigma-t --sigma-s --seed --oracle-tol "
                     "--oracle-nodes --oracle-rmax",
    }
    FLAGS["compare"] = FLAGS["simulate"] + " --oracle-model"
    # reference reads no seed; it takes --seed so that one argument list (the
    # benchmark's, for one) serves every command
    UNREAD = {"reference": {"seed"}}
    SMALL = ["--histories", "200", "--batches", "10"]

    @staticmethod
    def subparser(command):
        return next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices[command]

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_accepted_flags(self, command):
        options = {option for action in self.subparser(command)._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert options == set(self.FLAGS[command].split())

    @pytest.mark.parametrize("argv", [
        ["curves", "--points", "11"],
        ["simulate", *SMALL],
        ["simulate", "--capture", "implicit", *SMALL],
        ["reference", "--oracle-nodes", "256"],
        ["compare", *SMALL],
        ["compare", "--oracle-model", "sp2", *SMALL],
    ], ids=["curves", "simulate-analog", "simulate-implicit", "reference", "compare",
            "compare-oracle-model"])
    def test_every_flag_is_read(self, argv, tmp_path, monkeypatch):
        monkeypatch.setenv("NONCLASSICAL_MC_WORKERS", "1")
        read = set()

        class Recording(RunManifest):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        args = build_parser().parse_args(argv + ["--out", str(tmp_path)])
        manifest = _manifest_from_args(args)
        manifest.__class__ = Recording  # record only what the command itself reads
        assert args.run(manifest) in (0, 2)
        command = argv[0]
        dests = {action.dest for action in self.subparser(command)._actions} - {"help", "config"}
        assert dests - read == self.UNREAD.get(command, set())
