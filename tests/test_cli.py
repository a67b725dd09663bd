"""CLI front end: CSV schemas, config handling, verdicts, exit codes."""

import csv
import json
import math
import os

import numpy as np
import pytest

from nonclassical_mc.cli import allowed_over_3sigma, compare_verdict, main


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
    code = run_cli("curves", "--sigma-t", "1.0", "--sigma-s", "0.5",
                   "--points", "301", "--s-max", "6.0", "--out", str(out))
    assert code == 0
    return out


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
        assert col["classical"][0] == 1.0
        assert col["sp2"][0] == 0.0

    def test_hazard_asymptotes_on_long_grid(self, tmp_path):
        # intent of the figure tables: the diffusion and sp3 hazards level
        # out at sqrt(3) and lambda_minus; the approach is like 1/s, so the
        # anchor needs s of a few hundred mean free paths
        code = run_cli("curves", "--sigma-t", "1.0", "--sigma-s", "0.5",
                       "--s-min", "0", "--s-max", "2000", "--points", "2001",
                       "--out", str(tmp_path))
        assert code == 0
        _, _, col = read_csv(tmp_path / "hazard.csv")
        s = col["s"]
        assert col["diffusion"][s == 400.0][0] == pytest.approx(math.sqrt(3.0), rel=2e-3)
        assert col["sp3"][s == 2000.0][0] == pytest.approx(1.161256, rel=1e-3)
        assert np.all(col["classical"] == 1.0)

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
        code = run_cli("compare", "--model", "sp3", "--sigma-t", "1", "--sigma-s", "0.5",
                       "--histories", "100000", "--batches", "100", "--seed", "5",
                       "--oracle-nodes", "512", "--out", str(tmp_path))
        assert code == 0


class TestVerdictRule:
    SHELLS = 64
    BATCHES = 100

    def verdict(self, z, n_scores=None):
        z = np.asarray(z, dtype=float)
        if n_scores is None:
            n_scores = np.full(z.size, 1000)
        return compare_verdict(z, np.asarray(n_scores), self.BATCHES)

    def test_allowance_at_defaults(self):
        # P(|t_99| > 3) = 0.0034, so 64 shells allow 2: P(Binomial > 2) = 0.0014
        assert allowed_over_3sigma(self.SHELLS, self.BATCHES) == 2
        assert allowed_over_3sigma(10, self.BATCHES) == 1
        assert allowed_over_3sigma(0, self.BATCHES) == 0
        # fewer batches give fatter t tails and a larger allowance
        assert allowed_over_3sigma(self.SHELLS, 10) > 2

    def test_clean_run_passes(self):
        passed, counts = self.verdict(np.zeros(self.SHELLS))
        assert passed
        assert counts == {"eligible_shells": 64, "shells_over_3sigma": 0,
                          "allowed_over_3sigma": 2, "shells_over_5sigma": 0}

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


class TestExitCodes:
    def test_invalid_medium(self, tmp_path):
        assert run_cli("simulate", "--sigma-t", "1", "--sigma-s", "1.5",
                       "--out", str(tmp_path)) == 1

    def test_invalid_batching(self, tmp_path):
        assert run_cli("simulate", "--histories", "5", "--batches", "10",
                       "--out", str(tmp_path)) == 1

    def test_invalid_curve_grid(self, tmp_path):
        assert run_cli("curves", "--s-min", "5", "--s-max", "1",
                       "--out", str(tmp_path)) == 1

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

    def test_oracle_grid_too_short_for_shells(self, tmp_path):
        # rejected before any histories run
        assert run_cli("compare", "--model", "sp2", "--sigma-t", "1", "--sigma-s", "0.5",
                       "--histories", "2000", "--batches", "10", "--rmax", "10",
                       "--oracle-rmax", "6", "--out", str(tmp_path)) == 1

    def test_oracle_nonconvergence_is_internal_fault(self, tmp_path, monkeypatch):
        from nonclassical_mc import ConvergenceError

        def stalled(*args, **kwargs):
            raise ConvergenceError("stalled", residual=1.0, iterations=84)

        monkeypatch.setattr("nonclassical_mc.cli.solve_integral_equation", stalled)
        assert run_cli("reference", "--model", "sp2", "--sigma-t", "1",
                       "--sigma-s", "0.5", "--out", str(tmp_path)) == 3
