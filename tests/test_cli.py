import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from rmquant import (CevParams, GbmParams, Schedule, VanillaPayoff,
                     cev_model, european_price, gbm_exact_marginal,
                     load_sequence_json, rmq_run)
from rmquant import cli, oracles, sde_models
from rmquant.cli import main
from rmquant.sde_models import cev_transition


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema:")
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return lines[0], rows


class TestVq:
    def test_normal_50(self, tmp_path):
        out = tmp_path / "vq.csv"
        rc = main(["vq", "--dist", "normal", "--n", "50", "--iters", "20",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 50
        psum = sum(float(r["probability"]) for r in rows)
        assert abs(psum - 1.0) < 1e-10

    def test_ncx2_single_point_is_mean(self, tmp_path):
        out = tmp_path / "vq.csv"
        rc = main(["vq", "--dist", "ncx2", "--lambda", "0", "--n", "1",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["codeword"]) == pytest.approx(1.0, abs=1e-8)

    def test_ncx2_missing_lambda_is_usage_error(self, tmp_path):
        rc = main(["vq", "--dist", "ncx2", "--n", "5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_dist_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["vq", "--dist", "exponential", "--n", "5"])
        assert exc.value.code == 2

    def test_non_convergence_exit_code(self, tmp_path):
        rc = main(["vq", "--dist", "normal", "--n", "400", "--iters", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestRmq:
    def test_gbm_defaults_grid_shape(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["rmq", "--model", "gbm", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 12 * 200
        steps = {int(r["step"]) for r in rows}
        assert steps == set(range(1, 13))

    def test_cev_low_alpha_free_fails_with_suggestion(self, tmp_path, capsys):
        rc = main(["rmq", "--model", "cev", "--s0", "0.5", "--alpha", "0.35",
                   "--sigma-ln", "0.5", "--N", "100",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "step" in err and "boundary" in err

    def test_cev_low_alpha_reflecting_succeeds(self, tmp_path):
        out = tmp_path / "grid.csv"
        rc = main(["rmq", "--model", "cev", "--s0", "0.5", "--alpha", "0.35",
                   "--sigma-ln", "0.5", "--N", "100", "--boundary",
                   "reflecting", "--out", str(out)])
        assert rc == 0

    def test_tied_codewords_are_a_numerical_failure(self, capsys):
        # the step's spread is below one ulp of s0, so every codeword is s0
        assert main(["rmq", "--T", "1e-300", "--K", "2", "--N", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "step 1: codewords must be strictly increasing" in err

    def test_collapsed_regions_are_a_numerical_failure(self, capsys):
        # the codewords are adjacent floats of s0, so midpoints coincide
        assert main(["rmq", "--T", "1e-30", "--K", "2", "--N", "5",
                     "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "step 1: codewords are too close" in err

    def test_json_dump_reprices_identically(self, tmp_path):
        out = tmp_path / "seq.json"
        rc = main(["rmq", "--model", "gbm", "--N", "60", "--K", "6",
                   "--scheme", "weak2", "--format", "json", "--out", str(out)])
        assert rc == 0
        with open(out) as fh:
            seq = load_sequence_json(fh)
        p1 = european_price(seq, VanillaPayoff("put", 100.0), 0.05)
        with open(out) as fh:
            seq2 = load_sequence_json(fh)
        p2 = european_price(seq2, VanillaPayoff("put", 100.0), 0.05)
        assert p1 == p2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["rmq", "--N", "40", "--K", "3",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPrice:
    def test_european_strike_sweep(self, tmp_path):
        out = tmp_path / "prices.csv"
        rc = main(["price", "european", "--model", "gbm", "--scheme", "weak2",
                   "--strikes", "0.7:1.3:13", "--N", "100",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 13
        assert float(rows[0]["strike_or_level"]) == pytest.approx(70.0)
        assert float(rows[-1]["strike_or_level"]) == pytest.approx(130.0)
        for r in rows:
            assert r["reference"] != ""
            assert float(r["abs_error"]) < 0.2

    def test_bermudan_uses_fd_reference(self, tmp_path):
        out = tmp_path / "prices.csv"
        rc = main(["price", "bermudan", "--model", "gbm", "--N", "100",
                   "--fd-time-steps", "300", "--fd-space-steps", "400",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["reference"]) > 9.0
        assert float(rows[0]["abs_error"]) < 0.2

    def test_barrier_requires_seed(self, tmp_path):
        rc = main(["price", "barrier", "--model", "gbm",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_barrier_with_seed(self, tmp_path):
        out = tmp_path / "prices.csv"
        rc = main(["price", "barrier", "--model", "gbm", "--N", "100",
                   "--levels", "1.1:1.3:3", "--seed", "99",
                   "--mc-paths", "20000", "--mc-steps", "120",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 3
        for r in rows:
            assert r["std_error"] != ""
            assert float(r["std_error"]) > 0.0

    def test_gbm_barrier_reference_is_exact_at_the_dates(self, tmp_path):
        # At K=1 an up-and-out put whose level is above an at-the-money
        # strike is the plain put: S_T < strike < level on every path that
        # pays.  Drawn exactly, its reference is an unbiased Monte Carlo
        # estimate of the Black-Scholes put.
        out = tmp_path / "prices.csv"
        rc = main(["price", "barrier", "--K", "1", "--N", "20",
                   "--levels", "1.05:1.5:4", "--seed", "5",
                   "--mc-paths", "200000", "--out", str(out)])
        assert rc == 0
        bs = oracles.black_scholes("put", 100.0, 100.0, 0.05, 0.3, 1.0)
        _, rows = read_csv(out)
        assert len(rows) == 4
        for r in rows:
            se = float(r["std_error"])
            assert 0.0 < se < 0.05
            assert abs(float(r["reference"]) - bs) < 4 * se

    def test_json_format(self, tmp_path):
        out = tmp_path / "prices.json"
        rc = main(["price", "european", "--model", "gbm", "--N", "80",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "rmquant.prices.v1"
        assert len(doc["rows"]) == 1

    def test_cev_european_uses_mc_reference(self, tmp_path):
        out = tmp_path / "prices.csv"
        rc = main(["price", "european", "--model", "cev", "--N", "80",
                   "--seed", "12", "--mc-paths", "20000", "--mc-steps", "60",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0]["std_error"] != ""
        assert float(rows[0]["reference"]) > 0.0

    def test_cev_european_without_seed_is_usage_error(self, tmp_path):
        rc = main(["price", "european", "--model", "cev",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_cev_reference_reaching_zero_is_numerical_failure(
            self, tmp_path, capsys):
        # The free-boundary grids stay positive, but Monte Carlo paths
        # reach zero, where the CEV coefficients are undefined.
        rc = main(["price", "european", "--model", "cev", "--s0", "0.5",
                   "--alpha", "0.35", "--sigma-ln", "0.5", "--K", "12",
                   "--N", "50", "--seed", "1", "--mc-paths", "20000",
                   "--mc-steps", "120", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "boundary" in capsys.readouterr().err

    def test_exact_reference_without_a_quantile_is_numerical_failure(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sde_models, "chndtrix",
                            lambda u, df, nc: np.full(np.shape(u), np.nan))
        rc = main(["price", "european", *CEV_REFLECTING, "--K", "3",
                   "--N", "20", "--seed", "1", "--mc-paths", "100",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "no quantile" in capsys.readouterr().err

    def test_single_path_reference_has_zero_standard_error(self, tmp_path):
        out = tmp_path / "prices.csv"
        rc = main(["price", "european", "--model", "cev", "--N", "40",
                   "--K", "3", "--seed", "1", "--mc-paths", "1",
                   "--mc-steps", "12", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[0]["std_error"]) == 0.0


class TestConvergence:
    def test_small_study(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = main(["convergence", "--schemes", "euler", "--K-list", "2,4,8",
                   "--N", "100", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        points = [r for r in rows if r["kind"] == "point"]
        slopes = [r for r in rows if r["kind"] == "slope"]
        assert len(points) == 3 and len(slopes) == 1
        assert 0.5 < float(slopes[0]["beta"]) < 1.5

    @pytest.mark.parametrize("boundary", ["reflecting", "absorbing"])
    def test_cev_target_is_the_exact_mean(self, tmp_path, boundary):
        # Reflected at zero with alpha < 1/2, the CEV mean is 3.5e-5 above
        # the forward; absorbed there, it is the forward.
        out = tmp_path / "conv.json"
        assert main(["convergence", *CEV_REFLECTING, "--boundary", boundary,
                     "--schemes", "weak2", "--K-list", "2,3,4", "--N", "20",
                     "--format", "json", "--out", str(out)]) == 0
        points = [r for r in json.loads(out.read_text())["rows"]
                  if r["kind"] == "point"]
        params = CevParams(s0=0.5, r=0.05, alpha=0.35, sigma_ln=0.5)
        target = 0.5 * np.exp(0.05)
        if boundary == "reflecting":
            target = cev_transition(params, 1.0, boundary).mean(0.5)
            assert target == pytest.approx(0.5256708816, abs=1e-9)
        assert len(points) == 3
        for row in points:
            seq = rmq_run(cev_model(params), "weak2", 0.5,
                          Schedule(T=1.0, K=row["K"], n_per_step=20), boundary)
            assert row["abs_error"] == abs(seq.terminal_mean() - target)

    def test_too_few_k_values(self, tmp_path, capsys, monkeypatch):
        rc = main(["convergence", "--schemes", "euler", "--K-list", "8",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        # repeated entries are one step count: refused before the first run
        monkeypatch.setattr(cli, "rmq_steps", lambda *args: pytest.fail(
            "the K list should be refused before quantization runs"))
        for k_list in ("2,2,2", "2,4,4"):
            assert main(["convergence", "--schemes", "euler", "--K-list",
                         k_list, "--N", "10"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "3 distinct K values" in err

    def test_bad_k_is_refused_before_quantizing(self, capsys, monkeypatch):
        def quantize(*args, **kwargs):
            pytest.fail("the K list should be refused before quantization runs")

        monkeypatch.setattr(cli, "rmq_steps", quantize)
        assert main(["convergence", "--schemes", "weak2", "--K-list", "8,16,0",
                     "--N", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "K must be >= 1, got 0" in err

    def test_step_count_flag_is_refused(self, tmp_path):
        # The step counts come from --K-list alone.
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--schemes", "euler", "--K", "12",
                  "--K-list", "2,4,8", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestDistError:
    def test_gbm_profile(self, tmp_path):
        out = tmp_path / "de.csv"
        rc = main(["dist-error", "--model", "gbm", "--schemes",
                   "euler,weak2", "--N", "100", "--grid-points", "200",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        sups = {r["scheme"]: float(r["sup_error"])
                for r in rows if r["kind"] == "sup"}
        assert set(sups) == {"euler", "weak2"}
        assert sups["weak2"] < sups["euler"] < 0.1
        points = [r for r in rows if r["kind"] == "point"]
        assert len(points) == 2 * 200

    def test_single_step_implies_the_law_from_s0(self, tmp_path):
        # at K=1 the implied law is the one euler update out of s0
        out = tmp_path / "de.csv"
        assert main(["dist-error", "--model", "gbm", "--K", "1", "--schemes",
                     "euler", "--N", "30", "--grid-points", "50",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        points = [r for r in rows if r["kind"] == "point"]
        assert len(points) == 50
        x = np.array([float(r["x"]) for r in points])
        err = np.array([float(r["error"]) for r in points])
        ref = gbm_exact_marginal(GbmParams(s0=100.0, r=0.05, sigma=0.3), 1.0)
        implied = ndtr((x - 105.0) / 30.0)
        assert np.max(np.abs(err - (implied - ref.cdf(x)))) < 1e-12

    @pytest.mark.parametrize("flag", ["--seed", "--mc-paths", "--mc-steps"])
    def test_gbm_refuses_monte_carlo_flags(self, tmp_path, capsys, flag):
        out = tmp_path / "de.csv"
        rc = main(["dist-error", "--model", "gbm", "--N", "20",
                   "--grid-points", "10", flag, "12", "--out", str(out)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_cev_requires_seed(self, tmp_path):
        rc = main(["dist-error", "--model", "cev",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_cev_reference_reaching_zero_is_numerical_failure(self, tmp_path):
        rc = main(["dist-error", "--model", "cev", "--s0", "0.5", "--alpha",
                   "0.35", "--sigma-ln", "0.5", "--schemes", "euler",
                   "--N", "50", "--seed", "1", "--mc-paths", "20000",
                   "--mc-steps", "120", "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    @pytest.mark.parametrize("boundary", ["absorbing", "reflecting"])
    def test_cev_boundary_profile(self, tmp_path, boundary):
        out = tmp_path / "de.csv"
        rc = main(["dist-error", "--model", "cev", "--s0", "0.5", "--alpha",
                   "0.35", "--sigma-ln", "0.5", "--boundary", boundary,
                   "--schemes", "euler", "--N", "60", "--grid-points", "100",
                   "--seed", "21", "--mc-paths", "20000", "--mc-steps", "240",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        sups = [r for r in rows if r["kind"] == "sup"]
        assert len(sups) == 1
        assert 0.0 < float(sups[0]["sup_error"]) < 0.2


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment defaults\nN=37\nK=3\n")
        out = tmp_path / "grid.csv"
        rc = main(["rmq", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 37

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N=37\nK=3\n")
        out = tmp_path / "grid.csv"
        rc = main(["rmq", "--config", str(cfg), "--N", "21", "--out",
                   str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 * 21

    def test_line_without_equals_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nN 200\n")
        assert main(["rmq", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "config line without '='" in err

    def test_missing_file_is_refused(self, tmp_path, capsys):
        assert main(["rmq", "--config", str(tmp_path / "absent.cfg")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "config error" in err and "absent.cfg" in err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        rc = main(["rmq", "--config", str(cfg)])
        assert rc == 2

    def test_invalid_config_value_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=bogus\n")
        out = tmp_path / "grid.json"
        with pytest.raises(SystemExit) as exc:
            main(["rmq", "--config", str(cfg), "--N", "20", "--K", "2",
                  "--format", "json", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_abbreviated_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters-rmq=7\n")
        grids = {}
        for name, extra in (("config", ["--config", str(cfg), "--iters-r", "1"]),
                            ("one", ["--iters-rmq", "1"]),
                            ("seven", ["--iters-rmq", "7"])):
            out = tmp_path / f"{name}.csv"
            assert main(["rmq", "--N", "40", "--K", "3", *extra,
                         "--out", str(out)]) == 0
            grids[name] = out.read_bytes()
        assert grids["one"] != grids["seven"]
        assert grids["config"] == grids["one"]

    def test_config_follows_the_instrument(self, tmp_path, capsys):
        # price takes two command words; the config lines go after both
        cfg = tmp_path / "run.cfg"
        cfg.write_text("levels=1.1:1.3:3\nN=20\nK=2\n")
        out = tmp_path / "prices.csv"
        assert main(["price", "barrier", "--config", str(cfg), "--seed", "1",
                     "--mc-paths", "100", "--mc-steps", "12",
                     "--out", str(out)]) == 0
        assert len(read_csv(out)[1]) == 3
        assert main(["price", "european", "--config", str(cfg)]) == 2
        assert "unknown config key levels" in capsys.readouterr().err

    def test_key_is_the_flag_name(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=4\n")
        out = tmp_path / "vq.csv"
        rc = main(["vq", "--dist", "ncx2", "--config", str(cfg), "--n", "5",
                   "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 5


# A barrier run reads the flags of its (small) Monte Carlo reference.
BARRIER = ["price", "barrier", "--seed", "1", "--mc-paths", "100",
           "--mc-steps", "12", "--N", "20", "--K", "2"]
SMALL_GRID = ["--N", "20", "--K", "2"]
CEV_REFLECTING = ["--model", "cev", "--s0", "0.5", "--alpha", "0.35",
                  "--sigma-ln", "0.5", "--boundary", "reflecting"]


# expected: a simulate_terminal call's (steps, monitoring stride, stepping,
# boundary), an empirical_cdf call's (steps, stepping, boundary), or None
# where the reference is Black-Scholes, Crank-Nicolson or the exact marginal.
# A CEV european steps exactly where those steps cost no more than 1200
# Euler steps: 2 steps of the paper's law (2x = 9.8 for the whole T) do,
# 60 do not; one step of the default law does at T = 1 (2x = 125), not at
# T = 0.01 (2x = 1.2e4).
@pytest.mark.parametrize("argv, expected", [
    (["price", "barrier", "--K", "12"], (12, 1, "gbm_exact", "free")),
    (["price", "barrier", "--K", "12", "--mc-steps", "120"],
     (120, 10, "gbm_exact", "free")),
    (["price", "barrier", "--K", "12", "--boundary", "absorbing"],
     (12, 1, "gbm_exact", "free")),
    (["price", "barrier", *CEV_REFLECTING, "--K", "12"],
     (1200, 100, "euler", "reflecting")),
    (["price", "european", *CEV_REFLECTING, "--K", "12"],
     (1, 1, "cev_exact", "reflecting")),
    (["dist-error", *CEV_REFLECTING, "--boundary", "absorbing", "--K", "3",
      "--grid-points", "5"], (1, "cev_exact", "absorbing")),
    (["price", "european", "--K", "3"], None),
    (["price", "bermudan", "--K", "3", "--fd-time-steps", "60",
      "--fd-space-steps", "120"], None),
    (["dist-error", "--K", "3", "--grid-points", "5"], None),
    (["price", "european", *CEV_REFLECTING, "--K", "12", "--mc-steps", "2"],
     (2, 1, "cev_exact", "reflecting")),
    (["price", "european", *CEV_REFLECTING, "--K", "12", "--mc-steps", "60"],
     (60, 1, "euler", "reflecting")),
    (["price", "european", "--model", "cev", "--boundary", "absorbing",
      "--K", "3"], (1, 1, "cev_exact", "absorbing")),
    (["price", "european", "--model", "cev", "--boundary", "absorbing",
      "--T", "0.01", "--K", "3"], (1200, 1, "euler", "absorbing")),
    (["price", "european", "--model", "cev", "--boundary", "reflecting",
      "--K", "3"], (1200, 1, "euler", "reflecting")),
    (["price", "european", *CEV_REFLECTING, "--boundary", "free", "--K", "3"],
     (1200, 1, "euler", "free")),
    (["price", "barrier", *CEV_REFLECTING, "--K", "7"],
     (1204, 172, "euler", "reflecting")),
], ids=["gbm-barrier", "gbm-barrier-mc-steps", "gbm-barrier-absorbing",
        "cev-barrier", "cev-european", "cev-absorbing-dist-error",
        "gbm-european", "bermudan", "gbm-dist-error",
        "cev-european-exact-mc-steps", "cev-european-mc-steps",
        "cev-european-default-alpha-absorbing",
        "cev-european-large-noncentrality",
        "cev-european-default-alpha-reflecting",
        "cev-european-free", "cev-barrier-K7"])
def test_monte_carlo_reference_routing(monkeypatch, capsys, argv, expected):
    calls = []

    def record_paths(model, s0, T, cfg, boundary="free", stepping="euler",
                     want_running_max=False):
        calls.append((cfg.steps, cfg.monitoring_stride, stepping, boundary))
        return oracles.simulate_terminal(model, s0, T, cfg, boundary, stepping,
                                         want_running_max)

    def record_cdf(model, s0, t, samples, seed, stepping="euler", steps=1200,
                   boundary="free"):
        calls.append((steps, stepping, boundary))
        return oracles.empirical_cdf(model, s0, t, samples, seed, stepping,
                                     steps, boundary)

    def simulate(*args, **kwargs):
        pytest.fail("this run's reference is not Monte Carlo")

    monkeypatch.setattr(cli, "simulate_terminal", record_paths if expected
                        else simulate)
    monkeypatch.setattr(cli, "empirical_cdf", record_cdf if expected
                        else simulate)
    mc = ["--seed", "1", "--mc-paths", "64"] if expected else []
    assert main([*argv, "--N", "20", *mc]) == 0
    assert calls == ([expected] if expected else [])


# by_parser: argparse refuses the flag, as a price instrument declares
# only the flags it reads.
@pytest.mark.parametrize("argv, refused, by_parser", [
    (["vq", "--dist", "normal", "--lambda", "4"], ["--lambda"], False),
    (["price", "european", "--strike", "90", "--strikes", "1:1.1:2",
      *SMALL_GRID], ["--strike"], True),
    ([*BARRIER, "--strikes", "1:1.1:2"], ["--strikes"], True),
    (["price", "european", "--levels", "1.1:1.3:3", *SMALL_GRID], ["--levels"],
     True),
    (["price", "bermudan", "--levels", "1.1:1.3:3", *SMALL_GRID], ["--levels"],
     True),
    (["price", "european", "--fd-time-steps", "300", *SMALL_GRID],
     ["--fd-time-steps"], True),
    ([*BARRIER, "--fd-space-steps", "400", "--fd-smax-mult", "5"],
     ["--fd-space-steps", "--fd-smax-mult"], True),
    (["price", "european", "--seed", "1", *SMALL_GRID], ["--seed"], False),
    (["price", "bermudan", "--mc-paths", "100", "--mc-steps", "12",
      *SMALL_GRID], ["--mc-paths", "--mc-steps"], True),
    (["rmq", "--model", "gbm", "--alpha", "0.5", "--sigma-ln", "nan",
      *SMALL_GRID], ["--alpha", "--sigma-ln"], False),
    (["price", "european", *CEV_REFLECTING, "--sigma", "inf", "--seed", "1",
      "--mc-paths", "1000", "--mc-steps", "12", *SMALL_GRID], ["--sigma"],
     False),
    (["convergence", "--model", "gbm", "--alpha", "2", "--K-list", "2,3,4",
      "--N", "10"], ["--alpha"], False),
    (["dist-error", *CEV_REFLECTING, "--sigma", "0.2", "--seed", "1",
      "--mc-paths", "1000", *SMALL_GRID], ["--sigma"], False),
], ids=["vq-normal-lambda", "strike-with-strikes", "barrier-strikes",
        "european-levels", "bermudan-levels", "european-fd", "barrier-fd",
        "gbm-european-seed", "bermudan-mc", "rmq-gbm-cev-flags",
        "price-cev-sigma", "convergence-gbm-alpha", "dist-error-cev-sigma"])
def test_refuses_flags_it_would_not_read(tmp_path, capsys, argv, refused,
                                         by_parser):
    out = tmp_path / "out.csv"
    if by_parser:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
    else:
        assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in refused)
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["price", "--K", "3", "european"],
    ["price", "--levels", "1.1:1.3:3", "barrier"],
], ids=["K-before-european", "levels-before-barrier"])
def test_a_flag_before_the_instrument_names_the_order(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the instrument comes right after 'price'" in err
    assert "invalid choice" not in err


@pytest.mark.parametrize("argv", [["price", "--help"],
                                  ["price", "european", "--help"]],
                         ids=["price", "price-european"])
def test_price_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: rmquant price" in capsys.readouterr().out


def test_config_key_of_the_other_model_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.5\n")
    assert main(["rmq", "--config", str(cfg), *SMALL_GRID]) == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["vq", "--dist", "normal"], ["rmq"],
                                     ["convergence"]],
                         ids=["vq", "rmq", "convergence"])
def test_seed_only_where_monte_carlo_runs(command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", "1"])
    assert exc.value.code == 2


@pytest.fixture
def no_computation(monkeypatch):
    """Make every quantization and Monte Carlo reference fail the test."""
    def compute(*args, **kwargs):
        pytest.fail("the input should be refused before anything is computed")

    for name in ("rmq_run", "simulate_terminal", "empirical_cdf"):
        monkeypatch.setattr(cli, name, compute)


@pytest.mark.parametrize("argv, named", [
    (["price", "european", "--strike", "nan"], "strike must be finite"),
    (["price", "european", "--strike", "inf"], "strike must be finite"),
    (["price", "european", "--r", "nan"], "r must be finite"),
    (["price", "european", "--r", "inf"], "r must be finite"),
    (["price", "european", "--sigma", "inf"], "sigma must be finite"),
    (["rmq", "--model", "cev", "--s0", "inf"], "s0 must be finite"),
    (["rmq", "--model", "cev", "--sigma-ln", "nan"], "sigma_ln must be finite"),
    (["dist-error", "--grid-points", "0"], "--grid-points must be >= 1"),
    (["vq", "--dist", "ncx2", "--lambda", "inf"],
     "noncentrality must be finite"),
    (["price", "bermudan", "--fd-smax-mult", "inf"], "s_max_mult"),
    (["price", "barrier", "--seed", "1", "--mc-paths", "0"], "paths must be >= 1"),
    (["price", "barrier", "--seed", "1", "--mc-steps", "0"], "steps must be >= 1"),
    (["price", "european", "--model", "cev", "--seed", "1", "--mc-steps", "0"],
     "steps must be >= 1"),
    (["price", "barrier", "--seed", "1", "--mc-steps", "1201"], "divisible by K"),
    # an explicit step count keeps its check; the default is a multiple of K
    (["price", "barrier", "--model", "cev", "--boundary", "absorbing",
      "--seed", "1", "--mc-steps", "1201"], "--mc-steps must be divisible by K"),
    (["price", "european", "--model", "cev", "--seed", "-1"],
     "seed must lie in [0, 2**128), got -1"),
    (["price", "barrier", "--seed", "-1"],
     "seed must lie in [0, 2**128), got -1"),
    # the Black-Scholes references are checked before the run too
    (["price", "european", "--strike", "0"], "strike"),
    (["price", "european", "--strikes", "0:1.2:3"], "strike"),
], ids=["strike-nan", "strike-inf", "r-nan", "r-inf", "sigma-inf",
        "cev-s0-inf", "cev-sigma-ln-nan", "grid-points-0", "lambda-inf",
        "fd-smax-mult-inf", "barrier-mc-paths-0", "barrier-mc-steps-0",
        "cev-european-mc-steps-0", "barrier-mc-steps-indivisible",
        "cev-barrier-mc-steps-indivisible",
        "cev-european-seed-negative", "barrier-seed-negative",
        "gbm-european-strike-0", "gbm-european-strikes-from-0"])
def test_invalid_numbers_are_usage_errors(capsys, no_computation, argv, named):
    small = [] if argv[0] == "vq" else SMALL_GRID
    assert main([*argv, *small]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


def test_dist_error_refuses_a_bad_seed_before_simulating(capsys, monkeypatch):
    # its reference draws inside empirical_cdf, past no_computation's reach
    def simulate(*args, **kwargs):
        pytest.fail("the seed should be refused before any path is drawn")

    monkeypatch.setattr(oracles, "simulate_terminal", simulate)
    monkeypatch.setattr(cli, "rmq_run", simulate)
    assert main(["dist-error", "--model", "cev", "--seed", "-5",
                 *SMALL_GRID]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed must lie in [0, 2**128), got -5" in err


@pytest.mark.parametrize("argv", [
    ["vq", "--dist", "normal", "--n", "5"], ["rmq", *SMALL_GRID],
    ["price", "european", *SMALL_GRID]],
    ids=["vq", "rmq", "price"])
@pytest.mark.parametrize("where", ["missing-directory", "directory",
                                   "file-as-directory"])
def test_an_out_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys,
                                                       no_computation, argv,
                                                       where):
    # refused before the run: no_computation fails a quantization
    out_path = {"directory": tmp_path,
                "missing-directory": tmp_path / "missing" / "x.csv",
                "file-as-directory": tmp_path / "f" / "x.csv"}[where]
    if where == "file-as-directory":
        (tmp_path / "f").write_text("")
    assert main([*argv, "--out", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("rmquant: --out ") and str(out_path) in err
    assert err.count("\n") == 1
    made = [] if where != "file-as-directory" else [tmp_path / "f"]
    assert list(tmp_path.iterdir()) == made   # nothing created


# The last --K wins, so a bad one follows SMALL_GRID.
@pytest.mark.parametrize("argv, named", [
    (["price", "barrier", "--seed", "1", "--mc-paths", "100", *SMALL_GRID,
      "--K", "0"], "K must be >= 1, got 0"),
    (["price", "european", *SMALL_GRID, "--K", "0"], "K must be >= 1, got 0"),
    (["price", "barrier", "--seed", "1", "--levels=-1:0.5:3",
      "--mc-paths", "200000", *SMALL_GRID],
     "barrier level must be positive, got -100.0"),
    (["dist-error", *CEV_REFLECTING, "--seed", "1", "--mc-paths", "50000",
      *SMALL_GRID, "--K", "0"], "K must be >= 1, got 0"),
], ids=["barrier-k-0", "european-k-0", "barrier-negative-level",
        "dist-error-cev-k-0"])
def test_run_inputs_are_refused_before_computing(capsys, no_computation,
                                                 argv, named):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err


@pytest.mark.parametrize("instrument, flag, value", [
    ("european", "--strikes", "0.9:inf:2"), ("barrier", "--levels", "nan:1.3:3")])
def test_non_finite_range_is_refused(capsys, instrument, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["price", instrument, flag, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err and "finite" in err


@pytest.mark.parametrize("text, schemes", [
    ("all", list(cli.ALL_SCHEMES)), ("weak2, euler", ["weak2", "euler"])])
def test_scheme_lists(text, schemes):
    ns = cli.build_parser().parse_args(["convergence", "--schemes", text])
    assert ns.schemes == schemes


@pytest.mark.parametrize("argv, named", [
    (["convergence", "--schemes", "euler,rk4"], "unknown scheme 'rk4'"),
    (["dist-error", "--schemes", ""], "unknown scheme ''"),
    (["price", "european", "--strikes", "0.9:1.1"], "expected start:stop:count"),
    (["price", "european", "--strikes", "0.9:x:3"], "could not convert"),
    (["price", "barrier", "--levels", "1.1:1.3:2.5"], "invalid literal"),
    (["price", "barrier", "--levels", "1.1:1.3:0"], "count must be >= 1"),
    (["convergence", "--K-list", "2,4.5,8"], "invalid literal"),
], ids=["unknown-scheme", "empty-schemes", "range-two-parts",
        "range-not-a-number", "range-fractional-count", "range-count-0",
        "k-list-not-integer"])
def test_malformed_lists_are_usage_errors(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err


def cli_env():
    """The environment of a ``python -m rmquant.cli`` process on this tree."""
    return {**os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def test_process_exit_codes():
    # the interpreter entry, not main: a parser refusal must also exit 2
    for argv, code in [
            (["vq", "--dist", "normal", "--n", "5"], 0),
            (["rmq", "--model", "cev", "--s0", "0.5", "--alpha", "0.35",
              "--sigma-ln", "0.5", "--N", "100"], 1),
            (["price", "european", "--levels", "1.1:1.3:3"], 2)]:
        done = subprocess.run([sys.executable, "-m", "rmquant.cli", *argv],
                              env=cli_env(), capture_output=True, timeout=120)
        assert done.returncode == code, (argv, done.stderr)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_output_pipe_ends_by_sigpipe():
    # the CSV (about 150 kB) outgrows the pipe's buffer, so the command is
    # still writing when its reader stops after 100 bytes, as head would
    argv = [sys.executable, "-m", "rmquant.cli", "rmq", "--K", "12", "--N",
            "200"]
    with subprocess.Popen(argv, env=cli_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        try:
            head = proc.stdout.read(100)
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
    assert len(head) == 100
    assert proc.returncode == -signal.SIGPIPE, err
    assert b"Traceback" not in err


def test_output_goes_to_stdout_without_out(capsys):
    assert main(["rmq", "--N", "5", "--K", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# schema: rmquant.grid.v1"
    assert len(lines) == 2 + 2 * 5


def readme_commands():
    """The ``rmquant ...`` examples of README's "Command line" block, with
    continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [ln.split() for ln in block.splitlines()
            if ln.startswith("rmquant ")]


def test_readme_examples_parse():
    commands = readme_commands()
    assert len(commands) == 9
    parser = cli.build_parser()
    for argv in commands:
        ns = parser.parse_args(argv[1:])
        assert ns.func is not None
