import json

import pytest

from rmquant import VanillaPayoff, european_price, load_sequence_json
from rmquant.cli import main


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

    def test_too_few_k_values(self, tmp_path):
        rc = main(["convergence", "--schemes", "euler", "--K-list", "8",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

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


@pytest.mark.parametrize("argv, refused", [
    (["vq", "--dist", "normal", "--lambda", "4"], ["--lambda"]),
    (["price", "european", "--strike", "90", "--strikes", "1:1.1:2",
      *SMALL_GRID], ["--strike"]),
    ([*BARRIER, "--strikes", "1:1.1:2"], ["--strikes"]),
    (["price", "european", "--levels", "1.1:1.3:3", *SMALL_GRID], ["--levels"]),
    (["price", "bermudan", "--levels", "1.1:1.3:3", *SMALL_GRID], ["--levels"]),
    (["price", "european", "--fd-time-steps", "300", *SMALL_GRID],
     ["--fd-time-steps"]),
    ([*BARRIER, "--fd-space-steps", "400", "--fd-smax-mult", "5"],
     ["--fd-space-steps", "--fd-smax-mult"]),
    (["price", "european", "--seed", "1", *SMALL_GRID], ["--seed"]),
    (["price", "bermudan", "--mc-paths", "100", "--mc-steps", "12",
      *SMALL_GRID], ["--mc-paths", "--mc-steps"]),
], ids=["vq-normal-lambda", "strike-with-strikes", "barrier-strikes",
        "european-levels", "bermudan-levels", "european-fd", "barrier-fd",
        "gbm-european-seed", "bermudan-mc"])
def test_refuses_flags_it_would_not_read(tmp_path, capsys, argv, refused):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in refused)
    assert not out.exists()


@pytest.mark.parametrize("command", [["vq", "--dist", "normal"], ["rmq"],
                                     ["convergence"]],
                         ids=["vq", "rmq", "convergence"])
def test_seed_only_where_monte_carlo_runs(command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", "1"])
    assert exc.value.code == 2
