"""Tests for the command-line front end."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jumpwalk import cli
from jumpwalk.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    SpecError,
    main,
    parse_dist_spec,
    parse_grid,
    read_config,
    read_points_csv,
)
from jumpwalk.distributions import DistributionSpec


class TestParseDistSpec:
    def test_poisson_defaults(self):
        spec = parse_dist_spec("poisson:lambda=1.0")
        assert spec.family == "poisson"
        assert spec.params == {"lambda": 1.0}
        assert spec.tail_tolerance == 1e-4
        assert spec.r_max is None

    def test_binomial(self):
        spec = parse_dist_spec("binomial:n=2,p=0.5")
        assert spec == DistributionSpec("binomial", {"n": 2, "p": 0.5})

    @pytest.mark.parametrize(
        "text",
        [
            "hypergeom:N=4,K=2,n=2",
            "negbinom:r=1,p=0.5",
            "geometric:p=0.5",
            "constant:j=1",
        ],
    )
    def test_every_family_parses(self, text):
        assert parse_dist_spec(text).spec_string() == text

    def test_tol_suffix(self):
        spec = parse_dist_spec("poisson:lambda=1.0,tol=1e-3")
        assert spec.tail_tolerance == 1e-3

    def test_rmax_extension_round_trips(self):
        spec = parse_dist_spec("poisson:lambda=1.0,rmax=5")
        assert spec.r_max == 5
        assert parse_dist_spec(spec.spec_string()) == spec

    @pytest.mark.parametrize(
        "text",
        ["", "poisson", "poisson:", "weird:x=1", "poisson:lambda", "poisson:lambda=abc",
         "binomial:n=2,p=0.5,q=1"],
    )
    def test_malformed_text_is_a_usage_error(self, text):
        with pytest.raises(SpecError):
            parse_dist_spec(text)

    def test_domain_violation_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_dist_spec("poisson:lambda=1.0,tol=5")
        with pytest.raises(ValueError):
            parse_dist_spec("poisson:lambda=-1.0")


class TestParseGrid:
    def test_geometric(self):
        assert parse_grid("10:640:x2") == [10, 20, 40, 80, 160, 320, 640]

    def test_arithmetic(self):
        assert parse_grid("4:24:+2") == [4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24]

    def test_single_point(self):
        assert parse_grid("8:8:+2") == [8]

    @pytest.mark.parametrize("text", ["4:24", "a:24:+2", "24:4:+2", "4:24:*2", "4:24:x1", "4:24:+0"])
    def test_malformed_grids(self, text):
        with pytest.raises(SpecError):
            parse_grid(text)


class TestConfigFile:
    def test_read_and_normalize_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 12\nseed=7   # master seed\n\n# comment\nout = results/run\n")
        assert read_config(str(cfg)) == {"n": "12", "seed": "7", "out": "results/run"}

    def test_hash_inside_a_value_is_kept(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out = run#3\nn = 2  # realizations\n# seed = 9\n")
        assert read_config(str(cfg)) == {"out": "run#3", "n": "2"}
        monkeypatch.chdir(tmp_path)
        assert main(["ensemble", "--T", "4", "--config", str(cfg)]) == EXIT_OK
        assert (tmp_path / "run#3_points.csv").exists()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\nseed = 7\n")
        out = tmp_path / "a"
        code = main(
            ["ensemble", "--T", "4", "--n", "5", "--config", str(cfg), "--out", str(out)]
        )
        assert code == EXIT_OK
        points, mode, dist = read_points_csv(f"{out}_points.csv")
        assert points[0].n == 5           # flag wins
        assert points[0].master_seed == 7  # config fills the gap

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        code = main(["ensemble", "--T", "4", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_config_sets_sweep_flags_that_have_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 4:8:+2\ndist = poisson:lambda=2.0\nmode = static\nn = 4\n")
        out = tmp_path / "s"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        points, mode, dist = read_points_csv(f"{out}_points.csv")
        assert [p.T for p in points] == [4, 6, 8]
        assert (mode, dist) == ("static", "poisson:lambda=2.0")

    def test_config_sets_walk_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 12\noverlay_ordered = true\npaper_poisson1 = true\n")
        out = tmp_path / "w"
        assert main(["walk", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = (tmp_path / "w_pmf.csv").read_text().splitlines()
        assert "T=12" in lines[0]
        assert "dist=poisson:lambda=1.0,rmax=5" in lines[0]
        assert lines[1] == "site,probability,ordered_probability"

    @pytest.mark.parametrize(
        "text", ["n = abc", "mode = annealed", "paper_poisson1 = maybe", "workers = 2", "config = x"]
    )
    def test_bad_config_value_or_key_is_usage_error(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text + "\n")
        cmd = "walk" if text.startswith("workers") else "ensemble"
        code = main([cmd, "--T", "4", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["table-means", "--paper-poisson1"],
        ["table-classes", "--paper-poisson1"],
        ["walk", "--workers", "2"],
        ["walk", "--n", "2"],
        ["fit", "--in", "points.csv", "--workers", "2"],
        ["fit", "--in", "points.csv", "--paper-poisson1"],
        ["fit", "--in", "points.csv", "--seed", "5"],
        ["static-sweep", "--mode", "dynamic"],
    ],
)
def test_flags_a_command_never_reads_are_rejected(argv, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2


class TestCommands:
    def test_walk_writes_distribution(self, tmp_path, capsys):
        out = tmp_path / "walk"
        code = main(["walk", "--T", "12", "--overlay-ordered", "--out", str(out)])
        assert code == EXIT_OK
        lines = (tmp_path / "walk_pmf.csv").read_text().splitlines()
        assert lines[0].startswith("# jumpwalk")
        assert lines[1] == "site,probability,ordered_probability"
        assert "sigma=" in capsys.readouterr().out

    def test_walk_is_byte_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["walk", "--T", "10", "--out", str(a)])
        main(["walk", "--T", "10", "--out", str(b)])
        assert (tmp_path / "a_pmf.csv").read_bytes() == (tmp_path / "b_pmf.csv").read_bytes()

    def test_ordered_sweep_recovers_ballistic_slope(self, tmp_path, capsys):
        out = tmp_path / "ordered"
        code = main(
            ["sweep", "--dist", "constant:j=1", "--grid", "10:640:x2", "--n", "1",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        alpha = float(stdout.split("alpha=")[1].split()[0])
        assert 0.95 <= alpha <= 1.05
        assert "ballistic" in stdout
        for kind in ("points", "fit", "loglog"):
            meta = (tmp_path / f"ordered_{kind}.csv").read_text().splitlines()[0]
            for token in ("jumpwalk", "seed=42", "dist=constant:j=1", "grid=10:640:x2"):
                assert token in meta

    def test_fit_command_round_trips_sweep_output(self, tmp_path):
        out = tmp_path / "s"
        main(["sweep", "--dist", "constant:j=1", "--grid", "10:80:x2", "--n", "1",
              "--out", str(out)])
        refit = tmp_path / "refit"
        code = main(["fit", "--in", f"{out}_points.csv", "--out", str(refit)])
        assert code == EXIT_OK
        fit_row = (tmp_path / "s_fit.csv").read_text().splitlines()[-1]
        refit_row = (tmp_path / "refit_fit.csv").read_text().splitlines()[-1]
        assert fit_row == refit_row

    def test_fit_records_the_master_seed_of_its_points(self, tmp_path):
        out = tmp_path / "s"
        main(["sweep", "--dist", "constant:j=1", "--grid", "4:16:x2", "--n", "1",
              "--seed", "4024", "--out", str(out)])
        refit = tmp_path / "refit"
        assert main(["fit", "--in", f"{out}_points.csv", "--out", str(refit)]) == EXIT_OK
        for kind in ("fit", "loglog"):
            meta = (tmp_path / f"refit_{kind}.csv").read_text().splitlines()[0]
            assert "seed=4024" in meta.split()

    def test_paper_poisson1_preset_pins_cut(self, tmp_path):
        out = tmp_path / "p"
        code = main(
            ["ensemble", "--T", "4", "--n", "3", "--paper-poisson1", "--out", str(out)]
        )
        assert code == EXIT_OK
        _, _, dist = read_points_csv(f"{out}_points.csv")
        assert dist == "poisson:lambda=1.0,rmax=5"

    def test_sweep_worker_counts_write_identical_bytes(self, tmp_path):
        args = ["sweep", "--grid", "4:8:+2", "--n", "20"]
        main(args + ["--workers", "1", "--out", str(tmp_path / "w1")])
        main(args + ["--workers", "2", "--out", str(tmp_path / "w2")])
        w1 = (tmp_path / "w1_points.csv").read_bytes()
        w2 = (tmp_path / "w2_points.csv").read_bytes()
        assert w1 == w2

    def test_a_two_worker_run_leaves_no_process_holding_its_output(self, tmp_path):
        # Forked workers inherit stdout and stderr, so the piped run ends only
        # once every worker has exited.
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "jumpwalk.cli", "table-classes", "--n", "4",
             "--workers", "2", "--out", str(tmp_path / "c")],
            capture_output=True, timeout=120, env=env,
        )
        assert done.returncode == EXIT_OK, done.stderr

    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--dist", "poisson:lambda=1.0", "--paper-poisson1", "--grid", "4:24:+2"],
            ["static-sweep", "--paper-poisson1", "--grid", "2:40:+2"],
            ["table-classes", "--grid", "4:24:+2", "--workers", "2"],
        ],
        ids=["poisson1-sweep", "static-sweep", "table-classes"],
    )
    def test_a_run_never_imports_numpy_random(self, tmp_path, command):
        # The engine steps its PCG64 streams itself; numpy.random would add
        # its import time and memory to every run.
        script = (
            "import sys\n"
            "from jumpwalk.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
            "sys.exit(code)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, *command, "--n", "2", "--out", str(tmp_path / "r")],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == EXIT_OK, done.stderr

    def test_static_sweep_outputs(self, tmp_path, capsys):
        out = tmp_path / "st"
        code = main(
            ["static-sweep", "--grid", "2:12:+2", "--n", "25", "--paper-poisson1",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        assert "saturation window" in capsys.readouterr().out
        normdev = (tmp_path / "st_normdev.csv").read_text().splitlines()
        assert normdev[1] == "T,mean_norm_deviation,max_norm_deviation,n"
        points, mode, _ = read_points_csv(f"{out}_points.csv")
        assert mode == "static"
        assert [p.T for p in points] == [2, 4, 6, 8, 10, 12]

    def test_table_means_small_n_warns(self, tmp_path, capsys):
        out = tmp_path / "tm"
        code = main(["table-means", "--n", "1", "--grid", "4:8:+2", "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "unreliable" in captured.err
        rows = (tmp_path / "tm_table_means.csv").read_text().splitlines()
        assert rows[1] == "class,dist_spec,mean,variance,exponent,r_squared"
        assert len(rows) == 6  # meta + header + four means

    def test_table_classes_lists_six_configurations(self, tmp_path):
        out = tmp_path / "tc"
        code = main(["table-classes", "--n", "1", "--grid", "4:8:+2", "--out", str(out)])
        assert code == EXIT_OK
        rows = (tmp_path / "tc_table_classes.csv").read_text().splitlines()
        assert len(rows) == 8  # meta + header + six configurations
        assert sum(r.startswith("sub-poissonian") for r in rows) == 3
        assert sum(r.startswith("super-poissonian") for r in rows) == 3


class TestExitCodes:
    def test_unknown_family_is_usage(self, tmp_path):
        code = main(["sweep", "--dist", "weird:x=1", "--n", "1", "--out", str(tmp_path / "x")])
        assert code == EXIT_USAGE

    def test_domain_error_is_numerical(self, tmp_path):
        code = main(
            ["sweep", "--dist", "poisson:lambda=1.0,tol=5", "--n", "1",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_DOMAIN

    def test_zero_realizations_is_numerical(self, tmp_path):
        code = main(["ensemble", "--T", "4", "--n", "0", "--out", str(tmp_path / "x")])
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize(
        "argv", [["--T", "0", "--n", "5"], ["--T", "-3"], ["--T", "0", "--mode", "static"]]
    )
    def test_iteration_count_below_one_is_numerical(self, tmp_path, capsys, argv):
        code = main(["ensemble", *argv, "--out", str(tmp_path / "x")])
        assert code == EXIT_DOMAIN
        assert f"need T >= 1, got {argv[1]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dist", ["poisson:lambda=200", "binomial:n=2000,p=0.5"])
    def test_large_parameters_do_not_overflow(self, tmp_path, dist):
        code = main(["ensemble", "--T", "2", "--n", "2", "--dist", dist,
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_OK

    def test_missing_required_setting_is_usage(self, tmp_path):
        assert main(["ensemble", "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_fit_of_mixed_master_seeds_is_usage(self, tmp_path):
        out = tmp_path / "s"
        main(["sweep", "--dist", "constant:j=1", "--grid", "4:16:x2", "--n", "1",
              "--out", str(out)])
        points = tmp_path / "s_points.csv"
        lines = points.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[4] = "7"  # master_seed of the last point
        points.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
        code = main(["fit", "--in", str(points), "--out", str(tmp_path / "refit")])
        assert code == EXIT_USAGE

    def test_missing_input_file_is_numerical(self, tmp_path):
        code = main(["fit", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")])
        assert code == EXIT_DOMAIN


class TestLargeAndNonFiniteLaws:
    @pytest.mark.parametrize("mode", ["dynamic", "static"])
    def test_wide_binomial_runs_in_both_modes(self, tmp_path, mode):
        code = main(["ensemble", "--T", "3", "--n", "2", "--dist", "binomial:n=20000,p=0.5",
                     "--mode", mode, "--out", str(tmp_path / "x")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rate_is_numerical_and_writes_nothing(self, tmp_path, capsys, value):
        code = main(["ensemble", "--T", "4", "--n", "3", "--dist",
                     f"poisson:lambda={value},rmax=5", "--out", str(tmp_path / "x")])
        assert code == EXIT_DOMAIN
        assert "'lambda'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
