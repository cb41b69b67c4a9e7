import json

import numpy as np
import pytest

from mixdetect.cli import main, read_sample_file


def write_samples(tmp_path, x, y):
    xf = tmp_path / "x.txt"
    yf = tmp_path / "y.txt"
    xf.write_text("\n".join(str(v) for v in x) + "\n")
    yf.write_text("\n".join(str(v) for v in y) + "\n")
    return str(xf), str(yf)


class TestReadSampleFile:
    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("# header\n1.5\n\n2.5  # trailing\n")
        np.testing.assert_array_equal(read_sample_file(f), [1.5, 2.5])

    def test_bad_value(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("1.0\nnot-a-number\n")
        with pytest.raises(Exception):
            read_sample_file(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(Exception):
            read_sample_file(tmp_path / "nope.txt")


class TestCmdTest:
    def test_tailrun_exact(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [1, 2], [3, 4])
        assert main(["test", "--x", xf, "--y", yf, "--tests", "tailrun"]) == 0
        report = json.loads(capsys.readouterr().out)
        row = report["tests"]["TAILRUN"]
        assert row["statistic"] == 2.0
        assert row["pvalue"] == pytest.approx(1 / 6)
        assert row["method"] == "exact"

    def test_wilcoxon_maximal(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [1, 2], [3, 4])
        assert main(["test", "--x", xf, "--y", yf, "--tests", "wilcoxon"]) == 0
        row = json.loads(capsys.readouterr().out)["tests"]["WILCOXON"]
        assert row["statistic"] == 4.0
        assert row["pvalue"] < 0.5

    def test_ties_exit_nonzero(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [1, 2], [1, 2])
        assert main(["test", "--x", xf, "--y", yf, "--tests", "wilcoxon"]) == 1
        err = capsys.readouterr().err
        assert "1.0" in err  # message names the duplicated value

    def test_dejitter_resolves_ties(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [1, 2], [1, 2])
        assert (
            main(["test", "--x", xf, "--y", yf, "--tests", "wilcoxon", "--dejitter"])
            == 0
        )

    def test_hc_with_mc_table(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        assert (
            main(["test", "--x", xf, "--y", yf, "--tests", "hc", "--reps", "200"]) == 0
        )
        row = json.loads(capsys.readouterr().out)["tests"]["HC"]
        assert row["method"] == "monte-carlo"
        assert 0 < row["pvalue"] <= 1

    def test_missing_table_file(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        missing = str(tmp_path / "nope.npz")
        assert main(["test", "--x", xf, "--y", yf, "--tests", "hc", "--table", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nope.npz" in err

    def test_format_3_table_refused(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        old = tmp_path / "hc_v3.npz"
        np.savez(
            old, version=np.int64(3), statistic=np.str_("HC"), m=np.int64(3),
            n=np.int64(3), reps=np.int64(3), seed=np.int64(0), draws=np.arange(3.0),
        )
        assert main(["test", "--x", xf, "--y", yf, "--tests", "hc", "--table", str(old)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "version 3" in err

    def test_json_roundtrip(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [1, 2], [3, 4])
        main(["test", "--x", xf, "--y", yf, "--tests", "ks,tailrun"])
        out = capsys.readouterr().out
        assert json.loads(json.dumps(json.loads(out))) == json.loads(out)


class TestCmdBoundary:
    def test_sparse_breakpoint(self, capsys):
        assert main(["boundary", "--beta", "0.75", "--gamma", "2", "--regime", "sparse"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.25)

    def test_sparse_gamma_one(self, capsys):
        main(["boundary", "--beta", "0.8", "--gamma", "1", "--regime", "sparse"])
        assert float(capsys.readouterr().out) == pytest.approx(0.6)

    def test_dense(self, capsys):
        main(["boundary", "--beta", "0.2", "--gamma", "0.25", "--regime", "dense"])
        assert float(capsys.readouterr().out) == pytest.approx(0.1)

    def test_out_of_range_exit(self, capsys):
        assert main(["boundary", "--beta", "1.5", "--gamma", "2", "--regime", "sparse"]) == 1


class TestCmdDiagnose:
    def test_lower_bound(self, capsys):
        assert main(["diagnose", "--condition", "lower-bound", "--gamma", "2", "--mu", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower_bound_integral"] == pytest.approx(np.e - 1, rel=1e-6)

    def test_lower_bound_x_upper(self, capsys):
        from mixdetect import GGParams, lower_bound_integral

        argv = ["diagnose", "--condition", "lower-bound", "--mu", "1", "--x-upper", "0"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"lower_bound_integral": lower_bound_integral(0.0, GGParams(2.0), 1.0)}

    def test_gg_scale_reaches_the_model(self, capsys):
        import dataclasses

        from mixdetect import GGParams, MixtureAlt, ks_condition

        argv = ["diagnose", "--condition", "ks", "--epsilon", "0.1", "--mu", "1", "--n", "1000"]
        outs = []
        for scale in (1.0, 2.0):
            assert main([*argv, "--gg-scale", repr(scale)]) == 0
            outs.append(json.loads(capsys.readouterr().out))
            report = ks_condition(1000, GGParams(2.0, scale), MixtureAlt(0.1, 1.0))
            expected = {k: v for k, v in dataclasses.asdict(report).items() if v is not None}
            assert outs[-1] == expected
        assert outs[0] != outs[1]

    @pytest.mark.filterwarnings("error")
    def test_lower_bound_past_float_range(self, capsys):
        assert main(["diagnose", "--condition", "lower-bound", "--mu", "30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "mu=30.0" in lines[0]

    @pytest.mark.filterwarnings("error")
    def test_lower_bound_not_converged(self, capsys):
        argv = ["diagnose", "--condition", "lower-bound", "--gamma", "0.3", "--mu", "1e6"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "gamma=0.3, mu=1000000.0 did not converge" in lines[0]

    @pytest.mark.filterwarnings("error")
    def test_ks_large_mu(self, capsys):
        argv = ["diagnose", "--condition", "ks", "--epsilon", "0.1", "--mu", "20"]
        assert main([*argv, "--n", "10000"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["where"] == 10.0

    def test_wilcoxon_tiny_mu(self, capsys):
        assert (
            main(
                [
                    "diagnose",
                    "--condition",
                    "wilcoxon",
                    "--epsilon",
                    "0.1",
                    "--mu",
                    "1e-9",
                    "--n",
                    "10000",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "no"

    def test_hc_strong_signal(self, capsys):
        assert (
            main(
                [
                    "diagnose",
                    "--condition",
                    "hc",
                    "--epsilon",
                    "0.3",
                    "--mu",
                    "5",
                    "--n",
                    "1000000",
                    "--t",
                    "0",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["median_separation"]["verdict"] == "yes"

    def test_unknown_condition_exit(self, capsys):
        with pytest.raises(SystemExit):
            main(["diagnose", "--condition", "bogus"])

    def test_hc_far_tail_threshold(self, capsys):
        # both survival terms underflow at t = 100, where the separation's
        # formula is 0/0 in floats
        argv = ["diagnose", "--condition", "hc", "--t", "100", "--n", "1000",
                "--epsilon", "0.1", "--mu", "1"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        out = json.loads(captured.out)
        assert out["separation"]["lhs"] == 0.0
        assert out["separation"]["verdict"] == "no"
        assert out["tail_mass"]["verdict"] == "no"

    @pytest.mark.parametrize(
        "args, name",
        [
            (["--condition", "wilcoxon", "--n", "1"], "n"),
            (["--condition", "hc", "--t", "1", "--n", "1"], "n"),
            (["--condition", "ks", "--n", "0"], "n"),
            (["--condition", "wilcoxon", "--n", "0"], "n"),
            (["--condition", "hc", "--t", "1", "--n", "-4"], "n"),
            (["--condition", "tailrun", "--t", "1", "--m", "-3", "--l", "-2"], "m"),
            (["--condition", "tailrun", "--t", "1", "--n", "0"], "n"),
            (["--condition", "tailrun", "--t", "1", "--l", "-2"], "l"),
        ],
    )
    def test_bad_size_exit(self, capsys, args, name):
        argv = ["diagnose", *args, "--epsilon", "0.1", "--mu", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be at least")
        assert "Traceback" not in err


class TestCmdCalibrate:
    def test_deterministic_files(self, tmp_path, capsys):
        a = tmp_path / "a.npz"
        b = tmp_path / "b.npz"
        for out in (a, b):
            assert (
                main(
                    [
                        "calibrate",
                        "--statistic",
                        "HC",
                        "--m",
                        "50",
                        "--n",
                        "50",
                        "--reps",
                        "200",
                        "--seed",
                        "9",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
        from mixdetect import load_null_table

        np.testing.assert_array_equal(load_null_table(a).draws, load_null_table(b).draws)

    def test_tailrun_refused(self, capsys):
        assert (
            main(["calibrate", "--statistic", "TAILRUN", "--m", "5", "--n", "5"]) == 1
        )
        assert "exact null" in capsys.readouterr().err

    def test_existing_file_requires_force(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        args = [
            "calibrate", "--statistic", "KS", "--m", "20", "--n", "20",
            "--reps", "150", "--seed", "1", "--out", str(out),
        ]
        assert main(args) == 0
        assert main(args) == 1
        assert main(args + ["--force"]) == 0

    def test_bad_out_refused_before_simulating(self, tmp_path, capsys, monkeypatch):
        from mixdetect import calibration

        out = tmp_path / "t.npz"
        out.write_bytes(b"")

        def no_table(*args, **kwargs):
            raise AssertionError("mc_null_table called for a bad --out")

        monkeypatch.setattr(calibration, "mc_null_table", no_table)
        args = [
            "calibrate", "--statistic", "HC", "--m", "20", "--n", "20",
            "--reps", "150", "--out", str(out),
        ]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--force" in err
        assert out.read_bytes() == b""
        args[-1] = str(tmp_path / "nodir" / "t.npz")
        assert main(args) == 1
        assert "nodir" in capsys.readouterr().err

    def test_lrt_default_names_carry_the_model(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = [
            "calibrate", "--statistic", "LRT", "--m", "5", "--n", "50",
            "--reps", "100", "--seed", "0", "--epsilon", "0.1",
        ]
        paths = []
        for mu in ("1", "3"):
            assert main(args + ["--mu", mu]) == 0
            paths.append(json.loads(capsys.readouterr().out)["path"])
        assert paths[0] != paths[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(paths)

    def test_default_names(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = ["calibrate", "--m", "5", "--n", "50", "--reps", "100"]
        assert main([*base, "--statistic", "HC"]) == 0
        assert main([*base, "--statistic", "LRT", "--epsilon", "0.1", "--mu", "1"]) == 0
        paths = [json.loads(line)["path"] for line in capsys.readouterr().out.splitlines()]
        assert paths == ["HC_m5_n50_r100_s0.npz", "LRT_g2.0_sc1.0_e0.1_mu1.0_m5_n50_r100_s0.npz"]

    def test_path_without_suffix(self, tmp_path, capsys):
        args = [
            "calibrate", "--statistic", "HC", "--m", "20", "--n", "20",
            "--reps", "150", "--out", str(tmp_path / "tbl"),
        ]
        assert main(args) == 0
        written = tmp_path / "tbl.npz"
        assert json.loads(capsys.readouterr().out)["path"] == str(written)
        assert written.exists() and not (tmp_path / "tbl").exists()
        assert main(args) == 1  # the existing tbl.npz is not clobbered
        assert "exists" in capsys.readouterr().err

    def test_matches_the_harness_cache(self, tmp_path, capsys):
        from mixdetect import GGParams, ScenarioConfig, load_null_table, run_power_grid
        from mixdetect.calibration import cache_key

        m, n, reps, seed = 60, 50, 150, 7
        out = tmp_path / "calibrated.npz"
        assert main([
            "calibrate", "--statistic", "HC", "--m", str(m), "--n", str(n),
            "--reps", str(reps), "--seed", str(seed), "--out", str(out),
        ]) == 0
        cfg = ScenarioConfig(
            model=GGParams(2.0), m=m, n=n, regime="sparse", beta=0.6, grid=[0.5],
            tests=["HC"], power_reps=1, calib_reps=reps, master_seed=seed,
        )
        run_power_grid(cfg, cache_dir=tmp_path / "cache")
        cached = load_null_table(tmp_path / "cache" / cache_key("HC", m, n, reps, seed))
        np.testing.assert_array_equal(load_null_table(out).draws, cached.draws)

    def test_lrt_matches_the_harness(self, tmp_path, capsys):
        from mixdetect import GGParams, ScenarioConfig, load_null_table
        from mixdetect.experiments import _lrt_null_table

        cfg = ScenarioConfig(
            model=GGParams(2.0), m=50, n=40, regime="dense", beta=0.2,
            grid=[0.1, 0.3, 0.5], tests=["LRT"], power_reps=1, calib_reps=150,
            master_seed=3,
        )
        harness = _lrt_null_table(cfg, "LRT", None)
        for g, table in zip(cfg.grid, harness):
            alt = cfg.alt_for(g)
            out = tmp_path / f"lrt_{g}.npz"
            assert main([
                "calibrate", "--statistic", "LRT", "--m", "50", "--n", "40",
                "--reps", "150", "--seed", "3", "--epsilon", repr(alt.epsilon),
                "--mu", repr(alt.mu), "--out", str(out),
            ]) == 0
            np.testing.assert_array_equal(load_null_table(out).draws, table.draws)
            assert load_null_table(out).key == table.key

    def test_missing_out_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.npz"
        args = ["calibrate", "--statistic", "HC", "--m", "5", "--n", "5", "--reps", "100"]
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nodir" in err
        assert not out.parent.exists()

    def test_empty_sample_refused(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        args = ["calibrate", "--statistic", "KS", "--m", "3", "--n", "0", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n=0" in err
        assert not out.exists()

    def test_wilcoxon_quantile_matches_enumeration(self, tmp_path, capsys):
        out = tmp_path / "w.npz"
        assert (
            main(
                [
                    "calibrate", "--statistic", "WILCOXON", "--m", "4", "--n", "4",
                    "--reps", "100000", "--seed", "2", "--out", str(out),
                ]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        from mixdetect import wilcoxon_exact_null

        pmf = wilcoxon_exact_null(4, 4)
        cdf = np.cumsum(pmf)
        exact_q95 = int(np.searchsorted(cdf, 0.95))
        assert abs(report["quantiles"]["0.95"] - exact_q95) <= 1.0


class TestCmdPower:
    def test_preset_writes_csv(self, tmp_path, capsys):
        args = [
            "power", "--preset", "normal-dense", "--scale", "0.001",
            "--reps", "5", "--out", str(tmp_path), "--seed", "3",
        ]
        assert main(args) == 0
        csv_path = tmp_path / "normal-dense.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 10 * 5  # 10 grid rows x 5 tests
        sidecar = json.loads((tmp_path / "normal-dense.json").read_text())
        assert sidecar["notes"]["figure"] == "normal-dense"

    def test_stem_names_both_files(self, tmp_path, capsys):
        args = [
            "power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
            "--out", str(tmp_path), "--stem", "run1",
        ]
        assert main(args) == 0
        csv_path, json_path = tmp_path / "run1.csv", tmp_path / "run1.json"
        assert capsys.readouterr().out == f"wrote {csv_path} and {json_path}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run1.csv", "run1.json"]
        assert json.loads(json_path.read_text())["notes"]["figure"] == "normal-dense"

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            main(
                [
                    "power", "--preset", "normal-moderate", "--scale", "0.001",
                    "--reps", "5", "--out", str(out), "--seed", "4",
                ]
            )
        assert (out1 / "normal-moderate.csv").read_bytes() == (
            out2 / "normal-moderate.csv"
        ).read_bytes()

    def test_dexp_preset_notes_grid_assumption(self, tmp_path, capsys):
        args = [
            "power", "--preset", "dexp-dense", "--scale", "0.0005",
            "--reps", "2", "--out", str(tmp_path),
        ]
        assert main(args) == 0
        notes = json.loads((tmp_path / "dexp-dense.json").read_text())["notes"]
        assert notes["figure"] == "dexp-dense" and "grid_assumption" in notes

    def test_level_override_validated(self, tmp_path, capsys):
        args = ["power", "--preset", "normal-dense", "--scale", "0.001", "--out", str(tmp_path)]
        assert main(args + ["--level", "1.5"]) == 1
        assert "level must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "normal-dense.csv").exists()

    def test_reps_override_validated(self, tmp_path, capsys):
        args = ["power", "--preset", "normal-dense", "--scale", "0.001", "--out", str(tmp_path)]
        assert main(args + ["--reps", "0"]) == 1
        assert "power_reps must be positive" in capsys.readouterr().err
        assert not (tmp_path / "normal-dense.csv").exists()

    def test_negative_threads_refused(self, tmp_path, capsys):
        args = ["power", "--preset", "normal-dense", "--scale", "0.001", "--out", str(tmp_path)]
        assert main(args + ["--threads", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threads" in err
        assert not (tmp_path / "normal-dense.csv").exists()

    @pytest.mark.parametrize("flag", ["--out", "--cache-dir"])
    def test_directory_that_is_a_file(self, tmp_path, capsys, monkeypatch, flag):
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated before the directory was checked")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        args = ["power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
                "--out", str(tmp_path), flag, str(blocker)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "a-file" in err

    def test_config_and_preset_conflict(self, capsys):
        assert main(["power", "--preset", "normal-dense", "--config", "x.json"]) == 1

    def test_invalid_config_message(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 10}))
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config" in capsys.readouterr().err
