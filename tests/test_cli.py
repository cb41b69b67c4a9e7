import hashlib
import json

import numpy as np
import pytest

from mixdetect.cli import build_parser, main, read_sample_file


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
        for text, message in [
            ("1.0\nnot-a-number\n", f"{f}:2: not a number: 'not-a-number'"),
            # float() would read these as 15.0 and 12.0
            ("1_5\n2.5\n", f"{f}:1: not a number: '1_5'"),
            ("2.5\n\uff11\uff12\n", f"{f}:2: not a number: '\uff11\uff12'"),
            ("1.0\n-inf  # far out\n", f"{f}:2: non-finite value '-inf'"),
            ("nan\n", f"{f}:1: non-finite value 'nan'"),
            ("# no data\n\n", f"{f}: no values found"),
        ]:
            f.write_text(text)
            with pytest.raises(ValueError) as exc:
                read_sample_file(f)
            assert str(exc.value) == message

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

    @pytest.mark.parametrize("tests", ["lrt", "all"])
    def test_lrt_pvalue(self, tmp_path, capsys, tests):
        from mixdetect import ALL_STATISTICS, GGParams, MixtureAlt, lrt_stat
        from mixdetect import calibration as cal

        rng = np.random.default_rng(4)
        xf, yf = write_samples(tmp_path, rng.normal(size=20), rng.normal(size=30))
        argv = ["test", "--x", xf, "--y", yf, "--tests", tests, "--reps", "200",
                "--seed", "3", "--epsilon", "0.1", "--mu", "1.5"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert sorted(report["tests"]) == sorted(ALL_STATISTICS if tests == "all" else ["LRT"])
        model = (GGParams(2.0), MixtureAlt(0.1, 1.5))
        row = report["tests"]["LRT"]
        assert row["statistic"] == lrt_stat(read_sample_file(yf), *model)
        null = cal.lrt_null(*model, 30)
        assert row["pvalue"] == float(cal.lattice_pvalues(row["statistic"], null))
        assert row["method"] == "lattice-convolution"
        # the LRT reads no table, seed or reps
        argv[argv.index("--seed") + 1] = "4"
        argv[argv.index("--reps") + 1] = "300"
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["tests"]["LRT"] == row

    def test_lrt_requires_the_alternative(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        assert main(["test", "--x", xf, "--y", yf, "--tests", "hc,lrt", "--mu", "1"]) == 1
        assert capsys.readouterr().err == "error: this operation requires --epsilon and --mu\n"

    MODEL_ARGS = ["--epsilon", "0.1", "--mu", "1.5"]

    @staticmethod
    def stored_table(tmp_path, statistic, m=20, n=30, mu=1.5):
        """A 500-rep table file of statistic, written as calibrate writes it;
        an LRT file as calibrate wrote it up to rng_scheme 9 (format 6, with
        its model)."""
        from mixdetect import calibration as cal

        path = tmp_path / "stored.npz"
        if statistic == "LRT":
            np.savez(
                path, version=np.int64(6), draws=np.linspace(-1.0, 1.0, 500),
                statistic=np.str_("LRT"), m=np.int64(m), n=np.int64(n), reps=np.int64(500),
                seed=np.int64(5), gamma=np.float64(2.0), scale=np.float64(1.0),
                epsilon=np.float64(0.1), mu=np.float64(mu),
            )
            return path
        return cal.save_null_table(cal.mc_null_table(statistic, m, n, 500, 5), path)

    @pytest.mark.parametrize("statistic", ["HC"])
    def test_stored_table_used(self, tmp_path, capsys, monkeypatch, statistic):
        from mixdetect import calibration as cal

        rng = np.random.default_rng(6)
        xf, yf = write_samples(tmp_path, rng.normal(size=20), 0.5 + rng.normal(size=30))
        path = self.stored_table(tmp_path, statistic)
        simulated = []
        mc_null_table = cal.mc_null_table
        monkeypatch.setattr(
            cal, "mc_null_table", lambda s, *a, **k: simulated.append(s) or mc_null_table(s, *a, **k)
        )
        argv = ["test", "--x", xf, "--y", yf, "--tests", "lrt,hc,ks", "--reps", "200",
                "--table", str(path), *self.MODEL_ARGS]
        assert main(argv) == 0
        assert simulated == []  # the LRT's null is computed, not simulated
        row = json.loads(capsys.readouterr().out)["tests"][statistic]
        stored = cal.load_null_table(path)
        assert row["pvalue"] == cal.mc_pvalue(row["statistic"], stored).p
        # on the file's 1/(R + 1) grid, R = 500, not on that of --reps 200
        assert row["pvalue"] * 501 == pytest.approx(round(row["pvalue"] * 501), abs=1e-9)

    @pytest.mark.parametrize("statistic, tests, table_args", [
        ("LRT", "lrt", {"mu": 2.0}),  # an LRT file of format 6, for any alternative
        ("HC", "hc", {"n": 31}),  # another sample size
        ("HC", "wilcoxon,ks,lrt", {}),  # no selected test reads an HC table
        ("LRT", "hc,tailrun", {}),  # an LRT file, whatever the tests
    ], ids=["another_mu", "another_n", "hc_table_unread", "lrt_table_unread"])
    def test_stored_table_refused(self, tmp_path, capsys, statistic, tests, table_args):
        from mixdetect import load_null_table

        rng = np.random.default_rng(6)
        xf, yf = write_samples(tmp_path, rng.normal(size=20), rng.normal(size=30))
        path = self.stored_table(tmp_path, statistic, **table_args)
        argv = ["test", "--x", xf, "--y", yf, "--tests", tests, "--table", str(path),
                *self.MODEL_ARGS]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if statistic == "LRT":
            # the LRT reads no table: the file is refused by name, as it loads
            assert captured.err == (
                f"error: {path}: LRT reads no null table: its p-value uses the "
                "lattice-convolution null\n"
            )
            return
        assert captured.err == (
            f"error: table {path} is for {load_null_table(path).key}; "
            "it matches no selected test here\n"
        )

    @pytest.mark.parametrize("model_args, message", [
        (["--mu", "-1", "--epsilon", "0.9", "--gamma", "-2"],
         "gamma must lie in (0, inf), got -2.0"),
        (["--gg-scale", "0"], "scale must lie in (0, inf), got 0.0"),
        (["--epsilon", "0.9", "--mu", "1"], "epsilon must lie in (0, 0.5), got 0.9"),
        (["--epsilon", "0.1", "--mu", "-1"], "mu must lie in (0, inf), got -1.0"),
        (["--mu", "1"], "this operation requires --epsilon and --mu"),
    ], ids=["gamma", "gg_scale", "epsilon", "mu", "mu_alone"])
    def test_unread_model_args_validated(self, tmp_path, capsys, model_args, message):
        xf, yf = write_samples(tmp_path, [1, 2], [3, 4])
        assert main(["test", "--x", xf, "--y", yf, "--tests", "wilcoxon", *model_args]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_valid_unread_model_args_change_nothing(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [1, 2, 5], [3, 4, 6])
        argv = ["test", "--x", xf, "--y", yf, "--reps", "100"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--gamma", "1", "--epsilon", "0.1", "--mu", "1"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("tests, name", [("hc,hc,wilcoxon", "HC"), ("ks,tailrun,KS", "KS")])
    def test_repeated_test_refused(self, tmp_path, capsys, tests, name):
        xf, yf = write_samples(tmp_path, [1, 2], [3, 4])
        assert main(["test", "--x", xf, "--y", yf, "--tests", tests]) == 1
        assert capsys.readouterr() == ("", f"error: test {name!r} is selected more than once\n")

    @pytest.mark.parametrize("tests", ["wilcoxon", "ks,tailrun", "hc", "table"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--reps", "99", "error: reps must be at least 100, got 99\n"),
        ("--seed", "-1", "error: seed must be at least 0, got -1\n"),
        ("--seed", str(2**63), f"error: seed must be below 2**63, got {2**63}\n"),
    ], ids=["reps", "seed", "seed-2**63"])
    def test_calibration_flags_validated_on_every_run(
        self, tmp_path, capsys, tests, flag, value, message
    ):
        # also when no table is simulated: no Monte Carlo test, or a stored table
        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        argv = ["test", "--x", xf, "--y", yf, "--tests", tests]
        if tests == "table":
            table = str(tmp_path / "hc.npz")
            main(["calibrate", "--statistic", "hc", "--m", "3", "--n", "3", "--reps", "100",
                  "--out", table])
            capsys.readouterr()
            argv[-1:] = ["hc", "--table", table]
            assert main(argv) == 0
            capsys.readouterr()
        assert main([*argv, flag, value]) == 1
        assert capsys.readouterr() == ("", message)

    def test_json_roundtrip(self, tmp_path, capsys):
        xf, yf = write_samples(tmp_path, [1, 2], [3, 4])
        main(["test", "--x", xf, "--y", yf, "--tests", "ks,tailrun"])
        out = capsys.readouterr().out
        assert json.loads(json.dumps(json.loads(out))) == json.loads(out)

    def test_table_of_a_statistic_that_reads_none_refused(self, tmp_path, capsys):
        # a file keyed ('FOO', 3, 3, 3, 0) loaded as a table of that key
        from mixdetect import calibration as cal

        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        path = tmp_path / "foo.npz"
        np.savez(
            path, version=np.int64(cal.CACHE_FORMAT_VERSION), statistic=np.str_("FOO"),
            m=np.int64(3), n=np.int64(3), reps=np.int64(3), seed=np.int64(0),
            draws=np.arange(3.0),
        )
        assert main(["test", "--x", xf, "--y", yf, "--tests", "hc", "--table", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: unknown statistic 'FOO'\n")

    @pytest.mark.parametrize("version, draws, message", [
        (None, [0.3, 0.1, 0.2], "null-table draws must be sorted"),
        (4, [0.1, 0.2, 0.3], "unsupported cache format version 4"),
    ], ids=["unsorted", "format-4"])
    def test_table_refusal_names_the_file(self, tmp_path, capsys, version, draws, message):
        # both errors used to name no file
        from mixdetect import calibration as cal

        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        path = tmp_path / "t.npz"
        np.savez(
            path, version=np.int64(version or cal.CACHE_FORMAT_VERSION), statistic=np.str_("HC"),
            m=np.int64(3), n=np.int64(3), reps=np.int64(3), seed=np.int64(0),
            draws=np.array(draws),
        )
        assert main(["test", "--x", xf, "--y", yf, "--tests", "hc", "--table", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


class TestParserReuse:
    """main builds its parser once per process and parses every call afresh."""

    @staticmethod
    def argv(tmp_path):
        rng = np.random.default_rng(8)
        xf, yf = write_samples(tmp_path, rng.normal(size=20), rng.normal(size=30))
        return ["test", "--x", xf, "--y", yf, "--tests", "all", "--reps", "200",
                "--epsilon", "0.1", "--mu", "1.5"]

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_identical_calls_print_identical_bytes(self, tmp_path, capsys):
        argv = self.argv(tmp_path)
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr() == first

    @pytest.mark.parametrize("rejected", [
        ["--seed", "7", "--dejitter", "--gamma", "1", "--reps", "many"],
        ["--tests", "hc", "--no-such-flag"],
    ], ids=["bad_value", "unknown_flag"])
    def test_rejected_call_leaves_the_next_unchanged(self, tmp_path, capsys, rejected):
        # the rejected call sets flags before argparse stops at its last one
        argv = self.argv(tmp_path)
        assert main(argv) == 0
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_:
            main([*argv, *rejected])
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv", [["-h"], ["test", "-h"], ["power", "--help"]])
    def test_help_unchanged(self, capsys, monkeypatch, argv):
        # as a parser built anew for each call printed it
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exit_:
            build_parser.__wrapped__().parse_args(argv)
        assert exit_.value.code == 0
        expected = capsys.readouterr().out
        assert expected.startswith("usage: mixdetect")
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 0
            assert capsys.readouterr().out == expected


class TestPinnedTestOutput:
    """sha256 of `test --tests all` stdout on fixed 300 x 300 files (rng_scheme 10,
    numpy 2.4.6); the master seed 2**40 + 3 takes two entropy words.  The
    Wilcoxon p-value's digits, and the LRT's lattice null at gamma = 2, come
    from the C library's erfc (glibc here), through math.erfc, and the
    LRT's also from numpy's FFT."""

    @pytest.mark.parametrize("seed, digest", [
        (0, "b2d6cb09953459f6b98da4ed4506f28d94fdd372b7a1c108f55ba56fe871a6c3"),
        (2**40 + 3, "c32449196cd23bb5ea0a6bbfb2186d8e96b5309e06c8907f0819a035dc9e57d5"),
    ], ids=["seed-0", "seed-two-words"])
    def test_all_tests(self, tmp_path, capsys, seed, digest):
        rng = np.random.default_rng(2021)
        x, y = rng.standard_normal(300), rng.standard_normal(300)
        y[:20] += 1.5
        xf, yf = write_samples(tmp_path, x, y)
        argv = ["test", "--x", xf, "--y", yf, "--tests", "all",
                "--epsilon", "0.05", "--mu", "1.5", "--seed", str(seed)]
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("regime, beta", [("sparse", "0.6"), ("dense", "0.3")])
    @pytest.mark.parametrize("gamma", ["inf", "0", "nan"])
    def test_gamma_refused_as_by_a_model(self, capsys, regime, beta, gamma):
        argv = ["boundary", "--beta", beta, "--gamma", gamma, "--regime", regime]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: gamma must lie in (0, inf), got {float(gamma)}\n"


# the flags each diagnose condition reads, besides --gamma, --gg-scale and
# --mu, and a valid value of each
DIAGNOSE_READS = {
    "hc": {"--n", "--t", "--eta", "--epsilon"},
    "wilcoxon": {"--n", "--epsilon"},
    "ks": {"--n", "--epsilon"},
    "tailrun": {"--n", "--m", "--t", "--l", "--epsilon"},
    "lower-bound": {"--x-upper"},
}
DIAGNOSE_FLAGS = {"--n": "100", "--m": "100", "--t": "1", "--l": "2", "--eta": "0.5",
                  "--x-upper": "1", "--epsilon": "0.1"}


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

    @pytest.mark.parametrize("mu", ["inf", "nan", "-1"])
    def test_lower_bound_mu_refused(self, capsys, monkeypatch, mu):
        # refused before any integration
        from mixdetect import theory

        monkeypatch.setattr(theory, "quad_pieces", None)
        assert main(["diagnose", "--condition", "lower-bound", "--mu", mu]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: mu must lie in [0, inf), got {float(mu)}\n"

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

    def test_tailrun(self, capsys):
        import dataclasses

        from mixdetect import GGParams, MixtureAlt, tailrun_condition

        argv = ["diagnose", "--condition", "tailrun", "--t", "2.5", "--m", "1000",
                "--n", "2000", "--l", "3", "--epsilon", "0.05", "--mu", "3"]
        assert main(argv) == 0
        check = tailrun_condition(2.5, 1000, 2000, GGParams(2.0), MixtureAlt(0.05, 3.0), 3)
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(check)

    @pytest.mark.parametrize("condition, flag", [
        (c, f) for c, reads in DIAGNOSE_READS.items() for f in DIAGNOSE_FLAGS if f not in reads
    ])
    def test_unread_flag_refused(self, capsys, monkeypatch, condition, flag):
        from mixdetect import cli

        for name in ("hc_conditions", "wilcoxon_condition", "ks_condition",
                     "tailrun_condition", "lower_bound_integral"):
            monkeypatch.setattr(cli.theory, name, None)
        argv = ["diagnose", "--condition", condition, "--mu", "1", flag, DIAGNOSE_FLAGS[flag]]
        # every flag the condition requires is given, so only the unread one is wrong
        for required in DIAGNOSE_READS[condition] & {"--t", "--epsilon"}:
            argv += [required, DIAGNOSE_FLAGS[required]]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} does not apply to --condition {condition}\n"

    def test_unread_flags_with_bad_values_refused(self, capsys):
        argv = ["diagnose", "--condition", "ks", "--n", "100", "--m", "0", "--l", "-5",
                "--eta", "9", "--x-upper", "nan", "--epsilon", "0.1", "--mu", "2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --m does not apply to --condition ks\n"

    def test_defaults_of_the_reading_condition(self, capsys):
        import dataclasses

        from mixdetect import GGParams, MixtureAlt, hc_conditions, tailrun_condition

        model, alt = GGParams(2.0), MixtureAlt(0.1, 1.0)
        main(["diagnose", "--condition", "tailrun", "--t", "2", "--epsilon", "0.1", "--mu", "1"])
        check = tailrun_condition(2.0, 10**5, 10**5, model, alt, 1)
        assert json.loads(capsys.readouterr().out) == dataclasses.asdict(check)
        main(["diagnose", "--condition", "hc", "--t", "2", "--epsilon", "0.1", "--mu", "1"])
        reps = hc_conditions(2.0, 10**5, model, alt, 0.5)
        out = json.loads(capsys.readouterr().out)
        assert out["median_separation"] == {
            k: v for k, v in dataclasses.asdict(reps[2]).items() if v is not None
        }

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
            "calibrate", "--statistic", "HC", "--m", "20", "--n", "20",
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
        directory = tmp_path / "d.npz"
        directory.mkdir()
        args[-1] = str(directory)
        assert main([*args, "--force"]) == 1
        assert capsys.readouterr().err == f"error: cannot write {directory}: it is a directory\n"
        # a directory given without the suffix is refused as it is, not
        # taken as the stem of a file beside it
        plain = tmp_path / "out"
        plain.mkdir()
        args[-1] = f"{plain}/"
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: cannot write {plain}: it is a directory\n"
        assert not (tmp_path / "out.npz").exists()
        # with no such directory, Path would read sub/ as sub and write sub.npz
        for name in (f"{tmp_path}/sub/", f"{tmp_path}/sub/."):
            args[-1] = name
            assert main(args) == 1
            assert capsys.readouterr().err == f"error: cannot write {name}: it names no file\n"
            assert not (tmp_path / "sub.npz").exists() and not (tmp_path / "sub").exists()

    def test_lrt_refused(self, tmp_path, capsys, monkeypatch):
        # the LRT's null is computed by mixdetect test and the harness; no
        # file is written
        monkeypatch.chdir(tmp_path)
        assert main(["calibrate", "--statistic", "lrt", "--m", "5", "--n", "50"]) == 1
        assert capsys.readouterr() == (
            "", "error: LRT reads no null table: its p-value uses the lattice-convolution null\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_default_names(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = ["calibrate", "--m", "5", "--n", "50", "--reps", "100"]
        assert main([*base, "--statistic", "HC"]) == 0
        paths = [json.loads(line)["path"] for line in capsys.readouterr().out.splitlines()]
        assert paths == ["HC_m5_n50_r100_s0.npz"]

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
        # mixdetect test's LRT p-value reads the null the harness reads at
        # the grid point of the same alternative
        from mixdetect import GGParams, ScenarioConfig
        from mixdetect import calibration as cal
        from mixdetect.experiments import _lrt_null_table

        cfg = ScenarioConfig(
            model=GGParams(2.0), m=50, n=40, regime="dense", beta=0.2,
            grid=[0.1, 0.3, 0.5], tests=["LRT"], power_reps=1, calib_reps=150,
            master_seed=3,
        )
        rng = np.random.default_rng(8)
        xf, yf = write_samples(tmp_path, rng.normal(size=50), 0.3 + rng.normal(size=40))
        for g, nulls in zip(cfg.grid, _lrt_null_table(cfg, None)):
            null = nulls["LRT"]
            alt = cfg.alt_for(g)
            assert main(["test", "--x", xf, "--y", yf, "--tests", "lrt",
                         "--epsilon", repr(alt.epsilon), "--mu", repr(alt.mu)]) == 0
            row = json.loads(capsys.readouterr().out)["tests"]["LRT"]
            assert row["pvalue"] == float(cal.lattice_pvalues(row["statistic"], null))

    def test_missing_out_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.npz"
        args = ["calibrate", "--statistic", "HC", "--m", "5", "--n", "5", "--reps", "100"]
        assert main(args + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nodir" in err
        assert not out.parent.exists()

    def test_empty_sample_refused(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        args = ["calibrate", "--statistic", "HC", "--m", "3", "--n", "0", "--out", str(out)]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: n must be at least 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("model_args", [
        ["--mu", "-1", "--epsilon", "0.9", "--gamma", "-2"], ["--gg-scale", "0"],
        ["--epsilon", "0.9", "--mu", "1"], ["--epsilon", "0.1", "--mu", "-1"], ["--mu", "1"],
    ], ids=["gamma", "gg_scale", "epsilon", "mu", "mu_alone"])
    def test_unread_model_args_validated(self, tmp_path, capsys, monkeypatch, model_args):
        # HC's table reads no model, so calibrate has no model flags: the
        # parser refuses each one before anything is simulated or written
        from mixdetect import calibration

        def no_table(*args, **kwargs):
            raise AssertionError("mc_null_table called with a model flag")

        monkeypatch.setattr(calibration, "mc_null_table", no_table)
        out = tmp_path / "t.npz"
        args = ["calibrate", "--statistic", "hc", "--m", "5", "--n", "5", "--reps", "100",
                "--out", str(out), *model_args]
        with pytest.raises(SystemExit) as exit_:
            main(args)
        assert exit_.value.code == 2
        out_, err = capsys.readouterr()
        assert out_ == "" and "unrecognized arguments: " + model_args[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("statistic", ["wilcoxon", "KS"])
    def test_asymptotic_statistics_refused(self, tmp_path, capsys, statistic):
        # no p-value reads their tables; the law of the label arrangements
        # is checked by TestMcNullTable::test_rank_null_law
        out = tmp_path / "t.npz"
        args = ["calibrate", "--statistic", statistic, "--m", "5", "--n", "5", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {statistic.upper()} reads no null table")
        assert not out.exists()


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
        assert "power_reps must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "normal-dense.csv").exists()

    def test_negative_threads_refused(self, tmp_path, capsys):
        args = ["power", "--preset", "normal-dense", "--scale", "0.001", "--out", str(tmp_path)]
        assert main(args + ["--threads", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threads" in err
        assert not (tmp_path / "normal-dense.csv").exists()

    def test_refused_threads_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        # the thread count is checked before --out or --cache-dir is made
        monkeypatch.chdir(tmp_path)
        args = ["power", "--preset", "normal-dense", "--scale", "0.001",
                "--threads", "-1", "--out", "o", "--cache-dir", "c"]
        assert main(args) == 1
        assert "threads must be at least 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_lrt_without_a_lattice_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        # the config is refused when read, before --out is made or a
        # replicate drawn
        monkeypatch.chdir(tmp_path)
        config = {"model": {"gamma": 0.005, "scale": 1.0}, "m": 2000, "n": 2000,
                  "regime": "dense", "beta": 0.2, "grid": [0.25, 0.5], "power_reps": 200}
        (tmp_path / "lrt.json").write_text(json.dumps(config))
        assert main(["power", "--config", "lrt.json", "--out", "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ") and err.count("\n") == 1
        assert "the LRT's null has no lattice at gamma = 0.005: " in err
        assert [p.name for p in tmp_path.iterdir()] == ["lrt.json"]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_threads_capped_at_the_cores(self, tmp_path, monkeypatch, cores):
        from mixdetect import experiments as exp

        sizes = []

        class CappedPool(exp.ProcessPoolExecutor):
            def __init__(self, max_workers):
                # fail before any worker could start if the cap is missing
                assert max_workers <= cores
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(exp.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(exp, "ProcessPoolExecutor", CappedPool)
        args = ["power", "--preset", "normal-dense", "--scale", "0.001", "--reps", "4"]
        assert main(args + ["--out", str(tmp_path / "a"), "--threads", "5000"]) == 0
        assert main(args + ["--out", str(tmp_path / "b"), "--threads", "1"]) == 0
        assert sizes == ([] if cores == 1 else [2])
        csv = "normal-dense.csv"
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()

    @pytest.mark.parametrize("flag", ["--out", "--cache-dir", "run.csv", "run.json"])
    def test_directory_that_is_a_file(self, tmp_path, capsys, monkeypatch, flag):
        """--out or --cache-dir is a file, or an output file is a directory."""
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated before the directory was checked")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        args = ["power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
                "--out", str(tmp_path), "--stem", "run"]
        if flag.startswith("--"):
            blocker = tmp_path / "a-file"
            blocker.write_text("")
            args += [flag, str(blocker)]
        else:
            blocker = tmp_path / flag
            blocker.mkdir()
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err

    def test_missing_stem_directory_refused_before_simulating(self, tmp_path, capsys,
                                                               monkeypatch):
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated before the stem's directory was checked")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        args = ["power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
                "--out", str(tmp_path), "--stem", "sub/run"]
        assert main(args) == 1
        csv_path = tmp_path / "sub" / "run.csv"
        assert capsys.readouterr() == (
            "", f"error: cannot write {csv_path}: no directory {csv_path.parent}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stem", ["absolute", "../esc", "sub/../../esc"])
    def test_stem_outside_out_refused_before_simulating(self, tmp_path, capsys,
                                                          monkeypatch, stem):
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated before the stem was checked")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        stem = str(tmp_path / "run") if stem == "absolute" else stem
        args = ["power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
                "--out", str(tmp_path / "o" / "inner"), "--stem", stem]
        assert main(args) == 1
        assert capsys.readouterr() == (
            "", f"error: --stem must name a file inside --out, got {stem!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stem", [".", "sub/", "sub/."])
    def test_stem_with_no_file_name_refused_before_simulating(self, tmp_path, capsys,
                                                              monkeypatch, stem):
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated before the stem was checked")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        (tmp_path / "sub").mkdir()
        args = ["power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
                "--out", str(tmp_path), "--stem", stem]
        assert main(args) == 1
        assert capsys.readouterr() == (
            "", f"error: --stem must name a file inside --out, got {stem!r}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    def test_stem_in_a_subdirectory(self, tmp_path, capsys):
        (tmp_path / "sub").mkdir()
        args = ["power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
                "--out", str(tmp_path), "--stem", "sub/run"]
        assert main(args) == 0
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["run.csv", "run.json"]

    def test_scale_with_config_refused_before_simulating(self, tmp_path, capsys,
                                                          monkeypatch):
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated for a config with --scale")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(exp.figure_config("normal-dense", 0.0005).to_dict()))
        args = ["power", "--config", str(cfg), "--scale", "0.5", "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert capsys.readouterr() == (
            "", "error: --scale applies only to --preset; a config gives m and n itself\n")
        assert not (tmp_path / "o").exists()

    def test_preset_scale_defaults_to_one(self, capsys, monkeypatch):
        from mixdetect import experiments as exp

        seen = []

        def stop(preset, scale):
            seen.append(scale)
            raise ValueError("stop")

        monkeypatch.setattr(exp, "figure_config", stop)
        assert main(["power", "--preset", "normal-dense"]) == 1
        assert seen == [1.0]

    def test_config_and_preset_conflict(self, capsys):
        assert main(["power", "--preset", "normal-dense", "--config", "x.json"]) == 1

    def test_invalid_config_message(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"m": 10}))
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 1.5), ("master_seed", True), ("power_reps", 20.5),
        ("calib_reps", 150.5), ("m", 40.5),
    ])
    def test_config_integer_fields(self, tmp_path, capsys, monkeypatch, field, value):
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated for a config with a non-integer field")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        raw = {**exp.figure_config("normal-dense", 0.0004).to_dict(), field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["power", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: invalid config: ValueError('{field} must be an integer, got {value!r}')\n")
        assert not out.exists()

    def test_config_model_bool_refused(self, tmp_path, capsys):
        from mixdetect import experiments as exp

        # {"gamma": true} ran as gamma = 1 and was recorded as true
        raw = {**exp.figure_config("normal-dense", 0.0004).to_dict(), "model": {"gamma": True}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["power", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: invalid config: ValueError('gamma must be a real number, got True')\n")
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("gamma", "2"), ("beta", "0.6"), ("level", "0.05"), ("grid", ["0.05", 0.1]),
    ])
    def test_config_real_fields(self, tmp_path, capsys, monkeypatch, field, value):
        # a string here raised a TypeError that named no field
        from mixdetect import experiments as exp

        def fail(*args, **kwargs):
            pytest.fail("the curve was simulated for a config with a string real field")

        monkeypatch.setattr(exp, "run_power_grid", fail)
        raw = exp.figure_config("normal-dense", 0.0004).to_dict()
        if field == "gamma":
            raw["model"] = {"gamma": value}
        else:
            raw[field] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        name, bad = ("grid value", value[0]) if field == "grid" else (field, value)
        message = ValueError(f"{name} must be a real number, got {bad!r}")
        assert capsys.readouterr() == ("", f"error: invalid config: {message!r}\n")


class TestErrorBoundary:
    """Every failure is one 'error: ' line on stderr and exit status 1."""

    @staticmethod
    def missing_x(tmp_path):
        _, yf = write_samples(tmp_path, [1, 2], [3, 4])
        missing = tmp_path / "nope.txt"
        return ["test", "--x", str(missing), "--y", yf], missing

    @staticmethod
    def missing_table(tmp_path):
        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        missing = tmp_path / "nope.npz"
        return ["test", "--x", xf, "--y", yf, "--tests", "hc", "--table", str(missing)], missing

    @staticmethod
    def empty_table(tmp_path):
        argv, table = TestErrorBoundary.missing_table(tmp_path)
        table.write_bytes(b"")
        return argv, table

    @staticmethod
    def npy_table(tmp_path):
        # an .npy file under the .npz name: np.load gives a bare array
        argv, table = TestErrorBoundary.missing_table(tmp_path)
        with open(table, "wb") as f:
            np.save(f, np.arange(3.0))
        return argv, table

    @staticmethod
    def missing_unused_table(tmp_path):
        argv, missing = TestErrorBoundary.missing_table(tmp_path)
        argv[argv.index("hc")] = "wilcoxon"
        return argv, missing

    @staticmethod
    def missing_config(tmp_path):
        missing = tmp_path / "nope.json"
        return ["power", "--config", str(missing), "--out", str(tmp_path)], missing

    @staticmethod
    def calibrate_onto_directory(tmp_path):
        out = tmp_path / "t.npz"
        out.mkdir()
        argv = ["calibrate", "--statistic", "HC", "--m", "5", "--n", "5", "--reps", "100",
                "--out", str(out), "--force"]
        return argv, out

    @staticmethod
    def power_csv_is_a_directory(tmp_path):
        csv_path = tmp_path / "normal-dense.csv"
        csv_path.mkdir()
        argv = ["power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2",
                "--out", str(tmp_path)]
        return argv, csv_path

    @staticmethod
    def cache_entry_is_a_directory(tmp_path):
        entry = tmp_path / "cache" / "HC_m100_n100_r4000_s0.npz"
        entry.mkdir(parents=True)
        argv = ["power", "--preset", "normal-dense", "--scale", "0.001", "--reps", "2",
                "--out", str(tmp_path / "out"), "--cache-dir", str(tmp_path / "cache")]
        return argv, entry

    @pytest.mark.parametrize("case", [
        "missing_x", "missing_table", "missing_unused_table", "missing_config",
        "calibrate_onto_directory", "empty_table", "npy_table",
        "power_csv_is_a_directory", "cache_entry_is_a_directory",
    ])
    def test_file_errors(self, tmp_path, capsys, case):
        argv, path = getattr(self, case)(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(path) in lines[0]

    @pytest.mark.parametrize("gamma", ["2", "3"])
    def test_lrt_overflow(self, tmp_path, capsys, gamma):
        # a Y-value whose LRT term overflows: numpy warns of nothing, and
        # lrt_stats' FloatingPointError is the one error line
        xf, yf = write_samples(tmp_path, [0.1, 0.5, -0.3], [1e308])
        argv = ["test", "--x", xf, "--y", yf, "--tests", "lrt", "--gamma", gamma,
                "--epsilon", "0.1", "--mu", "5"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite likelihood ratio term\n"

    @pytest.mark.parametrize("command, name", [
        ("power", "master_seed"), ("test", "seed"), ("calibrate", "seed"),
    ])
    def test_negative_seed(self, tmp_path, capsys, command, name):
        xf, yf = write_samples(tmp_path, [0.1, 0.4, 0.9], [0.2, 0.6, 1.3])
        out = tmp_path / "out"
        argv = {
            "power": ["--preset", "normal-dense", "--scale", "0.001", "--out", str(out)],
            "test": ["--x", xf, "--y", yf, "--tests", "hc", "--reps", "200"],
            "calibrate": ["--statistic", "HC", "--m", "5", "--n", "5", "--reps", "100",
                          "--out", str(out) + ".npz"],
        }[command]
        if command == "power":
            argv += ["--cache-dir", str(out)]
        # a table file holds its seed as an int64, so 2**63 is refused too,
        # before anything is simulated or written
        for seed, rule in [("-1", "must be at least 0"), (str(2**63), "must be below 2**63")]:
            assert main([command, *argv, "--seed", seed]) == 1
            assert capsys.readouterr().err == f"error: {name} {rule}, got {seed}\n"
            assert not out.exists() and not (tmp_path / "out.npz").exists()
