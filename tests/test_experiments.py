import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from mixdetect import GGParams, ScenarioConfig, figure_config, run_null_level, run_power_grid
from mixdetect import calibration as cal
from mixdetect import experiments as exp
from mixdetect import statistics as st
from mixdetect.experiments import DENSE, SPARSE


def small_config(**overrides):
    defaults = dict(
        model=GGParams(2.0),
        m=100,
        n=100,
        regime=SPARSE,
        beta=0.6,
        grid=[0.5],
        power_reps=10,
        calib_reps=150,
        master_seed=5,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestConfigValidation:
    def test_n_greater_than_m_rejected(self):
        with pytest.raises(ValueError):
            small_config(m=50, n=100)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            small_config(level=0.0)

    def test_zero_reps(self):
        with pytest.raises(ValueError):
            small_config(power_reps=0)

    def test_bad_regime(self):
        with pytest.raises(ValueError):
            small_config(regime="other")

    def test_unknown_test(self):
        with pytest.raises(ValueError):
            small_config(tests=["HC", "BOGUS"])

    def test_repeated_test(self):
        with pytest.raises(ValueError, match=r"^test 'HC' is selected more than once$"):
            small_config(tests=["HC", "WILCOXON", "HC"])

    def test_nonincreasing_grid(self):
        with pytest.raises(ValueError):
            small_config(grid=[0.3, 0.3])

    def test_sparse_grid_range(self):
        with pytest.raises(ValueError):
            small_config(grid=[1.0])

    def test_dense_grid_accepts_half(self):
        small_config(regime=DENSE, beta=0.2, grid=[0.25, 0.5])

    def test_dense_grid_rejects_above_half(self):
        with pytest.raises(ValueError):
            small_config(regime=DENSE, beta=0.2, grid=[0.6])

    @pytest.mark.parametrize("name", ["m", "n", "power_reps", "calib_reps", "master_seed"])
    def test_integer_fields(self, name):
        # a float or a bool used to be taken as the number it rounds to, or
        # to fail later with a TypeError
        value = small_config().to_dict()[name]
        for bad in (value + 0.5, float(value), True, str(value)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
                small_config(**{name: bad})
        assert getattr(small_config(**{name: np.int64(value)}), name) == value

    @pytest.mark.parametrize("name, value", [
        ("beta", "0.6"), ("level", "0.05"), ("level", True), ("grid", [0.3, "0.5"]),
    ])
    def test_real_fields(self, name, value):
        # a string raised a TypeError that named no field
        field, bad = ("grid value", value[1]) if name == "grid" else (name, value)
        message = f"{field} must be a real number, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{name: value})
        assert small_config(beta=np.float64(0.6), level=np.float32(0.05)).beta == 0.6

    def test_dict_roundtrip(self):
        cfg = small_config()
        again = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again.to_dict() == cfg.to_dict()


class TestRunPowerGrid:
    def test_one_point_curve_shape(self):
        cfg = small_config(m=50, n=50)
        curve = run_power_grid(cfg)
        assert len(curve.points) == 1
        for test in cfg.tests:
            row = curve.points[0].per_test[test]
            assert 0 <= row["reject_count"] <= 10
            assert row["power"] == row["reject_count"] / 10

    def test_determinism_across_threads(self, monkeypatch):
        # three workers split the replicates unlike two; threads is capped
        # at the core count, so the test stands in for a 3-core host
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 3)
        cfg = small_config(grid=[0.3, 0.7], power_reps=20)
        a = run_power_grid(cfg, threads=1)
        b = run_power_grid(cfg, threads=3)
        assert a.to_csv() == b.to_csv()

    def test_negative_threads_refused(self, monkeypatch):
        # a float or a bool is no worker count either: 2.5 ran 2 workers,
        # True none, and 1.5 failed in ProcessPoolExecutor
        monkeypatch.setattr(exp, "ProcessPoolExecutor", None)
        for threads, message in [
            (-1, "threads must be at least 0, got -1"),
            (2.5, "threads must be an integer, got 2.5"),
            (1.5, "threads must be an integer, got 1.5"),
            (True, "threads must be an integer, got True"),
        ]:
            for run in (run_power_grid, run_null_level):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    run(small_config(), threads=threads)

    def test_boundary_marker(self):
        cfg = small_config()
        curve = run_power_grid(cfg, threads=1)
        assert curve.boundary_marker == pytest.approx(0.1)  # rho*_2(0.6)

    def test_csv_header_and_rows(self):
        cfg = small_config(tests=[st.WILCOXON, st.TAILRUN])
        curve = run_power_grid(cfg)
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "grid_value,test,power,ci_half_width,reject_count,reps"
        assert len(lines) == 1 + len(cfg.grid) * 2

    def test_write_outputs(self, tmp_path):
        cfg = small_config(tests=[st.KS])
        curve = run_power_grid(cfg)
        csv_path, json_path = curve.write(tmp_path, "probe")
        sidecar = json.loads(json_path.read_text())
        assert sidecar["config"]["master_seed"] == 5
        assert "boundary_marker" in sidecar
        assert csv_path.read_text().startswith("grid_value,")

    def test_power_increases_with_signal(self):
        cfg = small_config(
            m=400,
            n=400,
            regime=DENSE,
            beta=0.2,
            grid=[0.05, 0.5],
            power_reps=60,
            calib_reps=400,
            tests=[st.LRT, st.WILCOXON],
        )
        curve = run_power_grid(cfg)
        lo, hi = curve.points
        for test in cfg.tests:
            assert hi.per_test[test]["power"] >= lo.per_test[test]["power"]


class TestRunNullLevel:
    def test_size_close_to_level(self):
        cfg = small_config(power_reps=400, calib_reps=500, m=200, n=200)
        report = run_null_level(cfg)
        sigma = np.sqrt(0.05 * 0.95 / 400)
        for test in cfg.tests:
            size = report.points[0].per_test[test]["power"]
            assert abs(size - 0.05) < 4 * sigma + 1 / 400

    def test_determinism(self):
        cfg = small_config(power_reps=30, calib_reps=150)
        a = run_null_level(cfg)
        b = run_null_level(cfg)
        assert a.to_csv() == b.to_csv()


class TestFigurePresets:
    def test_normal_dense(self):
        cfg = figure_config("normal-dense", scale=1.0)
        assert cfg.m == cfg.n == 10**5
        assert cfg.regime == DENSE and cfg.beta == 0.2
        assert cfg.grid == [round(0.05 * i, 10) for i in range(1, 11)]
        assert cfg.level == 0.05 and cfg.power_reps == 200 and cfg.calib_reps == 4000

    def test_normal_verysparse(self):
        cfg = figure_config("normal-verysparse", scale=1.0)
        assert cfg.beta == 0.8 and cfg.regime == SPARSE
        assert cfg.grid == [round(0.1 * i, 10) for i in range(1, 10)]

    def test_scaled_down(self):
        cfg = figure_config("normal-dense", scale=0.1)
        assert cfg.m == cfg.n == 10**4
        assert cfg.grid == figure_config("normal-dense", scale=1.0).grid

    def test_dexp_model_unit_variance(self):
        cfg = figure_config("dexp-dense", scale=0.01)
        assert cfg.model.gamma == 1.0
        assert cfg.model.variance == pytest.approx(1.0, abs=1e-12)

    def test_unknown_figure(self):
        with pytest.raises(ValueError):
            figure_config("bogus")

    def test_configs_share_no_grid(self):
        a = figure_config("normal-dense")
        a.grid.append(0.6)
        assert figure_config("normal-dense").grid[-1] == 0.5
        assert figure_config("dexp-dense").grid[-1] == 0.5


def pinned_config():
    base = figure_config("normal-dense", scale=0.002)
    return dataclasses.replace(base, grid=base.grid[:3], calib_reps=200, power_reps=20)


class TestPinnedOutput:
    """CSV digests of a small all-test curve, recorded with numpy 2.4.6.

    A change that alters the random streams on purpose updates them; the
    current ones are those of rng_scheme 9, where a power replicate's X,
    Y-base and K serve every grid point, drawn from a stream with no grid
    index.  Every CSV digest moved at scheme 9, and no null table did.  At
    scheme 8 a rank-null replicate came to be the m smallest of m + n uniform
    keys, which moved every digest here, since each reads an HC table; at
    scheme 7 a mixture sample came to shift its first K ~ Binomial(n, eps)
    draws (so only its multiset is iid) and gamma = 1 to be drawn as
    scale * (E1 - E2).
    """

    @staticmethod
    def digest(curve):
        return hashlib.sha256(curve.to_csv().encode()).hexdigest()

    def test_power_grid(self):
        assert self.digest(run_power_grid(pinned_config())) == (
            "0d5e45e357ecc5ed206d0fe27c01e8f067b0bdb313f2a0170438a3826834d056"
        )

    def test_power_grid_multiword_seed(self):
        # a master seed of 2**40 + 3 enters the entropy as two words
        cfg = dataclasses.replace(pinned_config(), master_seed=2**40 + 3)
        assert self.digest(run_power_grid(cfg)) == (
            "554abd14843bcef3c83427053c35ad68acb6a20552367c655d3c57dc6e473a4d"
        )

    def test_null_level(self):
        assert self.digest(run_null_level(pinned_config())) == (
            "cf84dbfe9de7c1e95945d15439c7d10e0fe40bc11db737a36a1c9a948d757401"
        )

    def test_sparse_rank_power_grid(self):
        # dexp-moderate: gamma = 1, sparse regime, the four rank tests
        base = figure_config("dexp-moderate", scale=0.002)
        cfg = dataclasses.replace(
            base, grid=base.grid[:3], calib_reps=200, power_reps=20,
            tests=[st.HC, st.WILCOXON, st.KS, st.TAILRUN],
        )
        assert self.digest(run_power_grid(cfg)) == (
            "0f276ff38bbe6a74efdf147e3a2582d5541ba9077e2e4cca1b5571274ab334f0"
        )

    @pytest.mark.parametrize("run", [run_power_grid, run_null_level])
    def test_null_tables(self, monkeypatch, run):
        # the reject counts of 20 power replicates can hide a changed null
        # stream, so the tables' draws are pinned too; the HC entry moved
        # alone at rng_scheme 8 (the m smallest of m + n uniform keys in
        # place of a label shuffle), since rank nulls never call gg_sample;
        # at rng_scheme 5 only the LRT entries moved (the gamma = 2 log
        # density ratio's last bits)
        seen = {}
        power_point = exp._power_point

        def spy(config, grid_idx, tables, columns):
            seen[grid_idx] = tables
            return power_point(config, grid_idx, tables, columns)

        monkeypatch.setattr(exp, "_power_point", spy)
        run(pinned_config())
        tables = [seen[0][st.HC]] + [seen[g][st.LRT] for g in sorted(seen)]
        digests = [hashlib.sha256(t.draws.tobytes()).hexdigest() for t in tables]
        assert digests == [
            "e7a6c81463afc4fe5e45641a9991a24933ed6d8576a5878d55587d02b73bc2b6",
            "efe9639c7fbba6e6ee5290bf19e46850cde10337a14f94d3aa3f6a6ff151ec0b",
            "5b706131afc07a94f6c920618d374464f729d7e3861d5e6d45973017ba4473df",
            "330744c39733055dff6933a27973cdae10624cb7fb43129c61df29324314c35f",
        ]


class TestLrtNullTables:
    """The harness's LRT null table at each grid point is mc_null_table's."""

    def config(self, tests=(st.LRT, st.HC)):
        return small_config(
            m=50, n=40, regime=DENSE, beta=0.2, grid=[0.1, 0.3, 0.5],
            tests=list(tests), power_reps=5, calib_reps=150,
        )

    def harness_tables(self, monkeypatch, run, cfg, threads):
        seen = {}
        power_point = exp._power_point

        def spy(config, grid_idx, tables, columns):
            seen[grid_idx] = tables
            return power_point(config, grid_idx, tables, columns)

        monkeypatch.setattr(exp, "_power_point", spy)
        run(cfg, threads=threads)
        return [seen[g] for g in range(len(cfg.grid))]

    @pytest.mark.parametrize("run", [run_power_grid, run_null_level])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_mc_null_table(self, monkeypatch, run, threads):
        cfg = self.config()
        tables = self.harness_tables(monkeypatch, run, cfg, threads)
        key = (cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed)
        hc = cal.mc_null_table(st.HC, *key)
        for g, point in zip(cfg.grid, tables):
            lrt = cal.mc_null_table(st.LRT, *key, model=(cfg.model, cfg.alt_for(g)))
            for expected in (lrt, hc):
                table = point[expected.statistic]
                assert table.key == expected.key
                np.testing.assert_array_equal(table.draws, expected.draws)

    @pytest.mark.parametrize("threads, pools", [(1, 0), (2, 1)])
    def test_one_pool_per_run(self, monkeypatch, threads, pools):
        opened, joined = [], []

        class CountedPool(exp.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

            def shutdown(self, wait=True, **kwargs):
                joined.append(wait)
                super().shutdown(wait, **kwargs)

        monkeypatch.setattr(exp, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 2)  # room for 2 workers
        run_power_grid(self.config(), threads=threads)
        assert len(opened) == pools and joined == [True] * pools

    def test_rng_scheme_recorded(self):
        sidecar = run_power_grid(self.config(tests=[st.KS])).to_json_dict()
        assert sidecar["rng_scheme"] == cal.RNG_SCHEME == 9
        assert "rng_scheme" not in sidecar["config"]
        assert ScenarioConfig.from_dict(sidecar["config"]).tests == [st.KS]


class TestHcCache:
    def config(self):
        return small_config(tests=[st.HC], calib_reps=120)

    def cache_file(self, cfg, tmp_path):
        return tmp_path / cal.cache_key(st.HC, cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed)

    def test_hit_reuses_the_file(self, tmp_path):
        cfg = self.config()
        first = run_power_grid(cfg, cache_dir=tmp_path).to_csv()
        stamp = self.cache_file(cfg, tmp_path).stat().st_mtime_ns
        assert run_power_grid(cfg, cache_dir=tmp_path).to_csv() == first
        assert self.cache_file(cfg, tmp_path).stat().st_mtime_ns == stamp

    def test_mismatched_file_is_recomputed(self, tmp_path):
        cfg = self.config()
        expected = run_power_grid(cfg).to_csv()
        path = self.cache_file(cfg, tmp_path)
        other_seed = cal.mc_null_table(st.HC, cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed + 1)
        cal.save_null_table(other_seed, path)
        assert run_power_grid(cfg, cache_dir=tmp_path).to_csv() == expected
        assert cal.load_null_table(path).seed == cfg.master_seed

    def test_old_version_is_recomputed(self, tmp_path):
        cfg = self.config()
        expected = run_power_grid(cfg).to_csv()
        path = self.cache_file(cfg, tmp_path)
        table = cal.mc_null_table(st.HC, cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed)
        np.savez(
            path, version=np.int64(1), statistic=np.str_(st.HC), m=np.int64(cfg.m),
            n=np.int64(cfg.n), reps=np.int64(cfg.calib_reps),
            seed=np.int64(cfg.master_seed), draws=table.draws[::-1],
        )
        assert run_power_grid(cfg, cache_dir=tmp_path).to_csv() == expected
        np.testing.assert_array_equal(cal.load_null_table(path).draws, table.draws)

    def test_format_2_file_is_recomputed(self, tmp_path):
        # a format-2 file under this key, holding draws that differ from scheme 3's
        cfg = self.config()
        expected = run_power_grid(cfg).to_csv()
        path = self.cache_file(cfg, tmp_path)
        stale = cal.mc_null_table(st.HC, cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed + 1)
        np.savez(
            path, version=np.int64(2), statistic=np.str_(st.HC), m=np.int64(cfg.m),
            n=np.int64(cfg.n), reps=np.int64(cfg.calib_reps),
            seed=np.int64(cfg.master_seed), draws=stale.draws,
        )
        assert run_power_grid(cfg, cache_dir=tmp_path).to_csv() == expected
        fresh = cal.mc_null_table(st.HC, cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed)
        np.testing.assert_array_equal(cal.load_null_table(path).draws, fresh.draws)

    def test_truncated_file_is_recomputed(self, tmp_path):
        cfg = self.config()
        expected = run_power_grid(cfg, cache_dir=tmp_path).to_csv()
        path = self.cache_file(cfg, tmp_path)
        for damaged in (path.read_bytes()[:100], b""):
            path.write_bytes(damaged)
            assert run_power_grid(cfg, cache_dir=tmp_path).to_csv() == expected
            assert cal.load_null_table(path).key == (
                st.HC, cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed
            )


def spy_batches(monkeypatch):
    """Record the tasks of every _run_batches call."""
    calls = []
    run_batches = exp._run_batches

    def spy(tasks, pool):
        calls.append(list(tasks))
        return run_batches(tasks, pool)

    monkeypatch.setattr(exp, "_run_batches", spy)
    return calls


class TestBatches:
    """Each stage of a run is one contiguous batch of replicates per worker."""

    def config(self, **overrides):
        defaults = dict(m=50, n=40, regime=DENSE, beta=0.2, grid=[0.1, 0.3, 0.5],
                        tests=[st.LRT, st.HC, st.KS], power_reps=5, calib_reps=150)
        return small_config(**{**defaults, **overrides})

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_batch_per_worker(self, monkeypatch, threads):
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 2)
        calls = spy_batches(monkeypatch)
        cfg = self.config()
        csv = run_power_grid(cfg, threads=threads).to_csv()
        # the LRT pass, the HC table, then the power pass over every grid point
        expected = [(cal.LRT_NULL, (5, cal.TAG_CALIB_LRT)),
                    (cal.RANK_NULL, (5, cal.TAG_CALIB_RANK)),
                    (cal.DATA, (5, cal.TAG_POWER))]
        assert [[(t[0], tuple(t[7])) for t in tasks] for tasks in calls] == [
            [e] * threads for e in expected
        ]
        cut = [(t[8], t[9]) for t in calls[0]]
        assert cut == ([(0, 150)] if threads == 1 else [(0, 75), (75, 150)])
        assert csv == run_power_grid(cfg, threads=1).to_csv()

    def test_fewer_replicates_than_workers(self, monkeypatch):
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 2)
        calls = spy_batches(monkeypatch)
        cfg = self.config(power_reps=1)
        two = run_power_grid(cfg, threads=2).to_csv()
        data = [[(t[8], t[9]) for t in tasks] for tasks in calls if tasks[0][0] == cal.DATA]
        assert data == [[(0, 1)]]
        assert two == run_power_grid(cfg, threads=1).to_csv()

    def test_hc_cache_hit_draws_no_rank_null_batch(self, monkeypatch, tmp_path):
        cfg = self.config(tests=[st.HC, st.WILCOXON])
        first = run_power_grid(cfg, cache_dir=tmp_path).to_csv()
        calls = spy_batches(monkeypatch)
        assert run_power_grid(cfg, cache_dir=tmp_path).to_csv() == first
        assert [t[0] for tasks in calls for t in tasks] == [cal.DATA]


def spy_points(monkeypatch):
    """Record the columns each _power_point call receives, by grid index."""
    seen = {}
    power_point = exp._power_point

    def spy(config, grid_idx, tables, columns):
        seen[grid_idx] = columns.copy()
        return power_point(config, grid_idx, tables, columns)

    monkeypatch.setattr(exp, "_power_point", spy)
    return seen


RANK_TESTS = [st.HC, st.WILCOXON, st.KS, st.TAILRUN]


class TestPowerPass:
    """One pass draws each replicate's X, Y-base and K once for the whole grid
    (common random numbers across the grid points)."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("run", [run_power_grid, run_null_level])
    @pytest.mark.parametrize("preset", ["normal-dense", "dexp-moderate"])  # gamma = 2, 1
    def test_each_point_is_its_own_draw(self, monkeypatch, preset, run, threads):
        # grid point g of the pass is, bit for bit, replicate_rows at alt_g
        # alone on the same streams; a null run draws Y from F at every point
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 2)
        base = figure_config(preset, scale=0.002)
        cfg = dataclasses.replace(base, calib_reps=150, power_reps=12, master_seed=7)
        seen = spy_points(monkeypatch)
        run(cfg, threads=threads)
        null = run is run_null_level
        parts = [cfg.master_seed, cal.TAG_NULL if null else cal.TAG_POWER]
        assert sorted(seen) == list(range(len(cfg.grid)))
        for g, value in enumerate(cfg.grid):
            alt = cfg.alt_for(value)
            expected = cal.replicate_rows(cal.DATA, cfg.tests, cfg.model, None if null else alt,
                                          [alt], cfg.m, cfg.n, parts, 0, cfg.power_reps)
            assert seen[g].shape == (len(cfg.tests), cfg.power_reps)
            assert seen[g].tobytes() == expected.T.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("preset", ["dexp-moderate", "normal-dense"])
    def test_rank_curves_never_fall(self, monkeypatch, preset, threads):
        # a larger mu only lowers X's ranks, so every rank statistic, and so
        # every reject count, is non-decreasing along the grid; at seed 0 each
        # of these curves fell somewhere under rng_scheme 8
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 2)
        base = figure_config(preset, scale=0.003)
        cfg = dataclasses.replace(base, tests=RANK_TESTS, calib_reps=200, power_reps=40,
                                  master_seed=0)
        curve = run_power_grid(cfg, threads=threads)
        for test in cfg.tests:
            counts = [pt.per_test[test]["reject_count"] for pt in curve.points]
            assert counts == sorted(counts), (test, counts)
        assert curve.points[-1].per_test[st.HC]["reject_count"] > 0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_null_level_repeats_rank_rows(self, monkeypatch, threads):
        # a null replicate's one sample serves every grid point: its rank
        # values repeat, and only the LRT is taken at each point's alternative
        monkeypatch.setattr(exp.os, "cpu_count", lambda: 2)
        base = figure_config("dexp-moderate", scale=0.002)
        cfg = dataclasses.replace(base, calib_reps=150, power_reps=30, master_seed=3)
        seen = spy_points(monkeypatch)
        curve = run_null_level(cfg, threads=threads)
        rank = [i for i, t in enumerate(cfg.tests) if t in RANK_TESTS]
        lrt = cfg.tests.index(st.LRT)
        for g in seen:
            assert seen[g][rank].tobytes() == seen[0][rank].tobytes()
        assert len({seen[g][lrt].tobytes() for g in seen}) == len(cfg.grid)
        for test in RANK_TESTS:
            assert len({json.dumps(pt.per_test[test]) for pt in curve.points}) == 1
