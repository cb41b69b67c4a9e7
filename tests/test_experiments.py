import dataclasses
import hashlib
import json

import numpy as np
import pytest

from mixdetect import GGParams, ScenarioConfig, figure_config, run_null_level, run_power_grid
from mixdetect import calibration as cal
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

    def test_determinism_across_threads(self):
        cfg = small_config(grid=[0.3, 0.7], power_reps=20)
        a = run_power_grid(cfg, threads=1)
        b = run_power_grid(cfg, threads=3)
        assert a.to_csv() == b.to_csv()

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


def pinned_config():
    base = figure_config("normal-dense", scale=0.002)
    return dataclasses.replace(base, grid=base.grid[:3], calib_reps=200, power_reps=20)


class TestPinnedOutput:
    """CSV digests of a small all-test curve, recorded with numpy 2.4.6.

    A change that alters the random streams on purpose updates them.
    """

    @staticmethod
    def digest(curve):
        return hashlib.sha256(curve.to_csv().encode()).hexdigest()

    def test_power_grid(self):
        assert self.digest(run_power_grid(pinned_config())) == (
            "9250adb2cbd873fd0ef9018876429a51222d04f7192c8368f0c4a237a7bc0e76"
        )

    def test_null_level(self):
        assert self.digest(run_null_level(pinned_config())) == (
            "2eb63abe5a48a1ce185660de5b3871f88cecdf7c631138b547926aee30a9c6b0"
        )


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

    def test_truncated_file_is_recomputed(self, tmp_path):
        cfg = self.config()
        expected = run_power_grid(cfg, cache_dir=tmp_path).to_csv()
        path = self.cache_file(cfg, tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        assert run_power_grid(cfg, cache_dir=tmp_path).to_csv() == expected
        assert cal.load_null_table(path).key == (
            st.HC, cfg.m, cfg.n, cfg.calib_reps, cfg.master_seed
        )
