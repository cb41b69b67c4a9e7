"""Monte Carlo power-curve harness.

Calibrates null tables, simulates alternatives over a sparse (r) or dense
(s) parameter grid, and reports empirical power with binomial confidence
half-widths.  Every replicate draws from an rng-stream derived from
(master seed, purpose tag, replicate index); _collect maps
calibration.replicate_rows, which evaluates each statistic once per block
of replicates, over one contiguous batch of them per worker, in the run's
one process pool if threads > 1, so results are byte-identical at any
worker count.  A run makes at most two passes through _collect: the HC
table, from mc_null_table's builder, and the power pass.  The LRT's null
at each grid point is computed in this process after the power pass, by
one lattice convolution (calibration.lrt_null), and draws nothing.  The
power pass draws replicate k's X, Y-base and K ~ Binomial(n, eps) once for
the whole grid (eps is the same at every point; only mu moves), and scores
grid point g on the base with its first K values shifted by mu_g: common
random numbers, so the points of one curve are correlated and each rank
test's reject count never falls along the grid.  The running X-count of
X pooled with the base's last n - K values, which no shift moves, is taken
once per replicate, and point g's is built from it by one np.repeat that
places the K shifted values (calibration._data_counts).  _power_point
turns one point's values into its rejection rates.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import statistics as st
from . import theory
from .distributions import (GGParams, MixtureAlt, check_integer, check_real,
                            dense_calibration, sparse_calibration)

SPARSE = "sparse"
DENSE = "dense"

_GRID_05 = tuple(round(0.05 * i, 10) for i in range(1, 11))
_GRID_01 = tuple(round(0.1 * i, 10) for i in range(1, 10))
# figure preset -> (model, regime, beta, grid), read by figure_config
_PRESETS = {
    "normal-dense": (GGParams(gamma=2.0), DENSE, 0.2, _GRID_05),
    "normal-moderate": (GGParams(gamma=2.0), SPARSE, 0.6, _GRID_05),
    "normal-verysparse": (GGParams(gamma=2.0), SPARSE, 0.8, _GRID_01),
    "dexp-dense": (GGParams.double_exponential_unit_variance(), DENSE, 0.2, _GRID_05),
    "dexp-moderate": (GGParams.double_exponential_unit_variance(), SPARSE, 0.6, _GRID_05),
}
FIGURE_PRESETS = tuple(_PRESETS)


@dataclass
class ScenarioConfig:
    """Full description of one power-curve experiment."""

    model: GGParams
    m: int
    n: int
    regime: str  # sparse | dense
    beta: float
    grid: list[float]
    tests: list[str] = field(default_factory=lambda: list(st.ALL_STATISTICS))
    level: float = 0.05
    power_reps: int = 200
    calib_reps: int = 4000
    master_seed: int = 0

    def __post_init__(self):
        for name, least in (("m", 2), ("n", 2), ("power_reps", 1), ("calib_reps", 100)):
            check_integer(name, getattr(self, name), least)
        cal._check_seed("master_seed", self.master_seed)
        check_real("level", self.level, 0, 1)
        if self.n > self.m:
            raise ValueError(f"n must not exceed m, got n={self.n} m={self.m}")
        if self.regime not in (SPARSE, DENSE):
            raise ValueError(f"regime must be sparse or dense, got {self.regime!r}")
        st.check_tests(self.tests)
        if not self.grid:
            raise ValueError("grid must be nonempty")
        for g in self.grid:  # ordered below; each calibration checks its range
            check_real("grid value", g, closed="[]")
        if any(b >= a for a, b in zip(self.grid[1:], self.grid[:-1])):
            raise ValueError("grid values must be strictly increasing")
        # the calibrations check beta and every grid value
        for g in self.grid:
            self.alt_for(g)

    def alt_for(self, grid_value: float) -> MixtureAlt:
        if self.regime == SPARSE:
            return sparse_calibration(self.n, self.beta, grid_value, self.model.gamma)
        return dense_calibration(self.n, self.beta, grid_value)

    def boundary_marker(self) -> float:
        if self.regime == SPARSE:
            return theory.detection_boundary_sparse(self.beta, self.model.gamma)
        return theory.detection_boundary_dense(self.beta, self.model.gamma)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = dict(d)
        model = d.pop("model")
        return cls(model=GGParams(**model), **d)


@dataclass(frozen=True)
class PowerPoint:
    grid_value: float
    per_test: dict  # test -> {"power", "ci_half_width", "reject_count"}


@dataclass(frozen=True)
class PowerCurve:
    config: dict
    points: list
    boundary_marker: float
    notes: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("grid_value,test,power,ci_half_width,reject_count,reps\n")
        reps = self.config["power_reps"]
        for pt in self.points:
            for test in self.config["tests"]:
                row = pt.per_test[test]
                buf.write(
                    f"{pt.grid_value:.10g},{test},{row['power']:.10g},"
                    f"{row['ci_half_width']:.10g},{row['reject_count']},{reps}\n"
                )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "rng_scheme": cal.RNG_SCHEME,
            "boundary_marker": self.boundary_marker,
            "notes": self.notes,
            "points": [dataclasses.asdict(pt) for pt in self.points],
        }

    def write(self, out_dir, stem: str) -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{stem}.csv"
        json_path = out_dir / f"{stem}.json"
        csv_path.write_text(self.to_csv())
        json_path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))
        return csv_path, json_path


# the run's one process pool and its size; None in its place runs serially
_Pool = namedtuple("_Pool", "executor workers")


def _run_batches(tasks, pool):
    mapper = map if pool is None else pool.executor.map
    return list(mapper(cal.replicate_rows, *zip(*tasks)))


def _collect(kind, model, alt, lrt_alts, m, n, tests, seed_parts, reps, pool):
    """Run reps replicates: one batch when serial, one per worker in the run's pool.

    Every null-table and power replicate of a run goes through here.  Returns
    a 2-D array whose row i holds value i of every replicate (see
    calibration.replicate_rows for the values of a replicate), in replicate
    order.
    """
    n_batches = 1 if pool is None else min(reps, pool.workers)
    bounds = np.linspace(0, reps, n_batches + 1).astype(int)
    tasks = [
        (kind, tests, model, alt, lrt_alts, m, n, seed_parts, int(a), int(b))
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return np.concatenate(_run_batches(tasks, pool)).T


def _hc_null_table(config: ScenarioConfig, statistic: str, cache_dir, pool) -> cal.NullTable:
    """The run's null table of a rank statistic with a Monte-Carlo null (HC).

    A file in cache_dir is used only if it loads cleanly and was simulated
    for this (statistic, m, n, reps, seed); any other file is recomputed
    in the run's pool, as mc_null_table would compute it, and overwritten.
    """
    key = cal.table_key(statistic, config.m, config.n, config.calib_reps, config.master_seed)
    path = None if cache_dir is None else Path(cache_dir) / cal.cache_key(*key)
    if path is not None and path.exists():
        with contextlib.suppress(ValueError):
            table = cal.load_null_table(path)
            if table.key == key:
                return table
    (table,) = cal._null_tables(*key, collect=functools.partial(_collect, pool=pool))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        cal.save_null_table(table, path, force=True)
    return table


def _lrt_null_table(config: ScenarioConfig, statistic: str) -> list:
    """The null laws of the model-based statistic (the LRT), one per grid
    point: calibration.lrt_null at each point's alternative, computed here,
    after the power pass; nothing is drawn.  statistic names the LRT, as
    _hc_null_table's names HC; the benchmark reads config from this call."""
    return [cal.lrt_null(config.model, config.alt_for(g), config.n) for g in config.grid]


def _pvalues_for(test, values, m, n, table):
    """P-values of one test's replicate values (the harness's p-value stage)."""
    return cal.STATISTICS[test].pvalues(values, m, n, table)


def _power_point(config, grid_idx, tables, columns):
    """Rejection rates of every test at one grid point.

    tables maps HC to its null table and the LRT to its lattice null at
    this grid point; columns holds each test's replicate values there, in
    the order of config.tests.
    """
    per_test = {}
    for test, values in zip(config.tests, columns):
        pvals = _pvalues_for(test, values, config.m, config.n, tables.get(test))
        rejects = int(np.sum(pvals < config.level))
        power = rejects / config.power_reps
        ci = 1.96 * math.sqrt(power * (1.0 - power) / config.power_reps)
        per_test[test] = {
            "power": power,
            "ci_half_width": ci,
            "reject_count": rejects,
        }
    return PowerPoint(grid_value=config.grid[grid_idx], per_test=per_test)


def _run_grid(config: ScenarioConfig, threads: int, cache_dir, null: bool) -> PowerCurve:
    check_integer("threads", threads)  # 0 = one per core
    # a pool forks all its workers at once, so it gets at most one per core;
    # the output is the same at any worker count
    cores = os.cpu_count() or 1
    threads = min(threads or cores, cores)
    # the run's only pool, if any; leaving the block joins its workers
    with ProcessPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as executor:
        pool = None if executor is None else _Pool(executor, threads)
        tables = [{} for _ in config.grid]  # per grid point: test -> null table
        stats = [cal.STATISTICS[t] for t in config.tests]
        for s in stats:
            if s.monte_carlo:
                table = _hc_null_table(config, s.name, cache_dir, pool)
                for point in tables:
                    point[s.name] = table
        # the power pass: replicate k's draws serve every grid point; point
        # g's values are rows g * len(tests) onwards, in the order of tests
        alts = [config.alt_for(g) for g in config.grid]
        columns = _collect(
            cal.DATA, config.model, None if null else alts[0], alts, config.m, config.n,
            config.tests, [config.master_seed, cal.TAG_NULL if null else cal.TAG_POWER],
            config.power_reps, pool,
        )
        # the LRT's nulls come after the power pass: built before it, the
        # lattices' freed memory was still shared copy-on-write with the
        # pool's workers, forked later, and _power_point's first writes to
        # it faulted (1.4 minor faults per p-value call against 0.8 built
        # after; dense-all-t2's median op CPU +11 % over the parent's built
        # before, +2 % built after, BENCH_pr32_lattice_lrt.json)
        for s in stats:
            if not s.rank:
                for point, null in zip(tables, _lrt_null_table(config, s.name)):
                    point[s.name] = null
        width = len(config.tests)
        points = [
            _power_point(config, gi, tables[gi], columns[gi * width:(gi + 1) * width])
            for gi in range(len(config.grid))
        ]
    return PowerCurve(
        config=config.to_dict(),
        points=points,
        boundary_marker=config.boundary_marker(),
        notes={"null_embedded": True} if null else {},
    )


def run_power_grid(
    config: ScenarioConfig, threads: int = 1, cache_dir=None
) -> PowerCurve:
    """Empirical power of the selected tests over the scenario grid."""
    return _run_grid(config, threads, cache_dir, null=False)


def run_null_level(
    config: ScenarioConfig, threads: int = 1, cache_dir=None
) -> PowerCurve:
    """Empirical size under H0: both samples from F, same calibration path.

    Replicate k's one pair of samples serves every grid point, so each rank
    test's row repeats along the grid.  The LRT is still evaluated at each
    grid point's (eps, mu), since its definition needs an alternative.
    """
    return _run_grid(config, threads, cache_dir, null=True)


def figure_config(figure: str, scale: float = 1.0) -> ScenarioConfig:
    """ScenarioConfig for one of the power-curve figure presets.

    scale shrinks m = n from 1e5 (scale=1 reproduces the full-size runs);
    the exponents beta, r, s stay fixed and (eps, mu) are re-derived at the
    smaller n.  The double-exponential presets reuse the normal-model grids
    for the matching regimes.
    """
    if figure not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure {figure!r}; choose from {FIGURE_PRESETS}")
    check_real("scale", scale, 0, 1, "(]")
    mn = max(2, round(1e5 * scale))
    model, regime, beta, grid = _PRESETS[figure]
    return ScenarioConfig(
        model=model, m=mn, n=mn, regime=regime, beta=beta, grid=list(grid)
    )


def figure_notes(figure: str, scale: float) -> dict:
    """The notes of a figure preset's curve: its name, scale and assumptions."""
    notes = {"figure": figure, "scale": scale}
    if figure.startswith("dexp"):
        notes["grid_assumption"] = (
            "double-exponential grids not stated beyond beta; normal-model "
            "grids reused for the matching regimes"
        )
    return notes

