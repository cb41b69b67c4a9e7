#!/usr/bin/env python3
"""mixdetect benchmark: end-to-end metrics per workload, or a traced breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload dense-all-t2 --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` makes traced passes and prints the per-layer metrics.
Every output is checked.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
the run's provenance, the tracer hooks that attached and each metric with
its unit.  The exit code is 0 only if every operation passed its checks.

mixdetect is imported from ``src/`` next to this directory and nowhere
else; scratch files go to ``.perfbench_work/`` in the same root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gzip
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer, summarize, top_level_total

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls above it
REF_NOMINAL_S = 0.025  # reference_cpu() on the 2-vCPU VM the benchmark was built on
RANK_TESTS = ("HC", "WILCOXON", "KS", "TAILRUN")
ALL_TESTS = ("LRT", "HC", "WILCOXON", "KS", "TAILRUN")


@dataclasses.dataclass(frozen=True)
class Harness:
    """One power curve of a figure preset, timed end to end."""

    preset: str
    scale: float
    tests: tuple
    threads: int
    calib_reps: int
    power_reps: int
    cached: bool  # HC null table read from a cache directory filled at set-up


@dataclasses.dataclass(frozen=True)
class CliLoop:
    """One client calling `mixdetect test` in a closed loop over sample files."""

    sizes: tuple  # (m, n) pairs; each gives one null and one alternative dataset
    reps: int
    beta: float
    r: float


WORKLOADS = {
    "dense-all-t2": Harness(
        preset="normal-dense", scale=0.02, tests=ALL_TESTS, threads=2,
        calib_reps=1000, power_reps=50, cached=False,
    ),
    "sparse-rank-t1": Harness(
        preset="dexp-moderate", scale=0.02, tests=RANK_TESTS, threads=1,
        calib_reps=1000, power_reps=100, cached=True,
    ),
    "test-cli": CliLoop(sizes=((600, 600), (1000, 400), (300, 300)), reps=300, beta=0.6, r=0.4),
}

# (module, attribute, span name, kernel?) -- kernel hooks run inside pool
# workers when threads > 1, so their spans come from a one-thread pass
HOOKS = [
    ("distributions", "gg_sample", "distributions.gg_sample", True),
    ("distributions", "mixture_sample", "distributions.mixture_sample", True),
    ("statistics", "pooled_indicator", "statistics.pooled_indicator", True),
    ("statistics", "hc_from_indicator", "statistics.hc_from_indicator", True),
    ("statistics", "wilcoxon_from_indicator", "statistics.wilcoxon_from_indicator", True),
    ("statistics", "ks_from_indicator", "statistics.ks_from_indicator", True),
    ("statistics", "tailrun_from_indicator", "statistics.tailrun_from_indicator", True),
    ("statistics", "lrt_stat", "statistics.lrt_stat", True),
    ("calibration", "mc_null_table", "calibration.mc_null_table", False),
    ("calibration", "mc_pvalue", "calibration.pvalues", False),
    ("calibration", "mc_pvalues", "calibration.pvalues", False),
    ("calibration", "wilcoxon_pvalue", "calibration.pvalues", False),
    ("calibration", "ks_pvalue", "calibration.pvalues", False),
    ("calibration", "tailrun_pvalue", "calibration.pvalues", False),
    ("calibration", "tailrun_pvalues", "calibration.pvalues", False),
    ("calibration", "save_null_table", "calibration.null_table_io", False),
    ("calibration", "load_null_table", "calibration.null_table_io", False),
    ("experiments", "_hc_null_table", "experiments.hc_calib", False),
    ("experiments", "_lrt_null_table", "experiments.lrt_calib", False),
    ("experiments", "_collect", "experiments.collect", False),
    ("experiments", "_pvalues_for", "experiments.pvalues", False),
    ("experiments", "_run_batches", "experiments.run_batches", False),
    ("experiments", "ProcessPoolExecutor", "experiments.pools", False),
    ("cli", "read_sample_file", "cli.read_sample_file", False),
    ("cli", "cmd_test", "cli.cmd_test", False),
    ("theory", "detection_boundary_sparse", "theory.boundary", False),
    ("theory", "detection_boundary_dense", "theory.boundary", False),
]
STAGES = ("experiments.hc_calib", "experiments.lrt_calib", "experiments.power_reps",
          "experiments.pvalues")
KERNEL_PREFIXES = ("distributions.", "statistics.")


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _file_bytes(path) -> int:
    path = Path(path)
    for p in (path, path.with_name(path.name + ".npz")):
        if p.is_file():
            return p.stat().st_size
    return 0


def _after_gg_sample(tr, args, kwargs, result, exc):
    if result is not None:
        tr.counters["distributions.variates"] += int(np.size(result))


def _after_pooled(tr, args, kwargs, result, exc):
    if exc is not None and type(exc).__name__ == "TiesError":
        tr.counters["statistics.pooled_indicator.tie_retries"] += 1


def _after_load(tr, args, kwargs, result, exc):
    tr.counters["calibration.null_table_io.bytes"] += _file_bytes(_arg(args, kwargs, 0, "path"))
    tr.counters["calibration.cache.hits"] += 1


def _after_save(tr, args, kwargs, result, exc):
    tr.counters["calibration.null_table_io.bytes"] += _file_bytes(_arg(args, kwargs, 1, "path"))


def _after_hc_calib(tr, args, kwargs, result, exc):
    # a call that loaded no table (no new hit since the last call) computed one
    hits = tr.counters["calibration.cache.hits"]
    if hits == tr.counters["_hits_seen"]:
        tr.counters["calibration.cache.misses"] += 1
        tr.counters["experiments.hc_calib.reps"] += _arg(args, kwargs, 0, "config").calib_reps
    tr.counters["_hits_seen"] = hits


def _after_lrt_calib(tr, args, kwargs, result, exc):
    tr.counters["experiments.lrt_calib.reps"] += _arg(args, kwargs, 0, "config").calib_reps


def _after_pvalues(tr, args, kwargs, result, exc):
    tr.counters["experiments.pvalues.reps"] += len(_arg(args, kwargs, 1, "values"))


def _after_run_batches(tr, args, kwargs, result, exc):
    tr.counters["experiments.batches"] += len(_arg(args, kwargs, 0, "tasks"))


AFTER = {
    "gg_sample": _after_gg_sample,
    "pooled_indicator": _after_pooled,
    "load_null_table": _after_load,
    "save_null_table": _after_save,
    "_hc_null_table": _after_hc_calib,
    "_lrt_null_table": _after_lrt_calib,
    "_pvalues_for": _after_pvalues,
    "_run_batches": _after_run_batches,
}


def _collect_wrapper(tr, original):
    """_collect is the power-replicate stage unless LRT calibration calls it."""

    def wrapper(*args, **kwargs):
        try:
            kind, reps = _arg(args, kwargs, 0, "kind"), int(_arg(args, kwargs, 8, "reps"))
        except (LookupError, TypeError, ValueError):
            kind, reps = None, 0
        idx = tr.enter("experiments.power_reps" if kind == "data" else "experiments.collect")
        try:
            return original(*args, **kwargs)
        finally:
            tr.exit(idx)
            if kind == "data":
                tr.counters["experiments.power_reps.reps"] += reps

    return wrapper


def _pool_counter(tr, original):
    class CountedPool(original):
        def __init__(self, *args, **kwargs):
            tr.counters["experiments.pools"] += 1
            super().__init__(*args, **kwargs)

    return CountedPool


REPLACE = {"_collect": _collect_wrapper, "ProcessPoolExecutor": _pool_counter}


def attach_hooks(tracer: Tracer, kernels: bool, others: bool = True) -> None:
    for modname, attr, span, is_kernel in HOOKS:
        if (is_kernel and not kernels) or (not is_kernel and not others):
            continue
        module = importlib.import_module(f"mixdetect.{modname}")
        replace = REPLACE.get(attr)
        tracer.attach(
            module, attr, span, after=AFTER.get(attr),
            replace=(lambda orig, f=replace: f(tracer, orig)) if replace else None,
        )


# --- per-layer metrics ----------------------------------------------------

def _per_layer_table():
    rows = []
    for k in ("gg_sample", "mixture_sample"):
        rows += [(f"distributions.{k}.calls", "count", "lower", f"distributions.{k}"),
                 (f"distributions.{k}.self_s", "s", "lower", f"distributions.{k}")]
    rows.append(("distributions.variates", "count", "lower", "distributions.gg_sample"))
    rows += [("statistics.pooled_indicator.calls", "count", "lower", "statistics.pooled_indicator"),
             ("statistics.pooled_indicator.self_s", "s", "lower", "statistics.pooled_indicator"),
             ("statistics.pooled_indicator.tie_retries", "count", "lower", "statistics.pooled_indicator")]
    for k in ("hc", "wilcoxon", "ks", "tailrun"):
        span = f"statistics.{k}_from_indicator"
        rows += [(f"{span}.calls", "count", "lower", span), (f"{span}.self_s", "s", "lower", span)]
    rows += [("statistics.lrt_stat.calls", "count", "lower", "statistics.lrt_stat"),
             ("statistics.lrt_stat.self_s", "s", "lower", "statistics.lrt_stat"),
             ("calibration.mc_null_table.calls", "count", "lower", "calibration.mc_null_table"),
             ("calibration.mc_null_table.self_s", "s", "lower", "calibration.mc_null_table"),
             ("calibration.pvalues.self_s", "s", "lower", "calibration.pvalues"),
             ("calibration.null_table_io.calls", "count", "lower", "calibration.null_table_io"),
             ("calibration.null_table_io.self_s", "s", "lower", "calibration.null_table_io"),
             ("calibration.null_table_io.bytes", "B", "lower", "calibration.null_table_io"),
             ("calibration.cache.hits", "count", "higher", "calibration.null_table_io"),
             ("calibration.cache.misses", "count", "lower", "experiments.hc_calib")]
    for stage in ("hc_calib", "lrt_calib", "power_reps", "pvalues"):
        src = "experiments.collect" if stage == "power_reps" else f"experiments.{stage}"
        rows += [(f"experiments.{stage}.s", "s", "lower", src),
                 (f"experiments.{stage}.reps", "count", "lower", src)]
    rows += [("experiments.pools", "count", "lower", "experiments.pools"),
             ("experiments.batches", "count", "lower", "experiments.run_batches"),
             ("run.cpu_s", "s", "lower", None),
             ("run.util", "ratio", "higher", None),
             ("cli.read_sample_file.self_s", "s", "lower", "cli.read_sample_file"),
             ("cli.cmd_test.s", "s", "lower", "cli.cmd_test"),
             ("theory.boundary.self_s", "s", "lower", "theory.boundary"),
             ("trace.overhead_frac", "ratio", "lower", None),
             ("trace.unattributed_s", "s", "lower", None)]
    return rows


PER_LAYER = _per_layer_table()
END_TO_END = [
    ("cpu_s", "s", "lower"),
    ("op_cpu_p50_s", "s", "lower"),
    ("op_cpu_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SPAN_FIELDS = {"calls": "calls", "self_s": "self_s", "s": "total_s"}
UNITS = {name: unit for name, unit, *_ in PER_LAYER + END_TO_END}


def layer_metrics(tracer: Tracer, wall: float, top_spans) -> dict:
    """Span and counter metrics of one traced pass that took `wall` seconds."""
    summ = summarize(tracer.spans)
    out = {}
    for name, _unit, _better, span in PER_LAYER:
        head, _, field = name.rpartition(".")
        if span is None:
            continue
        if field in SPAN_FIELDS:
            out[name] = summ.get(head, {}).get(SPAN_FIELDS[field], 0)
        else:
            out[name] = tracer.counters[name]
    out["trace.unattributed_s"] = wall - top_level_total(tracer.spans, top_spans)
    return out


# --- workloads ------------------------------------------------------------

def import_seconds() -> tuple[float, float]:
    """Wall and CPU seconds of `import mixdetect` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "w, c = time.perf_counter(), time.process_time(); import mixdetect; "
        "print(time.perf_counter() - w, time.process_time() - c)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
        check=True, timeout=120, cwd=ROOT,
    )
    wall, cpu = out.stdout.split()[-2:]
    return float(wall), float(cpu)


def harness_config(spec: Harness, seed: int):
    from mixdetect import experiments as exp

    base = exp.figure_config(spec.preset, spec.scale)
    return dataclasses.replace(
        base, tests=list(spec.tests), calib_reps=spec.calib_reps,
        power_reps=spec.power_reps, master_seed=seed,
    )


def setup_harness(spec: Harness, seed: int, wdir: Path) -> dict:
    from mixdetect import experiments as exp

    config = harness_config(spec, seed)
    cfg_path = wdir / "scenario.json"
    cfg_path.write_text(json.dumps(config.to_dict(), sort_keys=True))
    cache = wdir / "cache" if spec.cached else None
    if cache is not None:
        # a one-replicate HC-only curve makes the harness write its own table
        fill = dataclasses.replace(config, tests=["HC"], grid=config.grid[:1], power_reps=1)
        exp.run_power_grid(fill, threads=1, cache_dir=cache)
    return {"config": str(cfg_path), "cache_dir": str(cache) if cache else None}


def setup_cli(spec: CliLoop, seed: int, wdir: Path) -> dict:
    calls = []
    for i, (m, n) in enumerate(spec.sizes):
        eps = n ** (-spec.beta)
        mu = math.sqrt(2.0 * spec.r * math.log(n))
        for j, alt in enumerate((False, True)):
            rng = np.random.default_rng([seed, i, j])
            x = rng.standard_normal(m)
            y = rng.standard_normal(n)
            if alt:
                y[rng.random(n) < eps] += mu
            paths = []
            for tag, arr in (("x", x), ("y", y)):
                p = wdir / f"d{i}{j}_{tag}.txt"
                np.savetxt(p, arr, fmt="%.17g")
                paths.append(str(p))
            argv = ["test", "--x", paths[0], "--y", paths[1], "--tests", "all",
                    "--reps", str(spec.reps), "--seed", str(seed), "--gamma", "2",
                    "--epsilon", repr(eps), "--mu", repr(mu)]
            calls.append({"argv": argv, "m": m, "n": n, "alternative": alt})
    return {"calls": calls}


def set_up(spec, seed: int, run_dir: Path) -> tuple[dict, float, float]:
    """Set up SETUP_REPEATS times from scratch and keep the last.

    Returns the inputs and the median wall and CPU seconds of one set-up.
    """
    walls, cpus = [], []
    for k in range(SETUP_REPEATS):
        wdir = run_dir / f"setup{k}"
        if wdir.exists():
            shutil.rmtree(wdir)
        wdir.mkdir(parents=True)
        import_wall, import_cpu = import_seconds()
        t0 = now()
        inputs = (setup_harness if isinstance(spec, Harness) else setup_cli)(spec, seed, wdir)
        wall, cpu = since(t0)
        walls.append(import_wall + wall)
        cpus.append(import_cpu + cpu)
        if k < SETUP_REPEATS - 1:
            shutil.rmtree(wdir)
    return inputs, statistics.median(walls), statistics.median(cpus)


class Ops:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def run_curve(config, inputs: dict, threads: int, ops: Ops) -> tuple | None:
    """One power curve; returns its (wall, CPU) seconds, or None if it raised."""
    from mixdetect import experiments as exp

    t0 = now()
    try:
        curve = exp.run_power_grid(config, threads=threads, cache_dir=inputs["cache_dir"])
    except Exception:
        for _ in config.grid:
            ops.record("power curve raised: " + traceback.format_exc(limit=3))
        return None
    took = since(t0)
    for verdict in checks.check_power_csv(
        curve.to_csv(), config.grid, config.tests, config.power_reps
    ):
        ops.record(verdict)
    return took


def run_cycle(inputs: dict, refs: list, ops: Ops, latencies: list | None = None) -> tuple:
    """One pass over every dataset; returns the summed (wall, CPU) call seconds."""
    from mixdetect import cli

    wall = cpu = 0.0
    for call, ref in zip(inputs["calls"], refs):
        buf = io.StringIO()
        t0 = now()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(call["argv"])
        except Exception:
            rc = "raised " + traceback.format_exc(limit=3)
        took = since(t0)
        wall, cpu = wall + took[0], cpu + took[1]
        if latencies is not None:
            latencies.append(took)
        if rc != 0:
            ops.record(f"test call exit {rc}")
            continue
        try:
            report = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            ops.record("test call printed no JSON report")
            continue
        ops.record(checks.check_test_report(report, call["m"], call["n"], ALL_TESTS, ref))
    return wall, cpu


def cli_references(inputs: dict) -> list:
    return [
        checks.rank_reference(np.loadtxt(c["argv"][2]), np.loadtxt(c["argv"][4]))
        for c in inputs["calls"]
    ]


def determinism_check(seed: int, ops: Ops) -> None:
    """A small all-test curve gives the same CSV bytes at one and two threads."""
    from mixdetect import experiments as exp

    base = exp.figure_config("normal-dense", 0.002)
    config = dataclasses.replace(
        base, grid=base.grid[:3], calib_reps=200, power_reps=20, master_seed=seed
    )
    try:
        csv1 = exp.run_power_grid(config, threads=1).to_csv()
        csv2 = exp.run_power_grid(config, threads=2).to_csv()
    except Exception:
        ops.record("determinism curve raised: " + traceback.format_exc(limit=3))
        return
    problems = [v for v in checks.check_power_csv(csv1, config.grid, config.tests, 20) if v]
    if csv1 != csv2:
        problems.append("CSV differs between threads=1 and threads=2")
    ops.record("; ".join(problems))


def tail_value(samples: list) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile); with too few samples, the maximum.
    """
    s = sorted(samples)
    idx = len(s) - TAIL_BEYOND - 1
    if idx < 0:
        return s[-1], 100.0
    return s[idx], 100.0 * (idx + 1) / len(s)


def cpu_seconds() -> float:
    """User and system seconds of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def reference_cpu() -> float:
    """CPU seconds of a fixed numpy loop that uses no mixdetect code.

    On a host whose cores are shared, CPU speed drifts by tens of percent over
    minutes.  This loop, run between repeats, measures the speed of the
    moment; the gated times are scaled by REF_NOMINAL_S over its median in
    the run, so they read as CPU seconds on a machine of fixed speed.
    """
    t = time.process_time()
    for k in range(40):
        rng = np.random.default_rng(np.random.SeedSequence([7, k]))
        x = rng.gamma(0.5, size=2000)
        order = np.argsort(np.concatenate([x, rng.random(2000)]), kind="stable")
        np.cumsum(order < 2000)
    return time.process_time() - t


def now() -> tuple[float, float]:
    return time.perf_counter(), cpu_seconds()


def since(t0) -> tuple[float, float]:
    t1 = now()
    return t1[0] - t0[0], t1[1] - t0[1]


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def timed_run(spec, inputs: dict, seconds: float, ops: Ops) -> tuple[dict, dict]:
    """Tracing off: after one warm-up, repeat curves or cycles for `seconds`.

    Returns the CPU seconds per repeat and per operation (medians and tail)
    and an info dict with the same statistics in wall-clock seconds and the
    median of reference_cpu(), which runs before each repeat and at the end.
    """
    repeats, ops_took = [], []  # (wall, cpu) pairs
    refs = []
    info = {}
    start = time.perf_counter()

    def more():
        refs.append(reference_cpu())
        return time.perf_counter() - start < seconds

    if isinstance(spec, Harness):
        from mixdetect import experiments as exp

        config = exp.ScenarioConfig.from_dict(json.loads(Path(inputs["config"]).read_text()))
        run_curve(config, inputs, spec.threads, ops)  # warm-up, untimed
        # a grid point is one operation; a span per point times it
        clock = Tracer(clock=now)
        if not clock.attach(exp, "_power_point", "experiments.grid_point"):
            info["op_time"] = "experiments._power_point missing: curve time / grid size"
        while more():
            n_spans = len(clock.spans)
            took = run_curve(config, inputs, spec.threads, ops)
            if took is not None:
                repeats.append(took)
                points = [(e[0] - s[0], e[1] - s[1]) for _, s, e, _ in clock.spans[n_spans:]]
                share = (took[0] / len(config.grid), took[1] / len(config.grid))
                ops_took += points or [share] * len(config.grid)
        clock.detach()
        info["hooks_attached"], info["hooks_missing"] = clock.attached, clock.missing
    else:
        expected = cli_references(inputs)
        run_cycle(inputs, expected, ops)  # warm-up, untimed
        while more():
            repeats.append(run_cycle(inputs, expected, ops, ops_took))
    info["ref_cpu_s"] = statistics.median(refs)
    if not repeats:
        return {}, info
    op_walls = [t[0] for t in ops_took]
    op_cpus = [t[1] for t in ops_took]
    tail_wall, pct = tail_value(op_walls)
    info.update(
        repeats=len(repeats), ops=len(ops_took), tail_percentile=pct,
        wall_s=statistics.median(t[0] for t in repeats),
        call_p50_s=statistics.median(op_walls), call_tail_s=tail_wall,
    )
    metrics = {
        "cpu_s": statistics.median(t[1] for t in repeats),
        "op_cpu_p50_s": statistics.median(op_cpus),
        "op_cpu_tail_s": tail_value(op_cpus)[0],
    }
    return metrics, info


def traced_run(spec, inputs: dict, seconds: float, ops: Ops, trace_path: Path):
    """After one warm-up, alternate untraced and traced passes for `seconds`.

    Returns per-layer medians per pass.

    At threads > 1 pool workers are forked and their spans lost, so the
    traced pass at the workload's thread count carries only the hooks that
    run in the parent (stages, p-values, I/O), and the kernel spans come
    from a second traced pass of the same config at one thread: replicate
    results, and so kernel call counts, do not depend on the thread count.
    """
    if isinstance(spec, Harness):
        from mixdetect import experiments as exp

        config = exp.ScenarioConfig.from_dict(json.loads(Path(inputs["config"]).read_text()))
        threads, tops = spec.threads, STAGES

        def once(nthreads):
            run_curve(config, inputs, nthreads, ops)
    else:
        refs = cli_references(inputs)
        threads, tops = 1, ("cli.cmd_test",)

        def once(nthreads):
            run_cycle(inputs, refs, ops)

    hooks = {"attached": set(), "missing": set()}
    spans_out = {}

    def timed_pass(nthreads, kernels=None, others=True):
        tracer = Tracer()
        if kernels is not None:
            attach_hooks(tracer, kernels=kernels, others=others)
        t0 = now()
        try:
            once(nthreads)
        finally:
            tracer.detach()
        hooks["attached"].update(tracer.attached)
        hooks["missing"].update(tracer.missing)
        return (tracer, *since(t0))

    once(threads)  # warm-up, untimed
    per_pass: list[dict] = []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        _, ref_wall, ref_cpu = timed_pass(threads)
        tracer, wall, cpu = timed_pass(threads, kernels=threads == 1)
        metrics = layer_metrics(tracer, wall, tops)
        spans_out["main"] = tracer.spans
        if threads > 1:
            tracer, wall_1, _ = timed_pass(1, kernels=True, others=False)
            one = layer_metrics(tracer, wall_1, tops)
            metrics.update({k: v for k, v in one.items() if k.startswith(KERNEL_PREFIXES)})
            spans_out["kernels_one_thread"] = tracer.spans
        metrics["run.cpu_s"] = ref_cpu
        metrics["run.util"] = ref_cpu / (ref_wall * threads)
        metrics["trace.overhead_frac"] = cpu / ref_cpu - 1.0
        per_pass.append(metrics)

    missing_spans = {span for mod, attr, span, _ in HOOKS
                     if f"mixdetect.{mod}.{attr}" in hooks["missing"]}
    result = {}
    for name, _unit, _better, span in PER_LAYER:
        values = [m[name] for m in per_pass if name in m]
        if values and span not in missing_spans:
            result[name] = statistics.median(values)
    with gzip.open(trace_path, "wt") as fh:
        json.dump({"hooks": {k: sorted(v) for k, v in hooks.items()}, "spans": spans_out}, fh)
    info = {"passes": len(per_pass), "hooks_attached": sorted(hooks["attached"]),
            "hooks_missing": sorted(hooks["missing"]),
            "spans_file": str(trace_path.relative_to(ROOT))}
    return result, info


# --- provenance -----------------------------------------------------------

def git_commit() -> str | None:
    """HEAD's commit read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "mixdetect").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def resolved_config(spec, seed: int) -> dict:
    if isinstance(spec, Harness):
        d = harness_config(spec, seed).to_dict()
        d.update(preset=spec.preset, scale=spec.scale, threads=spec.threads,
                 hc_table_from_cache=spec.cached)
        return d
    return dict(dataclasses.asdict(spec), seed=seed, tests="all",
                datasets="one null and one alternative per (m, n)")


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "config": resolved_config(WORKLOADS[workload], seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "mixdetect" / "__init__.py").is_file():
        print(f"error: no mixdetect sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mixdetect

    if Path(mixdetect.__file__).resolve().parent != (SRC / "mixdetect").resolve():
        print(f"error: imported mixdetect from {mixdetect.__file__}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds, args.trace)},
                     sort_keys=True), flush=True)
    ops = Ops()
    try:
        inputs, setup_wall_s, setup_s = set_up(spec, args.seed, run_dir)
        determinism_check(args.seed, ops)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json.gz"
            metrics, info = traced_run(spec, inputs, args.seconds, ops, trace_path)
        else:
            cpu, info = timed_run(spec, inputs, args.seconds, ops)
            cpu["setup_s"] = setup_s
            scale = REF_NOMINAL_S / info["ref_cpu_s"]
            metrics = {k: v * scale for k, v in cpu.items()}
            metrics["peak_rss_mb"] = peak_rss_mb()
            info.update(setup_wall_s=setup_wall_s, cpu_unscaled=cpu)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info["failed_ops_ratio"] = ops.failed / ops.attempted
    info["failures"] = ops.reasons
    print(json.dumps({"info": info}, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {UNITS[name]}")
    print(f"metric failed_ops_ratio {info['failed_ops_ratio']!r} ratio")
    correct = ops.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
