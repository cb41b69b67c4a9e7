"""Fast checks of the benchmark itself, at toy sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, summarize, top_level_total  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TOY = {
    "dense-all-t2": run.Harness(
        preset="normal-dense", scale=0.002, tests=run.ALL_TESTS, threads=2,
        calib_reps=100, power_reps=10, cached=False,
    ),
    "sparse-rank-t1": run.Harness(
        preset="dexp-moderate", scale=0.002, tests=run.RANK_TESTS, threads=1,
        calib_reps=100, power_reps=10, cached=True,
    ),
    "test-cli": run.CliLoop(sizes=((60, 60), (80, 40)), reps=100, beta=0.6, r=0.4),
}


def test_benchmark_json_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TOY))
def test_every_metric_printed_with_unit(monkeypatch, capsys, workload, trace):
    monkeypatch.setattr(run, "WORKLOADS", TOY)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"metric {m['name']} {got['value']!r} {m['unit']}" in lines


def _toy_curve_csv():
    from mixdetect import experiments as exp

    config = run.harness_config(TOY["dense-all-t2"], seed=5)
    config.grid = config.grid[:3]
    return config, exp.run_power_grid(config, threads=1).to_csv()


def test_power_checks_flag_a_corrupted_row(monkeypatch):
    config, csv = _toy_curve_csv()
    args = (config.grid, config.tests, config.power_reps)
    assert checks.check_power_csv(csv, *args) == ["", "", ""]

    lines = csv.splitlines(keepends=True)
    grid, test, power, ci, rejects, reps = lines[4].rstrip("\n").split(",")
    bad_power = f"{grid},{test},{float(power) + 0.1:.10g},{ci},{rejects},{reps}\n"
    bad_count = f"{grid},{test},{power},{ci},{int(reps) + 1},{reps}\n"
    for bad in (bad_power, bad_count, ""):
        verdicts = checks.check_power_csv("".join(lines[:4] + [bad] + lines[5:]), *args)
        assert [bool(v) for v in verdicts] == [True, False, False], bad

    # end to end: a corrupted row from the program counts as a failed grid point
    from mixdetect.experiments import PowerCurve

    corrupted = "".join(lines[:4] + [bad_count] + lines[5:])
    monkeypatch.setattr(PowerCurve, "to_csv", lambda self: corrupted)
    ops = run.Ops()
    run.run_curve(config, {"cache_dir": None}, 1, ops)
    assert (ops.attempted, ops.failed) == (3, 1)


def test_cli_report_check_uses_independent_statistics():
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(50), rng.standard_normal(30) + 0.5
    ref = checks.rank_reference(x, y)
    assert ref["WILCOXON"] == sum(float(a < b) for a in x for b in y)
    assert ref["TAILRUN"] == float(np.sum(y > x.max()))
    report = {"m": 50, "n": 30, "tests": {
        t: {"statistic": ref.get(t, 1.0), "pvalue": 0.5} for t in run.ALL_TESTS
    }}
    assert checks.check_test_report(report, 50, 30, run.ALL_TESTS, ref) == ""
    report["tests"]["WILCOXON"]["statistic"] += 1
    report["tests"]["KS"]["pvalue"] = 0.0
    problem = checks.check_test_report(report, 50, 30, run.ALL_TESTS, ref)
    assert "WILCOXON statistic" in problem and "KS p-value" in problem


def test_self_time_on_a_synthetic_call_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    leaf_w = tracer.wrap(lambda: None, "leaf")
    inner_w = tracer.wrap(lambda: (leaf_w(), leaf_w()), "inner")
    outer_w = tracer.wrap(lambda: (inner_w(), leaf_w()), "outer")
    outer_w()
    # ticks: outer 0-9, inner 1-6, leaves 2-3, 4-5 and 7-8
    summ = summarize(tracer.spans)
    assert summ["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert summ["inner"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}
    assert summ["outer"] == {"calls": 1, "total_s": 9.0, "self_s": 3.0}
    assert top_level_total(tracer.spans, ["inner", "leaf"]) == 6.0


def test_overlapping_children_are_counted_once():
    spans = [["p", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 3.0, 7.0, 0], ["c", 9.0, 12.0, 0]]
    assert summarize(spans)["p"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_missing_hook_is_reported_not_fatal():
    from mixdetect import experiments

    tracer = Tracer()
    assert not tracer.attach(experiments, "_no_such_function", "experiments.none")
    assert tracer.missing == ["mixdetect.experiments._no_such_function"]
    original = experiments._pvalues_for
    assert tracer.attach(experiments, "_pvalues_for", "experiments.pvalues")
    assert experiments._pvalues_for is not original
    tracer.detach()
    assert experiments._pvalues_for is original
    assert tracer.attached == ["mixdetect.experiments._pvalues_for"]
