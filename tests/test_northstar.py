"""tools/northstar.py at a toy scale, with this checkout as both trees."""

import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("northstar", ROOT / "tools" / "northstar.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_every_side_and_thread_count_with_one_csv(tmp_path):
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "northstar.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--pairs", "1", "--scale", "0.0005"],
        capture_output=True, text=True, check=True, timeout=120, cwd=tmp_path,
    )
    report = json.loads(out.stdout)
    runs = report["runs"]
    assert sorted((r["side"], r["threads"]) for r in runs) == [
        ("change", 1), ("change", 2), ("parent", 1), ("parent", 2)
    ]
    assert all(r["wall_s"] > 0 and r["cpu_s"] > 0 for r in runs)
    assert len({r["csv_sha256"] for r in runs}) == 1
    assert sorted(report["medians"]) == ["change-t1", "change-t2", "parent-t1", "parent-t2"]
    assert sorted(report["paired"]) == ["t1", "t2"]
    for threads in (1, 2):
        cpu = {r["side"]: r["cpu_s"] for r in runs if r["threads"] == threads}
        assert report["paired"][f"t{threads}"] == {
            "cpu_ratios": [cpu["change"] / cpu["parent"]],
            "median_cpu_ratio": cpu["change"] / cpu["parent"],
            "pairs_change_less_cpu": int(cpu["change"] < cpu["parent"]),
            "cpu_quartiles": {side: [cpu[side]] * 2 for side in ("parent", "change")},
        }


@pytest.mark.parametrize("pairs", [2, 5, 6])
def test_paired_summary(pairs):
    tool = load_tool()
    rng = np.random.default_rng(pairs)
    parent, change = rng.uniform(5, 10, pairs), rng.uniform(5, 10, pairs)
    change[0] = parent[0]  # a tie, which the change does not win
    runs = [{"side": side, "pair": i, "threads": threads, "cpu_s": float(cpu[i] * threads)}
            for threads in (1, 2) for side, cpu in (("parent", parent), ("change", change))
            for i in rng.permutation(pairs)]
    got = tool.paired(runs, pairs, 2)
    ratios = change / parent
    assert got["cpu_ratios"] == pytest.approx(ratios.tolist(), rel=1e-15)
    assert got["median_cpu_ratio"] == pytest.approx(statistics.median(ratios), rel=1e-15)
    assert got["pairs_change_less_cpu"] == int(np.sum(ratios < 1))
    for side, cpu in (("parent", parent), ("change", change)):
        assert got["cpu_quartiles"][side] == pytest.approx(np.percentile(2 * cpu, [25, 75]))
