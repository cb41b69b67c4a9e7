"""tools/northstar.py at a toy scale, with this checkout as both trees."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
