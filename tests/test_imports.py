"""SciPy's quadrature is loaded only by the commands that integrate.

`scipy.integrate` pulls in `scipy.optimize`, `scipy.sparse` and
`scipy.linalg`, about a third of the package's import time, and only
`diagnose --condition wilcoxon|lower-bound` integrates.  The check runs in
a fresh interpreter, since this one has imported everything the other
tests use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, json, sys
import mixdetect, mixdetect.cli
from mixdetect.cli import main

def loaded():
    return sorted(m for m in ("scipy.integrate", "scipy.optimize") if m in sys.modules)

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()

x, y, table = sys.argv[1:]
report = {"import": loaded()}
run("boundary", "--beta", "0.7", "--gamma", "2", "--regime", "sparse")
run("calibrate", "--statistic", "hc", "--m", "20", "--n", "20", "--reps", "100",
    "--out", table)
run("test", "--x", x, "--y", y, "--tests", "all", "--reps", "100",
    "--epsilon", "0.1", "--mu", "1")
report["commands"] = loaded()
report["diagnose"] = run(
    "diagnose", "--condition", "lower-bound", "--gamma", "3", "--mu", "0.7"
)
report["after_diagnose"] = loaded()
print(json.dumps(report))
"""


def test_only_diagnose_loads_quadrature(tmp_path):
    rng = np.random.default_rng(0)
    files = []
    for name in ("x.txt", "y.txt"):
        path = tmp_path / name
        path.write_text("\n".join(map(str, rng.standard_normal(20).tolist())))
        files.append(str(path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *files, str(tmp_path / "hc.npz")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["import"] == []
    assert report["commands"] == []
    assert report["after_diagnose"] == ["scipy.integrate", "scipy.optimize"]
    # pinned: where integrate is imported moves no digit
    assert report["diagnose"] == '{"lower_bound_integral": 2.11811400534354}\n'
