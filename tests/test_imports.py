"""SciPy is loaded only by `diagnose` and by the LRT at a gamma other than 1
and 2, and the replicate loop reuses the heap.

`import mixdetect` loads no SciPy module and not numpy.fft.  The commands
boundary, calibrate, test and power load no SciPy module at gamma = 1 or 2,
the LRT included: its lattice null (calibration.lrt_null) takes F's tails
from math.erfc at gamma = 2 and in closed form at gamma = 1, and loads
numpy.fft when it runs.  Only an LRT at another gamma imports
`scipy.special` (for the incomplete gamma function), and so does `diagnose`;
only `diagnose --condition wilcoxon|lower-bound` integrates:
`scipy.integrate` pulls in `scipy.optimize`, `scipy.sparse` and
`scipy.linalg`.  The checks run in a fresh interpreter, since this one has
imported everything the other tests use.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, json, sys
import mixdetect, mixdetect.cli
from mixdetect.cli import main

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    return out.getvalue()

x, y, table, out = sys.argv[1:]
report = {"import": loaded(), "fft": "numpy.fft" in sys.modules}
run("boundary", "--beta", "0.7", "--gamma", "2", "--regime", "sparse")
run("calibrate", "--m", "20", "--n", "20", "--reps", "100", "--out", table)
run("test", "--x", x, "--y", y, "--tests", "all", "--reps", "100",
    "--epsilon", "0.1", "--mu", "1")
run("test", "--x", x, "--y", y, "--tests", "all", "--reps", "100",
    "--epsilon", "0.1", "--mu", "1", "--gamma", "1")
run("power", "--preset", "normal-dense", "--scale", "0.0005", "--reps", "2", "--out", out)
run("power", "--preset", "dexp-moderate", "--scale", "0.0005", "--reps", "2", "--out", out)
report["commands"] = loaded()
report["fft_after"] = "numpy.fft" in sys.modules
run("test", "--x", x, "--y", y, "--tests", "lrt", "--epsilon", "0.1", "--mu", "1",
    "--gamma", "1.5")
report["lrt_other_gamma"] = loaded()
run("diagnose", "--condition", "ks", "--n", "1000", "--epsilon", "0.1", "--mu", "1")
report["diagnose_ks"] = loaded()
report["diagnose"] = run(
    "diagnose", "--condition", "lower-bound", "--gamma", "3", "--mu", "0.7"
)
report["after_diagnose"] = loaded()
print(json.dumps(report))
"""

# the rank-only curve of the fault check: run once to warm up, then count
# the minor page faults of a second run
FAULTS = """
import dataclasses, json, resource, sys
from mixdetect import experiments as exp

base = exp.figure_config("dexp-moderate", 0.02)
config = dataclasses.replace(base, tests=["HC", "WILCOXON", "KS", "TAILRUN"],
                             grid=base.grid[:3], calib_reps=100, power_reps=20)
exp.run_power_grid(config, threads=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
exp.run_power_grid(config, threads=1)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults": faults, "scipy": any(m.startswith("scipy") for m in sys.modules)}))
"""


def run_child(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_only_diagnose_loads_quadrature(tmp_path):
    rng = np.random.default_rng(0)
    files = []
    for name in ("x.txt", "y.txt"):
        path = tmp_path / name
        path.write_text("\n".join(map(str, rng.standard_normal(20).tolist())))
        files.append(str(path))
    report = run_child(CHILD, *files, str(tmp_path / "hc.npz"), str(tmp_path / "out"))
    assert report["import"] == [] and not report["fft"]
    assert report["commands"] == [] and report["fft_after"]
    assert "scipy.special" in report["lrt_other_gamma"]
    assert "scipy.integrate" not in report["lrt_other_gamma"]
    assert "scipy.special" in report["diagnose_ks"]
    assert "scipy.integrate" not in report["diagnose_ks"]
    assert {"scipy.integrate", "scipy.optimize"} <= set(report["after_diagnose"])
    # pinned: where integrate is imported moves no digit
    assert report["diagnose"] == '{"lower_bound_integral": 2.11811400534354}\n'


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap thresholds")
def test_replicate_loop_reuses_the_heap():
    # calibration raises glibc's trim threshold at import; without that, the
    # blocks' temporaries went back to the kernel and this curve took ~1400
    report = run_child(FAULTS)
    assert not report["scipy"]
    assert report["faults"] < 100
