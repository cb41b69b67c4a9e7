#!/usr/bin/env python3
"""Time the north-star power run of two source trees in alternating pairs.

    python3 tools/northstar.py --parent ../parent --change . --pairs 6

Each tree is a checkout with the package under ``src/``.  For every pair and
for --threads 1 and 2, the command

    python -m mixdetect.cli power --preset normal-dense --scale 0.1 --threads T

runs once from each tree, in a fresh interpreter with PYTHONPATH set to that
tree's ``src/``; which tree runs first alternates from one pair to the next.
Prints one JSON object: every run's wall seconds, CPU seconds (the child's
and its pool workers'), and the sha256 of the CSV it wrote, followed by the
median wall and CPU per tree and thread count.  Under "paired", per thread
count, it gives each pair's change/parent CPU ratio, their median, how many
pairs the change took less CPU in, and each tree's CPU quartiles: the two
runs of a pair are back to back, so their ratio cancels any drift of the
host slower than one pair.  It checks nothing and exits 0 unless a run
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREADS = (1, 2)


def children_cpu() -> float:
    """User and system seconds of every reaped child of this process."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run_once(tree: Path, threads: int, scale: float, out: Path) -> dict:
    """One power run from tree's src/; its wall and CPU seconds and CSV sha256."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "mixdetect.cli", "power", "--preset", "normal-dense",
            "--scale", repr(scale), "--threads", str(threads), "--out", str(out)]
    cpu0, wall0 = children_cpu(), time.perf_counter()
    # cwd is the empty output directory, so nothing is imported from the caller's
    subprocess.run(argv, env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
    wall, cpu = time.perf_counter() - wall0, children_cpu() - cpu0
    digest = hashlib.sha256((out / "normal-dense.csv").read_bytes()).hexdigest()
    return {"threads": threads, "wall_s": wall, "cpu_s": cpu, "csv_sha256": digest}


def quartiles(values) -> list:
    """The first and third quartiles, as numpy's default percentile gives them."""
    values = list(values)
    if len(values) == 1:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def paired(runs, pairs: int, threads: int) -> dict:
    """The per-pair change/parent CPU ratios at one thread count, and their summary."""
    cpu = {(r["side"], r["pair"]): r["cpu_s"] for r in runs if r["threads"] == threads}
    ratios = [cpu["change", i] / cpu["parent", i] for i in range(pairs)]
    return {
        "cpu_ratios": ratios,
        "median_cpu_ratio": statistics.median(ratios),
        "pairs_change_less_cpu": sum(r < 1 for r in ratios),
        "cpu_quartiles": {side: quartiles(cpu[side, i] for i in range(pairs))
                          for side in ("parent", "change")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    p.add_argument("--change", type=Path, required=True, help="source tree of the change")
    p.add_argument("--pairs", type=int, default=6, help="alternating pairs per thread count")
    p.add_argument("--scale", type=float, default=0.1, help="the preset's --scale")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for pair in range(args.pairs):
            for threads in THREADS:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    out = Path(tmp) / f"{side}-{pair}-t{threads}"
                    out.mkdir()
                    runs.append({"side": side, "pair": pair,
                                 **run_once(trees[side], threads, args.scale, out)})
    medians = {
        f"{side}-t{threads}": {
            key: statistics.median(r[key] for r in runs
                                   if r["side"] == side and r["threads"] == threads)
            for key in ("wall_s", "cpu_s")
        }
        for side in trees for threads in THREADS
    }
    print(json.dumps({
        "command": f"power --preset normal-dense --scale {args.scale!r}",
        "trees": {side: str(path) for side, path in trees.items()},
        "pairs": args.pairs,
        "runs": runs,
        "medians": medians,
        "paired": {f"t{threads}": paired(runs, args.pairs, threads) for threads in THREADS},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
