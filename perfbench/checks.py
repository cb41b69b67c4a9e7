"""Output checks that hold under any random-number scheme.

No check compares against golden bytes: a change of sampler streams changes
every power value, so the checks test invariants of the output format and
recompute the rank statistics independently instead.
"""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "grid_value,test,power,ci_half_width,reject_count,reps"


def _close(a: float, b: float) -> bool:
    # the CSV prints ten significant digits
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_power_csv(text: str, grid, tests, reps: int) -> list[str]:
    """One entry per grid point: '' if its rows pass, else the reason.

    A grid point fails if any test's row is missing or malformed, if
    reject_count exceeds reps, or if power and the CI half-width do not
    follow from reject_count and reps.
    """
    lines = text.splitlines()
    rows: dict = {}
    header_ok = bool(lines) and lines[0] == CSV_HEADER
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            continue
        rows.setdefault(parts[0], {})[parts[1]] = parts[2:]
    verdicts = []
    for g in grid:
        key = f"{g:.10g}"
        got = rows.get(key, {})
        problems = [] if header_ok else ["bad header"]
        for test in tests:
            if test not in got:
                problems.append(f"{test} missing")
                continue
            try:
                power, ci = float(got[test][0]), float(got[test][1])
                rejects, row_reps = int(got[test][2]), int(got[test][3])
            except ValueError:
                problems.append(f"{test} unparsable")
                continue
            if row_reps != reps or not 0 <= rejects <= reps:
                problems.append(f"{test} reject_count {rejects} of {row_reps}")
                continue
            p = rejects / reps
            if not _close(power, p):
                problems.append(f"{test} power {power} != {rejects}/{reps}")
            if not _close(ci, 1.96 * math.sqrt(p * (1.0 - p) / reps)):
                problems.append(f"{test} ci_half_width {ci}")
        verdicts.append("; ".join(f"grid {key}: {p}" for p in problems))
    return verdicts


def rank_reference(x: np.ndarray, y: np.ndarray) -> dict:
    """U, one-sided D and the tail run, recomputed without mixdetect."""
    from scipy.stats import mannwhitneyu

    m, n = x.size, y.size
    # U counts pairs with X_i < Y_j, which is scipy's U for the y sample
    u = float(mannwhitneyu(y, x, alternative="two-sided").statistic)
    pooled = np.sort(np.concatenate([x, y]))
    fx = np.searchsorted(np.sort(x), pooled, side="right") / m
    gy = np.searchsorted(np.sort(y), pooled, side="right") / n
    d = max(0.0, float(np.max(fx - gy)))
    top_x = float(np.max(x))
    run = int(np.sum(y > top_x))
    return {"WILCOXON": u, "KS": d, "TAILRUN": float(run)}


def check_test_report(report: dict, m: int, n: int, tests, reference: dict) -> str:
    """'' if a `mixdetect test` JSON report is consistent, else the reason."""
    problems = []
    if (report.get("m"), report.get("n")) != (m, n):
        problems.append(f"sizes {report.get('m')},{report.get('n')} != {m},{n}")
    got = report.get("tests", {})
    for test in tests:
        row = got.get(test)
        if row is None:
            problems.append(f"{test} missing")
            continue
        p = row.get("pvalue")
        if not (isinstance(p, float) and 0.0 < p <= 1.0):
            problems.append(f"{test} p-value {p!r} outside (0, 1]")
        stat = row.get("statistic")
        if test in reference and not (
            isinstance(stat, (int, float)) and _close(stat, reference[test])
        ):
            problems.append(f"{test} statistic {stat!r} != {reference[test]}")
    return "; ".join(problems)
