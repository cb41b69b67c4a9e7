"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavy power-curve runs are shared between criteria through
module-scoped fixtures, and the criteria that use them are marked slow.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

import mixdetect as md
from mixdetect import experiments as exp
from mixdetect import statistics as st
from mixdetect import theory

NORMAL = md.GGParams(gamma=2.0)


def check(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def dense_runs():
    """Desk-scale dense figure run, twice with different thread counts."""
    config = exp.figure_config("normal-dense", scale=0.1)
    first = exp.run_power_grid(config, threads=1)
    second = exp.run_power_grid(config, threads=2)
    return first, second


@pytest.fixture(scope="module")
def verysparse_run():
    config = exp.figure_config("normal-verysparse", scale=0.1)
    return exp.run_power_grid(config, threads=2)


def test_criterion_1_hc_identity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 201))
        n = int(rng.integers(2, 201))
        x, y = rng.normal(size=m), rng.normal(size=n)
        xi = md.pooled_indicator(x, y)
        rank_form = md.hc_from_indicator(xi, m, n)
        worst = max(worst, abs(rank_form - md.hc_sup_form_from_indicator(xi, m, n)))
    elapsed = time.time() - t0
    check(
        "criterion 1 (rank/sup HC identity)",
        worst <= 1e-9 and elapsed < 10,
        f"max |diff| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_wilcoxon_exact_null_moments():
    t0 = time.time()
    worst = 0.0
    for m, n in itertools.product(range(1, 9), repeat=2):
        pmf = md.wilcoxon_exact_null(m, n)
        u = np.arange(pmf.size)
        mean = float((pmf * u).sum())
        var = float((pmf * u**2).sum() - mean**2)
        worst = max(
            worst, abs(mean - m * n / 2), abs(var - m * n * (m + n + 1) / 12)
        )
    elapsed = time.time() - t0
    check(
        "criterion 2 (Wilcoxon exact null moments)",
        worst <= 1e-12 and elapsed < 5,
        f"max moment error = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_tailrun_exact_null():
    t0 = time.time()
    worst_pmf = 0.0
    worst_mean = 0.0
    for m, n in itertools.product(range(1, 8), repeat=2):
        pmf = md.tailrun_null_pmf(m, n)
        counts = np.zeros(n + 1)
        for positions in itertools.combinations(range(m + n), n):
            yset = set(positions)
            run = 0
            for j in range(m + n - 1, -1, -1):
                if j not in yset:
                    break
                run += 1
            counts[run] += 1
        enum = counts / math.comb(m + n, n)
        worst_pmf = max(worst_pmf, float(np.max(np.abs(pmf - enum))))
        mean = float((pmf * np.arange(n + 1)).sum())
        worst_mean = max(worst_mean, abs(mean - n / (m + 1)))
    elapsed = time.time() - t0
    check(
        "criterion 3 (tail-run exact null)",
        worst_pmf <= 1e-12 and worst_mean <= 1e-12 and elapsed < 5,
        f"max pmf error = {worst_pmf:.2e}, max mean error = {worst_mean:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_null_size():
    t0 = time.time()
    config = exp.ScenarioConfig(
        model=NORMAL,
        m=2000,
        n=2000,
        regime=exp.SPARSE,
        beta=0.6,
        grid=[0.3],
        level=0.05,
        power_reps=2000,
        calib_reps=4000,
        master_seed=31,
    )
    report = exp.run_null_level(config, threads=2)
    sizes = {t: report.points[0].per_test[t]["power"] for t in config.tests}
    elapsed = time.time() - t0
    ok = all(abs(s - 0.05) <= 0.015 for s in sizes.values()) and elapsed < 300
    detail = ", ".join(f"{t}={s:.3f}" for t, s in sizes.items())
    # Known red: the exact tail-run null is discrete; at m = n the sizes
    # achievable near 0.05 are P(L*>=4) ~= 0.062 and P(L*>=5) ~= 0.031, and a
    # valid (size <= level) test must use l >= 5, so its true size ~0.031
    # cannot enter [0.035, 0.065].  The other four tests must sit in the
    # window; the criterion is asserted as stated.
    exact_tail_size = md.tailrun_pvalue(5, config.m, config.n).p
    check(
        "criterion 4 (null size m=n=2000)",
        ok,
        f"{detail}; exact achievable tail-run size = {exact_tail_size:.4f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_lower_bound_integral():
    t0 = time.time()
    worst_rel = 0.0
    for mu in (0.5, 1.0, 2.0):
        val = md.lower_bound_integral(np.inf, NORMAL, mu)
        target = math.exp(mu**2) - 1
        worst_rel = max(worst_rel, abs(val - target) / target)
    elapsed = time.time() - t0
    check(
        "criterion 5 (lower-bound integral vs Gaussian closed form)",
        worst_rel <= 1e-6 and elapsed < 1,
        f"max rel error = {worst_rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_boundary_formulas():
    t0 = time.time()
    worst = 0.0
    for gamma in (1.5, 2.0, 3.0):
        bp = 1 - 2 ** (-gamma / (gamma - 1))
        left = (2 ** (1 / (gamma - 1)) - 1) ** (gamma - 1) * (bp - 0.5)
        right = (1 - (1 - bp) ** (1 / gamma)) ** gamma
        worst = max(worst, abs(left - right))
        at_bp = md.detection_boundary_sparse(bp, gamma)
        worst = max(worst, abs(at_bp - right))
    exact_gamma1 = all(
        md.detection_boundary_sparse(b, 1.0) == 2 * b - 1
        for b in (0.55, 0.7, 0.9)
    )
    dense_gap = max(
        abs(md.detection_boundary_dense(b, 0.5) - md.detection_boundary_dense(b, 0.5 - 1e-13))
        for b in (0.1, 0.3, 0.45)
    )
    elapsed = time.time() - t0
    check(
        "criterion 6 (boundary formulas)",
        worst <= 1e-12 and exact_gamma1 and dense_gap <= 1e-12 and elapsed < 1,
        f"sparse continuity = {worst:.2e}, dense continuity = {dense_gap:.2e}",
    )


@pytest.mark.slow
def test_criterion_7_dense_figure(dense_runs):
    curve, _ = dense_runs
    points = {pt.grid_value: pt.per_test for pt in curve.points}
    gaps = []
    for s, per_test in points.items():
        if s >= 0.4:
            lrt = per_test[st.LRT]["power"]
            for t in (st.HC, st.WILCOXON, st.KS):
                gaps.append((s, t, lrt - per_test[t]["power"]))
    worst_gap = max(g for _, _, g in gaps)
    tail = points[0.5][st.TAILRUN]["power"]
    wilc = points[0.5][st.WILCOXON]["power"]
    ok = worst_gap <= 0.15 and tail <= wilc - 0.2
    check(
        "criterion 7 (dense figure, beta=0.2, m=n=1e4)",
        ok,
        f"max LRT gap at s>=0.4 = {worst_gap:.3f}, tail-run(0.5) = {tail:.2f}, "
        f"Wilcoxon(0.5) = {wilc:.2f}",
    )


@pytest.mark.slow
def test_criterion_8_verysparse_figure(verysparse_run):
    points = {pt.grid_value: pt.per_test for pt in verysparse_run.points}
    top = points[0.9]
    ok = (
        top[st.WILCOXON]["power"] <= 0.15
        and top[st.KS]["power"] <= 0.15
        and top[st.TAILRUN]["power"] >= top[st.HC]["power"] - 0.05
    )
    check(
        "criterion 8 (very sparse figure, beta=0.8, m=n=1e4)",
        ok,
        f"at r=0.9: W={top[st.WILCOXON]['power']:.2f}, KS={top[st.KS]['power']:.2f}, "
        f"tail-run={top[st.TAILRUN]['power']:.2f}, HC={top[st.HC]['power']:.2f}",
    )


@pytest.mark.slow
def test_criterion_9_determinism(dense_runs):
    first, second = dense_runs
    a = first.to_csv().encode()
    b = second.to_csv().encode()
    check(
        "criterion 9 (byte-identical CSV across thread counts)",
        a == b,
        f"{len(a)} bytes each",
    )


def test_criterion_10_sampler_fidelity():
    t0 = time.time()
    details = []
    ok = True
    for gamma in (0.5, 1.0, 2.0):
        p = md.GGParams(gamma=gamma)
        rng = np.random.default_rng(777)
        draws = md.gg_sample(10**5, p, rng)
        gof_p = stats.kstest(draws, lambda v: md.gg_cdf(v, p)).pvalue
        moment = float(np.mean(np.abs(draws) ** gamma))
        ok = ok and gof_p > 0.001 and abs(moment - 1.0) <= 0.02
        details.append(f"gamma={gamma}: gof p={gof_p:.3f}, E|X|^g={moment:.4f}")
    elapsed = time.time() - t0
    check(
        "criterion 10 (sampler fidelity)",
        ok and elapsed < 30,
        "; ".join(details) + f", {elapsed:.1f}s",
    )
