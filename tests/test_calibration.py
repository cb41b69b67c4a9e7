import itertools
import math

import numpy as np
import pytest
from scipy import stats

from mixdetect import (
    GGParams,
    MixtureAlt,
    NullTable,
    gg_sample,
    ks_pvalue,
    load_null_table,
    mc_null_table,
    mc_pvalue,
    mixture_sample,
    save_null_table,
    tailrun_null_pmf,
    tailrun_pvalue,
    wilcoxon_alt_moments,
    wilcoxon_exact_null,
    wilcoxon_pvalue,
)
from mixdetect import calibration as cal
from mixdetect import statistics as st
from mixdetect.calibration import mc_pvalues

NORMAL = GGParams(gamma=2.0)


class TestMcNullTable:
    def test_determinism(self):
        a = mc_null_table(st.HC, 100, 100, 200, master_seed=11)
        b = mc_null_table(st.HC, 100, 100, 200, master_seed=11)
        np.testing.assert_array_equal(a.draws, b.draws)

    def test_quantile_stability(self):
        a = mc_null_table(st.HC, 200, 200, 4000, master_seed=1)
        b = mc_null_table(st.HC, 200, 200, 4000, master_seed=2)
        qa = np.quantile(a.draws, 0.95)
        qb = np.quantile(b.draws, 0.95)
        assert abs(qa - qb) < 0.15

    def test_wilcoxon_null_mean(self):
        m = n = 4
        table = mc_null_table(st.WILCOXON, m, n, 10**5, master_seed=3)
        exact_sd = math.sqrt(m * n * (m + n + 1) / 12)
        se = exact_sd / math.sqrt(table.reps)
        assert abs(np.mean(table.draws) - m * n / 2) < 3 * se

    def test_lrt_requires_model(self):
        with pytest.raises(ValueError):
            mc_null_table(st.LRT, 50, 50, 200, master_seed=0)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            mc_null_table(st.HC, 50, 50, 10, master_seed=0)

    def test_rank_stream(self):
        # replicate k: m + n uniforms from the stream (seed, 101, k)
        m, n = 12, 9
        expected = []
        for k in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([4, 101, k]))
            pooled = rng.random(m + n)
            expected.append(st.ks_from_indicator(st.pooled_indicator(pooled[:m], pooled[m:]), m, n))
        table = mc_null_table(st.KS, m, n, 100, master_seed=4)
        np.testing.assert_array_equal(table.draws, np.sort(expected))

    def test_lrt_stream(self):
        # replicate k: the Y-sample from F, drawn from the stream (seed, 102, k)
        alt = MixtureAlt(epsilon=0.1, mu=2.0)
        expected = []
        for k in range(100):
            rng = np.random.default_rng(np.random.SeedSequence([4, 102, k]))
            expected.append(st.lrt_stat(gg_sample(30, NORMAL, rng), NORMAL, alt).value)
        table = mc_null_table(st.LRT, 30, 30, 100, master_seed=4, model=(NORMAL, alt))
        np.testing.assert_array_equal(table.draws, np.sort(expected))

    def test_distribution_freeness(self):
        # same (m, n): uniform-data table vs gaussian-data table agree in law
        m = n = 100
        uniform_table = mc_null_table(st.HC, m, n, 2000, master_seed=17)
        draws = np.empty(2000)
        for k in range(2000):
            rng = np.random.default_rng(np.random.SeedSequence([18, k]))
            data = gg_sample(m + n, NORMAL, rng)
            xi = st.pooled_indicator(data[:m], data[m:])
            draws[k] = st.hc_from_indicator(xi, m, n)
        res = stats.ks_2samp(uniform_table.draws, draws)
        assert res.pvalue > 0.001


class TestMcPvalue:
    def _table(self, draws):
        return NullTable(statistic=st.HC, m=2, n=2, draws=np.asarray(draws, float), seed=0)

    def test_extremes(self):
        table = self._table(np.arange(100))
        assert mc_pvalue(1000.0, table).p == pytest.approx(1 / 101)
        assert mc_pvalue(-1.0, table).p == 1.0

    def test_median_count(self):
        r = 101
        table = self._table(np.arange(r))
        median = 50.0
        # draws >= median: 51 = (R+1)/2, so p = (R+3)/(2R+2)
        assert mc_pvalue(median, table).p == pytest.approx((r + 3) / (2 * r + 2))

    def test_super_uniform_under_null(self):
        m = n = 60
        table = mc_null_table(st.HC, m, n, 4000, master_seed=5)
        fresh = np.empty(2000)
        for k in range(2000):
            rng = np.random.default_rng(np.random.SeedSequence([6, k]))
            pooled = rng.random(m + n)
            xi = st.pooled_indicator(pooled[:m], pooled[m:])
            fresh[k] = st.hc_from_indicator(xi, m, n)
        pvals = mc_pvalues(fresh, table)
        for alpha in (0.01, 0.05, 0.1):
            rate = np.mean(pvals <= alpha)
            bound = alpha + 1 / (table.reps + 1)
            sd = math.sqrt(alpha * (1 - alpha) / 2000)
            assert rate <= bound + 3 * sd

    def test_monotone_in_statistic(self):
        table = self._table(np.sort(np.random.default_rng(0).normal(size=500)))
        vals = np.linspace(-4, 4, 100)
        ps = [mc_pvalue(v, table).p for v in vals]
        assert all(b <= a for a, b in zip(ps[:-1], ps[1:]))


class TestWilcoxonPvalue:
    def test_centered(self):
        m = n = 20
        p = wilcoxon_pvalue(m * n // 2, m, n).p
        assert p == pytest.approx(0.5, abs=0.02)

    def test_maximal_u(self):
        assert wilcoxon_pvalue(400, 20, 20).p < 0.001

    def test_matches_exact_enumeration(self):
        m = n = 6
        pmf = wilcoxon_exact_null(m, n)
        for u in range(m * n + 1):
            exact = pmf[u:].sum()
            approx = wilcoxon_pvalue(u, m, n).p
            assert abs(approx - exact) < 0.02

    def test_monotone(self):
        ps = [wilcoxon_pvalue(u, 10, 10).p for u in range(101)]
        assert all(b <= a for a, b in zip(ps[:-1], ps[1:]))


class TestStatisticTable:
    def test_order_and_methods(self):
        assert tuple(cal.STATISTICS) == st.ALL_STATISTICS
        assert [s.method for s in cal.STATISTICS.values()] == [
            "monte-carlo", "monte-carlo", "normal-approx", "smirnov-limit", "exact",
        ]
        assert [s.name for s in cal.STATISTICS.values() if not s.rank] == [st.LRT]

    def test_scalar_forms_match_vector_forms(self):
        table = NullTable(statistic=st.HC, m=9, n=7, draws=np.linspace(0, 3, 200), seed=0)
        values = np.array([0.0, 2.0, 5.0, 7.0])
        for name in (st.HC, st.WILCOXON, st.KS, st.TAILRUN):
            stat = cal.STATISTICS[name]
            vector = stat.pvalues(values, 9, 7, table)
            scalar = [stat.pvalue(v, 9, 7, table).p for v in values]
            np.testing.assert_array_equal(vector, scalar)
        np.testing.assert_array_equal(
            [wilcoxon_pvalue(v, 9, 7).p for v in values], cal.wilcoxon_pvalues(values, 9, 7)
        )
        np.testing.assert_array_equal(
            [tailrun_pvalue(int(v), 9, 7).p for v in values], cal.tailrun_pvalues(values, 9, 7)
        )
        np.testing.assert_array_equal([ks_pvalue(v).p for v in values], cal.ks_pvalues(values))
        np.testing.assert_array_equal([mc_pvalue(v, table).p for v in values], mc_pvalues(values, table))

    def test_vector_forms_validate(self):
        with pytest.raises(ValueError):
            cal.wilcoxon_pvalues(np.array([3.0, 64.0]), 9, 7)
        with pytest.raises(ValueError):
            cal.tailrun_pvalues(np.array([1, 8]), 9, 7)
        with pytest.raises(ValueError):
            cal.ks_pvalues(np.array([0.5, np.inf]))


class TestWilcoxonExactNull:
    def test_single_pair(self):
        pmf = wilcoxon_exact_null(1, 1)
        np.testing.assert_allclose(pmf, [0.5, 0.5])

    def test_two_by_two_moments(self):
        pmf = wilcoxon_exact_null(2, 2)
        u = np.arange(pmf.size)
        assert (pmf * u).sum() == pytest.approx(2.0, abs=1e-12)
        assert (pmf * u**2).sum() - 4.0 == pytest.approx(5 / 3, abs=1e-12)

    @pytest.mark.parametrize("m,n", list(itertools.product(range(1, 9), repeat=2)))
    def test_moments_all_small_sizes(self, m, n):
        pmf = wilcoxon_exact_null(m, n)
        u = np.arange(pmf.size)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert (pmf * u).sum() == pytest.approx(m * n / 2, abs=1e-12)
        var = (pmf * u**2).sum() - (m * n / 2) ** 2
        assert var == pytest.approx(m * n * (m + n + 1) / 12, abs=1e-12)

    def test_scale_error(self):
        with pytest.raises(ValueError):
            wilcoxon_exact_null(13, 12)


class TestWilcoxonAltMoments:
    def test_null_reduction_tiny_epsilon(self):
        m = n = 50
        mean, var = wilcoxon_alt_moments(NORMAL, MixtureAlt(1e-12, 1.0), m, n)
        assert mean == pytest.approx(0.5, abs=1e-9)
        assert var == pytest.approx((m + n + 1) / (12 * m * n), rel=1e-6)

    def test_null_reduction_tiny_mu(self):
        m = n = 50
        mean, var = wilcoxon_alt_moments(NORMAL, MixtureAlt(0.3, 1e-10), m, n)
        assert mean == pytest.approx(0.5, abs=1e-8)
        assert var == pytest.approx((m + n + 1) / (12 * m * n), rel=1e-4)

    def test_simulation_oracle(self):
        m = n = 100
        alt = MixtureAlt(epsilon=0.1, mu=1.0)
        mean, var = wilcoxon_alt_moments(NORMAL, alt, m, n)
        reps = 4000
        sims = np.empty(reps)
        for k in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([77, k]))
            x = gg_sample(m, NORMAL, rng)
            y = mixture_sample(n, NORMAL, alt, rng)
            xi = st.pooled_indicator(x, y)
            sims[k] = st.wilcoxon_from_indicator(xi, m, n) / (m * n)
        se = math.sqrt(var / reps)
        assert abs(np.mean(sims) - mean) < 3 * se
        assert np.var(sims) == pytest.approx(var, rel=0.15)


class TestKsPvalue:
    def test_zero_and_negative(self):
        assert ks_pvalue(0.0).p == 1.0
        assert ks_pvalue(-2.0).p == 1.0

    def test_level_point(self):
        assert ks_pvalue(1.2239).p == pytest.approx(0.05, abs=1e-3)

    def test_monotone(self):
        lams = np.linspace(-1, 5, 200)
        ps = [ks_pvalue(v).p for v in lams]
        assert all(b <= a for a, b in zip(ps[:-1], ps[1:]))


def enumerate_tailrun_pmf(m, n):
    """Frequency of each run length over all C(m+n, n) label arrangements."""
    counts = np.zeros(n + 1)
    total = 0
    for positions in itertools.combinations(range(m + n), n):
        yset = set(positions)
        run = 0
        for j in range(m + n - 1, -1, -1):
            if j in yset:
                run += 1
            else:
                break
        counts[run] += 1
        total += 1
    return counts / total


class TestTailRunNull:
    def test_pvalue_cases(self):
        assert tailrun_pvalue(0, 5, 5).p == 1.0
        assert tailrun_pvalue(1, 7, 7).p == pytest.approx(0.5, abs=1e-12)
        assert tailrun_pvalue(2, 2, 2).p == pytest.approx(1 / 6, abs=1e-12)

    def test_pvalue_strictly_decreasing(self):
        m, n = 9, 7
        ps = [tailrun_pvalue(l, m, n).p for l in range(n + 1)]
        assert all(b < a for a, b in zip(ps[:-1], ps[1:]))

    def test_pmf_single_pair(self):
        np.testing.assert_allclose(tailrun_null_pmf(1, 1), [0.5, 0.5], atol=1e-15)

    def test_pmf_moments(self):
        for m, n in [(3, 2), (5, 4), (8, 8), (2, 7)]:
            pmf = tailrun_null_pmf(m, n)
            l = np.arange(pmf.size)
            mean = (pmf * l).sum()
            var = (pmf * l**2).sum() - mean**2
            assert mean == pytest.approx(n / (m + 1), abs=1e-12)
            assert var == pytest.approx(
                (m + n + 1) * n / ((m + 1) * (m + 2)) * (1 - 1 / (m + 1)), abs=1e-12
            )

    def test_pmf_matches_enumeration(self):
        for m, n in [(2, 2), (3, 5), (6, 4), (8, 8)]:
            np.testing.assert_allclose(
                tailrun_null_pmf(m, n), enumerate_tailrun_pmf(m, n), atol=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tailrun_pvalue(6, 4, 5)


class TestCacheRoundTrip:
    def test_bit_exact(self, tmp_path):
        table = mc_null_table(st.HC, 40, 30, 300, master_seed=13)
        path = tmp_path / "hc.npz"
        save_null_table(table, path)
        loaded = load_null_table(path)
        assert (loaded.statistic, loaded.m, loaded.n, loaded.seed) == (
            st.HC,
            40,
            30,
            13,
        )
        np.testing.assert_array_equal(loaded.draws, table.draws)
        assert loaded.draws.dtype == np.float64

    def test_no_overwrite_without_force(self, tmp_path):
        table = mc_null_table(st.HC, 20, 20, 150, master_seed=1)
        path = tmp_path / "hc.npz"
        save_null_table(table, path)
        with pytest.raises(FileExistsError):
            save_null_table(table, path)
        save_null_table(table, path, force=True)

    def test_path_without_suffix(self, tmp_path):
        table = mc_null_table(st.HC, 20, 20, 150, master_seed=1)
        written = save_null_table(table, tmp_path / "tbl")
        assert written == tmp_path / "tbl.npz" and written.exists()
        with pytest.raises(FileExistsError):
            save_null_table(table, tmp_path / "tbl")
        assert save_null_table(table, tmp_path / "tbl", force=True) == written

    def test_load_without_suffix(self, tmp_path):
        table = mc_null_table(st.HC, 20, 20, 150, master_seed=1)
        save_null_table(table, tmp_path / "tbl")
        loaded = load_null_table(tmp_path / "tbl")
        assert loaded.key == table.key
        np.testing.assert_array_equal(loaded.draws, table.draws)


class TestLoadChecks:
    def write(self, path, draws, reps=None, version=cal.CACHE_FORMAT_VERSION):
        draws = np.asarray(draws, dtype=float)
        np.savez(
            path, version=np.int64(version), statistic=np.str_(st.HC), m=np.int64(5),
            n=np.int64(5), reps=np.int64(draws.size if reps is None else reps),
            seed=np.int64(0), draws=draws,
        )
        return path

    def test_accepts_an_intact_file(self, tmp_path):
        table = load_null_table(self.write(tmp_path / "ok.npz", [0.5, 1.0, 2.0]))
        assert table.key == (st.HC, 5, 5, 3, 0)

    @pytest.mark.parametrize(
        "draws,reps,message",
        [
            ([2.0, 1.0, 3.0], None, "sorted"),
            ([1.0, np.nan, 3.0], None, "finite"),
            ([1.0, 2.0, np.inf], None, "finite"),
            ([1.0, 2.0, 3.0], 4, "reps"),
        ],
    )
    def test_rejects_a_bad_file(self, tmp_path, draws, reps, message):
        path = self.write(tmp_path / "bad.npz", draws, reps)
        with pytest.raises(ValueError, match=message):
            load_null_table(path)

    def test_rejects_another_version(self, tmp_path):
        path = self.write(tmp_path / "v1.npz", [1.0, 2.0], version=1)
        with pytest.raises(ValueError, match="version"):
            load_null_table(path)

    def test_rejects_a_file_missing_a_field(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, version=np.int64(cal.CACHE_FORMAT_VERSION), draws=np.arange(3.0))
        with pytest.raises(ValueError, match="not a null-table file"):
            load_null_table(path)
