import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

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

    def test_lrt_requires_model(self):
        # the LRT's null needs the model, which lrt_null reads; it has no table
        with pytest.raises(ValueError, match="^LRT reads no null table: its p-value uses the "
                                             "lattice-convolution null$"):
            mc_null_table(st.LRT, 50, 50, 200, master_seed=0)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            mc_null_table(st.HC, 50, 50, 10, master_seed=0)

    @pytest.mark.parametrize("reps, seed, message", [
        (100, 0.5, "seed must be an integer, got 0.5"),
        (100, 1.0, "seed must be an integer, got 1.0"),
        (100, True, "seed must be an integer, got True"),
        (100.0, 0, "reps must be an integer, got 100.0"),
        (100, 2**63, f"seed must be below 2**63, got {2**63}"),
    ])
    def test_reps_and_seed_a_file_can_hold(self, monkeypatch, reps, seed, message):
        # refused before anything is simulated, not stored under a key that
        # names another seed or that its file cannot hold
        monkeypatch.setattr(cal, "replicate_rows", None)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_null_table(st.HC, 5, 5, reps, seed)

    def test_largest_seed_round_trips(self, tmp_path):
        # numpy integers are accepted, up to the largest seed an int64 holds
        table = mc_null_table(st.HC, 5, 5, np.int64(100), np.uint64(2**63 - 1))
        loaded = load_null_table(save_null_table(table, tmp_path / "t"))
        assert loaded.key == table.key == (st.HC, 5, 5, 100, 2**63 - 1)

    def test_rank_stream(self):
        # replicate k: X-labels on the m smallest of m + n uniform keys drawn
        # from the stream (seed, 101, k)
        m, n = 12, 9
        expected = []
        for k in range(100):
            keys = numpy_stream([4, 101, k]).random(m + n)
            xi = np.zeros(m + n, dtype=np.int64)
            xi[np.argsort(keys)[:m]] = 1
            expected.append(st.hc_from_indicator(xi, m, n))
        table = mc_null_table(st.HC, m, n, 100, master_seed=4)
        np.testing.assert_array_equal(table.draws, np.sort(expected))

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_data_stream(self, gamma):
        # replicate k: X = F-sample of m, then the Y-sample's F-draws, then
        # K ~ Binomial(n, eps) shifting its first K, all from the stream (*parts, k)
        p, alt, m, n, parts = GGParams(gamma, 0.8), MixtureAlt(0.2, 1.5), 40, 30, [6, 201, 2]
        tests = [st.LRT, st.HC, st.WILCOXON, st.KS, st.TAILRUN]
        expected = []
        for k in range(12):
            rng = np.random.default_rng(np.random.SeedSequence([*parts, k]))
            x, y = gg_sample(m, p, rng), gg_sample(n, p, rng)
            y[:rng.binomial(n, alt.epsilon)] += alt.mu
            xi = st.pooled_indicator(x, y)
            expected.append([st.lrt_stat(y, p, alt)] + [
                float(f(xi, m, n)) for f in (st.hc_from_indicator, st.wilcoxon_from_indicator,
                                             st.ks_from_indicator, st.tailrun_from_indicator)
            ])
        got = cal.replicate_rows(cal.DATA, tests, p, alt, [alt], m, n, parts, 0, 12)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_lrt_table_at_gamma_one(self):
        # the LRT's null at gamma = 1, whose F-cells come from the closed-form
        # tail 0.5 * exp(-z); sha256 of the lattice survival function as of
        # rng_scheme 10 (numpy 2.4.6; the draws of a simulated table before)
        null = cal.lrt_null(GGParams.double_exponential_unit_variance(), MixtureAlt(0.1, 1.5), 40)
        assert hashlib.sha256(null.sf.tobytes()).hexdigest() == (
            "119c53ca8ba80091292e444bfc51f975145492b648e7136e0880ae09ef193752"
        )

    @pytest.mark.parametrize("m, n", [(5, 3), (3, 5)])
    @pytest.mark.parametrize(
        "statistic, pmf",
        [(st.WILCOXON, wilcoxon_exact_null), (st.TAILRUN, tailrun_null_pmf)],
    )
    def test_rank_null_law(self, statistic, pmf, m, n):
        # the label arrangements a rank table is simulated on follow the
        # exact law; m != n, so swapped X/Y labels would change the tail-run law
        reps = 20000
        draws = cal.replicate_rows(cal.RANK_NULL, [statistic], None, None, (), m, n,
                                   [21, cal.TAG_CALIB_RANK], 0, reps)
        expected = pmf(m, n)
        observed = np.bincount(draws[:, 0].astype(int), minlength=expected.size)
        assert observed.size == expected.size
        assert stats.chisquare(observed, reps * expected).pvalue > 0.001

    @pytest.mark.parametrize("m, n", [(6, 4), (4, 6)])
    def test_hc_null_law_by_enumeration(self, m, n):
        # HC on every one of the C(m+n, m) equally likely arrangements gives
        # its exact null law; each simulated value is one of those values
        arrangements = []
        for positions in itertools.combinations(range(m + n), m):
            xi = np.zeros(m + n, dtype=np.int64)
            xi[list(positions)] = 1
            arrangements.append(xi)
        exact = st.hc_from_indicator(np.array(arrangements), m, n)
        values, counts = np.unique(exact, return_counts=True)
        reps = 20000
        draws = cal.replicate_rows(cal.RANK_NULL, [st.HC], None, None, (), m, n,
                                   [22, cal.TAG_CALIB_RANK], 0, reps)[:, 0]
        index = np.searchsorted(values, draws)
        assert np.array_equal(values[np.minimum(index, values.size - 1)], draws)
        observed = np.bincount(index, minlength=values.size)
        expected = reps * counts / math.comb(m + n, m)
        assert stats.chisquare(observed, expected).pvalue > 0.001

    @pytest.mark.parametrize("m, n", [(0, 5), (3, 0)])
    def test_empty_sample_refused(self, m, n):
        name = "m" if m == 0 else "n"
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got 0$"):
            mc_null_table(st.HC, m, n, 200, master_seed=0)

    def test_model_refused_for_a_rank_statistic(self, monkeypatch):
        # a table is simulated on label arrangements and reads no model; the
        # LRT, the one test with a model, is refused before the replicate loop
        monkeypatch.setattr(cal, "replicate_rows", None)
        alt = MixtureAlt(0.1, 1.0)
        with pytest.raises(TypeError):
            mc_null_table(st.HC, 50, 50, 100, 0, model=(NORMAL, alt))
        with pytest.raises(ValueError, match="^LRT reads no null table"):
            cal._null_tables(st.LRT, 50, 50, 100, 0)

    @pytest.mark.parametrize("m, n, message", [
        (True, 5, "m must be an integer, got True"),
        (5.0, 5, "m must be an integer, got 5.0"),
        (5, 4.5, "n must be an integer, got 4.5"),
    ])
    def test_sizes_must_be_integers(self, monkeypatch, m, n, message):
        # refused before anything is simulated, not keyed with a bool or float
        def fail(*args, **kwargs):
            raise AssertionError("replicates drawn for sizes that are not integers")

        monkeypatch.setattr(cal, "replicate_rows", fail)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_null_table(st.HC, m, n, 100, 0)

    @pytest.mark.parametrize("statistic, method", [
        (st.WILCOXON, "normal-approx"), (st.KS, "smirnov-limit"), (st.TAILRUN, "exact"),
    ])
    def test_no_table_for_a_test_that_reads_none(self, monkeypatch, statistic, method):
        def fail(*args, **kwargs):
            raise AssertionError("replicates drawn for a test that reads no table")

        monkeypatch.setattr(cal, "replicate_rows", fail)
        message = f"^{statistic} reads no null table: its p-value uses the {method} null$"
        with pytest.raises(ValueError, match=message):
            mc_null_table(statistic, 5, 5, 200, master_seed=0)

    def test_builder_calls_collect_positionally(self):
        # the power harness passes its own collect, which is called as _serial is
        calls = []

        def collect(*args, **kwargs):
            calls.append((args, kwargs))
            return cal._serial(*args, **kwargs)

        (table,) = cal._null_tables(st.HC, 20, 15, 100, 4, collect)
        [(args, kwargs)] = calls
        assert kwargs == {} and args[0] == cal.RANK_NULL and args[8] == 100
        expected = mc_null_table(st.HC, 20, 15, 100, 4)
        assert table.key == expected.key
        np.testing.assert_array_equal(table.draws, expected.draws)

    def test_lrt_stream(self, monkeypatch):
        # the LRT's null draws from no stream: a run of the LRT alone derives
        # only its power replicates' streams, (seed, 201, k)
        from mixdetect import ScenarioConfig, run_power_grid

        prefixes = []
        seed_words = cal._seed_words
        monkeypatch.setattr(cal, "_seed_words", lambda prefix, *a: prefixes.append(list(prefix))
                            or seed_words(prefix, *a))
        run_power_grid(ScenarioConfig(model=NORMAL, m=60, n=60, regime="dense", beta=0.2,
                                      grid=[0.3, 0.5], tests=[st.LRT], power_reps=5,
                                      calib_reps=100, master_seed=4))
        assert prefixes == [[4, cal.TAG_POWER]]

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


def craft_streams(monkeypatch, tied, wrap):
    """Make each stream (prefix, k) for which tied(prefix, k) holds draw
    through wrap(rng); returns the list of the prefixes derived."""
    streams, prefixes = cal._streams, []

    def crafted(prefix, k0, k1):
        prefixes.append(list(prefix))
        for k, rng in zip(range(k0, k1), streams(prefix, k0, k1)):
            yield wrap(rng) if tied(list(prefix), k) else rng

    monkeypatch.setattr(cal, "_streams", crafted)
    return prefixes


class TiedData:
    """A stream whose data draw (X of m, then the Y-base of n, from N(0, 1))
    makes X's first value equal the base's first value raised by mu, and
    raises at least that value: K >= 1.  draws gets each (x, base, K)."""

    def __init__(self, rng, m, n, mu, draws):
        self.rng, self.m, self.n, self.mu, self.draws = rng, m, n, mu, draws
        self.base = None

    def standard_normal(self, count):
        if self.base is None:
            x, self.base = self.rng.standard_normal(self.m), self.rng.standard_normal(self.n)
            x[0] = self.base[0] + self.mu
            self.draws.append([x, self.base])
            return x
        return self.base

    def binomial(self, n, p):
        k = max(1, self.rng.binomial(n, p))
        self.draws[-1].append(k)
        return k


def tied_points(x, base, k, alts):
    """The alternatives at which the pooled sample of x and base, its first k
    values raised by the alternative's mu, holds a tie."""
    tied = []
    for a in alts:
        y = base.copy()
        y[:k] += a.mu
        try:
            st.pooled_indicator(x, y)
        except st.TiesError:
            tied.append(a)
    return tied


def persistent_ties(stream):
    """The whole message of a TiesError after every retry of stream tied."""
    return (f"^{re.escape(f'replicate {stream[-1]} drew ties from its stream {stream}')} "
            f"and from each of the 99 retry streams "
            f"{re.escape(str([*stream, 1]))} to {re.escape(str([*stream, 99]))}$")


class TestDataRetry:
    """A tied data replicate is redrawn from the stream (*parts, retry)."""

    parts = [9, cal.TAG_POWER, 3]  # replicate 3
    alt = MixtureAlt(epsilon=0.2, mu=1.5)

    def draw(self):
        (row,) = cal.replicate_rows(cal.DATA, [st.HC, st.LRT], NORMAL, self.alt, [self.alt],
                                    40, 30, self.parts[:2], 3, 4).tolist()
        return row

    def tie(self, monkeypatch, retries):
        """Make replicate 3's first draw and its first `retries` retries tie;
        returns the draws made and the prefixes derived."""
        draws = []
        prefixes = craft_streams(
            monkeypatch,
            lambda prefix, k: [*prefix, k] == self.parts or prefix == self.parts and k <= retries,
            lambda rng: TiedData(rng, 40, 30, self.alt.mu, draws),
        )
        return draws, prefixes

    def test_tie_restarts_from_the_retry_stream(self, monkeypatch):
        draws, _ = self.tie(monkeypatch, 0)
        got = self.draw()
        [(x, base, k)] = draws
        assert tied_points(x, base, k, [self.alt]) == [self.alt]
        rng = np.random.default_rng(np.random.SeedSequence([*self.parts, 1]))
        x, y = gg_sample(40, NORMAL, rng), mixture_sample(30, NORMAL, self.alt, rng)
        xi = st.pooled_indicator(x, y)
        assert got == [st.hc_from_indicator(xi, 40, 30), st.lrt_stat(y, NORMAL, self.alt)]

    def test_retry_streams_derived_only_at_a_tie(self, monkeypatch):
        seed_words, prefixes = cal._seed_words, []

        def record(prefix, k0, k1):
            prefixes.append((list(prefix), k0, k1))
            return seed_words(prefix, k0, k1)

        monkeypatch.setattr(cal, "_seed_words", record)
        self.draw()
        assert prefixes == [(self.parts[:2], 3, 4)]
        self.tie(monkeypatch, 0)
        prefixes.clear()
        self.draw()
        assert prefixes == [(self.parts[:2], 3, 4), (self.parts, 1, 100)]

    def test_persistent_ties_raise(self, monkeypatch):
        draws, _ = self.tie(monkeypatch, 99)
        with pytest.raises(st.TiesError, match=persistent_ties(self.parts)) as exc:
            self.draw()
        assert exc.value.value is None
        assert len(draws) == 100

    @pytest.mark.parametrize("g", [0, 2])
    def test_tie_at_one_grid_point_redraws_every_point(self, monkeypatch, g):
        # replicate 3 of 6 ties at grid point g alone; every point of it comes
        # from (*parts, 3, 1), and no other replicate derives retry streams
        parts, m, n = [9, cal.TAG_POWER], 40, 30
        alts = [MixtureAlt(0.2, mu) for mu in (0.5, 1.25, 2.0)]
        tests = list(st.ALL_STATISTICS)
        clean = cal.replicate_rows(cal.DATA, tests, NORMAL, alts[0], alts, m, n, parts, 0, 6)
        retry = cal.replicate_rows(cal.DATA, tests, NORMAL, alts[0], alts, m, n,
                                   [*parts, 3], 1, 2)
        draws = []
        prefixes = craft_streams(monkeypatch, lambda prefix, k: [*prefix, k] == [*parts, 3],
                                 lambda rng: TiedData(rng, m, n, alts[g].mu, draws))
        got = cal.replicate_rows(cal.DATA, tests, NORMAL, alts[0], alts, m, n, parts, 0, 6)
        [(x, base, k)] = draws
        assert tied_points(x, base, k, alts) == [alts[g]]
        assert prefixes == [parts, [*parts, 3]]
        assert got[3].tobytes() == retry[0].tobytes()
        assert np.delete(got, 3, axis=0).tobytes() == np.delete(clean, 3, axis=0).tobytes()
        monkeypatch.undo()
        width = len(tests)
        for h, a in enumerate(alts):
            point = cal.replicate_rows(cal.DATA, tests, NORMAL, a, [a], m, n, [*parts, 3], 1, 2)
            assert got[3, h * width:(h + 1) * width].tobytes() == point[0].tobytes()


@pytest.mark.parametrize("alts", [[], [MixtureAlt(0.2, 1.0), MixtureAlt(0.1, 2.0)]])
def test_data_alternatives_share_one_epsilon(monkeypatch, alts):
    # one K ~ Binomial(n, eps) serves every alternative, so a DATA replicate
    # drawn from alt refuses alternatives of another eps, or none, unsimulated
    monkeypatch.setattr(cal, "_streams", None)
    message = "^DATA drawn from alt needs alternatives, each with alt's epsilon$"
    with pytest.raises(ValueError, match=message):
        cal.replicate_rows(cal.DATA, [st.HC], NORMAL, MixtureAlt(0.2, 1.0), alts, 5, 5,
                           [1, cal.TAG_POWER], 0, 3)


class TiedKeys:
    """A stream whose key draws tie the m-th smallest key with the next."""

    def __init__(self, rng, m, draws):
        self.rng, self.m, self.draws = rng, m, draws

    def random(self, out):
        self.rng.random(out=out)
        order = np.argsort(out)
        out[order[self.m]] = out[order[self.m - 1]]
        self.draws.append(out.copy())


class TestRankRetry:
    """A rank-null replicate whose m-th smallest key is tied is redrawn from
    the stream (*parts, k, retry)."""

    parts, m, n = [9, cal.TAG_CALIB_RANK], 7, 5

    @staticmethod
    def expected(entropy, m, n):
        """HC on the X-labels at the m smallest of the stream's m + n keys."""
        xi = np.zeros(m + n, dtype=np.int64)
        xi[np.argsort(numpy_stream(entropy).random(m + n))[:m]] = 1
        return st.hc_from_indicator(xi, m, n)

    def tie(self, monkeypatch, tied):
        """Make the streams for which tied(prefix, k) holds draw tied keys;
        returns the list of their draws and that of the prefixes derived."""
        draws = []
        return draws, craft_streams(monkeypatch, tied, lambda rng: TiedKeys(rng, self.m, draws))

    def test_tie_redrawn_from_the_retry_stream(self, monkeypatch):
        # replicate 4 of a 7-row block ties; only it is redrawn, from (*parts, 4, 1)
        m, n = self.m, self.n
        draws, prefixes = self.tie(monkeypatch, lambda prefix, k: prefix == self.parts and k == 4)
        got = cal.replicate_rows(cal.RANK_NULL, [st.HC], None, None, (), m, n, self.parts, 0, 7)
        [keys] = draws
        assert np.sum(keys <= np.sort(keys)[m - 1]) == m + 1
        assert prefixes == [self.parts, [*self.parts, 4]]
        expected = [self.expected([*self.parts, k], m, n) for k in range(7)]
        expected[4] = self.expected([*self.parts, 4, 1], m, n)
        assert got[:, 0].tolist() == expected

    def test_persistent_ties_raise(self, monkeypatch):
        # replicate 2 and each of its 99 retry streams tie
        draws, _ = self.tie(monkeypatch, lambda prefix, k: [*prefix, k][:3] == [*self.parts, 2])
        with pytest.raises(st.TiesError, match=persistent_ties([*self.parts, 2])) as exc:
            cal.replicate_rows(cal.RANK_NULL, [st.HC], None, None, (), self.m, self.n,
                               self.parts, 0, 5)
        assert exc.value.value is None
        assert len(draws) == 100


class TestBlockRows:
    """replicate_rows evaluates each statistic once per block of replicates,
    and every row is bit for bit the value its replicate gives alone (in a
    block of one row)."""

    GAMMAS = [0.7, 1.0, 2.0, 3.0]
    RANK = [st.HC, st.WILCOXON, st.KS, st.TAILRUN]

    @staticmethod
    def record(monkeypatch, name, seen):
        """Wrap the kernel `name` of statistics; seen gets a copy of each
        block: its first argument, or the running X-counts of a DATA block,
        which a rank kernel is given in place of indicators."""
        kernel = getattr(st, name)

        def wrapper(block, *args):
            seen.append((args[2] if block is None else block).copy())
            return kernel(block, *args)

        monkeypatch.setattr(st, name, wrapper)

    @staticmethod
    def count_cumsum(monkeypatch, counts):
        """Wrap np.cumsum; counts gets the shape of each array it is given."""
        cumsum = np.cumsum

        def counting(*args, **kwargs):
            counts.append(args[0].shape)
            return cumsum(*args, **kwargs)

        monkeypatch.setattr(np, "cumsum", counting)

    @staticmethod
    def alone(kind, tests, model, alt, alts, m, n, parts, k0, k1):
        return np.concatenate([
            cal.replicate_rows(kind, tests, model, alt, alts, m, n, parts, k, k + 1)
            for k in range(k0, k1)
        ])

    def check(self, monkeypatch, kernel, rows, kind, tests, model, alt, alts, m, n, k0, k1):
        """The block rows kernel saw, then every row against its replicate alone."""
        parts = [23, cal.TAG_POWER, 1]
        seen = []
        with monkeypatch.context() as mp:
            self.record(mp, kernel, seen)
            got = cal.replicate_rows(kind, tests, model, alt, alts, m, n, parts, k0, k1)
        assert [len(b) for b in seen] == rows
        expected = self.alone(kind, tests, model, alt, alts, m, n, parts, k0, k1)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        return seen

    def test_rank_null(self, monkeypatch):
        # 2**14 // (1200 + 800) = 8 rows a block
        self.check(monkeypatch, "hc_from_indicator", [8, 8, 4], cal.RANK_NULL,
                   self.RANK, None, None, (), 1200, 800, 5, 25)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_lrt_null(self, monkeypatch, gamma):
        # a null block scored at three alternatives at n = 700 (each row one
        # group per alternative: HC, then the LRT there): 2**14 // 2100 = 7
        # rows a block
        alts = [MixtureAlt(0.01, 0.5), MixtureAlt(0.1, 2.0), MixtureAlt(1e-15, 3.0)]
        self.check(monkeypatch, "lrt_stats", [7, 7, 3], cal.DATA, [st.HC, st.LRT],
                   GGParams(gamma, 0.8), None, alts, 900, 700, 0, 17)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_data(self, monkeypatch, gamma):
        # 2**14 // (1200 + 800) = 8 rows a block, scored at each of two
        # alternatives in turn
        alts = [MixtureAlt(0.1, 1.5), MixtureAlt(0.1, 4.0)]
        self.check(monkeypatch, "ks_from_indicator", [8, 8, 8, 8, 4, 4], cal.DATA,
                   [st.LRT, *self.RANK], GGParams(gamma), alts[0], alts, 1200, 800, 0, 20)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_overflow_in_some_rows(self, monkeypatch, gamma):
        # lr at y = mu is (mu/scale)^gamma / gamma, past _EXP_SAFE here, so a
        # replicate with a shifted value takes the overflow branch; with
        # eps = 0.0014 about half of the 500-value Y-samples have none
        p = GGParams(gamma)
        mu = 1.2 * (700.0 * gamma) ** (1.0 / gamma)
        alt = MixtureAlt(0.0014, mu)
        seen = self.check(monkeypatch, "lrt_stats", [8, 8, 4], cal.DATA, [st.LRT, st.HC],
                          p, alt, [alt], 1500, 500, 0, 20)
        mixed = []
        for y in seen:
            z = np.abs(y / p.scale)
            lr_max = ((z ** gamma - np.abs(z - mu / p.scale) ** gamma) / gamma).max(axis=1)
            mixed.append(0 < np.sum(lr_max > st._EXP_SAFE) < len(y))
        assert any(mixed)

    def test_above_the_budget_one_row_blocks(self, monkeypatch):
        # m + n = 16400 > 2**14
        self.check(monkeypatch, "wilcoxon_from_indicator", [1, 1, 1], cal.RANK_NULL,
                   self.RANK, None, None, (), 8200, 8200, 0, 3)
        self.check(monkeypatch, "lrt_stats", [1, 1], cal.DATA, [st.LRT, st.TAILRUN],
                   NORMAL, None, [MixtureAlt(0.1, 1.0)], 8200, 8200, 0, 2)

    @pytest.mark.parametrize("tests", [[st.HC], RANK], ids=["hc", "rank"])
    @pytest.mark.parametrize("kind", [cal.RANK_NULL, cal.DATA])
    @pytest.mark.parametrize("m, n, k1, blocks", [
        (1200, 800, 20, 3),  # 8 rows a block
        (1, 30, 4, 1),
        (30, 1, 4, 1),
        (8200, 8200, 2, 2),  # m + n above the budget: one row a block
    ])
    def test_one_count_per_block(self, monkeypatch, tests, kind, m, n, k1, blocks):
        """The running X-count is taken once per block, whatever rank tests
        are selected, and each value is its kernel's on that row's indicator
        alone, bit for bit.  A rank-null block's count is np.cumsum of its
        indicators; a DATA block takes no cumulative sum of a block, only
        one per replicate, over its unraised values, and its counts are
        those of its replicates' pooled indicators."""
        alt, parts = MixtureAlt(0.1, 1.5), [29, cal.TAG_POWER, 3]
        seen, counts = [], []
        with monkeypatch.context() as mp:
            self.record(mp, cal.STATISTICS[tests[0]].kernel, seen)
            self.count_cumsum(mp, counts)
            got = cal.replicate_rows(kind, tests, NORMAL, alt, [alt], m, n, parts, 0, k1)
        assert len(seen) == blocks
        if kind == cal.RANK_NULL:
            assert counts == [b.shape for b in seen]
            indicators = np.concatenate(seen)
        else:
            assert len(counts) == k1 and all(len(shape) == 1 for shape in counts)
            indicators = np.array([data_indicator(NORMAL, alt, m, n, [*parts, k])
                                   for k in range(k1)])
            assert np.concatenate(seen).tobytes() == np.cumsum(indicators, axis=-1).tobytes()
        kernels = [getattr(st, cal.STATISTICS[t].kernel) for t in tests]
        expected = [[f(xi, m, n) for f in kernels] for xi in indicators]
        assert got.tobytes() == np.array(expected, dtype=float).tobytes()

    # what the benchmark hooks in `statistics`: the rank kernels and the LRT
    HOOKED = [cal.STATISTICS[t].kernel or "lrt_stats" for t in st.ALL_STATISTICS]

    def test_wrappers_see_every_block(self, monkeypatch):
        # each hooked function is called once per block and alternative
        alts = [MixtureAlt(0.1, mu) for mu in (0.5, 1.5, 2.5)]
        seen = {name: [] for name in self.HOOKED}
        with monkeypatch.context() as mp:
            for name in self.HOOKED:
                self.record(mp, name, seen[name])
            cal.replicate_rows(cal.DATA, list(st.ALL_STATISTICS), NORMAL, alts[0], alts,
                               1200, 800, [23, cal.TAG_POWER, 1], 0, 20)
        # 2**14 // (1200 + 800) = 8 rows a block
        rows = [8] * 3 + [8] * 3 + [4] * 3
        assert {k: [len(b) for b in v] for k, v in seen.items()} == {k: rows for k in seen}

    def test_one_count_per_test_call(self, monkeypatch, tmp_path, capsys):
        """mixdetect test scores its one sample as one block: one running
        X-count, read by every rank kernel, and one lrt_stats call; the LRT's
        null is lrt_null's, whose one cumulative sum is over its lattice."""
        from mixdetect.cli import main

        m, n = 70, 50
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(m), rng.standard_normal(n)
        (tmp_path / "x.txt").write_text("\n".join(map(repr, x.tolist())))
        (tmp_path / "y.txt").write_text("\n".join(map(repr, y.tolist())))
        # the HC table comes from a file, so the call simulates no rank table
        table = save_null_table(mc_null_table(st.HC, m, n, 100, master_seed=0), tmp_path / "hc")
        argv = ["test", "--x", str(tmp_path / "x.txt"), "--y", str(tmp_path / "y.txt"),
                "--tests", "all", "--epsilon", "0.1", "--mu", "1.5", "--reps", "100",
                "--table", str(table)]
        seen, counts = {name: [] for name in self.HOOKED}, []
        with monkeypatch.context() as mp:
            for name in self.HOOKED:
                self.record(mp, name, seen[name])
            self.count_cumsum(mp, counts)
            assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        # the block's count, then lrt_null's one sum over its 1-D window
        assert counts[0] == (1, m + n) and [len(c) for c in counts[1:]] == [1]
        xi = st.pooled_indicator(x, y)
        assert [b.tobytes() for b in seen.pop("lrt_stats")] == [y[None].tobytes()]
        for name, blocks in seen.items():
            assert [b.tobytes() for b in blocks] == [xi[None].tobytes()]
        for stat in cal.STATISTICS.values():
            if stat.rank:
                value = float(getattr(st, stat.kernel)(xi, m, n))
                assert report["tests"][stat.name]["statistic"] == value

    def test_no_count_without_a_rank_test(self, monkeypatch):
        # no running X-count is built, by a cumulative sum or a repeat
        alts = [MixtureAlt(0.1, 1.5), MixtureAlt(0.1, 2.5)]
        args = (NORMAL, alts[0], alts, 50, 40, [29, cal.TAG_POWER, 3], 0, 5)
        with monkeypatch.context() as mp:
            for name in ("cumsum", "repeat", "bincount"):
                mp.setattr(np, name, None)
            got = cal.replicate_rows(cal.DATA, [st.LRT], *args)
        assert got.shape == (5, 2)
        with_rank = cal.replicate_rows(cal.DATA, [st.LRT, st.TAILRUN], *args)
        assert got.tobytes() == with_rank[:, [0, 2]].tobytes()

    def test_no_y_sample_without_the_lrt(self, monkeypatch):
        # with each Y-base replaced by an object numpy cannot read, a pass
        # of the rank tests is unchanged, and one with the LRT fails
        alts = [MixtureAlt(0.1, 1.5), MixtureAlt(0.1, 2.5)]
        args = (NORMAL, alts[0], alts, 50, 40, [29, cal.TAG_POWER, 3], 0, 5)
        expected = cal.replicate_rows(cal.DATA, self.RANK, *args)
        draw = cal._draw_data

        def no_base(*draw_args):
            return (object(), *draw(*draw_args)[1:])

        with monkeypatch.context() as mp:
            mp.setattr(cal, "_draw_data", no_base)
            assert cal.replicate_rows(cal.DATA, self.RANK, *args).tobytes() == expected.tobytes()
            with pytest.raises(TypeError):
                cal.replicate_rows(cal.DATA, [st.LRT, *self.RANK], *args)

    def test_tie_retry_inside_a_block(self, monkeypatch):
        # the first draw of replicate 4 ties; it is redrawn from (*parts, 4, 1)
        parts, alt, m, n = [7, cal.TAG_POWER], MixtureAlt(0.2, 1.5), 40, 30
        tests = [st.HC, st.LRT]
        seen, draws = [], []
        with monkeypatch.context() as mp:
            craft_streams(mp, lambda prefix, k: [*prefix, k] == [*parts, 4],
                          lambda rng: TiedData(rng, m, n, alt.mu, draws))
            self.record(mp, "hc_from_indicator", seen)
            got = cal.replicate_rows(cal.DATA, tests, NORMAL, alt, [alt], m, n, parts, 0, 9)
        assert len(draws) == 1 and [len(b) for b in seen] == [9]
        rng = np.random.default_rng(np.random.SeedSequence([*parts, 4, 1]))
        x, y = gg_sample(m, NORMAL, rng), mixture_sample(n, NORMAL, alt, rng)
        xi = st.pooled_indicator(x, y)
        # the retried row's running X-count is its redraw's
        assert seen[0][4].tolist() == np.cumsum(xi).tolist()
        expected = self.alone(cal.DATA, tests, NORMAL, alt, [alt], m, n, parts, 0, 9)
        expected[4] = [st.hc_from_indicator(xi, m, n), st.lrt_stat(y, NORMAL, alt)]
        assert got.tobytes() == expected.tobytes()
        assert got[4].tobytes() != self.alone(
            cal.DATA, tests, NORMAL, alt, [alt], m, n, parts, 4, 5).tobytes()


def numpy_stream(entropy):
    """The oracle: numpy's own seeding of the stream SeedSequence(entropy)."""
    return np.random.default_rng(np.random.SeedSequence(entropy))


def data_indicator(model, alt, m, n, stream):
    """The pooled X-origin indicator of a DATA replicate's first draw from
    stream at alt: X drawn by gg_sample, then Y by mixture_sample, on the
    same stream."""
    rng = numpy_stream(stream)
    x = gg_sample(m, model, rng)
    return st.pooled_indicator(x, mixture_sample(n, model, alt, rng))


class TestDataCounts:
    """_data_counts gives a DATA block's running X-counts at each shift, the
    integers np.cumsum gives on the pooled indicators there."""

    @staticmethod
    def counts(rows, m, n):
        """_data_counts on hand-built draws: per row its unraised values'
        labels and, per shift, its raised values' places."""
        draws = []
        for labels, places in rows:
            places = np.array(places, dtype=np.intp).reshape(len(places), -1)
            draws.append((None, places.shape[1], np.array(labels, dtype=bool), places))
        return [v.copy() for v in cal._data_counts(draws, m, n)]

    @pytest.mark.parametrize("rows, indicators", [
        # K = 0: the count of the unraised values alone
        ([([1, 0, 0, 1, 1], [[]])], [[[1, 0, 0, 1, 1]]]),
        # three raised values at one place, after two unraised values
        ([([1, 0, 1, 1], [[2, 2, 2]])], [[[1, 0, 0, 0, 0, 1, 1]]]),
        # raised values below every unraised value
        ([([1, 1, 0], [[0, 0]])], [[[0, 0, 1, 1, 0]]]),
        # two shifts: at the second, each raised value has passed an X
        ([([1, 0, 1], [[0, 2], [1, 3]])], [[[0, 1, 0, 0, 1]], [[1, 0, 0, 1, 0]]]),
        # a block of two rows end to end, one with K = 1 and one with K = 0
        ([([1, 0, 1, 1], [[3]]), ([1, 1, 0, 1, 0], [[]])],
         [[[1, 0, 1, 0, 1], [1, 1, 0, 1, 0]]]),
    ], ids=["k0", "one-place", "below", "two-shifts", "block"])
    def test_hand_built(self, rows, indicators):
        m = sum(rows[0][0])
        n = len(indicators[0][0]) - m
        got = self.counts(rows, m, n)
        assert [v.tolist() for v in got] == [np.cumsum(xi, axis=-1).tolist() for xi in indicators]

    def test_above_every_value_lengthens_the_tail_run(self):
        # Y, X, X, Y and then the K = 3 raised values on top
        (v,) = self.counts([([0, 1, 1, 0], [[4, 4, 4]])], 2, 5)
        assert v[0].tolist() == np.cumsum([0, 1, 1, 0, 0, 0, 0]).tolist()
        assert st.tailrun_from_indicator(None, 2, 5, v[0]) == 1 + 3

    def test_no_shift(self):
        # a null draw (alt None) raises nothing and gives one count
        labels = np.array([0, 1, 1, 0, 1], dtype=bool)
        got = list(cal._data_counts([(None, 0, labels, np.empty((0, 0), np.intp))], 3, 2))
        assert [v.tolist() for v in got] == [[np.cumsum(labels).tolist()]]

    @pytest.mark.parametrize("m, n", [(60, 40), (50, 50)])
    def test_random_draws(self, m, n):
        parts = [11, cal.TAG_POWER]
        alts = [MixtureAlt(0.3, mu) for mu in (0.2, 1.0, 3.0)]
        draws = [cal._draw_data(NORMAL, alts[0], [a.mu for a in alts], m, n, [*parts, k],
                                numpy_stream([*parts, k])) for k in range(6)]
        assert len({k for _, k, _, _ in draws}) > 1
        got = [v.copy() for v in cal._data_counts(draws, m, n)]
        assert len(got) == len(alts)
        for g, v in enumerate(got):
            expected = [np.cumsum(data_indicator(NORMAL, alts[g], m, n, [*parts, k]))
                        for k in range(6)]
            assert v.tolist() == np.array(expected).tolist()

    def test_tied_draw_redrawn_from_the_retry_stream(self):
        stream, alt, m, n = [9, cal.TAG_POWER, 3], MixtureAlt(0.2, 1.5), 40, 30
        draws = []
        tied = TiedData(numpy_stream(stream), m, n, alt.mu, draws)
        draw = cal._draw_data(NORMAL, alt, [alt.mu], m, n, stream, tied)
        [(x, base, k)] = draws
        assert tied_points(x, base, k, [alt]) == [alt]
        (v,) = cal._data_counts([draw], m, n)
        xi = data_indicator(NORMAL, alt, m, n, [*stream, 1])
        assert v[0].tolist() == np.cumsum(xi).tolist()


def first_draws(rng):
    return [
        rng.permutation(np.repeat(np.array([1, 0], dtype=np.int64), [7, 5])),
        rng.standard_normal(5),
        rng.gamma(0.5, size=5),
        rng.integers(0, 2, size=5),
        rng.random(5),
        rng.integers(0, 2**20, size=3, dtype=np.uint32),  # buffered 32-bit halves
        rng.random(3, dtype=np.float32),
    ]


class TestStreams:
    """Each batch's seed words and generators equal numpy's SeedSequence seeding."""

    PREFIXES = [
        [5, cal.TAG_CALIB_RANK],  # 3 words: a null table
        [5, cal.TAG_POWER, 3],  # 4 words: a power point
        [5, cal.TAG_POWER, 3, 17],  # 5 words: a tie retry of replicate 17
        [2**40 + 3, cal.TAG_NULL],  # a two-word master seed
        [2**70 + 3, cal.TAG_POWER, 9, 4],  # a three-word one, 7 words in all
        [0],
        [],
    ]

    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("k0, k1", [(0, 4), (2**32 - 3, 2**32), (1020, 1030)])
    def test_seed_words_equal_numpy(self, prefix, k0, k1):
        words = cal._seed_words(prefix, k0, k1)
        # PCG64 reads each row's memory as it is
        assert words.shape == (k1 - k0, 4) and words.dtype == np.uint64
        assert words.flags.c_contiguous
        for k, row in zip(range(k0, k1), words):
            want = np.random.SeedSequence([*prefix, k]).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, want)

    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize("k0, k1", [(0, 4), (2**32 - 3, 2**32)])
    def test_states_and_draws_equal_numpy(self, prefix, k0, k1):
        rngs = list(cal._streams(prefix, k0, k1))
        assert len(rngs) == k1 - k0
        for k, rng in zip(range(k0, k1), rngs):
            oracle = numpy_stream([*prefix, k])
            assert rng.bit_generator.state == oracle.bit_generator.state
            for got, want in zip(first_draws(rng), first_draws(oracle)):
                np.testing.assert_array_equal(got, want)

    def test_stream_set_after_a_buffered_half(self):
        # a uint32 draw leaves half of a 64-bit output buffered; the next
        # stream must not start from it
        streams = cal._streams([8, cal.TAG_CALIB_RANK], 0, 2)
        rng = next(streams)
        rng.integers(0, 2**20, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        rng = next(streams)
        for got, want in zip(first_draws(rng), first_draws(numpy_stream([8, 101, 1]))):
            np.testing.assert_array_equal(got, want)

    def test_a_taken_stream_keeps_its_own(self):
        # a generator already taken keeps drawing its own stream after the
        # next one is taken
        streams = cal._streams([8, cal.TAG_CALIB_RANK], 0, 2)
        first = next(streams)
        head = first.standard_normal(3)
        second = next(streams)
        oracle = numpy_stream([8, cal.TAG_CALIB_RANK, 0])
        np.testing.assert_array_equal(head, oracle.standard_normal(3))
        for got, want in zip(first_draws(first), first_draws(oracle)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(first_draws(second), first_draws(numpy_stream([8, 101, 1]))):
            np.testing.assert_array_equal(got, want)

    def test_batches_longer_than_a_chunk(self):
        # states are derived 1024 at a time; the seam must not show
        rngs = cal._streams([6, cal.TAG_CALIB_RANK], 1000, 2100)
        for k, rng in zip(range(1000, 2100), rngs):
            want = numpy_stream([6, cal.TAG_CALIB_RANK, k]).bit_generator.state
            assert rng.bit_generator.state == want
        assert next(rngs, None) is None

    @pytest.mark.parametrize("call", [
        lambda: next(cal._streams([1], 2**32, 2**32 + 1)),
        lambda: next(cal._streams([1], 0, 2**32 + 1)),
        lambda: next(cal._streams([1], -1, 2)),
        lambda: next(cal._streams([1, cal.TAG_POWER, 0], 2**32 - 1, 2**32 + 1)),
        lambda: next(cal._streams([1, cal.TAG_POWER, 2**32, 5], 1, 2**32 + 100)),
    ])
    def test_index_of_two_words_refused(self, call):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*32\)"):
            call()

    def test_no_replicate_builds_a_seed_sequence(self, monkeypatch):
        from mixdetect import ScenarioConfig, run_power_grid

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        config = ScenarioConfig(
            model=NORMAL, m=60, n=50, regime="dense", beta=0.2, grid=[0.3, 0.5],
            power_reps=5, calib_reps=100, master_seed=2**40 + 3,
        )
        curve = run_power_grid(config)
        assert [pt.grid_value for pt in curve.points] == [0.3, 0.5]
        mc_null_table(st.HC, 20, 15, 100, master_seed=1)


class TestLatticeNull:
    """lrt_null: the LRT's null law by one lattice convolution."""

    NORMAL_300 = (NORMAL, MixtureAlt(300 ** -0.6, math.sqrt(0.8 * math.log(300))))
    DEXP = GGParams.double_exponential_unit_variance()
    @staticmethod
    def halving_tolerance(n):
        """The most that halving the lattice step may move a p-value at n.

        The p-value is read at the first lattice point at or above the
        value, so it can move by one step's mass, at most about
        0.4 / (_LRT_STEPS * sqrt(n)) for a sum near normal; halving the step
        moved none by more than 0.12 / (_LRT_STEPS * sqrt(n)) here."""
        return 0.2 / (cal._LRT_STEPS * math.sqrt(n))

    @staticmethod
    def quadrature_mean(p, alt):
        """E[log1p(eps/(1-eps) * f(Y - mu)/f(Y))], Y ~ F, by quadrature, with
        the log density ratio in closed form."""
        from scipy import integrate

        from mixdetect import gg_pdf

        odds, g, c = alt.epsilon / (1 - alt.epsilon), p.gamma, alt.mu / p.scale

        def term(y):
            z = y / p.scale
            lr = (abs(z) ** g - abs(z - c) ** g) / g
            return math.log1p(odds * math.exp(lr)) * gg_pdf(y, p)

        lim = (12.0 if g == 2.0 else 45.0) * p.scale
        value, _ = integrate.quad(term, -lim, lim, points=[0.0, alt.mu], limit=500,
                                  epsabs=1e-15, epsrel=1e-12)
        return value

    @staticmethod
    def monte_carlo(p, alt, n, reps, seed):
        rng = np.random.default_rng(seed)
        return np.concatenate([
            st.lrt_stats(gg_sample(n * 1000, p, rng).reshape(1000, n), p, [alt])[:, 0]
            for _ in range(reps // 1000)
        ])

    @pytest.mark.parametrize("p, alt, n", [
        (NORMAL, MixtureAlt(0.05, 1.5), 300),
        (NORMAL, MixtureAlt(0.004, 3.0), 2000),
        (DEXP, MixtureAlt(0.05, 1.5), 300),
        (DEXP, MixtureAlt(0.2, 0.3), 50),
    ], ids=["normal", "normal-sparse", "dexp", "dexp-dense"])
    def test_term_mean_by_quadrature(self, p, alt, n):
        # the cells' mean, which the mean-preserving split keeps, and the
        # mean of the n-fold sum's pmf over n, both against quadrature
        mass, terms = cal._lattice_term(p, alt, n)
        mean = mass @ terms
        sd = math.sqrt(mass @ (terms - mean) ** 2)
        expected = self.quadrature_mean(p, alt)
        null = cal.lrt_null(p, alt, n)
        summed = null.h * (null.start + null.sf[1:].sum()) / n
        assert abs(mean - expected) < 1e-5 * sd
        assert abs(summed - expected) < 1e-5 * sd

    @pytest.mark.parametrize("p, alt, n", [
        (*NORMAL_300, 300), (NORMAL, MixtureAlt(0.16, 0.3), 2000),
        (DEXP, MixtureAlt(300 ** -0.6, 1.0), 300),
        (GGParams(0.5), MixtureAlt(300 ** -0.6, 1.0), 300),
        (GGParams(0.2), MixtureAlt(0.05, 1.0), 300), (GGParams(0.1), MixtureAlt(0.05, 1.0), 300),
    ], ids=["normal", "normal-dense", "dexp", "gamma-0.5", "gamma-0.2", "gamma-0.1"])
    def test_halving_h(self, monkeypatch, p, alt, n):
        coarse = cal.lrt_null(p, alt, n)
        values = coarse.shift + coarse.h * (coarse.start + np.linspace(0, coarse.sf.size, 4001))
        tolerance = self.halving_tolerance(n)
        monkeypatch.setattr(cal, "_LRT_STEPS", 2 * cal._LRT_STEPS)
        fine = cal.lrt_null(p, alt, n)
        assert fine.h == coarse.h / 2
        moved = np.abs(cal.lattice_pvalues(values, fine) - cal.lattice_pvalues(values, coarse))
        assert moved.max() < tolerance

    @pytest.mark.parametrize("p, alt", [
        NORMAL_300, (DEXP, MixtureAlt(300 ** -0.6, 1.0)), (GGParams(3.0), MixtureAlt(0.1, 1.0)),
        (GGParams(0.5), MixtureAlt(300 ** -0.6, 1.0)), (GGParams(0.2), MixtureAlt(0.05, 1.0)),
        (GGParams(0.1), MixtureAlt(0.05, 1.0)),
    ], ids=["gamma-2", "gamma-1", "gamma-3", "gamma-0.5", "gamma-0.2", "gamma-0.1"])
    def test_against_monte_carlo(self, p, alt):
        # 40 000 null LRTs at n = 300: at each tail's Monte Carlo quantile the
        # lattice p-value lies within 4 standard errors, plus the mass of the
        # one lattice step that reading it at a lattice point may skip.
        # Below gamma = 1 the term has a cusp at 0 and at mu, where the cells
        # are refined (_lattice_term)
        n, reps = 300, 40_000
        draws = np.sort(self.monte_carlo(p, alt, n, reps, [32, int(p.gamma)]))
        null = cal.lrt_null(p, alt, n)
        for tail in (0.5, 0.1, 0.05, 0.01, 0.001):
            value = draws[int(reps * (1 - tail))]
            observed = np.mean(draws >= value)
            se = math.sqrt(observed * (1 - observed) / reps)
            got, below = cal.lattice_pvalues([value, value - null.h], null)
            assert abs(got - observed) < 4 * se + (below - got), (tail, got, observed)

    @pytest.mark.parametrize("p, alt", [
        (NORMAL, MixtureAlt(0.1, 1.5)), (DEXP, MixtureAlt(0.2, 1.0)),
    ], ids=["gamma-2", "gamma-1"])
    def test_super_uniform(self, p, alt):
        # 50 000 null samples of n = 20: at each level the rejection rate
        # stays within 3 binomial standard errors above it
        n, reps = 20, 50_000
        draws = self.monte_carlo(p, alt, n, reps, [33])
        pvalues = cal.lattice_pvalues(draws, cal.lrt_null(p, alt, n))
        for level in (0.01, 0.05, 0.1):
            rate = np.mean(pvalues <= level)
            assert rate < level + 3 * math.sqrt(level * (1 - level) / reps), (level, rate)

    def test_floor(self, monkeypatch):
        # the smallest p-value is _LRT_FLOOR, over 10 times the most negative
        # mass the inverse transform returned at n = 10**4 and 10**5; the
        # points kept lie strictly between it and 1 - _LRT_FLOOR, but for
        # one at each end, 1 and the floor
        negative = []
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *a: negative.append(
            -np.minimum(irfft(*a), 0).sum()) or irfft(*a))
        for n in (10**4, 10**5):
            for alt in (MixtureAlt(n ** -0.2, n ** -0.1), MixtureAlt(n ** -0.8, 3.0)):
                null = cal.lrt_null(NORMAL, alt, n)
                assert (null.sf[0], null.sf[-1]) == (1.0, cal._LRT_FLOOR)
                inner = null.sf[1:-1]
                assert cal._LRT_FLOOR < inner.min() < inner.max() < 1 - cal._LRT_FLOOR
                top = null.shift + null.h * (null.start + null.sf.size - 1)
                assert cal.lattice_pvalues([top, 1e300], null).tolist() == [cal._LRT_FLOOR] * 2
                assert cal.lattice_pvalues(top - null.h, null) == inner[-1]
        assert 10 * max(negative) < cal._LRT_FLOOR
        assert cal.lattice_pvalues(-1e300, null) == 1.0

    def test_window_widened(self, monkeypatch):
        # at +-1 sd (1024 points at n = 2000) the window holds too much mass
        # at its edges: it is doubled until it does not, and gives the
        # default's p-values
        p, alt, n = NORMAL, MixtureAlt(0.16, 0.3), 2000
        default = cal.lrt_null(p, alt, n)
        values = default.shift + default.h * np.arange(default.start - 2,
                                                       default.start + default.sf.size + 2)
        lengths = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda x: lengths.append(x.size) or rfft(x))
        monkeypatch.setattr(cal, "_LRT_WIDTH", 1)
        widened = cal.lrt_null(p, alt, n)
        assert len(lengths) > 1 and lengths == [1024 * 2**i for i in range(len(lengths))]
        np.testing.assert_allclose(cal.lattice_pvalues(values, widened),
                                   cal.lattice_pvalues(values, default), rtol=0, atol=1e-12)

    def test_window_refused(self, monkeypatch):
        monkeypatch.setattr(cal, "_LRT_MAX_LENGTH", 2**8)
        with pytest.raises(ValueError, match="needs a lattice of more than 256 points$"):
            cal.lrt_null(*self.NORMAL_300, 300)

    def test_tails_beyond_the_cells_refused(self):
        # at gamma = 0.005, F's tails reach past any A the search tries
        with pytest.raises(ValueError, match="^the LRT's null has no lattice at gamma = 0.005: "
                                             "F's tails reach past 5.81e"):
            cal.lrt_null(GGParams(0.005), MixtureAlt(0.1, 1.0), 100)

    def test_small_gamma_cells(self):
        # at gamma = 0.05 one sinh-even cell next to 0 would hold about 10 % of
        # F; on the grid even in asinh(z**gamma / gamma), and refined towards
        # c = mu, no cell holds 0.3 %, and the cells keep F's total mass
        mass, _ = cal._lattice_term(GGParams(0.05), MixtureAlt(0.1, 1.0), 100)
        assert mass.max() < 0.003
        assert abs(mass.sum() - 1.0) < 1e-12

    def test_large_n(self):
        # at n = 10**7, gamma = 1 the cells' total, 1 up to rounding, raised
        # to the n-th power drifted below 1 - _LRT_FLOOR; the term's spectrum
        # is scaled to total 1, so the sum's survival still starts at 1
        alt = MixtureAlt(1e7 ** -0.6, math.sqrt(0.8 * math.log(1e7)))
        null = cal.lrt_null(GGParams(1.0), alt, 10**7)
        assert (null.sf[0], null.sf[-1]) == (1.0, cal._LRT_FLOOR)
        assert 1 - cal._LRT_FLOOR > null.sf[1] > null.sf[2]

    def test_one_point_refused(self, monkeypatch):
        # with a floor above every survival point but the first, no point
        # lies strictly inside: refused, not an empty array
        monkeypatch.setattr(cal, "_LRT_FLOOR", 0.5 - 1e-12)
        with pytest.raises(ValueError, match="its null is one lattice point"):
            cal.lrt_null(*self.NORMAL_300, 300)

    def test_no_spread_refused(self):
        # mu so small that every term rounds to log1p(odds): S is one point
        with pytest.raises(ValueError, match="has no spread under F"):
            cal.lrt_null(NORMAL, MixtureAlt(0.1, 1e-300), 100)

    def test_pvalues_fall_with_the_value(self):
        null = cal.lrt_null(*self.NORMAL_300, 300)
        values = null.shift + null.h * np.linspace(null.start - 5, null.start + null.sf.size, 999)
        p = cal.lattice_pvalues(values, null)
        assert p[0] == 1.0 and p[-1] == cal._LRT_FLOOR
        assert np.all(np.diff(p) <= 0)


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

    @pytest.mark.parametrize("m, n", [(2, 22), (12, 12), (300, 300), (2000, 2000)])
    def test_matches_scipy_ndtr(self, m, n):
        # every U from 0 to mn, or 4001 of them: both tails, down to the clamp
        u = np.unique(np.linspace(0, m * n, 4001).round())
        z = (u - 0.5 - m * n / 2.0) / math.sqrt(m * n * (m + n + 1) / 12.0)
        expected = np.maximum(special.ndtr(-z), cal._TINY_P)
        np.testing.assert_allclose(cal.wilcoxon_pvalues(u, m, n), expected, rtol=1e-13, atol=0)


class TestStatisticTable:
    def test_order_and_methods(self):
        assert tuple(cal.STATISTICS) == st.ALL_STATISTICS
        assert [s.method for s in cal.STATISTICS.values()] == [
            "lattice-convolution", "monte-carlo", "normal-approx", "smirnov-limit", "exact",
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

    @pytest.mark.parametrize("m, n", [(2000, 2000), (1000, 400), (300, 300), (7, 7)])
    def test_pvalue_matches_exact_ratio(self, m, n):
        # P0(L* >= l) = C(n, l) / C(m+n, l), in exact arithmetic
        ls = np.arange(min(n, 200) + 1)
        exact = [float(Fraction(math.comb(n, l), math.comb(m + n, l))) for l in ls.tolist()]
        np.testing.assert_allclose(cal.tailrun_pvalues(ls, m, n), exact, rtol=1e-10, atol=0)

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

    @pytest.mark.parametrize("m, n, seed, message", [
        (5, 5, 1.5, "seed must be an integer, got 1.5"),
        (5.7, 5, 0, "m must be an integer, got 5.7"),
        (5, "5", 0, "n must be an integer, got '5'"),
        (True, 5, 0, "m must be an integer, got True"),
        (0, 5, 0, "m must be at least 1, got 0"),
        (5, 5, -1, "seed must be at least 0, got -1"),
        (5, 5, 2**63, f"seed must be below 2**63, got {2**63}"),
    ])
    def test_hand_built_key_a_file_can_hold(self, m, n, seed, message):
        # a table is refused, not saved under a key that its file would read
        # back as another (seed 1.5 as 1, m 5.7 as 5) or cannot hold (2**63)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NullTable(st.HC, m, n, np.arange(3.0), seed)
        NullTable(st.HC, np.int64(5), 5, np.arange(3.0), np.uint64(2**63 - 1))

    @pytest.mark.parametrize("statistic, message", [
        ("FOO", "unknown statistic 'FOO'"),
        (st.KS, "KS reads no null table: its p-value uses the smirnov-limit null"),
    ])
    def test_statistic_that_reads_no_table_refused(self, tmp_path, statistic, message):
        # such a table was built, saved and loaded back under its key
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NullTable(statistic, 5, 5, np.arange(3.0), 0)
        path = tmp_path / "t.npz"
        np.savez(
            path, version=np.int64(cal.CACHE_FORMAT_VERSION), statistic=np.str_(statistic),
            m=np.int64(5), n=np.int64(5), reps=np.int64(3), seed=np.int64(0),
            draws=np.arange(3.0),
        )
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_null_table(path)

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


class TestLrtTableModel:
    """LRT tables, which carried their model in their key and file, are gone:
    the LRT's null is lrt_null's.  Each check here replaces one on them."""

    def lrt_file(self, path, mu=1.0, model=True):
        """An LRT file as calibrate wrote it up to rng_scheme 9 (format 6)."""
        fields = dict(gamma=np.float64(1.5), scale=np.float64(0.8), epsilon=np.float64(0.1),
                      mu=np.float64(mu)) if model else {}
        np.savez(
            path, version=np.int64(cal.CACHE_FORMAT_VERSION), statistic=np.str_(st.LRT),
            m=np.int64(30), n=np.int64(25), reps=np.int64(3), seed=np.int64(2),
            draws=np.arange(3.0), **fields,
        )
        return path

    def test_round_trip(self, tmp_path):
        # no LRT table can be built, so none is saved
        with pytest.raises(ValueError, match="^LRT reads no null table"):
            NullTable(st.LRT, 30, 25, np.arange(3.0), 2)

    def test_another_mu_is_not_a_match(self, tmp_path):
        # an LRT file is refused, by name, whatever alternative it was for
        for mu in (1.0, 3.0):
            path = self.lrt_file(tmp_path / f"lrt_mu{mu}.npz", mu)
            message = (f"{path}: LRT reads no null table: its p-value uses the "
                       "lattice-convolution null")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_null_table(path)

    def test_model_only_on_lrt_tables(self):
        # no table carries a model
        with pytest.raises(TypeError):
            NullTable(st.HC, 5, 5, np.arange(3.0), 0, model=(NORMAL, MixtureAlt(0.1, 1.0)))
        assert [f[0] for f in cal._KEY_FIELDS] == ["statistic", "m", "n", "reps", "seed"]

    def test_cache_key_names_the_model(self):
        # a file name holds the five fields of a table's key, and no model
        assert cal.cache_key(st.HC, 1000, 1000, 4000, 0) == "HC_m1000_n1000_r4000_s0.npz"
        with pytest.raises(TypeError):
            cal.cache_key(st.HC, 1000, 1000, 4000, 0, (NORMAL, MixtureAlt(0.1, 1.0)))

    def test_lrt_file_without_model_refused(self, tmp_path):
        path = self.lrt_file(tmp_path / "lrt.npz", model=False)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: LRT reads no null table"):
            load_null_table(path)


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

    def test_rejects_format_3(self, tmp_path):
        # format 3 files carry no model; an HC file of format 3 is refused too,
        # and so is one of format 5, which holds the label shuffles of rng_scheme 7
        assert cal.CACHE_FORMAT_VERSION == 6
        for version in (3, 5):
            path = self.write(tmp_path / f"v{version}.npz", [1.0, 2.0], version=version)
            with pytest.raises(ValueError, match=f"version {version}"):
                load_null_table(path)

    @pytest.mark.filterwarnings("error")
    def test_truncated_file_closes_its_handle(self, tmp_path):
        # zipfile refuses the file; an unclosed handle would warn on collection
        path = self.write(tmp_path / "cut.npz", [1.0, 2.0])
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ValueError, match="not a null-table file"):
            load_null_table(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("damage", ["empty", "npy", "version", "m", "draws",
                                        "statistic", "n", "reps", "seed"])
    def test_rejects_a_file_that_is_no_table(self, tmp_path, damage):
        # numpy raises EOFError on an empty file and TypeError on the others;
        # a key field of another dtype is refused, where int() read n = 5.2
        # as 5 and the file passed for a table of another key
        path = self.write(tmp_path / "odd.npz", [1.0, 2.0, 3.0])
        if damage == "empty":
            path.write_bytes(b"")
        elif damage == "npy":
            # a bare array under the .npz name
            with open(path, "wb") as f:
                np.save(f, np.arange(3.0))
        else:
            with np.load(path) as data:
                fields = dict(data)
            fields[damage] = {"version": np.array([4, 4]), "m": np.array([5, 5]),
                              "draws": np.array(["a", "b", "c"]), "statistic": np.bytes_(b"HC"),
                              "n": 5.2, "reps": 3.9, "seed": 0.4}[damage]
            np.savez(path, **fields)
        with pytest.raises(ValueError, match="not a null-table file"):
            load_null_table(path)

    def test_rejects_a_file_missing_a_field(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, version=np.int64(cal.CACHE_FORMAT_VERSION), draws=np.arange(3.0))
        with pytest.raises(ValueError, match="not a null-table file"):
            load_null_table(path)
