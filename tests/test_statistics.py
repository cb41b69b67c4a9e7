import itertools
import math

import numpy as np
import pytest

from mixdetect import (
    GGParams,
    MixtureAlt,
    TiesError,
    dejitter,
    gg_sample,
    hc_from_indicator,
    hc_sup_form_from_indicator,
    ks_from_indicator,
    lrt_stat,
    lrt_stats,
    mixture_sample,
    pooled_indicator,
    tailrun_from_indicator,
    wilcoxon_from_indicator,
)
from mixdetect import calibration as cal
from mixdetect import statistics as st
from mixdetect.calibration import ks_lambda


class Pair:
    """A control sample x and a test sample y as float arrays, of sizes m and n."""

    def __init__(self, x, y):
        self.x, self.y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        self.m, self.n = self.x.size, self.y.size


def random_two_sample(rng, max_size=200):
    m = int(rng.integers(2, max_size + 1))
    n = int(rng.integers(2, max_size + 1))
    return Pair(x=rng.normal(size=m), y=rng.normal(size=n))


def on(kernel, ts):
    """kernel on the pooled X-origin indicator of ts, as the registry takes it."""
    return kernel(pooled_indicator(ts.x, ts.y), ts.m, ts.n)


def rank_profile(ts):
    """v[s-1] counts X-origin values among the s smallest pooled, s = 1..m+n-1."""
    return np.cumsum(pooled_indicator(ts.x, ts.y))[:-1]


class TestRankProfile:
    def test_singletons(self):
        v = rank_profile(Pair(x=[0.3], y=[0.7]))
        np.testing.assert_array_equal(v, [1])

    def test_by_inspection(self):
        v = rank_profile(Pair(x=[3, 4], y=[1, 2]))
        np.testing.assert_array_equal(v, [0, 0, 1])

    def test_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=30)
            profile = rank_profile(ts)
            pooled = sorted(ts.x.tolist() + ts.y.tolist())
            xset = set(ts.x.tolist())
            for s in range(1, ts.m + ts.n):
                brute = sum(1 for v in pooled[:s] if v in xset)
                assert profile[s - 1] == brute

    def test_profile_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ts = random_two_sample(rng, max_size=50)
            v = rank_profile(ts)
            steps = np.diff(np.concatenate([[0], v]))
            assert np.all((steps == 0) | (steps == 1))
            assert v[-1] in (ts.m - 1, ts.m)


class TestTies:
    def test_ties_raise_with_value(self):
        with pytest.raises(TiesError) as exc:
            pooled_indicator(np.array([1.0, 2.0]), np.array([2.0, 3.0]))
        assert exc.value.value == 2.0

    @pytest.mark.parametrize("x, y, message", [
        ([0.5, np.nan, 1.0], [2.0, 3.0], "samples must not contain NaN"),
        ([0.5, 1.0], [np.nan, 2.0, 3.0], "samples must not contain NaN"),
        ([], [2.0, 3.0], "both samples must be nonempty"),
    ], ids=["nan-in-x", "nan-in-y", "empty"])
    def test_refused_samples(self, x, y, message):
        # a NaN has no rank: it was pooled last as if it were the largest value
        with pytest.raises(ValueError, match=f"^{message}$") as exc:
            pooled_indicator(np.array(x), np.array(y))
        assert not isinstance(exc.value, TiesError)

    def test_within_sample_ties_raise(self):
        with pytest.raises(TiesError):
            on(hc_from_indicator, Pair(x=[1.0, 1.0], y=[2.0, 3.0]))

    def test_dejitter_breaks_ties(self):
        x, y = dejitter([1.0, 2.0], [2.0, 1.0])
        on(hc_from_indicator, Pair(x=x, y=y))  # no TiesError
        x2, y2 = dejitter([1.0, 2.0], [2.0, 1.0])
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)

    @pytest.mark.parametrize("seed", range(5))
    def test_dejitter_keeps_order_of_values_ulps_apart(self, seed):
        rng = np.random.default_rng(seed)
        tiny = np.nextafter(0.0, 1.0)
        one_below = np.nextafter(1.0, 0.0)
        grid = [-2 * tiny, -tiny, -0.0, 0.0, tiny, 2 * tiny,
                np.nextafter(one_below, 0.0), one_below, 1.0, np.nextafter(1.0, 2.0)]
        x = rng.choice(grid, size=12)
        y = rng.choice(grid, size=9)
        out = np.concatenate(dejitter(x, y))
        pooled = np.concatenate([x, y])
        assert np.unique(out).size == out.size  # no output is tied
        below = pooled[:, None] < pooled[None, :]
        assert np.all(out[:, None] < out[None, :], where=below)
        # tied inputs come out x first, then in input order
        earlier = np.triu(pooled[:, None] == pooled[None, :], k=1)
        assert np.all(out[:, None] < out[None, :], where=earlier)

    def test_dejitter_moves_no_value_past_a_close_one(self):
        below_one = np.nextafter(1.0, 0.0)
        x, y = dejitter([1.0, 2.0], [below_one])
        np.testing.assert_array_equal(pooled_indicator(x, y), [0, 1, 1])
        x, y = dejitter([1.0], [below_one])
        np.testing.assert_array_equal(pooled_indicator(x, y), [0, 1])

    def test_dejitter_refuses_a_tie_at_the_largest_float(self):
        top = np.finfo(float).max
        with pytest.raises(ValueError, match="largest float"):
            dejitter([top], [top])

    def test_dejitter_leaves_distinct_values_alone(self):
        ts = random_two_sample(np.random.default_rng(4))
        x, y = dejitter(ts.x, ts.y)
        np.testing.assert_array_equal(x, ts.x)
        np.testing.assert_array_equal(y, ts.y)


def reference_indicator(x, y):
    """The pooled ordering as one stable sort of the concatenated samples."""
    order = np.argsort(np.concatenate([x, y]), kind="stable")
    return (order < x.size).astype(np.int64)


def reference_hc(xi, m, n):
    N = m + n
    s = np.arange(1, N, dtype=float)
    v = np.cumsum(xi)[:-1]
    e0 = m * s / N
    var0 = m * n * s * (N - s) / (N * N * (N - 1.0))
    return float(np.sqrt(N / (N - 1.0)) * np.max((v - e0) / np.sqrt(var0)))


def reference_ks(xi, m, n):
    cx = np.cumsum(xi)
    s = np.arange(1, m + n + 1, dtype=float)
    return float(max(0.0, np.max(cx / m - (s - cx) / n)))


def arrangement(rng, m, n):
    return rng.permutation(np.r_[np.ones(m, np.int64), np.zeros(n, np.int64)])


class TestPooledIndicator:
    @pytest.mark.parametrize(
        "m, n", [(1, 1), (1, 40), (40, 1), (7, 300), (300, 7), (150, 150)]
    )
    def test_matches_one_stable_sort(self, m, n):
        rng = np.random.default_rng(m * 1000 + n)
        for _ in range(20):
            x = rng.normal(size=m)
            y = rng.standard_cauchy(size=n)
            xi = pooled_indicator(x, y)
            assert xi.dtype == np.int64
            np.testing.assert_array_equal(xi, reference_indicator(x, y))

    @pytest.mark.parametrize("shift", [-100.0, 100.0])
    def test_separated_samples(self, shift):
        rng = np.random.default_rng(11)
        x = rng.normal(size=30) + shift
        y = rng.normal(size=20)
        xi = pooled_indicator(x, y)
        np.testing.assert_array_equal(xi, reference_indicator(x, y))
        expected = [1] * 30 + [0] * 20 if shift < 0 else [0] * 20 + [1] * 30
        np.testing.assert_array_equal(xi, expected)

    @pytest.mark.parametrize(
        "x, y, value",
        [
            ([9.0, 0.5], [-2.0, 9.0], 9.0),  # across the samples
            ([4.0, 0.5, 4.0], [1.0, 7.0], 4.0),  # within x
            ([0.0, 9.0], [5.0, -1.0, 5.0], 5.0),  # within y
            ([3.0, 3.0, 1.0], [1.0, 5.0], 1.0),  # several: the smallest
            ([8.0, 2.0, 6.0], [6.0, 8.0, 2.0], 2.0),
        ],
    )
    def test_ties_name_smallest_value(self, x, y, value):
        x, y = np.array(x), np.array(y)
        with pytest.raises(TiesError) as exc:
            pooled_indicator(x, y)
        assert exc.value.value == value
        with pytest.raises(TiesError) as exc:
            pooled_indicator(y, x)
        assert exc.value.value == value


class TestCachedKernels:
    # more (m, n) pairs than the caches hold, visited twice, so entries are
    # evicted and rebuilt between calls
    SIZES = [(1, 1), (1, 9), (9, 1), (5, 5), (13, 7), (7, 13), (40, 40),
             (100, 3), (3, 100), (64, 65), (2, 2)]

    def test_bitwise_equal_to_uncached(self):
        rng = np.random.default_rng(12)
        for _ in range(2):
            for m, n in self.SIZES:
                for _ in range(5):
                    xi = arrangement(rng, m, n)
                    assert hc_from_indicator(xi, m, n) == reference_hc(xi, m, n)
                    assert ks_from_indicator(xi, m, n) == reference_ks(xi, m, n)

    def test_integer_sizes_share_entries(self):
        rng = np.random.default_rng(13)
        xi = arrangement(rng, 6, 4)
        hc = hc_from_indicator(xi, np.int64(6), np.int64(4))
        assert hc == hc_from_indicator(xi, 6, 4) == reference_hc(xi, 6, 4)

    def test_constants_read_only(self):
        e0, sd0, _ = st._hc_null_moments(5, 3)
        grid = st._rank_grid(8)
        for arr in (e0, sd0, grid):
            with pytest.raises(ValueError):
                arr[0] = 99.0
        with pytest.raises(ValueError):
            grid += 1.0
        np.testing.assert_array_equal(st._rank_grid(8), np.arange(1.0, 9.0))


class TestKernelBlocks:
    """A kernel on a (rows, m+n) block gives each row's value on that
    indicator alone, bit for bit; on one indicator, a Python scalar."""

    KERNELS = [(hc_from_indicator, float), (hc_sup_form_from_indicator, float),
               (wilcoxon_from_indicator, int), (ks_from_indicator, float),
               (tailrun_from_indicator, int)]
    # the registry's kernels, which take the running count
    COUNTED = [KERNELS[0], *KERNELS[2:]]

    @pytest.mark.parametrize("kernel, kind", KERNELS, ids=[k.__name__ for k, _ in KERNELS])
    def test_rows_bitwise(self, kernel, kind):
        rng = np.random.default_rng(15)
        for m, n in [(1, 1), (1, 9), (9, 1), (13, 7), (64, 65)]:
            block = np.array([arrangement(rng, m, n) for _ in range(11)])
            alone = [kernel(xi, m, n) for xi in block]
            assert all(type(v) is kind for v in alone)
            got = kernel(block, m, n)
            assert got.shape == (11,)
            assert got.tolist() == alone

    @pytest.mark.parametrize("kernel, kind", COUNTED, ids=[k.__name__ for k, _ in COUNTED])
    def test_given_count(self, kernel, kind):
        """Given the running X-count v, a kernel gives bit for bit what it
        gives without it, of the same type: U and the tail run stay ints."""
        rng = np.random.default_rng(16)
        for m, n in [(1, 1), (1, 9), (9, 1), (13, 7), (64, 65)]:
            block = np.array([arrangement(rng, m, n) for _ in range(11)])
            for xi in block:
                got = kernel(xi, m, n, np.cumsum(xi))
                assert type(got) is kind and got == kernel(xi, m, n)
            got = kernel(block, m, n, np.cumsum(block, axis=-1))
            assert got.dtype == kernel(block, m, n).dtype
            assert got.tobytes() == kernel(block, m, n).tobytes()


class TestHigherCriticism:
    def test_singletons(self):
        assert on(hc_from_indicator, Pair(x=[0.3], y=[0.7])) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )
        assert on(hc_from_indicator, Pair(x=[0.7], y=[0.3])) == pytest.approx(
            -math.sqrt(2), abs=1e-12
        )

    def test_hand_value_two_by_two(self):
        ts = Pair(x=[1, 2], y=[3, 4])
        assert on(hc_from_indicator, ts) == pytest.approx(2.0, abs=1e-12)
        assert on(hc_sup_form_from_indicator, ts) == pytest.approx(2.0, abs=1e-12)

    def test_rank_sup_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            ts = random_two_sample(rng)
            a = on(hc_from_indicator, ts)
            b = on(hc_sup_form_from_indicator, ts)
            assert abs(a - b) <= 1e-9

    def test_swap_antisymmetry_via_sup_form(self):
        # sup of F_m - G_n on swapped samples equals sup of G_n - F_m on the
        # originals; verify with a brute sup over pooled order statistics
        rng = np.random.default_rng(9)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=40)
            swapped = Pair(x=ts.y, y=ts.x)
            m, n, N = ts.m, ts.n, ts.m + ts.n
            pooled = np.sort(np.concatenate([ts.x, ts.y]))[:-1]
            fm = np.searchsorted(np.sort(ts.x), pooled, side="right") / m
            gn = np.searchsorted(np.sort(ts.y), pooled, side="right") / n
            h = np.arange(1, N) / N
            scale = math.sqrt(m * n / N)
            sup_swapped = np.max(scale * (gn - fm) / np.sqrt(h * (1 - h)))
            assert on(hc_sup_form_from_indicator, swapped) == pytest.approx(
                float(sup_swapped), abs=1e-10
            )


class TestWilcoxon:
    def test_extremes(self):
        assert on(wilcoxon_from_indicator, Pair(x=[1, 2], y=[3, 4])) == 4
        assert on(wilcoxon_from_indicator, Pair(x=[3, 4], y=[1, 2])) == 0
        assert on(wilcoxon_from_indicator, Pair(x=[1, 3], y=[2, 4])) == 3

    def test_pair_count_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=25)
            brute = sum(1 for xi in ts.x for yj in ts.y if xi < yj)
            assert on(wilcoxon_from_indicator, ts) == brute

    def test_arrangement_pair_count(self):
        rng = np.random.default_rng(14)
        for m, n in [(1, 1), (1, 6), (6, 1), (5, 8), (12, 4), (30, 30)]:
            for _ in range(10):
                xi = arrangement(rng, m, n)
                x_at = np.flatnonzero(xi == 1)
                y_at = np.flatnonzero(xi == 0)
                brute = sum(1 for i in x_at for j in y_at if i < j)
                u = wilcoxon_from_indicator(xi, m, n)
                assert type(u) is int and u == brute

    @pytest.mark.parametrize("m, n", [(1, 1), (4, 9), (9, 4)])
    def test_extreme_arrangements(self, m, n):
        below = np.r_[np.ones(m, np.int64), np.zeros(n, np.int64)]
        assert wilcoxon_from_indicator(below, m, n) == m * n
        assert wilcoxon_from_indicator(below[::-1].copy(), m, n) == 0

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=40)
            u = on(wilcoxon_from_indicator, ts)
            u_rev = sum(1 for xi in ts.x for yj in ts.y if yj < xi)
            assert u + u_rev == ts.m * ts.n


class TestKolmogorovSmirnov:
    def test_separated(self):
        assert on(ks_from_indicator, Pair(x=[1, 2], y=[3, 4])) == 1.0

    def test_sup_of_nonpositive_function_is_zero(self):
        assert on(ks_from_indicator, Pair(x=[3, 4], y=[1, 2])) == 0.0

    def test_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=30)
            pooled = np.concatenate([ts.x, ts.y])
            brute = max(
                0.0,
                max(
                    np.mean(ts.x <= t) - np.mean(ts.y <= t) for t in pooled
                ),
            )
            assert on(ks_from_indicator, ts) == pytest.approx(brute, abs=1e-12)

    def test_scaled_value(self):
        ts = Pair(x=[1, 2], y=[3, 4])
        assert ks_lambda(on(ks_from_indicator, ts), ts.m, ts.n) == pytest.approx(1.0, abs=1e-12)


class TestTailRun:
    def test_cases(self):
        assert on(tailrun_from_indicator, Pair(x=[1, 2], y=[3, 4])) == 2
        assert on(tailrun_from_indicator, Pair(x=[4], y=[1, 2, 3])) == 0

    def test_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=30)
            pooled = sorted(
                [(v, 0) for v in ts.x] + [(v, 1) for v in ts.y], reverse=True
            )
            run = 0
            for _, label in pooled:
                if label == 0:
                    break
                run += 1
            assert on(tailrun_from_indicator, ts) == run

    @pytest.mark.parametrize("m, n", [(4, 3), (1, 5), (5, 1)])
    def test_count_form_by_enumeration(self, m, n):
        """Over every arrangement, the run read from the running X-count is
        the first X-origin value from the top of the indicator."""
        block = np.zeros((math.comb(m + n, m), m + n), dtype=np.int64)
        for row, xs in zip(block, itertools.combinations(range(m + n), m)):
            row[list(xs)] = 1
        oracle = np.argmax(block[..., ::-1], axis=-1)
        assert tailrun_from_indicator(block, m, n).tolist() == oracle.tolist()
        counts = np.cumsum(block, axis=-1)
        assert tailrun_from_indicator(None, m, n, counts).tolist() == oracle.tolist()
        for xi, v, run in zip(block, counts, oracle.tolist()):
            for got in (tailrun_from_indicator(xi, m, n), tailrun_from_indicator(None, m, n, v)):
                assert type(got) is int and got == run


class TestLrt:
    NORMAL = GGParams(gamma=2.0)

    def test_tiny_epsilon_limit(self):
        alt = MixtureAlt(epsilon=1e-15, mu=1.0)
        val = lrt_stat(np.array([0.2, -1.3, 0.8]), self.NORMAL, alt)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_tiny_mu_limit(self):
        alt = MixtureAlt(epsilon=0.3, mu=1e-12)
        val = lrt_stat(np.array([0.2, -1.3, 0.8]), self.NORMAL, alt)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_point(self):
        alt = MixtureAlt(epsilon=0.25, mu=1.6)
        val = lrt_stat(np.array([0.8]), self.NORMAL, alt)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_large_values_stable(self):
        alt = MixtureAlt(epsilon=1e-6, mu=5.0)
        y = np.array([300.0, -300.0, 0.0])
        val = lrt_stat(y, self.NORMAL, alt)
        assert np.isfinite(val)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lrt_stat(np.array([]), self.NORMAL, MixtureAlt(0.1, 1.0))


def log_ratios(y, p, mu):
    """log(f(y - mu) / f(y)) for the generalized Gaussian f."""
    z, zs = np.abs(y / p.scale), np.abs((y - mu) / p.scale)
    return (z**p.gamma - zs**p.gamma) / p.gamma


def reference_lrt(y, p, alt):
    """The LRT as one logaddexp per term, log((1-eps) + eps * f(y-mu)/f(y))."""
    y = np.asarray(y, dtype=float)
    lr = log_ratios(y, p, alt.mu)
    return float(np.sum(np.logaddexp(np.log1p(-alt.epsilon), np.log(alt.epsilon) + lr)))


class TestLrtReference:
    """lrt_stat's log1p form against the logaddexp form, to relative 1e-9."""

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("eps, mu", [(0.3, 0.05), (0.1, 1.0), (0.01, 3.0), (1e-4, 6.0)])
    def test_random_samples(self, gamma, eps, mu):
        rng = np.random.default_rng(int(gamma * 100) + int(mu * 10))
        p = GGParams(gamma=gamma, scale=0.8)
        alt = MixtureAlt(epsilon=eps, mu=mu)
        for n in (1, 7, 2000):
            for y in (gg_sample(n, p, rng), mixture_sample(n, p, alt, rng)):
                got = lrt_stat(y, p, alt)
                assert got == pytest.approx(reference_lrt(y, p, alt), rel=1e-9)

    def test_overflow_branch(self):
        # lr reaches 1487 and 10^6 here, past exp's range (lr > 709)
        p = GGParams(gamma=2.0)
        for alt, y in [
            (MixtureAlt(epsilon=1e-6, mu=5.0), np.array([300.0, -300.0, 0.0, 2.0])),
            (MixtureAlt(epsilon=0.2, mu=1000.0), np.array([1000.0, 999.0, 0.5, -3.0])),
            (MixtureAlt(epsilon=0.01, mu=40.0), np.linspace(-5.0, 60.0, 500)),
        ]:
            assert np.max(log_ratios(y, p, alt.mu)) > 709
            got = lrt_stat(y, p, alt)
            assert got == pytest.approx(reference_lrt(y, p, alt), rel=1e-9)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_tiny_epsilon(self, gamma):
        rng = np.random.default_rng(15)
        p = GGParams(gamma=gamma)
        alt = MixtureAlt(epsilon=1e-15, mu=2.0)
        for y in (gg_sample(500, p, rng), gg_sample(500, p, rng) + 2.0):
            got = lrt_stat(y, p, alt)
            assert got == pytest.approx(reference_lrt(y, p, alt), rel=1e-9)


def scheme4_lrt(y, p, alt):
    """lrt_stat as of rng_scheme 4, operation for operation."""
    y = np.asarray(y, dtype=float)
    z = y / p.scale
    zs = (y - alt.mu) / p.scale
    log_ratio = (np.abs(z) ** p.gamma - np.abs(zs) ** p.gamma) / p.gamma
    odds = alt.epsilon / (1.0 - alt.epsilon)
    terms = np.log1p(odds * np.exp(np.minimum(log_ratio, 700.0)))
    big = log_ratio > 700.0
    if big.any():
        terms[big] = np.logaddexp(0.0, math.log(odds) + log_ratio[big])
    return float(np.sum(terms) + y.size * math.log1p(-alt.epsilon))


class TestLrtKernel:
    """The affine gamma = 2 route, and every other gamma unchanged bit for bit."""

    def test_normal_far_tail_exact(self):
        # the squared form (|z|^2 - |z - mu|^2)/2 is off by 0.5 here
        val = lrt_stat(np.array([1e8]), GGParams(2.0), MixtureAlt(0.1, 1.0))
        assert val == pytest.approx(1e8 - 0.5 + math.log(0.1), abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 3.0])
    def test_other_gamma_bitwise(self, gamma):
        rng = np.random.default_rng(int(gamma * 10))
        p = GGParams(gamma=gamma, scale=0.8)
        for alt in (MixtureAlt(0.1, 1.0), MixtureAlt(1e-4, 4.0)):
            for y in (gg_sample(2000, p, rng), mixture_sample(2000, p, alt, rng)):
                assert np.max(log_ratios(y, p, alt.mu)) < 700
                assert lrt_stat(y, p, alt) == scheme4_lrt(y, p, alt)
        # a shift whose density ratio at y = mu is exp(1500): the clamp route
        mu = 0.8 * (1500.0 * gamma) ** (1.0 / gamma)
        alt = MixtureAlt(0.01, mu)
        for y in (np.linspace(-5.0, 1.2 * mu, 400), mixture_sample(2000, p, alt, rng)):
            assert np.max(log_ratios(y, p, alt.mu)) > 700
            assert lrt_stat(y, p, alt) == scheme4_lrt(y, p, alt)


def scheme6_log_ratio(y, p, alt):
    """log(f(y - mu) / f(y)) as lrt_stat took it at rng_scheme 6."""
    if p.gamma == 2.0:
        c = alt.mu / p.scale
        return y * (c / p.scale) - 0.5 * c * c
    z = y / p.scale
    zs = (y - alt.mu) / p.scale
    return (np.abs(z) ** p.gamma - np.abs(zs) ** p.gamma) / p.gamma


def scheme6_lrt(y, p, alt):
    """lrt_stat as of rng_scheme 6, one alternative at a time, operation for operation."""
    y = np.asarray(y, dtype=float)
    log_ratio = scheme6_log_ratio(y, p, alt)
    odds = alt.epsilon / (1.0 - alt.epsilon)
    if log_ratio.max() > 700.0:
        terms = np.log1p(odds * np.exp(np.minimum(log_ratio, 700.0)))
        big = log_ratio > 700.0
        terms[big] = np.logaddexp(0.0, math.log(odds) + log_ratio[big])
    else:
        terms = np.log1p(odds * np.exp(log_ratio))
    return float(np.sum(terms) + y.size * math.log1p(-alt.epsilon))


class TestLrtStats:
    """lrt_stats row by row against scheme6_lrt, bit for bit."""

    GAMMAS = [0.5, 1.0, 1.5, 2.0, 3.0]

    @staticmethod
    def overflowing(y, p, alts):
        return sum(scheme6_log_ratio(y, p, a).max() > 700.0 for a in alts)

    @staticmethod
    def check(y, p, alts):
        got = lrt_stats(y, p, alts)
        assert got.shape == (len(alts),)
        for value, alt in zip(got.tolist(), alts):
            assert value == scheme6_lrt(y, p, alt)
            assert lrt_stat(y, p, alt) == value

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_rows_bitwise(self, gamma):
        rng = np.random.default_rng(int(gamma * 10) + 40)
        p = GGParams(gamma=gamma, scale=0.8)
        for n in (1, 7, 2000):
            # ten alternatives, the first at eps = 1e-15; each also alone
            eps = [1e-15, *rng.uniform(1e-4, 0.4, size=9)]
            alts = [MixtureAlt(float(e), float(mu))
                    for e, mu in zip(eps, rng.uniform(0.05, 4.0, size=10))]
            for y in (gg_sample(n, p, rng), mixture_sample(n, p, alts[-1], rng)):
                assert self.overflowing(y, p, alts) == 0
                self.check(y, p, alts)
                for alt in alts:
                    self.check(y, p, [alt])

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_overflow_rows(self, gamma):
        # lr at y = mu is (mu/scale)^gamma / gamma, which passes 700 at
        # mu = edge; no row, every row and some rows take the overflow branch
        p = GGParams(gamma=gamma)
        edge = (700.0 * gamma) ** (1.0 / gamma)
        small = [MixtureAlt(0.1, 1.0), MixtureAlt(1e-15, 2.0)]
        large = [MixtureAlt(0.01, 1.05 * edge), MixtureAlt(1e-15, 1.1 * edge),
                 MixtureAlt(0.3, 1.2 * edge)]
        y = np.linspace(-5.0, 1.25 * edge, 2001)
        for alts, rows in ((small, 0), (large, 3), (small + large, 3), (large[::-1] + small, 3)):
            assert self.overflowing(y, p, alts) == rows
            # the clamp keeps exp from overflowing
            with np.errstate(over="raise", invalid="raise"):
                self.check(y, p, alts)

    @pytest.mark.parametrize("gamma", [0.7, 1.0, 2.0, 3.0])
    def test_block_with_overflow_in_some_rows(self, gamma):
        # rows 1 and 4 hold y = mu of alts[0], where lr = (mu/scale)^gamma / gamma
        # passes 700
        p = GGParams(gamma)
        edge = (700.0 * gamma) ** (1.0 / gamma)
        alts = (MixtureAlt(0.01, 1.05 * edge), MixtureAlt(0.2, 1.0))
        y = gg_sample(300, p, np.random.default_rng(16)).reshape(6, 50)
        y[[1, 4], 7] = alts[0].mu
        assert [self.overflowing(row, p, alts) for row in y] == [0, 1, 0, 0, 1, 0]
        got = lrt_stats(y, p, alts)
        assert got.shape == (6, 2)
        for row, values in zip(y, got.tolist()):
            assert values == [scheme6_lrt(row, p, a) for a in alts]
            assert values == lrt_stats(row, p, alts).tolist()

    def test_empty_or_not_1d_rejected(self):
        alts = [MixtureAlt(0.1, 1.0)]
        for y in (np.array([]), np.ones((2, 0)), np.ones((2, 3, 4))):
            with pytest.raises(ValueError):
                lrt_stats(y, GGParams(2.0), alts)
        with pytest.raises(ValueError):
            lrt_stats(np.ones(3), GGParams(2.0), [])

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_zero_row_block(self, gamma):
        alts = [MixtureAlt(0.1, 1.0), MixtureAlt(0.2, 3.0)]
        out = lrt_stats(np.empty((0, 5)), GGParams(gamma), alts)
        assert out.shape == (0, 2) and out.dtype == np.float64
        assert hc_from_indicator(np.empty((0, 5)), 2, 3).shape == (0,)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_non_finite_total_raises(self, gamma):
        alts = [MixtureAlt(0.1, 1.0), MixtureAlt(0.2, 3.0)]
        for y in ([0.0, np.inf], [np.nan, 1.0]):
            with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
                lrt_stats(np.array(y), GGParams(gamma), alts)

    def test_constants_read_only(self):
        lr_consts, odds, log_odds, n_log1p_eps = st._lrt_constants(
            GGParams(2.0), (MixtureAlt(0.1, 1.0), MixtureAlt(0.2, 3.0)), 5
        )
        for arr in (*lr_consts, odds, log_odds, n_log1p_eps):
            with pytest.raises(ValueError):
                arr[0] = 99.0

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_replicate_equals_lrt_stat(self, gamma):
        p = GGParams(gamma)
        alts = [MixtureAlt(0.05 * i, 0.4 * i) for i in range(1, 6)]
        # replicate 7 of the null stream (3, TAG_NULL): X of 50, then Y of 40
        parts = [3, cal.TAG_NULL, 7]
        (got,) = cal.replicate_rows(cal.DATA, [st.LRT], p, None, alts, 50, 40,
                                    parts[:2], 7, 8).tolist()
        rng = np.random.default_rng(np.random.SeedSequence(parts))
        gg_sample(50, p, rng)
        y = gg_sample(40, p, rng)
        assert got == [lrt_stat(y, p, a) for a in alts]


class TestSharedProperties:
    def test_shift_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ts = random_two_sample(rng, max_size=40)
            shifted = Pair(x=ts.x, y=ts.y + 0.37)
            assert on(wilcoxon_from_indicator, shifted) >= on(wilcoxon_from_indicator, ts)
            assert on(ks_from_indicator, shifted) >= on(ks_from_indicator, ts)
            assert on(tailrun_from_indicator, shifted) >= on(tailrun_from_indicator, ts)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ts = random_two_sample(rng, max_size=60)
            tf = Pair(x=ts.x**3 + ts.x, y=ts.y**3 + ts.y)
            assert on(hc_from_indicator, tf) == on(hc_from_indicator, ts)
            assert on(wilcoxon_from_indicator, tf) == on(wilcoxon_from_indicator, ts)
            assert on(ks_from_indicator, tf) == on(ks_from_indicator, ts)
            assert on(tailrun_from_indicator, tf) == on(tailrun_from_indicator, ts)

    def test_large_sample_runtime(self):
        import time

        rng = np.random.default_rng(8)
        ts = Pair(x=rng.normal(size=10**5), y=rng.normal(size=10**5))
        t0 = time.time()
        on(hc_from_indicator, ts)
        on(wilcoxon_from_indicator, ts)
        on(ks_from_indicator, ts)
        on(tailrun_from_indicator, ts)
        assert time.time() - t0 < 1.0
