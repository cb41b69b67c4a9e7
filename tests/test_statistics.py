import math

import numpy as np
import pytest

from mixdetect import (
    GGParams,
    MixtureAlt,
    TiesError,
    TwoSample,
    dejitter,
    hc_stat,
    hc_stat_sup_form,
    ks_one_sided,
    lrt_stat,
    rank_profile,
    tail_run,
    wilcoxon_u,
)
from mixdetect.calibration import ks_lambda
from mixdetect.statistics import pooled_indicator


def random_two_sample(rng, max_size=200):
    m = int(rng.integers(2, max_size + 1))
    n = int(rng.integers(2, max_size + 1))
    return TwoSample(x=rng.normal(size=m), y=rng.normal(size=n))


class TestRankProfile:
    def test_singletons(self):
        rp = rank_profile(TwoSample(x=[0.3], y=[0.7]))
        np.testing.assert_array_equal(rp.v, [1])

    def test_by_inspection(self):
        rp = rank_profile(TwoSample(x=[3, 4], y=[1, 2]))
        np.testing.assert_array_equal(rp.v, [0, 0, 1])

    def test_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=30)
            rp = rank_profile(ts)
            pooled = sorted(ts.x.tolist() + ts.y.tolist())
            xset = set(ts.x.tolist())
            for s in range(1, ts.m + ts.n):
                brute = sum(1 for v in pooled[:s] if v in xset)
                assert rp.v[s - 1] == brute

    def test_profile_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ts = random_two_sample(rng, max_size=50)
            rp = rank_profile(ts)
            steps = np.diff(np.concatenate([[0], rp.v]))
            assert np.all((steps == 0) | (steps == 1))
            assert rp.v[-1] in (ts.m - 1, ts.m)


class TestTies:
    def test_ties_raise_with_value(self):
        with pytest.raises(TiesError) as exc:
            pooled_indicator(np.array([1.0, 2.0]), np.array([2.0, 3.0]))
        assert exc.value.value == 2.0

    def test_within_sample_ties_raise(self):
        with pytest.raises(TiesError):
            hc_stat(TwoSample(x=[1.0, 1.0], y=[2.0, 3.0]))

    def test_dejitter_breaks_ties(self):
        x, y = dejitter([1.0, 2.0], [2.0, 1.0])
        hc_stat(TwoSample(x=x, y=y))  # no TiesError
        x2, y2 = dejitter([1.0, 2.0], [2.0, 1.0])
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)


class TestHigherCriticism:
    def test_singletons(self):
        assert hc_stat(TwoSample(x=[0.3], y=[0.7])).value == pytest.approx(
            math.sqrt(2), abs=1e-12
        )
        assert hc_stat(TwoSample(x=[0.7], y=[0.3])).value == pytest.approx(
            -math.sqrt(2), abs=1e-12
        )

    def test_hand_value_two_by_two(self):
        ts = TwoSample(x=[1, 2], y=[3, 4])
        assert hc_stat(ts).value == pytest.approx(2.0, abs=1e-12)
        assert hc_stat_sup_form(ts).value == pytest.approx(2.0, abs=1e-12)

    def test_rank_sup_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            ts = random_two_sample(rng)
            a = hc_stat(ts).value
            b = hc_stat_sup_form(ts).value
            assert abs(a - b) <= 1e-9

    def test_swap_antisymmetry_via_sup_form(self):
        # sup of F_m - G_n on swapped samples equals sup of G_n - F_m on the
        # originals; verify with a brute sup over pooled order statistics
        rng = np.random.default_rng(9)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=40)
            swapped = TwoSample(x=ts.y, y=ts.x)
            m, n, N = ts.m, ts.n, ts.m + ts.n
            pooled = np.sort(np.concatenate([ts.x, ts.y]))[:-1]
            fm = np.searchsorted(np.sort(ts.x), pooled, side="right") / m
            gn = np.searchsorted(np.sort(ts.y), pooled, side="right") / n
            h = np.arange(1, N) / N
            scale = math.sqrt(m * n / N)
            sup_swapped = np.max(scale * (gn - fm) / np.sqrt(h * (1 - h)))
            assert hc_stat_sup_form(swapped).value == pytest.approx(
                float(sup_swapped), abs=1e-10
            )


class TestWilcoxon:
    def test_extremes(self):
        assert wilcoxon_u(TwoSample(x=[1, 2], y=[3, 4])).value == 4
        assert wilcoxon_u(TwoSample(x=[3, 4], y=[1, 2])).value == 0
        assert wilcoxon_u(TwoSample(x=[1, 3], y=[2, 4])).value == 3

    def test_pair_count_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=25)
            brute = sum(1 for xi in ts.x for yj in ts.y if xi < yj)
            assert wilcoxon_u(ts).value == brute

    def test_complement_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ts = random_two_sample(rng, max_size=40)
            u = wilcoxon_u(ts).value
            u_rev = sum(1 for xi in ts.x for yj in ts.y if yj < xi)
            assert u + u_rev == ts.m * ts.n


class TestKolmogorovSmirnov:
    def test_separated(self):
        assert ks_one_sided(TwoSample(x=[1, 2], y=[3, 4])).value == 1.0

    def test_sup_of_nonpositive_function_is_zero(self):
        assert ks_one_sided(TwoSample(x=[3, 4], y=[1, 2])).value == 0.0

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
            assert ks_one_sided(ts).value == pytest.approx(brute, abs=1e-12)

    def test_scaled_value(self):
        ts = TwoSample(x=[1, 2], y=[3, 4])
        assert ks_lambda(ks_one_sided(ts).value, ts.m, ts.n) == pytest.approx(1.0, abs=1e-12)


class TestTailRun:
    def test_cases(self):
        assert tail_run(TwoSample(x=[1, 2], y=[3, 4])).value == 2
        assert tail_run(TwoSample(x=[4], y=[1, 2, 3])).value == 0

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
            assert tail_run(ts).value == run


class TestLrt:
    NORMAL = GGParams(gamma=2.0)

    def test_tiny_epsilon_limit(self):
        alt = MixtureAlt(epsilon=1e-15, mu=1.0)
        val = lrt_stat(np.array([0.2, -1.3, 0.8]), self.NORMAL, alt).value
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_tiny_mu_limit(self):
        alt = MixtureAlt(epsilon=0.3, mu=1e-12)
        val = lrt_stat(np.array([0.2, -1.3, 0.8]), self.NORMAL, alt).value
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_point(self):
        alt = MixtureAlt(epsilon=0.25, mu=1.6)
        val = lrt_stat(np.array([0.8]), self.NORMAL, alt).value
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_large_values_stable(self):
        alt = MixtureAlt(epsilon=1e-6, mu=5.0)
        y = np.array([300.0, -300.0, 0.0])
        val = lrt_stat(y, self.NORMAL, alt).value
        assert np.isfinite(val)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lrt_stat(np.array([]), self.NORMAL, MixtureAlt(0.1, 1.0))


class TestSharedProperties:
    def test_shift_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            ts = random_two_sample(rng, max_size=40)
            shifted = TwoSample(x=ts.x, y=ts.y + 0.37)
            assert wilcoxon_u(shifted).value >= wilcoxon_u(ts).value
            assert ks_one_sided(shifted).value >= ks_one_sided(ts).value
            assert tail_run(shifted).value >= tail_run(ts).value

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ts = random_two_sample(rng, max_size=60)
            tf = TwoSample(x=ts.x**3 + ts.x, y=ts.y**3 + ts.y)
            assert hc_stat(tf).value == hc_stat(ts).value
            assert wilcoxon_u(tf).value == wilcoxon_u(ts).value
            assert ks_one_sided(tf).value == ks_one_sided(ts).value
            assert tail_run(tf).value == tail_run(ts).value

    def test_large_sample_runtime(self):
        import time

        rng = np.random.default_rng(8)
        ts = TwoSample(x=rng.normal(size=10**5), y=rng.normal(size=10**5))
        t0 = time.time()
        hc_stat(ts)
        wilcoxon_u(ts)
        ks_one_sided(ts)
        tail_run(ts)
        assert time.time() - t0 < 1.0
