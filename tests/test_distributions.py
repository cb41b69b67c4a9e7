import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import mixdetect
from mixdetect import (
    GGParams,
    MixtureAlt,
    ScenarioConfig,
    dense_calibration,
    figure_config,
    gg_cdf,
    gg_pdf,
    gg_quantile,
    gg_sample,
    gg_survival,
    mixture_sample,
    run_power_grid,
    sparse_calibration,
)
from mixdetect import calibration as cal
from mixdetect import statistics as st
from mixdetect import theory

NORMAL = GGParams(gamma=2.0)


class TestValidation:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GGParams(gamma=0.0)
        with pytest.raises(ValueError):
            GGParams(gamma=2.0, scale=-1.0)
        with pytest.raises(ValueError):
            MixtureAlt(epsilon=0.5, mu=1.0)
        with pytest.raises(ValueError):
            MixtureAlt(epsilon=0.1, mu=0.0)
        with pytest.raises(ValueError):
            sparse_calibration(100, beta=1.0, r=0.5, gamma=2.0)
        with pytest.raises(ValueError):
            dense_calibration(100, beta=0.2, s=0.51)

    @pytest.mark.parametrize("bad", [True, np.bool_(True), False])
    def test_bools_refused(self, bad):
        # True was taken as 1: a config model {"gamma": true} ran as gamma = 1
        for name, make in [
            ("gamma", lambda v: GGParams(gamma=v)),
            ("scale", lambda v: GGParams(gamma=2.0, scale=v)),
            ("mu", lambda v: MixtureAlt(epsilon=0.1, mu=v)),
        ]:
            message = f"{name} must be a real number, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(bad)

    @pytest.mark.parametrize("bad", ["2", None, 1 + 0j, [2.0]])
    def test_non_reals_refused(self, bad):
        # a string raised a TypeError that named no field
        for name, make in [
            ("gamma", lambda v: GGParams(gamma=v)),
            ("scale", lambda v: GGParams(gamma=2.0, scale=v)),
            ("epsilon", lambda v: MixtureAlt(epsilon=v, mu=1.0)),
            ("mu", lambda v: MixtureAlt(epsilon=0.1, mu=v)),
        ]:
            message = f"{name} must be a real number, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                make(bad)

    def test_numpy_reals_accepted(self):
        assert GGParams(np.float32(2.0), np.int64(1)).variance == pytest.approx(1.0)
        assert MixtureAlt(np.float64(0.1), np.int32(2)).mu == 2

    def test_dense_param_accepts_half(self):
        dense_calibration(100, beta=0.2, s=0.5)

    def test_nonfinite_x(self):
        with pytest.raises(ValueError):
            gg_pdf(np.inf, NORMAL)


class TestPdf:
    def test_normal_at_zero(self):
        assert gg_pdf(0.0, NORMAL) == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-7)

    def test_double_exponential_at_zero(self):
        assert gg_pdf(0.0, GGParams(gamma=1.0)) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("x", [0.3, 1.7, 4.2])
    def test_symmetry(self, x):
        for g in (0.5, 1.0, 2.0, 3.0):
            p = GGParams(gamma=g)
            assert gg_pdf(-x, p) == gg_pdf(x, p)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_integrates_to_one(self, gamma):
        # full-line quadrature: for gamma = 0.5 the tails beyond +-50 still
        # hold ~1e-5 mass, so a [-50, 50] window cannot reach 1e-8
        p = GGParams(gamma=gamma)
        left, _ = integrate.quad(lambda x: gg_pdf(x, p), -np.inf, 0, limit=400)
        right, _ = integrate.quad(lambda x: gg_pdf(x, p), 0, np.inf, limit=400)
        assert left + right == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_median(self):
        for g in (0.5, 1.0, 2.0):
            assert gg_cdf(0.0, GGParams(gamma=g)) == pytest.approx(0.5, abs=1e-14)

    def test_normal_quantile_point(self):
        assert gg_cdf(1.2816, NORMAL) == pytest.approx(0.9000, abs=1e-3)

    def test_matches_erf_oracle(self):
        xs = np.linspace(-4, 4, 41)
        oracle = 0.5 * (1 + special.erf(xs / math.sqrt(2)))
        np.testing.assert_allclose(gg_cdf(xs, NORMAL), oracle, atol=1e-12)

    def test_monotone_and_complement(self):
        xs = np.linspace(-6, 6, 301)
        for g in (0.5, 1.0, 2.0, 3.0):
            p = GGParams(gamma=g)
            vals = gg_cdf(xs, p)
            assert np.all(np.diff(vals) >= 0)
            np.testing.assert_allclose(gg_cdf(-xs, p) + vals, 1.0, atol=1e-12)


class TestSurvival:
    def test_at_zero(self):
        assert gg_survival(0.0, NORMAL) == 0.5

    def test_complement(self):
        xs = np.linspace(-3, 3, 61)
        for g in (0.5, 1.0, 2.0):
            p = GGParams(gamma=g)
            np.testing.assert_allclose(gg_survival(xs, p) + gg_cdf(xs, p), 1.0, atol=1e-12)

    def test_deep_tail_relative_precision(self):
        # standard normal tail oracle
        assert gg_survival(6.0, NORMAL) == pytest.approx(9.87e-10, rel=0.01)
        assert gg_survival(38.0, NORMAL) == pytest.approx(
            float(stats.norm.sf(38.0)), rel=1e-10
        )


class TestQuantile:
    def test_median_is_zero(self):
        for g in (0.5, 1.0, 2.0):
            assert gg_quantile(0.5, GGParams(gamma=g)) == 0.0

    def test_normal_oracle(self):
        assert gg_quantile(0.975, NORMAL) == pytest.approx(1.95996, abs=1e-4)

    def test_symmetry(self):
        for q in (0.01, 0.2, 0.49):
            assert gg_quantile(q, NORMAL) == pytest.approx(-gg_quantile(1 - q, NORMAL), abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
    def test_cdf_roundtrip(self, gamma):
        p = GGParams(gamma=gamma)
        for q in (0.01, 0.5, 0.99):
            assert gg_cdf(gg_quantile(q, p), p) == pytest.approx(q, abs=1e-10)
        # |x| = 4 at gamma = 3 puts q within 1e-11 of 1, where the rounding
        # of q alone moves x by ~1e-6; stay where doubles can represent q
        hi = 4.0 if gamma <= 2 else 3.0
        for x in np.linspace(-hi, hi, 17):
            assert gg_quantile(gg_cdf(x, p), p) == pytest.approx(x, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gg_quantile(0.0, NORMAL)
        with pytest.raises(ValueError):
            gg_quantile(1.0, NORMAL)


class TestSampling:
    def test_empty(self):
        rng = np.random.default_rng(0)
        assert gg_sample(0, NORMAL, rng).size == 0

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_moment_identity(self, gamma):
        # E|X|**gamma = 1 in the standard form
        rng = np.random.default_rng(1234)
        p = GGParams(gamma=gamma)
        draws = gg_sample(10**5, p, rng)
        assert np.mean(np.abs(draws) ** gamma) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_goodness_of_fit(self, gamma):
        rng = np.random.default_rng(99)
        p = GGParams(gamma=gamma)
        draws = gg_sample(10**5, p, rng)
        res = stats.kstest(draws, lambda v: gg_cdf(v, p))
        assert res.pvalue > 0.001

    def test_scale_applies(self):
        rng = np.random.default_rng(5)
        p = GGParams(gamma=1.0, scale=1 / math.sqrt(2))
        draws = gg_sample(10**5, p, rng)
        assert np.var(draws) == pytest.approx(1.0, abs=0.03)
        assert p.variance == pytest.approx(1.0, abs=1e-12)


def gamma_route(count, p, rng):
    """|X/scale|**gamma / gamma ~ Gamma(1/gamma), with a uniform sign."""
    w = rng.gamma(1.0 / p.gamma, size=count)
    sign = rng.integers(0, 2, size=count) * 2 - 1
    return sign * p.scale * (p.gamma * w) ** (1.0 / p.gamma)


class TestSamplerRoutes:
    """gamma = 2 and gamma = 1 are drawn directly; every other gamma by gamma
    variates."""

    def test_normal_route(self):
        p = GGParams(gamma=2.0, scale=1.7)
        got = gg_sample(1000, p, np.random.default_rng(21))
        np.testing.assert_array_equal(got, 1.7 * np.random.default_rng(21).standard_normal(1000))

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_gamma_route_kept(self, gamma):
        p = GGParams(gamma=gamma, scale=1.3)
        got = gg_sample(1000, p, np.random.default_rng(23))
        np.testing.assert_array_equal(got, gamma_route(1000, p, np.random.default_rng(23)))

    @pytest.mark.parametrize("scale", [1.0, 1 / math.sqrt(2), 0.37, 4.5, 1.3])
    def test_exponential_difference_route(self, scale):
        # gamma = 1 (Laplace) is scale * (E1 - E2), two standard exponential
        # draws in that order: the values and the stream position after them
        p = GGParams(gamma=1.0, scale=scale)
        for seed in range(8):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            e1, e2 = ref.standard_exponential(2000), ref.standard_exponential(2000)
            np.testing.assert_array_equal(gg_sample(2000, p, rng), scale * (e1 - e2))
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("gamma, scale", [(2.0, 2.5), (1.0, 0.4)])
    def test_direct_route_fits_cdf(self, gamma, scale):
        p = GGParams(gamma=gamma, scale=scale)
        draws = gg_sample(10**5, p, np.random.default_rng(24))
        res = stats.kstest(draws, lambda v: gg_cdf(v, p))
        assert res.pvalue > 0.001


class TestMixture:
    def test_tail_mass(self):
        # nearly half the draws carry a huge shift
        rng = np.random.default_rng(3)
        alt = MixtureAlt(epsilon=0.4999, mu=10.0)
        draws = mixture_sample(10**5, NORMAL, alt, rng)
        frac = np.mean(draws > 5.0)
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_ecdf_matches_mixture_cdf(self):
        rng = np.random.default_rng(7)
        alt = MixtureAlt(epsilon=0.2, mu=2.0)
        draws = np.sort(mixture_sample(10**5, NORMAL, alt, rng))
        target = (1 - alt.epsilon) * gg_cdf(draws, NORMAL) + alt.epsilon * gg_cdf(
            draws - alt.mu, NORMAL
        )
        ecdf_hi = np.arange(1, draws.size + 1) / draws.size
        ecdf_lo = np.arange(0, draws.size) / draws.size
        sup = max(np.max(np.abs(ecdf_hi - target)), np.max(np.abs(ecdf_lo - target)))
        assert sup < 0.01  # Dvoretzky-Kiefer-Wolfowitz scale for 1e5 draws

    def test_near_null_mixture(self):
        rng = np.random.default_rng(11)
        alt = MixtureAlt(epsilon=1e-9, mu=100.0)
        draws = mixture_sample(10**5, NORMAL, alt, rng)
        res = stats.kstest(draws, lambda v: gg_cdf(v, NORMAL))
        assert res.pvalue > 0.001

    def test_contaminated_fraction_consistent(self):
        rng = np.random.default_rng(21)
        alt = MixtureAlt(epsilon=0.1, mu=3.0)
        count = 10**5
        draws = mixture_sample(count, NORMAL, alt, rng)
        thr = alt.mu / 2  # F-median is 0
        expected = (1 - alt.epsilon) * gg_survival(thr, NORMAL) + alt.epsilon * gg_survival(
            thr - alt.mu, NORMAL
        )
        sd = math.sqrt(expected * (1 - expected) / count)
        assert abs(np.mean(draws > thr) - expected) < 4 * sd


class TestContaminationCount:
    """mixture_sample draws K ~ Binomial(count, eps) after the base sample
    and shifts the first K draws."""

    def test_first_k_shifted_after_the_base_draws(self):
        alt = MixtureAlt(epsilon=0.3, mu=2.5)
        for seed in range(8):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            base = gg_sample(50, NORMAL, ref)
            base[:ref.binomial(50, alt.epsilon)] += alt.mu
            np.testing.assert_array_equal(mixture_sample(50, NORMAL, alt, rng), base)
            assert rng.random() == ref.random()

    def test_count_is_binomial(self):
        # mu = 1e6 sets the shifted draws apart, so K is read off each sample
        count, reps, alt = 20, 20000, MixtureAlt(epsilon=0.15, mu=1e6)
        rng = np.random.default_rng(31)
        ks = np.empty(reps, dtype=int)
        for i in range(reps):
            shifted = mixture_sample(count, NORMAL, alt, rng) > alt.mu / 2
            ks[i] = shifted.sum()
            assert shifted[:ks[i]].all()
        expected = reps * stats.binom.pmf(np.arange(count + 1), count, alt.epsilon)
        observed = np.bincount(ks, minlength=count + 1)
        # pool the upper tail where fewer than 5 counts are expected
        cut = int(np.argmax(expected < 5))
        observed = np.append(observed[:cut], observed[cut:].sum())
        expected = np.append(expected[:cut], expected[cut:].sum())
        assert stats.chisquare(observed, expected).pvalue > 0.001


class TestCalibrations:
    def test_sparse_values(self):
        alt = sparse_calibration(10**4, beta=0.6, r=0.4, gamma=2.0)
        assert alt.epsilon == pytest.approx(3.981e-3, rel=1e-3)
        assert alt.mu == pytest.approx(2.7145, abs=1e-3)

    def test_sparse_log_identity(self):
        # gamma = 1 reduces mu to r * log n
        alt = sparse_calibration(10**4, beta=0.8, r=0.3, gamma=1.0)
        assert alt.epsilon == pytest.approx(10 ** (-3.2), rel=1e-12)
        assert alt.mu == pytest.approx(0.3 * math.log(10**4), rel=1e-12)

    @pytest.mark.parametrize("gamma, mu", [(1e-300, "0.0"), (1e308, "inf")])
    def test_sparse_mu_out_of_range_names_gamma(self, gamma, mu):
        # mu underflows to 0 or overflows to inf; the message was MixtureAlt's
        # `mu must lie in (0, inf), got ...`, which named no gamma
        message = (f"at gamma = {gamma}, mu = (gamma * r * log n)**(1/gamma) "
                   f"must lie in (0, inf), got {mu}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sparse_calibration(100, beta=0.6, r=0.4, gamma=gamma)

    def test_sparse_epsilon_too_large(self):
        with pytest.raises(ValueError):
            sparse_calibration(2, beta=0.1, r=0.5, gamma=2.0)

    def test_dense_values(self):
        alt = dense_calibration(10**4, beta=0.2, s=0.25)
        assert alt.mu == pytest.approx(0.1, rel=1e-12)
        assert alt.epsilon == pytest.approx(10 ** (-0.8), rel=1e-12)

    def test_dense_s_half(self):
        alt = dense_calibration(10**4, beta=0.2, s=0.5)
        assert alt.mu == pytest.approx(1.0, rel=1e-12)

    def test_deterministic(self):
        a = sparse_calibration(500, beta=0.7, r=0.3, gamma=1.5)
        b = sparse_calibration(500, beta=0.7, r=0.3, gamma=1.5)
        assert (a.epsilon, a.mu) == (b.epsilon, b.mu)


def _config(**changes):
    fields = dict(model=NORMAL, m=50, n=50, regime="sparse", beta=0.6, grid=[0.5],
                  power_reps=10, calib_reps=100)
    return ScenarioConfig(**{**fields, **changes})


ALT = MixtureAlt(epsilon=0.1, mu=1.0)
# (name, least, call): every entry point that takes a count, size, reps, seed
# or thread count, with the one argument under test as v
INTEGER_ENTRY_POINTS = {
    "mc_null_table-m": ("m", 1, lambda v: cal.mc_null_table(st.HC, v, 5, 100, 0)),
    "mc_null_table-n": ("n", 1, lambda v: cal.mc_null_table(st.HC, 5, v, 100, 0)),
    "mc_null_table-reps": ("reps", 100, lambda v: cal.mc_null_table(st.HC, 5, 5, v, 0)),
    "mc_null_table-seed": ("seed", 0, lambda v: cal.mc_null_table(st.HC, 5, 5, 100, v)),
    "ScenarioConfig-m": ("m", 2, lambda v: _config(m=v)),
    "ScenarioConfig-n": ("n", 2, lambda v: _config(n=v)),
    "ScenarioConfig-power_reps": ("power_reps", 1, lambda v: _config(power_reps=v)),
    "ScenarioConfig-calib_reps": ("calib_reps", 100, lambda v: _config(calib_reps=v)),
    "ScenarioConfig-master_seed": ("master_seed", 0, lambda v: _config(master_seed=v)),
    "run_power_grid-threads": ("threads", 0, lambda v: run_power_grid(_config(), threads=v)),
    "hc_conditions-n": ("n", 2, lambda v: theory.hc_conditions(1.0, v, NORMAL, ALT, 0.5)),
    "wilcoxon_condition-n": ("n", 2, lambda v: theory.wilcoxon_condition(v, NORMAL, ALT)),
    "ks_condition-n": ("n", 2, lambda v: theory.ks_condition(v, NORMAL, ALT)),
    "tailrun_condition-m": ("m", 1, lambda v: theory.tailrun_condition(1.0, v, 5, NORMAL, ALT, 1)),
    "tailrun_condition-n": ("n", 1, lambda v: theory.tailrun_condition(1.0, 5, v, NORMAL, ALT, 1)),
    "tailrun_condition-l": ("l", 0, lambda v: theory.tailrun_condition(1.0, 5, 5, NORMAL, ALT, v)),
    "gg_sample-count": ("count", 0, lambda v: gg_sample(v, NORMAL, np.random.default_rng(0))),
    "sparse_calibration-n": ("n", 2, lambda v: sparse_calibration(v, 0.6, 0.5, 2.0)),
    "dense_calibration-n": ("n", 2, lambda v: dense_calibration(v, 0.2, 0.3)),
    "wilcoxon_exact_null-m": ("m", 1, lambda v: cal.wilcoxon_exact_null(v, 5)),
    "wilcoxon_exact_null-n": ("n", 1, lambda v: cal.wilcoxon_exact_null(5, v)),
    "tailrun_null_pmf-m": ("m", 1, lambda v: cal.tailrun_null_pmf(v, 5)),
    "tailrun_null_pmf-n": ("n", 1, lambda v: cal.tailrun_null_pmf(5, v)),
}


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
def test_integer_rule(monkeypatch, entry):
    # one rule and one message form everywhere, each refusal before anything
    # is simulated
    name, least, call = INTEGER_ENTRY_POINTS[entry]
    monkeypatch.setattr(cal, "replicate_rows", None)
    for bad, message in [
        (True, f"{name} must be an integer, got True"),
        (float(least + 1), f"{name} must be an integer, got {float(least + 1)!r}"),
        (least - 1, f"{name} must be at least {least}, got {least - 1}"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)


# (name, interval, call, in-range numpy value): every entry point that takes a
# real parameter, with the one argument under test as v
REAL_ENTRY_POINTS = {
    "GGParams-gamma": ("gamma", "(0, inf)", lambda v: GGParams(gamma=v), np.float32(1.5)),
    "GGParams-scale": ("scale", "(0, inf)", lambda v: GGParams(2.0, v), np.int64(3)),
    "MixtureAlt-epsilon": ("epsilon", "(0, 0.5)", lambda v: MixtureAlt(v, 1.0), np.float64(0.1)),
    "MixtureAlt-mu": ("mu", "(0, inf)", lambda v: MixtureAlt(0.1, v), np.float32(2.0)),
    "sparse_calibration-beta": ("beta", "(0, 1)", lambda v: sparse_calibration(100, v, 0.4, 2.0),
                                np.float64(0.6)),
    "sparse_calibration-r": ("r", "(0, 1)", lambda v: sparse_calibration(100, 0.6, v, 2.0),
                             np.float32(0.4)),
    # gamma = 0 raised ZeroDivisionError, and gamma = -1 blamed mu
    "sparse_calibration-gamma": ("gamma", "(0, inf)",
                                 lambda v: sparse_calibration(100, 0.6, 0.4, v), np.int64(1)),
    "dense_calibration-beta": ("beta", "(0, 0.5)", lambda v: dense_calibration(100, v, 0.3),
                               np.float64(0.2)),
    "dense_calibration-s": ("s", "(0, 0.5]", lambda v: dense_calibration(100, 0.2, v),
                            np.float64(0.5)),
    "detection_boundary_sparse-beta": ("beta", "(0, 1)",
                                       lambda v: theory.detection_boundary_sparse(v, 2.0),
                                       np.float64(0.6)),
    "detection_boundary_sparse-gamma": ("gamma", "(0, inf)",
                                        lambda v: theory.detection_boundary_sparse(0.6, v),
                                        np.float32(0.5)),
    "detection_boundary_dense-beta": ("beta", "(0, 0.5)",
                                      lambda v: theory.detection_boundary_dense(v, 2.0),
                                      np.float64(0.3)),
    "detection_boundary_dense-gamma": ("gamma", "(0, inf)",
                                       lambda v: theory.detection_boundary_dense(0.3, v),
                                       np.float64(0.25)),
    "hc_conditions-t": ("t", "(-inf, inf)",
                        lambda v: theory.hc_conditions(v, 100, NORMAL, ALT, 0.5), np.float64(1.0)),
    "hc_conditions-eta": ("eta", "(0, 0.5]",
                          lambda v: theory.hc_conditions(1.0, 100, NORMAL, ALT, v),
                          np.float32(0.5)),
    "tailrun_condition-t": ("t", "(-inf, inf)",
                            lambda v: theory.tailrun_condition(v, 5, 5, NORMAL, ALT, 1),
                            np.int64(-2)),
    "lower_bound_integral-mu": ("mu", "[0, inf)",
                                lambda v: theory.lower_bound_integral(0.0, NORMAL, v), np.int64(0)),
    "lower_bound_integral-x_upper": ("x_upper", "[-inf, inf]",
                                     lambda v: theory.lower_bound_integral(v, NORMAL, 1.0),
                                     np.float64(-np.inf)),
    "ScenarioConfig-level": ("level", "(0, 1)", lambda v: _config(level=v), np.float32(0.05)),
    "figure_config-scale": ("scale", "(0, 1]", lambda v: figure_config("normal-dense", v),
                            np.float64(0.001)),
}


@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_real_rule(entry):
    # one rule and one message form everywhere: a string, a bool, NaN and each
    # end that the interval leaves out are refused, naming the parameter
    name, interval, call, good = REAL_ENTRY_POINTS[entry]
    low, high = (float(end) for end in interval[1:-1].split(", "))
    cases = [("0.3", f"{name} must be a real number, got '0.3'"),
             (True, f"{name} must be a real number, got True"),
             (math.nan, f"{name} must lie in {interval}, got nan")]
    cases += [(end, f"{name} must lie in {interval}, got {end}")
              for end, bracket in ((low, interval[0]), (high, interval[-1])) if bracket in "()"]
    for bad, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)
    call(good)


def test_real_rule_has_one_copy():
    # an interval message written anywhere but check_real is a second copy of
    # the rule; the array-domain checks test arrays, not one parameter
    allowed = {"check_real", "_streams", "wilcoxon_pvalues", "tailrun_pvalues", "PValue"}
    literals = ("must lie in", "positive finite real", "non-negative finite real")
    found = []
    for path in sorted(Path(mixdetect.__file__).parent.glob("*.py")):
        source = path.read_text()
        spans = [(node.lineno, node.end_lineno, node.name) for node in ast.parse(source).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for lineno, line in enumerate(source.splitlines(), start=1):
            if any(text in line for text in literals):
                where = next((nm for a, b, nm in spans if a <= lineno <= b), None)
                if where not in allowed:
                    found.append(f"{path.name}:{lineno} ({where})")
    assert found == []
