import math
import re

import numpy as np
import pytest
from scipy import stats

from mixdetect import (
    GGParams,
    MixtureAlt,
    detection_boundary_dense,
    detection_boundary_sparse,
    hc_conditions,
    ks_condition,
    lower_bound_integral,
    tailrun_condition,
    wilcoxon_condition,
)

NORMAL = GGParams(gamma=2.0)


class TestSparseBoundary:
    def test_breakpoint_case(self):
        assert detection_boundary_sparse(0.75, 2.0) == pytest.approx(
            0.25, abs=1e-14
        )

    def test_first_branch(self):
        assert detection_boundary_sparse(0.6, 2.0) == pytest.approx(
            0.1, abs=1e-14
        )

    def test_gamma_leq_one(self):
        assert detection_boundary_sparse(0.8, 1.0) == pytest.approx(0.6)
        assert detection_boundary_sparse(0.8, 0.5) == pytest.approx(0.6)

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_continuity_at_breakpoint(self, gamma):
        bp = 1 - 2 ** (-gamma / (gamma - 1))
        left = detection_boundary_sparse(bp - 1e-13, gamma)
        right = detection_boundary_sparse(bp + 1e-13, gamma)
        assert abs(left - right) < 1e-12

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_monotone_in_beta(self, gamma):
        betas = np.linspace(0.51, 0.999, 100)
        vals = [detection_boundary_sparse(b, gamma) for b in betas]
        assert all(b >= a - 1e-15 for a, b in zip(vals[:-1], vals[1:]))

    @pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
    def test_limit_at_one(self, gamma):
        # exact gap at beta = 1 - d is ~ gamma * d**(1/gamma) (6.3e-5 already
        # at gamma = 2), so the bound tracks that rate
        gap = 2 * gamma * (1e-9) ** (1 / gamma)
        assert detection_boundary_sparse(1 - 1e-9, gamma) == pytest.approx(
            1.0, abs=gap
        )


class TestDenseBoundary:
    def test_values(self):
        assert detection_boundary_dense(0.2, 2.0) == pytest.approx(0.2)
        assert detection_boundary_dense(0.2, 0.25) == pytest.approx(0.1)

    def test_continuity_at_half_gamma(self):
        for beta in (0.1, 0.2, 0.4):
            lo = detection_boundary_dense(beta, 0.5 - 1e-13)
            hi = detection_boundary_dense(beta, 0.5)
            assert abs(lo - hi) < 1e-12

    def test_continuity_at_beta_half(self):
        for gamma in (0.25, 1.0, 2.0):
            assert detection_boundary_dense(0.5 - 1e-10, gamma) == pytest.approx(
                0.5, abs=1e-9
            )


class TestHcConditions:
    def test_epsilon_small_kills_separation(self):
        alt = MixtureAlt(epsilon=1e-12, mu=1.0)
        _, c2, c3 = hc_conditions(1.0, 10**4, NORMAL, alt, eta=0.5)
        assert abs(c2.lhs) < 1e-6
        assert abs(c3.lhs) < 1e-6

    def test_mu_small_kills_separation(self):
        alt = MixtureAlt(epsilon=0.1, mu=1e-10)
        _, c2, c3 = hc_conditions(1.0, 10**4, NORMAL, alt, eta=0.5)
        assert abs(c2.lhs) < 1e-6
        assert c3.lhs <= 1e-6

    def test_separation_grows_with_n_above_boundary(self):
        # beta = 0.6, r = 0.4 > boundary 0.1 and r >= r_gamma = 0.25, so the
        # threshold exponent q is capped at 1: t_n = sqrt(2 * log n)
        from mixdetect import sparse_calibration

        lhs = {}
        for n in (10**4, 10**6):
            alt = sparse_calibration(n, 0.6, 0.4, 2.0)
            t = math.sqrt(2 * math.log(n))
            _, c2, _ = hc_conditions(t, n, NORMAL, alt, eta=0.5)
            lhs[n] = c2.lhs
        assert lhs[10**6] > lhs[10**4]

    def test_verdict_yes_with_strong_signal(self):
        alt = MixtureAlt(epsilon=0.3, mu=5.0)
        _, _, c3 = hc_conditions(0.0, 10**6, NORMAL, alt, eta=0.5)
        assert c3.verdict == "yes"

    def test_eta_range(self):
        with pytest.raises(ValueError):
            hc_conditions(1.0, 100, NORMAL, MixtureAlt(0.1, 1.0), eta=0.6)

    @pytest.mark.parametrize("t", [40.0, 100.0, 1e6])
    def test_far_tail_reads_zero(self, t):
        # sf(t) and eps*eta*sf(t - mu) both underflow to 0 here, so the
        # separation's formula is 0/0 in floats: it reads 0, verdict no
        c1, c2, c3 = hc_conditions(t, 1000, NORMAL, MixtureAlt(0.1, 1.0), eta=0.5)
        assert (c1.lhs, c2.lhs) == (0.0, 0.0)
        assert (c1.verdict, c2.verdict) == ("no", "no")
        assert math.isfinite(c3.lhs) and c3.lhs > 0

    def test_tail_just_inside_float_range_unchanged(self):
        # t = 30: both survival terms are tiny but positive, so (ii) keeps
        # its formula
        alt = MixtureAlt(0.1, 1.0)
        sf_t, sf_tm = stats.norm.sf(30.0), stats.norm.sf(29.0)
        assert sf_t > 0
        expected = math.sqrt(1000) * 0.1 * (sf_tm - sf_t) / math.sqrt(sf_t + 0.05 * sf_tm)
        _, c2, _ = hc_conditions(30.0, 1000, NORMAL, alt, eta=0.5)
        assert c2.lhs == pytest.approx(expected, rel=1e-9)
        assert c2.lhs > 0


class TestWilcoxonCondition:
    def test_tiny_mu(self):
        rep = wilcoxon_condition(10**4, NORMAL, MixtureAlt(0.1, 1e-9))
        assert abs(rep.lhs) < 1e-6
        assert rep.verdict == "no"

    def test_huge_mu_saturates(self):
        n, eps = 10**4, 0.1
        rep = wilcoxon_condition(n, NORMAL, MixtureAlt(eps, 50.0))
        assert rep.lhs == pytest.approx(math.sqrt(n) * eps / 2, rel=1e-6)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_closed_form_gamma2(self, mu):
        # 1/2 - int Phi(x - mu) dPhi(x) = Phi(mu / sqrt 2) - 1/2
        n, eps = 10**4, 0.2
        rep = wilcoxon_condition(n, NORMAL, MixtureAlt(eps, mu))
        closed = math.sqrt(n) * eps * (stats.norm.cdf(mu / math.sqrt(2)) - 0.5)
        assert rep.lhs == pytest.approx(closed, abs=1e-6 * math.sqrt(n) * eps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma, mu, integral", [
        (0.3, 1e3, 2.60764517763702e-9), (0.4, 300.0, 2.28223897640311e-9),
    ])
    def test_flagged_piece_within_tolerance(self, gamma, mu, integral):
        # quad flags the piece next to the cusp of f at 0, yet its own error
        # estimate (3e-11) is within the requested 1e-10; the reference is a
        # 30-digit quadrature of the same pieces
        n, eps = 1000, 0.1
        rep = wilcoxon_condition(n, GGParams(gamma=gamma), MixtureAlt(eps, mu))
        assert 0.5 - rep.lhs / (math.sqrt(n) * eps) == pytest.approx(integral, abs=1e-12)


class TestKsCondition:
    @pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
    def test_maximizer_at_half_mu(self, mu):
        rep = ks_condition(10**4, NORMAL, MixtureAlt(0.1, mu))
        assert rep.where == pytest.approx(mu / 2, abs=1e-6)
        closed = 2 * stats.norm.cdf(mu / 2) - 1
        assert rep.lhs == pytest.approx(math.sqrt(10**4) * 0.1 * closed, rel=1e-8)

    def test_sup_dominates_pointwise(self):
        from mixdetect import gg_survival

        for gamma in (0.7, 1.0, 2.5):
            p = GGParams(gamma=gamma)
            alt = MixtureAlt(0.2, 1.3)
            rep = ks_condition(100, p, alt)
            at_half = gg_survival(alt.mu / 2 - alt.mu, p) - gg_survival(alt.mu / 2, p)
            assert rep.lhs >= 10 * 0.2 * at_half - 1e-12

    def test_tiny_mu(self):
        rep = ks_condition(10**4, NORMAL, MixtureAlt(0.1, 1e-9))
        assert abs(rep.lhs) < 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "gamma, mu", [(2.0, 20.0), (3.0, 10.0), (1.0, 100.0), (0.5, 1e3), (2.0, 1e6)]
    )
    def test_large_mu(self, gamma, mu):
        # sf(-t) = 1 - sf(t) for the symmetric base, so the sup is 1 - 2 sf(mu/2)
        from mixdetect import gg_survival

        p = GGParams(gamma=gamma)
        rep = ks_condition(10**4, p, MixtureAlt(0.1, mu))
        assert rep.where == mu / 2
        closed = 1.0 - 2.0 * gg_survival(mu / 2, p)
        assert rep.lhs == pytest.approx(math.sqrt(10**4) * 0.1 * closed, rel=1e-12)


class TestTailRunCondition:
    def test_far_threshold(self):
        chk = tailrun_condition(40.0, 10**5, 10**5, NORMAL, MixtureAlt(0.1, 1.0), l=3)
        assert chk.tail_mass_x == pytest.approx(0.0, abs=1e-12)
        assert chk.run_margin == pytest.approx(-6.0, abs=1e-6)

    def test_median_evaluation(self):
        n, eps, mu, l = 10**4, 0.01, 30.0, 2
        chk = tailrun_condition(mu, 10**4, n, NORMAL, MixtureAlt(eps, mu), l=l)
        assert chk.run_margin == pytest.approx(n * eps / 2 - 2 * l, rel=1e-9)

    def test_very_sparse_regime_values(self):
        from mixdetect import sparse_calibration

        n = m = 10**6
        alt = sparse_calibration(n, 0.8, 0.9, 2.0)
        t = math.sqrt(2 * 1.05 * math.log(n))
        chk = tailrun_condition(t, m, n, NORMAL, alt, l=1)
        assert chk.tail_mass_x < 1.0
        assert chk.run_margin > 0.0


class TestLowerBoundIntegral:
    def test_zero_mu(self):
        assert lower_bound_integral(np.inf, NORMAL, 0.0) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    def test_gaussian_closed_form(self, mu):
        val = lower_bound_integral(np.inf, NORMAL, mu)
        assert val == pytest.approx(math.exp(mu**2) - 1, rel=1e-6)

    def test_truncation_reduces(self):
        full = lower_bound_integral(np.inf, NORMAL, 1.0)
        truncated = lower_bound_integral(0.0, NORMAL, 1.0)
        assert 0.0 <= truncated < full

    def test_other_shapes_finite(self):
        for gamma in (0.7, 1.0, 3.0):
            val = lower_bound_integral(np.inf, GGParams(gamma=gamma), 1.0)
            assert np.isfinite(val) and val >= 0.0

    def test_negative_mu_rejected(self):
        # refused before any integration, with mu named
        for mu in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=re.escape(f"mu must lie in [0, inf), got {mu}")):
                lower_bound_integral(np.inf, NORMAL, mu)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", [26.5, 26.6])
    def test_inside_float_range(self, mu):
        # the integrand exceeds exp(700) near 2*mu, yet the integral is finite
        val = lower_bound_integral(np.inf, NORMAL, mu)
        assert val == pytest.approx(math.expm1(mu**2), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma, mu", [(2.0, 26.7), (2.0, 30.0), (1.0, 800.0)])
    def test_past_float_range_refused(self, gamma, mu):
        with pytest.raises(ValueError, match=f"float range at mu={mu!r}"):
            lower_bound_integral(np.inf, GGParams(gamma=gamma), mu)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma, mu", [(0.3, 1e5), (0.3, 1e6), (0.5, 1e5)])
    def test_non_convergence_refused(self, gamma, mu):
        # quad's error estimate exceeds the value on the two pieces at the
        # cusp x = mu; at (0.5, 1e5) it returned 1.154e274 against 1.175e274
        match = f"gamma={gamma!r}, mu={mu!r} did not converge"
        with pytest.raises(ValueError, match=match):
            lower_bound_integral(np.inf, GGParams(gamma=gamma), mu)


class TestConditionSizes:
    ALT = MixtureAlt(0.1, 1.0)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_n_below_two_refused(self, n):
        calls = [
            lambda: hc_conditions(1.0, n, NORMAL, self.ALT, eta=0.5),
            lambda: wilcoxon_condition(n, NORMAL, self.ALT),
            lambda: ks_condition(n, NORMAL, self.ALT),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"n must be at least 2, got {n}"):
                call()

    @pytest.mark.parametrize(
        "m, n, l, name",
        [(0, 10, 1, "m"), (-3, 10, 1, "m"), (10, 0, 1, "n"), (10, 10, -2, "l")],
    )
    def test_tailrun_sizes_refused(self, m, n, l, name):
        with pytest.raises(ValueError, match=f"{name} must be at least"):
            tailrun_condition(1.0, m, n, NORMAL, self.ALT, l=l)

    def test_smallest_sizes_accepted(self):
        hc_conditions(1.0, 2, NORMAL, self.ALT, eta=0.5)
        wilcoxon_condition(2, NORMAL, self.ALT)
        ks_condition(2, NORMAL, self.ALT)
        chk = tailrun_condition(1.0, 1, 1, NORMAL, self.ALT, l=0)
        assert chk.tail_mass_x >= 0.0
