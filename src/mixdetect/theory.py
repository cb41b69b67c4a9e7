"""Closed-form detection boundaries and finite-n power-condition diagnostics.

The boundary formulas are exact.  The condition evaluators report the
left-hand side of each asymptotic power condition at a concrete n together
with its comparison scale; the ternary verdict compares the ratio against
fixed cutoffs (>= 10 yes, <= 0.1 no) so asymptotic statements can be probed
numerically without overclaiming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (GGParams, MixtureAlt, check_integer, check_real, gg_cdf, gg_pdf,
                            gg_survival)

_YES_RATIO = 10.0
_NO_RATIO = 0.1
_QUAD_ABS = 1e-10  # quad's requested tolerance on each piece
_QUAD_REL = 1e-8


@dataclass(frozen=True)
class ConditionReport:
    """LHS of a power condition, its comparison scale, and a ternary verdict."""

    lhs: float
    scale: float
    ratio: float
    verdict: str  # yes | no | inconclusive
    where: float | None = None  # maximizer location, when one exists


def quad_pieces(fn, cuts, upper: float = np.inf, *, what: str) -> float:
    """Integral of fn over (-inf, upper), by adaptive quadrature on each piece.

    The line is cut at every point of cuts below upper; cutting at each bump
    of the integrand keeps quad from stepping over it.  Where quad flags a
    piece as not converged and its own error estimate exceeds the requested
    tolerance, the value's accuracy is unknown: that raises ValueError
    naming `what`.
    """
    # imported here, not at the top: scipy.integrate loads scipy.optimize and
    # scipy.sparse, a third of the package's import time, and only this
    # function uses it
    from scipy import integrate

    edges = [-np.inf, *sorted({c for c in cuts if c < upper}), upper]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, err, _, *flag = integrate.quad(
            fn, a, b, epsabs=_QUAD_ABS, epsrel=_QUAD_REL, limit=200, full_output=1
        )
        if flag and err > max(_QUAD_ABS, _QUAD_REL * abs(val)):
            reason = flag[0].splitlines()[0].strip()
            raise ValueError(f"{what} did not converge ({reason})")
        total += val
    return total


def _report(lhs: float, scale: float, where: float | None = None) -> ConditionReport:
    ratio = lhs / scale
    if ratio >= _YES_RATIO:
        verdict = "yes"
    elif ratio <= _NO_RATIO:
        verdict = "no"
    else:
        verdict = "inconclusive"
    return ConditionReport(lhs=lhs, scale=scale, ratio=ratio, verdict=verdict, where=where)


def detection_boundary_sparse(beta: float, gamma: float) -> float:
    """Critical signal exponent r separating detectable from undetectable.

    Quoted for the sparse regime 1/2 < beta < 1; evaluates for any beta in
    (0, 1).
    """
    check_real("beta", beta, 0, 1)
    check_real("gamma", gamma, 0)
    if gamma <= 1.0:
        return 2.0 * beta - 1.0
    breakpoint_ = 1.0 - 2.0 ** (-gamma / (gamma - 1.0))
    if beta < breakpoint_:
        return (2.0 ** (1.0 / (gamma - 1.0)) - 1.0) ** (gamma - 1.0) * (beta - 0.5)
    return (1.0 - (1.0 - beta) ** (1.0 / gamma)) ** gamma


def detection_boundary_dense(beta: float, gamma: float) -> float:
    """Critical dense-shift exponent s below which the hypotheses merge."""
    check_real("beta", beta, 0, 0.5)
    check_real("gamma", gamma, 0)
    if gamma >= 0.5:
        return beta
    return 0.5 - (1.0 - 2.0 * beta) / (1.0 + 2.0 * gamma)


def hc_conditions(
    t: float,
    n: int,
    p: GGParams,
    alt: MixtureAlt,
    eta: float,
) -> tuple[ConditionReport, ConditionReport, ConditionReport]:
    """The three higher-criticism power conditions at threshold t and size n.

    (i) tail mass n*(sf(t) v eps*sf(t-mu)) against log^2 n; (ii) the
    normalized mean separation at t against log n; (iii) the median-threshold
    separation against log n (always evaluated at the median of F,
    regardless of t).  Where t lies so far in the tail that sf(t) and
    eps*eta*sf(t-mu) both underflow to 0, (ii) reads 0 (verdict no): its
    true value, at most sqrt(n * eps * sf(t-mu) / eta), is lost below the
    float range.
    """
    check_real("t", t)
    check_integer("n", n, 2)  # log n is the comparison scale
    check_real("eta", eta, 0, 0.5, "(]")
    eps, mu = alt.epsilon, alt.mu
    logn = math.log(n)
    sf_t = gg_survival(t, p)
    sf_tm = gg_survival(t - mu, p)
    lhs1 = n * max(sf_t, eps * sf_tm)
    den = sf_t + eps * eta * sf_tm
    lhs2 = math.sqrt(n) * eps * (sf_tm - sf_t) / math.sqrt(den) if den > 0 else 0.0
    sf_med_m = gg_survival(-mu, p)  # median of symmetric F is 0
    lhs3 = math.sqrt(n) * eps * (sf_med_m - 0.5)
    return (
        _report(lhs1, logn**2),
        _report(lhs2, logn),
        _report(lhs3, logn),
    )


def wilcoxon_condition(n: int, p: GGParams, alt: MixtureAlt) -> ConditionReport:
    """sqrt(n)*eps*(1/2 - integral of F(x - mu) dF(x)) against log n."""
    check_integer("n", n, 2)
    mu = alt.mu
    total = quad_pieces(
        lambda x: gg_cdf(x - mu, p) * gg_pdf(x, p),
        (-mu - 10 * p.scale, 0.0, mu / 2, mu, mu + 10 * p.scale),
        what=f"the Wilcoxon condition's integral at gamma={p.gamma!r}, mu={mu!r}",
    )
    lhs = math.sqrt(n) * alt.epsilon * (0.5 - total)
    return _report(lhs, math.log(n))


def ks_condition(n: int, p: GGParams, alt: MixtureAlt) -> ConditionReport:
    """sqrt(n)*eps*sup_t [sf(t - mu) - sf(t)], a divergence test (scale 1).

    The derivative f(t) - f(t - mu) changes sign only where |t| = |t - mu|,
    since the base density is symmetric and decreasing in |x|, so the sup
    sits exactly at t = mu/2 for every mu.
    """
    check_integer("n", n, 2)
    t = alt.mu / 2
    gap = gg_survival(t - alt.mu, p) - gg_survival(t, p)
    return _report(math.sqrt(n) * alt.epsilon * gap, 1.0, where=t)


@dataclass(frozen=True)
class TailRunCheck:
    """The two tail-run power-condition quantities at threshold t.

    tail_mass_x = m*sf(t) must vanish; run_margin = n*eps*sf(t - mu) - 2l
    must stay nonnegative for the run length l.
    """

    tail_mass_x: float
    run_margin: float


def tailrun_condition(
    t: float, m: int, n: int, p: GGParams, alt: MixtureAlt, l: int
) -> TailRunCheck:
    check_real("t", t)
    check_integer("m", m, 1)
    check_integer("n", n, 1)
    check_integer("l", l)
    return TailRunCheck(
        tail_mass_x=m * gg_survival(t, p),
        run_margin=n * alt.epsilon * gg_survival(t - alt.mu, p) - 2.0 * l,
    )


def lower_bound_integral(x_upper: float, p: GGParams, mu: float) -> float:
    """[ integral_{-inf}^{x_upper} f(x - mu)^2 / f(x) dx - 1 ]_+ by quadrature.

    The integrand is assembled in log space; for gamma = 2 it is a Gaussian
    bump at 2*mu with total mass exp(mu**2), which exceeds the float range
    from mu = 26.7 on.  An integral past the float range, or one on which
    quad does not converge (gamma = 0.3 at mu = 1e5, for one), raises
    ValueError.
    """
    check_real("mu", mu, 0, closed="[)")
    check_real("x_upper", x_upper, closed="[]")
    g, s = p.gamma, p.scale

    def integrand(x):
        log_f = -np.abs(x / s) ** g / g
        log_f_shift = -np.abs((x - mu) / s) ** g / g
        log_val = 2.0 * log_f_shift - log_f
        # reapply the normalization c/scale once (ratio of squared to single)
        return gg_pdf(0.0, p) * np.exp(log_val)

    cuts = (-mu - 10 * s, -10 * s, 0.0, mu, 2 * mu, 2 * mu + 10 * s)
    what = f"lower-bound integral at gamma={g!r}, mu={mu!r}"
    with np.errstate(over="ignore"):  # an overflow is reported below
        total = quad_pieces(integrand, cuts, x_upper, what=what)
    if not math.isfinite(total):
        raise ValueError(f"lower-bound integral exceeds the float range at mu={mu!r}")
    return max(total - 1.0, 0.0)
