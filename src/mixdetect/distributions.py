"""Generalized Gaussian distributions and contaminated location-shift mixtures.

The base family has density

    f(x) = c * exp(-|x/scale|**gamma / gamma) / scale,
    c = gamma**(1 - 1/gamma) / (2 * Gamma(1/gamma)),

so gamma=2 with scale=1 is the standard normal and gamma=1 the standard
double-exponential (which has variance 2; use scale=1/sqrt(2) for unit
variance).  The alternative model contaminates a fraction epsilon of draws
with a positive shift mu.

The functions that need Gamma or the incomplete gamma import scipy.special
when called, so that importing the package, sampling and every command but
diagnose load no SciPy; gg_survival needs it only at a gamma other than 1
and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT_HALF = math.sqrt(0.5)


def check_integer(name: str, value, least: int = 0) -> None:
    """Refuse a count, size, seed or thread count that is not an integer (a
    bool, a float or a string) or is below least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def check_real(name: str, value, low: float = -math.inf, high: float = math.inf,
               closed: str = "()") -> None:
    """Refuse a real-valued parameter that is not a real number (a bool, which
    would be read as 0 or 1, a string or None; numpy reals pass) or lies
    outside the interval from low to high, whose ends closed gives as "()",
    "(]", "[)" or "[]".  NaN lies in no interval."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    above = low <= value if closed[0] == "[" else low < value
    below = value <= high if closed[1] == "]" else value < high
    if not (above and below):
        raise ValueError(f"{name} must lie in {closed[0]}{low:g}, {high:g}{closed[1]}, got {value}")


@dataclass(frozen=True)
class GGParams:
    """Shape exponent and scale of a generalized Gaussian distribution."""

    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        for name in ("gamma", "scale"):
            check_real(name, getattr(self, name), 0)

    @property
    def variance(self) -> float:
        """Variance of the distribution (standard form times scale**2)."""
        from scipy import special

        g = self.gamma
        return (
            self.scale**2
            * g ** (2.0 / g)
            * special.gamma(3.0 / g)
            / special.gamma(1.0 / g)
        )

    @classmethod
    def double_exponential_unit_variance(cls) -> "GGParams":
        """gamma=1 scaled so that the variance is exactly 1."""
        return cls(gamma=1.0, scale=1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class MixtureAlt:
    """Contamination fraction and location shift defining the alternative."""

    epsilon: float
    mu: float

    def __post_init__(self):
        check_real("epsilon", self.epsilon, 0, 0.5)
        check_real("mu", self.mu, 0)


def _check_finite(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite evaluation point")
    return x


def _norm_const(gamma: float) -> float:
    from scipy import special

    return gamma ** (1.0 - 1.0 / gamma) / (2.0 * special.gamma(1.0 / gamma))


def gg_pdf(x, p: GGParams):
    """Density of the generalized Gaussian; symmetric about zero."""
    x = _check_finite(x)
    z = np.abs(x / p.scale)
    out = _norm_const(p.gamma) * np.exp(-(z**p.gamma) / p.gamma) / p.scale
    return out if out.ndim else float(out)


def gg_cdf(x, p: GGParams):
    """CDF via the regularized lower incomplete gamma function."""
    from scipy import special

    x = _check_finite(x)
    z = x / p.scale
    a = np.abs(z) ** p.gamma / p.gamma
    out = 0.5 + 0.5 * np.sign(z) * special.gammainc(1.0 / p.gamma, a)
    return out if out.ndim else float(out)


def gg_survival(x, p: GGParams):
    """Survival function 1 - CDF, full relative precision in the upper tail.

    Uses the complementary incomplete gamma directly for x >= 0 instead of
    subtracting the CDF from 1.  gamma = 2 is 0.5 * erfc(z / sqrt(2)), by
    math.erfc per value, and gamma = 1 is 0.5 * exp(-|z|) (or 1 minus it),
    so only another gamma imports scipy.special.
    """
    x = _check_finite(x)
    z = x / p.scale
    if p.gamma == 2.0:
        out = np.array([0.5 * math.erfc(v * _SQRT_HALF) for v in z.ravel().tolist()])
        out = out.reshape(z.shape)
    elif p.gamma == 1.0:
        upper = 0.5 * np.exp(-np.abs(z))
        out = np.where(z >= 0, upper, 1.0 - upper)
    else:
        from scipy import special

        a = np.abs(z) ** p.gamma / p.gamma
        inv_g = 1.0 / p.gamma
        upper = 0.5 * special.gammaincc(inv_g, a)  # x >= 0 branch
        lower = 0.5 + 0.5 * special.gammainc(inv_g, a)  # x < 0 branch
        out = np.where(z >= 0, upper, lower)
    return out if out.ndim else float(out)


def gg_quantile(q, p: GGParams):
    """Inverse CDF.  Inverts the incomplete-gamma representation directly."""
    from scipy import special

    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError("quantile level must lie strictly in (0, 1)")
    u = 2.0 * q - 1.0
    inv_g = 1.0 / p.gamma
    mag = p.scale * (p.gamma * special.gammaincinv(inv_g, np.abs(u))) ** inv_g
    out = np.sign(u) * mag
    return out if out.ndim else float(out)


def gg_sample(count: int, p: GGParams, rng: np.random.Generator) -> np.ndarray:
    """iid draws from the generalized Gaussian.

    gamma = 2 is drawn as scale * standard_normal, and gamma = 1 (Laplace)
    as scale * (E1 - E2), E1 and E2 two standard_exponential(count) draws
    in that order (Devroye 1986, ch. IX).  Any other gamma uses
    |X/scale|**gamma / gamma ~ Gamma(1/gamma) with a uniform sign.
    """
    check_integer("count", count)
    if p.gamma == 2.0:
        return p.scale * rng.standard_normal(count)
    if p.gamma == 1.0:
        return p.scale * (rng.standard_exponential(count) - rng.standard_exponential(count))
    w = rng.gamma(1.0 / p.gamma, size=count)
    sign = rng.integers(0, 2, size=count) * 2 - 1
    return sign * p.scale * (p.gamma * w) ** (1.0 / p.gamma)


def mixture_sample(
    count: int, p: GGParams, alt: MixtureAlt, rng: np.random.Generator
) -> np.ndarray:
    """Draws from (1-eps)*F + eps*F(. - mu): count draws from F, then one
    K ~ Binomial(count, eps), and the first K draws carry the shift mu.

    The output is exchangeable only as a multiset: it has the law of count
    iid mixture draws once its order is forgotten, which is all that the
    statistics here read (the ranks through the pooled order, the LRT as a
    sum over the sample).
    """
    base = gg_sample(count, p, rng)
    base[:rng.binomial(count, alt.epsilon)] += alt.mu
    return base


def _calibrated_epsilon(n: int, beta: float) -> float:
    """epsilon = n**-beta of both calibrations, refused unless below 1/2."""
    check_integer("n", n, 2)
    if (eps := n ** (-beta)) >= 0.5:
        raise ValueError(f"epsilon = n**-beta = {eps} >= 1/2; increase n or beta")
    return eps


def sparse_calibration(n: int, beta: float, r: float, gamma: float) -> MixtureAlt:
    """Sparse-regime epsilon = n**-beta, mu = (gamma*r*log n)**(1/gamma)."""
    check_real("beta", beta, 0, 1)
    check_real("r", r, 0, 1)
    check_real("gamma", gamma, 0)
    eps = _calibrated_epsilon(n, beta)
    mu = (gamma * r * math.log(n)) ** (1.0 / gamma)
    # a gamma near 0 underflows mu to 0, a huge one overflows it
    check_real(f"at gamma = {gamma}, mu = (gamma * r * log n)**(1/gamma)", mu, 0)
    return MixtureAlt(epsilon=eps, mu=mu)


def dense_calibration(n: int, beta: float, s: float) -> MixtureAlt:
    """Dense-regime epsilon = n**-beta, mu = n**(s - 1/2).

    s = 1/2 (constant shift mu = 1) is accepted as the closure of the range
    since the experiment grids include it.
    """
    check_real("beta", beta, 0, 0.5)
    check_real("s", s, 0, 0.5, "(]")
    return MixtureAlt(epsilon=_calibrated_epsilon(n, beta), mu=n ** (s - 0.5))
