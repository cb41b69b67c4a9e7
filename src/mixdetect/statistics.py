"""Two-sample test statistics.

All five statistics reject for large values under the positive-shift
alternative (the Y-sample stochastically larger).  The four rank statistics
depend on the data only through the pooled ordering; the likelihood-ratio
statistic additionally needs the model (F, epsilon, mu) and by design
ignores the X-sample, since F is supplied exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import GGParams, MixtureAlt

HC = "HC"
WILCOXON = "WILCOXON"
KS = "KS"
TAILRUN = "TAILRUN"
LRT = "LRT"

ALL_STATISTICS = (LRT, HC, WILCOXON, KS, TAILRUN)

# largest log density ratio whose exp the LRT takes directly; exp overflows
# past log(DBL_MAX) ~ 709.78
_EXP_SAFE = 700.0


class TiesError(ValueError):
    """A value appears more than once in the pooled samples."""

    def __init__(self, value):
        self.value = value
        super().__init__(
            f"tied value {value!r} in the pooled sample; continuous data expected "
            "(use dejitter for file input with rounded values)"
        )


@dataclass
class TwoSample:
    """Control sample x (from F) and test sample y (from G)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.size < 1 or self.y.size < 1:
            raise ValueError("both samples must be nonempty")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("samples must contain only finite values")

    @property
    def m(self) -> int:
        return self.x.size

    @property
    def n(self) -> int:
        return self.y.size


def dejitter(x, y):
    """Break ties deterministically by adding ulp-scale offsets.

    Offsets grow with stable input order (x first, then y), so repeated
    values become strictly increasing in that order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = np.concatenate([x, y])
    step = np.spacing(max(1.0, float(np.max(np.abs(pooled)))))
    offsets = np.arange(pooled.size) * step
    jittered = pooled + offsets
    return jittered[: x.size], jittered[x.size :]


def pooled_indicator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X-origin indicator of the pooled sample in ascending order.

    Raises TiesError naming the duplicated value if any pooled value repeats.
    """
    # sorted runs first: the stable argsort (timsort) then only merges the two
    pooled = np.concatenate([np.sort(x), np.sort(y)])
    order = np.argsort(pooled, kind="stable")
    svals = pooled[order]
    dup = svals[1:] == svals[:-1]
    if dup.any():
        raise TiesError(float(svals[:-1][dup][0]))
    return (order < x.size).astype(np.int64)


# The per-(m, n) constants of the rank kernels, shared by every replicate of
# a table or a power point; read-only so no caller can alter a later one.
@functools.lru_cache(maxsize=8)
def _rank_grid(N: int) -> np.ndarray:
    """The ranks 1, ..., N as floats."""
    s = np.arange(1, N + 1, dtype=float)
    s.setflags(write=False)
    return s


@functools.lru_cache(maxsize=8)
def _hc_null_moments(m: int, n: int):
    """Mean and sd of v[s-1] under H0, s = 1..N-1, and sqrt(N/(N-1))."""
    N = m + n
    s = _rank_grid(N)[:-1]
    e0 = m * s / N
    sd0 = np.sqrt(m * n * s * (N - s) / (N * N * (N - 1.0)))
    e0.setflags(write=False)
    sd0.setflags(write=False)
    return e0, sd0, np.sqrt(N / (N - 1.0))


def hc_from_indicator(xi: np.ndarray, m: int, n: int) -> float:
    """Rank-form higher criticism from the sorted X-origin indicator."""
    e0, sd0, c = _hc_null_moments(m, n)
    v = np.cumsum(xi)[:-1]
    return float(c * np.max((v - e0) / sd0))


def hc_sup_form_from_indicator(xi: np.ndarray, m: int, n: int) -> float:
    """Sup-form higher criticism, evaluated at pooled order statistics.

    The index s = m+n is excluded since the pooled-ECDF denominator
    vanishes there.
    """
    N = m + n
    cx = np.cumsum(xi)[:-1]
    s = np.arange(1, N, dtype=float)
    fm = cx / m
    gn = (s - cx) / n
    h = s / N
    vals = np.sqrt(m * n / N) * (fm - gn) / np.sqrt(h * (1.0 - h))
    return float(np.max(vals))


def wilcoxon_from_indicator(xi: np.ndarray, m: int, n: int) -> int:
    """U = #{(i, j): X_i < Y_j} via a single cumulative pass.

    The running X-count summed over Y positions is U; over X positions it
    is 1 + ... + m, since the k-th X in pooled order sees k.
    """
    return int(np.cumsum(xi).sum() - m * (m + 1) // 2)


def ks_from_indicator(xi: np.ndarray, m: int, n: int) -> float:
    """Signed one-sided sup of F_m - G_n; never below 0 (sup over all t)."""
    cx = np.cumsum(xi)
    s = _rank_grid(m + n)
    d = cx / m - (s - cx) / n
    return float(max(0.0, np.max(d)))


def tailrun_from_indicator(xi: np.ndarray, m: int, n: int) -> int:
    """Run of Y-origin values at the top of the pooled ordering."""
    rev = xi[::-1]
    return int(np.argmax(rev))  # first X-origin from the top; x nonempty


# The per-alternative constants of lrt_stats at sample size n: (k, 1)
# columns, and flat rows for the log odds and n * log1p(-eps).  Each is
# computed in Python floats, one alternative at a time, so every row takes
# the same values a one-alternative call does; shared by every replicate of
# an alternative set and read-only so no caller can alter a later one.
@functools.lru_cache(maxsize=32)
def _lrt_constants(p: GGParams, alts: tuple, n: int):
    def column(values):
        col = np.array(values, dtype=float).reshape(-1, 1)
        col.setflags(write=False)
        return col

    if p.gamma == 2.0:
        cs = [a.mu / p.scale for a in alts]
        lr_consts = (column([c / p.scale for c in cs]), column([0.5 * c * c for c in cs]))
    else:
        lr_consts = (column([a.mu for a in alts]),)
    odds = [a.epsilon / (1.0 - a.epsilon) for a in alts]
    log_odds = column([math.log(o) for o in odds]).ravel()
    n_log1p_eps = column([n * math.log1p(-a.epsilon) for a in alts]).ravel()
    return lr_consts, column(odds), log_odds, n_log1p_eps


def lrt_stats(y, p: GGParams, alts) -> np.ndarray:
    """Oracle log-likelihood ratio of the Y-sample at each alternative in alts.

    Row i of a (len(alts), n) array holds the terms of alternative i; each
    term log((1-eps) + eps * f(y-mu)/f(y)) is written
    log1p(-eps) + log1p(eps/(1-eps) * exp(lr)), lr = log(f(y-mu)/f(y)), and
    the constant n * log1p(-eps) is added once per row.  For gamma = 2 lr is
    the affine c*z - c^2/2 (z = y/scale, c = mu/scale), taken as
    y * (c/scale) - c^2/2 and exact far in the tail; other gamma take
    (|z|^gamma - |z - c|^gamma)/gamma, with |z|^gamma shared by every row.
    Only when some lr exceeds _EXP_SAFE, where exp(lr) could overflow, is lr
    clamped and each large term set to logaddexp(0, log(eps/(1-eps)) + lr),
    the same value in log space, so tiny eps and huge density ratios are both
    handled stably.  Every row is summed whole, so row i is bit for bit the
    value of lrt_stat(y, p, alts[i]).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("y must be a nonempty 1-D sample")
    alts = tuple(alts)
    if not alts:
        raise ValueError("alts must be nonempty")
    lr_consts, odds, log_odds, n_log1p_eps = _lrt_constants(p, alts, y.size)
    if p.gamma == 2.0:
        slope, offset = lr_consts
        lr = np.multiply(y, slope)
        lr -= offset
    else:
        (mu,) = lr_consts
        z_pow = np.abs(y / p.scale) ** p.gamma
        lr = np.subtract(y, mu)
        lr /= p.scale
        np.abs(lr, out=lr)
        lr **= p.gamma
        np.subtract(z_pow, lr, out=lr)
        lr /= p.gamma
    big = None
    if lr.max() > _EXP_SAFE:
        big = np.nonzero(lr > _EXP_SAFE)
        big_terms = np.logaddexp(0.0, log_odds[big[0]] + lr[big])
        np.minimum(lr, _EXP_SAFE, out=lr)
    np.exp(lr, out=lr)
    lr *= odds
    np.log1p(lr, out=lr)
    if big is not None:
        lr[big] = big_terms
    totals = lr.sum(axis=1)
    totals += n_log1p_eps
    if not all(map(math.isfinite, totals.tolist())):
        raise FloatingPointError("non-finite likelihood ratio term")
    return totals


def lrt_stat(y, p: GGParams, alt: MixtureAlt) -> float:
    """The oracle LRT at one alternative: the one-row case of lrt_stats."""
    return float(lrt_stats(y, p, (alt,))[0])
