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


@dataclass(frozen=True)
class StatValue:
    name: str
    value: float


@dataclass(frozen=True)
class RankProfile:
    """v[s-1] counts X-origin values among the s smallest pooled, s=1..m+n-1."""

    v: np.ndarray
    m: int
    n: int


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


def rank_profile(ts: TwoSample) -> RankProfile:
    xi = pooled_indicator(ts.x, ts.y)
    return RankProfile(v=np.cumsum(xi)[:-1], m=ts.m, n=ts.n)


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


def hc_stat(ts: TwoSample) -> StatValue:
    xi = pooled_indicator(ts.x, ts.y)
    return StatValue(HC, hc_from_indicator(xi, ts.m, ts.n))


def hc_stat_sup_form(ts: TwoSample) -> StatValue:
    xi = pooled_indicator(ts.x, ts.y)
    return StatValue(HC, hc_sup_form_from_indicator(xi, ts.m, ts.n))


def wilcoxon_u(ts: TwoSample) -> StatValue:
    xi = pooled_indicator(ts.x, ts.y)
    return StatValue(WILCOXON, float(wilcoxon_from_indicator(xi, ts.m, ts.n)))


def ks_one_sided(ts: TwoSample) -> StatValue:
    xi = pooled_indicator(ts.x, ts.y)
    return StatValue(KS, ks_from_indicator(xi, ts.m, ts.n))


def tail_run(ts: TwoSample) -> StatValue:
    xi = pooled_indicator(ts.x, ts.y)
    return StatValue(TAILRUN, float(tailrun_from_indicator(xi, ts.m, ts.n)))


def lrt_stat(y, p: GGParams, alt: MixtureAlt) -> StatValue:
    """Oracle log-likelihood ratio of the Y-sample under the true model.

    Each term log((1-eps) + eps * f(y-mu)/f(y)) is written
    log1p(-eps) + log1p(eps/(1-eps) * exp(lr)), lr = log(f(y-mu)/f(y)), and
    the constant n * log1p(-eps) is added once.  Where exp(lr) would
    overflow the term is logaddexp(0, log(eps/(1-eps)) + lr), the same value
    in log space, so tiny eps and huge density ratios are both handled
    stably.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("y must be nonempty")
    z = y / p.scale
    zs = (y - alt.mu) / p.scale
    log_ratio = (np.abs(z) ** p.gamma - np.abs(zs) ** p.gamma) / p.gamma
    odds = alt.epsilon / (1.0 - alt.epsilon)
    terms = np.log1p(odds * np.exp(np.minimum(log_ratio, _EXP_SAFE)))
    big = log_ratio > _EXP_SAFE
    if big.any():
        terms[big] = np.logaddexp(0.0, math.log(odds) + log_ratio[big])
    total = float(np.sum(terms) + y.size * math.log1p(-alt.epsilon))
    if not np.isfinite(total):
        raise FloatingPointError("non-finite likelihood ratio term")
    return StatValue(LRT, total)
