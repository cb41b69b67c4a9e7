"""Two-sample test statistics.

All five statistics reject for large values under the positive-shift
alternative (the Y-sample stochastically larger).  The four rank statistics
depend on the data only through the pooled ordering; the likelihood-ratio
statistic additionally needs the model (F, epsilon, mu) and by design
ignores the X-sample, since F is supplied exactly.  Every kernel, lrt_stats
(also named lrt_stat) included, works along the last axis: one sample gives
a Python scalar, and a block of rows one value per row.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distributions import GGParams, MixtureAlt

HC = "HC"
WILCOXON = "WILCOXON"
KS = "KS"
TAILRUN = "TAILRUN"
LRT = "LRT"

ALL_STATISTICS = (LRT, HC, WILCOXON, KS, TAILRUN)


def check_tests(names) -> list:
    """names as a list; refused unless nonempty, known and never repeated."""
    names = list(names)
    if not names:
        raise ValueError("no tests selected")
    for i, t in enumerate(names):
        if t not in ALL_STATISTICS:
            raise ValueError(f"unknown test {t!r}; choose from {ALL_STATISTICS}")
        if t in names[:i]:
            raise ValueError(f"test {t!r} is selected more than once")
    return names

# largest log density ratio whose exp the LRT takes directly; exp overflows
# past log(DBL_MAX) ~ 709.78
_EXP_SAFE = 700.0


class TiesError(ValueError):
    """A value appears more than once in the pooled samples.

    value is the tied value; a simulation whose every redraw of a replicate
    tied gives value None and its own message.
    """

    def __init__(self, value, message=None):
        self.value = value
        super().__init__(message or (
            f"tied value {value!r} in the pooled sample; continuous data expected "
            "(use dejitter for file input with rounded values)"
        ))


def dejitter(x, y):
    """Break ties deterministically, keeping every strict inequality.

    The pooled values are taken in stable order (ascending; equal values x
    first, then in input order) and each is raised by the fewest ulps that
    make the sequence strictly increasing, so tied values become increasing
    in that order and no value passes one that was above it.  Values that
    need no raise keep their value (-0.0 comes back as +0.0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled, kind="stable")
    svals = pooled[order]
    # an order-preserving integer view of the floats, one step per ulp;
    # -0.0 and +0.0 share the key 0
    mag = np.abs(svals).view(np.int64)
    keys = np.where(svals < 0, -mag, mag)
    step = np.arange(keys.size, dtype=np.int64)
    raised = np.maximum.accumulate(keys - step) + step
    back = np.abs(raised).view(np.float64)
    out = np.empty_like(pooled)
    out[order] = np.where(raised < 0, -back, back)
    if not np.isfinite(out).all():
        raise ValueError(
            "cannot dejitter: values must be finite, with no tie at the largest float"
        )
    return out[: x.size], out[x.size :]


def pooled_indicator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X-origin indicator of the pooled sample in ascending order.

    Refuses an empty sample or a NaN, which has no rank, and raises
    TiesError naming the duplicated value if any pooled value repeats.
    """
    xs, ys = np.sort(x), np.sort(y)
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be nonempty")
    # np.sort puts NaNs last, so a sample holds one only if its last value is
    if math.isnan(xs[-1]) or math.isnan(ys[-1]):
        raise ValueError("samples must not contain NaN")
    # sorted runs first: the stable argsort (timsort) then only merges the two
    pooled = np.concatenate([xs, ys])
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


def _value(v):
    """A kernel's result: a Python scalar for one indicator, else the array."""
    return v.item() if v.ndim == 0 else v


# Each rank kernel f(xi, m, n, v=None) works along the last axis: xi is one
# sorted X-origin indicator, or a (rows, m+n) block of them with one value per
# row.  HC, Wilcoxon, KS and the tail run read only the running X-count
# v = np.cumsum(xi, axis=-1), which a block's kernels share: given v, a
# kernel reads no xi (it may be None), and given none, it takes its own.
def hc_from_indicator(xi: np.ndarray, m: int, n: int, v=None):
    """Rank-form higher criticism from the sorted X-origin indicator."""
    e0, sd0, c = _hc_null_moments(m, n)
    v = (np.cumsum(xi, axis=-1) if v is None else v)[..., :-1]
    return _value(c * np.max((v - e0) / sd0, axis=-1))


def hc_sup_form_from_indicator(xi: np.ndarray, m: int, n: int):
    """Sup-form higher criticism, evaluated at pooled order statistics.

    The index s = m+n is excluded since the pooled-ECDF denominator
    vanishes there.
    """
    N = m + n
    cx = np.cumsum(xi, axis=-1)[..., :-1]
    s = np.arange(1, N, dtype=float)
    fm = cx / m
    gn = (s - cx) / n
    h = s / N
    vals = np.sqrt(m * n / N) * (fm - gn) / np.sqrt(h * (1.0 - h))
    return _value(np.max(vals, axis=-1))


def wilcoxon_from_indicator(xi: np.ndarray, m: int, n: int, v=None):
    """U = #{(i, j): X_i < Y_j} from the running X-count.

    The running X-count summed over Y positions is U; over X positions it
    is 1 + ... + m, since the k-th X in pooled order sees k.
    """
    v = np.cumsum(xi, axis=-1) if v is None else v
    return _value(v.sum(axis=-1) - m * (m + 1) // 2)


def ks_from_indicator(xi: np.ndarray, m: int, n: int, v=None):
    """Signed one-sided sup of F_m - G_n; never below 0, since d = 0 at s = m+n."""
    cx = np.cumsum(xi, axis=-1) if v is None else v
    s = _rank_grid(m + n)
    d = cx / m - (s - cx) / n
    return _value(np.max(d, axis=-1))


def tailrun_from_indicator(xi: np.ndarray, m: int, n: int, v=None):
    """Run of Y-origin values at the top of the pooled ordering.

    The count first reaches m at the last X-origin value, which has
    #(v < m) values below it, so the run is m + n - 1 - #(v < m); x nonempty.
    """
    v = np.cumsum(xi, axis=-1) if v is None else v
    return _value(m + n - 1 - np.argmax(v == m, axis=-1))


def lrt_stats(y, p: GGParams, alt: MixtureAlt):
    """Oracle log-likelihood ratio of Y-samples at the alternative alt.

    Works along the last axis, like the rank kernels: a 1-D y gives a
    float, and a (rows, n) block of Y-samples one value per row (an empty
    (0,) array for a block of no rows).  Each term
    log((1-eps) + eps * f(y-mu)/f(y)) is written log1p(-eps) +
    log1p(eps/(1-eps) * exp(lr)), lr = log(f(y-mu)/f(y)): lrt_terms gives
    the second part, and the constant n * log1p(-eps) is added once per
    sum.  Each sample is summed whole, along the last axis, so every value
    is bit for bit the one its Y-sample gives alone.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] == 0:
        raise ValueError("y must be a nonempty 1-D sample or a (rows, n) block of them")
    if y.shape[0] == 0:
        return np.empty(0)
    totals = lrt_terms(y, p, alt).sum(axis=-1)
    totals += y.shape[-1] * math.log1p(-alt.epsilon)
    if not np.isfinite(totals).all():
        raise FloatingPointError("non-finite likelihood ratio term")
    return _value(totals)


def lrt_terms(y, p: GGParams, alt: MixtureAlt) -> np.ndarray:
    """log1p(eps/(1-eps) * exp(lr)) at every value of the array y: the terms
    of lrt_stats without their constant log1p(-eps).

    For gamma = 2 lr is the affine c*z - c^2/2 (z = y/scale, c = mu/scale),
    taken as y * (c/scale) - c^2/2 and exact far in the tail; other gamma
    take (|z|^gamma - |z - c|^gamma)/gamma.  Only when some lr exceeds
    _EXP_SAFE, where exp(lr) could overflow, is lr clamped and each large
    term set to logaddexp(0, log(eps/(1-eps)) + lr), the same value in log
    space, so tiny eps and huge density ratios are both handled stably; the
    clamp leaves every other term as it was.
    """
    if p.gamma == 2.0:
        c = alt.mu / p.scale
        lr = np.multiply(y, c / p.scale)
        lr -= 0.5 * c * c
    else:
        z_pow = np.abs(y / p.scale) ** p.gamma
        lr = np.subtract(y, alt.mu)
        lr /= p.scale
        np.abs(lr, out=lr)
        lr **= p.gamma
        np.subtract(z_pow, lr, out=lr)
        lr /= p.gamma
    odds = alt.epsilon / (1.0 - alt.epsilon)
    big = None
    if lr.max() > _EXP_SAFE:
        big = lr > _EXP_SAFE
        big_terms = np.logaddexp(0.0, math.log(odds) + lr[big])
        np.minimum(lr, _EXP_SAFE, out=lr)
    np.exp(lr, out=lr)
    lr *= odds
    np.log1p(lr, out=lr)
    if big is not None:
        lr[big] = big_terms
    return lr


# lrt_stats under a second name, the one perfbench/run.py hooks: one
# function, so that span times every LRT evaluation
lrt_stat = lrt_stats
