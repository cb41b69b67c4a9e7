"""Null distributions and p-values.

Monte Carlo tables for the higher criticism and likelihood-ratio statistics,
limiting distributions for Wilcoxon and one-sided KS, and the exact negative
hypergeometric null for the tail run.  A rank statistic depends on the data
only through the pooled ordering, which under H0 (continuous data) is a
uniformly random arrangement of m X-labels and n Y-labels, so its null
table is simulated by shuffling those labels.

STATISTICS is the one table of the five tests: how each is computed and
how its p-value is found.  Every simulated replicate, in a null table here
or in the power harness, is a replicate() call in replicate_rows()'s loop.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

from . import statistics as st
from .distributions import GGParams, MixtureAlt, gg_cdf, gg_pdf, gg_sample, mixture_sample
from .theory import quad_pieces

# files of another version are refused (3: rank tables of RNG_SCHEME 3,
# which scheme 4 leaves unchanged; only rank-statistic files are ever read)
CACHE_FORMAT_VERSION = 3

# version of the harness's seed streams, recorded in its JSON output;
# scheme 3 draws each rank-null replicate as one random arrangement, and
# scheme 4 draws gamma = 2 and gamma = 1 samples directly (gg_sample) and
# sums the LRT in log1p form (lrt_stat); rank-null tables are unchanged
RNG_SCHEME = 4

_TINY_P = 1e-300

MONTE_CARLO = "monte-carlo"
NORMAL_APPROX = "normal-approx"
SMIRNOV_LIMIT = "smirnov-limit"
EXACT = "exact"

# purpose tags of the seed streams: replicate k of a stream draws from
# SeedSequence([master_seed, tag, *index, k]), so calibration draws never
# overlap power draws
TAG_CALIB_RANK = 101
TAG_CALIB_LRT = 102
TAG_POWER = 201
TAG_NULL = 202

# what one replicate samples
RANK_NULL = "rank-null"  # the indicator only: a shuffle of m ones and n zeros
LRT_NULL = "lrt-null"  # the Y-sample from F only (the LRT ignores X)
DATA = "data"  # X from F and Y from G, or from F when alt is None


@dataclass(frozen=True)
class NullTable:
    """Sorted Monte Carlo draws of a statistic under H0."""

    statistic: str
    m: int
    n: int
    draws: np.ndarray
    seed: int

    def __post_init__(self):
        d = self.draws
        if d.ndim != 1 or not np.all(np.isfinite(d)):
            raise ValueError("null-table draws must be a finite 1-D array")
        if np.any(d[1:] < d[:-1]):
            raise ValueError("null-table draws must be sorted")

    @property
    def reps(self) -> int:
        return int(self.draws.size)

    @property
    def key(self) -> tuple:
        """(statistic, m, n, reps, seed): what the table was simulated for."""
        return (self.statistic, self.m, self.n, self.reps, self.seed)


@dataclass(frozen=True)
class PValue:
    p: float
    method: str  # monte-carlo | normal-approx | smirnov-limit | exact

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p-value must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class Statistic:
    """One test: its statistic and its p-value.

    kernel names the rank kernel in `statistics`, f(xi, m, n) on the pooled
    X-origin indicator; it is looked up at call time, so a wrapper put on
    that module sees every call.  The LRT has no kernel: it reads the
    Y-sample and the model.  pvalues(values, m, n, table) maps an array of
    statistic values to p-values; a Monte-Carlo test needs its null table.
    extra(value, m, n) gives further fields for a test report.
    """

    name: str
    kernel: str | None
    pvalues: Callable
    method: str
    extra: Callable | None = None

    @property
    def rank(self) -> bool:
        return self.kernel is not None

    @property
    def monte_carlo(self) -> bool:
        return self.method == MONTE_CARLO

    def value(self, xi, y, m: int, n: int, model=None, alt=None) -> float:
        if self.kernel is None:
            return st.lrt_stat(y, model, alt).value
        return float(getattr(st, self.kernel)(xi, m, n))

    def pvalue(self, value: float, m: int, n: int, table=None) -> PValue:
        p = self.pvalues(np.asarray(value, dtype=float), m, n, table)
        return PValue(p=float(p), method=self.method)


def _derived_rng(parts, retry: int = 0) -> np.random.Generator:
    entropy = list(parts) + ([retry] if retry else [])
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _draw_pooled(model, alt, m, n, parts):
    """The Y-sample and pooled X-origin indicator of simulated data.

    A float tie is redrawn from the stream (parts, retry).
    """
    for retry in range(100):
        rng = _derived_rng(parts, retry)
        x = gg_sample(m, model, rng)
        y = gg_sample(n, model, rng) if alt is None else mixture_sample(n, model, alt, rng)
        try:
            return y, st.pooled_indicator(x, y)
        except st.TiesError:
            continue
    raise st.TiesError("persistent ties in simulated continuous data")


def replicate(kind, stats, model, alt, lrt_alts, m, n, parts) -> list[float]:
    """Values of stats on one replicate drawn from the stream `parts`.

    kind is RANK_NULL, LRT_NULL or DATA; alt is the alternative the Y-sample
    is drawn from (DATA only).  A rank statistic gives one value, the LRT
    one value per alternative in lrt_alts, all on the same sample.
    """
    if kind == RANK_NULL:
        labels = np.repeat(np.array([1, 0], dtype=np.int64), [m, n])
        y, xi = None, _derived_rng(parts).permutation(labels)
    elif kind == LRT_NULL:
        y, xi = gg_sample(n, model, _derived_rng(parts)), None
    else:
        y, xi = _draw_pooled(model, alt, m, n, parts)
    return [
        s.value(xi, y, m, n, model, a)
        for s in stats
        for a in ((None,) if s.rank else lrt_alts)
    ]


def replicate_rows(kind, tests, model, alt, lrt_alts, m, n, parts, k0, k1) -> np.ndarray:
    """Rows of replicate() on (*parts, k), k0 <= k < k1; tests are names, so they pickle."""
    stats = [STATISTICS[t] for t in tests]
    rows = [replicate(kind, stats, model, alt, lrt_alts, m, n, [*parts, k])
            for k in range(k0, k1)]
    return np.array(rows, dtype=float)


def mc_null_table(
    statistic: str,
    m: int,
    n: int,
    reps: int,
    master_seed: int,
    model: tuple[GGParams, MixtureAlt] | None = None,
) -> NullTable:
    """Simulate the null distribution of a statistic.

    A rank statistic is simulated on random arrangements of m X-labels and
    n Y-labels, replicate k from the stream (master_seed, TAG_CALIB_RANK, k).
    The LRT needs the model and draws its Y-sample from F, replicate k from
    (master_seed, TAG_CALIB_LRT, k), the stream the power harness evaluates
    at every grid point.  Its draws are one replicate_rows call (the harness's loop).
    """
    if reps < 100:
        raise ValueError("reps must be at least 100")
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be at least 1, got m={m}, n={n}")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    stat = STATISTICS[statistic]
    if not stat.rank and model is None:
        raise ValueError("LRT calibration requires the model (GGParams, MixtureAlt)")
    kind, tag = (RANK_NULL, TAG_CALIB_RANK) if stat.rank else (LRT_NULL, TAG_CALIB_LRT)
    p, alt = model or (None, None)
    draws = replicate_rows(kind, [statistic], p, None, [alt], m, n, [master_seed, tag], 0, reps)
    return NullTable(statistic, m, n, np.sort(draws[:, 0]), master_seed)


def mc_pvalues(values, table: NullTable) -> np.ndarray:
    """Add-one Monte Carlo p-values: (1 + #{draws >= value}) / (R + 1)."""
    r = table.reps
    n_ge = r - np.searchsorted(table.draws, values, side="left")
    return (1 + n_ge) / (r + 1)


def mc_pvalue(value: float, table: NullTable) -> PValue:
    """Scalar form of mc_pvalues."""
    return PValue(p=float(mc_pvalues(value, table)), method=MONTE_CARLO)


def wilcoxon_pvalues(u, m: int, n: int) -> np.ndarray:
    """Upper-tail normal approximation with continuity correction."""
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0) & (u <= m * n)):
        raise ValueError(f"U must lie in [0, mn], got {u}")
    sd = math.sqrt(m * n * (m + n + 1) / 12.0)
    z = (u - 0.5 - m * n / 2.0) / sd
    return np.maximum(special.ndtr(-z), _TINY_P)


def wilcoxon_pvalue(u, m: int, n: int) -> PValue:
    """Scalar form of wilcoxon_pvalues."""
    return PValue(p=float(wilcoxon_pvalues(u, m, n)), method=NORMAL_APPROX)


def wilcoxon_exact_null(m: int, n: int) -> np.ndarray:
    """Exact null pmf of U over {0, ..., mn} by the rank-sum recursion."""
    if m + n > 24:
        raise ValueError("exact enumeration limited to m + n <= 24")
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    # counts[i, j, u]: arrangements of i X's and j Y's with U = u
    top = m * n
    counts = np.zeros((m + 1, n + 1, top + 1))
    counts[0, :, 0] = 1.0
    counts[:, 0, 0] = 1.0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            counts[i, j, :] = counts[i, j - 1, :]
            counts[i, j, j:] += counts[i - 1, j, : top + 1 - j]
    return counts[m, n, :] / math.comb(m + n, n)


def _mixture_cdf(x, p: GGParams, alt: MixtureAlt):
    return (1 - alt.epsilon) * gg_cdf(x, p) + alt.epsilon * gg_cdf(x - alt.mu, p)


def _mixture_pdf(x, p: GGParams, alt: MixtureAlt):
    return (1 - alt.epsilon) * gg_pdf(x, p) + alt.epsilon * gg_pdf(x - alt.mu, p)


def wilcoxon_alt_moments(
    p: GGParams, alt: MixtureAlt, m: int, n: int
) -> tuple[float, float]:
    """Mean and variance of U/mn under the mixture alternative.

    The three cross-moments of (F, G) are evaluated by adaptive quadrature
    and assembled with the classical large-sample variance identity.
    """
    # split around both mixture components so quad never misses a bump
    s, mu = p.scale, alt.mu
    cuts = (-mu - 10 * s, -10 * s, 0.0, mu / 2, mu, mu + 10 * s)
    f_dg = quad_pieces(lambda x: gg_cdf(x, p) * _mixture_pdf(x, p, alt), cuts)
    f2_dg = quad_pieces(lambda x: gg_cdf(x, p) ** 2 * _mixture_pdf(x, p, alt), cuts)
    bar_g2_df = quad_pieces(
        lambda x: (1.0 - _mixture_cdf(x, p, alt)) ** 2 * gg_pdf(x, p), cuts
    )
    lam = 0.5 - f_dg
    eps1 = 1.0 / 3.0 - f2_dg
    eps2 = 1.0 / 3.0 - bar_g2_df
    var = (
        (m + n + 1) / 12.0
        + (m - 1) * (lam - eps1)
        + (n - 1) * (lam - eps2)
        - lam**2 * (m + n - 1)
    ) / (m * n)
    return f_dg, var


def ks_lambda(d, m: int, n: int):
    """lambda = sqrt(mn/(m+n)) * D, the scale on which the limit law lives."""
    return np.sqrt(m * n / (m + n)) * d


def ks_pvalues(lam) -> np.ndarray:
    """One-sided Smirnov limit: p = exp(-2 * lambda**2) for lambda > 0."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambda must be finite")
    return np.where(lam <= 0, 1.0, np.maximum(np.exp(-2.0 * lam * lam), _TINY_P))


def ks_pvalue(lam: float) -> PValue:
    """Scalar form of ks_pvalues."""
    return PValue(p=float(ks_pvalues(lam)), method=SMIRNOV_LIMIT)


def _tailrun_log_sf(l, m: int, n: int):
    # log P0(L* >= l) = log prod_{j=0}^{l-1} (n-j)/(m+n-j)
    return (
        special.gammaln(n + 1)
        - special.gammaln(n - l + 1)
        + special.gammaln(m + n - l + 1)
        - special.gammaln(m + n + 1)
    )


def tailrun_pvalues(ls, m: int, n: int) -> np.ndarray:
    """Exact P0(L* >= l) from the negative hypergeometric null."""
    ls = np.asarray(ls, dtype=int)
    if not np.all((ls >= 0) & (ls <= n)):
        raise ValueError(f"l must lie in [0, {n}], got {ls}")
    sf = np.exp(_tailrun_log_sf(ls, m, n))
    return np.where(ls == 0, 1.0, np.maximum(sf, _TINY_P))


def tailrun_pvalue(l: int, m: int, n: int) -> PValue:
    """Scalar form of tailrun_pvalues."""
    return PValue(p=float(tailrun_pvalues(l, m, n)), method=EXACT)


def tailrun_null_pmf(m: int, n: int) -> np.ndarray:
    """Exact null pmf of the tail run over {0, ..., n}."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    sf = np.append(np.exp(_tailrun_log_sf(np.arange(n + 1), m, n)), 0.0)
    return sf[:-1] - sf[1:]


# the five tests, in the order of statistics.ALL_STATISTICS; like the
# kernels, the p-value functions are looked up at call time
STATISTICS = {
    s.name: s
    for s in (
        Statistic(st.LRT, None, lambda v, m, n, t: mc_pvalues(v, t), MONTE_CARLO),
        Statistic(st.HC, "hc_from_indicator", lambda v, m, n, t: mc_pvalues(v, t), MONTE_CARLO),
        Statistic(st.WILCOXON, "wilcoxon_from_indicator",
                  lambda v, m, n, t: wilcoxon_pvalues(v, m, n), NORMAL_APPROX),
        Statistic(st.KS, "ks_from_indicator",
                  lambda v, m, n, t: ks_pvalues(ks_lambda(v, m, n)), SMIRNOV_LIMIT,
                  extra=lambda d, m, n: {"lambda": float(ks_lambda(d, m, n))}),
        Statistic(st.TAILRUN, "tailrun_from_indicator",
                  lambda v, m, n, t: tailrun_pvalues(v, m, n), EXACT),
    )
}


def _npz_path(path) -> Path:
    """path with the .npz suffix that numpy appends on save."""
    path = Path(path)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def save_null_table(table: NullTable, path, force: bool = False) -> Path:
    """Write a null-table cache file (bit-exact round trip, versioned).

    Returns the path written, which ends in .npz.
    """
    path = _npz_path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True to overwrite")
    np.savez(
        path,
        version=np.int64(CACHE_FORMAT_VERSION),
        statistic=np.str_(table.statistic),
        m=np.int64(table.m),
        n=np.int64(table.n),
        reps=np.int64(table.reps),
        seed=np.int64(table.seed),
        draws=table.draws,
    )
    return path


def load_null_table(path) -> NullTable:
    """Read a cache file; ValueError unless it is intact and of this version.

    Like save_null_table, it adds a missing .npz suffix to path.
    """
    path = _npz_path(path)
    try:
        with np.load(path) as data:
            version = int(data["version"])
            if version != CACHE_FORMAT_VERSION:
                raise ValueError(f"unsupported cache format version {version}")
            table = NullTable(
                statistic=str(data["statistic"]),
                m=int(data["m"]),
                n=int(data["n"]),
                draws=data["draws"].copy(),
                seed=int(data["seed"]),
            )
            reps = int(data["reps"])
    except (KeyError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a null-table file: {e}") from None
    if table.reps != reps:
        raise ValueError(f"{table.reps} draws but reps = {reps}")
    return table


def cache_key(statistic: str, m: int, n: int, reps: int, seed: int) -> str:
    return f"{statistic}_m{m}_n{n}_r{reps}_s{seed}.npz"
