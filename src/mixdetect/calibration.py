"""Null distributions and p-values.

Monte Carlo tables for the higher criticism and likelihood-ratio statistics,
limiting distributions for Wilcoxon and one-sided KS, and the exact negative
hypergeometric null for the tail run.  A rank statistic depends on the data
only through the pooled ordering, which under H0 (continuous data) is a
uniformly random arrangement of m X-labels and n Y-labels, so its null
table is simulated by shuffling those labels.

STATISTICS is the one table of the five tests: how each is computed and
how its p-value is found.  Every Monte Carlo null table, mc_null_table's or
the power harness's, is built by _null_tables, and every simulated
replicate is a replicate() call in replicate_rows()'s loop.
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

# version of the null-table file format; files of another version are
# refused (4: an LRT file also carries the gamma, scale, eps and mu it was
# simulated for)
CACHE_FORMAT_VERSION = 4

# version of the harness's seed streams and statistic values, recorded in
# its JSON output; a change to either moves it (README lists each scheme)
RNG_SCHEME = 6

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
    """Sorted Monte Carlo draws of a statistic under H0.

    model is the (GGParams, MixtureAlt) an LRT table was simulated for; a
    rank table has none.
    """

    statistic: str
    m: int
    n: int
    draws: np.ndarray
    seed: int
    model: tuple[GGParams, MixtureAlt] | None = None

    def __post_init__(self):
        d = self.draws
        if d.ndim != 1 or not np.all(np.isfinite(d)):
            raise ValueError("null-table draws must be a finite 1-D array")
        if np.any(d[1:] < d[:-1]):
            raise ValueError("null-table draws must be sorted")
        if (self.model is None) == (self.statistic == st.LRT):
            raise ValueError("an LRT table, and only an LRT table, carries its model")

    @property
    def reps(self) -> int:
        return int(self.draws.size)

    @property
    def key(self) -> tuple:
        """What the table was simulated for: (statistic, m, n, reps, seed),
        followed for an LRT table by its gamma, scale, eps and mu."""
        key = (self.statistic, self.m, self.n, self.reps, self.seed)
        if self.model is None:
            return key
        p, alt = self.model
        return (*key, p.gamma, p.scale, alt.epsilon, alt.mu)


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
    Y-sample and the model, and lrt_stats gives its value at every
    alternative of a replicate in one call.  pvalues(values, m, n, table)
    maps an array of statistic values to p-values; a Monte-Carlo test needs
    its null table.  extra(value, m, n) gives further fields for a test
    report.
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

    def values(self, xi, y, m: int, n: int, model=None, alts=()) -> list[float]:
        """One value for a rank statistic; the LRT's at each alternative in alts."""
        if self.kernel is None:
            return st.lrt_stats(y, model, alts).tolist()
        return [float(getattr(st, self.kernel)(xi, m, n))]

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
    one value per alternative in lrt_alts, all on the same sample and from
    one lrt_stats call.
    """
    if kind == RANK_NULL:
        labels = np.repeat(np.array([1, 0], dtype=np.int64), [m, n])
        y, xi = None, _derived_rng(parts).permutation(labels)
    elif kind == LRT_NULL:
        y, xi = gg_sample(n, model, _derived_rng(parts)), None
    else:
        y, xi = _draw_pooled(model, alt, m, n, parts)
    return [v for s in stats for v in s.values(xi, y, m, n, model, lrt_alts)]


def replicate_rows(kind, tests, model, alt, lrt_alts, m, n, parts, k0, k1) -> np.ndarray:
    """Rows of replicate() on (*parts, k), k0 <= k < k1; tests are names, so they pickle."""
    stats = [STATISTICS[t] for t in tests]
    rows = [replicate(kind, stats, model, alt, lrt_alts, m, n, [*parts, k])
            for k in range(k0, k1)]
    return np.array(rows, dtype=float)


def _serial(kind, model, alt, lrt_alts, m, n, tests, seed_parts, reps) -> np.ndarray:
    """reps replicates in this process, as one replicate_rows call; row i
    holds value i of every replicate."""
    return replicate_rows(kind, tests, model, alt, lrt_alts, m, n, seed_parts, 0, reps).T


def _null_tables(statistic, m, n, reps, seed, p=None, alts=(), collect=_serial) -> list:
    """Sorted null tables of statistic, from replicate k of (seed, tag, k).

    A rank statistic gives one table, simulated on random arrangements of
    m X-labels and n Y-labels (tag TAG_CALIB_RANK).  The LRT draws its
    Y-sample from F = p (tag TAG_CALIB_LRT) and gives one table per
    alternative in alts, table i carrying the model (p, alts[i]).  collect
    runs the replicates: it is called positionally as _serial is, and the
    power harness passes its own, which uses the run's pool.
    """
    if reps < 100:
        raise ValueError("reps must be at least 100")
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be at least 1, got m={m}, n={n}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    rank = STATISTICS[statistic].rank
    if not rank and p is None:
        raise ValueError("LRT calibration requires the model (GGParams, MixtureAlt)")
    kind, tag = (RANK_NULL, TAG_CALIB_RANK) if rank else (LRT_NULL, TAG_CALIB_LRT)
    columns = collect(kind, p, None, alts, m, n, [statistic], [seed, tag], reps)
    models = [(p, a) for a in alts] or [None]
    return [NullTable(statistic, m, n, np.sort(draws), seed, model)
            for draws, model in zip(columns, models)]


def mc_null_table(
    statistic: str,
    m: int,
    n: int,
    reps: int,
    master_seed: int,
    model: tuple[GGParams, MixtureAlt] | None = None,
) -> NullTable:
    """Simulate the null distribution of a statistic.

    The one-table case of the power harness's builder, so a table equals
    the harness's for the same (statistic, m, n, reps, seed): a rank
    statistic is simulated on random label arrangements, the LRT, which
    needs the model (GGParams, MixtureAlt), on Y-samples from F.
    """
    p, alt = model or (None, None)
    (table,) = _null_tables(statistic, m, n, reps, master_seed, p, [alt] if model else [])
    return table


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
    what = f"a Wilcoxon moment at gamma={p.gamma!r}, mu={mu!r}"
    f_dg = quad_pieces(lambda x: gg_cdf(x, p) * _mixture_pdf(x, p, alt), cuts, what=what)
    f2_dg = quad_pieces(lambda x: gg_cdf(x, p) ** 2 * _mixture_pdf(x, p, alt), cuts, what=what)
    bar_g2_df = quad_pieces(
        lambda x: (1.0 - _mixture_cdf(x, p, alt)) ** 2 * gg_pdf(x, p), cuts, what=what
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


def npz_path(path) -> Path:
    """path with the .npz suffix that numpy appends on save."""
    path = Path(path)
    return path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")


def save_null_table(table: NullTable, path, force: bool = False) -> Path:
    """Write a null-table cache file (bit-exact round trip, versioned).

    An LRT file also holds gamma, scale, epsilon and mu.  Returns the path
    written, which ends in .npz.
    """
    path = npz_path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True to overwrite")
    model = {}
    if table.model is not None:
        p, alt = table.model
        model = dict(gamma=np.float64(p.gamma), scale=np.float64(p.scale),
                     epsilon=np.float64(alt.epsilon), mu=np.float64(alt.mu))
    np.savez(
        path,
        version=np.int64(CACHE_FORMAT_VERSION),
        statistic=np.str_(table.statistic),
        m=np.int64(table.m),
        n=np.int64(table.n),
        reps=np.int64(table.reps),
        seed=np.int64(table.seed),
        draws=table.draws,
        **model,
    )
    return path


def load_null_table(path) -> NullTable:
    """Read a cache file; ValueError unless it is intact and of this version.

    An LRT file's gamma, scale, epsilon and mu come back as the table's
    model.  Like save_null_table, it adds a missing .npz suffix to path.
    """
    path = npz_path(path)
    try:
        with open(path, "rb") as f, np.load(f) as data:
            version = int(data["version"])
            if version != CACHE_FORMAT_VERSION:
                raise ValueError(f"unsupported cache format version {version}")
            statistic = str(data["statistic"])
            model = None
            if statistic == st.LRT:
                model = (GGParams(float(data["gamma"]), float(data["scale"])),
                         MixtureAlt(float(data["epsilon"]), float(data["mu"])))
            table = NullTable(
                statistic=statistic,
                m=int(data["m"]),
                n=int(data["n"]),
                draws=data["draws"].copy(),
                seed=int(data["seed"]),
                model=model,
            )
            reps = int(data["reps"])
    except (KeyError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a null-table file: {e}") from None
    if table.reps != reps:
        raise ValueError(f"{table.reps} draws but reps = {reps}")
    return table


def cache_key(statistic: str, m: int, n: int, reps: int, seed: int, model=None) -> str:
    """The file name of a null table; an LRT name, given the table's model
    (GGParams, MixtureAlt), also carries gamma, scale, eps and mu."""
    if model is not None:
        p, alt = model
        statistic += f"_g{p.gamma!r}_sc{p.scale!r}_e{alt.epsilon!r}_mu{alt.mu!r}"
    return f"{statistic}_m{m}_n{n}_r{reps}_s{seed}.npz"
