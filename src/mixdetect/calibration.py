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
replicate is drawn by replicate_rows.  block_values scores a block of
replicates, or mixdetect test's one sample, evaluating each statistic once
and every rank kernel on the block's one running X-count.  table_key
defines a table's key once: NullTable.key, its file's fields and name
(cache_key) and the matches of the harness cache and of test --table.

Replicate k draws from numpy's stream SeedSequence([seed, tag, (g,) k]),
as in rng_scheme 7; the seed words of a whole batch of streams are hashed
in one vectorised pass (_seed_words), and numpy's PCG64 seeds each
replicate's own generator from them, so no replicate builds a SeedSequence.

The module loads no SciPy: the Wilcoxon p-value is the normal upper tail
0.5 * erfc(z / sqrt(2)) from math.erfc, and the tail-run p-value
C(n, l) / C(m+n, l) is summed in log space from math.lgamma, once per
distinct l.  At import it allocates and frees one 1 MiB array, so that the
replicate loop's temporaries reuse glibc's heap (see _BLOCK_ELEMENTS).
"""

from __future__ import annotations

import itertools
import math
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import statistics as st
from .distributions import GGParams, MixtureAlt, check_integer, gg_sample, mixture_sample

# version of the null-table file format; files of another version are
# refused (4: an LRT file also carries the gamma, scale, eps and mu it was
# simulated for; 5: the draws of rng_scheme 7, which moved gamma = 1 LRT
# tables; a scheme that moves a file's draws moves this version too)
CACHE_FORMAT_VERSION = 5

# version of the harness's seed streams and statistic values, recorded in
# its JSON output; a change to either moves it (CHANGES.md records each
# scheme).  7: gamma = 1 is drawn as scale * (E1 - E2), and a mixture sample
# shifts its first K ~ Binomial(n, eps) draws, so only its multiset is iid
RNG_SCHEME = 7

_TINY_P = 1e-300
_SQRT_HALF = math.sqrt(0.5)

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


# a null table's key, in order: each field's name, tag in the file name, type
# in the key and dtype in the file; a rank table's key is the first five
_KEY_FIELDS = (
    ("statistic", "", str, np.str_), ("m", "m", int, np.int64), ("n", "n", int, np.int64),
    ("reps", "r", int, np.int64), ("seed", "s", int, np.int64),
    ("gamma", "g", float, np.float64), ("scale", "sc", float, np.float64),
    ("epsilon", "e", float, np.float64), ("mu", "mu", float, np.float64),
)


def table_key(statistic: str, m: int, n: int, reps: int, seed: int, model=None) -> tuple:
    """What a null table is simulated for: (statistic, m, n, reps, seed), then an
    LRT table's gamma, scale, epsilon and mu, given its model (GGParams, MixtureAlt)."""
    key = (statistic, m, n, reps, seed)
    if model is None:
        return key
    p, alt = model
    return (*key, p.gamma, p.scale, alt.epsilon, alt.mu)


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
        _check_sizes(self.m, self.n)
        _check_seed("seed", self.seed)
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
        """What the table was simulated for: its table_key."""
        return table_key(self.statistic, self.m, self.n, self.reps, self.seed, self.model)


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

    kernel names the rank kernel in `statistics`, f(xi, m, n, v) on a block
    of pooled X-origin indicators, which block_values calls.  The LRT has no
    rank kernel: one lrt_stats call on the Y-samples and the model gives its
    value at every alternative of every replicate of a block.  pvalues(values,
    m, n, table) maps an array of statistic values to p-values; a Monte-Carlo
    test needs its null table.  extra(value, m, n) gives further fields for a
    test report.
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

    def pvalue(self, value: float, m: int, n: int, table=None) -> PValue:
        p = self.pvalues(np.asarray(value, dtype=float), m, n, table)
        return PValue(p=float(p), method=self.method)


# numpy's SeedSequence hash constants, for _seed_words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 2**32 - 1


def _words(v) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads an entropy int as."""
    check_integer("stream entropy", v)
    v = int(v)
    words = [v & _M32]
    while v := v >> 32:
        words.append(v & _M32)
    return words


def _seed_words(prefix, k0: int, k1: int) -> np.ndarray:
    """SeedSequence([*prefix, k]).generate_state(4, np.uint64), k0 <= k < k1, one row each.

    SeedSequence's entropy pool (4 words) and generate_state run on uint32
    arrays over k, so a batch of streams costs a few dozen array operations.
    Each k is one entropy word: 0 <= k0 <= k1 <= 2**32, which _streams checks.
    """
    ks = np.arange(k0, k1, dtype=np.uint32)
    entropy = [np.full_like(ks, w) for p in prefix for w in _words(p)] + [ks]
    hash_const = _INIT_A

    def hashmix(v):
        nonlocal hash_const
        v = v ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        v = v * hash_const
        return v ^ (v >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(ks)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_const = np.empty((ks.size, 8), dtype="<u4"), _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        v = v * hash_const
        out[:, i] = v ^ (v >> 16)
    # generate_state pairs the uint32 words little-endian on every host
    return out.view("<u8").astype(np.uint64)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A stream's seed words for PCG64, which reads them from memory unchecked:
    words must be a contiguous uint64 array of 4, a row of _seed_words'."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(prefix, k0: int, k1: int):
    """Generators on the streams SeedSequence([*prefix, k]), k0 <= k < k1, in order.

    Each is its own, seeded by numpy's PCG64 from the stream's _seed_words,
    which are derived 1024 streams at a time to bound a large batch's memory.
    """
    if not 0 <= k0 <= k1 <= 2**32:
        raise ValueError(f"replicate and retry indices must lie in [0, 2**32), got {k0}..{k1 - 1}")
    for a in range(k0, k1, 1024):
        for words in _seed_words(prefix, a, min(a + 1024, k1)):
            yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _draw_pooled(model, alt, m, n, parts, rng):
    """The Y-sample and pooled X-origin indicator of simulated data.

    The first draw is from rng, the stream `parts`; a float tie is redrawn
    from the stream (*parts, retry), retry = 1, 2, ..., 99 in turn.  Those
    streams are derived only at the first tie.
    """
    for rng in itertools.chain([rng], _streams(parts, 1, 100)):
        x = gg_sample(m, model, rng)
        y = gg_sample(n, model, rng) if alt is None else mixture_sample(n, model, alt, rng)
        try:
            return y, st.pooled_indicator(x, y)
        except st.TiesError:
            continue
    raise st.TiesError("persistent ties in simulated continuous data")


# the most elements a block of replicates puts in one row-wide temporary
# (m+n per row for a rank statistic, n per alternative for the LRT); of the
# budgets 2**12 to 2**16, 2**14 (128 KiB of float64) took the least CPU
# summed over test-cli-, sparse- and dense-sized calls on a 2-vCPU Linux VM
_BLOCK_ELEMENTS = 2**14

# A block's row-wide temporaries (up to 128 KiB each) are freed at the top
# of the heap, and glibc gives memory there back to the kernel once more
# than its trim threshold is free, so each block would fault its pages in
# again.  Freeing an mmapped chunk raises glibc's mmap threshold to that
# chunk's size and its trim threshold to twice it: after this one 1 MiB
# array, the temporaries reuse the heap.  Pool workers inherit the
# thresholds through fork.
np.empty(2**17)


def block_values(stats, xi, y, m: int, n: int, model=None, alts=()) -> np.ndarray:
    """Values of the Statistics stats on a block of replicates, one row each:
    xi holds their (rows, m+n) pooled X-origin indicators, y their (rows, n)
    Y-samples.

    A rank statistic gives one float column, its kernel's value per row, the
    LRT one column per alternative in alts (lrt_stats on y and the model),
    side by side in the order of stats.  The running X-count
    np.cumsum(xi, axis=-1) is taken once, when a rank statistic is selected,
    and read by every rank kernel.  The kernels and lrt_stats are looked up
    in `statistics` at call time, so a wrapper put there sees every call.
    """
    v = np.cumsum(xi, axis=-1) if any(s.rank for s in stats) else None
    return np.hstack([
        getattr(st, s.kernel)(xi, m, n, v).astype(float)[:, None] if s.rank
        else st.lrt_stats(y, model, alts)
        for s in stats
    ])


def replicate_rows(kind, tests, model, alt, lrt_alts, m, n, parts, k0, k1) -> np.ndarray:
    """Values of tests on replicates k0 <= k < k1, row k - k0 for replicate k.

    Replicate k draws from the stream (*parts, k); kind is RANK_NULL,
    LRT_NULL or DATA, and alt is the alternative the Y-sample is drawn from
    (DATA only).  A RANK_NULL replicate shuffles m ones then n zeros.  A
    rank statistic gives one value, the LRT one value per alternative in
    lrt_alts, all on the same sample.  The replicates are drawn one by one
    into blocks of rows, and each block is scored by one block_values call;
    a block holds as many rows as keep a row-wide temporary within
    _BLOCK_ELEMENTS (at least one).  tests are names, so they pickle.
    """
    stats = [STATISTICS[t] for t in tests]
    widths = [1 if s.rank else len(lrt_alts) for s in stats]
    row = max(m + n if s.rank else len(lrt_alts) * n for s in stats)
    rows = max(1, min(_BLOCK_ELEMENTS // row, k1 - k0))
    # the block's pooled indicators and Y-samples; a null replicate leaves
    # the one its kind does not draw empty
    xi = np.empty((rows, 0 if kind == LRT_NULL else m + n), dtype=np.int64)
    y = np.empty((rows, 0 if kind == RANK_NULL else n))
    out = np.empty((k1 - k0, sum(widths)))
    streams = _streams(parts, k0, k1)
    for a in range(k0, k1, rows):
        b = min(a + rows, k1)
        for i, (k, rng) in enumerate(zip(range(a, b), streams)):
            if kind == RANK_NULL:
                xi[i, :m], xi[i, m:] = 1, 0
                rng.shuffle(xi[i])  # the arrangement rng.permutation gives
            elif kind == LRT_NULL:
                y[i] = gg_sample(n, model, rng)
            else:
                y[i], xi[i] = _draw_pooled(model, alt, m, n, [*parts, k], rng)
        out[a - k0:b - k0] = block_values(stats, xi[:b - a], y[:b - a], m, n, model, lrt_alts)
    return out


def _serial(kind, model, alt, lrt_alts, m, n, tests, seed_parts, reps) -> np.ndarray:
    """reps replicates in this process, as one replicate_rows call; row i
    holds value i of every replicate."""
    return replicate_rows(kind, tests, model, alt, lrt_alts, m, n, seed_parts, 0, reps).T


def _check_seed(name: str, seed) -> None:
    """Refuse a seed that is not an integer in [0, 2**63), the range of the
    int64 a table file holds it in."""
    check_integer(name, seed)
    if seed >= 2**63:
        raise ValueError(f"{name} must be below 2**63, got {seed}")


def _check_sizes(m: int, n: int) -> None:
    """Refuse sample sizes that are not integers of at least 1."""
    check_integer("m", m, 1)
    check_integer("n", n, 1)


def _check_table_inputs(reps: int, seed: int) -> None:
    """Refuse a Monte Carlo table of under 100 replicates, or a reps or seed
    that its file cannot hold."""
    check_integer("reps", reps, 100)
    _check_seed("seed", seed)


def _null_tables(statistic, m, n, reps, seed, p=None, alts=(), collect=_serial) -> list:
    """Sorted null tables of statistic, from replicate k of (seed, tag, k).

    HC gives one table, simulated on random arrangements of m X-labels and
    n Y-labels (tag TAG_CALIB_RANK).  The LRT draws its Y-sample from F = p
    (tag TAG_CALIB_LRT) and gives one table per alternative in alts, table
    i carrying the model (p, alts[i]).  A test whose p-value reads no table
    is refused, and so are HC given a model and the LRT given none.  collect
    runs the replicates: it is called positionally as _serial is, and the
    power harness passes its own, which uses the run's pool.
    """
    _check_table_inputs(reps, seed)
    _check_sizes(m, n)
    stat = STATISTICS.get(statistic)
    if stat is None:
        raise ValueError(f"unknown statistic {statistic!r}")
    if not stat.monte_carlo:
        raise ValueError(f"{statistic} reads no null table: its p-value uses the {stat.method} null")
    if not stat.rank and (p is None or not alts):
        raise ValueError("LRT calibration requires the model (GGParams, MixtureAlt)")
    if stat.rank and (p is not None or alts):
        raise ValueError(f"{statistic} is simulated on label arrangements; it reads no model")
    kind, tag = (RANK_NULL, TAG_CALIB_RANK) if stat.rank else (LRT_NULL, TAG_CALIB_LRT)
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
    the harness's for the same (statistic, m, n, reps, seed): HC is
    simulated on random label arrangements, the LRT, which needs the model
    (GGParams, MixtureAlt), on Y-samples from F.  WILCOXON, KS and TAILRUN
    read no table and are refused.
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
    """Upper-tail normal approximation with continuity correction.

    The upper tail of z is 0.5 * erfc(z / sqrt(2)), by math.erfc per value,
    with z scaled by the double nearest 1/sqrt(2).
    """
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0) & (u <= m * n)):
        raise ValueError(f"U must lie in [0, mn], got {u}")
    sd = math.sqrt(m * n * (m + n + 1) / 12.0)
    z = (u - 0.5 - m * n / 2.0) / sd
    upper = [0.5 * math.erfc(v) for v in (z * _SQRT_HALF).ravel().tolist()]
    return np.maximum(np.reshape(upper, z.shape), _TINY_P)


def wilcoxon_pvalue(u, m: int, n: int) -> PValue:
    """Scalar form of wilcoxon_pvalues."""
    return PValue(p=float(wilcoxon_pvalues(u, m, n)), method=NORMAL_APPROX)


def wilcoxon_exact_null(m: int, n: int) -> np.ndarray:
    """Exact null pmf of U over {0, ..., mn} by the rank-sum recursion."""
    _check_sizes(m, n)
    if m + n > 24:
        raise ValueError("exact enumeration limited to m + n <= 24")
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


def _tailrun_log_sf(ls, m: int, n: int) -> np.ndarray:
    """log P0(L* >= l) = log prod_{j=0}^{l-1} (n-j)/(m+n-j) for each l in ls,
    as a sum of math.lgamma terms evaluated once per distinct l."""
    ls = np.asarray(ls)
    values = ls.ravel().tolist()
    lg_n, lg_mn = math.lgamma(n + 1), math.lgamma(m + n + 1)
    logs = {
        l: lg_n - math.lgamma(n - l + 1) + math.lgamma(m + n - l + 1) - lg_mn
        for l in set(values)
    }
    return np.reshape([logs[l] for l in values], ls.shape)


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
    _check_sizes(m, n)
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
    """Write a null-table cache file (bit-exact round trip, versioned): its
    version, its draws and the fields of its key.  Returns the path
    written, which ends in .npz.
    """
    path = npz_path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True to overwrite")
    fields = {name: dtype(v) for (name, _, _, dtype), v in zip(_KEY_FIELDS, table.key)}
    np.savez(path, version=np.int64(CACHE_FORMAT_VERSION), draws=table.draws, **fields)
    return path


def load_null_table(path) -> NullTable:
    """Read a cache file; ValueError unless it is intact and of this version.

    The table is rebuilt from the fields of its key, an LRT file's model
    included.  Like save_null_table, it adds a missing .npz suffix to path.
    """
    path = npz_path(path)
    try:
        with open(path, "rb") as f, np.load(f) as data:
            version = int(data["version"])
            if version != CACHE_FORMAT_VERSION:
                raise ValueError(f"unsupported cache format version {version}")
            fields = _KEY_FIELDS if str(data["statistic"]) == st.LRT else _KEY_FIELDS[:5]
            values = []
            for name, _, kind, dtype in fields:
                value = data[name]
                if not np.issubdtype(value.dtype, dtype):
                    raise TypeError(f"field {name} is {value.dtype}, not {dtype.__name__}")
                values.append(kind(value))
            statistic, m, n, reps, seed, *model = values
            model = (GGParams(*model[:2]), MixtureAlt(*model[2:])) if model else None
            table = NullTable(statistic, m, n, data["draws"].copy(), seed, model)
    # EOFError: an empty file; TypeError: a bare .npy, or a field of the wrong shape or dtype
    except (KeyError, EOFError, TypeError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a null-table file: {e}") from None
    if table.reps != reps:
        raise ValueError(f"{table.reps} draws but reps = {reps}")
    return table


def cache_key(statistic: str, m: int, n: int, reps: int, seed: int, model=None) -> str:
    """The file name of a null table: the fields of its key, each tagged, an LRT
    table's model (GGParams, MixtureAlt) right after the statistic."""
    key = table_key(statistic, m, n, reps, seed, model)
    parts = [f"{tag}{v}" for (_, tag, _, _), v in zip(_KEY_FIELDS, key)]
    return "_".join([*parts[:1], *parts[5:], *parts[1:5]]) + ".npz"
