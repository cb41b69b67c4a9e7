"""Null distributions and p-values.

A Monte Carlo table for higher criticism, the likelihood-ratio statistic's
null by one lattice convolution (lrt_null), limiting distributions for
Wilcoxon and one-sided KS, and the exact negative hypergeometric null for
the tail run.  A rank statistic depends on the data only through the pooled
ordering, which under H0 (continuous data) is a uniformly random arrangement
of m X-labels and n Y-labels, so its null table is simulated on such
arrangements: the X-labels sit on the m smallest of m + n iid uniform keys.
The LRT is a sum of n iid terms under H0, so its null law is computed, not
simulated; it reads no table file, seed or replicate count.

STATISTICS is the one table of the five tests: how each is computed and
how its p-value is found, and null_for the one place that chooses the null
that p-value reads, for mixdetect test and the power harness alike.  Every
Monte Carlo null table, the library's or the power harness's, is built by
mc_null_table, and every simulated replicate is drawn by replicate_rows.
block_values scores a block of replicates at one alternative, or mixdetect
test's one sample, evaluating each statistic once and every rank kernel on
the block's one running X-count: the cumulative sum of its indicators, or
for a DATA block at each alternative one np.repeat of its replicates'
counts over their unraised values (_data_counts), with no indicator built.
HC is the one test with a Monte Carlo null table, so no table function
takes a statistic; table_key defines a table's key, (HC, m, n, reps, seed),
once: NullTable.key, its file's fields and name (cache_key) and the match
of the harness cache.

Replicate k draws from numpy's stream SeedSequence([seed, tag, k]), as in
rng_scheme 10; the seed words of a whole batch of streams are hashed
in one vectorised pass (_seed_words), and numpy's PCG64 seeds each
replicate's own generator from them, so no replicate builds a SeedSequence.

The module loads no SciPy at import: the Wilcoxon p-value is the normal
upper tail 0.5 * erfc(z / sqrt(2)) from math.erfc, and the tail-run p-value
C(n, l) / C(m+n, l) is summed in log space from math.lgamma, once per
distinct l.  lrt_null loads numpy.fft when it runs, and scipy.special only
for a gamma other than 1 and 2.  At import the module allocates and frees
one 1 MiB array, so that the replicate loop's temporaries reuse glibc's
heap (see _BLOCK_ELEMENTS).
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
from .distributions import GGParams, MixtureAlt, check_integer, gg_sample, gg_survival

# version of the null-table file format; files of another version are
# refused (4: an LRT file also carries the gamma, scale, eps and mu it was
# simulated for; 5: the draws of rng_scheme 7, which moved gamma = 1 LRT
# tables; 6: those of rng_scheme 8, which moved every HC table; a scheme
# that moves a file's draws moves this version too).  Since rng_scheme 10
# only HC has table files; a format-6 LRT file is refused as a table of a
# statistic that reads none.
CACHE_FORMAT_VERSION = 6

# version of the harness's seed streams and statistic values, recorded in
# its JSON output; a change to either moves it (CHANGES.md records each
# scheme).  7: gamma = 1 is drawn as scale * (E1 - E2), and a mixture sample
# shifts its first K ~ Binomial(n, eps) draws, so only its multiset is iid;
# 8: a rank-null replicate is the m smallest of m + n uniform keys, a tie
# redrawn from the retry streams, in place of a shuffle of the labels;
# 9: a power replicate's X, Y-base and K serve every grid point (common
# random numbers), from a stream with no grid index, and a tie at any point
# redraws the whole replicate; 10: the LRT's null is computed (lrt_null),
# so the stream (seed, 102, k) of its simulated tables is no longer drawn
RNG_SCHEME = 10

_TINY_P = 1e-300
_SQRT_HALF = math.sqrt(0.5)

MONTE_CARLO = "monte-carlo"
NORMAL_APPROX = "normal-approx"
SMIRNOV_LIMIT = "smirnov-limit"
EXACT = "exact"
LATTICE = "lattice-convolution"

# purpose tags of the seed streams: replicate k of a stream draws from
# SeedSequence([master_seed, tag, k]), so calibration draws never overlap
# power draws
TAG_CALIB_RANK = 101
TAG_POWER = 201
TAG_NULL = 202

# what one replicate samples
RANK_NULL = "rank-null"  # the indicator only: ones on the m smallest of m + n keys
DATA = "data"  # X from F and Y from G at every alternative, or from F when alt is None


# a null table's key, in order: each field's name, tag in the file name, type
# in the key and dtype in the file
_KEY_FIELDS = (
    ("statistic", "", str, np.str_), ("m", "m", int, np.int64), ("n", "n", int, np.int64),
    ("reps", "r", int, np.int64), ("seed", "s", int, np.int64),
)


def table_key(m: int, n: int, reps: int, seed: int) -> tuple:
    """What a null table is simulated for: (HC, m, n, reps, seed)."""
    return (st.HC, m, n, reps, seed)


@dataclass(frozen=True)
class NullTable:
    """Sorted Monte Carlo draws of HC under H0."""

    m: int
    n: int
    draws: np.ndarray
    seed: int

    def __post_init__(self):
        _check_sizes(self.m, self.n)
        _check_seed("seed", self.seed)
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
        """What the table was simulated for: its table_key."""
        return table_key(self.m, self.n, self.reps, self.seed)


@dataclass(frozen=True)
class PValue:
    p: float
    method: str  # monte-carlo | lattice-convolution | normal-approx | smirnov-limit | exact

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"p-value must lie in (0, 1], got {self.p}")


@dataclass(frozen=True)
class Statistic:
    """One test: its statistic and its p-value.

    kernel names the rank kernel in `statistics`, f(xi, m, n, v), which
    block_values calls on a block's running X-counts v (and its pooled
    X-origin indicators xi, or None where it has none).  The LRT has no
    rank kernel: lrt_stats on a block's Y-samples at the model and the one
    alternative gives its value per replicate, as a kernel does.
    pvalues(values, m, n, table) maps an array of statistic values to
    p-values; table is the null that null_for gives the test: HC's Monte
    Carlo null table, the LRT's LatticeNull, None for the others.
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


def _persistent_ties(stream) -> st.TiesError:
    """The error for a replicate whose own stream and every retry stream tied."""
    return st.TiesError(None, (
        f"replicate {stream[-1]} drew ties from its stream {stream} and from each of "
        f"the 99 retry streams {[*stream, 1]} to {[*stream, 99]}"
    ))


def _draw_data(model, alt, mus, m, n, stream, rng):
    """X, the Y-sample's base and, unless alt is None, K ~ Binomial(n,
    alt.epsilon), drawn as mixture_sample draws them, once for every shift
    in mus: Y at mus[g] is the base with its first K values raised by mus[g].

    Returns the base, K, the X-origin indicator of X pooled with the base's
    other n - K values (the unraised values), and a (len(mus), K) array:
    per shift, the number of unraised values below each raised value, in
    ascending order.  The first draw is from rng, the stream `stream`; a tie
    among the pooled values at any shift redraws everything from
    (*stream, retry), retry = 1, ..., 99 in turn, derived at the first tie.
    """
    for rng in itertools.chain([rng], _streams(stream, 1, 100)):
        x = gg_sample(m, model, rng)
        base = gg_sample(n, model, rng)
        k = 0 if alt is None else rng.binomial(n, alt.epsilon)
        # sorted runs first: the stable argsort (timsort) only merges them
        pooled = np.concatenate([np.sort(x), np.sort(base[k:])])
        order = np.argsort(pooled, kind="stable")
        values = pooled[order]
        # a shift keeps the sorted raised values sorted; row g is Y's at mus[g]
        raised = np.sort(base[:k]) + np.reshape(mus, (-1, 1))
        at = np.searchsorted(values, raised)
        if not ((values[1:] == values[:-1]).any()
                or (raised[:, 1:] == raised[:, :-1]).any()
                or (values[np.minimum(at, values.size - 1)] == raised).any()):
            return base, k, order < m, at
    raise _persistent_ties(stream)


def _data_counts(draws, m: int, n: int):
    """The running X-counts of a block of DATA draws (_draw_data's), a
    (rows, m+n) array per shift in turn, their integers those of np.cumsum
    of the pooled indicators.

    A replicate's count over its unraised values, c = [0, *np.cumsum(labels)],
    is taken once: c[i] is the count after the i smallest of them, and also
    after each raised value with i unraised values below it (its place), so
    at a shift the running count is
    np.repeat(c, 1 + np.bincount(places, minlength=c.size))[1:].  The rows'
    c lie end to end, so a shift takes one np.repeat for the block, and
    none when no row raises a value, as at every shift of a null draw (K = 0).
    """
    starts = list(itertools.accumulate([0] + [m + n + 1 - k for _, k, _, _ in draws]))
    counts = np.zeros(starts[-1], dtype=np.int64)
    for (_, k, labels, _), s in zip(draws, starts):
        np.cumsum(labels, out=counts[s + 1:s + m + n + 1 - k])
    places = np.concatenate([at + s for (*_, at), s in zip(draws, starts)], axis=-1)
    for shift in places:
        v = counts
        if shift.size:
            v = np.repeat(counts, np.bincount(shift, minlength=counts.size) + 1)
        yield v.reshape(len(draws), m + n + 1)[:, 1:]


# the most elements a block of replicates puts in one row-wide temporary
# (m+n per row with a rank statistic, else n for the LRT's Y-sample); of the
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


def block_values(stats, xi, y, m: int, n: int, model=None, alt=None, v=None) -> np.ndarray:
    """Values of the Statistics stats on a block of replicates, one row each:
    xi holds their (rows, m+n) pooled X-origin indicators, or v their running
    X-counts np.cumsum(xi, axis=-1), and y their (rows, n) Y-samples.

    Each statistic gives one float column, in the order of stats: a rank
    statistic its kernel's value per row, the LRT lrt_stats' on y and the
    model at the one alternative alt.  Every rank kernel reads the one
    count v, taken from xi once when it is not given and a rank statistic
    is selected; each is passed xi too, which is None when v is given.  The
    kernels and lrt_stats are looked up in `statistics` at call time, so a
    wrapper put there sees every call.
    """
    if v is None and any(s.rank for s in stats):
        v = np.cumsum(xi, axis=-1)
    return np.column_stack([
        getattr(st, s.kernel)(xi, m, n, v) if s.rank else st.lrt_stats(y, model, alt)
        for s in stats
    ]).astype(float, copy=False)


def _smallest_keys(keys, xi, m: int) -> np.ndarray:
    """Set each row of xi to 1 on its row of keys' m smallest, 0 elsewhere, by
    one np.partition; returns the rows whose m-th smallest key is tied."""
    np.less_equal(keys, np.partition(keys, m - 1, axis=-1)[:, m - 1:m], out=xi)
    return np.flatnonzero(xi.sum(axis=-1) != m)


def replicate_rows(kind, tests, model, alt, alts, m, n, parts, k0, k1) -> np.ndarray:
    """Values of tests on replicates k0 <= k < k1, row k - k0 for replicate k.

    Replicate k draws from the stream (*parts, k); kind is RANK_NULL or
    DATA.  A RANK_NULL replicate puts its X-labels on the m smallest of
    m + n uniform keys; a tied m-th smallest key is redrawn from the stream
    (*parts, k, retry), retry = 1, 2, ..., 99 in turn, as a tied DATA
    replicate is.  A DATA replicate draws X and a Y-base from F once
    (_draw_data) and, with alt given, one K ~ Binomial(n, alt.epsilon);
    its Y-sample at each alternative in alts (each of alt's epsilon) is
    the base with its first K values shifted by that mu: mixture_sample's
    draw at alts = [alt].  With alt None, K = 0, so every alternative
    scores the base itself.

    A RANK_NULL row holds the values of tests in order; a DATA row holds one
    such group per alternative in alts: every test scored on that
    alternative's Y-sample, the LRT at that alternative.  Replicates are drawn one
    by one into blocks that keep a row-wide temporary (m + n values with a
    rank test, else n) within _BLOCK_ELEMENTS (at least one row), and a
    block is scored by one block_values call per group.

    A RANK_NULL block's running X-count is the cumulative sum of its
    indicators, a DATA block's is built from each replicate's draw
    (_data_counts) at every alternative.  Counts are built only for a rank
    test, and Y-samples only for the LRT.  tests are names, so they pickle.
    """
    stats = [STATISTICS[t] for t in tests]
    rank, lrt = any(s.rank for s in stats), not all(s.rank for s in stats)
    if kind == DATA:
        if alt is not None and (not alts or any(a.epsilon != alt.epsilon for a in alts)):
            raise ValueError("DATA drawn from alt needs alternatives, each with alt's epsilon")
        if not alts:
            raise ValueError("DATA drawn under H0 needs at least one alternative to score")
    groups, width = alts if kind == DATA else [None], len(stats)
    mus = [a.mu for a in alts]
    rows = max(1, min(_BLOCK_ELEMENTS // (m + n if rank else n), k1 - k0))
    # a rank null's keys and indicators, and the LRT's Y-samples of a DATA
    # block; what a replicate does not draw or score is left empty
    keys = np.empty((rows, m + n if kind == RANK_NULL else 0))
    xi = np.empty((rows, m + n if kind == RANK_NULL else 0), dtype=np.int64)
    y = np.empty((rows, n if kind == DATA and lrt else 0))
    out = np.empty((k1 - k0, len(groups) * width))
    streams = _streams(parts, k0, k1)
    for a in range(k0, k1, rows):
        b = min(a + rows, k1)
        block = zip(range(a, b), streams)
        counts = None  # a DATA block's running X-counts, per alternative
        if kind == RANK_NULL:
            for i, (k, rng) in enumerate(block):
                rng.random(out=keys[i])
            for i in _smallest_keys(keys[:b - a], xi[:b - a], m).tolist():
                for rng in _streams([*parts, a + i], 1, 100):
                    rng.random(out=keys[i])
                    if not _smallest_keys(keys[i:i + 1], xi[i:i + 1], m).size:
                        break
                else:
                    raise _persistent_ties([*parts, a + i])
        else:
            draws = [_draw_data(model, alt, mus, m, n, [*parts, k], rng) for k, rng in block]
            if lrt:
                for i, (base, _, _, _) in enumerate(draws):
                    y[i] = base
            counts = _data_counts(draws, m, n) if rank else None
        for g, group_alt in enumerate(groups):
            v = None if counts is None else next(counts)
            if kind == DATA and lrt:
                for i, (base, k, _, _) in enumerate(draws):
                    np.add(base[:k], group_alt.mu, out=y[i, :k])
            out[a - k0:b - k0, g * width:(g + 1) * width] = block_values(
                stats, xi[:b - a] if v is None else None, y[:b - a], m, n, model, group_alt, v)
    return out


def _serial(kind, tests, model, alt, alts, m, n, seed_parts, reps) -> np.ndarray:
    """reps replicates in this process, as one replicate_rows call; row i
    holds value i of every replicate."""
    return replicate_rows(kind, tests, model, alt, alts, m, n, seed_parts, 0, reps).T


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


def _table_statistic(statistic: str) -> None:
    """Refuse a table file's statistic unless it is HC, the one test with a table."""
    stat = STATISTICS.get(statistic)
    if stat is None:
        raise ValueError(f"unknown statistic {statistic!r}")
    if stat.method != MONTE_CARLO:
        raise ValueError(f"{statistic} reads no null table: its p-value uses the {stat.method} null")


def mc_null_table(m: int, n: int, reps: int, master_seed: int, collect=_serial) -> NullTable:
    """HC's sorted null table, from replicate k of (master_seed, TAG_CALIB_RANK, k).

    Each replicate is a random arrangement of m X-labels and n Y-labels.
    collect runs the replicates: it is called positionally as _serial is,
    and the power harness passes its own, which uses the run's pool, so a
    table equals the harness's for the same (m, n, reps, seed).
    """
    _check_table_inputs(reps, master_seed)
    _check_sizes(m, n)
    (draws,) = collect(RANK_NULL, [st.HC], None, None, (), m, n,
                       [master_seed, TAG_CALIB_RANK], reps)
    return NullTable(m, n, np.sort(draws), master_seed)


# The LRT's null on a lattice (lrt_null).  F is cut into _LRT_CELLS cells
# over [-A, A] * scale (_lattice_term), A (_lattice_reach) the first of
# (40 gamma)**(1/gamma) * 1.25**i, i < 400, whose two F-tails, times n, are
# below _LRT_TAIL; none is found below gamma = 0.008 at n = 10**5 (0.0055
# at n = 2), and the LRT is refused there.  The lattice step
# is sd(T) / _LRT_STEPS, and the transform's window holds +-_LRT_WIDTH sd of
# the sum, doubled while too much mass sits at its edges, up to
# _LRT_MAX_LENGTH points.  Measured (BENCH_pr32_lattice_lrt.json): of 1000
# to 8000 cells and sd/5 to sd/20, 4000 cells and sd/10 put p-values within
# 5e-4 of a 128000-cell, sd/40 lattice at the normal-dense,
# normal-verysparse and dexp-moderate grids (n = 2000 and 10**4) for the
# least CPU; a window of +-8 sd in place of +-30 moves no p-value by more
# than the floor, with a quarter of the transform's memory.  _LRT_FLOOR, the
# smallest p-value, is over 40 times the inverse transform's total
# negative mass at those grids up to n = 10**5.
_LRT_CELLS = 4000
_LRT_STEPS = 10
_LRT_WIDTH = 8
_LRT_FLOOR = 1e-9
_LRT_TAIL = _LRT_FLOOR / 1000
_LRT_MAX_LENGTH = 2**22


@dataclass(frozen=True)
class LatticeNull:
    """The LRT's null survival function on the lattice of step h.

    sf[i] = P0(S - shift >= (start + i) * h) for the statistic S of n
    Y-draws from F, where shift = n * log1p(-eps) is the constant part of S,
    at the points where it lies between _LRT_FLOOR and 1 - _LRT_FLOOR, with
    one point more at each end: 1 below them and _LRT_FLOOR above.
    """

    h: float
    start: int
    shift: float
    sf: np.ndarray


def _lattice_reach(gamma: float, n: int) -> float:
    """A, the reach of the LRT's lattice cells in units of scale, at F's
    shape gamma and n Y-draws; refused where the search finds none."""
    unit = GGParams(gamma)
    a = max((40.0 * gamma) ** (1.0 / gamma), 1.0)
    for _ in range(400):
        if 2 * n * gg_survival(a, unit) <= _LRT_TAIL:
            return a
        a *= 1.25
    raise ValueError(f"the LRT's null has no lattice at gamma = {gamma}: "
                     f"F's tails reach past {a:.3g}")


def _lattice_term(p: GGParams, alt: MixtureAlt, n: int):
    """One term of the LRT under F as cells: their masses and the term's
    value at each cell's midpoint, by lrt_terms (without log1p(-eps)).

    The cell edges are +-scale * sinh(v), v on an even grid, so cells are
    about scale * dv wide near 0 and dv of their place in the tails.  Below
    gamma = 1, F's density peaks sharply at 0, and the grid is even in
    asinh(w) for w = z**gamma / gamma in place of z, whose law is
    Gamma(1/gamma): cells near 0 hold a tiny share of F however small gamma
    is.  lr = log(f(y - mu)/f(y)) has a kink or cusp at 0 and at
    c = mu / scale unless gamma = 2.  The cell holding c is cut at c, which
    keeps the midpoint rule second order at a kink; below gamma = 1 the
    right side's edges also include c -+ each edge, so cells shrink towards
    c as they do towards 0.  F's tails beyond the cells go to the outermost
    ones.
    """
    unit = GGParams(p.gamma)
    a = _lattice_reach(p.gamma, n)
    c = alt.mu / p.scale
    if p.gamma >= 1.0:
        edges = np.sinh(np.linspace(0.0, math.asinh(a), _LRT_CELLS // 2 + 1))
        tail = gg_survival(edges, unit)
        i = int(np.searchsorted(edges, c))  # the first edge at or above c
        cut, cut_tail = edges, tail
        if i < edges.size and edges[i] != c:
            cut = np.insert(edges, i, c)
            cut_tail = np.insert(tail, i, gg_survival(c, unit))
    else:
        w = np.sinh(np.linspace(0.0, math.asinh(a**p.gamma / p.gamma), _LRT_CELLS // 2 + 1))
        edges = (p.gamma * w) ** (1.0 / p.gamma)
        tail = gg_survival(edges, unit)
        # lr's cusp at c is as sharp as F's at 0, so the right side's cells
        # are refined towards c in the same way
        near_c = np.concatenate([c - edges, c + edges])
        cut = np.union1d(edges, near_c[(near_c > 0.0) & (near_c < edges[-1])])
        cut_tail = gg_survival(cut, unit)
    left, right = np.diff(tail[::-1]), -np.diff(cut_tail)
    left[0] += tail[-1]
    right[-1] += tail[-1]
    mid = np.concatenate([-(edges[1:] + edges[:-1])[::-1], cut[1:] + cut[:-1]]) / 2
    return np.concatenate([left, right]), st.lrt_terms(p.scale * mid, p, alt)


def _nth_power(spectrum: np.ndarray, n: int) -> np.ndarray:
    """spectrum**n by repeated squaring, in place of numpy's complex power,
    which took 6 ms at 2**16 points; spectrum is overwritten."""
    power = np.ones_like(spectrum)
    while True:
        if n & 1:
            power *= spectrum
        n >>= 1
        if not n:
            return power
        spectrum *= spectrum


def lrt_null(p: GGParams, alt: MixtureAlt, n: int) -> LatticeNull:
    """The null law of the LRT of n Y-draws from F at alt, by one lattice
    convolution (the FFT method for aggregate laws, Embrechts & Frei 2009).

    The statistic is S = sum_i T(Y_i), and under H0 the Y_i are iid F, so
    its law is the n-fold convolution of one term's.  The term is F cut into
    cells (_lattice_term), each cell's mass split between the two lattice
    points around its value so that the cell keeps its mean (Gerber 1982);
    the sum's pmf is irfft(rfft(pmf, L)**n, L), the power by repeated
    squaring, recentred on n times the term's mean.  A window whose edges,
    or a term whose mass beyond a quarter window, hold more than
    _LRT_FLOOR / 10 is doubled; past _LRT_MAX_LENGTH points it is refused.
    numpy.fft is imported here, so only a run that reads this law loads it.
    """
    import numpy.fft as fft

    check_integer("n", n, 1)
    mass, terms = _lattice_term(p, alt, n)
    mean = float(mass @ terms)
    sd = math.sqrt(float(mass @ (terms - mean) ** 2))
    h = sd / _LRT_STEPS
    if not h > 0.0:
        raise ValueError(f"the LRT at {alt} has no spread under F: its null is one point")
    u = terms / h
    j = np.floor(u)
    up = mass * (u - j)
    ref = round(mean / h)  # a term's index is taken relative to ref
    rel = (j - ref).astype(np.int64)
    centre = round(n * mean / h)
    length = 1 << math.ceil(math.log2(2 * _LRT_WIDTH * _LRT_STEPS * math.sqrt(n)))
    while length <= _LRT_MAX_LENGTH:
        if n * mass[np.abs(rel) >= length // 4].sum() <= _LRT_FLOOR / 10:
            pmf = np.bincount(rel % length, mass - up, length)
            pmf += np.bincount((rel + 1) % length, up, length)
            spectrum = fft.rfft(pmf)
            # the cells' total is 1 up to rounding, which the n-th power
            # would grow n-fold: the term's spectrum is scaled to total 1
            spectrum /= spectrum[0].real
            pmf = fft.irfft(_nth_power(spectrum, n), length)
            start = centre - length // 2
            # entry t holds P(sum of rel = t mod length); the window's entry i
            # is the sum n * ref + rel = start + i
            pmf = np.roll(pmf, (n * ref - start) % length)
            edge = length // 16
            if pmf[:edge].sum() + pmf[-edge:].sum() <= _LRT_FLOOR / 10:
                sf = np.cumsum(pmf[::-1])[::-1]
                # only the points whose survival lies between the floor and
                # 1 - floor are kept, and one at each end, set to 1 and the
                # floor: the edge check leaves window points beyond both
                inside = np.flatnonzero((sf > _LRT_FLOOR) & (sf < 1.0 - _LRT_FLOOR))
                if not inside.size:
                    raise ValueError(f"the LRT at {alt} has no spread under F at n = {n}: "
                                     f"its null is one lattice point")
                a, b = max(inside[0] - 1, 0), inside[-1] + 2
                sf = sf[a:b].copy()
                sf[0], sf[-1] = 1.0, _LRT_FLOOR
                shift = n * math.log1p(-alt.epsilon)
                return LatticeNull(h, start + int(a), shift, sf)
        length *= 2
    raise ValueError(
        f"the LRT's null at {alt}, n = {n} needs a lattice of more than "
        f"{_LRT_MAX_LENGTH} points"
    )


def lattice_pvalues(values, null: LatticeNull) -> np.ndarray:
    """P0(S >= value) at the first lattice point at or above each value: 1
    below the points null keeps, _LRT_FLOOR above them."""
    # np.maximum and np.minimum in place of np.clip, which costs more than
    # the rest on a power point's few values
    i = np.array(values, dtype=float)
    i -= null.shift
    i /= null.h
    np.ceil(i, out=i)
    i -= null.start
    np.maximum(i, 0, out=i)
    np.minimum(i, null.sf.size - 1, out=i)
    return null.sf[i.astype(np.intp)]


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
        Statistic(st.LRT, None, lambda v, m, n, t: lattice_pvalues(v, t), LATTICE),
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


def null_for(statistic: str, m: int, n: int, model, alt, table=None, reps=None, seed=None):
    """The null that STATISTICS[statistic].pvalues reads, chosen here alone:
    HC's table (mc_null_table's at reps and seed unless table is given), the
    LRT's lattice law at model and alt (lrt_null), None for the closed forms."""
    if statistic == st.HC:
        return mc_null_table(m, n, reps, seed) if table is None else table
    return lrt_null(model, alt, n) if statistic == st.LRT else None


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
    """Read a cache file; a ValueError naming path unless it is intact and of this version.

    The table is rebuilt from the fields of its key, whose statistic must be
    HC.  Like save_null_table, it adds a missing .npz suffix to path.
    """
    path = npz_path(path)
    try:
        with open(path, "rb") as f, np.load(f) as data:
            version = int(data["version"])
            if version != CACHE_FORMAT_VERSION:
                raise ValueError(f"unsupported cache format version {version}")
            values = []
            for name, _, kind, dtype in _KEY_FIELDS:
                value = data[name]
                if not np.issubdtype(value.dtype, dtype):
                    raise TypeError(f"field {name} is {value.dtype}, not {dtype.__name__}")
                values.append(kind(value))
            statistic, m, n, reps, seed = values
            _table_statistic(statistic)
            table = NullTable(m, n, data["draws"].copy(), seed)
            if table.reps != reps:
                raise ValueError(f"{table.reps} draws but reps = {reps}")
    # EOFError: an empty file; TypeError: a bare .npy, or a field of the wrong shape or dtype
    except (KeyError, EOFError, TypeError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a null-table file: {e}") from None
    # another version, a statistic other than HC, or a table NullTable refuses
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return table


def cache_key(m: int, n: int, reps: int, seed: int) -> str:
    """The file name of a null table: the fields of its key, each tagged."""
    key = table_key(m, n, reps, seed)
    return "_".join(f"{tag}{v}" for (_, tag, _, _), v in zip(_KEY_FIELDS, key)) + ".npz"
