"""Pair correlation statistics of dilated integer sequences, exactly.

For a sequence (a_n), a dilation alpha and a window parameter s, the statistic
counts ordered pairs i != j among the first N indices whose dilated points
alpha*a_i and alpha*a_j lie within s/N of each other on the circle, scaled by
1/N.  For Poissonian behaviour the statistic tends to 2s; the experiments
here chase dilations where it diverges instead.

Exactness discipline: a rational alpha = p/q turns every fractional part into
an integer residue (p * a mod q) / q, so the closed-threshold comparison
"circle distance <= s/N" is a pure integer comparison and the statistic is an
exact fraction.  A fixed-point mode stands for a real alpha known to a given
number of bits, with certified error bounds; comparisons that fall inside
its guard window raise instead of guessing.

Three routes compute the same number and are kept independent: a sweep over
the sorted residues (production), the literal quadratic loop (oracle), and a
sum over representation counts of the difference set (connects the statistic
to additive energy).  The production route is one counter over sorted
uint64 words, ``_count_within_u64``: the residues themselves for q <= 2**64,
their top 64 bits above (every fixed point wider than 64 bits, every
rational with a large denominator), where only the pairs within one unit of
the scaled window edge are settled from their exact residues.

One evaluator serves every caller: it takes a grid of prefix lengths N and
window parameters s for one (sequence, alpha), checks the whole grid before
any work, computes the residues of the longest prefix once, sorts each
prefix once and counts every s (every limit of every cell) from that sorted
array.  The residues come from one step, ``_residues``, as the words the
count takes; the count does not look behind them.  That step reads each
member only through x mod q, which one reader forms (``_reduced``), and
the fixed-point width check only the widest member.  A block sequence
gives x mod q per block from its construction and never forms its element
list: a run C + [0, L) as (C mod q + k) mod q, a geometric block 2C + 2^i
as (2C mod q + 2^i mod q) mod q with the powers found by doubling, in numpy
uint64 for q <= 2**32 and in small Python ints above.  A classic family is
read from its stored members, an int64 array by numpy's ``%`` (exact for
either sign) or, at q = 2**64, as its two's-complement words without a
copy; the elements of anything else one by one.  ``pair_correlation`` is
one cell of the evaluator, ``divergence_probe`` one call over its levels,
and ``monte_carlo_ppc`` one call per trial on the uint64 words x mod 2**64
it reads once, which are all a residue under its dilations k/2**64 reads.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .growth import GrowthFunction, ThetaFunction, psi
from .energy import rep_counts
from .sequences import BlockSequence, BudgetError, ClassicSequence, SequenceLike, as_elements

__all__ = [
    "Alpha",
    "PrecisionError",
    "frac_mult",
    "pair_correlation",
    "pair_correlation_naive",
    "pair_correlation_via_reps",
    "RegularSystemParams",
    "exceptional_alpha_candidates",
    "rank_of_denominator",
    "perturbed_alpha",
    "targeting_eta",
    "TrajectoryPoint",
    "Trajectory",
    "divergence_probe",
    "MonteCarloRow",
    "MonteCarloResult",
    "monte_carlo_ppc",
    "random_prime_alpha",
    "is_probable_prime",
]

SLike = Union[int, float, str, Fraction]


class PrecisionError(Exception):
    """A fixed-point comparison could not be certified; use rational mode."""


@dataclass(frozen=True)
class Alpha:
    """A dilation factor in [0, 1), either exact rational or fixed point.

    rational:    value = num / den, in lowest terms, 0 <= num < den
    fixed point: mantissa / 2**bits approximates a real alpha with error
                 below 2**-bits; ``guard`` bits of the error budget are
                 reserved so products with integers stay certified
    """

    mode: str
    num: int = 0
    den: int = 1
    mantissa: int = 0
    bits: int = 0
    guard: int = 64

    @classmethod
    def rational(cls, num: SLike, den: int | None = None) -> "Alpha":
        frac = Fraction(num, den) if den is not None else Fraction(num)
        frac = frac - (frac.numerator // frac.denominator)  # reduce mod 1
        return cls(mode="rational", num=frac.numerator, den=frac.denominator)

    @classmethod
    def fixed(cls, mantissa: int, bits: int, guard: int = 64) -> "Alpha":
        if bits <= 0 or not (0 <= mantissa < (1 << bits)):
            raise ValueError("mantissa must fit the stated width")
        if not (0 < guard < bits):
            raise ValueError("guard must lie strictly between 0 and bits")
        return cls(mode="fixed", mantissa=mantissa, bits=bits, guard=guard)

    @property
    def value(self) -> Fraction:
        if self.mode == "rational":
            return Fraction(self.num, self.den)
        return Fraction(self.mantissa, 1 << self.bits)

    @property
    def denominator(self) -> int:
        return self.den if self.mode == "rational" else 1 << self.bits

    def label(self) -> str:
        if self.mode == "rational":
            return f"{self.num}/{self.den}"
        return f"fixed:{self.mantissa}:{self.bits}:{self.guard}"

    @classmethod
    def parse(cls, text: str) -> "Alpha":
        """Parse '3/7', '0.25' (exact decimal), or 'fixed:mantissa:bits[:guard]'."""
        text = text.strip()
        if text.startswith("fixed:"):
            parts = text.split(":")
            if len(parts) not in (3, 4):
                raise ValueError(f"bad fixed-point alpha {text!r}")
            mantissa, bits = int(parts[1]), int(parts[2])
            guard = int(parts[3]) if len(parts) == 4 else 64
            return cls.fixed(mantissa, bits, guard)
        return cls.rational(Fraction(text))


def frac_mult(alpha: Alpha, a: int) -> Fraction:
    """Fractional part of alpha * a.

    Rational mode is exact: (num * a mod den) / den, reducing a mod den up
    front so the full product is never materialized.  Fixed-point mode is the
    same computation with denominator 2**bits and a certified error below
    2**-guard, enforced via the width precondition.
    """
    a = int(a)
    p, q = _dilation(alpha, [a], 1)
    return Fraction(p * (a % q) % q, q)


# a member source: a block sequence read from its blocks, an int64 or uint64
# array, or the elements
Source = Union[BlockSequence, np.ndarray, Sequence[int]]


def _dilation(alpha: Alpha, source: Source, n: int) -> tuple[int, int]:
    """p and q with alpha = p/q, once the widest |x| of the first n members
    of ``source`` passes the fixed-point width precondition bits(|x|) +
    guard <= bits."""
    if alpha.mode == "rational":
        return alpha.num, alpha.den
    if isinstance(source, BlockSequence):  # increasing and positive: the last
        widest = source.member(n - 1) if n else 0
    elif isinstance(source, np.ndarray):  # the ends as Python ints, so -2**63 negates
        widest = max(int(source[:n].max(initial=0)), -int(source[:n].min(initial=0)))
    else:
        widest = int(max(map(abs, islice(source, n)), default=0))
    need = widest.bit_length() + alpha.guard
    if need > alpha.bits:
        raise PrecisionError(
            f"multiplier needs {need} mantissa bits (value bits + guard) "
            f"but alpha carries {alpha.bits}; use rational mode"
        )
    return alpha.mantissa, 1 << alpha.bits


# residue moduli up to this size are counted as they are, larger ones by
# their top 64 bits
_U64_MODULUS = 1 << 64
# moduli up to this size take p * (x mod q) in uint64
_U32_MODULUS = 1 << 32
# anchors per block of the uint64 sweep, so its scratch stays flat
_SEARCH_CHUNK = 1 << 16
# successors per anchor the uint64 sweep tests over contiguous slices before
# it searches for the rest (2, 3, 4, 5 and 8 measured; 4 and 5 were fastest)
_DENSE_ROUNDS = 4


def _block_reduced(seq: BlockSequence, n: int, q: int) -> np.ndarray | Iterator[int]:
    """x mod q for the first n members of ``seq``, per block: the base
    reduced once, plus k for a run member base + k, plus 2^k mod q by
    doubling for a geometric member base + 2^k.  Words in numpy uint64 for
    q <= 2**32 and for q = 2**64 (there the sums and doublings wrap), small
    Python ints otherwise."""
    if q > _U32_MODULUS and q != _U64_MODULUS:
        return _block_reduced_ints(seq, n, q)
    words = [np.empty(0, dtype=np.uint64)]
    for geometric, base, lo, hi in seq.parts(n):
        if not geometric:
            steps = np.arange(lo, hi, dtype=np.uint64)
        elif q == _U64_MODULUS:
            k = np.arange(lo, hi, dtype=np.uint64)
            steps = np.where(k < 64, np.uint64(1) << np.minimum(k, np.uint64(63)), np.uint64(0))
        else:  # 2^k mod q for 32 k at a time: (2^k0 mod q) << t < 2**63
            heads = np.fromiter(_doublings(lo, hi, q, 32), dtype=np.uint64)
            steps = heads[:, None] << np.arange(32, dtype=np.uint64)
            steps = steps.ravel()[:hi - lo] % np.uint64(q)
        steps += np.uint64(base % q)
        if q != _U64_MODULUS:
            steps %= np.uint64(q)
        words.append(steps)
    return np.concatenate(words)


def _block_reduced_ints(seq: BlockSequence, n: int, q: int) -> Iterator[int]:
    """:func:`_block_reduced` in Python ints, for any q."""
    for geometric, base, lo, hi in seq.parts(n):
        b = base % q
        for step in _doublings(lo, hi, q) if geometric else range(lo, hi):
            yield (b + step) % q


def _doublings(lo: int, hi: int, q: int, step: int = 1) -> Iterator[int]:
    """2^k mod q for k = lo, lo + step, ... below hi, each the last one
    doubled step times."""
    return accumulate(repeat(None, (hi - lo - 1) // step), lambda x, _: (x << step) % q,
                      initial=pow(2, lo, q))


def _reduced(source: Source, n: int, q: int) -> np.ndarray | Iterable[int]:
    """x mod q for the first n members of ``source``: uint64 words for q <=
    2**32 and for q = 2**64, Python ints otherwise.  A block sequence gives
    them per block.  An int64 array takes numpy's ``%``, exact and
    non-negative for members of either sign, is viewed as its words at q =
    2**64 (two's complement is x mod 2**64) and becomes Python ints above
    2**32, ``_SEARCH_CHUNK`` of them at a time.  A uint64 array is taken as
    the words x mod 2**64 (of :func:`monte_carlo_ppc`), so it is read right
    only when q divides 2**64.  The elements of anything else are reduced
    one by one."""
    if isinstance(source, BlockSequence):
        return _block_reduced(source, n, q)
    if isinstance(source, np.ndarray):
        if q == _U64_MODULUS:
            return source[:n].view(np.uint64)
        if q <= _U32_MODULUS:
            return (source[:n] % source.dtype.type(q)).view(np.uint64)
        # no list of all n Python ints is held
        chunks = np.split(source[:n], range(_SEARCH_CHUNK, n, _SEARCH_CHUNK))
        source = chain.from_iterable(map(np.ndarray.tolist, chunks))
    reduced = (x % q for x in islice(source, n))
    if q <= _U32_MODULUS or q == _U64_MODULUS:
        return np.fromiter(reduced, dtype=np.uint64, count=n)
    return reduced


def _residues(alpha: Alpha, source: Source, n: int | None = None
              ) -> tuple[np.ndarray, int, Callable[[int], int] | None]:
    """The residues r = p * x mod q of alpha = p/q over the first n members
    of ``source`` (all by default) as uint64 words, q, and (for q > 2**64)
    the exact r of the member at an index.

    Every residue is read from x mod q (:func:`_reduced`).  For q <= 2**64
    the words are the residues: by mask for a power-of-two q (from x mod
    2**64, as q divides 2**64), p * (x mod q) mod q in uint64 for q <= 2**32
    and in Python ints above.  Above 2**64 they are the top words floor(r *
    2**64 / q) = (x % q) * c >> k mod 2**64 with c = ceil(p * 2**(64 + k) /
    q): exact at k = b - 64 for q = 2**b, and at k = 2 bits(q) for any q,
    where the error term (x % q) * (c - p * 2**(64 + k) / q) / 2**k < q /
    2**k stays below 1/q, the spacing of r * 2**64 / q.  The resolver reads
    the member at the index again (a block sequence forms it from its part)
    and reduces it."""
    n = len(source) if n is None else n
    p, q = _dilation(alpha, source, n)
    if q <= _U64_MODULUS and not q & (q - 1):
        # q divides 2**64, so the product may wrap mod 2**64 before the mask
        res = _reduced(source, n, _U64_MODULUS) * np.uint64(p)
        if q < _U64_MODULUS:
            res &= np.uint64(q - 1)
        return res, q, None
    reduced = _reduced(source, n, q)
    if q <= _U32_MODULUS:  # p * (x mod q) < 2**64
        reduced *= np.uint64(p)
        reduced %= np.uint64(q)
        return reduced, q, None
    if q <= _U64_MODULUS:
        words = ((p * r) % q for r in reduced)
        return np.fromiter(words, dtype=np.uint64, count=n), q, None
    member = source.member if isinstance(source, BlockSequence) else source.__getitem__
    k = q.bit_length() - 65 if not q & (q - 1) else 2 * q.bit_length()
    scaled, mask = -(-(p << (64 + k)) // q), _U64_MODULUS - 1
    words = np.fromiter((r * scaled >> k & mask for r in reduced), dtype=np.uint64, count=n)
    return words, q, lambda i: p * (int(member(i)) % q) % q


def _search_rest(sorted_res: np.ndarray, q: int, limit: int, anchors: np.ndarray) -> int:
    """The sum over the ascending ``anchors`` i of #{k >= 1 : fwd(i, k) <=
    limit} (see :func:`_count_within_u64`), by rank: an anchor with r_i <
    q - limit pairs with the later r_j <= r_i + limit, one with r_i >= q -
    limit with every later residue and with the wrapped r_j <= r_i - (q -
    limit).  Neither bound leaves [0, q), so no uint64 sum wraps."""
    n = len(sorted_res)
    top = q - limit
    res = sorted_res[anchors]
    split = int(np.searchsorted(res, np.uint64(top - 1), side="right"))  # r_i < top
    direct, wrapped = anchors[:split], anchors[split:]
    ranks = np.searchsorted(sorted_res, res[:split] + np.uint64(limit), side="right")
    total = int(ranks.sum()) - int(direct.sum()) - split
    if len(wrapped):
        total += (n - 1) * len(wrapped) - int(wrapped.sum())
        ranks = np.searchsorted(sorted_res, res[split:] - np.uint64(top), side="right")
        total += int(ranks.sum())
    return total


def _count_block(sorted_res: np.ndarray, q: int, limit: int, lo: int, hi: int) -> int:
    """The sum over the anchors lo <= i < hi of #{k : fwd(i, k) <= limit}."""
    n = len(sorted_res)
    rounds = min(_DENSE_ROUNDS, n - 1)
    if not rounds:
        return _search_rest(sorted_res, q, limit, np.arange(lo, hi))
    # back >= q - limit, as back > q - limit - 1 so the bound fits a uint64
    # also at q = 2**64 with limit 0, where no wrapped successor is within
    ahead_max, back_min = np.uint64(limit), np.uint64(q - limit - 1)
    count = 0
    for k in range(1, rounds + 1):
        mid = max(lo, min(hi, n - k))  # anchors from mid on wrap
        ahead = sorted_res[lo + k:mid + k] - sorted_res[lo:mid] <= ahead_max
        back = sorted_res[mid:hi] - sorted_res[mid + k - n:hi + k - n] > back_min
        live = int(np.count_nonzero(ahead)) + int(np.count_nonzero(back))
        count += live
        if not live or k == n - 1:
            return count
    alive = np.concatenate([np.flatnonzero(ahead) + lo, np.flatnonzero(back) + mid])
    return count - rounds * live + _search_rest(sorted_res, q, limit, alive)


def _at_most(xs: Counter, ys: Counter, bound: int) -> int:
    """#{(x, y) : y - x <= bound} over two multisets of integers."""
    values = sorted(ys)
    below = np.cumsum([0] + [ys[y] for y in values])
    at = np.searchsorted(np.array(values, dtype=object), [x + bound for x in xs], "right")
    return int(np.dot(list(xs.values()), below[at]))


def _run(words: np.ndarray, word: int) -> range:
    """The positions of ``word`` in the sorted ``words``."""
    word = np.uint64(word)
    return range(int(np.searchsorted(words, word)), int(np.searchsorted(words, word, "right")))


def _edge_pairs(words: np.ndarray, q: int, limit: int, gaps: range,
                exact: Callable[[int], int]) -> int:
    """The pairs of sorted top words at a circular distance in ``gaps``
    whose exact residues are within ``limit`` (see :func:`_count_within_u64`):
    each run of equal words with a partner ``gap`` ahead, found in blocks of
    ``_SEARCH_CHUNK``, is paired with the partner's run (itself at gap 0) and
    settled from the exact residues, equal ones by their multiplicity."""
    count = 0
    for gap in gaps:
        found = []
        for lo in range(0, len(words), _SEARCH_CHUNK):
            block = words[lo:lo + _SEARCH_CHUNK]
            ahead = block + np.uint64(gap)  # wraps mod 2**64
            at = np.searchsorted(words, ahead, "right") - 1  # the last word <= ahead
            hit = words[at] == ahead
            if not gap:  # a later member of the same run
                hit &= at > np.arange(lo, lo + len(block))
            elif gap == 1 << 63:  # ahead both ways: count from the lower word
                hit &= block < ahead
            found.append(block[hit])
        for word in np.unique(np.concatenate(found)).tolist():
            partner = (word + gap) % _U64_MODULUS
            # y - x is the forward distance f in [0, q) once a partner run
            # behind this one is taken a turn up, and a pair is in when f <=
            # limit or f >= q - limit; a run paired with itself lies within
            # q / 2**64 < q - limit, and its ordered count of y - x <= limit
            # exceeds its pairs by m(m + 1)/2
            run, partners = _run(words, word), _run(words, partner)
            xs = Counter(exact(i) for i in run)
            ys = Counter(exact(i) + (q if partner < word else 0) for i in partners)
            count += (_at_most(xs, ys, limit) + len(run) * len(partners)
                      - _at_most(xs, ys, q - limit - 1))
            if not gap:
                count -= len(run) * (len(run) + 1) // 2
    return count


def _count_within_u64(sorted_words: np.ndarray, q: int, limits: Sequence[int],
                      exact: Callable[[int], int] | None = None) -> list[int]:
    """Unordered pairs of residues mod q at circular distance <= limit, for
    each limit < q/2 (a negative one counts none), from the sorted words of
    :func:`_residues`.

    For q <= 2**64 the words are the residues r.  Let fwd(i, k) be the
    forward distance from r_i to its k-th circular successor, k = 1..n-1.
    It never decreases in k: r_(i+k) - r_i for the direct successors, then
    q - (r_i - r_j) for the wrapped ones j = i+k-n, which start at q - r_i +
    r_0 > r_(n-1) - r_i.  A pair's two forward distances add up to q, so
    with limit < q/2 each pair within circular distance limit is counted
    exactly once, as #{k : fwd(i, k) <= limit} summed over the anchors i.
    Both tests are exact in uint64: ahead = r_(i+k) - r_i <= limit, and for
    a wrapped successor back = r_i - r_j >= q - limit, so a full turn (r_i =
    r_j at q = 2**64) never wraps to 0.

    Each limit is its own pass over the anchors, in blocks of
    ``_SEARCH_CHUNK``.  The first ``_DENSE_ROUNDS`` successors of a block
    are tested over contiguous slices and counted; only the anchors whose
    last tested successor is still within the limit finish by rank
    (:func:`_search_rest`).  On uniform residues about 1 - e**(-s) of the
    anchors pass the first round at the window s/N, 63 % at s = 1, and
    under 2 % are still within after four rounds.

    For q > 2**64 the words are the top words t = floor(r * 2**64 / q), and
    ``exact(k)`` is the residue behind the k-th.  Scaled by 2**64 / q, r lies
    in [t, t + 1), so a pair's top-word circular distance (mod 2**64) is
    within one unit, strictly, of its scaled true distance.  With A =
    floor(limit * 2**64 / q) and B = ceil(limit * 2**64 / q), a pair at
    top-word distance <= A - 1 is within the limit, one at >= B + 1 is not,
    and only those at A..B are undecided.  The sweep at q = 2**64 counts the
    first kind (A - 1 < 2**63, as limit < q/2), and :func:`_edge_pairs`
    settles the rest from their exact residues: every count is certified
    or resolved, never guessed.
    """
    if q > _U64_MODULUS:
        bands = [((x << 64) // q, -(-(x << 64) // q)) for x in limits]
        # beside each count at A - 1 the sweep counts the pairs at top-word
        # distance <= B (when B < 2**63, else the band is searched): where
        # the two agree the band A..B is empty, and no exact residue is read
        tops = [b if b < 1 << 63 else -1 for _, b in bands]
        counts = _count_within_u64(sorted_words, _U64_MODULUS, [a - 1 for a, _ in bands] + tops)
        m = len(limits)
        for i, (x, (a, b)) in enumerate(zip(limits, bands)):
            if x >= 0 and (tops[i] < 0 or counts[m + i] > counts[i]):
                counts[i] += _edge_pairs(sorted_words, q, x, range(a, b + 1), exact)
        return counts[:m]
    n = len(sorted_words)
    return [
        sum(_count_block(sorted_words, q, limit, lo, min(lo + _SEARCH_CHUNK, n))
            for lo in range(0, n, _SEARCH_CHUNK)) if limit >= 0 else 0
        for limit in limits
    ]


def _grid(length: int, ns: Iterable[int], s_values: Iterable[SLike]
          ) -> tuple[list[int], list[Fraction]]:
    """The prefix lengths and window parameters, each sorted without
    repeats, once every s >= 0 and every n lies in 1..length."""
    s_values = sorted(set(Fraction(s) for s in s_values))
    if s_values and s_values[0] < 0:
        raise ValueError("window parameter s must be nonnegative")
    ns = sorted(set(ns))
    if ns and ns[0] < 1:
        raise ValueError("need at least one point")
    if ns and ns[-1] > length:
        raise ValueError(f"N={ns[-1]} but the sequence has {length} elements")
    return ns, s_values


def _cell_limits(q: int, alpha: Alpha, n: int, s: Fraction) -> tuple[int, int] | None:
    """The (low, high) limits the cell (n, s) is counted at: the threshold
    twice for rational alpha, the ends of the guard window in fixed point;
    None when that window reaches half the circle."""
    # threshold in residue units: distance/q <= s/n  <=>  distance <= q*s/n
    t_num, t_den = q * s.numerator, s.denominator * n
    if alpha.mode == "rational":
        limit = t_num // t_den
        return limit, limit
    # fixed point: residues carry up to 2**(bits-guard) units of error each,
    # so distances are uncertain within a window of twice that
    window = 1 << (alpha.bits - alpha.guard + 1)
    low = (t_num - window * t_den) // t_den
    high = (t_num + window * t_den) // t_den
    return None if 2 * high >= q else (low, high)


def _count_cell(counts: dict[int, int], limits: tuple[int, int] | None, n: int) -> Fraction:
    """The statistic at a cell of the n-prefix, from its :func:`_cell_limits`
    and the pair counts at every limit of that prefix."""
    if limits is None:
        raise PrecisionError("guard window reaches half the circle; use rational mode")
    c_low, c_high = counts[limits[0]], counts[limits[1]]
    if c_low != c_high:
        raise PrecisionError(
            f"{c_high - c_low} pair(s) within the precision guard of the "
            "threshold; use rational mode"
        )
    return Fraction(2 * c_low, n)


def _statistics(
    source: Source,
    alpha: Alpha,
    ns: Iterable[int],
    s_values: Iterable[SLike],
) -> dict[tuple[int, Fraction], Fraction]:
    """The statistic at every (n, s) of the grid, from one residue pass.

    Every n and s is checked before any work, and the fixed-point width
    check runs once, over the longest prefix that needs counting (a cell
    with 2s >= n covers the whole circle and needs none).  The words of
    that prefix come once from :func:`_residues`, of the elements or per
    block of a block sequence, which it never forms.  Residues are sorted
    in place, prefix by prefix in increasing n (the fresh words of
    ``_residues`` are read by nothing else); top words through
    ``np.argsort``, whose order leads back to the elements, on words never
    reordered.  :func:`_count_within_u64` counts every limit of every s
    from that sorted array; the cells then raise their ``PrecisionError``
    in (n, s) order.
    """
    ns, s_values = _grid(len(source), ns, s_values)
    out = {(n, s): Fraction(n - 1) for n in ns for s in s_values if 2 * s >= n}
    counted = [n for n in ns if any(2 * s < n for s in s_values)]
    if not counted:
        return out
    top = counted[-1]
    words, q, exact = _residues(alpha, source, top)
    for n in counted:
        exact_at = None
        if exact is not None:
            order = np.argsort(words[:n])
            sorted_words = words[order]
            exact_at = lambda k, order=order: exact(int(order[k]))  # noqa: E731
        else:
            # sorting a prefix in place keeps the members of every longer one
            sorted_words = words[:n]
            sorted_words.sort()
        cells = {s: _cell_limits(q, alpha, n, s) for s in s_values if 2 * s < n}
        limits = sorted({x for pair in cells.values() if pair for x in pair})
        counts = dict(zip(limits, _count_within_u64(sorted_words, q, limits, exact_at)))
        for s, pair in cells.items():
            out[n, s] = _count_cell(counts, pair, n)
    return out


def pair_correlation(seq: SequenceLike, alpha: Alpha, n: int, s: SLike) -> Fraction:
    """The pair correlation statistic at scale N = n, exactly.

    Counts ordered index pairs i != j with circle distance at most s/n
    between the dilated points (closed threshold), scaled by 1/n, in
    O(n log n) by sorting the residues p * a mod q of alpha = p/q (see
    :func:`_count_within_u64`).  In fixed-point mode a comparison landing
    inside the guard window raises :class:`PrecisionError`.  A block
    sequence is read per block and a classic family from its stored
    members (see :func:`_reduced`), neither forming its element list.
    """
    s = Fraction(s)
    return _statistics(_source(seq), alpha, [n], [s])[n, s]


def _source(seq: SequenceLike) -> Source:
    """What the residues of ``seq`` are read from: a block sequence itself,
    whose residues come per block, a classic family's ``members`` (its int64
    array, or its list), else the elements."""
    return seq.members if isinstance(seq, ClassicSequence) else seq


def _prepare(seq: SequenceLike, n: int, s: SLike) -> tuple[Sequence[int], Fraction]:
    """The n-prefix and s of one cell, checked as the evaluator checks them."""
    elements = as_elements(seq)
    (n,), (s,) = _grid(len(elements), [n], [s])
    return elements[:n], s


def _fits_int64(q: int, n: int, s: Fraction) -> bool:
    """Whether p * (x mod q) (p < q) and both sides of the window test
    dist * s.denominator * n <= s.numerator * q (dist <= q) fit an int64."""
    return max(q * q, q * s.denominator * n, q * s.numerator) < 1 << 63


def pair_correlation_naive(seq: SequenceLike, alpha: Alpha, n: int, s: SLike) -> Fraction:
    """Oracle: the literal quadratic count (rational alpha only), one row of
    pairs at a time in int64 when every product fits one, else in Python
    ints."""
    if alpha.mode != "rational":
        raise ValueError("the oracle route is defined for rational alpha only")
    elements, s = _prepare(seq, n, s)
    p, q = alpha.num, alpha.den
    res = [(p * (x % q)) % q for x in elements]
    if _fits_int64(q, n, s):
        res = np.array(res, dtype=np.int64)
        scale, bound = s.denominator * n, s.numerator * q
        count = 0
        for i in range(n - 1):
            delta = np.abs(res[i + 1:] - res[i])
            dist = np.minimum(delta, q - delta)
            count += int(np.count_nonzero(dist * scale <= bound))
        return Fraction(2 * count, n)
    count = 0
    for i in range(n):
        ri = res[i]
        for j in range(i + 1, n):
            delta = ri - res[j]
            if delta < 0:
                delta = -delta
            dist = min(delta, q - delta)
            # dist/q <= s/n without leaving the integers
            if dist * s.denominator * n <= s.numerator * q:
                count += 1
    return Fraction(2 * count, n)


def pair_correlation_via_reps(seq: SequenceLike, alpha: Alpha, n: int, s: SLike) -> Fraction:
    """Cross-check route: sum representation counts of the difference set
    over the differences whose dilation lands in the window.

    Identical to the direct count because each ordered pair contributes via
    its difference d, and the window only depends on d.  The counts come
    from ``np.unique`` over the positive differences when the elements are
    below 2**62 and every product fits an int64, else from ``rep_counts``.
    """
    if alpha.mode != "rational":
        raise ValueError("the representation route is defined for rational alpha only")
    elements, s = _prepare(seq, n, s)
    q, p = alpha.den, alpha.num
    if _fits_int64(q, n, s) and max(map(abs, elements)) < 1 << 62:
        x = np.array(elements, dtype=np.int64)
        diffs = x[:, None] - x[None, :]
        if np.count_nonzero(diffs == 0) > n:
            raise ValueError("duplicate element; inputs must be sets")
        diffs, counts = np.unique(diffs[diffs > 0], return_counts=True)
        rd = p * (diffs % q) % q
        dist = np.minimum(rd, q - rd)
        inside = dist * (s.denominator * n) <= s.numerator * q
        return Fraction(2 * int(counts[inside].sum()), n)
    reps = rep_counts(elements)
    total = 0
    for d, c in reps.counts.items():
        if d <= 0:  # count each +/- pair once via the positive side
            continue
        rd = (p * (d % q)) % q
        dist = min(rd, q - rd)
        if dist * s.denominator * n <= s.numerator * q:
            total += 2 * c
    return Fraction(total, n)


# -- regular system of rational candidates ----------------------------------------


@dataclass(frozen=True)
class RegularSystemParams:
    """Denominator window per level: q in [ceil(2/3 * B_j), floor(B_j)] with
    B_j = 2^j / (f(2^j) * sqrt(theta(2^j)))."""

    f: GrowthFunction
    theta: ThetaFunction

    def upper(self, j: int) -> float:
        x = 2.0**j
        return x / (self.f(x) * math.sqrt(self.theta(x)))

    def lower(self, j: int) -> float:
        return self.upper(j) * 2.0 / 3.0

    def denominator_range(self, j: int) -> range:
        lo = math.ceil(self.lower(j))
        hi = math.floor(self.upper(j))
        if lo > hi:
            raise ValueError(
                f"no admissible denominators at level {j}: window is "
                f"[{self.lower(j):.3f}, {self.upper(j):.3f}]"
            )
        return range(lo, hi + 1)


def exceptional_alpha_candidates(
    system: RegularSystemParams, j: int, limit: int | None = None
) -> list[Alpha]:
    """Reduced fractions p/q with q in the level-j denominator window,
    ordered by denominator then numerator; optionally truncated to the first
    ``limit`` (0 gives none, a negative limit is refused)."""
    if limit is not None and limit < 0:
        raise ValueError(f"candidate limit must be >= 0, got {limit}")
    out: list[Alpha] = []
    for q in system.denominator_range(j):
        for p in range(1, q):
            if limit is not None and len(out) >= limit:
                return out
            if math.gcd(p, q) == 1:
                out.append(Alpha.rational(p, q))
    return out


# trial divisions the walk to one candidate may take: 2**22 of them on a
# 46-bit prime took 0.8 s in CPython 3.11
_CANDIDATE_WORK = 1 << 22


def _prime_divisors(q: int) -> list[int]:
    """The distinct primes dividing q >= 1, by trial division."""
    primes, d = [], 2
    while d * d <= q:
        if q % d == 0:
            primes.append(d)
            while q % d == 0:
                q //= d
        d += 1 if d == 2 else 2
    return primes + [q] if q > 1 else primes


def _candidate_at(system: RegularSystemParams, j: int, index: int) -> Alpha:
    """``exceptional_alpha_candidates(system, j)[index]`` without building
    the candidates before it.

    Whole denominators are skipped by Euler's phi(q), the number of reduced
    p/q in (0, 1) for q >= 2.  In the chosen q, p is the least integer with
    the wanted count of integers in [1, p] coprime to q, found by bisection
    on that count by inclusion-exclusion over q's primes.  An index past
    the window raises ``ValueError``; one whose walk could take more than
    ``_CANDIDATE_WORK`` trial divisions raises ``BudgetError`` first."""
    if index < 0:
        raise ValueError(f"candidate index must be >= 0, got {index}")
    window = system.denominator_range(j)
    walk = len(window)
    if window.start >= 3:
        # phi(q) > q / (e^gamma ln ln q + 3 / ln ln q) for q >= 3 (Rosser and
        # Schoenfeld), increasing in q, so each q past window.start skips at
        # least phi_min candidates
        lnln = math.log(math.log(window.start))
        phi_min = window.start / (1.7810724179901979 * lnln + 3 / lnln)
        walk = min(walk, int(index / phi_min) + 1)
    if walk * (math.isqrt(window[-1]) // 2 + 1) > _CANDIDATE_WORK:
        raise BudgetError(
            f"candidate {index} at level {j} may take more than {_CANDIDATE_WORK} "
            "trial divisions to reach; choose a smaller rank"
        )
    seen = 0
    for q in window:
        primes = _prime_divisors(q)
        phi = q if q > 1 else 0
        for prime in primes:
            phi -= phi // prime
        if index < seen + phi:
            want = index - seen + 1
            divisors = [(1, 1)]  # the squarefree divisors d of q, with mu(d)
            for prime in primes:
                divisors += [(d * prime, -mu) for d, mu in divisors]
            lo, hi = 1, q - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if sum(mu * (mid // d) for d, mu in divisors) >= want:
                    hi = mid
                else:
                    lo = mid + 1
            return Alpha.rational(lo, q)
        seen += phi
    raise ValueError(f"regular system at level {j} has only {seen} candidates")


# 25*pi^2 relates the enumeration rank of a reduced fraction to its height:
# among fractions ordered by height, p/q appears no earlier than rank
# q^2/(25*pi^2) up to the constants of the counting argument
_RANK_SCALE = 25.0 * math.pi**2


def rank_of_denominator(q: int) -> int:
    return max(1, math.ceil(q * q / _RANK_SCALE))


def perturbed_alpha(
    candidate: Alpha,
    system: RegularSystemParams,
    rank: int | None = None,
    eta: Fraction | None = None,
) -> Alpha:
    """A rational point inside the approximation neighborhood of a candidate:
    p/q + eta with 0 <= eta <= psi(rank), psi(n) = 1/(n f(n) theta(n)).

    The rank defaults to the conservative proxy for where p/q appears in the
    height ordering; eta defaults to half the full radius.  eta = 0 returns
    the candidate itself.
    """
    if candidate.mode != "rational":
        raise ValueError("candidates are rational by construction")
    i = rank if rank is not None else rank_of_denominator(candidate.den)
    if i < 1:
        raise ValueError("rank must be >= 1")
    radius = Fraction(psi(system.f, system.theta, i))
    eta = radius / 2 if eta is None else Fraction(eta)
    if not (0 <= eta <= radius):
        raise ValueError(f"eta {eta} outside the neighborhood radius {radius}")
    shifted = candidate.value + eta
    if shifted >= 1:
        raise ValueError("perturbation pushed the dilation out of [0, 1)")
    return Alpha.rational(shifted)


def targeting_eta(seq: BlockSequence, level: int, q: int, s: SLike) -> Fraction:
    """A perturbation small enough that every multiple of q up to the
    level's run length lands inside the closed window s/T_level.

    With alpha = p/q + eta, the dilation of m*q sits at distance m*q*eta
    from an integer; bounding m*q*eta <= s/(2*T) for all useful m makes the
    run's representation mass at multiples of q count in full.
    """
    t = seq.checkpoint(level)
    run = seq.a_block(level).length
    multiples = max(1, run // q)
    return Fraction(s) / (2 * t * q * multiples)


# -- divergence probe ---------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryPoint:
    level: int
    n: int
    s: Fraction
    r: Fraction
    predicted: float


@dataclass(frozen=True)
class Trajectory:
    alpha: Alpha
    points: tuple[TrajectoryPoint, ...]


def divergence_probe(
    seq: BlockSequence,
    alpha: Alpha,
    s: SLike,
    levels: Sequence[int],
    system: RegularSystemParams,
) -> Trajectory:
    """The statistic along the checkpoint scales T_j, with the theoretical
    lower-bound shape f(2^j)^(2*gamma-beta) * theta(2^j)^(1/3) attached
    (up to its unspecified constant) for visual comparison."""
    params = seq.params
    s = Fraction(s)
    levels = sorted(set(levels))
    ns = [seq.checkpoint(j) for j in levels]
    stats = _statistics(seq, alpha, ns, [s])
    points = []
    for j, n in zip(levels, ns):
        x = 2.0**j
        predicted = params.f(x) ** (2.0 * params.gamma - params.beta) * system.theta(
            x
        ) ** (1.0 / 3.0)
        points.append(TrajectoryPoint(level=j, n=n, s=s, r=stats[n, s], predicted=predicted))
    return Trajectory(alpha=alpha, points=tuple(points))


# -- Monte Carlo ------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloRow:
    trial: int
    alpha: Alpha
    n: int
    s: Fraction
    r: Fraction


@dataclass(frozen=True)
class MonteCarloResult:
    rows: tuple[MonteCarloRow, ...]
    delta: float

    def mean_r(self, n: int, s: SLike) -> float:
        s = Fraction(s)
        vals = [float(row.r) for row in self.rows if row.n == n and row.s == s]
        if not vals:
            raise ValueError(f"no rows at (n={n}, s={s})")
        return sum(vals) / len(vals)

    def exceed_fraction(self, n: int, s: SLike) -> float:
        """Fraction of trials with R > (1 + delta) * 2s at this (n, s)."""
        s = Fraction(s)
        vals = [row.r for row in self.rows if row.n == n and row.s == s]
        if not vals:
            raise ValueError(f"no rows at (n={n}, s={s})")
        bar = (1 + Fraction(str(self.delta))) * 2 * s
        return sum(1 for r in vals if r > bar) / len(vals)


def _trial_alpha(seed: int, trial: int) -> Alpha:
    # string seeding hashes via SHA-512 in CPython, stable across platforms;
    # forcing the low bit makes the numerator odd, hence coprime to 2**64
    rng = random.Random(f"{seed}:{trial}")
    k = rng.getrandbits(64) | 1
    return Alpha.rational(k, 1 << 64)


def monte_carlo_ppc(
    seq: SequenceLike,
    seed: int,
    trials: int,
    schedule: Sequence[int],
    s_values: Sequence[SLike],
    delta: float = 0.5,
) -> MonteCarloResult:
    """Sample the statistic at random dyadic dilations k/2**64 (k odd).

    Each trial draws its dilation from an independent substream of the master
    seed, so results are reproducible run to run and independent of the
    execution order.  The schedule and the s values are sorted and their
    repeats dropped, and rows are emitted sorted by (trial, n, s).  Every
    input is checked before any work.  The members become uint64 words
    (x mod 2**64, :func:`_reduced`) once per call, and every trial passes
    the words in place of the elements: its q is 2**64, so x mod 2**64 is
    all a residue reads.  A classic family stored as int64
    (:func:`~ppclab.sequences.classic`) is viewed as those words without a
    copy, and a block sequence read per block: neither forms its
    Python-int elements.  Each trial answers every (n, s) from one sort per
    prefix.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    source = _source(seq)
    schedule, s_fracs = _grid(len(source), [int(n) for n in schedule], s_values)
    if not schedule or not s_fracs:
        raise ValueError("schedule and s list must be nonempty")
    words = _reduced(source, schedule[-1], _U64_MODULUS)
    rows = []
    for trial in range(trials):
        alpha = _trial_alpha(seed, trial)
        stats = _statistics(words, alpha, schedule, s_fracs)
        rows += [
            MonteCarloRow(trial=trial, alpha=alpha, n=n, s=s, r=stats[n, s])
            for n in schedule
            for s in s_fracs
        ]
    return MonteCarloResult(rows=tuple(rows), delta=delta)


# -- prime-denominator baseline dilations --------------------------------------------

# deterministic Miller-Rabin witness set for n < 3.3 * 10^24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything below 3.3e24 (incl. 64-bit)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime_alpha(
    rng: random.Random, bits: int = 64, min_power_order: int = 0
) -> Alpha:
    """A baseline dilation p/q with q a random prime of the given width.

    Unlike dyadic denominators, a generic large prime does not resonate with
    power-of-two sequence elements.  If ``min_power_order`` is positive, q is
    redrawn until no power 2^k with 1 <= k <= min_power_order is 1 mod q, so
    even deep geometric blocks cannot collapse to residue zero.  The order of
    2 mod q is at most q - 1 <= 2^bits - 2, so a ``min_power_order`` of
    2^bits - 2 or more is refused up front (ValueError), and so is one that
    4096 primes in a row fail.
    """
    if bits < 8:
        raise ValueError("prime width below 8 bits is not useful here")
    if min_power_order >= 2**bits - 2:
        raise ValueError(
            f"no {bits}-bit prime has a power order above {min_power_order}"
        )
    rejected = 0
    while rejected < 4096:
        q = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
        if not is_probable_prime(q):
            continue
        if min_power_order:
            x = 1
            ok = True
            for _ in range(min_power_order):
                x = (x << 1) % q
                if x == 1:
                    ok = False
                    break
            if not ok:
                rejected += 1
                continue
        p = rng.randrange(1, q)
        return Alpha.rational(p, q)
    raise ValueError(
        f"4096 {bits}-bit primes in a row have a power order of at most "
        f"{min_power_order}"
    )
