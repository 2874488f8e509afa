"""Exact representation counts and additive energy of integer sets.

The additive energy of a finite set A is the number of ordered quadruples
(a, b, c, d) in A^4 with a + b = c + d.  It always lies between (#A)^2 and
(#A)^3, and equals the sum of the squared representation counts of the
difference multiset: counting (a, d) and (c, b) with a - d = c - b pairs off
the quadruples by their common difference.

Three independent routes are implemented and kept separate on purpose:

* ``additive_energy`` — the production path: the pairs are keyed by a
  residue of their difference modulo a prime M0 < 2^62, generated a
  bounded key range at a time, sorted and counted in runs with numpy; runs
  of equal keys are confirmed equal under further coprime moduli whose
  product exceeds twice the span (Chinese remainder theorem), so the count
  is exact and the working set is bounded by a fixed pair cap (2n pairs
  when that is more);
* ``additive_energy_bruteforce`` — enumeration straight from the
  definition, for oracle duty on small sets;
* ``additive_energy_convolution`` — an FFT autocorrelation cross-check,
  valid for dense polynomial-range inputs only.

``rep_counts`` keeps a dict of every difference; it is the oracle that
``additive_energy`` is tested against, for moderate inputs only.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .sequences import BlockSequence, BudgetError, SequenceLike, as_elements, truncate

__all__ = [
    "RepCounts",
    "rep_counts",
    "additive_energy",
    "additive_energy_bruteforce",
    "additive_energy_convolution",
    "energy_from_reps",
    "ap_energy_closed_form",
    "EnergyRow",
    "ScalingResult",
    "energy_scaling",
]


def _validated(a: Iterable[int]) -> list[int]:
    out = sorted(a)
    if not out:
        raise ValueError("need a nonempty set of integers")
    for u, v in zip(out, out[1:]):
        if u == v:
            raise ValueError(f"duplicate element {u}; inputs must be sets")
    return out


@dataclass(frozen=True)
class RepCounts:
    """Counts of x - y over ordered pairs (x, y) in X x Y."""

    counts: Mapping[int, int]
    x_size: int
    y_size: int

    def __getitem__(self, d: int) -> int:
        return self.counts.get(d, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def support(self) -> list[int]:
        return sorted(self.counts)


def rep_counts(x: Iterable[int], y: Iterable[int] | None = None) -> RepCounts:
    """All ordered-pair differences x - y with multiplicity.

    With one argument, counts X - X; then rep(0) = #X, rep is symmetric
    around 0, and the total mass is (#X)^2.  Cost is #X * #Y
    subtractions held in a dict — the oracle for ``additive_energy`` on
    moderate inputs, not the scaling runs.
    """
    xs = _validated(x)
    ys = xs if y is None else _validated(y)
    counts = Counter(a - b for a in xs for b in ys)
    return RepCounts(counts=dict(counts), x_size=len(xs), y_size=len(ys))


def energy_from_reps(reps: RepCounts) -> int:
    """Sum of squared representation counts (equals the additive energy
    when the counts came from X - X)."""
    return sum(c * c for c in reps.counts.values())


# The default budget admits sum n^2 <= 2^24 pair operations per request: one
# set of up to 4096 elements, or several smaller checkpoints.
DEFAULT_MAX_PAIRS = 1 << 24


def check_pair_budget(sizes: Iterable[int], max_pairs: int | None) -> None:
    """Refuse energy work on sets of the given sizes when its sum of n^2
    pair operations exceeds ``max_pairs`` (None: no budget).  Call it
    before any difference is formed."""
    if max_pairs is None:
        return
    total_pairs = sum(n * n for n in sizes)
    if total_pairs > max_pairs:
        raise BudgetError(
            f"about {total_pairs} pair operations requested, over the "
            f"budget of {max_pairs}"
        )


# The residue keys: the primary modulus M0 and a fixed unit SPREAD mod M0,
# so that the keys of small differences land far apart.  M0 is the largest
# prime below 2^62 / golden ratio and SPREAD is floor(M0 / golden ratio).
# M0 is far from every power of two on purpose: the block sequences' own
# differences are a few powers of two plus a short run offset, and at T_12 of
# the (0.7, 0.45) blocks 34,721 runs of equal keys mixed distinct differences
# modulo 2^62 - 57 (388,920 modulo 2^62 - 1); modulo M0, none.
# Every modulus is below 2^62, so a residue plus M0 fits in an int64.
_M0 = 0x278DDE6E5FD29ED3
_SPREAD = 0x18722191A02D60DB
# The most pairs one key range may generate at a time, or 2n when that is
# more: no difference has more than n - 1 pairs, so with at least 2n no range
# has to be halved some sixty times down to a single heavy key.  (A range of
# a single key is counted whole, however many pairs share it.)
_PAIR_CAP = 1 << 15


def additive_energy(a: Iterable[int], method: str = "sorted") -> int:
    """The number of quadruples (a, b, c, d) with a + b = c + d, exactly.

    E = n^2 + 2 * sum over d > 0 of r(d)^2, where r(d) counts the pairs at
    difference d.  The set is reduced to y = (x - min) / g (g the gcd of the
    gaps; energy is affine-invariant), with span S = max y.  Each pair is
    keyed by the circular distance between its two residues SPREAD * y mod
    M0, which is a function of the difference alone.  The key space is cut
    into ranges that each generate at most max(``_PAIR_CAP``, 2n) pairs
    (counted exactly with ``searchsorted`` first, ranges halved until they
    fit); a range's keys are sorted as int64 and equal keys counted in runs,
    so the working set is bounded by the cap, not by the n(n-1)/2
    differences.

    Equal keys only say the two differences agree mod M0.  When 2S >= M0,
    every run of equal keys is confirmed under further pairwise-coprime
    moduli whose product exceeds 2S: the pairs' differences are then equal
    mod every modulus and, by the Chinese remainder theorem, equal.  A run
    that fails is counted exactly from its Python-int differences.
    ``method`` accepts only "sorted", the one route.
    """
    if method != "sorted":
        raise ValueError(f"unknown method {method!r}; the only route is 'sorted'")
    xs = _validated(a)
    n = len(xs)
    if n == 1:
        return 1
    base = xs[0]
    step = math.gcd(*(v - u for u, v in zip(xs, xs[1:])))
    ys = [(x - base) // step for x in xs]
    moduli = _moduli(ys[-1])
    rho = np.array([_SPREAD * y % _M0 for y in ys], dtype=np.int64)
    order = np.argsort(rho, kind="stable")  # ties keep increasing y
    rho = rho[order]
    ys = [ys[i] for i in order.tolist()]
    # rows of further residues, in key order, for the confirmation step
    residues = [np.array([y % m for y in ys], dtype=np.int64) for m in moduli[1:]]

    cap = max(_PAIR_CAP, 2 * n)
    square_sum = 0
    ranges = [(0, (_M0 + 1) // 2)]
    while ranges:
        lo, hi = ranges.pop()
        slices = _partner_slices(rho, lo, hi)
        total = int(slices[1].sum()) + int(slices[3].sum())
        if total > cap and hi - lo > 1:
            mid = (lo + hi) // 2
            ranges += [(mid, hi), (lo, mid)]
        elif total:
            square_sum += _range_square_sum(rho, ys, moduli[1:], residues, slices)
    return n * n + 2 * square_sum


def _moduli(span: int) -> list[int]:
    """M0 and the next odd numbers below it that are coprime to all those
    chosen so far, until the product exceeds 2 * span: then two differences in
    [-span, span] that agree modulo every one of them are equal."""
    moduli, product, m = [], 1, _M0
    while product <= 2 * span:
        if math.gcd(m, product) == 1:
            moduli.append(m)
            product *= m
        m -= 2
    return moduli


def _partner_slices(rho: np.ndarray, lo: int, hi: int):
    """For each anchor p (in key order), the partners q > p whose pair key
    min(rho[q] - rho[p], M0 - (rho[q] - rho[p])) lies in [lo, hi), with
    hi <= (M0 + 1) / 2: the direct slice rho[q] - rho[p] in [lo, hi) and the
    wrapped slice rho[q] - rho[p] in (M0 - hi, M0 - lo].  Returns the start
    and length of each slice per anchor."""
    n = len(rho)
    start = np.maximum(np.searchsorted(rho, rho + lo), np.arange(1, n + 1))
    length = np.maximum(np.searchsorted(rho, rho + hi) - start, 0)
    wstart = np.searchsorted(rho, rho + (_M0 - hi + 1))
    wlength = np.searchsorted(rho, rho + (_M0 - lo), side="right") - wstart
    return start, length, wstart, wlength


def _expand(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, partner) index arrays of the slices [start, start + length)."""
    total = int(length.sum())
    anchors = np.repeat(np.arange(len(start), dtype=np.int32), length)
    shift = (start - (np.cumsum(length) - length)).astype(np.int32)
    return anchors, np.arange(total, dtype=np.int32) + np.repeat(shift, length)


def _range_square_sum(rho, ys, moduli, residues, slices) -> int:
    """Sum of squared run lengths over the differences of one key range."""
    p1, q1 = _expand(slices[0], slices[1])
    p2, q2 = _expand(slices[2], slices[3])
    keys = np.concatenate((rho[q1] - rho[p1], _M0 - (rho[q2] - rho[p2])))
    if not moduli:
        # 2S < M0: equal keys are equal differences
        keys.sort()
        return _square_sum(_run_lengths(keys))
    # orient each pair so that SPREAD * (y[q] - y[p]) = key mod M0: all pairs
    # of one difference then have one sign, whatever their key order
    p, q = np.concatenate((p1, q2)), np.concatenate((q1, p2))
    by_key = np.argsort(keys)
    lengths = _run_lengths(keys[by_key])
    repeated = lengths > 1
    square_sum = int(np.count_nonzero(~repeated))
    if not repeated.any():
        return square_sum
    # the pairs of the repeated runs, run by run
    offsets = np.cumsum(lengths) - lengths
    starts, lengths = offsets[repeated], lengths[repeated]
    firsts = np.cumsum(lengths) - lengths
    picks = by_key[np.arange(int(lengths.sum())) + np.repeat(starts - firsts, lengths)]
    p, q = p[picks], q[picks]
    first = np.repeat(firsts, lengths)
    mismatch = np.zeros(len(p), dtype=bool)
    for m, r in zip(moduli, residues):
        # each pair's difference mod m against its run's first, both taken in
        # (-m, m): they agree mod m exactly when they differ by 0 or +-m
        d = r[q] - r[p]
        d -= d[first]
        np.abs(d, out=d)
        mismatch |= (d != 0) & (d != m)
    confirmed = ~np.logical_or.reduceat(mismatch, firsts)
    square_sum += _square_sum(lengths[confirmed])
    # a run whose differences disagree somewhere: count it from the integers
    ends = firsts + lengths
    for i in np.flatnonzero(~confirmed).tolist():
        run = Counter(
            ys[j] - ys[k]
            for k, j in zip(p[firsts[i]:ends[i]].tolist(), q[firsts[i]:ends[i]].tolist())
        )
        square_sum += sum(c * c for c in run.values())
    return square_sum


def _run_lengths(sorted_keys: np.ndarray) -> np.ndarray:
    edges = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.diff(np.concatenate(([0], edges, [len(sorted_keys)])))


def _square_sum(lengths: np.ndarray) -> int:
    lengths = lengths.astype(np.int64)
    return int(np.dot(lengths, lengths))


def additive_energy_bruteforce(a: Iterable[int]) -> int:
    """Oracle: enumerate the defining quadruples directly.

    For each (a, b, c) the fourth coordinate is forced to a + b - c, so the
    loop is cubic with a set-membership test; capped at 64 elements to keep
    oracle runs honest and fast.
    """
    xs = _validated(a)
    if len(xs) > 64:
        raise ValueError("brute force is capped at 64 elements")
    members = set(xs)
    return sum(
        1 for p in xs for q in xs for r in xs if p + q - r in members
    )


DEFAULT_MAX_CONV_RANGE = 1 << 22


def additive_energy_convolution(
    a: Iterable[int], max_range: int = DEFAULT_MAX_CONV_RANGE
) -> int:
    """FFT autocorrelation cross-check for dense polynomial-range sets.

    Embeds the set as a 0/1 vector over its value range and reads the
    representation counts off the autocorrelation.  Only sensible when
    max(A) - min(A) is moderate, so the range is budgeted; the float
    round-trip is verified to be integral before squaring.
    """
    xs = _validated(a)
    span = xs[-1] - xs[0]
    if span > max_range:
        raise BudgetError(
            f"value range {span} exceeds the convolution budget {max_range}"
        )
    v = np.zeros(span + 1, dtype=np.float64)
    v[np.array(xs, dtype=np.int64) - xs[0]] = 1.0
    size = 1 << (2 * span + 1).bit_length()
    spectrum = np.fft.rfft(v, n=size)
    corr = np.fft.irfft(spectrum * np.conj(spectrum), n=size)[: span + 1]
    rounded = np.rint(corr)
    if float(np.max(np.abs(corr - rounded))) > 1e-3:
        raise ArithmeticError("FFT autocorrelation drifted too far to round")
    counts = rounded.astype(np.int64)
    assert counts[0] == len(xs)
    square_sum = sum(int(c) ** 2 for c in counts[1:] if c)
    return len(xs) ** 2 + 2 * square_sum


def ap_energy_closed_form(k: int) -> int:
    """Energy of any k-term arithmetic progression: k^2 + (k-1)k(2k-1)/3."""
    if k < 1:
        raise ValueError("length must be >= 1")
    return k * k + (k - 1) * k * (2 * k - 1) // 3


# -- scaling across checkpoints ---------------------------------------------------


@dataclass(frozen=True)
class EnergyRow:
    level: int
    n: int
    energy: int
    f_n: float
    normalized: float
    a_len: int
    a_empty: bool


@dataclass(frozen=True)
class ScalingResult:
    rows: tuple[EnergyRow, ...]
    beta: float
    gamma: float

    def eligible(self) -> list[EnergyRow]:
        return [r for r in self.rows if not r.a_empty]

    @property
    def spread(self) -> float:
        """max/min of the normalized ratio over checkpoints with a
        nonempty consecutive run."""
        vals = [r.normalized for r in self.eligible()]
        if not vals:
            raise ValueError("no checkpoint with a nonempty run to compare")
        return max(vals) / min(vals)


def energy_scaling(
    seq: BlockSequence, levels: Sequence[int], max_pairs: int | None = None
) -> ScalingResult:
    """Exact energy at the requested checkpoints, normalized by the
    predicted growth: E * f(N)^(3*(beta-gamma)) / N^3 at N = T_level.

    Checkpoints whose consecutive run is empty are flagged in their row (and
    excluded from the spread) rather than silently mixed in.
    """
    params = seq.params
    levels = sorted(set(levels))
    for j in levels:
        if not (1 <= j <= params.j_max):
            raise ValueError(f"level {j} outside built range 1..{params.j_max}")
    check_pair_budget((seq.checkpoint(j) for j in levels), max_pairs)
    exponent = 3.0 * (params.beta - params.gamma)
    rows = []
    for j in levels:
        n = seq.checkpoint(j)
        energy = additive_energy(truncate(seq, n))
        f_n = params.f(float(n))
        normalized = energy * f_n**exponent / float(n) ** 3
        a_len = seq.a_block(j).length
        rows.append(
            EnergyRow(
                level=j,
                n=n,
                energy=energy,
                f_n=f_n,
                normalized=normalized,
                a_len=a_len,
                a_empty=(a_len == 0),
            )
        )
    return ScalingResult(rows=tuple(rows), beta=params.beta, gamma=params.gamma)
