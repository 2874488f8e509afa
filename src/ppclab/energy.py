"""Exact representation counts and additive energy of integer sets.

The additive energy of a finite set A is the number of ordered quadruples
(a, b, c, d) in A^4 with a + b = c + d.  It always lies between (#A)^2 and
(#A)^3, and equals the sum of the squared representation counts of the
difference multiset: counting (a, d) and (c, b) with a - d = c - b pairs off
the quadruples by their common difference.

Three independent routes are implemented and kept separate on purpose:

* ``additive_energy`` and ``energy_scaling`` — the production path, one
  evaluator for a whole grid of prefixes: the pairs of the longest prefix
  are keyed by a residue of their difference modulo a prime M0 < 2^62,
  tagged with the shortest prefix that holds them, generated a bounded key
  range at a time, sorted and counted in runs with numpy.  Runs of equal
  keys are certified equal by where their elements lie (segments of width
  below M0 / 2), or else confirmed under further coprime moduli whose
  product exceeds twice the span (Chinese remainder theorem), so every
  count is exact and the working set is bounded by a fixed pair cap (2n
  pairs when that is more);
* ``additive_energy_bruteforce`` — enumeration straight from the
  definition, for oracle duty on small sets;
* ``additive_energy_convolution`` — an FFT autocorrelation cross-check,
  valid for dense polynomial-range inputs only.

``rep_counts`` keeps a dict of every difference; it is the oracle that
``additive_energy`` is tested against, for moderate inputs only.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .sequences import BlockSequence, BudgetError

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


# The default budget admits sum n^2 <= 2^24 over the requested prefixes: one
# set of up to 4096 elements, or several smaller checkpoints.  One pass forms
# the n(n-1)/2 pairs of the longest prefix only, so a request within budget
# forms at most 2^23 pairs: about 1.5 s at the 5.5-6.5 M pairs/s measured on
# the block sequences at T_12 and T_13.
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
    difference d.  This is the one-cell case of the prefix-grid evaluator
    ``_energies`` (whose docstring gives the keys, the key ranges and the
    certificates that keep the count exact): the set is sorted and counted
    as the single prefix of its full length.  ``method`` accepts only
    "sorted", the one route.
    """
    if method != "sorted":
        raise ValueError(f"unknown method {method!r}; the only route is 'sorted'")
    xs = _validated(a)
    return _energies(xs, [len(xs)])[0]


@dataclass(frozen=True)
class _KeyPass:
    """What every key range of one pass reads, all in key order: the keys
    rho, the reduced elements, their grid cells and segments, and the
    residues under the confirming moduli."""

    rho: np.ndarray
    ys: list[int]
    cells: np.ndarray
    n_cells: int
    segments: np.ndarray
    moduli: np.ndarray
    residues: np.ndarray


def _energies(xs: Sequence[int], ns: Sequence[int]) -> list[int]:
    """E(xs[:n]) for every n in ``ns``, exactly, from one pass over the pairs
    of xs[:max(ns)]; ``xs`` must be strictly increasing.

    E = n^2 + 2 * sum over d > 0 of r(d)^2, where r(d) counts the pairs at
    difference d.  The longest prefix is reduced to y = (x - min) / g (g the
    gcd of its gaps), with span S = max y.  Energy is affine-invariant and g
    divides every shorter prefix's gaps too, so this one reduction serves
    every prefix.  The distinct lengths in ``ns`` are the grid cells; each
    pair is tagged with the cell of its larger index, the shortest prefix
    that holds it.  Each pair is keyed by the circular distance between its
    two residues SPREAD * y mod M0, a function of the difference alone.  The
    key space is cut into ranges that each generate at most
    max(``_PAIR_CAP``, 2n) pairs; both ends of a range keep their
    ``searchsorted`` arrays, so halving a range searches only its midpoint.
    A range's keys are sorted as int64 and counted in runs of equal keys, so
    the working set is bounded by the cap, not by the n(n-1)/2 differences.
    A difference with k pairs up to cell c adds k^2 to that prefix's sum:
    with its pairs in cell order, the pair of rank i (from 0) adds
    (i + 1)^2 - i^2 = 2i + 1 at its own cell, and the sums over the cells,
    accumulated, give every prefix's sum of r(d)^2.

    Equal keys only say the two differences agree mod M0: each pair is
    oriented so that SPREAD * d = key mod M0, and then d1 = d2 mod M0.  The
    increasing y are split into greedy segments, a new one opening where
    y - start >= H = floor(M0 / 2), so two elements of one segment are less
    than H apart.  If two pairs each lie inside one segment, or both run
    from the same segment A to the same segment B, then
    |d1 - d2| <= 2(H - 1) = M0 - 3 (M0 is odd), so d1 = d2: a pair in the
    position class of its run's first pair is certified by position.  Only
    the other pairs are compared with the first under further
    pairwise-coprime moduli whose product exceeds 2S: agreeing mod every
    modulus, the two differences are equal by the Chinese remainder
    theorem.  A run that fails is counted exactly from its Python-int
    differences, cell by cell.
    """
    grid = sorted(set(ns))
    if not grid:
        return []
    if grid[0] < 1 or grid[-1] > len(xs):
        raise ValueError(f"prefix lengths must lie in 1..{len(xs)}")
    n = grid[-1]
    xs = xs[:n]
    if any(u >= v for u, v in zip(xs, xs[1:])):
        raise ValueError("elements must be strictly increasing")
    increments = np.zeros(len(grid), dtype=np.int64)
    if n > 1:
        for part in _key_pass(xs, grid):
            increments += part
    energy = {m: m * m + 2 * s for m, s in zip(grid, np.cumsum(increments).tolist())}
    return [energy[m] for m in ns]


def _key_pass(xs: Sequence[int], grid: list[int]):
    """Yield, per key range, each grid cell's increment of the sum of
    r(d)^2 over the pairs of ``xs`` (at least two elements)."""
    n = len(xs)
    base = xs[0]
    step = math.gcd(*(v - u for u, v in zip(xs, xs[1:])))
    ys = [(x - base) // step for x in xs]
    moduli = _moduli(ys[-1])
    rho = np.array([_SPREAD * y % _M0 for y in ys], dtype=np.int64)
    order = np.argsort(rho, kind="stable")  # ties keep increasing y
    segments = _segments(ys)
    ys = [ys[i] for i in order.tolist()]
    # each element's residues under the further moduli, one row per element
    # in key order, for the confirmation step
    residues = np.empty((n, len(moduli) - 1), dtype=np.int64)
    for k, m in enumerate(moduli[1:]):
        residues[:, k] = [y % m for y in ys]
    state = _KeyPass(
        rho=rho[order],
        ys=ys,
        # the cell of element i is the first prefix that holds it
        cells=np.searchsorted(np.array(grid), order, side="right").astype(np.int32),
        n_cells=len(grid),
        segments=segments[order],
        moduli=np.array(moduli[1:], dtype=np.int64),
        residues=residues,
    )
    cap = max(_PAIR_CAP, 2 * n)
    lo = _key_boundary(state.rho, 0)
    lo[1] = np.maximum(lo[1], np.arange(1, n + 1))  # key 0: partners after the anchor
    ranges = [(lo, _key_boundary(state.rho, (_M0 + 1) // 2))]
    while ranges:
        lo, hi = ranges.pop()
        length, wlength = hi[1] - lo[1], lo[2] - hi[2]
        total = int(length.sum()) + int(wlength.sum())
        if total > cap and hi[0] - lo[0] > 1:
            mid = _key_boundary(state.rho, (lo[0] + hi[0]) // 2)
            ranges += [(mid, hi), (lo, mid)]
        elif total:
            yield _range_increments(state, (lo[1], length, hi[2], wlength))


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


def _segments(ys: list[int]) -> np.ndarray:
    """Greedy segment index of each increasing y: a segment runs from its
    first element up to, not including, the first y at least floor(M0 / 2)
    above it."""
    out = np.empty(len(ys), dtype=np.int32)
    half, start, k = _M0 // 2, 0, 0
    while start < len(ys):
        end = bisect.bisect_left(ys, ys[start] + half, start)
        out[start:end] = k
        start, k = end, k + 1
    return out


def _key_boundary(rho: np.ndarray, b: int) -> list:
    """[b, direct, wrapped] for a key boundary b <= (M0 + 1) / 2: per anchor p
    (in key order), the first partner q with rho[q] - rho[p] >= b and the
    first with rho[q] - rho[p] > M0 - b.  The pairs of keys in [lo, hi) are
    then the direct slices [direct(lo), direct(hi)) and the wrapped slices
    [wrapped(hi), wrapped(lo))."""
    return [b, np.searchsorted(rho, rho + b), np.searchsorted(rho, rho + (_M0 - b + 1))]


def _expand(start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(anchor, partner) index arrays of the slices [start, start + length)."""
    total = int(length.sum())
    anchors = np.repeat(np.arange(len(start), dtype=np.int32), length)
    shift = (start - (np.cumsum(length) - length)).astype(np.int32)
    return anchors, np.arange(total, dtype=np.int32) + np.repeat(shift, length)


def _range_pairs(rho: np.ndarray, slices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs p -> q of one key range and their keys, in key order, from
    its direct and wrapped slices (start, length, wstart, wlength).  Each
    pair is oriented so that SPREAD * (y[q] - y[p]) = key mod M0: all pairs
    of one difference then have one sign, whatever their key order."""
    p1, q1 = _expand(slices[0], slices[1])
    p2, q2 = _expand(slices[2], slices[3])
    p, q = np.concatenate((p1, q2)), np.concatenate((q1, p2))
    keys = rho[q] - rho[p]
    keys[len(p1):] += _M0  # a wrapped pair's key is M0 - (rho[p] - rho[q])
    by_key = np.argsort(keys)
    return p[by_key], q[by_key], keys[by_key]


def _range_increments(state: _KeyPass, slices) -> np.ndarray:
    """Each cell's increment of the sum of r(d)^2 over the differences of one
    key range, given its direct and wrapped slices (start, length, wstart,
    wlength)."""
    p, q, keys = _range_pairs(state.rho, slices)
    cells = np.maximum(state.cells[p], state.cells[q])
    in_repeated = np.zeros(len(keys), dtype=bool)
    np.equal(keys[1:], keys[:-1], out=in_repeated[1:])
    in_repeated[:-1] |= in_repeated[1:]
    # a key of one pair counts 1 from its cell on
    increments = np.bincount(cells[~in_repeated], minlength=state.n_cells)
    if not in_repeated.any():
        return increments
    # the pairs of the repeated runs, run by run
    p, q, cells = p[in_repeated], q[in_repeated], cells[in_repeated]
    lengths = _run_lengths(keys[in_repeated])
    del keys
    firsts = np.cumsum(lengths) - lengths
    failed = _uncertified(state, p, q, firsts, lengths)
    # a confirmed run is one difference: with its pairs in cell order, the
    # pair of rank i adds 2i + 1 at its own cell
    good = lengths[~failed]
    slots = np.repeat(np.arange(len(lengths), dtype=np.int64) * state.n_cells, lengths) + cells
    slots = np.sort(slots[np.repeat(~failed, lengths)])
    ranks = np.arange(len(slots)) - np.repeat(np.cumsum(good) - good, good)
    np.add.at(increments, slots % state.n_cells, 2 * ranks + 1)
    # a run whose differences disagree somewhere: count it from the integers
    ys = state.ys
    for i in np.flatnonzero(failed).tolist():
        run = slice(firsts[i], firsts[i] + lengths[i])
        by_difference: dict[int, list[int]] = {}
        for k, j, c in zip(p[run].tolist(), q[run].tolist(), cells[run].tolist()):
            by_difference.setdefault(ys[j] - ys[k], []).append(c)
        for members in by_difference.values():
            members.sort()
            for rank, c in enumerate(members):
                increments[c] += 2 * rank + 1  # (rank + 1)^2 - rank^2
    return increments


def _uncertified(state: _KeyPass, p, q, firsts, lengths) -> np.ndarray:
    """A mask over the repeated runs (pairs p -> q, run by run from
    ``firsts``): the runs whose differences are not all proven equal.  A
    pair's position class is -1 when it lies inside one segment and
    (segment of p) << 32 | (segment of q) otherwise.  A pair in the class of
    its run's first pair has the first's difference; every other pair is
    compared with the first under the further moduli."""
    sp, sq = state.segments[p], state.segments[q]
    classes = sp.astype(np.int64) << 32 | sq
    classes[sp == sq] = -1
    pairs = np.flatnonzero(classes != np.repeat(classes[firsts], lengths))
    runs = np.searchsorted(firsts, pairs, side="right") - 1
    first = firsts[runs]
    # each pair's difference mod m against its run's first, both taken in
    # (-m, m): they agree mod m exactly when they differ by 0 or +-m
    r = state.residues
    d = r[q[pairs]] - r[p[pairs]]
    d -= r[q[first]] - r[p[first]]
    np.abs(d, out=d)
    mismatch = ((d != 0) & (d != state.moduli)).any(axis=1)
    failed = np.zeros(len(lengths), dtype=bool)
    failed[runs[mismatch]] = True
    return failed


def _run_lengths(sorted_keys: np.ndarray) -> np.ndarray:
    edges = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.diff(np.concatenate(([0], edges, [len(sorted_keys)])))


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

    All checkpoints come from one ``_energies`` pass over the pairs of the
    longest prefix; the budget still counts sum n^2 over the requested
    prefixes and refuses before any pair is formed.  Checkpoints whose
    consecutive run is empty are flagged in their row (and excluded from the
    spread) rather than silently mixed in.
    """
    params = seq.params
    levels = sorted(set(levels))
    ns = [seq.checkpoint(j) for j in levels]
    check_pair_budget(ns, max_pairs)
    energies = _energies(seq.elements, ns)
    exponent = 3.0 * (params.beta - params.gamma)
    rows = []
    for j, n, energy in zip(levels, ns, energies):
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
