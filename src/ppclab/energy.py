"""Exact representation counts and additive energy of integer sets.

The additive energy of a finite set A is the number of ordered quadruples
(a, b, c, d) in A^4 with a + b = c + d.  It always lies between (#A)^2 and
(#A)^3, and equals the sum of the squared representation counts of the
difference multiset: counting (a, d) and (c, b) with a - d = c - b pairs off
the quadruples by their common difference.

Three independent routes are implemented and kept separate on purpose:

* ``additive_energy`` and ``energy_scaling`` — the production path, one
  evaluator for a whole grid of prefixes.  The runs of consecutive
  elements (after reducing by the gcd of the gaps) are split off: every
  pair with a run member is counted as a trapezoid, one per run and
  partner block, whose sum of squares is closed-form between breakpoints
  whose exact positions come from Python-int differences.  The pairs of the
  remaining points are keyed by a residue of their difference modulo a
  prime M0 < 2^62, tagged with the shortest prefix that holds them,
  generated a bounded key range at a time, sorted and counted in runs with
  numpy.  Runs of equal keys are certified equal by where their elements
  lie (segments of width below M0 / 2), or else compared by their exact
  Python-int differences.  A point pair whose difference lands in a
  trapezoid's support by residue is confirmed from its Python-int
  difference for the cross term.  So every count is exact and the working
  set is bounded by a fixed pair cap (2n pairs when that is more).  A set
  with no runs, or too few to pay, goes through the key pass whole;
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
from dataclasses import dataclass, field
from functools import cached_property
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
# at most the n(n-1)/2 pairs of the longest prefix, and only the point pairs
# when runs are split off, so a request within budget forms at most 2^23
# pairs.  A run-free set takes 1.2-1.7 s at that size (the first 4096 primes
# and squares, 2 cores); the block sequences, whose runs hold about half of
# their elements, send about a quarter of their pairs through the key pass.
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
# The run split may spend on Python-int steps (a piece's base in a chain of
# several, a point pair near a piece, a piece evaluated at a point pair's
# difference) at most 1/64 of the pairs it keeps out of the key pass, or
# _PAIR_CAP steps.  One such step costs about as much as 10 to 16 pairs of
# the key pass (1.5-2.5 us against 0.15 us), so a split given up has cost at
# most about a quarter of what it would have saved.  It is given up where
# the pieces overlap densely: 1000 to 3000 random elements of a range 1.25
# to 2 times their number, or two such sets far apart, took the same time as
# the key pass alone (0.1-0.7 s); kept, they took up to 500 s.
_SPLIT_SHARE = 64


class _SplitUnpaid(Exception):
    """The run split went over its budget of Python-int steps."""


def additive_energy(a: Iterable[int], method: str = "sorted") -> int:
    """The number of quadruples (a, b, c, d) with a + b = c + d, exactly.

    E = n^2 + 2 * sum over d > 0 of r(d)^2, where r(d) counts the pairs at
    difference d.  This is the one-cell case of the prefix-grid evaluator
    ``_energies`` (whose docstring gives the run split, the keys, the key
    ranges and the certificates that keep the count exact): the set is
    sorted and counted as the single prefix of its full length.  ``method`` accepts only
    "sorted", the one route.
    """
    if method != "sorted":
        raise ValueError(f"unknown method {method!r}; the only route is 'sorted'")
    xs = _validated(a)
    return _energies(xs, [len(xs)])[0][0]


@dataclass(frozen=True)
class _KeyPass:
    """What every key range of one pass reads, all in key order: the keys
    rho, the reduced elements (Python ints in an object array), and their
    grid cells and segments."""

    rho: np.ndarray
    ys: np.ndarray
    cells: np.ndarray
    n_cells: int
    segments: np.ndarray
    # with runs split off: the run part, and each element's y mod M0 and
    # rank in increasing y
    runs: "_RunPart | None" = None
    plain: np.ndarray | None = None
    ranks: np.ndarray | None = None


def _energies(xs: Sequence[int], ns: Sequence[int]) -> tuple[list[int], dict[str, int]]:
    """E(xs[:n]) for every n in ``ns``, exactly, from one pass over the pairs
    of xs[:max(ns)]; ``xs`` must be strictly increasing.  Also returns what
    the pass split off: the counts of runs, points, point pairs, trapezoid
    pieces and confirmed cross hits.

    E = n^2 + 2 * sum over d > 0 of r(d)^2, where r(d) counts the pairs at
    difference d.  The longest prefix is reduced to y = (x - min) / g (g the
    gcd of its gaps), with span S = max y.  Energy is affine-invariant and g
    divides every shorter prefix's gaps too, so this one reduction serves
    every prefix.  The distinct lengths in ``ns`` are the grid cells; each
    pair is tagged with the cell of its larger index, the shortest prefix
    that holds it.

    Runs and points.  A run is a maximal stretch of consecutive y inside one
    cell with at least two members; every other element is a point.  Then
    r = r_PP + r_R, where r_PP counts the point pairs and r_R the pairs with
    a run member, and

        sum r^2 = sum r_PP^2 + sum r_R^2 + 2 * sum over point pairs
                  p > q of r_R(p - q).

    r_R is a sum of pieces (``_RunPart``): a run against a block above it or
    a point below it adds a trapezoid, a run against itself the ramp L - d,
    and sum r_R^2 follows in closed form between their breakpoints.  The
    point pairs go through the key pass below, which also takes the cross
    term: a point pair whose difference lands near r_R's support by its
    residue mod M0 is confirmed from its Python-int difference.  The split
    is taken only when its work, one per point pair and one per piece, is
    at most half of the n(n - 1)/2 pairs it replaces, and it is given up
    (``_SplitUnpaid``) once its Python-int steps exceed their budget
    (``_SPLIT_SHARE``).  Without a split every element is a point and the
    pass is the key pass alone.

    The key pass.  Each pair is keyed by the circular distance between its
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
    the other pairs are compared with the first, by their exact Python-int
    differences.  So a run's pairs are equal by position or else equal by
    integer comparison; a run that fails is counted exactly from its
    Python-int differences, cell by cell.
    """
    grid = sorted(set(ns))
    if not grid:
        return [], {}
    if grid[0] < 1 or grid[-1] > len(xs):
        raise ValueError(f"prefix lengths must lie in 1..{len(xs)}")
    n = grid[-1]
    xs = xs[:n]
    if any(u >= v for u, v in zip(xs, xs[1:])):
        raise ValueError("elements must be strictly increasing")
    increments = np.zeros(len(grid), dtype=np.int64)
    runs = None
    if n > 1:
        base = xs[0]
        step = math.gcd(*(v - u for u, v in zip(xs, xs[1:])))
        ys = [(x - base) // step for x in xs]
        # the cell of element i is the first prefix that holds it
        cells = np.searchsorted(np.array(grid), np.arange(n), side="right").astype(np.int32)
        runs = _RunPart.split(ys, cells, len(grid))
        try:
            increments = _square_sums(ys, cells, len(grid), runs)
        except _SplitUnpaid:
            runs = None
            increments = _square_sums(ys, cells, len(grid), None)
    energy = {m: m * m + 2 * s for m, s in zip(grid, np.cumsum(increments).tolist())}
    split = runs.counts() if runs is not None else {
        "runs": 0, "points": n, "point_pairs": n * (n - 1) // 2, "pieces": 0, "cross_hits": 0,
    }
    return [energy[m] for m in ns], split


def _square_sums(ys: list[int], cells: np.ndarray, n_cells: int,
                 runs: "_RunPart | None") -> np.ndarray:
    """Each cell's increment of the sum of r(d)^2 over the pairs of the
    reduced ``ys``: the run part's, then the key pass over the points."""
    increments = np.zeros(n_cells, dtype=np.int64)
    points = range(len(ys)) if runs is None else runs.points.tolist()
    if runs is not None:
        increments += runs.square_sums()
    for part in _key_pass([ys[i] for i in points], cells[points], n_cells, runs):
        increments += part
    return increments


def _key_pass(ys: list[int], cells: np.ndarray, n_cells: int, runs: "_RunPart | None"):
    """Yield, per key range, each grid cell's increment of the sum of
    r(d)^2 over the pairs of the increasing ``ys`` (with their ``cells``),
    plus twice the cross term with ``runs`` when given."""
    n = len(ys)
    if n < 2:
        return
    rho = np.array([_SPREAD * y % _M0 for y in ys], dtype=np.int64)
    order = np.argsort(rho, kind="stable")  # ties keep increasing y
    state = _KeyPass(
        rho=rho[order],
        ys=np.array(ys, dtype=object)[order],
        cells=cells[order],
        n_cells=n_cells,
        segments=_segments(ys)[order],
        runs=runs,
        plain=None if runs is None else np.array([y % _M0 for y in ys], dtype=np.int64)[order],
        ranks=None if runs is None else order.astype(np.int32),
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
    wlength), plus twice the cross term of its pairs with the run part."""
    p, q, keys = _range_pairs(state.rho, slices)
    cells = np.maximum(state.cells[p], state.cells[q])
    in_repeated = np.zeros(len(keys), dtype=bool)
    np.equal(keys[1:], keys[:-1], out=in_repeated[1:])
    in_repeated[:-1] |= in_repeated[1:]
    # a key of one pair counts 1 from its cell on
    increments = np.bincount(cells[~in_repeated], minlength=state.n_cells)
    if state.runs is not None:
        increments += 2 * state.runs.cross(state, p, q, cells)
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
    for i in np.flatnonzero(failed).tolist():
        run = slice(firsts[i], firsts[i] + lengths[i])
        by_difference: dict[int, list[int]] = {}
        differences = state.ys[q[run]] - state.ys[p[run]]
        for d, c in zip(differences.tolist(), cells[run].tolist()):
            by_difference.setdefault(d, []).append(c)
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
    compared with the first by exact difference."""
    sp, sq = state.segments[p], state.segments[q]
    classes = sp.astype(np.int64) << 32 | sq
    classes[sp == sq] = -1
    pairs = np.flatnonzero(classes != np.repeat(classes[firsts], lengths))
    runs = np.searchsorted(firsts, pairs, side="right") - 1
    first = firsts[runs]
    ys = state.ys
    mismatch = ys[q[pairs]] - ys[p[pairs]] != ys[q[first]] - ys[p[first]]
    failed = np.zeros(len(lengths), dtype=bool)
    failed[runs[mismatch]] = True
    return failed


def _run_lengths(sorted_keys: np.ndarray) -> np.ndarray:
    edges = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.diff(np.concatenate(([0], edges, [len(sorted_keys)])))


def _square_counts(k: np.ndarray) -> np.ndarray:
    """1^2 + 2^2 + ... + k^2, elementwise."""
    return k * (k + 1) * (2 * k + 1) // 6


@dataclass(frozen=True)
class _Windows:
    """Residue windows sorted by start, with the piece of each, the widest
    window, the running maximum of their ends, and a table of the buckets
    (top bits of a residue) they touch."""

    start: np.ndarray
    end: np.ndarray
    piece: np.ndarray
    widest: int
    reach: np.ndarray
    shift: int
    buckets: np.ndarray

    def near(self, x: np.ndarray) -> np.ndarray:
        """Which residues x lie in a window."""
        near = np.flatnonzero(self.buckets[x >> self.shift])
        i = np.searchsorted(self.start, x[near], side="right") - 1
        hit = np.zeros(len(x), dtype=bool)
        hit[near] = (i >= 0) & (x[near] <= self.reach[i])
        return hit

    def pieces_at(self, x: int) -> list[int]:
        """The pieces whose window holds x."""
        j = int(np.searchsorted(self.start, x, side="right"))
        i = int(np.searchsorted(self.start, x - self.widest, side="left"))
        return self.piece[i:j][self.end[i:j] >= x].tolist()


class _RunPart:
    """The pairs with a run member, as pieces of r_R (see ``_energies``).

    The blocks are the runs and the points, in increasing order.  A piece
    pairs a run with a block: with every block above it (two runs pair
    once), with every point below it, and with itself.  With U the upper
    block (first member u, length Lu) and V the lower (v, Lv), the
    differences (u + s) - (v + t) count the trapezoid
    min(e + Lv, Lu - e, Lu, Lv) at e = d - (u - v) in (-Lv, Lu); a run
    against itself (u = v) counts the ramp L - d at 1 <= d < L.  A piece's
    cell is the later of its two blocks' cells.

    Two pieces overlap only when their bases u - v are less than
    W = 2 * (the longest block) apart.  Sorted by base mod M0, with the
    circle cut at its widest gap, such pieces fall into one chain of gaps
    <= W: their residues differ by their bases' difference, and the chains
    span less than M0 / 4 (the split is refused otherwise).  A chain of one
    piece is a group by itself.  The members of a longer chain are sorted by
    their Python-int bases and cut into groups at exact gaps above W, each
    with its members' offsets from its least base.  So every two
    overlapping pieces share a group and the offsets in a group are exact
    small integers: a group's sum of r_R^2 is a sum of squares of linear
    stretches between its pieces' breakpoints, and a lone piece's is
    2 * (1^2 + ... + (m - 1)^2) + (|Lu - Lv| + 1) * m^2 with m = min(Lu, Lv),
    or 1^2 + ... + (L - 1)^2 for a ramp.

    A point pair whose difference d gives r_R(d) > 0 lies in the support
    [base + lo, base + hi] of a piece, so d mod M0 lies in that support's
    residue window.  ``cross`` looks every point pair of a key range up in
    a bucket table of the windows (the top bits of the residue), then in
    the sorted windows, and confirms each pair that is near from the
    Python-int d and the Python-int base of each piece it is near.
    """

    def __init__(self, ys, cells, n_cells, starts, lengths, runs, points, below, width, budget):
        self.ys = ys
        self.n_cells = n_cells
        self.starts = starts
        self.width = width
        self.budget = budget
        self.n_runs = len(runs)
        self.points = starts[points]
        self.hits = 0
        n_blocks = len(starts)
        # a run pairs with every block from itself on, and every point below it
        runs, points = runs.astype(np.int32), points.astype(np.int32)
        upper = np.concatenate([np.arange(r, n_blocks, dtype=np.int32) for r in runs.tolist()]
                               + [np.repeat(runs, below)])
        lower = np.concatenate([np.repeat(runs, n_blocks - runs)]
                               + [points[:b] for b in below.tolist()])
        block_cells = cells[starts]
        block_res = np.array([ys[i] % _M0 for i in starts.tolist()], dtype=np.int64)
        lengths = lengths.astype(np.int32)
        self.upper, self.lower = upper, lower
        self.lu, self.lv = lengths[upper], lengths[lower]
        self.ramp = upper == lower
        self.cell = np.maximum(block_cells[upper], block_cells[lower])
        self.lo = np.where(self.ramp, 1, 1 - self.lv).astype(np.int32)  # support of d - base
        self.hi = self.lu - 1
        self.res = (block_res[upper] - block_res[lower]) % _M0  # base mod M0

    @classmethod
    def split(cls, ys: list[int], cells: np.ndarray, n_cells: int) -> "_RunPart | None":
        """The run part of the increasing ``ys`` (with their cells), or None
        when there is no run or the split does not pay."""
        n = len(ys)
        joined = np.fromiter((v - u == 1 for u, v in zip(ys, ys[1:])), dtype=bool, count=n - 1)
        joined &= cells[1:] == cells[:-1]  # a run lies inside one cell
        starts = np.flatnonzero(np.concatenate(([True], ~joined)))
        lengths = np.diff(np.append(starts, n))
        runs = np.flatnonzero(lengths >= 2)
        points = np.flatnonzero(lengths == 1)
        below = np.searchsorted(points, runs)
        n_pieces = int((len(starts) - runs).sum() + below.sum())
        n_points = len(points)
        width = 2 * int(lengths.max())
        point_pairs = n_points * (n_points - 1) // 2
        if (not len(runs)
                or n_pieces + point_pairs > n * (n - 1) // 4
                or n_pieces * (width + 1) >= _M0 // 4):
            return None
        budget = max((n * (n - 1) // 2 - point_pairs) // _SPLIT_SHARE, _PAIR_CAP)
        return cls(ys, cells, n_cells, starts, lengths, runs, points, below, width, budget)

    def _spend(self, steps: int) -> None:
        """Take Python-int steps from the budget; raise once it is spent."""
        self.budget -= steps
        if self.budget < 0:
            raise _SplitUnpaid

    def counts(self) -> dict[str, int]:
        n_points = len(self.points)
        return {"runs": self.n_runs, "points": n_points,
                "point_pairs": n_points * (n_points - 1) // 2,
                "pieces": len(self.upper), "cross_hits": self.hits}

    def _base(self, k: int) -> int:
        """The Python-int base of piece k."""
        return self.ys[self.starts[self.upper[k]]] - self.ys[self.starts[self.lower[k]]]

    def _groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pieces of the chains longer than one, group by group, with
        each one's group and its offset from its group's least base."""
        count = len(self.res)
        order = np.argsort(self.res, kind="stable")
        r = self.res[order]
        # cut the circle after its widest gap; residue + M0 fits an int64
        cut = int(np.argmax(np.diff(r, append=r[0] + _M0))) + 1
        order, r = np.roll(order, -cut), np.roll(r, -cut)
        r[count - cut:] += _M0
        chain = np.concatenate(([0], np.cumsum(np.diff(r) > self.width)))
        in_long = np.bincount(chain)[chain] > 1
        long, chain = order[in_long], chain[in_long]
        self._spend(len(long))
        tops, bottoms = self.starts[self.upper[long]], self.starts[self.lower[long]]
        edges = np.flatnonzero(np.diff(chain, prepend=-1)).tolist() + [len(long)]
        shared = np.empty(len(long), dtype=np.int64)
        group = np.empty(len(long), dtype=np.int64)
        offset = np.empty(len(long), dtype=np.int64)
        ys, i, g = self.ys, 0, -1
        for a, b in zip(edges, edges[1:]):
            # one chain, by Python-int base
            members = sorted((ys[t] - ys[u], k) for t, u, k in zip(
                tops[a:b].tolist(), bottoms[a:b].tolist(), long[a:b].tolist()))
            last = None
            for base, k in members:
                if last is None or base - last > self.width:
                    g, first = g + 1, base
                shared[i], group[i], offset[i] = k, g, base - first
                i, last = i + 1, base
        return shared, group, offset

    @cached_property
    def windows(self) -> "_Windows":
        """The residue windows of the pieces' supports, built on the first
        point pair looked up (the groups are paid for by then)."""
        start = (self.res + self.lo) % _M0
        end = start + (self.hi - self.lo)
        wraps = end >= _M0  # split where a window wraps past M0
        ws = np.concatenate((start, np.zeros(int(wraps.sum()), dtype=np.int64)))
        we = np.concatenate((np.minimum(end, _M0 - 1), end[wraps] - _M0))
        del start, end
        wk = np.concatenate((np.arange(len(self.res), dtype=np.int32),
                             np.flatnonzero(wraps).astype(np.int32)))
        by_start = np.argsort(ws, kind="stable")
        ws, we, wk = ws[by_start], we[by_start], wk[by_start]
        # at most one bucket in sixteen is touched
        bits = min(22, max(16, len(ws).bit_length() + 4))
        shift = _M0.bit_length() - bits
        buckets = np.zeros(1 << bits, dtype=bool)
        buckets[ws >> shift] = True
        # a window spans at most 2n residues and a bucket 2^40 or more, so a
        # window touches the buckets of its two ends only
        buckets[we >> shift] = True
        return _Windows(start=ws, end=we, piece=wk, widest=int((we - ws).max()),
                        reach=np.maximum.accumulate(we), shift=shift, buckets=buckets)

    def square_sums(self) -> np.ndarray:
        """Each cell's increment of the sum of r_R(d)^2 over d > 0."""
        out = np.zeros(self.n_cells, dtype=np.int64)
        shared, group, offset = self._groups()
        lone = np.ones(len(self.res), dtype=bool)
        lone[shared] = False
        lu, lv = self.lu[lone].astype(np.int64), self.lv[lone].astype(np.int64)
        m = np.minimum(lu, lv)
        lone_sums = np.where(self.ramp[lone], _square_counts(lu - 1),
                             2 * _square_counts(m - 1) + (np.abs(lu - lv) + 1) * m * m)
        np.add.at(out, self.cell[lone], lone_sums)
        if not len(shared):
            return out
        # each prefix's sum over the shared groups
        cells = np.flatnonzero(np.bincount(self.cell[shared], minlength=self.n_cells))
        totals = np.zeros(len(cells), dtype=np.int64)
        # whole groups at a time, about a quarter of the pair cap in breakpoints
        firsts = np.flatnonzero(np.diff(group, prepend=-1))
        chunk = firsts // max(1, _PAIR_CAP // 16)
        cuts = firsts[np.flatnonzero(np.diff(chunk, prepend=-1))]
        for lo, hi in zip(cuts.tolist(), cuts[1:].tolist() + [len(shared)]):
            pos, jump, slope, cell = self._breakpoints(shared[lo:hi], group[lo:hi], offset[lo:hi])
            for i, k in enumerate(cells.tolist()):
                keep = cell <= k
                totals[i] += _breakpoint_square_sum(pos, jump * keep, slope * keep)
        out[cells] += np.diff(totals, prepend=0)
        return out

    def _breakpoints(self, pieces, group, offset):
        """The four breakpoints of each piece (position, value jump, slope
        change, cell), sorted by group and position."""
        lu, lv, lo, hi = (a[pieces].astype(np.int64) for a in (self.lu, self.lv, self.lo, self.hi))
        m = np.minimum(lu, lv)
        ramp = self.ramp[pieces][:, None]
        # a ramp jumps to L - 1 at 1 and falls to 0 at L; a trapezoid rises
        # from lo - 1, levels at m, falls from hi + 1 - m and ends at hi + 1
        pos = np.where(ramp, np.stack([np.ones_like(lu), lu, lu, lu], axis=1),
                       np.stack([lo - 1, lo - 1 + m, hi + 1 - m, hi + 1], axis=1))
        pos += offset[:, None]
        jump = np.where(ramp, np.stack([lu - 1] + [np.zeros_like(lu)] * 3, axis=1), 0)
        slope = np.where(ramp, np.array([-1, 1, 0, 0]), np.array([1, -1, -1, 1]))
        order = np.lexsort((pos.ravel(), np.repeat(group, 4)))
        cell = np.repeat(self.cell[pieces], 4)
        return pos.ravel()[order], jump.ravel()[order], slope.ravel()[order], cell[order]

    def cross(self, state: _KeyPass, p: np.ndarray, q: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Each cell's increment of the cross term, the sum of r_R(d) over
        the point pairs p -> q of one key range (cells: the pairs' cells)."""
        # the residue of the positive difference: x in (-M0, M0), then + M0
        # where it is negative (x >> 63 is -1 there, 0 elsewhere)
        x = state.plain[q] - state.plain[p]
        np.negative(x, out=x, where=state.ranks[p] > state.ranks[q])
        x += (x >> 63) & _M0
        windows = self.windows
        near = np.flatnonzero(windows.near(x))
        self._spend(len(near))
        out = [0] * self.n_cells
        differences = np.abs(state.ys[q[near]] - state.ys[p[near]])
        for d, c, r in zip(differences.tolist(), cells[near].tolist(), x[near].tolist()):
            # r = d mod M0
            hit = False
            pieces = windows.pieces_at(r)
            self._spend(len(pieces))
            for k in pieces:
                e = d - self._base(k)
                lu, lv = int(self.lu[k]), int(self.lv[k])
                if int(self.lo[k]) <= e < lu:
                    out[max(c, int(self.cell[k]))] += min(e + lv, lu - e, lu, lv)
                    hit = True
            self.hits += hit
        return np.array(out, dtype=np.int64)


def _breakpoint_square_sum(pos, jump, slope) -> int:
    """The sum of f(d)^2 over every d, for breakpoints sorted by group and
    position: each group's f is zero left of its first breakpoint, one at
    pos adds ``jump`` to f(pos) and ``slope`` to f(d + 1) - f(d) from there
    on, and f is zero again after a group's last.  Between two breakpoints f
    runs linearly from v with slope s over len points, where v and
    v + s * (len - 1) lie in [0, n]; so every term below stays within n^3
    and fits an int64."""
    s = np.cumsum(slope)[:-1]
    length = np.diff(pos)
    v = np.cumsum(jump)[:-1]
    v[1:] += np.cumsum(s[:-1] * length[:-1])
    # f is zero in gaps and between groups, where the positions restart
    length[(v == 0) & (s == 0)] = 0
    total = (length * v * v + v * s * length * (length - 1)
             + (s * (length - 1)) * (s * length * (2 * length - 1)) // 6)
    return int(total.sum())


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
    # what the energy pass split off: runs, points, point pairs, trapezoid
    # pieces and confirmed cross hits (see ``_energies``)
    split: Mapping[str, int] = field(default_factory=dict)

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
    energies, split = _energies(seq.elements, ns)
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
    return ScalingResult(rows=tuple(rows), beta=params.beta, gamma=params.gamma, split=split)
