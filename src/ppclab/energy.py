"""Exact representation counts and additive energy of integer sets.

The additive energy of a finite set A is the number of ordered quadruples
(a, b, c, d) in A^4 with a + b = c + d.  It always lies between (#A)^2 and
(#A)^3, and equals the sum of the squared representation counts of the
difference multiset: counting (a, d) and (c, b) with a - d = c - b pairs off
the quadruples by their common difference.

Three independent routes are implemented and kept separate on purpose:

* ``additive_energy`` and ``energy_scaling`` — the production path, one
  evaluator for a whole grid of prefixes, read untranslated.  Where it
  pays, the runs of consecutive elements (over the gcd of the gaps) are split
  off and the remaining points taken as geometric families b + 2^i, i in
  [lo, hi] (maximal chains of points whose gaps double): the pairs with a
  run member are counted per run and per family, as a ramp per run, a
  trapezoid per two runs and a group of boxes per run and family, whose
  products are closed forms in exact Python ints, and the pairs of the
  families are counted without being formed, from closed forms and from
  exact solutions of small power-of-two equations, filtered by the weight
  of a non-adjacent form.  Otherwise every pair is keyed by a residue of
  its difference modulo a prime M0 < 2^62, tagged with the shortest prefix
  that holds it, generated a bounded key range at a time, sorted and
  counted in runs with numpy.  Runs of equal keys are certified equal by
  where their elements lie (segments of width below M0 / 2), or else
  compared by their exact Python-int differences.  So every count is exact
  and the working set is bounded by a fixed pair cap (2n pairs when that
  is more);
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
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .sequences import BlockSequence, BudgetError, truncate

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
    # Python ints, which the exact pass reads as they are
    out = sorted(map(operator.index, a))
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


# The default budget admits 2^24 operations: one key pass over the pairs of
# a run-free set of up to 4096 elements (1.2-1.7 s for the first 4096
# primes or squares, 2 cores), or far larger sets whose runs and geometric
# families are counted in closed form.
DEFAULT_MAX_PAIRS = 1 << 24


def check_pair_budget(sizes: Iterable[int], max_pairs: int | None) -> None:
    """Refuse energy work on prefixes of the given sizes whose elements alone
    exceed ``max_pairs`` operations (None: no budget), before the set is
    loaded: an element costs at least ``_INT_STEP``.  The pass itself
    charges its whole work (``_energies``)."""
    sizes = list(sizes)
    n = max(sizes)
    _charge(sizes, max_pairs, lambda: min(n * n, _INT_STEP * n))


def _charge(sizes: list[int], max_pairs: int | None, work) -> None:
    """Raise ``BudgetError`` when ``work()`` exceeds ``max_pairs``.  A pass
    never does more than n^2 operations for its longest prefix n, so a
    request whose sum of n^2 is within the budget is admitted unseen."""
    if max_pairs is None or sum(n * n for n in sizes) <= max_pairs:
        return
    total = work()
    if total > max_pairs:
        raise BudgetError(
            f"about {total} pair operations requested, over the "
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
# The key-pass pairs that one Python-int step is charged as: an element's
# reduction and scan, a pair of run items with a box group, or one item of
# the family counts (a set, a pair of sets, a window test), each a few
# big-int operations of 1.5-3 us.
_INT_STEP = 16
# Python-int gaps held at a time while their gcd is taken
_GAP_CHUNK = 1024


def additive_energy(a: Iterable[int], method: str = "sorted") -> int:
    """The number of quadruples (a, b, c, d) with a + b = c + d, exactly.

    E = n^2 + 2 * sum over d > 0 of r(d)^2, where r(d) counts the pairs at
    difference d.  This is the one-cell case of the prefix-grid evaluator
    ``_energies`` (whose docstring gives the run split, the families, the
    keys, the key ranges and the certificates that keep the count exact):
    the set is sorted and counted as the single prefix of its full length.
    ``method`` accepts only "sorted", the one route.
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


def _energies(xs: Sequence[int], ns: Sequence[int],
              max_pairs: int | None = None) -> tuple[list[int], dict[str, int]]:
    """E(xs[:n]) for every n in ``ns``, exactly, from one pass over the pairs
    of xs[:max(ns)]; ``xs`` must be strictly increasing.  Also returns what
    the pass split off (``_Plan.counts``).  With ``max_pairs``, a pass whose
    work (``_Plan.work``) exceeds it is refused with ``BudgetError`` before
    any product or pair is formed.

    E = n^2 + 2 * sum over d > 0 of r(d)^2, where r(d) counts the pairs at
    difference d.  The longest prefix is reduced to y = x / g (g the gcd of
    its gaps), with span S = max y - min y; g divides every shorter prefix's
    gaps too, so this one reduction serves every prefix.  Energy is
    translation-invariant and the pass reads only differences of the ys, so
    they are not translated (``_quotients``).  The distinct lengths in ``ns``
    are the grid cells; each pair is tagged with the cell of its larger
    index, the shortest prefix that holds it.

    Runs and points.  A run is a maximal stretch of consecutive y inside one
    cell with at least two members; every other element is a point.  Then
    r = r_PP + r_R, where r_PP counts the point pairs and r_R the pairs with
    a run member, and

        sum r^2 = sum r_PP^2 + sum r_R^2 + 2 * sum over point pairs
                  p > q of r_R(p - q).

    r_R is a sum of run items (``_run_items``): the ramp L - d of a run, the
    trapezoid of two runs, and the group of boxes of a run and a family, one
    per member.  So sum r_R^2 is the sum of the items' inner products over
    their pairs and each item with itself (``_run_square_sums``), at the
    later cell of the two and in Python ints: segment sums for two shapes
    (ramps or trapezoids) whose supports overlap and for a box and a shape,
    and for two box groups trapezoids at offsets +-2^l -+ 2^i, counted by
    windows of 2^l - 2^i (families on one side of their runs) or 2^l + 2^i
    (on opposite sides, ``_sum_window``).  The point pairs and the cross
    term are counted by the geometric families below.  The split is taken
    only when its work (``_split_work``: one per pair of ramps and
    trapezoids, ``_INT_STEP`` per pair with a box group and per item of the
    family counts) is at most half of the n(n - 1)/2 pairs of the key pass;
    otherwise every element is a point and the pass is the key pass alone.
    A family has at most bits(S + 1) members, so the points are not even
    scanned for families when the fewest families they could form would not
    pay.

    Geometric families (``_Families``).  The points, in order, are cut into
    families F_t = {b_t + 2^i : i in I_t = [lo_t, hi_t]}: maximal chains of
    consecutive points of one cell, with no run between them, whose first
    gap is a power of two and whose every next gap doubles the last; a point
    no chain takes is a one-member family.  The families are ordered, so
    the positive point differences are the union over the sets s = (t, u),
    t >= u, of D_s = {Delta_s + 2^i - 2^l : i in I_t, l in I_u}, with
    Delta_s = b_t - b_u and, for t = u, i > l.  Inside one D_s the value
    2^i - 2^l fixes (i, l), so every value has one pair but Delta_s itself,
    which has c = |I_t & I_u| pairs:

        sum r_PP^2 = sum over s of (|I_t||I_u| - c + c^2, or |I_t|(|I_t| - 1)/2
                     for t = u) + 2 * sum over s < s' of N(s, s'),

    where N(s, s') counts the (i, l, a, c) in their ranges with
    2^i - 2^l - 2^a + 2^c = delta = Delta_s' - Delta_s (``_count4``).  Every
    value of a set is positive, so a set t = u needs no i > l test against
    another set; two such sets count their zero and negative solutions too,
    N = (count - |I_t||I_t'|) / 2.  ``_screen`` drops almost every pair of
    sets, or of items, first: those whose value ranges do not meet, then
    those that fail a NAF weight test.  The cross term becomes window counts
    over the same run items: a family below a run (first y u, length L)
    meets it in the boxes u - b - 2^m + [0, L), a family above it in
    b + 2^m - u - [0, L), so a set and a box group count the (i, l, m) with
    2^i - 2^l +- 2^m in one window (``_box_hits``); a ramp or a trapezoid is
    summed segment by segment over the (i, l) with 2^i - 2^l in its window
    (``_pair_window``).  Every term goes to the latest cell among its
    families and runs.

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
    increments = np.zeros(len(grid), dtype=object)
    split = dict(_NO_SPLIT, points=n, point_pairs=n * (n - 1) // 2)
    check_pair_budget(ns, max_pairs)
    if n > 1:
        plan = _Plan(xs, grid)
        _charge(ns, max_pairs, lambda: plan.work)
        increments = plan.square_sums()
        split = plan.counts()
    energy = {m: m * m + 2 * s for m, s in zip(grid, np.cumsum(increments).tolist())}
    return [energy[m] for m in ns], split


_NO_SPLIT = {"runs": 0, "points": 0, "point_pairs": 0, "pieces": 0, "cross_hits": 0,
             "families": 0, "family_members": 0, "sets": 0, "set_pairs": 0,
             "set_pairs_kept": 0}


def _quotients(xs: Sequence[int]) -> tuple[Sequence[int], np.ndarray]:
    """The reduced y = x / g of the n >= 2 ``xs`` (g the gcd of their gaps):
    ``xs`` itself when g = 1, else the quotients x // g (every x leaves one
    remainder mod g), never translated; and where y[i + 1] = y[i] + 1.  The
    gaps of a span that fits an int64 are found by numpy, others as Python
    ints, ``_GAP_CHUNK`` at a time.  Raises ``ValueError`` unless ``xs`` is
    strictly increasing."""
    try:
        words = np.array(xs, dtype=np.int64)
    except OverflowError:
        words = None
    if words is not None and int(words.max()) - int(words.min()) < 1 << 63:
        gaps = np.diff(words)
        if (gaps <= 0).any():
            raise ValueError("elements must be strictly increasing")
        step = int(np.gcd.reduce(gaps))
        joined = gaps == step
    else:
        # g divides every gap, so a gap equals g only where it is the least
        # gap of its chunk and g is that least gap
        step, lows, joined = 0, [], np.empty(len(xs) - 1, dtype=bool)
        for k in range(0, len(joined), _GAP_CHUNK):
            gaps = [v - u for u, v in zip(xs[k:k + _GAP_CHUNK], xs[k + 1:k + _GAP_CHUNK + 1])]
            low = min(gaps)
            if low <= 0:
                raise ValueError("elements must be strictly increasing")
            step = math.gcd(step, *gaps)
            joined[k:k + len(gaps)] = [g == low for g in gaps]
            lows.append(low)
        for c, low in enumerate(lows):
            if low != step:
                joined[c * _GAP_CHUNK:(c + 1) * _GAP_CHUNK] = False
    return (xs if step == 1 else [x // step for x in xs]), joined


def _blocks(ys: Sequence[int], joined: np.ndarray,
            cells: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The blocks in order, as (first y, length, cell): the runs, maximal
    stretches of consecutive y (``joined`` neighbours) inside one cell, and
    single points between them."""
    joined = joined & (cells[1:] == cells[:-1])  # a run lies inside one cell
    starts = np.flatnonzero(np.concatenate(([True], ~joined)))
    return ([ys[i] for i in starts.tolist()], np.diff(np.append(starts, len(cells))),
            cells[starts])


class _Plan:
    """One pass over xs[:max(grid)] (n >= 2): the reduced elements, their
    cells, their ``_blocks`` record, the runs among the blocks, the families
    and the run items when the split is taken, and the work the pass will
    do, all before any product or pair is formed (see ``_energies``)."""

    def __init__(self, xs: Sequence[int], grid: list[int]) -> None:
        n = len(xs)
        self.ys, joined = _quotients(xs)
        self.n_cells = len(grid)
        # the cell of element i is the first prefix that holds it
        self.cells = np.searchsorted(np.array(grid), np.arange(n), side="right").astype(np.int32)
        self.blocks = _blocks(self.ys, joined, self.cells)
        lengths = self.blocks[1]
        self.runs = np.flatnonzero(lengths >= 2)
        self.families = None
        self.shapes = self.boxes = []
        # the key pass alone: every pair, and a Python-int step per element
        self.work = min(n * n, _INT_STEP * n + n * (n - 1) // 2)
        # the split pays when its work is at most half of the key pass's
        limit = n * (n - 1) // 4
        n_runs = len(self.runs)
        fewest = -(-(len(lengths) - n_runs) // (self.ys[-1] - self.ys[0] + 1).bit_length())
        if _split_work(n_runs, fewest) > limit:
            return
        families = _Families.find(self.blocks)
        split_work = _split_work(n_runs, len(families.families))
        if split_work <= limit:
            self.families = families
            self.shapes, self.boxes = _run_items(self.blocks, self.runs, families.families)
            self.work = min(n * n, _INT_STEP * n + split_work)

    def square_sums(self) -> np.ndarray:
        """Each cell's increment of the sum of r(d)^2 over the pairs of the
        reduced ``ys``: the run items' plus the families', or the key
        pass's, as Python ints (an object array), for a sum can pass 2^63.
        One key range adds less than n^3 / 2 (each of its differences has at
        most n - 1 of its at most n^2 / 2 pairs), so it counts in int64 for
        n < 2^21; a key pass over more would take over 2 * 10^12 pairs."""
        increments = np.zeros(self.n_cells, dtype=object)
        if self.families is None:
            for part in _key_pass(self.ys, self.cells, self.n_cells):
                increments += part
            return increments
        increments += _run_square_sums(self.n_cells, self.shapes, self.boxes)
        increments += self.families.square_sums(self.n_cells, self.shapes, self.boxes)
        return increments

    def counts(self) -> dict[str, int]:
        """What the pass split off: runs, points, the point pairs of the key
        pass, run items (``pieces``), cross hits ((point pair, run pair)
        incidences) and the families' counts (``_Families.counts``)."""
        n = len(self.ys)
        out = dict(_NO_SPLIT, points=n, point_pairs=n * (n - 1) // 2)
        if self.families is not None:
            n_runs = len(self.runs)
            out.update(self.families.counts(), runs=n_runs, points=len(self.blocks[1]) - n_runs,
                       pieces=len(self.shapes) + len(self.boxes), point_pairs=0)
        return out


def _split_work(n_runs: int, n_families: int) -> int:
    """The work of the split for its runs and families: one per pair of
    shapes (ramps and trapezoids, a shape with itself too), a closed form in
    small ints formed only where their supports overlap, and ``_INT_STEP``
    per pair of a box group with a shape or a box group and per item of the
    family counts, each a few big-int operations."""
    shapes, boxes = n_runs * (n_runs + 1) // 2, n_runs * n_families
    box_pairs = boxes * shapes + boxes * (boxes + 1) // 2
    family_items = _Families.items(n_families, shapes + boxes)
    return shapes * (shapes + 1) // 2 + _INT_STEP * (box_pairs + family_items)


def _run_items(blocks: tuple[list[int], np.ndarray, np.ndarray], runs: np.ndarray,
               families: list[tuple[int, int, int, int, int]]) -> tuple[list, list]:
    """The run items of the ``_blocks`` record whose blocks ``runs`` are the
    runs, beside the ``families`` of its points, with what ``_screen`` reads:
    the shapes (first, last, base, segments, cell) by first, a ramp per run
    and a trapezoid per two runs, r_R = value + slope * e for d in [first,
    last] on the segments (first e, last e, value, slope) of e = d - base;
    and per run and family the boxes [a + sign 2^i, top + sign 2^i] of width
    L, (a, top, bits(L - 1), sign, L, (lo, hi), cell, span), span = [a + 2^lo,
    top + 2^hi] for sign > 0 and [a - 2^hi, top - 2^lo] for sign < 0."""
    firsts, lengths, block_cells = blocks
    runs = [(firsts[b], int(lengths[b]), int(block_cells[b]), b) for b in runs.tolist()]
    shapes = []
    for x, (v, lv, v_cell, _) in enumerate(runs):
        shapes.append((0, ((1, lv - 1, lv, -1),), v_cell))
        shapes += [(u - v, _trapezoid_segments(lu, lv), max(u_cell, v_cell))
                   for u, lu, u_cell, _ in runs[x + 1:]]
    shapes = sorted((base + segments[0][0], base + segments[-1][1], base, segments, cell)
                    for base, segments, cell in shapes)
    # a member b + 2^i below the run meets it at u - b - 2^i + [0, L), one
    # above it at b + 2^i - u - [0, L)
    boxes = [(a, a + length - 1, (length - 1).bit_length(), sign, length, (lo, hi), max(cell, fc),
              (a + (1 << lo), a + length - 1 + (1 << hi)) if sign > 0
              else (a - (1 << hi), a + length - 1 - (1 << lo)))
             for u, length, cell, block in runs for b, lo, hi, fc, f_block in families
             for a, sign in [(u - b, -1) if f_block < block else (b - u - length + 1, 1)]]
    return shapes, boxes


def _trapezoid_segments(lu: int, lv: int) -> tuple[tuple[int, int, int, int], ...]:
    """The nonempty segments (first e, last e, value at 0, slope) of the
    trapezoid min(e + Lv, Lu - e, Lu, Lv) on -Lv < e < Lu: the number of
    pairs (s, t) in [0, Lu) x [0, Lv) with s - t = e."""
    m = min(lu, lv)
    segments = [(1 - lv, m - lv, lv, 1), (m - lv + 1, lu - m - 1, m, 0),
                (max(lu - m, m - lv + 1), lu - 1, lu, -1)]
    return tuple(s for s in segments if s[0] <= s[1])


def _run_square_sums(n_cells: int, shapes: list, boxes: list) -> list[int]:
    """Each cell's increment of sum r_R^2 over d > 0: the sum over the pairs
    of run items, each item also paired with itself once, of their inner
    product (twice for two items), at the later cell of the two."""
    out = [0] * n_cells
    # shapes against shapes, where their supports overlap
    for x, (_, last, base, segments, cell) in enumerate(shapes):
        for y in range(x, len(shapes)):
            first2, _, base2, segments2, cell2 = shapes[y]
            if first2 > last:
                break
            shift = base2 - base
            total = sum(_segment_dot(max(e1, f1 + shift), min(e2, f2 + shift), v, s,
                                     v2 - s2 * shift, s2)
                        for e1, e2, v, s in segments for f1, f2, v2, s2 in segments2)
            out[max(cell, cell2)] += total if y == x else 2 * total
    lasts, widths = [((s[0], s[1]), s[1]) for s in shapes], [s[1] - s[0] for s in shapes]
    tops, lengths = [(box[7], box[1]) for box in boxes], [box[4] for box in boxes]
    for x, (a, top, _, sign, length, i_range, cell, span) in enumerate(boxes):
        # the boxes that meet a shape's support [first, last]: -sign 2^i in
        # [a - last, top - first], a window of width (last - first) + L - 1
        for first, last, base, segments, cell2 in _screen(shapes, span, a, lasts, map(
                int.bit_length, map((length - 1).__add__, widths)), 2):
            exponents = (_exponents(first - top, last - a, i_range) if sign > 0
                         else _exponents(a - last, top - first, i_range))
            if exponents:
                starts = [a + (sign << i) - base for i in exponents]
                out[max(cell, cell2)] += 2 * sum(
                    _segment_dot(max(e1, start), min(e2, start + length - 1), v, s, 1, 0)
                    for start in starts for e1, e2, v, s in segments)
        # box groups against box groups: boxes i and l meet where sign' v, v =
        # 2^l -+ 2^i, is in [a - top', top - a'], in the trapezoid min(e + L',
        # L - e, L, L') on -L' < e < L of e = delta + sign' v
        for y in _screen(range(x, len(boxes)), span, a, tops[x:],
                         map(int.bit_length, map((length - 2).__add__, lengths[x:])), 3):
            a2, _, _, sign2, length2, l_range, cell2, _ = boxes[y]
            segments = _trapezoid_segments(length, length2)
            total = (_window_sum(segments, a2 - a, sign2, _pair_window, l_range, i_range, False)
                     if sign == sign2 else
                     _window_sum(segments, a2 - a, sign2, _sum_window, l_range, i_range))[0]
            out[max(cell, cell2)] += total if y == x else 2 * total
    return out


def _window_sum(segments, delta, sign, window, x_range, y_range, *flags) -> tuple[int, int]:
    """The sum over the values v that ``window(x_range, y_range, lo, hi,
    *flags)`` counts (it returns their count and sum within [lo, hi]) of the
    function of the ``segments`` (first e, last e, value at 0, slope) at
    e = delta + sign v, and the number of those v on a segment."""
    total = hits = 0
    for e1, e2, value, slope in segments:
        lo, hi = (e1 - delta, e2 - delta) if sign > 0 else (delta - e2, delta - e1)
        count, value_sum = window(x_range, y_range, lo, hi, *flags)
        total += count * (value + slope * delta) + sign * slope * value_sum
        hits += count
    return total, hits


def _segment_dot(lo: int, hi: int, v1: int, s1: int, v2: int, s2: int) -> int:
    """The sum over lo <= e <= hi of (v1 + s1 e)(v2 + s2 e), 0 when hi < lo."""
    if hi < lo:
        return 0
    count = hi - lo + 1
    e_sum = (lo + hi) * count // 2
    e2_sum = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) // 6
    return v1 * v2 * count + (v1 * s2 + v2 * s1) * e_sum + s1 * s2 * e2_sum


def _key_pass(ys: list[int], cells: np.ndarray, n_cells: int):
    """Yield, per key range, each grid cell's increment of the sum of
    r(d)^2 over the pairs of the increasing ``ys`` (with their ``cells``)."""
    n = len(ys)
    rho = np.array([_SPREAD * y % _M0 for y in ys], dtype=np.int64)
    order = np.argsort(rho, kind="stable")  # ties keep increasing y
    state = _KeyPass(
        rho=rho[order],
        ys=np.array(ys, dtype=object)[order],
        cells=cells[order],
        n_cells=n_cells,
        segments=_segments(ys)[order],
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


class _Families:
    """The points as geometric families b + 2^i, i in [lo, hi], in order,
    each given as (b, lo, hi, cell, block index) (see ``_energies``)."""

    def __init__(self, families: list[tuple[int, int, int, int, int]]) -> None:
        self.families = families
        self.kept = self.hits = 0

    @cached_property
    def sets(self) -> list[tuple[int, tuple[int, int], tuple[int, int], bool, int, tuple]]:
        """The sets s = (t, u), t >= u: (Delta_s, I_t, I_u, t == u, cell of t,
        span), the span holding Delta_s + 2^i - 2^l for all i in I_t, l in I_u."""
        return [(b - b2, (lo1, hi1), (lo2, hi2), t == u, c,
                 (b - b2 + (1 << lo1) - (1 << hi2), b - b2 + (1 << hi1) - (1 << lo2)))
                for t, (b, lo1, hi1, c, _) in enumerate(self.families)
                for u, (b2, lo2, hi2, _, _) in enumerate(self.families[:t + 1])]

    @classmethod
    def find(cls, blocks: tuple[list[int], np.ndarray, np.ndarray]) -> "_Families":
        """The families of the points among the ``_blocks`` record: greedy
        chains of consecutive single blocks of one cell whose first gap is a
        power of two and whose every next gap doubles the last; a point that
        starts no chain is b + 2^0 with b = y - 1."""
        first, single, block_cells = blocks[0], (blocks[1] == 1).tolist(), blocks[2].tolist()
        families = []
        k = 0
        while k < len(first):
            if not single[k]:
                k += 1
                continue
            j, gap = k, 0
            while j + 1 < len(first) and single[j + 1] and block_cells[j + 1] == block_cells[k]:
                g = first[j + 1] - first[j]
                if (g != 2 * gap) if gap else (g & (g - 1)):
                    break
                j, gap = j + 1, g
            e = (first[k + 1] - first[k]).bit_length() - 1 if j > k else 0
            families.append((first[k] - (1 << e), e, e + j - k, block_cells[k], k))
            k = j + 1
        return cls(families)

    @staticmethod
    def items(f: int, n_items: int) -> int:
        """The work of the family counts for f families: the sets, their
        pairs, and a window test per set and run item; it grows with f."""
        s = f * (f + 1) // 2
        return s + s * (s - 1) // 2 + s * n_items

    def counts(self) -> dict[str, int]:
        members = [hi - lo + 1 for _, lo, hi, _, _ in self.families if hi > lo]
        s = len(self.sets)
        return {"families": len(members), "family_members": sum(members), "sets": s,
                "set_pairs": s * (s - 1) // 2, "set_pairs_kept": self.kept,
                "cross_hits": self.hits}

    def square_sums(self, n_cells: int, shapes: list, boxes: list) -> np.ndarray:
        """Each cell's increment of sum r_PP^2 plus twice the cross term with
        the run items (``_run_items``)."""
        out = [0] * n_cells
        sets = self.sets
        for delta, (lo1, hi1), (lo2, hi2), diagonal, c, _ in sets:
            if diagonal:
                out[c] += (hi1 - lo1 + 1) * (hi1 - lo1) // 2
            else:
                shared = _span(max(lo1, lo2), min(hi1, hi2))
                out[c] += (hi1 - lo1 + 1) * (hi2 - lo2 + 1) - shared + shared * shared
        deltas = [(s[5], s[0]) for s in sets]
        for x, (d1, i1, l1, diagonal1, c1, span) in enumerate(sets):
            # d1 - d2 is a signed sum of four powers of two
            for d2, i2, l2, diagonal2, c2, _ in _screen(sets[x + 1:], span, d1, deltas[x + 1:],
                                                        repeat(0), 4):
                self.kept += 1
                count = _count4(i1, l1, i2, l2, d2 - d1)
                if diagonal1 and diagonal2:
                    count = (count - (i1[1] - i1[0] + 1) * (i2[1] - i2[0] + 1)) // 2
                out[max(c1, c2)] += 2 * count
        # a set meets a box group where 2^i - 2^l - sign 2^m is in [a - delta,
        # top - delta]: h + 1, h = (a - delta) >> shift, has weight <= 4
        for a, top, shift, sign, _, m_range, cell, span in boxes:
            for delta, i_range, l_range, diagonal, c, _ in _screen(
                    sets, span, a + (1 << shift), deltas, repeat(shift), 4):
                count = _box_hits(i_range, l_range, m_range, -sign, a - delta, top - delta,
                                  diagonal)
                self.hits += count
                out[max(c, cell)] += 2 * count
        # and a shape where 2^i - 2^l is in [first - delta, last - delta]
        for first, last, base, segments, cell in shapes:
            for delta, i_range, l_range, diagonal, c, _ in _screen(
                    sets, (first, last), first, deltas, repeat((last - first).bit_length()), 3):
                total, hits = _window_sum(segments, delta - base, 1, _pair_window, i_range,
                                          l_range, diagonal)
                self.hits += hits
                out[max(c, cell)] += 2 * total
        return np.array(out, dtype=object)


def _span(lo: int, hi: int) -> int:
    return hi - lo + 1 if hi >= lo else 0


def _naf_weight(m: int) -> int:
    """The weight of the non-adjacent form (NAF) of m, the popcount of 3m ^ m."""
    return (3 * m ^ m).bit_count()


def _screen(items: Iterable, span: tuple[int, int], origin: int, keys: Iterable[tuple],
            shifts: Iterable[int], weight: int) -> list:
    """The items whose span meets ``span`` (two items count only values in
    both) and whose h = (origin - value) >> shift, for their span and value
    ((lo, hi), value) in ``keys`` and their shift, has a NAF of at most
    ``weight`` digits: the one test of whether two items meet.  If [origin - value, + w],
    w < 2^shift, holds k signed powers of two, summing to 2^shift H from
    2^shift on, then H - 1 <= h <= H or -2 <= h <= 0 for k = 1 (weight 2),
    H - 2 <= h <= H or -3 <= h <= 1 for k = 2 (3), H - 3 <= h <= H + 1 for
    k = 3 of both signs."""
    first, last = span
    return [item for item, ((lo, hi), value), shift in zip(items, keys, shifts)
            if lo <= last and first <= hi and _naf_weight(origin - value >> shift) <= weight]


def _naf_digits(m: int) -> list[int]:
    """The positions of the nonzero digits of the non-adjacent form of m."""
    m = abs(m)
    x = (3 * m ^ m) >> 1
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _count3(x_range, y_range, z_range, target: int) -> int:
    """#{(x, y, z) in the ranges (lo, hi) : 2^x - 2^y + 2^z = target}.

    If y = x, 2^z = target; if y = z (and not x), 2^x = target.  Otherwise
    target + 2^y = 2^x + 2^z has at most two bits, which leaves at most
    three candidates for y: for target > 0 the bit 2^y must meet the run of
    ones that holds all but at most one bit of target (its start, or the one
    after), and for target = -t < 0, 2^y - t is the complement of t - 1 in y
    bits, so bits(t) <= y <= popcount(t - 1) + 2; target = 0 is x = z = y - 1."""
    (x0, x1), (y0, y1), (z0, z1) = x_range, y_range, z_range
    total = 0
    if target > 0 and not target & (target - 1):
        k = target.bit_length() - 1
        if z0 <= k <= z1:
            total += _span(max(x0, y0), min(x1, y1))
        if x0 <= k <= x1:
            lo, hi = max(y0, z0), min(y1, z1)
            total += _span(lo, hi) - (lo <= k <= hi)
    if not target:
        return total + _span(max(y0, x0 + 1, z0 + 1), min(y1, x1 + 1, z1 + 1))
    if target > 0:
        low = target & -target
        rest = target ^ low
        y = low.bit_length() - 1
        candidates = {y, y + 1, (rest & -rest).bit_length() - 1} if rest else {y, y + 1}
    else:
        t = -target
        candidates = range(t.bit_length(), (t - 1).bit_count() + 3)
    for y in candidates:
        if not y0 <= y <= y1:
            continue
        v = target + (1 << y)
        if v <= 0 or v.bit_count() > 2:
            continue
        top = v.bit_length() - 1
        if v.bit_count() == 1:
            total += top - 1 != y and x0 <= top - 1 <= x1 and z0 <= top - 1 <= z1
        else:
            bottom = (v & -v).bit_length() - 1
            if y != top and y != bottom:
                total += ((x0 <= top <= x1 and z0 <= bottom <= z1)
                          + (x0 <= bottom <= x1 and z0 <= top <= z1))
    return total


def _count4(i_range, l_range, a_range, c_range, delta: int) -> int:
    """#{(i, l, a, c) in the ranges : 2^i - 2^l - 2^a + 2^c = delta}.

    One exponent runs over the shortest range and ``_count3`` solves the
    other three.  With w >= 3 digits in the NAF of delta, that exponent lies
    within 1 of a digit: elsewhere adding or taking away its power gives a
    NAF of weight w + 1 > 3.  delta = 0 is closed-form: i = l with a = c, or
    (i, l) = (a, c)."""
    digits = _naf_digits(delta)
    if not delta:
        def meet(*ranges):
            return _span(max(r[0] for r in ranges), min(r[1] for r in ranges))
        return (meet(i_range, l_range) * meet(a_range, c_range)
                + meet(i_range, a_range) * meet(l_range, c_range)
                - meet(i_range, l_range, a_range, c_range))
    # 2^i - 2^l + 2^c = delta + 2^a, or 2^l - 2^c + 2^a = 2^i - delta, ...
    loops = [(a_range, (i_range, l_range, c_range), 1), (l_range, (i_range, a_range, c_range), 1),
             (i_range, (l_range, c_range, a_range), -1), (c_range, (l_range, i_range, a_range), -1)]
    (lo, hi), rest, sign = min(loops, key=lambda loop: loop[0][1] - loop[0][0])
    if len(digits) >= 3:
        values = {e + k for e in digits for k in (-1, 0, 1) if lo <= e + k <= hi}
    else:
        values = range(lo, hi + 1)
    return sum(_count3(*rest, sign * delta + (1 << v)) for v in values)


def _positive_window(x_range, y_range, a: int, b: int) -> tuple[int, int]:
    """The count and sum of 2^x - 2^y over x > y with 1 <= a <= 2^x - 2^y
    <= b: such a value lies in [2^(x-1), 2^x), so bits(a) <= x <= bits(b),
    and 2^x - b <= 2^y <= 2^x - a."""
    count = total = 0
    for x in range(max(x_range[0], a.bit_length()), min(x_range[1], b.bit_length()) + 1):
        top = 1 << x
        lo = max(y_range[0], (top - b - 1).bit_length()) if top > b else y_range[0]
        hi = min(y_range[1], x - 1, (top - a).bit_length() - 1)
        if lo <= hi:
            count += hi - lo + 1
            total += (hi - lo + 1) * top - ((1 << (hi + 1)) - (1 << lo))
    return count, total


def _pair_window(x_range, y_range, lo: int, hi: int, positive: bool) -> tuple[int, int]:
    """The count and sum of v = 2^x - 2^y over the ranges with lo <= v <= hi
    (v > 0 only when ``positive``)."""
    count = total = 0
    if lo <= 0 <= hi and not positive:
        count += _span(max(x_range[0], y_range[0]), min(x_range[1], y_range[1]))
    if hi >= max(lo, 1):
        c, t = _positive_window(x_range, y_range, max(lo, 1), hi)
        count, total = count + c, total + t
    if not positive and -lo >= max(-hi, 1):
        c, t = _positive_window(y_range, x_range, max(-hi, 1), -lo)
        count, total = count + c, total - t
    return count, total


def _sum_window(x_range, y_range, lo: int, hi: int) -> tuple[int, int]:
    """The count and sum of v = 2^x + 2^y over the ranges with lo <= v <= hi:
    the larger power 2^t lies in [v / 2, v), so bits(lo) - 2 <= t < bits(hi),
    and the other in [lo - 2^t, hi - 2^t]."""
    count = total = 0
    if hi < 2:
        return count, total
    # x the larger (or equal) exponent, then y the strictly larger one
    for big, small, strict in ((x_range, y_range, 0), (y_range, x_range, 1)):
        for t in range(max(big[0], max(lo, 2).bit_length() - 2),
                       min(big[1], hi.bit_length() - 1) + 1):
            top = 1 << t
            r = _exponents(lo - top, hi - top, (small[0], min(small[1], t - strict)))
            count += len(r)
            total += len(r) * top + (1 << r.stop) - (1 << r.start) if r else 0
    return count, total


def _exponents(lo: int, hi: int, e_range) -> range:
    """The e in ``e_range`` (first, last) with lo <= 2^e <= hi."""
    if hi < 1:
        return range(0)
    return range(max(e_range[0], (max(lo, 1) - 1).bit_length()),
                 min(e_range[1], hi.bit_length() - 1) + 1)


def _is_block(h: int) -> bool:
    """Whether |h| is 0 or 2^a - 2^b, a run of ones, as 2^i - 2^l can be."""
    h = abs(h)
    h += h & -h
    return not h & (h - 1)


def _box_hits(i_range, l_range, m_range, sign: int, lo: int, hi: int, positive: bool) -> int:
    """#{(i, l, m) in the ranges : lo <= 2^i - 2^l + sign 2^m <= hi}, with
    i > l only when ``positive``.

    With 2^s > hi - lo and h = lo >> s, the terms at or above 2^s sum to
    2^s H.  For m >= s the others are within 2^s of 0, so H is in h .. h + 2
    of NAF weight at most 3, and H - sign 2^(m-s), what 2^i - 2^l adds from
    2^s on, is a run of ones (``_is_block``).  An m >= s not within 1 of a
    digit of H adds one to NAF(H)'s weight, so that is at most 1 and the
    solution is a free line, where m cancels a term (m = l, 2^i in the
    window; m = i, -2^l in it) or three terms sum to 0 (i = m = l - 1,
    l = m = i - 1).  For m < s, H is a run of ones in h - 1 .. h + 2
    (sign > 0) or h .. h + 3.  The windows of 2^i - 2^l are counted at each
    such m, the free lines off them in closed form."""
    s = (hi - lo).bit_length()
    h = lo >> s
    tops = [top for top in range(h, h + 3) if _naf_weight(top) <= 3]
    m0, m1 = m_range
    below = min(m1, s - 1)
    sweep = m0 <= below and any(map(_is_block, range(h - (sign > 0), h + 4 - (sign > 0))))
    if not tops and not sweep:
        return 0
    candidates = {s + m for top in tops for e in _naf_digits(top) for m in (e - 1, e, e + 1)
                  if m >= 0 and m0 <= s + m <= m1 and _is_block(top - (sign << m))}
    candidates.update(range(m0, below + 1) if sweep else ())
    total = sum(_pair_window(i_range, l_range, lo - (sign << m), hi - (sign << m), positive)[0]
                for m in candidates)
    # the free lines, as ranges of m
    (i0, i1), (l0, l1) = i_range, l_range
    if sign > 0:  # m = l with 2^i in [lo, hi]; i = m = l - 1
        lines = [(l0, min(l1, i - 1) if positive else l1) for i in _exponents(lo, hi, i_range)]
        if lo <= 0 <= hi and not positive:
            lines.append((max(i0, l0 - 1), min(i1, l1 - 1)))
    else:  # m = i with -2^l in [lo, hi]; l = m = i - 1
        lines = [(max(i0, l + 1) if positive else i0, i1) for l in _exponents(-hi, -lo, l_range)]
        if lo <= 0 <= hi:
            lines.append((max(l0, i0 - 1), min(l1, i1 - 1)))
    for first, last in lines:
        first, last = max(first, m0), min(last, m1)
        total += _span(first, last) - sum(first <= m <= last for m in candidates)
    return total


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
    # what the energy pass split off: runs, points, point pairs, run items
    # (``pieces``), cross hits and the geometric families (``_Plan.counts``)
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
    longest prefix (its members alone are formed, by ``truncate``), which
    charges its work against the budget and refuses before any pair is
    formed.  Checkpoints whose consecutive run is empty are flagged in their
    row (and excluded from the spread) rather than silently mixed in.
    """
    params = seq.params
    levels = sorted(set(levels))
    ns = [seq.checkpoint(j) for j in levels]
    energies, split = _energies(truncate(seq, max(ns, default=0)), ns, max_pairs)
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
