"""Exact representation counts and additive energy of integer sets.

The additive energy of a finite set A is the number of ordered quadruples
(a, b, c, d) in A^4 with a + b = c + d.  It always lies between (#A)^2 and
(#A)^3, and equals the sum of the squared representation counts of the
difference multiset: counting (a, d) and (c, b) with a - d = c - b pairs off
the quadruples by their common difference.

Three independent routes are implemented and kept separate on purpose:

* ``additive_energy`` — the production path: a streaming sorted merge of
  the pairwise differences, memory O(#A) however many differences are
  distinct;
* ``additive_energy_bruteforce`` — enumeration straight from the
  definition, for oracle duty on small sets;
* ``additive_energy_convolution`` — an FFT autocorrelation cross-check,
  valid for dense polynomial-range inputs only.

``rep_counts`` keeps a dict of every difference; it is the oracle that
``additive_energy`` is tested against, for moderate inputs only.
"""

from __future__ import annotations

import heapq
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


def additive_energy(a: Iterable[int], method: str = "sorted") -> int:
    """The number of quadruples (a, b, c, d) with a + b = c + d, exactly.

    One increasing stream of differences per anchor element, merged lazily;
    runs of equal positive differences give E = n^2 + 2 * sum of squared
    run lengths.  ``method`` accepts only "sorted", the one route.
    """
    if method != "sorted":
        raise ValueError(f"unknown method {method!r}; the only route is 'sorted'")
    xs = _validated(a)
    n = len(xs)
    streams = (_anchor_stream(xs, i) for i in range(n - 1))
    square_sum = 0
    run_value = None
    run_len = 0
    for d in heapq.merge(*streams):
        if d == run_value:
            run_len += 1
        else:
            square_sum += run_len * run_len
            run_value, run_len = d, 1
    square_sum += run_len * run_len
    return n * n + 2 * square_sum


def _anchor_stream(xs: Sequence[int], i: int):
    # a real function scope: a bare nested genexp would close over the loop
    # variable and read its final value once the merge starts consuming
    anchor = xs[i]
    return (xs[j] - anchor for j in range(i + 1, len(xs)))


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
