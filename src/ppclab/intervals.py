"""Exact arithmetic on finite unions of closed subintervals of [0, 1].

An :class:`IntervalSet` stores its components as integer numerator pairs
``(lo, hi)`` over one common denominator ``den``, each pair standing for
[lo/den, hi/den].  The pairs are kept in a canonical normal form (sorted,
pairwise disjoint, touching components merged, zero-length components
dropped, ``den`` reduced by its gcd with every endpoint) so that equality of
sets is plain structural equality, and every operation is a sort and sweep
over integers: ``union`` and ``intersect`` first scale both operands to the
lcm of their denominators.  At the boundary the module stays Fraction-facing:
:class:`Interval`, ``.intervals``, iteration and the file format (unchanged)
give `fractions.Fraction` endpoints, and no floats enter or leave it.

On top of the set algebra there are the two measure-theoretic gadgets the
experiments need: Bohr sets of a single frequency, and the union of Bohr sets
over a difference set, plus the ratio used in second-moment (Borel-Cantelli
type) lower bounds.  Both Bohr constructions refuse with ``BudgetError``,
before building anything, when they would materialize more than
``MAX_BOHR_PIECES`` intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

from .sequences import BudgetError

__all__ = [
    "Interval",
    "IntervalSet",
    "MAX_BOHR_PIECES",
    "bohr_set",
    "small_denominator_set",
    "borel_cantelli_ratio",
    "write_interval_set",
    "read_interval_set",
]

RationalLike = Union[Fraction, int, str]
Pair = tuple[int, int]  # (lo, hi) numerators over a set's denominator

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# Most intervals one bohr_set or small_denominator_set call may build
# (|d| + 1 per frequency d); larger requests are refused up front.
MAX_BOHR_PIECES = 1 << 24


def _frac(x: RationalLike) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is the contract here)."""
    if isinstance(x, float):
        raise TypeError("interval endpoints must be exact rationals, not floats")
    return Fraction(x)


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval [lo, hi] with 0 <= lo <= hi <= 1."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = _frac(self.lo), _frac(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (ZERO <= lo <= hi <= ONE):
            raise ValueError(f"not a valid subinterval of [0,1]: [{lo}, {hi}]")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x: RationalLike) -> bool:
        x = _frac(x)
        return self.lo <= x <= self.hi


def _canonical(den: int, pairs: Iterable[Pair]) -> tuple[int, tuple[Pair, ...]]:
    """The normal form of the pairs over ``den``: zero-length pairs dropped,
    the rest merged by ``_merged``."""
    return _merged(den, [p for p in pairs if p[0] < p[1]])


def _merged(den: int, pairs: list[Pair]) -> tuple[int, tuple[Pair, ...]]:
    """The normal form of pairs over ``den``, none of zero length: sorted in
    place by left end alone (faster than comparing pairs; the merge takes
    equal left ends in any order), overlapping or touching pairs merged,
    then ``den`` and every endpoint divided by their common gcd."""
    pairs.sort(key=itemgetter(0))
    out: list[Pair] = []
    end = -1  # right end of the last component; endpoints are >= 0
    for p in pairs:
        if p[0] > end:
            out.append(p)
            end = p[1]
        elif p[1] > end:
            # overlap or touch: extend the previous component
            end = p[1]
            out[-1] = (out[-1][0], end)
    g = den
    for lo, hi in out:
        if g == 1:
            break
        g = gcd(g, lo, hi)
    if g > 1:
        den //= g
        out = [(lo // g, hi // g) for lo, hi in out]
    return den, tuple(out)


def _scaled(pairs: tuple[Pair, ...], m: int) -> Sequence[Pair]:
    return pairs if m == 1 else [(lo * m, hi * m) for lo, hi in pairs]


class IntervalSet:
    """A finite union of closed subintervals of [0,1], in canonical form.

    Canonical form: components sorted by left endpoint, pairwise disjoint,
    with touching components merged and degenerate (single point) components
    dropped, stored as integer pairs over the smallest common denominator.
    Dropping points keeps equality canonical and never changes the measure.
    """

    __slots__ = ("_den", "_pairs")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        ivals = list(intervals)
        den = lcm(*(x.denominator for iv in ivals for x in (iv.lo, iv.hi)))
        pairs = [
            (iv.lo.numerator * (den // iv.lo.denominator),
             iv.hi.numerator * (den // iv.hi.denominator))
            for iv in ivals
        ]
        self._den, self._pairs = _canonical(den, pairs)

    @classmethod
    def _from_pairs_over(cls, den: int, pairs: Iterable[Pair]) -> "IntervalSet":
        """The set of [lo/den, hi/den] over integer pairs with 0 <= lo, hi <= den."""
        return cls._normal(*_canonical(den, pairs))

    @classmethod
    def _normal(cls, den: int, pairs: tuple[Pair, ...]) -> "IntervalSet":
        """The set whose pairs over ``den`` are already in normal form."""
        s = cls.__new__(cls)
        s._den, s._pairs = den, pairs
        return s

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[RationalLike, RationalLike]]) -> "IntervalSet":
        return cls(Interval(_frac(a), _frac(b)) for a, b in pairs)

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls._normal(1, ((0, 1),))

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls._normal(1, ())

    # -- container protocol ------------------------------------------------

    @property
    def intervals(self) -> tuple[Interval, ...]:
        den = self._den
        return tuple(Interval(Fraction(lo, den), Fraction(hi, den)) for lo, hi in self._pairs)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._den == other._den and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash((self._den, self._pairs))

    def __repr__(self) -> str:
        body = " u ".join(f"[{iv.lo}, {iv.hi}]" for iv in self)
        return f"IntervalSet({body or 'empty'})"

    def __contains__(self, x: RationalLike) -> bool:
        x = _frac(x)
        # lo/den <= x.num/x.den <= hi/den, cross-multiplied
        num, d = x.numerator * self._den, x.denominator
        return any(lo * d <= num <= hi * d for lo, hi in self._pairs)

    # -- set algebra ---------------------------------------------------------

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(hi - lo for lo, hi in self._pairs), self._den)

    def _common(self, other: "IntervalSet") -> tuple[int, Sequence[Pair], Sequence[Pair]]:
        """Both pair lists over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        return den, _scaled(self._pairs, den // self._den), _scaled(other._pairs, den // other._den)

    def _is_full(self) -> bool:
        return self._den == 1 and bool(self._pairs)  # den 1 leaves only [0, 1]

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other._pairs or self._is_full():
            return self
        if not self._pairs or other._is_full():
            return other
        den, a, b = self._common(other)
        return IntervalSet._normal(*_merged(den, [*a, *b]))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        # Two-pointer sweep over the sorted component lists.
        den, a, b = self._common(other)
        out: list[Pair] = []
        i = j = 0
        while i < len(a) and j < len(b):
            (a_lo, a_hi), (b_lo, b_hi) = a[i], b[j]
            # empty (lo > hi) and single-point overlaps are dropped by
            # normalization; they carry no measure either way
            out.append((max(a_lo, b_lo), min(a_hi, b_hi)))
            if a_hi < b_hi:
                i += 1
            else:
                j += 1
        return IntervalSet._from_pairs_over(den, out)

    def complement(self) -> "IntervalSet":
        """The closure of [0,1] minus this set (complement within [0,1])."""
        out: list[Pair] = []  # zero-length gaps are dropped by normalization
        cursor = 0
        for lo, hi in self._pairs:
            out.append((cursor, lo))
            cursor = hi
        out.append((cursor, self._den))
        return IntervalSet._from_pairs_over(self._den, out)

    __or__ = union
    __and__ = intersect


def _check_pieces(pieces: int) -> None:
    if pieces > MAX_BOHR_PIECES:
        raise BudgetError(
            f"{pieces} Bohr intervals requested, over the budget of {MAX_BOHR_PIECES}"
        )


def _bohr_pairs(q: int, delta: Fraction, m: int) -> tuple[Pair, ...]:
    """The pieces of bohr_set(q, delta) for 0 < delta < 1/2 as numerator
    pairs over q * delta.denominator * m: the centre k/q sits at
    k * delta.denominator * m and the radius delta/q is delta.numerator * m,
    clipped to [0, 1] at the two ends.  The radius is below half the step
    between centres, so the q + 1 pieces come sorted and disjoint."""
    step = delta.denominator * m
    r = delta.numerator * m
    top = q * step
    inner = zip(range(step - r, top - r, step), range(step + r, top, step))
    return ((0, r), *inner, (top - r, top))


def bohr_set(d: int, delta: RationalLike) -> IntervalSet:
    """The set of alpha in [0,1] whose multiple d*alpha lies within delta
    of an integer (distance to the nearest integer at most delta).

    Requires d != 0 and 0 <= delta <= 1/2.  The result is the union of
    |d| + 1 closed intervals centred on the rationals k/|d| (clipped at the
    ends), and its measure is exactly min(1, 2*delta).  Raises BudgetError
    when |d| + 1 exceeds MAX_BOHR_PIECES.

    The set is built in normal form: empty at delta = 0, [0, 1] at
    delta = 1/2, else the q + 1 disjoint pieces of ``_bohr_pairs``, whose
    endpoints delta.numerator and delta.denominator - delta.numerator are
    coprime, so their denominator q * delta.denominator is in lowest terms.
    """
    if d == 0:
        raise ValueError("frequency d must be nonzero")
    delta = _frac(delta)
    if not (ZERO <= delta <= HALF):
        raise ValueError(f"delta must lie in [0, 1/2], got {delta}")
    q = abs(d)
    _check_pieces(q + 1)
    if delta == ZERO:
        return IntervalSet.empty()
    if delta == HALF:
        return IntervalSet.full()
    return IntervalSet._normal(q * delta.denominator, _bohr_pairs(q, delta, 1))


def small_denominator_set(b_set: Iterable[int], eps: RationalLike) -> IntervalSet:
    """Union of Bohr sets over all nonzero pairwise differences of ``b_set``,
    each with radius eps / #(B - B).

    The measure of the result is strictly less than 2*eps: the difference set
    contains 0, so there are fewer than #(B - B) nonzero frequencies, each
    contributing a Bohr set of measure 2*eps/#(B - B).  Raises BudgetError
    when the sum of |d| + 1 over the frequencies exceeds MAX_BOHR_PIECES.
    """
    b = set(b_set)
    if len(b) < 2:
        raise ValueError("need at least two integers to form nonzero differences")
    eps = _frac(eps)
    if not (ZERO < eps < ONE):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    diffs = {x - y for x in b for y in b}
    radius = eps / len(diffs)
    # d and -d give the same Bohr set, so only the positive representatives
    # are materialized; the union is unchanged.
    freqs = sorted({abs(d) for d in diffs if d != 0})
    _check_pieces(sum(d + 1 for d in freqs))
    # every piece goes over one denominator, lcm(freqs) * radius.denominator,
    # and the whole union is merged once; 0 < radius < 1/2, so no piece has
    # zero length
    step_den = lcm(*freqs)
    pairs: list[Pair] = []
    for d in freqs:
        pairs.extend(_bohr_pairs(d, radius, step_den // d))
    return IntervalSet._normal(*_merged(step_den * radius.denominator, pairs))


def borel_cantelli_ratio(sets: Sequence[IntervalSet]) -> Fraction:
    """Second-moment ratio (sum of measures)^2 / (sum of pairwise
    intersection measures over all ordered pairs, including m = n).

    This is the quantity whose limsup lower-bounds the measure of the set of
    points lying in infinitely many of the given sets.  Requires at least one
    set of positive measure (otherwise the ratio is 0/0).
    """
    sets = list(sets)
    total = sum((s.measure for s in sets), ZERO)
    if total == 0:
        raise ValueError("all sets have measure zero; ratio undefined")
    denom = ZERO
    for i, a in enumerate(sets):
        denom += a.measure  # the diagonal term lambda(A_i ∩ A_i)
        for b_ in sets[i + 1 :]:
            denom += 2 * a.intersect(b_).measure
    return total * total / denom


# -- serialization -----------------------------------------------------------
#
# One interval per line, two endpoints in lowest terms as "num/den num/den".
# Lines starting with '#' (and blank lines) are ignored on read.


def _fmt(num: int, den: int) -> str:
    """num/den in lowest terms, as str(Fraction(num, den)) with a "/1"."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def interval_set_to_lines(s: IntervalSet) -> list[str]:
    den = s._den
    return [f"{_fmt(lo, den)} {_fmt(hi, den)}" for lo, hi in s._pairs]


def interval_set_from_lines(lines: Iterable[str]) -> IntervalSet:
    pieces = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two endpoints, got {line!r}")
        try:
            lo, hi = Fraction(parts[0]), Fraction(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"line {lineno}: bad rational in {line!r}: {exc}") from None
        try:
            pieces.append(Interval(lo, hi))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return IntervalSet(pieces)


def _interval_text(s: IntervalSet) -> str:
    """The lines of ``interval_set_to_lines``, each ending in a newline."""
    return "\n".join([*interval_set_to_lines(s), ""])


def write_interval_set(path, s: IntervalSet, comment: str | None = None) -> None:
    _write_interval_text(path, _interval_text(s), comment)


def _write_interval_text(path, text: str, comment: str | None) -> None:
    """Write an interval file: the ``comment`` lines after "# ", then the
    interval lines of ``text`` (``_interval_text``), in one call."""
    header = "".join(f"# {line}\n" for line in comment.splitlines()) if comment else ""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines((header, text))


def read_interval_set(path) -> IntervalSet:
    with open(path, "r", encoding="ascii") as fh:
        try:
            return interval_set_from_lines(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
