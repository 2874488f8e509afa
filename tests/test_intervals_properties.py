"""Property tests: the interval-set laws on small sets.

Endpoints mix denominators (powers of two, primes and their products), and
the piece lists include touching, nested, degenerate and full pieces as well
as the empty list.  The oracles are pointwise membership on a grid of every
endpoint and the midpoints between them, and a Fraction sort-and-merge
written here, independent of the integer normal form of ``IntervalSet``.
The Bohr sets, built in normal form without it, must equal the sets the
general constructor normalizes from the same clipped Fraction intervals.
"""

import functools
from fractions import Fraction
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from ppclab import intervals
from ppclab.intervals import (
    Interval,
    IntervalSet,
    bohr_set,
    interval_set_from_lines,
    interval_set_to_lines,
    small_denominator_set,
)

ZERO, ONE = Fraction(0), Fraction(1)
DENOMINATORS = [1, 2, 8, 64, 1024, 3, 5, 7, 97, 101, 6, 12, 30, 210, 864]


@st.composite
def points(draw):
    d = draw(st.sampled_from(DENOMINATORS))
    return Fraction(draw(st.integers(0, d)), d)


@st.composite
def piece_lists(draw):
    """Up to six (lo, hi) Fraction pairs with 0 <= lo <= hi <= 1."""
    out: list[tuple[Fraction, Fraction]] = []
    kinds = ["free", "touch", "nested", "point", "full"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        a, b = sorted((draw(points()), draw(points())))
        if kind == "full":
            out.append((ZERO, ONE))
        elif kind == "point":
            out.append((a, a))
        elif kind == "touch" and out:
            # starts where the previous piece ends
            hi = out[-1][1]
            out.append((hi, max(hi, b)))
        elif kind == "nested" and out:
            # inside the previous piece, at the fractions a and b of its length
            lo, hi = out[-1]
            out.append((lo + (hi - lo) * a, lo + (hi - lo) * b))
        else:
            out.append((a, b))
    return out


def merged(pieces):
    """Reference normal form: sort, merge overlapping or touching pieces,
    drop the zero-length ones."""
    out: list[list[Fraction]] = []
    for lo, hi in sorted(pieces):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out if lo < hi]


def as_pairs(s: IntervalSet):
    return [(iv.lo, iv.hi) for iv in s.intervals]


def grid(*piece_lists_):
    """Every endpoint (with 0 and 1) and the midpoints between neighbours."""
    ends = sorted({ZERO, ONE} | {x for ps in piece_lists_ for p in ps for x in p})
    mids = [(x + y) / 2 for x, y in zip(ends, ends[1:])]
    return ends, mids


@given(piece_lists())
def test_normal_form_matches_reference_merge(pieces):
    s = IntervalSet.from_pairs(pieces)
    assert as_pairs(s) == merged(pieces)
    assert len(s) == len(merged(pieces))
    assert list(s) == list(s.intervals)
    # the same set rebuilt from its own components is equal and hashes equal
    again = IntervalSet(s.intervals)
    assert again == s and hash(again) == hash(s)


@given(piece_lists(), piece_lists())
def test_algebra_agrees_with_pointwise_membership(pa, pb):
    a, b = IntervalSet.from_pairs(pa), IntervalSet.from_pairs(pb)
    union, inter, comp = a | b, a & b, a.complement()
    assert as_pairs(union) == merged(pa + pb)
    ends, mids = grid(pa, pb)
    for m in mids:
        # no endpoint lies strictly between neighbouring grid points, so
        # membership there is the plain boolean combination
        assert (m in a) == any(lo <= m <= hi for lo, hi in pa if lo < hi)
        assert (m in union) == (m in a or m in b)
        assert (m in inter) == (m in a and m in b)
        assert (m in comp) == (m not in a)
    # every set here is a union of closed non-degenerate intervals with ends
    # on the grid, so it holds an endpoint exactly when it holds a neighbour
    for s in (a, b, union, inter, comp):
        for k, x in enumerate(ends):
            near = mids[max(0, k - 1) : k + 1]
            assert (x in s) == any(m in s for m in near)


@given(piece_lists(), piece_lists())
def test_measure_inclusion_exclusion(pa, pb):
    a, b = IntervalSet.from_pairs(pa), IntervalSet.from_pairs(pb)
    assert (a | b).measure + (a & b).measure == a.measure + b.measure
    assert a.complement().measure == 1 - a.measure
    assert a.measure == sum((hi - lo for lo, hi in merged(pa)), ZERO)


@given(piece_lists(), piece_lists())
def test_equal_sets_are_structurally_equal(pa, pb):
    a, b = IntervalSet.from_pairs(pa), IntervalSet.from_pairs(pb)
    # each pair is one set reached through different denominators
    for lhs, rhs in ((a | b, b | a), (a & b, b & a), ((a | b) & a, a),
                     ((a & b) | a, a), (a.complement().complement(), a)):
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert interval_set_to_lines(lhs) == interval_set_to_lines(rhs)


@given(piece_lists())
def test_file_lines_round_trip(pieces):
    s = IntervalSet.from_pairs(pieces)
    lines = interval_set_to_lines(s)
    assert lines == [f"{lo.numerator}/{lo.denominator} {hi.numerator}/{hi.denominator}"
                     for lo, hi in merged(pieces)]
    back = interval_set_from_lines(lines)
    assert back == s and hash(back) == hash(s)


# -- the closed forms ----------------------------------------------------------------


HALF = Fraction(1, 2)


@st.composite
def bohr_args(draw):
    """(d, delta): d nonzero of either sign, often +-1; delta in [0, 1/2],
    often at one of the two ends."""
    d = draw(st.one_of(st.sampled_from([1, -1]), st.integers(-80, 80).filter(bool)))
    delta = draw(st.one_of(st.sampled_from([ZERO, HALF]),
                           st.fractions(ZERO, HALF, max_denominator=300)))
    return d, delta


def clipped_bohr_set(d, delta):
    """The union of the |d| + 1 intervals around k/|d| of radius delta/|d|,
    clipped to [0, 1], normalized by the general constructor."""
    q = abs(d)
    return IntervalSet(Interval(max(ZERO, Fraction(k, q) - delta / q),
                                min(ONE, Fraction(k, q) + delta / q)) for k in range(q + 1))


@given(bohr_args())
def test_bohr_set_is_the_normalized_union_of_its_intervals(args):
    s = bohr_set(*args)
    assert s == clipped_bohr_set(*args) and hash(s) == hash(clipped_bohr_set(*args))
    assert s.measure == 2 * args[1]


@given(bohr_args())
def test_bohr_set_never_normalizes(args):
    want = clipped_bohr_set(*args)
    with mock.patch.object(intervals, "_canonical", side_effect=AssertionError("normalized")):
        got = bohr_set(*args)
    assert got == want


# empty and full sets, from the shortcuts and from the general constructor
BOUNDS = [IntervalSet.empty(), IntervalSet.full(), IntervalSet([]),
          IntervalSet.from_pairs([(0, "1/3"), ("1/3", 1)]), IntervalSet.from_pairs([("1/2", "1/2")])]


@given(piece_lists(), st.sampled_from(BOUNDS))
def test_union_with_an_empty_or_full_set_is_the_general_union(pieces, bound):
    a = IntervalSet.from_pairs(pieces)
    want = IntervalSet([*a, *bound])
    assert a.union(bound) == want and bound.union(a) == want
    assert as_pairs(bound.union(a)) == merged(pieces + as_pairs(bound))


@given(st.sets(st.integers(-40, 40), min_size=2, max_size=7),
       st.fractions(ZERO, ONE, max_denominator=60).filter(lambda eps: ZERO < eps < ONE))
def test_small_denominator_set_is_the_union_of_its_bohr_sets(b, eps):
    diffs = {x - y for x in b for y in b}
    radius = eps / len(diffs)
    want = functools.reduce(IntervalSet.union, [bohr_set(d, radius) for d in diffs if d])
    assert small_denominator_set(b, eps) == want
