"""Unit tests for the exact interval algebra.

The independent oracle used throughout is pointwise membership: a point x is
in an interval set iff it lies in one of the components, and every set-level
operation must agree with the corresponding boolean combination of membership
predicates at randomly drawn rational points.  Measures are cross-checked via
inclusion-exclusion rather than re-deriving the implementation's sweep.
"""

import random
from fractions import Fraction

import pytest

from ppclab import intervals
from ppclab.intervals import (
    MAX_BOHR_PIECES,
    Interval,
    IntervalSet,
    bohr_set,
    borel_cantelli_ratio,
    interval_set_from_lines,
    interval_set_to_lines,
    small_denominator_set,
)
from ppclab.sequences import BudgetError


def dist_to_nearest_int(x: Fraction) -> Fraction:
    """Exact distance to the nearest integer (the membership oracle)."""
    f = x - (x.numerator // x.denominator)  # fractional part in [0,1)
    return min(f, 1 - f)


def random_interval_set(rng: random.Random, max_components: int = 5) -> IntervalSet:
    pieces = []
    for _ in range(rng.randint(0, max_components)):
        a = Fraction(rng.randint(0, 64), 64)
        b = Fraction(rng.randint(0, 64), 64)
        lo, hi = min(a, b), max(a, b)
        pieces.append(Interval(lo, hi))
    return IntervalSet(pieces)


def random_points(rng: random.Random, n: int = 40) -> list[Fraction]:
    # denominator 128 on purpose: half the grid points are component
    # endpoints of the denominator-64 sets above, so boundaries get hit
    return [Fraction(rng.randint(0, 128), 128) for _ in range(n)]


# -- construction and normal form ---------------------------------------------


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        Interval(Fraction(-1, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        Interval(Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(TypeError):
        Interval(0.25, 0.5)


def test_normalization_merges_and_drops():
    s = IntervalSet.from_pairs([("1/2", "3/4"), ("0", "1/2"), ("7/8", "7/8")])
    # touching components merge, the degenerate point is dropped
    assert s == IntervalSet.from_pairs([("0", "3/4")])
    assert len(s) == 1
    assert s.measure == Fraction(3, 4)


def test_canonical_form_across_denominators():
    # equal sets built through different denominators are equal and hash equal
    pairs = [
        (IntervalSet.from_pairs([("1/2", "3/4")]), IntervalSet.from_pairs([("2/4", "6/8")])),
        # the merged union [0, 2/4] must be reduced to [0, 1/2]
        (IntervalSet.from_pairs([(0, "1/4")]) | IntervalSet.from_pairs([("1/4", "1/2")]),
         IntervalSet.from_pairs([(0, "1/2")])),
        # the overlap [2/6, 4/6] must be reduced to [1/3, 2/3]
        (IntervalSet.from_pairs([("1/6", "2/3")]) & IntervalSet.from_pairs([("1/3", "5/6")]),
         IntervalSet.from_pairs([("1/3", "2/3")])),
        (IntervalSet.from_pairs([("1/3", "2/3")]).complement().complement(),
         IntervalSet.from_pairs([("2/6", "4/6")])),
    ]
    for lhs, rhs in pairs:
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert lhs.intervals == rhs.intervals

    mixed = bohr_set(2, Fraction(1, 8)) | bohr_set(4, Fraction(1, 16))
    expected = [(0, "1/16"), ("15/64", "17/64"), ("7/16", "9/16"),
                ("47/64", "49/64"), ("15/16", 1)]
    built = IntervalSet.from_pairs(expected)
    assert mixed == built and hash(mixed) == hash(built)
    assert IntervalSet(mixed.intervals) == mixed
    assert mixed.measure == Fraction(5, 16)


def test_lines_in_lowest_terms_after_mixed_union():
    whole = (IntervalSet.from_pairs([(0, "1/3")]) | IntervalSet.from_pairs([("1/3", "1/2")])
             | IntervalSet.from_pairs([("2/4", "7/7")]))
    assert whole == IntervalSet.full()
    assert interval_set_to_lines(whole) == ["0/1 1/1"]
    mixed = bohr_set(2, Fraction(1, 8)) | bohr_set(4, Fraction(1, 16))
    assert interval_set_to_lines(mixed) == [
        "0/1 1/16", "15/64 17/64", "7/16 9/16", "47/64 49/64", "15/16 1/1",
    ]


def test_empty_and_full():
    assert IntervalSet.empty().measure == 0
    assert IntervalSet.full().measure == 1
    assert IntervalSet.empty().complement() == IntervalSet.full()


# -- set algebra against the membership oracle --------------------------------


def test_algebra_pointwise_oracle():
    rng = random.Random(1805)
    for _ in range(200):
        a = random_interval_set(rng)
        b = random_interval_set(rng)
        union = a.union(b)
        inter = a.intersect(b)
        comp = a.complement()
        for x in random_points(rng):
            in_a, in_b = x in a, x in b
            assert (x in union) == (in_a or in_b)
            # normalization drops degenerate intersection components, so the
            # set may miss boundary-only points; it must never gain any.
            if x in inter:
                assert in_a and in_b
            # complement is the closure, so shared boundary points may lie in
            # both a and comp, but interior points split cleanly
            if not in_a:
                assert x in comp


def test_measure_inclusion_exclusion():
    rng = random.Random(77)
    for _ in range(300):
        a = random_interval_set(rng)
        b = random_interval_set(rng)
        lhs = a.union(b).measure + a.intersect(b).measure
        assert lhs == a.measure + b.measure
        assert a.complement().measure == 1 - a.measure


def test_complement_involution():
    rng = random.Random(9)
    for _ in range(100):
        a = random_interval_set(rng)
        assert a.complement().complement() == a


def test_intersection_of_touching_sets_has_measure_zero():
    a = IntervalSet.from_pairs([(0, "1/2")])
    b = IntervalSet.from_pairs([("1/2", 1)])
    assert a.intersect(b).measure == 0


# -- Bohr sets ----------------------------------------------------------------


def test_bohr_set_frozen_values():
    quarter = bohr_set(1, Fraction(1, 4))
    assert quarter == IntervalSet.from_pairs([(0, "1/4"), ("3/4", 1)])
    assert quarter.measure == Fraction(1, 2)

    eighth = bohr_set(2, Fraction(1, 8))
    assert eighth == IntervalSet.from_pairs(
        [(0, "1/16"), ("7/16", "9/16"), ("15/16", 1)]
    )
    assert eighth.measure == Fraction(1, 4)

    assert bohr_set(7, Fraction(1, 100)).measure == Fraction(1, 50)


def test_bohr_set_intersection_example():
    s = bohr_set(1, Fraction(1, 4)).intersect(bohr_set(2, Fraction(1, 8)))
    assert s == IntervalSet.from_pairs([(0, "1/16"), ("15/16", 1)])
    assert s.measure == Fraction(1, 8)


def test_bohr_set_measure_identity():
    rng = random.Random(2024)
    for _ in range(100):
        d = rng.choice([-1, 1]) * rng.randint(1, 300)
        delta = Fraction(rng.randint(0, 100), 200)  # in [0, 1/2]
        assert bohr_set(d, delta).measure == min(Fraction(1), 2 * delta)


def test_bohr_set_membership_oracle():
    rng = random.Random(5150)
    for _ in range(50):
        d = rng.choice([-1, 1]) * rng.randint(1, 40)
        delta = Fraction(rng.randint(0, 60), 120)
        s = bohr_set(d, delta)
        for x in random_points(rng, 30):
            in_set = x in s
            expected = dist_to_nearest_int(d * x) <= delta
            if delta == 0:
                # the points themselves are dropped in normalization
                assert not in_set
            else:
                assert in_set == expected, (d, delta, x)


def test_bohr_piece_budget(monkeypatch):
    with pytest.raises(BudgetError):
        bohr_set(10**9, Fraction(1, 4))
    with pytest.raises(BudgetError):
        small_denominator_set({0, MAX_BOHR_PIECES}, Fraction(1, 2))
    # the budget counts |d| + 1 pieces per frequency, refusing one past it
    monkeypatch.setattr(intervals, "MAX_BOHR_PIECES", 5)
    assert len(bohr_set(4, Fraction(1, 16))) == 5
    with pytest.raises(BudgetError):
        bohr_set(5, Fraction(1, 16))
    # {0, 1, 3}: frequencies 1, 2, 3 make 2 + 3 + 4 = 9 pieces
    monkeypatch.setattr(intervals, "MAX_BOHR_PIECES", 9)
    small_denominator_set({0, 1, 3}, Fraction(1, 2))
    monkeypatch.setattr(intervals, "MAX_BOHR_PIECES", 8)
    with pytest.raises(BudgetError):
        small_denominator_set({0, 1, 3}, Fraction(1, 2))


def test_bohr_set_edge_cases():
    assert bohr_set(3, 0) == IntervalSet.empty()
    assert bohr_set(5, Fraction(1, 2)) == IntervalSet.full()
    assert bohr_set(-4, Fraction(1, 8)) == bohr_set(4, Fraction(1, 8))
    with pytest.raises(ValueError):
        bohr_set(0, Fraction(1, 4))
    with pytest.raises(ValueError):
        bohr_set(2, Fraction(3, 4))


# -- difference-set Bohr unions -----------------------------------------------


def test_small_denominator_set_frozen_example():
    s = small_denominator_set({0, 1}, Fraction(1, 2))
    assert s == bohr_set(1, Fraction(1, 6))
    assert s.measure == Fraction(1, 3)


def test_small_denominator_set_measure_bound():
    rng = random.Random(41)
    for _ in range(60):
        size = rng.randint(2, 8)
        b = set()
        while len(b) < size:
            b.add(rng.randint(-128, 128))
        eps = Fraction(rng.randint(1, 9), 10)
        s = small_denominator_set(b, eps)
        assert s.measure < 2 * eps


def test_small_denominator_set_membership():
    rng = random.Random(43)
    b = {3, 10, 24}
    eps = Fraction(1, 3)
    diffs = {x - y for x in b for y in b}
    radius = eps / len(diffs)
    s = small_denominator_set(b, eps)
    for x in random_points(rng, 200):
        expected = any(
            dist_to_nearest_int(d * x) <= radius for d in diffs if d != 0
        )
        assert (x in s) == expected


def test_small_denominator_set_validation():
    with pytest.raises(ValueError):
        small_denominator_set({5}, Fraction(1, 2))
    with pytest.raises(ValueError):
        small_denominator_set({1, 2}, Fraction(0))


# -- second-moment ratio --------------------------------------------------------


def test_borel_cantelli_ratio_frozen_example():
    a = IntervalSet.from_pairs([(0, "1/2")])
    b = IntervalSet.from_pairs([("1/4", "3/4")])
    assert borel_cantelli_ratio([a, b]) == Fraction(2, 3)


def test_borel_cantelli_ratio_identical_sets():
    # n copies of the same set: ratio = (n*m)^2 / (n^2 * m) = m
    a = IntervalSet.from_pairs([("1/8", "5/8")])
    for n in (1, 2, 5):
        assert borel_cantelli_ratio([a] * n) == Fraction(1, 2)


def test_borel_cantelli_ratio_bounded_by_union_measure():
    # the ratio lower-bounds the measure of the limsup, which is at most
    # the measure of the union — for two sets that is checkable directly
    rng = random.Random(99)
    for _ in range(100):
        sets = [random_interval_set(rng) for _ in range(rng.randint(1, 4))]
        if all(s.measure == 0 for s in sets):
            with pytest.raises(ValueError):
                borel_cantelli_ratio(sets)
            continue
        ratio = borel_cantelli_ratio(sets)
        union = IntervalSet.empty()
        for s in sets:
            union = union.union(s)
        assert 0 < ratio <= union.measure + Fraction(1, 10**12)
        # exact rational arithmetic: the slack above is never actually needed
        assert ratio <= union.measure


# -- serialization ---------------------------------------------------------------


def test_serialization_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        s = random_interval_set(rng)
        lines = interval_set_to_lines(s)
        assert interval_set_from_lines(lines) == s
    # comments and blanks are ignored; lowest-terms formatting
    text = ["# a comment", "", "0/1 1/4", "3/4 1/1"]
    s = interval_set_from_lines(text)
    assert s == bohr_set(1, Fraction(1, 4))
    assert interval_set_to_lines(s) == ["0/1 1/4", "3/4 1/1"]


def test_serialization_errors():
    with pytest.raises(ValueError):
        interval_set_from_lines(["0/1"])
    with pytest.raises(ValueError):
        interval_set_from_lines(["a/b c/d"])
    with pytest.raises(ValueError):
        interval_set_from_lines(["1/0 1/2"])
