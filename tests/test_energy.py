"""Unit tests for representation counts and additive energy.

Oracle discipline: the production path (the pairs keyed by residues of
their differences, sorted and counted one bounded key range at a time) is
checked against the dict-based representation counts and
against brute-force enumeration from the definition, which in turn is checked
against the most literal quadruple loop on tiny sets; progressions are
additionally checked against the closed form.
"""

import random

import pytest

from ppclab import energy
from ppclab.energy import (
    additive_energy,
    additive_energy_bruteforce,
    additive_energy_convolution,
    ap_energy_closed_form,
    energy_from_reps,
    energy_scaling,
    rep_counts,
)
from ppclab.growth import GrowthFunction
from ppclab.sequences import BudgetError, build_blocks, classic


def quadruple_loop(a):
    """The most literal enumeration, for oracle-of-the-oracle duty."""
    return sum(
        1 for p in a for q in a for r in a for s in a if p + q == r + s
    )


def random_set(rng, max_size, lo=-(10**6), hi=10**6):
    size = rng.randint(1, max_size)
    out = set()
    while len(out) < size:
        out.add(rng.randint(lo, hi))
    return sorted(out)


# -- frozen values --------------------------------------------------------------


def test_frozen_small_energies():
    assert additive_energy([5]) == 1
    assert additive_energy([1, 2]) == 6
    assert additive_energy([1, 2, 3]) == 19
    assert additive_energy([1, 2, 4]) == 15


def test_frozen_rep_counts():
    reps = rep_counts([1, 2, 4])
    assert reps.counts == {0: 3, 1: 1, -1: 1, 2: 1, -2: 1, 3: 1, -3: 1}
    assert energy_from_reps(reps) == 15


def test_ap_closed_form_and_translation_dilation_invariance():
    for k in (1, 2, 3, 7, 25, 50, 79):
        expected = ap_energy_closed_form(k)
        assert additive_energy(range(1, k + 1)) == expected
        assert additive_energy(range(100, 100 + 5 * k, 5)) == expected
    assert ap_energy_closed_form(3) == 19


# -- structural invariants of rep counts --------------------------------------


def test_rep_counts_structure():
    rng = random.Random(314)
    for _ in range(50):
        a = random_set(rng, 30)
        reps = rep_counts(a)
        assert reps[0] == len(a)
        assert reps.total() == len(a) ** 2
        assert all(reps[d] == reps[-d] for d in reps.support())
        assert all(c > 0 for c in reps.counts.values())


def test_rep_counts_cross():
    reps = rep_counts([1, 2], [4, 7])
    assert reps.counts == {-3: 1, -6: 1, -2: 1, -5: 1}
    assert reps.total() == 4
    rng = random.Random(11)
    x, y = random_set(rng, 15), random_set(rng, 15)
    cross = rep_counts(x, y)
    assert cross.total() == len(x) * len(y)


def test_rep_counts_rejects_duplicates():
    with pytest.raises(ValueError):
        rep_counts([1, 2, 2])
    with pytest.raises(ValueError):
        additive_energy([3, 3])
    with pytest.raises(ValueError):
        additive_energy([])


# -- oracle chain ------------------------------------------------------------------


def test_bruteforce_matches_quadruple_loop():
    rng = random.Random(161)
    for _ in range(40):
        a = random_set(rng, 12, -50, 50)
        assert additive_energy_bruteforce(a) == quadruple_loop(a)


def test_energy_matches_bruteforce():
    rng = random.Random(271)
    for _ in range(60):
        a = random_set(rng, 40)
        expected = additive_energy_bruteforce(a)
        assert additive_energy(a) == expected
        assert energy_from_reps(rep_counts(a)) == expected


def test_sorted_method_agrees():
    rng = random.Random(977)
    for _ in range(30):
        a = random_set(rng, 60)
        expected = energy_from_reps(rep_counts(a))
        assert additive_energy(a) == expected
        assert additive_energy_bruteforce(a) == expected
    big = [rng.getrandbits(200) | (1 << 200) for _ in range(50)]
    big = sorted(set(big))
    expected = energy_from_reps(rep_counts(big))
    assert additive_energy(big, method="sorted") == expected
    assert additive_energy_bruteforce(big) == expected
    with pytest.raises(ValueError):
        additive_energy(big, method="hash")


def test_shared_primary_residue_is_confirmed():
    # 1 and M0 + 1, and 2 and M0 + 2, agree modulo M0, so their pairs share a
    # key: the confirmation under the further moduli must keep them apart
    m = energy._M0
    assert (m + 1) % m == 1 and (m + 2) % m == 2
    for a in ([0, 1, m, m + 2], [0, 1, m, m + 1], [-m, 0, 1, 2, m, m + 2, 2 * m + 1]):
        expected = additive_energy_bruteforce(a)
        assert additive_energy(a) == expected == energy_from_reps(rep_counts(a))
    # all six differences distinct: 4^2 + 2 * 6
    assert additive_energy([0, 1, m, m + 2]) == 28


def test_segments_stop_short_of_half_m0():
    # with H = floor(M0 / 2), the differences H + 1 and -H agree modulo M0
    # (they differ by exactly M0), so the pairs (0, H + 1) and (B, B + H)
    # share a key.  Segments reach offset H - 1 at most, so neither pair lies
    # inside one segment and the confirmation keeps them apart; a segment
    # reaching offset H + 1 would hold both and merge their differences
    m = energy._M0
    h = m // 2
    assert (h + 1) - (-h) == m
    for b in (1 << 80, (1 << 80) + 1, 7 * m + (1 << 81), 1 << 300):
        a = [0, h + 1, b, b + h]
        assert energy._segments(a).tolist() == [0, 1, 2, 3]
        assert additive_energy(a) == 28 == additive_energy_bruteforce(a)
        assert additive_energy(a) == energy_from_reps(rep_counts(a))
        assert energy._energies(a, [4, 1, 3, 4]) == [28, 1, 15, 28]


def test_pair_cap_splits_key_ranges(monkeypatch):
    monkeypatch.setattr(energy, "_PAIR_CAP", 16)
    generated = []
    count_range = energy._range_increments

    def recording(state, slices):
        generated.append(int(slices[1].sum() + slices[3].sum()))
        return count_range(state, slices)

    monkeypatch.setattr(energy, "_range_increments", recording)
    rng = random.Random(8)
    # a run of 12 and 50 spread elements: 1891 pairs, ranges of at most
    # max(16, 2n) = 124
    a = sorted(set(range(500, 512)) | set(rng.sample(range(1 << 20), 50)))
    n = len(a)
    assert additive_energy(a) == energy_from_reps(rep_counts(a))
    assert len(generated) > 1
    assert max(generated) <= 2 * n
    assert sum(generated) == n * (n - 1) // 2
    # every difference of 30 multiples of M0 has key 0: a one-key range over
    # the cap is counted whole, and its run is split by the confirmation
    generated.clear()
    m = energy._M0
    a = [1] + [k * m for k in range(30)]
    assert additive_energy(a) == energy_from_reps(rep_counts(a))
    assert max(generated) == 30 * 29 // 2 > 2 * len(a)
    # 183 differences of a 200-term progression have more than 16 pairs; with
    # ranges of up to 2n pairs none is halved sixty-odd times down to its own key
    # (one boundary search per range end: two at the root, one per split)
    ranges = []
    find_boundary = energy._key_boundary

    def counting(rho, b):
        ranges.append(b)
        return find_boundary(rho, b)

    monkeypatch.setattr(energy, "_key_boundary", counting)
    assert additive_energy(range(200)) == ap_energy_closed_form(200)
    assert len(ranges) < 1000


def test_bruteforce_cap():
    with pytest.raises(ValueError):
        additive_energy_bruteforce(range(100))


def test_energy_bounds():
    rng = random.Random(55)
    for _ in range(40):
        a = random_set(rng, 25)
        n = len(a)
        e = additive_energy(a)
        assert n * n <= e <= n**3


def test_auto_method_switch():
    # the route switch is gone: "auto" and its threshold are refused, and the
    # one route gives the closed form on the progression the switch was tested on
    a = list(range(1, 80))
    assert additive_energy(a) == ap_energy_closed_form(79)
    with pytest.raises(ValueError):
        additive_energy(a, method="auto")
    with pytest.raises(TypeError):
        additive_energy(a, max_hash_pairs=10)


# -- convolution cross-check --------------------------------------------------------


def test_convolution_matches_on_dense_sets():
    rng = random.Random(404)
    for _ in range(25):
        a = random_set(rng, 40, 0, 2000)
        assert additive_energy_convolution(a) == additive_energy_bruteforce(a)


def test_convolution_on_squares():
    squares = classic("power", 300).elements
    assert additive_energy_convolution(squares) == additive_energy(squares)


def test_convolution_budget():
    with pytest.raises(BudgetError):
        additive_energy_convolution([0, 1 << 40])


def test_lacunary_energy_is_sidon_minimal():
    # distinct powers of two have pairwise distinct differences and sums,
    # so they attain the Sidon-set minimum E = 2n^2 - n exactly
    lac = classic("lacunary", 40).elements
    n = 40
    assert additive_energy(lac) == 2 * n * n - n
    assert additive_energy_bruteforce(lac[:30]) == 2 * 30 * 30 - 30


# -- scaling across checkpoints ------------------------------------------------------


def test_energy_scaling_rows_and_flags():
    seq = build_blocks(GrowthFunction("ilog", r=1), 2 / 3, 1 / 3, 8)
    result = energy_scaling(seq, levels=[1, 4, 6, 8])
    by_level = {r.level: r for r in result.rows}
    assert by_level[1].a_empty and by_level[1].a_len == 0
    assert not by_level[8].a_empty
    # level 1 is {1,2}: energy 6, and it must be excluded from the spread
    assert by_level[1].energy == 6
    assert by_level[1].n == 2
    eligible = result.eligible()
    assert {r.level for r in eligible} == {4, 6, 8}
    assert result.spread >= 1.0
    for row in result.rows:
        assert row.energy == additive_energy(seq.elements[: row.n])
        assert row.normalized == pytest.approx(
            row.energy * row.f_n ** (3 * (2 / 3 - 1 / 3)) / row.n**3
        )


def test_energy_scaling_validation_and_budget():
    seq = build_blocks(GrowthFunction("ilog", r=1), 2 / 3, 1 / 3, 6)
    with pytest.raises(ValueError):
        energy_scaling(seq, levels=[7])
    with pytest.raises(BudgetError):
        energy_scaling(seq, levels=[6], max_pairs=10)
    # the budget is inclusive: exactly sum n^2 pair operations is allowed
    n = seq.checkpoint(6)
    (row,) = energy_scaling(seq, levels=[6], max_pairs=n * n).rows
    assert row.n == n
