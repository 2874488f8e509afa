"""Unit tests for representation counts and additive energy.

Oracle discipline: the production path (the pairs keyed by residues of
their differences, sorted and counted one bounded key range at a time) is
checked against the dict-based representation counts and
against brute-force enumeration from the definition, which in turn is checked
against the most literal quadruple loop on tiny sets; progressions are
additionally checked against the closed form.
"""

import itertools
import math
import random

import numpy as np
import pytest

from ppclab import energy, sequences
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
from ppclab.sequences import BudgetError, build_blocks, classic, load_sequence, write_sequence


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


@pytest.mark.parametrize("n", [1_664_512, 2 * 10**6])
def test_ap_energy_past_int64(n):
    # from n = 1,664,512 on, 2n^3 passes 2^63: the run's square count must
    # not wrap
    assert additive_energy(range(n)) == ap_energy_closed_form(n)


def test_two_long_runs_past_int64():
    # n = 2L elements, above 2^20, so the square sums pass 2^63 and must be
    # Python ints: two ramps on one support and a trapezoid that meets neither
    length, gap = 600_000, 10**7
    a = list(range(length)) + list(range(gap, gap + length))
    squares = (length - 1) * length * (2 * length - 1) // 6  # 1^2 + ... + (L - 1)^2
    # the ramps add r = 2(L - d), the trapezoid L - |d - gap|
    assert additive_energy(a) == (2 * length) ** 2 + 2 * (4 * squares + length**2 + 2 * squares)


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
    # key: the comparison of their exact differences must keep them apart
    m = energy._M0
    assert (m + 1) % m == 1 and (m + 2) % m == 2
    for a in ([0, 1, m, m + 2], [0, 1, m, m + 1], [-m, 0, 1, 2, m, m + 2, 2 * m + 1]):
        expected = additive_energy_bruteforce(a)
        assert additive_energy(a) == expected == energy_from_reps(rep_counts(a))
    # all six differences distinct: 4^2 + 2 * 6
    assert additive_energy([0, 1, m, m + 2]) == 28


@pytest.mark.parametrize("xs", [
    [0, 3, 6, 7],  # int64, with a run at the top
    [-(1 << 62), 1 << 62],  # int64, span just inside, g = 2^63
    [-(1 << 63), 0, (1 << 63) - 1],  # every element an int64, the span not
    [-(1 << 63), -5, -4, 1 << 63],  # an element past int64
    [-9, -3, 3, 5],  # int64, g = 2, below zero
    [3 - (1 << 70), 3, 9, 15],  # past int64, g = 2, below zero
])
def test_reduction_reads_int64_spans_and_python_ints_alike(xs):
    # y = x / g, never translated: the caller's own list when g = 1, else the
    # quotients x // g, whose gaps are the gaps over g
    step = math.gcd(*(v - u for u, v in zip(xs, xs[1:])))
    ys, joined = energy._quotients(xs)
    if step == 1:
        assert ys is xs
    else:
        assert ys == [x // step for x in xs]
        assert [v - u for u, v in zip(ys, ys[1:])] == [(v - u) // step for u, v in zip(xs, xs[1:])]
    assert joined.tolist() == [v - u == step for u, v in zip(xs, xs[1:])]
    assert additive_energy(xs) == energy_from_reps(rep_counts(xs))
    with pytest.raises(ValueError, match="strictly increasing"):
        energy._quotients(xs[::-1])
    with pytest.raises(ValueError, match="strictly increasing"):
        energy._quotients(xs + xs[-1:])


@pytest.mark.parametrize("gaps", [
    [6] * 9 + [3] * 5,  # g = 3 in the last chunks only
    [6] * 6 + [4] * 7,  # g = 2, no gap equal to it, each chunk's least another
    [2] * 3 + [6] * 10 + [2],  # g = 2 in the first and the last chunk
])
def test_reduction_takes_python_int_gaps_a_chunk_at_a_time(gaps, monkeypatch):
    monkeypatch.setattr(energy, "_GAP_CHUNK", 4)
    xs = list(itertools.accumulate(gaps, initial=1 << 70))
    step = math.gcd(*gaps)
    ys, joined = energy._quotients(xs)
    assert ys == [x // step for x in xs]
    assert joined.tolist() == [g == step for g in gaps]
    with pytest.raises(ValueError, match="strictly increasing"):
        energy._quotients(xs[:9] + xs[8:])


def test_numpy_integers_are_read_as_python_ints():
    # the pass reads the elements themselves (``_reduced`` returns them when
    # g = 1), so a fixed-width integer must not reach its big-int arithmetic
    for a in (np.arange(0, 300, 3), np.array([0, 1, 2, 5, 9, 1 << 40, (1 << 40) + 1]),
              [np.int64(v) for v in (3, 4, 5, 11, 1 << 62)]):
        assert additive_energy(a) == energy_from_reps(rep_counts([int(v) for v in a]))


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
        assert energy._energies(a, [4, 1, 3, 4])[0] == [28, 1, 15, 28]


def test_runs_are_certified_by_the_class_of_their_first_pair():
    # six elements in segments 0, 0, 1, 1, 2, 3; each run lists its pairs
    # p -> q, first pair first
    segments = np.array([0, 0, 1, 1, 2, 3], dtype=np.int32)
    runs = [
        ([0, 2], [1, 3]),  # inside segments 0 and 1, differences 1 and 2
        ([0, 3], [1, 4]),  # inside, then across 1 -> 2 with difference 8
        ([0, 4], [1, 5]),  # inside, then across 2 -> 3 with difference 1
        ([2, 3], [4, 4]),  # both across 1 -> 2, differences 10 and 8
    ]
    p = np.array([k for run in runs for k in run[0]])
    q = np.array([j for run in runs for j in run[1]])
    lengths = np.array([len(run[0]) for run in runs])
    firsts = np.cumsum(lengths) - lengths

    def failed(ys):
        state = energy._KeyPass(rho=None, ys=np.array(ys, dtype=object), cells=None,
                                n_cells=1, segments=segments)
        return energy._uncertified(state, p, q, firsts, lengths).tolist()

    # the first and last runs disagree in their differences but never
    # compare them
    assert failed([0, 1, 10, 12, 20, 21]) == [False, True, False, False]
    # above 2^700, the pair 4 -> 5 of the third run has its first pair's
    # difference plus M0 times the next three odd moduli below M0: the two
    # agree modulo each of those four, and still the run fails
    moduli, m = [energy._M0], energy._M0 - 2
    while len(moduli) < 4:
        if all(math.gcd(m, k) == 1 for k in moduli):
            moduli.append(m)
        m -= 2
    base = (1 << 700) + 12345
    ys = [base + y for y in (0, 1, 10, 12, 20, 21 + math.prod(moduli))]
    assert all((ys[5] - ys[4]) % k == (ys[1] - ys[0]) % k for k in moduli)
    assert failed(ys) == [False, True, True, False]


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
    # (one boundary search per range end: two at the root, one per split).  The
    # step is 3 and one far element keeps the gcd at 1, so no two reduced
    # elements are consecutive and every pair goes through the key pass
    ranges = []
    find_boundary = energy._key_boundary

    def counting(rho, b):
        ranges.append(b)
        return find_boundary(rho, b)

    monkeypatch.setattr(energy, "_key_boundary", counting)
    a = [3 * k for k in range(200)] + [1 << 40]
    assert additive_energy(a) == energy_from_reps(rep_counts(a))
    assert 0 < len(ranges) < 1000


def test_dense_set_gives_up_the_run_split():
    # short runs whose trapezoids overlap everywhere, and hundreds of points
    # between them: their families cannot pay, so the pass is the key pass
    # alone
    a = sorted(random.Random(5).sample(range(1300), 1000))
    (e,), split = energy._energies(a, [1000])
    assert e == energy_from_reps(rep_counts(a))
    assert split == {"runs": 0, "points": 1000, "point_pairs": 499500, "pieces": 0,
                     "cross_hits": 0, "families": 0, "family_members": 0, "sets": 0,
                     "set_pairs": 0, "set_pairs_kept": 0}


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


def test_energy_scaling_checks_levels_before_any_work(monkeypatch):
    seq = build_blocks(GrowthFunction("ilog", r=1), 2 / 3, 1 / 3, 6)

    def no_pass(*args):
        raise AssertionError("energy pass reached")

    monkeypatch.setattr(energy, "_energies", no_pass)
    for level in (0, 7):
        with pytest.raises(ValueError, match=rf"^level {level} outside built range 1\.\.6$"):
            energy_scaling(seq, levels=[level, 3], max_pairs=1)


def test_energy_scaling_slices_the_elements_a_long_load_formed(tmp_path, monkeypatch):
    # a comment line in the body sends a block file the long way, which
    # forms and keeps the element list: the pass reads a slice of it and
    # forms no member a second time
    seq = build_blocks(GrowthFunction("ilog", r=1), 0.7, 0.45, 10)
    want = energy_scaling(seq, levels=[4, 8, 9])
    path = tmp_path / "seq.txt"
    write_sequence(path, seq)
    header, _, body = path.read_bytes().partition(b"\n1\n")
    path.write_bytes(header + b"\n1\n# a note\n" + body)
    loaded = load_sequence(path)
    assert "elements" in vars(loaded)

    def no_members(*args):
        raise AssertionError("members formed again")

    monkeypatch.setattr(sequences, "_members", no_members)
    assert energy_scaling(loaded, levels=[4, 8, 9]) == want


def test_every_value_of_an_item_lies_in_its_span():
    # _screen drops two items whose spans do not meet, so each span must hold
    # every value its item counts: a set's Delta + 2^i - 2^l over all of its
    # exponent ranges (i > l or not, as _count4 reads them, on the diagonal
    # too), a shape's d = base + e on each segment, and each box of a box
    # group, a + sign 2^m + [0, L)
    rng = random.Random(32)
    for _ in range(300):
        firsts, lengths, y = [], [], rng.randint(-60, 60)
        for _ in range(rng.randint(1, 6)):
            firsts.append(y)
            lengths.append(rng.choice([1, rng.randint(2, 9)]))
            y += lengths[-1] + rng.randint(1, 40)
        runs = np.flatnonzero(np.array(lengths) >= 2)
        families = []
        for k in np.flatnonzero(np.array(lengths) == 1).tolist():
            lo = rng.randint(0, 8)
            families.append((rng.randint(-300, 300), lo, lo + rng.randint(0, 5), 0, k))
        blocks = (firsts, np.array(lengths), np.zeros(len(lengths), dtype=np.int32))
        shapes, boxes = energy._run_items(blocks, runs, families)
        for delta, (i0, i1), (l0, l1), _, _, (lo, hi) in energy._Families(families).sets:
            for i in range(i0, i1 + 1):
                for l in range(l0, l1 + 1):
                    assert lo <= delta + (1 << i) - (1 << l) <= hi
        for first, last, base, segments, _ in shapes:
            for e1, e2, _, _ in segments:
                for e in range(e1, e2 + 1):
                    assert first <= base + e <= last
        for a, top, _, sign, length, (m0, m1), _, (lo, hi) in boxes:
            assert top == a + length - 1
            for m in range(m0, m1 + 1):
                for d in range(a + sign * (1 << m), top + sign * (1 << m) + 1):
                    assert lo <= d <= hi


# One pass over the blocks, levels 1 .. j as its cells: every energy and the
# whole split dict, whose cross hits count what the run items and the
# families met, however their pairs were screened, and whose kept set pairs
# count the pairs of sets that pass both stages of _screen.
BLOCK_PASSES = {
    (0.7, 0.45, 12): (
        [6, 36, 122, 590, 7855, 48608, 272254, 1438468, 8180140, 48692268, 301697116,
         1939757518],
        {"runs": 12, "points": 1297, "point_pairs": 0, "pieces": 186, "cross_hits": 2746,
         "families": 8, "family_members": 1296, "sets": 45, "set_pairs": 990,
         "set_pairs_kept": 116}),
    (2 / 3, 1 / 3, 16): (
        [6, 36, 179, 2202, 11314, 58713, 302351, 1632646, 9520184, 57591496, 363938671,
         2379482163, 15910340538, 108284966631, 746912047735, 5209418386166],
        {"runs": 16, "points": 32501, "point_pairs": 0, "pieces": 360, "cross_hits": 6778,
         "families": 13, "family_members": 32500, "sets": 105, "set_pairs": 5460,
         "set_pairs_kept": 241}),
}


@pytest.mark.parametrize("beta, gamma, j_max", sorted(BLOCK_PASSES))
def test_block_pass_energies_and_split_are_pinned(beta, gamma, j_max):
    seq = build_blocks(GrowthFunction("ilog", r=1), beta, gamma, j_max)
    ns = [seq.checkpoint(j) for j in range(1, j_max + 1)]
    energies, split = energy._energies(seq.elements, ns)
    assert (energies, split) == BLOCK_PASSES[beta, gamma, j_max]
