"""Property tests: the production energy route against the oracles.

``additive_energy`` is one cell of ``_energies``, which counts a whole grid
of prefixes from one pass: it keys each pair by a residue of its difference
modulo a prime M0 below 2^62, tags it with the prefix cell of its larger
index, certifies runs of equal keys by the segments their elements lie in,
and compares the rest by their exact differences once the span reaches
M0 / 2.  Where it pays, runs of consecutive reduced elements are split off
as run items (ramps, trapezoids and box groups) and the other elements
counted as geometric families.  The sets below cover one segment (small
spans, negative elements), elements above 2^62 and above 2^700, arithmetic
progressions, block-like sets with long runs, runs with points beside and
between them, runs beside families on both sides, sets built to share
primary residues, and sets spanning several segments with elements next
to a segment's end.  Each is checked against the representation counts,
against brute force up to 64 elements, against the bounds
n^2 <= E <= n^3 and under x -> a*x + b; prefix grids are checked prefix
by prefix, with unsorted and repeated lengths, and with small pair caps.
The pass reads the caller's elements over the gcd of their gaps, never
translated, so a translation x -> x + c (to zero at the top or middle, or
by +-2^300 and more) must leave its whole result the same: the energies
and the split dict, that is, every decision the route takes.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppclab import energy
from ppclab.energy import (
    additive_energy,
    additive_energy_bruteforce,
    ap_energy_closed_form,
    energy_from_reps,
    energy_scaling,
    rep_counts,
)
from ppclab.growth import GrowthFunction
from ppclab.sequences import build_blocks

M0 = energy._M0
H = M0 // 2  # a segment holds elements less than H above its first


@st.composite
def progressions(draw):
    start = draw(st.integers(-(1 << 80), 1 << 80))
    step = draw(st.integers(1, 1 << 70))
    return [start + k * step for k in range(draw(st.integers(1, 60)))]


@st.composite
def block_like(draw):
    """Runs of consecutive integers at a few offsets, plus powers of two:
    the shape of the paper's block sequences, with long runs."""
    out = set()
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.integers(0, 1 << 200))
        out.update(range(base, base + draw(st.integers(1, 25))))
    out.update(1 << e for e in draw(st.lists(st.integers(0, 300), max_size=15)))
    return sorted(out)


@st.composite
def runs_and_points(draw):
    """Runs of 2 to 30 consecutive integers, some next to one another or to
    a point, at small offsets, far apart or near a multiple of M0, plus
    loose points, then scaled by a gcd and shifted (often below zero)."""
    out = set()
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(-60, 60) | st.integers(0, 1 << 200)
                     | st.integers(-40, 40).map(lambda k: k + M0))
        end = start + draw(st.integers(2, 30))
        out.update(range(start, end))
        # points, or a second run, one gap away from the run's ends
        out.update(draw(st.lists(st.sampled_from([start - 2, end + 1]), max_size=2)))
        if draw(st.booleans()):
            out.update(range(end + 1, end + 1 + draw(st.integers(2, 30))))
    out.update(draw(st.lists(st.integers(-200, 200) | st.integers(0, 1 << 200), max_size=12)))
    scale = draw(st.sampled_from([1, 1, 2, 3, 1 << 70]))
    shift = draw(st.integers(-(1 << 80), 1 << 10))
    return sorted(scale * x + shift for x in out)


@st.composite
def shared_residues(draw):
    """Small offsets plus multiples of M0: many distinct differences that
    agree modulo M0, so runs of equal keys fail their confirmation."""
    picks = st.tuples(st.integers(0, 6), st.integers(-3, 3))
    pairs = draw(st.lists(picks, min_size=1, max_size=30))
    return sorted({k * M0 + j for k, j in pairs})


@st.composite
def segment_edges(draw):
    """Several segments, with elements at H - 1, H and H + 1 (and a few
    more offsets) from a segment's first element, some sharing a primary
    residue with an element of another segment."""
    offsets = st.sampled_from([0, 1, 2, 3, H - 1, H, H + 1, H + 2, M0 - 1, M0, M0 + 1])
    start = draw(st.integers(-(1 << 70), 1 << 70))
    out = {start}
    for _ in range(draw(st.integers(1, 4))):
        out.update(start + k for k in draw(st.lists(offsets, min_size=1, max_size=8)))
        start += draw(st.sampled_from([H - 1, H, H + 1, 2 * M0, 3 * M0 + 1]) | st.integers(1, 1 << 90))
        out.add(start)
    return sorted(out)


def sets_of(elements, max_size=40):
    return st.lists(elements, min_size=1, max_size=max_size, unique=True).map(sorted)


# each kind of set gets its own examples, so no shape depends on the draw
SETS = {
    "small": sets_of(st.integers(-1000, 1000)),
    "negative": sets_of(st.integers(-(1 << 40), -1)),
    "above 2^62": sets_of(st.integers(1 << 62, 1 << 66)),
    "above 2^700": sets_of(st.integers(1 << 700, 1 << 760)),
    "progression": progressions(),
    "block-like": block_like(),
    "runs and points": runs_and_points(),
    "shared residues": shared_residues(),
    "segment edges": segment_edges(),
}


def oracle(a):
    return energy_from_reps(rep_counts(a))


@pytest.mark.parametrize("kind", SETS)
@given(data=st.data())
def test_energy_matches_oracles(kind, data):
    a = data.draw(SETS[kind])
    n = len(a)
    e = additive_energy(a)
    assert e == oracle(a)
    if n <= 64:
        assert e == additive_energy_bruteforce(a)
    assert n * n <= e <= n**3


@pytest.mark.parametrize("kind", SETS)
@given(data=st.data())
def test_energy_is_affine_invariant(kind, data):
    a = data.draw(SETS[kind])
    scale = data.draw(st.integers(1, 1 << 100) | st.integers(-(1 << 100), -1))
    shift = data.draw(st.integers(-(1 << 300), 1 << 300))
    assert additive_energy([scale * x + shift for x in a]) == additive_energy(a)


@pytest.mark.parametrize("kind", ["small", "above 2^700", "block-like", "shared residues"])
@given(data=st.data())
def test_small_pair_cap_gives_the_same_energy(kind, data):
    # the effective cap, max(cap, 2n), splits the key space into about n / 4
    # ranges or more
    a = data.draw(SETS[kind])
    cap = data.draw(st.integers(1, 8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_PAIR_CAP", cap)
        assert additive_energy(a) == oracle(a)


def grids(n):
    """Prefix lengths in 1..n, unsorted and possibly repeated, often with 1;
    a length inside a run cuts it into two runs, or a run and a point."""
    lengths = st.lists(st.integers(1, n), min_size=1, max_size=6)
    return lengths | lengths.map(lambda ns: ns + [1])


@pytest.mark.parametrize("kind", SETS)
@given(data=st.data())
def test_prefix_grid_matches_per_prefix_oracles(kind, data):
    a = data.draw(SETS[kind])
    ns = data.draw(grids(len(a)))
    got, _ = energy._energies(a, ns)
    assert got == [oracle(a[:n]) for n in ns]
    for n, e in zip(ns, got):
        if n <= 64:
            assert e == additive_energy_bruteforce(a[:n])


@pytest.mark.parametrize("cap", [1, 3, 16])
@pytest.mark.parametrize(
    "kind", ["block-like", "runs and points", "shared residues", "segment edges"])
@given(data=st.data())
def test_prefix_grid_with_small_pair_caps(cap, kind, data):
    a = data.draw(SETS[kind])
    ns = data.draw(grids(len(a)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_PAIR_CAP", cap)
        assert energy._energies(a, ns)[0] == [oracle(a[:n]) for n in ns]


BLOCKS = {
    "(2/3, 1/3)": build_blocks(GrowthFunction("ilog", r=1), 2 / 3, 1 / 3, 7),
    "(0.7, 0.45)": build_blocks(GrowthFunction("ilog", r=1), 0.7, 0.45, 7),
}


@functools.lru_cache(maxsize=None)
def block_oracle(params, n):
    """The representation-count energy of a block prefix, computed once."""
    prefix = BLOCKS[params].elements[:n]
    e = oracle(prefix)
    if n <= 64:
        assert e == additive_energy_bruteforce(prefix)
    return e


@pytest.mark.parametrize("cap", [None, 1, 3, 16])
@pytest.mark.parametrize("params", BLOCKS)
@given(data=st.data())
def test_energy_scaling_matches_per_prefix_oracles(params, cap, data):
    seq = BLOCKS[params]
    levels = data.draw(st.lists(st.integers(1, seq.params.j_max), min_size=1, max_size=5))
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(energy, "_PAIR_CAP", cap)
        rows = energy_scaling(seq, levels).rows
    assert [r.level for r in rows] == sorted(set(levels))
    for row in rows:
        assert row.n == seq.checkpoint(row.level)
        assert row.energy == block_oracle(params, row.n)


def shifts(a):
    """Translations that put the top, or the middle, of ``a`` at zero, or
    move it far below zero or far above."""
    return [-a[-1], -a[len(a) // 2], -(1 << 300), 1 << 700]


@pytest.mark.parametrize("kind", ["block-like", "runs and points"])
@given(data=st.data())
def test_translation_keeps_the_whole_result(kind, data):
    # the pass reads the caller's elements untranslated, so every decision
    # it takes (split or key pass, families, pieces) must read differences
    # only: the energies and the split dict are the same for a + c
    a = data.draw(SETS[kind])
    ns = data.draw(grids(len(a)))
    want = energy._energies(a, ns)
    for c in shifts(a):
        assert energy._energies([x + c for x in a], ns) == want


def test_translation_keeps_the_route_on_blocks():
    # a run-bearing grid whose points form families; a decision read from
    # the top element alone would send a shifted copy to the key pass
    seq = build_blocks(GrowthFunction("ilog", r=1), 0.7, 0.45, 10)
    ns = [seq.checkpoint(j) for j in range(2, 11)]
    want = energy._energies(seq.elements, ns)
    assert want[1]["runs"] > 0 and want[1]["families"] == 6
    for c in shifts(seq.elements):
        assert energy._energies([x + c for x in seq.elements], ns) == want


@pytest.mark.parametrize("k", [3, 31, 500, 4096])
def test_single_run_is_its_closed_form(k):
    (e,), split = energy._energies(list(range(-7, k - 7)), [k])
    assert e == additive_energy(range(k)) == ap_energy_closed_form(k)
    assert split == {"runs": 1, "points": 0, "point_pairs": 0, "pieces": 1, "cross_hits": 0,
                     "families": 0, "family_members": 0, "sets": 0, "set_pairs": 0,
                     "set_pairs_kept": 0}


@pytest.mark.parametrize("params", [(2 / 3, 1 / 3), (0.7, 0.45)])
def test_split_equals_key_pass_on_blocks(params, monkeypatch):
    seq = build_blocks(GrowthFunction("ilog", r=1), *params, 12)
    ns = [seq.checkpoint(j) for j in range(1, 13) if seq.a_block(j).length > 0]
    split, counts = energy._energies(seq.elements, ns)
    assert counts["runs"] >= 10 and counts["cross_hits"] > 0
    assert counts["points"] < len(seq.elements) // 2
    # the points as geometric families, with one stray point beside them
    assert counts["families"] >= 8 and counts["point_pairs"] == 0
    assert counts["points"] - counts["family_members"] == 1
    assert counts["set_pairs_kept"] < counts["set_pairs"] // 5
    # every element through the key pass, as where the split does not pay
    monkeypatch.setattr(energy, "_INT_STEP", 1 << 40)
    plain, counts = energy._energies(seq.elements, ns)
    assert counts["runs"] == counts["families"] == 0 and plain == split


def test_energy_pin_at_t13():
    # pinned from the key pass alone, before runs were split off (E(T_14) of
    # these blocks is 108284966631 at N = 15783, too slow for this suite)
    seq = build_blocks(GrowthFunction("ilog", r=1), 2 / 3, 1 / 3, 13)
    (row,) = energy_scaling(seq, [13]).rows
    assert (row.n, row.energy) == (8102, 15910340538)


# -- geometric families -----------------------------------------------------------


def exponents(lo_max=12, width=9):
    """A range (lo, hi) of small exponents, empty when hi = lo - 1."""
    return st.tuples(st.integers(0, lo_max), st.integers(-1, width)).map(
        lambda t: (t[0], t[0] + t[1]))


def spread(r):
    return range(r[0], r[1] + 1)


def targets(values):
    """A value that solves the equation, or 0, +-2^k, or anything small."""
    special = st.sampled_from([0]) | st.integers(0, 24).flatmap(
        lambda k: st.sampled_from([1 << k, -(1 << k)]))
    found = st.sampled_from(sorted(set(values))) if values else special
    return found | special | st.integers(-5000, 5000)


@given(data=st.data())
def test_count4_matches_brute_force(data):
    i, l, a, c = (data.draw(exponents()) for _ in range(4))
    values = [(1 << x) - (1 << y) - (1 << z) + (1 << w)
              for x in spread(i) for y in spread(l) for z in spread(a) for w in spread(c)]
    delta = data.draw(targets(values))
    assert energy._count4(i, l, a, c, delta) == values.count(delta)


@given(data=st.data())
def test_count3_matches_brute_force(data):
    x, y, z = (data.draw(exponents()) for _ in range(3))
    values = [(1 << u) - (1 << v) + (1 << w) for u in spread(x) for v in spread(y) for w in spread(z)]
    target = data.draw(targets(values))
    assert energy._count3(x, y, z, target) == values.count(target)


@given(data=st.data())
def test_window_counts_match_brute_force(data):
    i, l, m = (data.draw(exponents(lo_max=30, width=14)) for _ in range(3))
    positive = data.draw(st.booleans())
    sign = data.draw(st.sampled_from([1, -1]))
    pairs = [(1 << x) - (1 << y) for x in spread(i) for y in spread(l) if x > y or not positive]
    triples = [v + sign * (1 << z) for v in pairs for z in spread(m)]
    # windows of 1 to 5000 values, at a solution, at a power of two or anywhere
    lo = data.draw(targets(triples) | st.integers(0, 40).map(lambda k: 1 << k)) - data.draw(
        st.integers(0, 64))
    hi = lo + data.draw(st.integers(0, 5000))
    assert energy._box_hits(i, l, m, sign, lo, hi, positive) == sum(
        lo <= v <= hi for v in triples)
    inside = [v for v in pairs if lo <= v <= hi]
    assert energy._pair_window(i, l, lo, hi, positive) == (len(inside), sum(inside))


@pytest.mark.parametrize("terms", [1, 2, 3])
@given(data=st.data())
def test_screen_passes_every_window_that_holds_a_sum(terms, data):
    # the bounds of the callers of _screen: +-2^x (a box group and a shape)
    # at weight 2, +-2^x +- 2^y (two box groups, a shape and a set) at 3,
    # and 2^x - 2^y +- 2^z (a box group and a set) at 4, started 2^shift
    # lower; a window that holds such a sum, within 2^64 or past it, is
    # never screened out, neither by the spans (the window's against the
    # sums') nor by the NAF weight of the whole integer
    ranges = [data.draw(exponents(lo_max=90, width=10)) for _ in range(terms)]
    signs = [data.draw(st.sampled_from([1, -1])) for _ in range(terms)]
    if terms == 3:
        signs[:2] = [1, -1]
    values = [0]
    for r, sign in zip(ranges, signs):
        values = [v + sign * (1 << x) for v in values for x in spread(r)]
    start = data.draw(targets(values) | st.integers(0, 40).map(lambda k: 1 << k)) - data.draw(
        st.integers(0, 64))
    width = data.draw(st.integers(0, 5000))
    shift = width.bit_length()
    origin, weight = [(start, 2), (start, 3), (start + (1 << shift), 4)][terms - 1]
    held = any(start <= v <= start + width for v in values)
    keys = [((min(values, default=0), max(values, default=0)), 0)]
    assert not held or energy._screen([start], (start, start + width), origin, keys, [shift],
                                      weight)


def test_blocks_are_the_runs_of_ones_and_their_negatives():
    blocks = {sign * ((1 << a) - (1 << b)) for a in range(14) for b in range(a + 1)
              for sign in (1, -1)}
    assert all(energy._is_block(h) == (h in blocks) for h in range(-5000, 5001))


@given(data=st.data())
def test_sum_window_matches_brute_force(data):
    x, y = (data.draw(exponents(lo_max=30, width=14)) for _ in range(2))
    values = [(1 << u) + (1 << v) for u in spread(x) for v in spread(y)]
    lo = data.draw(targets(values) | st.integers(0, 40).map(lambda k: 1 << k)) - data.draw(
        st.integers(0, 64))
    hi = lo + data.draw(st.integers(0, 5000))
    inside = [v for v in values if lo <= v <= hi]
    assert energy._sum_window(x, y, lo, hi) == (len(inside), sum(inside))


@given(lo=st.integers(-300, 300), width=st.integers(-2, 300),
       coefficients=st.lists(st.integers(-300, 300) | st.integers(-(1 << 70), 1 << 70),
                             min_size=4, max_size=4))
def test_segment_dot_matches_brute_force(lo, width, coefficients):
    v1, s1, v2, s2 = coefficients
    want = sum((v1 + s1 * e) * (v2 + s2 * e) for e in range(lo, lo + width + 1))
    assert energy._segment_dot(lo, lo + width, v1, s1, v2, s2) == want


@st.composite
def ordered_families(draw):
    """Families b + 2^i, i in [lo, hi], each above the last: every base is
    the last one's plus 2^(its hi) plus a small or power-of-two offset, so
    differences of different pairs of families coincide often."""
    families, base = [], draw(st.integers(-50, 50))
    for _ in range(draw(st.integers(1, 4))):
        lo, hi = draw(exponents(lo_max=6, width=8).filter(lambda r: r[1] >= r[0]))
        families.append((base, lo, hi))
        base += (1 << hi) + draw(st.integers(0, 40) | st.integers(0, 12).map(lambda k: 1 << k))
    return families


@given(families=ordered_families())
def test_family_square_sum_is_the_sum_over_positive_differences(families):
    # the own terms, the i > l rule inside a family and the pairwise counts
    points = sorted({b + (1 << i) for b, lo, hi in families for i in range(lo, hi + 1)})
    assert len(points) == sum(hi - lo + 1 for _, lo, hi in families)
    reps = rep_counts(points).counts
    want = sum(r * r for d, r in reps.items() if d > 0)
    part = energy._Families([(b, lo, hi, 0, k) for k, (b, lo, hi) in enumerate(families)])
    assert part.square_sums(1, [], []).tolist() == [want]


@st.composite
def planted_chains(draw):
    """Doubling chains b + 2^i at several bases, some far apart and some
    close, with shared exponent ranges, one run and a few stray points."""
    out = set()
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.integers(-(1 << 80), 1 << 80) | st.integers(-300, 300))
        lo = draw(st.integers(0, 40))
        out.update(base + (1 << i) for i in range(lo, lo + draw(st.integers(1, 16))))
    start = draw(st.integers(-(1 << 80), 1 << 80) | st.integers(-300, 300))
    out.update(range(start, start + draw(st.integers(0, 12))))
    out.update(draw(st.lists(st.integers(-(1 << 90), 1 << 90), max_size=3)))
    return sorted(out)


@pytest.mark.parametrize("kind", ["planted chains", "block-like", "runs and points"])
@given(data=st.data())
def test_families_match_per_prefix_oracles(kind, data):
    # with the family work charged as free, every set with two points or
    # more counts them as families; grids cut chains and runs at any length
    a = data.draw(planted_chains() if kind == "planted chains" else SETS[kind])
    ns = data.draw(grids(len(a)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_INT_STEP", 0)
        got, split = energy._energies(a, ns)
    assert got == [oracle(a[:n]) for n in ns]
    if split["runs"] and split["points"] > 1:
        assert split["sets"] > 0 and split["point_pairs"] == 0



@st.composite
def runs_beside_families(draw):
    """Runs and doubling chains c + 2^i, i in [lo, hi], side by side in a
    drawn order: families above and below runs, runs often longer than some
    gaps of a family, runs at one repeated spacing (so two run pairs share a
    trapezoid base) or close together (so their trapezoids overlap), and a
    few stray points anywhere; the whole set shifted, often past 2^64."""
    out, cursor = set(), 0
    spacing = draw(st.integers(1, 40))
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            length = draw(st.integers(2, 40))
            out.update(range(cursor, cursor + length))
            cursor += length + draw(st.just(spacing) | st.integers(1, 80))
        else:
            lo = draw(st.integers(0, 4))
            hi = lo + draw(st.integers(1, 6))
            out.update(cursor + (1 << i) for i in range(lo, hi + 1))
            cursor += (1 << hi) + draw(st.integers(1, 80))
    out.update(draw(st.lists(st.integers(-300, cursor + 300), max_size=4)))
    shift = draw(st.integers(-300, 300) | st.integers(-(1 << 200), 1 << 200))
    return sorted(x + shift for x in out)


@given(data=st.data())
def test_run_items_match_per_prefix_oracles(data):
    # with the split charged as free it is always taken: every product of
    # two run items (shapes, box groups on either side of a family) counts
    a = data.draw(runs_beside_families())
    ns = data.draw(grids(len(a)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_split_work", lambda n_runs, n_families: 0)
        got, split = energy._energies(a, ns)
    assert got == [oracle(a[:n]) for n in ns]
    assert split["point_pairs"] == 0
