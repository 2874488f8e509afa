"""Property tests: the production energy route against the oracles.

``additive_energy`` is one cell of ``_energies``, which counts a whole grid
of prefixes from one pass: it keys each pair by a residue of its difference
modulo a prime M0 below 2^62, tags it with the prefix cell of its larger
index, certifies runs of equal keys by the segments their elements lie in,
and confirms the rest under further moduli once twice the span reaches M0.
The sets below cover one modulus (small spans, negative elements), two
moduli (elements above 2^62), a dozen moduli (elements above 2^700),
arithmetic progressions, block-like sets with long runs, sets built to
share primary residues, and sets spanning several segments with elements
next to a segment's end.  Each is checked against the representation
counts, against brute force up to 64 elements, against the bounds
n^2 <= E <= n^3 and under x -> a*x + b; prefix grids are checked prefix by
prefix, with unsorted and repeated lengths, and with small pair caps.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppclab import energy
from ppclab.energy import (
    additive_energy,
    additive_energy_bruteforce,
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
    """Prefix lengths in 1..n, unsorted and possibly repeated, often with 1."""
    lengths = st.lists(st.integers(1, n), min_size=1, max_size=6)
    return lengths | lengths.map(lambda ns: ns + [1])


@pytest.mark.parametrize("kind", SETS)
@given(data=st.data())
def test_prefix_grid_matches_per_prefix_oracles(kind, data):
    a = data.draw(SETS[kind])
    ns = data.draw(grids(len(a)))
    got = energy._energies(a, ns)
    assert got == [oracle(a[:n]) for n in ns]
    for n, e in zip(ns, got):
        if n <= 64:
            assert e == additive_energy_bruteforce(a[:n])


@pytest.mark.parametrize("cap", [1, 3, 16])
@pytest.mark.parametrize("kind", ["block-like", "shared residues", "segment edges"])
@given(data=st.data())
def test_prefix_grid_with_small_pair_caps(cap, kind, data):
    a = data.draw(SETS[kind])
    ns = data.draw(grids(len(a)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_PAIR_CAP", cap)
        assert energy._energies(a, ns) == [oracle(a[:n]) for n in ns]


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
