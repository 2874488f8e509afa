"""Property tests: the production energy route against the oracles.

``additive_energy`` keys each pair by a residue of its difference modulo a
prime M0 below 2^62 and confirms runs of equal keys under further moduli
once twice the span reaches M0.  The sets below cover one modulus (small
spans, negative elements), two moduli (elements above 2^62), a dozen
moduli (elements above 2^700), arithmetic progressions, block-like sets
with long runs, and sets built to share primary residues.  Each is checked
against the representation counts, against brute force up to 64 elements,
against the bounds n^2 <= E <= n^3 and under x -> a*x + b.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppclab import energy
from ppclab.energy import (
    additive_energy,
    additive_energy_bruteforce,
    energy_from_reps,
    rep_counts,
)


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
    return sorted({k * energy._M0 + j for k, j in pairs})


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
