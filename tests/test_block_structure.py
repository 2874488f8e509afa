"""Property tests: a block sequence read from its blocks equals its element
list.

``BlockSequence.elements`` is formed from the blocks on first access; it
must equal an independent construction, the sorted set union of every
level's run and geometric members.  ``paircorr`` takes x mod q per block
without forming the list; for every kind of modulus those values, and the
residues and top words built on them, must equal the ones of the formed
elements.  The draws include restarted runs and geometric members shared
with a run.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppclab import paircorr
from ppclab.growth import GrowthFunction
from ppclab.paircorr import Alpha, PrecisionError
from ppclab.sequences import build_blocks

U64 = 1 << 64

GROWTH = [
    GrowthFunction("ilog", r=1),
    GrowthFunction("ilog", r=2),
    GrowthFunction("ilog_eps", r=1, eps=0.5),
    GrowthFunction("pow", a=1 / 3),
]


@st.composite
def block_params(draw):
    f = draw(st.sampled_from(GROWTH))
    gamma = draw(st.floats(0.05, 0.6))
    beta = draw(st.floats(gamma + 0.01, 0.7499))
    return f, beta, gamma, draw(st.integers(1, 11))


def union_of_levels(f, beta, gamma, j_max):
    """The members through each level, built from the level formulas alone:
    the seed {1, 2}, then C_j = twice the largest member of the last
    nonempty geometric block, the run C_j + [0, a_len) and the geometric
    members 2C_j + 2^i, i = 1..g_len."""
    params = build_blocks(f, beta, gamma, 1).params
    members, last_g_max, counts = {1, 2}, 2, [2]
    for j in range(2, j_max + 1):
        c, g_len = 2 * last_g_max, params.g_len(j)
        members |= set(range(c, c + params.a_len(j)))
        members |= {2 * c + (1 << i) for i in range(1, g_len + 1)}
        if g_len:
            last_g_max = 2 * c + (1 << g_len)
        counts.append(len(members))
    return sorted(members), counts


# runs restart at levels 3..7, and the level-8 geometric block shares its
# five least members 2C + 2^i with the level-8 run and stores two of its own
SHARED = (GrowthFunction("ilog", r=1), 0.306, 0.276, 9)


def test_the_example_restarts_runs_and_shares_members():
    seq = build_blocks(*SHARED)
    assert seq.a_block(7).start_index < seq.checkpoint(6)  # restarted below T_6
    g = seq.g_block(8)
    assert len(g.shared) == 5 and g.length == 7


@example(SHARED)
@given(block_params())
def test_elements_are_the_union_of_the_levels(params):
    seq = build_blocks(*params)
    assert "elements" not in seq.__dict__  # built without the list
    want, counts = union_of_levels(*params)
    assert len(seq) == len(want) and list(seq.checkpoints) == counts
    assert seq.elements == want
    for b in seq.blocks:
        values = seq.block_values(b)
        assert values == sorted(values) and set(values) <= set(want)


@example(SHARED)
@given(block_params())
def test_member_is_the_element_at_its_index(params):
    seq = build_blocks(*params)
    members = [seq.member(i) for i in range(len(seq))]
    assert "elements" not in seq.__dict__  # each formed from its part
    assert members == seq.elements
    for i in (-1, len(seq)):
        with pytest.raises(IndexError):
            seq.member(i)


MODULI = {
    "below 2^32": st.integers(1, (1 << 32) - 1),
    "2^32": st.just(1 << 32),
    "2^32..2^64": st.integers((1 << 32) + 1, U64 - 1),
    "2^64": st.just(U64),
    "other 2^k": st.integers(1, 200).filter(lambda k: k != 64).map(lambda k: 1 << k),
    "above 2^64": st.integers(U64 + 1, 1 << 300),
}


def alpha_of(kind, data):
    """A dilation whose denominator is of the given kind, or a fixed point."""
    if kind == "fixed":
        bits = data.draw(st.integers(2, 600))
        return Alpha.fixed(data.draw(st.integers(0, (1 << bits) - 1)), bits,
                           data.draw(st.integers(1, bits - 1)))
    q = data.draw(MODULI[kind])
    return Alpha.rational(data.draw(st.integers(0, q - 1)), q)


@settings(max_examples=60)
@given(params=block_params(), kind=st.sampled_from([*MODULI, "fixed"]), data=st.data())
def test_residues_per_block_equal_the_residues_of_the_elements(params, kind, data):
    seq = build_blocks(*params)
    assert_residues_per_block(seq, data.draw(st.integers(0, len(seq))), alpha_of(kind, data))


@given(kind=st.sampled_from([*MODULI, "fixed"]), data=st.data())
def test_residues_per_block_with_restarts_and_shared_members(kind, data):
    seq = build_blocks(*SHARED)
    assert_residues_per_block(seq, len(seq), alpha_of(kind, data))


def assert_residues_per_block(seq, n, alpha):
    q = alpha.denominator
    # x mod q and the residues are taken from the blocks before the list exists
    reduced = [int(x) for x in paircorr._reduced(seq, n, q)]
    try:
        words, q_out, exact = paircorr._residues(alpha, seq, n)
    except PrecisionError:
        words = exact = None
    resolved = exact and [exact(i) for i in range(n)]
    assert "elements" not in seq.__dict__
    elements = seq.elements[:n]
    assert reduced == [x % q for x in elements]
    if words is None:  # refused exactly when the elements are refused
        try:
            paircorr._residues(alpha, elements)
        except PrecisionError:
            return
        raise AssertionError("the blocks were refused, their elements not")
    want, want_q, want_exact = paircorr._residues(alpha, elements)
    assert q_out == want_q and words.tolist() == want.tolist()
    assert (exact is None) == (want_exact is None)
    if exact:
        assert resolved == [want_exact(i) for i in range(n)]
    if not q & (q - 1) and q <= U64:  # the words x mod 2**64 stand in
        assert paircorr._reduced(seq, n, U64).tolist() == [x % U64 for x in elements]
