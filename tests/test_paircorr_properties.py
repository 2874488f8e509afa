"""Property tests: the pair-correlation routes agree on small sets, the
residue step and the fixed-point width check keep their contracts, and the
grid callers (Monte Carlo, divergence probe) agree with one-cell calls.

Moduli cover both kinds of words the one counter sweeps (the residues for
q <= 2**64, their top 64 bits above) and their edges: q = 1 and 2, powers
of two up to 2**64 and above it (where the residues are taken by mask),
the Mersenne prime 2**61 - 1, q = 2**64 - 59 (where r + limit wraps past
2**64), q = 2**64 and q just above it.  Residues include 0, q - 1 and
repeats; the window runs from limit = 0 to the largest limit below q/2.
Above 2**64, residue sets are also built with pairs on the window edge and
one unit to either side, distinct residues that share a top word, and
limits within q / 2**64 of q/2.  The uint64 sweep also runs with its dense
successor rounds patched to none (rank search only), one, and more than n
(dense rounds only).
"""

import math
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppclab import paircorr
from ppclab.growth import GrowthFunction, ThetaFunction
from ppclab.paircorr import (
    Alpha,
    PrecisionError,
    RegularSystemParams,
    divergence_probe,
    frac_mult,
    monte_carlo_ppc,
    pair_correlation,
    pair_correlation_naive,
    pair_correlation_via_reps,
)
from ppclab.sequences import build_blocks

U64 = 1 << 64

# each kind of modulus gets its own examples, so no edge depends on the draw
MODULI = {
    "1": st.just(1),
    "2": st.just(2),
    "2^k": st.integers(2, 64).map(lambda k: 1 << k),
    "2^k>2^64": st.integers(65, 300).map(lambda k: 1 << k),
    "2^61-1": st.just((1 << 61) - 1),
    "2^64-59": st.just(U64 - 59),
    "2^64": st.just(U64),
    "2^64+small": st.integers(U64 + 1, U64 + 1000),
    "random<=2^64": st.integers(3, U64),
    "random>2^64": st.integers(U64 + 1, 1 << 300),
}


@st.composite
def instances(draw, moduli):
    """(elements, alpha, s): distinct elements whose residues under alpha
    are drawn directly, and s on or just past a threshold limit."""
    q = draw(moduli)
    p = draw(st.integers(0, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    residue = st.one_of(st.just(0), st.just(q - 1), st.integers(0, q - 1))
    residues = draw(st.lists(residue, min_size=1, max_size=12))
    p_inv = pow(p, -1, q)
    # the j-th element is r_j / p mod q plus j copies of q: distinct, same residue
    elements = sorted((r * p_inv) % q + j * q for j, r in enumerate(residues))
    n = len(elements)
    # s = (limit * n + e) / q with 0 <= e < n puts the threshold at limit exactly
    limit = draw(st.one_of(st.just(0), st.just((q - 1) // 2), st.integers(0, (q - 1) // 2)))
    s = Fraction(limit * n + draw(st.integers(0, n - 1)), q)
    return elements, Alpha.rational(p, q), s


def assert_three_routes(elements, alpha, s):
    n = len(elements)
    r = pair_correlation(elements, alpha, n, s)
    assert r == pair_correlation_naive(elements, alpha, n, s)
    assert r == pair_correlation_via_reps(elements, alpha, n, s)


def count_exact_residues(res, q, limits):
    """The pair counts of the exact residues ``res`` mod q, taken through
    the residue step (alpha = 1/q leaves them as they are) and the one
    counter, sorted as the evaluator sorts them."""
    words, _, exact = paircorr._residues(Alpha.rational(1, q), res)
    order = np.argsort(words)
    exact_at = exact and (lambda k: exact(order[k]))
    return paircorr._count_within_u64(words[order], q, limits, exact_at)


def literal_count(res, q, limit):
    """Unordered pairs of ``res`` at circular distance <= limit mod q."""
    return sum(1 for i, a in enumerate(res) for b in res[i + 1:]
               if min((a - b) % q, (b - a) % q) <= limit)


@pytest.mark.parametrize("kind", MODULI)
@given(data=st.data())
def test_three_routes_agree(kind, data):
    assert_three_routes(*data.draw(instances(MODULI[kind])))


@given(st.data())
def test_certified_fixed_point_equals_rational(data):
    bits = data.draw(st.integers(2, 160))
    guard = data.draw(st.integers(1, bits - 1))
    fixed = Alpha.fixed(data.draw(st.integers(0, (1 << bits) - 1)), bits, guard)
    width = 1 << (bits - guard)  # elements below this in size pass the width check
    elements = data.draw(st.lists(st.integers(1 - width, width - 1), min_size=1,
                                  max_size=12, unique=True))
    s = data.draw(st.fractions(0, 6, max_denominator=12))
    n = len(elements)
    try:
        r = pair_correlation(elements, fixed, n, s)
    except PrecisionError:
        return  # refused, not wrong
    assert r == pair_correlation_naive(elements, Alpha.rational(fixed.mantissa, 1 << bits), n, s)


# -- the residue step -----------------------------------------------------------------
#
# _residues is the one place the evaluator takes residues.  For every kind of
# modulus and for fixed point, with negative elements and elements past
# 2**64, its uint64 words must be the literal r = (p * (x % q)) % q when
# q <= 2**64, and the top words floor(r * 2**64 / q) with a resolver that
# gives back each r above.  Under a power-of-two q <= 2**64 the uint64 words
# of the elements, which monte_carlo_ppc passes in their place, give the
# same residues.

FIXED = st.integers(2, 300).flatmap(lambda bits: st.builds(
    Alpha.fixed, st.integers(0, (1 << bits) - 1), st.just(bits), st.integers(1, bits - 1)))


def bounded_elements(bound):
    """Integers x with |x| <= bound, including both ends and 2**64 +- 1."""
    edges = [x for x in (U64 - 1, U64, U64 + 1) if x <= bound]
    small = min(bound, 50)
    pieces = [st.integers(-bound, bound), st.integers(-small, small),
              st.sampled_from([bound, -bound] + edges + [-x for x in edges])]
    return st.lists(st.one_of(*pieces), max_size=12)


@pytest.mark.parametrize("kind", [*MODULI, "fixed"])
@given(data=st.data())
def test_residue_step_contract(kind, data):
    if kind == "fixed":
        alpha = data.draw(FIXED)
        p, q = alpha.mantissa, 1 << alpha.bits
        xs = data.draw(bounded_elements((1 << (alpha.bits - alpha.guard)) - 1))
    else:
        q = data.draw(MODULI[kind])
        alpha = Alpha.rational(data.draw(st.integers(0, q - 1)), q)
        p, q = alpha.num, alpha.den
        xs = data.draw(bounded_elements(1 << 400))
    words, q_out, exact = paircorr._residues(alpha, xs)
    literal = [(p * (x % q)) % q for x in xs]
    assert q_out == q and words.dtype == np.uint64
    assert (exact is None) == (q <= U64)
    if q <= U64:
        assert words.tolist() == literal
    else:
        assert [exact(i) for i in range(len(xs))] == literal
        assert words.tolist() == [(r << 64) // q for r in literal]
    # the fixed-point width check reads the elements, so negative ones, whose
    # words are 64 bits wide, take the words path under rational alpha only
    if q <= U64 and not q & (q - 1) and (alpha.mode == "rational" or min(xs, default=0) >= 0):
        from_words, q_words, _ = paircorr._residues(alpha, paircorr._reduced(xs, len(xs), U64))
        assert q_words == q and from_words.dtype == np.uint64
        assert from_words.tolist() == literal


@pytest.mark.parametrize("where", ["first", "middle", "last", "negated"])
@given(data=st.data())
def test_width_check_edge(where, data):
    # the widest |x| decides: bits(max |x|) + guard = bits passes, one bit
    # less of mantissa is refused, wherever the widest element sits and
    # whatever its sign
    width, guard = data.draw(st.integers(2, 200)), data.draw(st.integers(1, 64))
    widest = data.draw(st.integers(1 << (width - 1), (1 << width) - 1))
    narrow = (1 << (width - 1)) - 1
    others = data.draw(st.lists(st.integers(-narrow, narrow), min_size=2, max_size=8))
    at = {"first": 0, "middle": len(others) // 2, "last": len(others),
          "negated": len(others) // 2}[where]
    elements = others[:at] + [-widest if where == "negated" else widest] + others[at:]
    n, s = len(elements), Fraction(1)
    bits = width + guard
    mantissa = data.draw(st.integers(0, (1 << bits) - 1))
    # an int64 array is checked from its ends
    sources = [elements] + ([np.array(elements, dtype=np.int64)] if width < 64 else [])
    for source in sources:
        try:
            r = pair_correlation(source, Alpha.fixed(mantissa, bits, guard), n, s)
        except PrecisionError as exc:  # a guard-window refusal, not the width check
            assert "mantissa bits" not in str(exc)
        else:
            assert r == pair_correlation_naive(elements, Alpha.rational(mantissa, 1 << bits), n, s)
        narrower = Alpha.fixed(mantissa >> 1, bits - 1, guard)
        with pytest.raises(PrecisionError, match="mantissa bits"):
            pair_correlation(source, narrower, n, s)
        with pytest.raises(PrecisionError, match="mantissa bits"):
            paircorr._residues(narrower, source)


@pytest.mark.parametrize("kind", MODULI)
@given(data=st.data())
def test_frac_mult_is_the_fractional_part(kind, data):
    q = data.draw(MODULI[kind])
    alpha = Alpha.rational(data.draw(st.integers(0, q - 1)), q)
    a = data.draw(st.one_of(st.integers(-(1 << 400), 1 << 400), st.integers(-q - 2, q + 2),
                            st.sampled_from([0, 1, -1, U64, -U64])))
    assert frac_mult(alpha, a) == (alpha.value * a) % 1


# -- one residue pass per (sequence, alpha) -----------------------------------------
#
# monte_carlo_ppc and divergence_probe answer a whole (n, s) grid from one
# residue pass; every cell must equal its own one-cell call, and the literal
# quadratic count where that is cheap.  The search chunk is also set to 1 and
# 3, so the chunked uint64 sweep crosses chunk boundaries inside every prefix.

CHUNKS = [1, 3, paircorr._SEARCH_CHUNK]
NAIVE_MAX_N = 64
BLOCKS = build_blocks(GrowthFunction("ilog", r=1), 0.7, 0.45, 10)  # up to 165-bit elements
SYSTEM = RegularSystemParams(f=BLOCKS.params.f, theta=ThetaFunction("one_plus_log"))

# 0, halves, and windows wide enough that 2s >= n covers the circle
S_VALUES = st.one_of(st.just(Fraction(0)), st.fractions(0, 4, max_denominator=8),
                     st.integers(0, 1000).map(Fraction))


# -- the uint64 sweep's dense successor rounds --------------------------------------
#
# _DENSE_ROUNDS = 0 sends every anchor to the rank search; 1 tests one
# successor densely; more than n counts by dense rounds alone.  The search
# chunk is drawn too, so blocks of 1 and 3 anchors put wrapped successors in
# several blocks.

ROUNDS = [0, 1, 1 << 20]
# the default rounds too, for the pinned cases
SWEEPS = ROUNDS + [paircorr._DENSE_ROUNDS]


def sweep(rounds, chunk=paircorr._SEARCH_CHUNK):
    return mock.patch.multiple(paircorr, _DENSE_ROUNDS=rounds, _SEARCH_CHUNK=chunk)


def sweep_settings(data, rounds, chunks=CHUNKS):
    """The patches of one drawn uint64 sweep configuration."""
    return sweep(rounds, data.draw(st.sampled_from(chunks)))


def assert_cell(seq, alpha, n, s, r):
    assert r == pair_correlation(seq, alpha, n, s)
    if n <= NAIVE_MAX_N and alpha.mode == "rational":
        assert r == pair_correlation_naive(seq, alpha, n, s)


@pytest.mark.parametrize("chunk", CHUNKS)
@given(data=st.data())
def test_monte_carlo_rows_equal_per_cell_calls(chunk, data):
    with mock.patch.object(paircorr, "_SEARCH_CHUNK", chunk):
        assert_monte_carlo_rows(data)


@pytest.mark.parametrize("rounds", ROUNDS)
@given(data=st.data())
def test_monte_carlo_rows_with_dense_rounds(rounds, data):
    with sweep_settings(data, rounds):
        assert_monte_carlo_rows(data)


def assert_monte_carlo_rows(data):
    # negative, small and beyond-2**64 elements, repeats allowed
    element = st.one_of(st.integers(-(1 << 70), 1 << 70), st.integers(-50, 50))
    elements = data.draw(st.lists(element, min_size=1, max_size=80))
    n_max = len(elements)
    schedule = data.draw(st.lists(st.integers(1, n_max), min_size=1, max_size=5))
    s_values = data.draw(st.lists(S_VALUES, min_size=1, max_size=4))
    seed, trials = data.draw(st.integers(0, 1 << 32)), data.draw(st.integers(1, 2))
    result = monte_carlo_ppc(elements, seed=seed, trials=trials,
                             schedule=schedule, s_values=s_values)
    grid = [(t, n, s) for t in range(trials) for n in sorted(set(schedule))
            for s in sorted(set(s_values))]
    assert [(row.trial, row.n, row.s) for row in result.rows] == grid
    for row in result.rows:
        assert_cell(elements, row.alpha, row.n, row.s, row.r)


ALPHAS = st.one_of(
    st.integers(1, 64).flatmap(lambda k: st.integers(0, (1 << k) - 1).map(
        lambda p: Alpha.rational(p, 1 << k))),
    st.integers(3, U64).flatmap(lambda q: st.integers(0, q - 1).map(
        lambda p: Alpha.rational(p, q))),
    st.integers(U64 + 1, 1 << 300).flatmap(lambda q: st.integers(0, q - 1).map(
        lambda p: Alpha.rational(p, q))),
    # fixed point wide enough for some levels and too narrow for others
    st.tuples(st.integers(8, 240), st.integers(1, 64)).filter(lambda t: t[1] < t[0]).flatmap(
        lambda t: st.integers(0, (1 << t[0]) - 1).map(lambda m: Alpha.fixed(m, t[0], t[1]))),
)


@pytest.mark.parametrize("chunk", CHUNKS)
@given(data=st.data())
def test_divergence_probe_points_equal_per_cell_calls(chunk, data):
    with mock.patch.object(paircorr, "_SEARCH_CHUNK", chunk):
        assert_probe_points(data)


@pytest.mark.parametrize("rounds", ROUNDS)
@given(data=st.data())
def test_divergence_probe_points_with_dense_rounds(rounds, data):
    # dense rounds alone take n - 1 rounds per block, so at n = 892 only
    # whole blocks keep that case fast
    chunks = CHUNKS if rounds < 100 else [paircorr._SEARCH_CHUNK]
    with sweep_settings(data, rounds, chunks):
        assert_probe_points(data)


def assert_probe_points(data):
    levels = data.draw(st.lists(st.integers(1, BLOCKS.params.j_max), min_size=1, max_size=6))
    alpha, s = data.draw(ALPHAS), data.draw(S_VALUES)
    cells = {}
    for j in set(levels):
        try:
            cells[j] = pair_correlation(BLOCKS, alpha, BLOCKS.checkpoint(j), s)
        except PrecisionError:
            cells[j] = None
    if None in cells.values():  # a refused cell refuses the whole probe
        with pytest.raises(PrecisionError):
            divergence_probe(BLOCKS, alpha, s, levels, SYSTEM)
        return
    traj = divergence_probe(BLOCKS, alpha, s, levels, SYSTEM)
    assert [p.level for p in traj.points] == sorted(set(levels))
    for p in traj.points:
        assert p.n == BLOCKS.checkpoint(p.level) and p.r == cells[p.level]
        assert_cell(BLOCKS, alpha, p.n, s, p.r)


@given(st.data())
def test_probe_refuses_when_the_deepest_level_fails_the_width_check(data):
    widths = [max(BLOCKS.elements[:n]).bit_length() for n in BLOCKS.checkpoints]
    # levels whose prefix is wider than the one before
    deepest = data.draw(st.sampled_from(
        [j for j in range(2, len(widths) + 1) if widths[j - 1] > widths[j - 2]]))
    guard = data.draw(st.integers(1, 64))
    bits = widths[deepest - 2] + guard  # exactly enough for level deepest - 1
    alpha = Alpha.fixed(data.draw(st.integers(0, (1 << bits) - 1)), bits, guard)
    levels = data.draw(st.permutations(range(1, deepest + 1)))
    s = Fraction(1, 2)  # 2s < n at every level from 2 on, so the deepest is counted
    with pytest.raises(PrecisionError, match="mantissa bits"):
        divergence_probe(BLOCKS, alpha, s, levels, SYSTEM)
    # without the deepest level the width check passes
    try:
        divergence_probe(BLOCKS, alpha, s, range(1, deepest), SYSTEM)
    except PrecisionError as exc:
        assert "mantissa bits" not in str(exc)


# -- pinned cases of the uint64 sweep ------------------------------------------------


@pytest.mark.parametrize("rounds", ROUNDS)
@given(data=st.data())
def test_three_routes_agree_with_dense_rounds(rounds, data):
    instance = data.draw(instances(st.one_of(*MODULI.values())))
    with sweep_settings(data, rounds):
        assert_three_routes(*instance)


@pytest.mark.parametrize("rounds", SWEEPS)
def test_full_turn_at_2_64_is_counted_once(rounds):
    # both residues are 0 mod 2**64: the pair is at distance 0 one way and a
    # full turn the other, which a wrapping uint64 difference would make 0 too
    alpha = Alpha.rational(12345, U64)
    with sweep(rounds):
        assert pair_correlation([0, U64], alpha, 2, 0) == 1
        assert pair_correlation([0, U64, 2 * U64], alpha, 3, 0) == 2
        assert paircorr._count_within_u64(np.zeros(2, np.uint64), U64, [0]) == [1]


@pytest.mark.parametrize("rounds", SWEEPS)
def test_wrapped_pair_below_2_64(rounds):
    # residues 0 and q - 1 are one unit apart across the wrap
    q = U64 - 59
    res = np.array([0, q - 1], dtype=np.uint64)
    with sweep(rounds):
        assert paircorr._count_within_u64(res, q, [0, 1, 2]) == [0, 1, 1]
        assert pair_correlation([0, q - 1], Alpha.rational(1, q), 2, Fraction(2, q)) == 1
        assert pair_correlation([0, q - 1], Alpha.rational(1, q), 2, Fraction(1, q)) == 0


@pytest.mark.parametrize("rounds", ROUNDS)
@given(data=st.data())
def test_one_sweep_of_several_limits_equals_one_per_limit(rounds, data):
    q = data.draw(st.one_of(*MODULI.values()))
    res = sorted(data.draw(st.lists(
        st.one_of(st.just(0), st.just(q - 1), st.integers(0, q - 1)), min_size=1, max_size=40)))
    half = (q - 1) // 2  # the largest limit below q/2
    limit = st.one_of(st.integers(-3, -1), st.just(0), st.just(half), st.integers(0, half))
    limits = data.draw(st.lists(limit, min_size=1, max_size=6))
    with sweep_settings(data, rounds):
        if q <= U64:
            words = np.array(res, dtype=np.uint64)
            counts = paircorr._count_within_u64(words, q, limits)
            assert counts == [paircorr._count_within_u64(words, q, [x])[0] for x in limits]
        else:  # top words, the window edge settled from the exact residues
            counts = count_exact_residues(res, q, limits)
        assert counts == [count_exact_residues(res, q, [x])[0] for x in limits]
    assert counts == [literal_count(res, q, x) for x in limits]


@pytest.mark.parametrize("rounds", [x for x in SWEEPS if x < 100])
def test_all_residues_equal(rounds):
    # the dense rounds stop at _DENSE_ROUNDS, so clustered input costs at most
    # that many slice passes more than the rank search alone
    n = 200_000
    with sweep(rounds):
        for q, r in [(U64, 0), (U64, U64 - 1), (97, 5)]:
            res = np.full(n, r, dtype=np.uint64)
            assert paircorr._count_within_u64(res, q, [-1, 0, q // 2 - 1]) == [
                0, n * (n - 1) // 2, n * (n - 1) // 2]


# -- top words above 2**64 ----------------------------------------------------------
#
# Above 2**64 the counter sweeps the top words floor(r * 2**64 / q) and settles
# only the pairs at top-word distance floor(L * 2**64 / q)..ceil(L * 2**64 / q)
# from their exact residues.  The residue sets put pairs exactly on the window
# edge L and one unit to either side, residues that share a top word, 0 and
# q - 1, and repeats; L runs from 0 through values below q / 2**64 (where the
# band holds distance 0) to within q / 2**64 of q/2.

WIDE_MODULI = {kind: MODULI[kind] for kind in ("2^64+small", "2^k>2^64", "random>2^64")}


@st.composite
def edge_residues(draw, q):
    """(residues, limit): residues on, and one unit either side of, the
    window edge of some bases, and residues sharing the bases' top words."""
    half = (q - 1) // 2  # the largest limit below q/2
    unit = q >> 64  # residues per top word, rounded down
    limit = draw(st.one_of(st.just(0), st.integers(0, 2 * unit + 4),
                           st.integers(max(0, half - unit - 2), half), st.integers(0, half)))
    bases = draw(st.lists(st.one_of(st.just(0), st.just(q - 1), st.integers(0, q - 1)),
                          min_size=1, max_size=5))
    res = []
    for base in bases:
        res.append(base)
        for sign in draw(st.lists(st.sampled_from([1, -1]), max_size=2)):
            res.append((base + sign * (limit + draw(st.sampled_from([-1, 0, 1])))) % q)
        top = (base << 64) // q  # the residues with this top word: [first, past)
        first, past = -(-(top * q) >> 64), -(-((top + 1) * q) >> 64)
        res += draw(st.lists(st.integers(first, past - 1), max_size=2))
    return sorted(res), limit


@pytest.mark.parametrize("kind", WIDE_MODULI)
@given(data=st.data())
def test_top_word_count_at_the_window_edge(kind, data):
    q = data.draw(WIDE_MODULI[kind])
    res, limit = data.draw(edge_residues(q))
    limits = [x for x in (limit - 1, limit, limit + 1) if 0 <= x and 2 * x < q]
    assert count_exact_residues(res, q, limits) == [literal_count(res, q, x) for x in limits]
    # the same residues under a dilation p/q, with s on the threshold limit
    p = data.draw(st.integers(1, q - 1).filter(lambda p: math.gcd(p, q) == 1))
    p_inv = pow(p, -1, q)
    elements = sorted((r * p_inv) % q + j * q for j, r in enumerate(res))
    n = len(elements)
    s = Fraction(limit * n + data.draw(st.integers(0, n - 1)), q)
    r = pair_correlation(elements, Alpha.rational(p, q), n, s)
    assert r == Fraction(2 * literal_count(res, q, limit), n)
    assert r == pair_correlation_naive(elements, Alpha.rational(p, q), n, s)


@pytest.mark.parametrize("bits", [96, 4209])
@given(data=st.data())
def test_wide_fixed_point_refuses_exactly_when_the_guard_window_holds_a_pair(bits, data):
    # a fixed-point cell is counted at both ends of its guard window and
    # refused when they differ; the ends are counted from the literal pairs
    guard = data.draw(st.sampled_from([1, 8, 64]))
    alpha = Alpha.fixed(data.draw(st.integers(0, (1 << bits) - 1)), bits, guard)
    q, width = 1 << bits, 1 << (bits - guard)
    elements = sorted(data.draw(st.lists(st.integers(-width + 1, width - 1),
                                         min_size=2, max_size=10, unique=True)))
    n = len(elements)
    res = [alpha.mantissa * x % q for x in elements]
    # s puts the threshold near a pair's distance, inside or outside its window
    a, b = data.draw(st.permutations(res))[:2]
    window = 1 << (bits - guard + 1)
    near = min((a - b) % q, (b - a) % q) + data.draw(st.integers(-3 * window, 3 * window))
    s = Fraction(max(near, 0) * n, q)
    limits = paircorr._cell_limits(q, alpha, n, s) if 2 * s < n else None
    try:
        r = pair_correlation(elements, alpha, n, s)
    except PrecisionError as exc:
        assert "mantissa bits" not in str(exc)
        assert limits is None or literal_count(res, q, limits[0]) != literal_count(
            res, q, limits[1])
        return
    if 2 * s < n:
        assert limits is not None
        assert r == Fraction(2 * literal_count(res, q, limits[0]), n)
        assert literal_count(res, q, limits[0]) == literal_count(res, q, limits[1])
    assert r == pair_correlation_naive(elements, Alpha.rational(alpha.mantissa, q), n, s)


def test_distinct_residues_under_one_top_word():
    # q = 2**66 puts four residues under every top word; the band of a limit
    # below q / 2**64 holds distance 0, so these pairs are settled exactly
    q = 1 << 66
    res = [0, 1, 1, 3, 4, q - 1]
    for limit in range(0, 9):
        assert count_exact_residues(res, q, [limit]) == [literal_count(res, q, limit)], limit


def test_two_residues_a_limit_apart_are_counted_by_multiplicity():
    # every cross pair is at top-word distance floor or ceil of L * 2**64 / q,
    # so all 10^10 of them are undecided; equal residues settle them at once
    q, m = U64 + 13, 100_000
    low, limit = 12345678901234567, 5 * U64 // 17
    elements = [low + j * q for j in range(m)] + [low + limit + j * q for j in range(m)]
    elements.sort()
    n = 2 * m
    start = time.perf_counter()
    r_in = pair_correlation(elements, Alpha.rational(1, q), n, Fraction(limit * n, q))
    r_out = pair_correlation(elements, Alpha.rational(1, q), n, Fraction((limit - 1) * n, q))
    assert time.perf_counter() - start < 2.0
    assert r_in == Fraction(n * (n - 1), n)
    assert r_out == Fraction(2 * m * (m - 1), n)
