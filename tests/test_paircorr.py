"""Pair correlation statistics: frozen small cases (hand-checked), route
agreement, fixed-point certification, regular-system candidates, probe and
Monte Carlo determinism."""

import functools
import math
import random
import time
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppclab import paircorr
from ppclab.growth import GrowthFunction, ThetaFunction, psi
from ppclab.paircorr import (
    Alpha,
    PrecisionError,
    RegularSystemParams,
    divergence_probe,
    exceptional_alpha_candidates,
    frac_mult,
    is_probable_prime,
    monte_carlo_ppc,
    pair_correlation,
    pair_correlation_naive,
    pair_correlation_via_reps,
    perturbed_alpha,
    random_prime_alpha,
    rank_of_denominator,
    targeting_eta,
)
from ppclab.sequences import BudgetError, build_blocks, classic

ILOG1 = GrowthFunction("ilog", r=1)
THETA = ThetaFunction("one_plus_log")
SYSTEM = RegularSystemParams(f=ILOG1, theta=THETA)


# -- Alpha and frac_mult ---------------------------------------------------------


def test_alpha_reduces_mod_one():
    assert Alpha.rational(7, 5).value == Fraction(2, 5)
    assert Alpha.rational(-1, 3).value == Fraction(2, 3)
    assert Alpha.rational(0, 9).value == 0
    assert Alpha.rational(Fraction(3, 7)).den == 7


def test_alpha_parse():
    assert Alpha.parse("3/7").value == Fraction(3, 7)
    assert Alpha.parse("0.25").value == Fraction(1, 4)  # exact decimal
    a = Alpha.parse("fixed:123:32:16")
    assert (a.mantissa, a.bits, a.guard) == (123, 32, 16)
    assert Alpha.parse("fixed:8:96").guard == 64  # default guard
    with pytest.raises(ValueError):
        Alpha.parse("fixed:1:2:3:4:5")


def test_frac_mult_frozen():
    # 3/7 * 10 = 30/7 = 4 + 2/7
    assert frac_mult(Alpha.rational(3, 7), 10) == Fraction(2, 7)


def test_frac_mult_matches_fraction_arithmetic():
    rng = random.Random(7)
    for _ in range(200):
        q = rng.randrange(2, 1000)
        p = rng.randrange(0, q)
        a = rng.randrange(-(10**12), 10**12)
        got = frac_mult(Alpha.rational(p, q), a)
        exact = Fraction(p, q) * a
        assert got == exact - math.floor(exact)


def test_frac_mult_huge_multiplier():
    # the reduction a mod q keeps this cheap even for thousand-bit a
    a = (1 << 5000) + 12345
    got = frac_mult(Alpha.rational(3, 7), a)
    exact = Fraction(3, 7) * a
    assert got == exact - math.floor(exact)


def test_fixed_point_alpha_exact_dyadic():
    a = Alpha.fixed(1 << 62, 64, guard=32)
    assert a.value == Fraction(1, 4)
    assert frac_mult(a, 3) == Fraction(3, 4)
    assert frac_mult(a, 4) == 0


def test_fixed_point_width_guard():
    a = Alpha.fixed(1 << 62, 64, guard=32)
    with pytest.raises(PrecisionError):
        frac_mult(a, 1 << 40)  # 41 bits + 32 guard > 64
    with pytest.raises(ValueError):
        Alpha.fixed(1 << 70, 64)  # mantissa too wide
    with pytest.raises(ValueError):
        Alpha.fixed(1, 64, guard=64)  # guard must be < bits


# -- the statistic: frozen values ------------------------------------------------


def test_identity_alpha_half_frozen():
    # residues mod 2 of 1..4 are 1,0,1,0: two unordered coincident pairs,
    # threshold floor(2 * 1/4) = 0, so R = 2*2/4 = 1
    assert pair_correlation([1, 2, 3, 4], Alpha.rational(1, 2), 4, 1) == 1


def test_identity_alpha_third_frozen():
    # residues mod 3 of 1,2,3 are 1,2,0; every pair sits at circle distance
    # exactly 1/3 = s/N: the closed threshold counts all of them, R = 2
    assert pair_correlation([1, 2, 3], Alpha.rational(1, 3), 3, 1) == 2


def test_alpha_zero_degenerates():
    for n in (2, 5, 9):
        seq = list(range(1, n + 1))
        assert pair_correlation(seq, Alpha.rational(0, 1), n, 1) == n - 1


def test_window_covering_circle():
    # 2s >= N puts the whole circle inside the window: R = N - 1
    assert pair_correlation([1, 3, 9, 27, 81], Alpha.rational(2, 7), 5, 3) == 4
    assert pair_correlation([1, 3, 9, 27, 81], Alpha.rational(2, 7), 5, Fraction(5, 2)) == 4


def test_s_zero_counts_exact_collisions():
    # alpha = 1/2 on 1..4: residues collide in two pairs, so R = 1 even at s=0
    assert pair_correlation([1, 2, 3, 4], Alpha.rational(1, 2), 4, 0) == 1
    # generic prime denominator: no collisions among distinct small elements
    assert pair_correlation([1, 2, 3, 4], Alpha.rational(5, 101), 4, 0) == 0


def test_single_point_and_validation():
    assert pair_correlation([5], Alpha.rational(1, 3), 1, 1) == 0
    with pytest.raises(ValueError):
        pair_correlation([1, 2], Alpha.rational(1, 3), 0, 1)
    with pytest.raises(ValueError):
        pair_correlation([1, 2], Alpha.rational(1, 3), 2, -1)


# -- route agreement --------------------------------------------------------------


def test_three_routes_agree_random():
    rng = random.Random(20260814)
    s_choices = [0, Fraction(1, 2), 1, 2, Fraction(3, 7), 0.375]
    for _ in range(30):
        n = rng.randrange(2, 60)
        elements = sorted(rng.sample(range(1, 10**6), n))
        q = rng.randrange(2, 200)
        alpha = Alpha.rational(rng.randrange(0, q), q)
        s = rng.choice(s_choices)
        r_fast = pair_correlation(elements, alpha, n, s)
        r_naive = pair_correlation_naive(elements, alpha, n, s)
        r_reps = pair_correlation_via_reps(elements, alpha, n, s)
        assert r_fast == r_naive == r_reps, (n, alpha.label(), s)


def test_routes_agree_huge_elements_prime_denominator():
    elements = [1 << i for i in range(1, 160)]
    alpha = Alpha.rational(123456789, (1 << 61) - 1)
    args = (elements, alpha, len(elements), 1)
    r = pair_correlation(*args)
    assert r == pair_correlation_naive(*args) == pair_correlation_via_reps(*args)


def test_fast_equals_naive_with_dyadic_denominator():
    rng = random.Random(99)
    elements = sorted(rng.sample(range(1, 10**9), 120))
    alpha = Alpha.rational(rng.getrandbits(64) | 1, 1 << 64)
    for s in (Fraction(1, 2), 1, 3):
        assert pair_correlation(elements, alpha, 120, s) == pair_correlation_naive(
            elements, alpha, 120, s
        )


@pytest.mark.parametrize("q", [(1 << 64) - 59, 1 << 64])
def test_uint64_sweep_at_the_top_of_the_range(q):
    # with alpha = 1/q the residues are the elements mod q; near the top of
    # the uint64 range r + limit passes 2**64 for the largest limit below q/2
    alpha = Alpha.rational(1, q)
    elements = [0, 1, q // 2, q - 2, 2 * q - 1, 3 * q - 1]
    n = len(elements)
    for limit in (0, 1, q // 2 - 2, (q - 1) // 2):
        s = Fraction(limit * n, q)
        assert pair_correlation(elements, alpha, n, s) == pair_correlation_naive(
            elements, alpha, n, s
        ), limit


@pytest.mark.parametrize("q_bits", [65, 128, 300])
def test_wide_denominator_sweep_matches_naive(q_bits):
    # q > 2**64 is counted by its top words, the window edge from the exact residues
    rng = random.Random(q_bits)
    q = (1 << (q_bits - 1)) | rng.getrandbits(q_bits - 1) | 1
    alpha = Alpha.rational(rng.randrange(1, q), q)
    elements = sorted({rng.getrandbits(q_bits + 8) for _ in range(80)})
    n = len(elements)
    for s in (0, Fraction(1, 2), 1, 3, Fraction(n * (q // 2), q)):
        assert pair_correlation(elements, alpha, n, s) == pair_correlation_naive(
            elements, alpha, n, s
        ), s
    # multiples of q share residue 0 and pairs straddle 0 = 1 on the circle
    p_inv = pow(alpha.num, -1, q)
    wrapped = sorted({0, q, 3 * q, p_inv, (q - 1) * p_inv, q + (q - 2) * p_inv})
    for s in (0, 1, 2):
        assert pair_correlation(wrapped, alpha, 6, s) == pair_correlation_naive(
            wrapped, alpha, 6, s
        ), s


@pytest.mark.parametrize("q_bits", [65, 100, 300])
def test_masked_residues_of_negative_elements(q_bits):
    # a power of two q > 2**64 takes the residues by mask, which must reduce
    # a negative element to x mod q, as the oracle's literal modulo does
    q = 1 << q_bits
    rng = random.Random(q_bits)
    alpha = Alpha.rational(rng.getrandbits(q_bits) | 1, q)
    bases = [rng.randrange(q) for _ in range(20)] + [0, 1, q - 1]
    # b - q and b - 3q share b's residue from below 0, b + q from above q
    elements = sorted({b + m * q for b in bases for m in (-3, -1, 0, 1)} | {-1, -2})
    n = len(elements)
    for s in (Fraction(1, 2), 1, 3):
        assert pair_correlation(elements, alpha, n, s) == pair_correlation_naive(
            elements, alpha, n, s
        ), s
    for x in elements:
        if x % q:
            assert frac_mult(alpha, -x) == 1 - frac_mult(alpha, x), x


def circular_pairs_within(res, q, limit):
    return sum(
        1
        for i, a in enumerate(res)
        for b in res[i + 1:]
        if min((a - b) % q, (b - a) % q) <= limit
    )


def count_exact_residues(res, q, limits):
    """The pair counts of the exact residues ``res`` mod q, taken through
    the residue step (alpha = 1/q leaves them as they are) and the one
    counter, sorted as the evaluator sorts them."""
    words, _, exact = paircorr._residues(Alpha.rational(1, q), res)
    order = np.argsort(words)
    exact_at = exact and (lambda k: exact(order[k]))
    return paircorr._count_within_u64(words[order], q, limits, exact_at)


def test_wide_rank_count_at_the_wrap():
    # q just above 2**64: the residues are counted by their top words, and
    # pairs at the window edge are settled from the exact residues
    q = (1 << 64) + 13
    count = count_exact_residues
    assert count([0, q - 1], q, [-1, 0, 1]) == [0, 0, 1]
    assert count([17] * 1000, q, [0]) == [499_500]
    assert count([q - 1] * 1000, q, [0, 1]) == [499_500, 499_500]
    # for limit 5 the anchor q - 5 is the first that wraps (to 0, at distance
    # 5) and q - 6 the last that only looks ahead
    limit = 5
    res = [0, 1, q - limit - 1, q - limit]
    assert count(res, q, [limit - 1, limit, limit + 1]) == [2, 3, 5]
    for lim in range(-1, 9):
        assert count(res, q, [lim]) == [circular_pairs_within(res, q, lim)], lim
    # several limits in one call equal one call per limit
    rng = random.Random(64)
    res = sorted(rng.randrange(q) for _ in range(150))
    res += [res[0], res[-1], q - 1]
    res.sort()
    limits = [-1, 0, 1 << 58, 1 << 60, 1 << 62, q // 2 - 1, 1 << 60]
    together = count(res, q, limits)
    assert together == [count(res, q, [lim])[0] for lim in limits]
    assert together == [circular_pairs_within(res, q, lim) for lim in limits]


WIDE_Q = 3 * (1 << 64) + 1  # about three residues share each top word
WIDE_LIMIT = 10**17 + 3


def band_edges(q, limit):
    return (limit << 64) // q, -(-(limit << 64) // q)


def spy_edge_pairs(monkeypatch):
    calls = []

    def spy(words, q, limit, gaps, exact):
        calls.append(gaps)
        return edge_pairs(words, q, limit, gaps, exact)

    edge_pairs = paircorr._edge_pairs
    monkeypatch.setattr(paircorr, "_edge_pairs", spy)
    return calls


def top_word(r, q):
    return (r << 64) // q


def top_word_cell(t, q):
    """The residues mod q whose top word is t mod 2**64."""
    first = -(-(t * q) >> 64)  # the least r with top word >= t
    return [r % q for r in range(first, first + 4) if top_word(r, q) == t]


@pytest.mark.parametrize("edge", [0, 1])
def test_wide_count_at_top_word_distance_a_and_b(edge, monkeypatch):
    # every residue of a top-word cell is paired with every residue of the
    # cell A (or B) words ahead: some of those pairs are within the limit
    # and some are not, so only the exact residues settle them
    q, limit = WIDE_Q, WIDE_LIMIT
    a, b = band_edges(q, limit)
    assert b == a + 1
    gap = (a, b)[edge]
    res, cross = set(), []
    for r0 in (5, q // 7, q // 2 + 11, q - limit // 2):  # the last pairs across the wrap
        t = top_word(r0, q)
        bases, partners = top_word_cell(t, q), top_word_cell(t + gap, q)
        res.update(bases + partners)
        cross += [[x, y] for x in bases for y in partners]
    res = sorted(res)
    within = sum(circular_pairs_within(pair, q, limit) for pair in cross)
    assert 0 < within < len(cross)
    calls = spy_edge_pairs(monkeypatch)
    assert count_exact_residues(res, q, [limit]) == [circular_pairs_within(res, q, limit)]
    assert calls == [range(a, b + 1)]


def test_wide_count_skips_an_empty_band(monkeypatch):
    # residues far apart leave no pair at top-word distance A..B: the sweep
    # tells so, and no exact residue is looked up
    q, limit = WIDE_Q, WIDE_LIMIT
    rng = random.Random(3)
    res = sorted({rng.randrange(q) for _ in range(40)})
    calls = spy_edge_pairs(monkeypatch)
    for lim in (0, limit, 100 * limit):
        assert count_exact_residues(res, q, [lim]) == [circular_pairs_within(res, q, lim)]
    assert calls == []
    # one pair at the edge fills the band
    res = sorted(res + [(res[0] + limit) % q])
    assert count_exact_residues(res, q, [limit]) == [circular_pairs_within(res, q, limit)]
    a, b = band_edges(q, limit)
    assert calls == [range(a, b + 1)]


def test_wide_fixed_point_matches_rational():
    # bits > 64 counts the fixed-point residues by their top words
    rng = random.Random(128)
    bits, guard = 128, 64
    fixed = Alpha.fixed(rng.getrandbits(bits) | 1, bits, guard)
    exact = Alpha.rational(fixed.mantissa, 1 << bits)
    elements = sorted(rng.sample(range(1, 1 << 40), 200))
    for s in (Fraction(1, 2), 1, 3):
        r = pair_correlation(elements, fixed, 200, s)
        assert r == pair_correlation(elements, exact, 200, s), s
        assert r == pair_correlation_naive(elements, exact, 200, s), s
    with pytest.raises(PrecisionError):  # 66 bits + 64 guard > 128
        pair_correlation([1, 1 << 65], fixed, 2, 0)


# -- fixed point end to end --------------------------------------------------------


def test_fixed_point_matches_rational_when_clear():
    elements = list(range(1, 9))
    exact = Alpha.rational(1, 4)
    fixed = Alpha.fixed(1 << 62, 64, guard=32)
    for s in (Fraction(1, 2), 1, Fraction(3, 2)):
        assert pair_correlation(elements, fixed, 8, s) == pair_correlation(
            elements, exact, 8, s
        )
    # s = 2 puts pair distances exactly on the threshold: a mantissa cannot
    # certify which side the real dilation falls on, so fixed mode refuses
    with pytest.raises(PrecisionError):
        pair_correlation(elements, fixed, 8, 2)


def test_fixed_point_tie_raises():
    # alpha = 1/4 at width 16 with an 8-bit guard: on 1..4 with s=1 the pair
    # distances hit the threshold floor exactly, inside the guard window
    fixed = Alpha.fixed(16384, 16, 8)
    with pytest.raises(PrecisionError):
        pair_correlation([1, 2, 3, 4], fixed, 4, 1)
    # the same comparison is decidable in rational mode: residues 1,2,3,0
    # have four pairs at circle distance exactly 1/4 = s/N and two at 1/2
    assert pair_correlation([1, 2, 3, 4], Alpha.rational(1, 4), 4, 1) == 2


# -- regular system ---------------------------------------------------------------


def test_denominator_windows_frozen():
    assert SYSTEM.denominator_range(8) == range(13, 19)
    assert SYSTEM.denominator_range(10) == range(35, 53)
    with pytest.raises(ValueError, match=r"\["):
        SYSTEM.denominator_range(1)  # window [0.49, 0.74] holds no integer


def test_window_grows_with_level():
    uppers = [SYSTEM.upper(j) for j in range(5, 40)]
    assert all(a < b for a, b in zip(uppers, uppers[1:]))
    assert all(SYSTEM.lower(j) < SYSTEM.upper(j) for j in range(5, 40))


def test_candidates_ordering_and_reduction():
    cands = exceptional_alpha_candidates(SYSTEM, 10, limit=5)
    assert [(a.num, a.den) for a in cands] == [
        (1, 35), (2, 35), (3, 35), (4, 35), (6, 35)  # 5/35 is not reduced
    ]
    full = exceptional_alpha_candidates(SYSTEM, 8)
    assert all(math.gcd(a.num, a.den) == 1 for a in full)
    assert all(a.den in range(13, 19) for a in full)
    keys = [(a.den, a.num) for a in full]
    assert keys == sorted(keys)


def test_candidates_limit_zero_and_negative():
    assert exceptional_alpha_candidates(SYSTEM, 10, limit=0) == []
    assert len(exceptional_alpha_candidates(SYSTEM, 10, limit=1)) == 1
    with pytest.raises(ValueError, match="limit"):
        exceptional_alpha_candidates(SYSTEM, 10, limit=-1)


@functools.lru_cache(maxsize=None)
def _all_candidates(j):
    return exceptional_alpha_candidates(SYSTEM, j)


@given(j=st.integers(2, 14), data=st.data())
def test_candidate_at_picks_the_listed_candidate(j, data):
    full = _all_candidates(j)
    ranks = st.integers(len(full), len(full) + 3)
    index = data.draw(st.integers(0, len(full) - 1) | ranks if full else ranks)
    if index < len(full):
        assert paircorr._candidate_at(SYSTEM, j, index) == full[index]
    else:
        with pytest.raises(ValueError, match=f"has only {len(full)} candidates"):
            paircorr._candidate_at(SYSTEM, j, index)


def test_candidate_at_far_ranks():
    # level 40's first denominator holds more than 10^9 reduced fractions
    q = SYSTEM.denominator_range(40).start
    alpha = paircorr._candidate_at(SYSTEM, 40, 10**9)
    assert alpha.den == q and math.gcd(alpha.num, q) == 1
    # the last candidate of a level, and every one of a small level
    full = _all_candidates(10)
    assert [paircorr._candidate_at(SYSTEM, 10, i) for i in range(len(full))] == full
    with pytest.raises(BudgetError, match="trial divisions"):
        paircorr._candidate_at(SYSTEM, 40, 10**15)
    with pytest.raises(ValueError):
        paircorr._candidate_at(SYSTEM, 1, 0)  # level 1 has no denominator window


def test_rank_proxy_frozen():
    # ceil(q^2 / (25 pi^2)): 15^2 = 225 < 246.74 <= 16^2 = 256
    assert rank_of_denominator(13) == 1
    assert rank_of_denominator(15) == 1
    assert rank_of_denominator(16) == 2
    assert rank_of_denominator(35) == 5
    assert rank_of_denominator(1000) == 4053


def test_perturbed_alpha_contract():
    cand = Alpha.rational(1, 35)
    default = perturbed_alpha(cand, SYSTEM)
    radius = Fraction(psi(ILOG1, THETA, 5))  # rank(35) = 5
    assert default.value == Fraction(1, 35) + radius / 2
    assert perturbed_alpha(cand, SYSTEM, eta=Fraction(0)).value == Fraction(1, 35)
    assert perturbed_alpha(cand, SYSTEM, eta=radius).value == Fraction(1, 35) + radius
    with pytest.raises(ValueError):
        perturbed_alpha(cand, SYSTEM, eta=radius * 2)
    with pytest.raises(ValueError):
        perturbed_alpha(cand, SYSTEM, eta=Fraction(-1, 10**9))
    with pytest.raises(ValueError):
        perturbed_alpha(Alpha.fixed(1, 8, 4), SYSTEM)


def test_perturbation_controls_denominator_orbit():
    # the whole point of the shift: alpha = p/q + eta puts multiples of q at
    # exactly m*q*eta from an integer
    eta = Fraction(1, 10**6)
    alpha = perturbed_alpha(Alpha.rational(1, 35), SYSTEM, eta=eta)
    for m in (1, 2, 7):
        assert frac_mult(alpha, m * 35) == m * 35 * eta


def test_targeting_eta_fires_all_multiples():
    seq = build_blocks(ILOG1, 0.7, 0.45, 8)
    t, q = seq.checkpoint(8), 13
    eta = targeting_eta(seq, 8, q, 1)
    assert eta == Fraction(1, 31200)  # 1/(2 * 240 * 13 * (77 // 13))
    alpha = perturbed_alpha(Alpha.rational(1, q), SYSTEM, eta=eta)
    run = seq.a_block(8).length
    for m in range(1, run // q + 1):
        dist = frac_mult(alpha, m * q)
        dist = min(dist, 1 - dist)
        assert dist == m * q * eta <= Fraction(1, t)  # inside the s/N window


def test_probe_statistic_frozen_small_scale():
    # level-8 targeting at (0.7, 0.45): far above the Poissonian 2s = 2
    seq = build_blocks(ILOG1, 0.7, 0.45, 8)
    eta = targeting_eta(seq, 8, 13, 1)
    alpha = perturbed_alpha(Alpha.rational(1, 13), SYSTEM, eta=eta)
    assert pair_correlation(seq, alpha, seq.checkpoint(8), 1) == Fraction(39, 5)


# -- divergence probe ---------------------------------------------------------------


def test_divergence_probe_points():
    seq = build_blocks(ILOG1, 0.7, 0.45, 6)
    alpha = Alpha.rational(1, 13)
    traj = divergence_probe(seq, alpha, 1, [6, 4, 5, 6], SYSTEM)
    assert [p.level for p in traj.points] == [4, 5, 6]
    for p in traj.points:
        assert p.n == seq.checkpoint(p.level)
        assert p.r == pair_correlation(seq, alpha, p.n, 1)
        x = 2.0**p.level
        expect = ILOG1(x) ** (2 * 0.45 - 0.7) * THETA(x) ** (1 / 3)
        assert p.predicted == pytest.approx(expect)
        assert p.predicted > 0


# -- Monte Carlo --------------------------------------------------------------------


def test_monte_carlo_deterministic_and_frozen():
    seq = classic("power", 100, 2)
    res1 = monte_carlo_ppc(seq, seed=42, trials=4, schedule=[50, 100], s_values=[1])
    res2 = monte_carlo_ppc(seq, seed=42, trials=4, schedule=[50, 100], s_values=[1])
    assert res1.rows == res2.rows
    first = res1.rows[0]
    # frozen: the seed-42 trial-0 dilation and its statistic on the squares
    assert first.alpha.num == 13390558966684543671
    assert first.alpha.den == 1 << 64
    assert res1.rows[1].r == Fraction(38, 25)  # (n=100, s=1) row of trial 0
    assert [((r.trial, r.n)) for r in res1.rows[:4]] == [(0, 50), (0, 100), (1, 50), (1, 100)]


LITERAL_FAMILIES = [
    ("identity", 3000, 0, [k for k in range(1, 3001)]),
    ("power", 3000, 2, [k**2 for k in range(1, 3001)]),
    ("power", 130, 9, [k**9 for k in range(1, 131)]),  # 128**9 = 2**63
    ("primes", 500, 0, [p for p in range(2, 3572) if is_probable_prime(p)]),
    ("lacunary", 62, 2, [2**k for k in range(1, 63)]),
    ("lacunary", 70, 3, [3**k for k in range(1, 71)]),  # 3**40 > 2**63
]


@pytest.mark.parametrize("family, n, param, literal", LITERAL_FAMILIES,
                         ids=[f"{f}-{n}-{d}" for f, n, d, _ in LITERAL_FAMILIES])
def test_monte_carlo_on_stored_families_equals_plain_lists(family, n, param, literal):
    seq = classic(family, n, param)
    schedule = [n // 3, n]
    stored = monte_carlo_ppc(seq, seed=7, trials=3, schedule=schedule, s_values=[0, 1, 3])
    # the members are read as they are stored, and no list is built from them
    assert "elements" not in vars(seq)
    plain = monte_carlo_ppc(literal, seed=7, trials=3, schedule=schedule, s_values=[0, 1, 3])
    assert stored.rows == plain.rows
    words = paircorr._reduced(seq.members, n, 1 << 64)
    assert words.dtype == np.uint64 and words.tolist() == [x % (1 << 64) for x in literal]
    if isinstance(seq.members, np.ndarray):  # a view, not a copy
        assert np.shares_memory(words, seq.members)


@pytest.mark.parametrize("family, n, param, literal", LITERAL_FAMILIES,
                         ids=[f"{f}-{n}-{d}" for f, n, d, _ in LITERAL_FAMILIES])
def test_pair_correlation_on_stored_families_equals_plain_lists(family, n, param, literal):
    # every q reads a family from its stored members, an int64 array or a
    # list, and its list of Python ints is never built
    for alpha in (Alpha.rational(12345678901, 1 << 64), Alpha.rational(3, 1 << 20),
                  Alpha.rational(0), Alpha.rational(5, 97), Alpha.rational(7, (1 << 32) + 15),
                  Alpha.rational(12345678901234567, (1 << 64) + 13)):
        seq = classic(family, n, param)
        for s in (Fraction(1, 2), 1, 3):
            assert pair_correlation(seq, alpha, n, s) == pair_correlation(literal, alpha, n, s)
        assert "elements" not in vars(seq)


@pytest.mark.parametrize("q", [97, 1 << 20, (1 << 40) + 15, (1 << 64) + 13])
def test_pair_correlation_on_a_raw_int64_array_with_negative_members(q, monkeypatch):
    # numpy's % of an int64 array is x mod q for either sign; its words, the
    # two's complement x mod 2**64, are right only where q divides 2**64.
    # Above 2**32 the members become Python ints 64 at a time here.
    monkeypatch.setattr(paircorr, "_SEARCH_CHUNK", 64)
    rng = np.random.default_rng(97)
    members = rng.integers(-(1 << 62), 1 << 62, size=400, dtype=np.int64)
    members[:3] = [-1, -(1 << 63), (1 << 63) - 1]
    alpha = Alpha.rational(12345678901234567 % q or 1, q)
    for n in (333, 400):
        for s in (Fraction(1, 2), 1, 5):
            assert (pair_correlation(members, alpha, n, s)
                    == pair_correlation(members.tolist(), alpha, n, s))


def test_monte_carlo_leaves_the_squares_as_words():
    seq = classic("power", 10**5)
    monte_carlo_ppc(seq, seed=1, trials=2, schedule=[10**4, 10**5], s_values=[1])
    assert "elements" not in vars(seq)


def test_monte_carlo_memory_on_a_million_squares():
    # the squares stay one int64 array, viewed as words: no list of 10^6
    # Python ints and no second word array (with both, the peak is 54 MiB)
    tracemalloc.start()
    try:
        monte_carlo_ppc(classic("power", 10**6), seed=1, trials=1, schedule=[10**6],
                        s_values=[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_monte_carlo_alphas_odd_and_distinct():
    seq = classic("power", 60, 2)
    res = monte_carlo_ppc(seq, seed=9, trials=10, schedule=[60], s_values=[1])
    nums = [r.alpha.num for r in res.rows]
    assert len(set(nums)) == 10
    assert all(n % 2 == 1 for n in nums)


def test_monte_carlo_s_zero_sees_no_collisions():
    # odd k over 2^64 is invertible, so distinct elements keep distinct residues
    seq = classic("power", 300, 2)
    res = monte_carlo_ppc(seq, seed=3, trials=3, schedule=[300], s_values=[0])
    assert all(r.r == 0 for r in res.rows)


def test_monte_carlo_accessors_and_validation():
    seq = classic("power", 80, 2)
    res = monte_carlo_ppc(seq, seed=1, trials=6, schedule=[40, 80], s_values=[1, 2])
    assert len(res.rows) == 6 * 2 * 2
    assert 0 < res.mean_r(80, 1) < 80
    assert 0 <= res.exceed_fraction(80, 1) <= 1
    with pytest.raises(ValueError):
        res.mean_r(81, 1)
    with pytest.raises(ValueError):
        monte_carlo_ppc(seq, seed=1, trials=0, schedule=[40], s_values=[1])
    with pytest.raises(ValueError):
        monte_carlo_ppc(seq, seed=1, trials=2, schedule=[81], s_values=[1])
    with pytest.raises(ValueError):
        monte_carlo_ppc(seq, seed=1, trials=2, schedule=[], s_values=[1])


def test_monte_carlo_sorts_and_drops_repeated_grid_values():
    seq = classic("power", 80, 2)
    messy = monte_carlo_ppc(seq, seed=5, trials=2, schedule=[80, 40, 80],
                            s_values=["1", "1/2", "1"])
    clean = monte_carlo_ppc(seq, seed=5, trials=2, schedule=[40, 80],
                            s_values=[Fraction(1, 2), 1])
    assert messy.rows == clean.rows
    assert [(r.trial, r.n, r.s) for r in clean.rows] == [
        (t, n, s) for t in range(2) for n in (40, 80) for s in (Fraction(1, 2), 1)
    ]


class UnreadableElements(Sequence):
    """A sequence whose length is known but whose elements must not be read."""

    def __len__(self):
        return 100

    def __getitem__(self, index):
        raise AssertionError("elements read before the input was checked")


def _refuse_conversion(monkeypatch):
    def convert(*args):
        raise AssertionError("residues computed before the input was checked")

    monkeypatch.setattr(paircorr, "_reduced", convert)
    monkeypatch.setattr(paircorr, "_residues", convert)


@pytest.mark.parametrize("schedule, s_values", [
    ([50, 100], [1, "-1/2"]),  # a negative window after a good one
    ([0, 100], [1]),           # N = 0
    ([50, 101], [1]),          # past the end of the sequence
])
def test_monte_carlo_refuses_a_bad_grid_before_any_work(monkeypatch, schedule, s_values):
    _refuse_conversion(monkeypatch)
    with pytest.raises(ValueError):
        monte_carlo_ppc(UnreadableElements(), seed=1, trials=3, schedule=schedule,
                        s_values=s_values)


@pytest.mark.parametrize("s, levels", [("-1/2", [4, 5]), (1, [4, 7]), (1, [0, 4])])
def test_divergence_probe_refuses_bad_input_before_any_work(monkeypatch, s, levels):
    seq = build_blocks(ILOG1, 0.7, 0.45, 6)
    _refuse_conversion(monkeypatch)
    with pytest.raises(ValueError):
        divergence_probe(seq, Alpha.rational(1, 13), s, levels, SYSTEM)


# -- primality and baseline dilations ------------------------------------------------


def test_miller_rabin_exhaustive_small():
    limit = 100_000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    for n in range(limit + 1):
        assert is_probable_prime(n) == bool(sieve[n]), n


def test_miller_rabin_carmichael_and_known_primes():
    for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_probable_prime(carmichael)
    assert is_probable_prime((1 << 61) - 1)  # Mersenne
    assert is_probable_prime((1 << 64) - 59)  # largest 64-bit prime
    assert not is_probable_prime((1 << 61) + 1)  # divisible by 3
    assert not is_probable_prime(-7)


def test_random_prime_alpha_properties():
    rng = random.Random(123)
    a = random_prime_alpha(rng, 64, min_power_order=128)
    q = a.den
    assert q.bit_length() == 64 and is_probable_prime(q)
    assert 1 <= a.num < q
    assert all(pow(2, k, q) != 1 for k in range(1, 129))
    # deterministic under a fixed stream
    b = random_prime_alpha(random.Random(123), 64, min_power_order=128)
    assert (a.num, a.den) == (b.num, b.den)
    with pytest.raises(ValueError):
        random_prime_alpha(rng, 4)


def test_random_prime_alpha_refuses_an_order_no_prime_meets():
    # the order of 2 mod q is at most q - 1, and 251 is the largest prime
    # below 2^8: 254 = 2^8 - 2 is refused up front, 250 after its draws
    for order in (254, 250):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="power order"):
            random_prime_alpha(random.Random(0), 8, order)
        assert time.perf_counter() - start < 1.0
    # orders some 8-bit prime meets still give the same draws
    for order, fraction in ((127, (11, 181)), (200, (180, 211))):
        alpha = random_prime_alpha(random.Random(0), 8, order)
        assert (alpha.num, alpha.den) == fraction
