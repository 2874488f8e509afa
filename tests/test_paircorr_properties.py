"""Property tests: the pair-correlation routes agree on small sets.

Moduli cover both production sweeps (uint64 for q <= 2**64, Python ints
above) and their edges: q = 1 and 2, powers of two, the Mersenne prime
2**61 - 1, q = 2**64 - 59 (where r + limit wraps past 2**64) and q = 2**64.
Residues include 0, q - 1 and repeats; the window runs from limit = 0 to
the largest limit below q/2.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppclab.paircorr import (
    Alpha,
    PrecisionError,
    pair_correlation,
    pair_correlation_naive,
    pair_correlation_via_reps,
)

U64 = 1 << 64

# each kind of modulus gets its own examples, so no edge depends on the draw
MODULI = {
    "1": st.just(1),
    "2": st.just(2),
    "2^k": st.integers(2, 64).map(lambda k: 1 << k),
    "2^61-1": st.just((1 << 61) - 1),
    "2^64-59": st.just(U64 - 59),
    "2^64": st.just(U64),
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


@pytest.mark.parametrize("kind", MODULI)
@given(data=st.data())
def test_three_routes_agree(kind, data):
    elements, alpha, s = data.draw(instances(MODULI[kind]))
    n = len(elements)
    r = pair_correlation(elements, alpha, n, s)
    assert r == pair_correlation_naive(elements, alpha, n, s)
    assert r == pair_correlation_via_reps(elements, alpha, n, s)


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
