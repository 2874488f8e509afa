"""Unit tests for the block construction and classic families.

The block-construction oracle is direct evaluation of the two floor formulas
for the per-level lengths, plus structural recomputation: consecutive runs
must be literal integer ranges and geometric blocks must sit at power-of-two
offsets from twice the run start.
"""

import math
import sys

import numpy as np
import pytest

from ppclab import sequences
from ppclab.growth import GrowthFunction
from ppclab.sequences import (
    MAX_BITS,
    BlockParams,
    BudgetError,
    ClassicSequence,
    as_elements,
    build_blocks,
    classic,
    max_element_bits,
    read_sequence,
    rebuild_from_meta,
    truncate,
    write_sequence,
)

ILOG1 = GrowthFunction("ilog", r=1)


def formula_lengths(f, beta, gamma, j):
    """The floor formulas, evaluated independently of BlockParams."""
    if j == 1:
        return 0, 2
    fj = f(2.0**j)
    la = math.floor(2.0**j / fj**beta)
    lg = math.floor((2.0**j / fj**gamma) * (1.0 - fj ** (gamma - beta)))
    return la, lg


def test_level_one_seed():
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 1)
    assert seq.elements == [1, 2]
    assert seq.checkpoint(1) == 2
    assert seq.a_block(1).length == 0
    assert seq.g_block(1).length == 2


def test_block_lengths_match_formulas_j12():
    beta, gamma = 2 / 3, 1 / 3
    seq = build_blocks(ILOG1, beta, gamma, 12)
    for j in range(1, 13):
        la, lg = formula_lengths(ILOG1, beta, gamma, j)
        assert seq.a_block(j).length == la, f"A length at level {j}"
        assert seq.g_block(j).length == lg, f"G length at level {j}"


def test_block_lookup_by_level():
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 9)
    for j in range(1, 10):
        # the index lookup returns the block a scan by (level, kind) finds
        for kind, lookup in (("A", seq.a_block), ("G", seq.g_block)):
            found = [b for b in seq.blocks if b.level == j and b.kind == kind]
            assert [lookup(j)] == found
    for j in (0, -1, 10):
        with pytest.raises(ValueError):
            seq.a_block(j)
        with pytest.raises(ValueError):
            seq.g_block(j)


def test_structure_runs_and_powers():
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 10)
    elems = seq.elements
    assert all(a < b for a, b in zip(elems, elems[1:]))
    for j in range(2, 11):
        a = seq.a_block(j)
        if a.length:
            run = seq.block_values(a)
            assert run == list(range(run[0], run[0] + a.length))
            g = seq.g_block(j)
            if g.length:
                geo = seq.block_values(g)
                base = 2 * run[0]
                offsets = [x - base for x in geo]
                assert offsets == [1 << i for i in range(1, g.length + 1)]


def test_checkpoints_frozen_small_levels():
    # hand-checked: the level-2 run is {4,5}; level 3 restarts at 4 (the
    # level-2 geometric block is empty) and contributes only {6,7} plus {10}
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 8)
    assert seq.checkpoints == (2, 4, 7, 18, 38, 77, 151, 294)
    assert seq.elements[:9] == [1, 2, 4, 5, 6, 7, 10, 20, 21]


def test_checkpoints_count_distinct_elements():
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 12)
    for j in range(1, 13):
        assert seq.checkpoint(j) == len(set(seq.elements[: seq.checkpoint(j)]))
    assert seq.checkpoint(12) == len(seq.elements)
    with pytest.raises(ValueError):
        seq.checkpoint(13)


def test_max_element_bits_level8():
    # top element is 2*C_8 + 2^62 with C_8 just above 2^31: 63 bits
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 8)
    assert max_element_bits(seq) == 63
    assert max(seq.elements) == seq.elements[-1]


def test_param_validation():
    with pytest.raises(ValueError):
        BlockParams(ILOG1, beta=0.3, gamma=0.5, j_max=4)  # gamma > beta
    with pytest.raises(ValueError):
        BlockParams(ILOG1, beta=0.8, gamma=0.3, j_max=4)  # beta too large
    with pytest.raises(ValueError):
        BlockParams(ILOG1, beta=2 / 3, gamma=1 / 3, j_max=0)


def test_geometric_member_inside_run_is_shared():
    # with beta just under 3/4 and gamma = 0.55 on the power family, the
    # level-4 run grows to {4..11} and the single geometric member 2*4 + 2
    # = 10 lands inside it: the union keeps one copy and records the overlap
    f = GrowthFunction("pow", a=1 / 3)
    seq = build_blocks(f, 0.7499, 0.55, 4)
    g = seq.g_block(4)
    assert g.length == 1 and g.shared == (10,)
    assert seq.block_values(g) == [10]
    assert seq.block_values(seq.a_block(4)) == list(range(4, 12))
    assert all(a < b for a, b in zip(seq.elements, seq.elements[1:]))
    # the next level keys off the geometric maximum even when it is shared
    assert seq.checkpoints[-1] == len(seq.elements)


def test_probe_parameters_build_with_shared_member():
    # (beta, gamma) = (0.7, 0.45): geometric blocks are empty through level
    # 3, so the level-4 run {4..10} reaches the first geometric member
    # 2*4 + 2 = 10; the union dedups it and the level-5 run restarts at
    # 2 * (2 * max{10, 12}) = 48 / 2 ... i.e. C_5 = 2 * 12 = 24
    seq = build_blocks(ILOG1, 0.7, 0.45, 5)
    assert seq.elements[:10] == [1, 2, 4, 5, 6, 7, 8, 9, 10, 12]
    assert seq.g_block(4).shared == (10,)
    assert seq.block_values(seq.g_block(4)) == [10, 12]
    assert seq.block_values(seq.a_block(5))[0] == 24


def test_budget_refusal(tmp_path):
    # T_25 holds its C_j, about 8 * 10^6 bits, but its members would take
    # about 1.1 * 10^14: the element list, a truncation to them all and the
    # block file are each refused before any member is formed
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 25)
    with pytest.raises(BudgetError, match="element bits exceed"):
        seq.elements
    with pytest.raises(BudgetError, match="element bits exceed"):
        truncate(seq, len(seq))
    path = tmp_path / "t25.txt"
    with pytest.raises(BudgetError, match="element bits exceed"):
        write_sequence(path, seq)
    assert not path.exists() and "elements" not in seq.__dict__
    # a prefix charges only its own members
    assert truncate(seq, 100) == build_blocks(ILOG1, 2 / 3, 1 / 3, 9).elements[:100]
    # the C_j through T_40 alone, about 2.5 * 10^11 bits, are refused
    # before any is formed
    with pytest.raises(BudgetError, match="bits of C_j"):
        build_blocks(ILOG1, 2 / 3, 1 / 3, 40)


@pytest.mark.parametrize("beta, gamma", [(2 / 3, 1 / 3), (0.7, 0.45)])
def test_element_charge_admits_t18_and_refuses_t19(beta, gamma):
    # about 7.66 * 10^9 and 3.01 * 10^10 bits for (2/3, 1/3), 3.29 * 10^9
    # and 1.28 * 10^10 for (0.7, 0.45), against MAX_BITS = 2^33
    def parts(j_max):
        return build_blocks(ILOG1, beta, gamma, j_max).own_parts()

    assert sequences._charge_elements(parts(18)) <= MAX_BITS
    with pytest.raises(BudgetError, match="element bits exceed"):
        sequences._charge_elements(parts(19))


def test_lowered_cap_refuses_the_c_j(monkeypatch):
    at12 = sequences._c_bits(BlockParams(ILOG1, 2 / 3, 1 / 3, 12).levels())
    monkeypatch.setattr(sequences, "MAX_BITS", at12 - 1)
    build_blocks(ILOG1, 2 / 3, 1 / 3, 11)
    with pytest.raises(BudgetError, match=f"about {at12} bits of C_j through level 12"):
        build_blocks(ILOG1, 2 / 3, 1 / 3, 12)


def test_charges_cover_what_they_charge():
    for j_max in (4, 8, 12):
        seq = build_blocks(ILOG1, 2 / 3, 1 / 3, j_max)
        held = sum(seq.a_block(j).c.bit_length() for j in range(2, j_max + 1))
        assert held <= sequences._c_bits(seq.params.levels())
        actual = sum(x.bit_length() for x in seq.elements)
        assert actual <= sequences._charge_elements(seq.own_parts())


@pytest.mark.parametrize("beta, gamma", [(2 / 3, 1 / 3), (0.7, 0.45)])
def test_truncate_and_max_bits_read_the_parts(beta, gamma):
    seq = build_blocks(ILOG1, beta, gamma, 14)
    bits = max_element_bits(seq)
    prefixes = [truncate(seq, n) for n in (0, *seq.checkpoints)]
    assert "elements" not in seq.__dict__
    assert bits == seq.elements[-1].bit_length()
    assert prefixes == [seq.elements[:n] for n in (0, *seq.checkpoints)]


# -- classic families ---------------------------------------------------------


def test_classic_families():
    assert classic("identity", 5).elements == [1, 2, 3, 4, 5]
    assert classic("power", 5).elements == [1, 4, 9, 16, 25]
    assert classic("power", 4, param=3).elements == [1, 8, 27, 64]
    assert classic("primes", 10).elements == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert classic("lacunary", 6).elements == [2, 4, 8, 16, 32, 64]
    assert classic("lacunary", 4, param=3).elements == [3, 9, 27, 81]
    with pytest.raises(ValueError):
        classic("fibonacci", 5)
    with pytest.raises(ValueError):
        classic("identity", 0)


@pytest.mark.parametrize("n, d", [(127, 9), (128, 9), (129, 9), (1, 1), (50, 1),
                                  (1000, 2), (3000, 5), (2000, 6), (2097151, 3)])
def test_power_family_on_both_sides_of_int64(n, d):
    # 128**9 = 2**63: up to n = 127 the powers are built in int64, from 128 on
    # as Python ints; both must give the same Python ints
    elements = classic("power", n, d).elements
    assert elements == [k**d for k in range(1, n + 1)]
    assert all(type(x) is int for x in elements)


def _literal_primes(n):
    primes, k = [], 1
    while len(primes) < n:
        k += 1
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
    return primes


LITERAL = {
    "identity": lambda n, q: list(range(1, n + 1)),
    "primes": lambda n, q: _literal_primes(n),
    "lacunary": lambda n, q: [q**k for k in range(1, n + 1)],
}


# 2**62 and 3**39 fit an int64, 2**63 and 3**40 do not, so each lacunary pair
# sits on both sides of it; identity and primes are always int64 here
@pytest.mark.parametrize("family, n, param", [
    ("identity", 1, 0), ("identity", 2000, 0),
    ("primes", 1, 0), ("primes", 5, 0), ("primes", 6, 0), ("primes", 3000, 0),
    ("lacunary", 62, 2), ("lacunary", 63, 2), ("lacunary", 39, 3), ("lacunary", 40, 3),
])
def test_classic_family_on_both_sides_of_int64(family, n, param):
    seq = classic(family, n, param)
    elements = seq.elements
    assert elements == LITERAL[family](n, param or 2)
    assert all(type(x) is int for x in elements)
    # below 2**63 the members are one read-only int64 array, above Python ints
    if elements[-1] < 1 << 63:
        assert seq.members.dtype == np.int64 and not seq.members.flags.writeable
    else:
        assert seq.members is elements


def test_classic_sequence_is_identified_by_family_n_param():
    stored = classic("power", 5)
    assert "elements" not in vars(stored)  # the list is built on demand
    plain = ClassicSequence("power", 5, 2, [1, 4, 9, 16, 25])
    assert stored == plain and hash(stored) == hash(plain)
    assert stored.elements is stored.elements  # built once, then kept
    assert classic("power", 5) != classic("power", 5, 3)


def test_primes_against_reference_count():
    # pi(10^4) = 1229 is a classical table value
    primes = classic("primes", 1229).elements
    assert primes[-1] == 9973
    assert all(all(p % d for d in range(2, math.isqrt(p) + 1)) for p in primes[:200])


def test_truncate():
    seq = classic("identity", 10)
    assert truncate(seq, 3) == [1, 2, 3]
    assert truncate([5, 6, 7], 2) == [5, 6]
    with pytest.raises(ValueError):
        truncate(seq, 11)


# -- file round trips -----------------------------------------------------------


def test_file_round_trip_plain(tmp_path):
    path = tmp_path / "seq.txt"
    write_sequence(path, [3, 17, 99], meta={"family": "custom"})
    elems, meta = read_sequence(path)
    assert elems == [3, 17, 99]
    assert meta["family"] == "custom"


def test_file_round_trip_blocks(tmp_path):
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 8)
    path = tmp_path / "blocks.txt"
    write_sequence(path, seq)
    elems, meta = read_sequence(path)
    assert elems == seq.elements
    rebuilt = rebuild_from_meta(meta)
    assert rebuilt.elements == seq.elements
    assert rebuilt.checkpoints == seq.checkpoints


def test_file_rejects_non_increasing(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\n5\n5\n9\n")
    with pytest.raises(ValueError, match="line 3"):
        read_sequence(path)
    path.write_text("1\ntwo\n")
    with pytest.raises(ValueError, match="line 2"):
        read_sequence(path)


def test_file_round_trip_past_the_decimal_digit_cap(tmp_path):
    # the interpreter caps int <-> str conversions at 4300 digits by default;
    # the file format lifts the cap for each call and puts it back after
    cap = sys.get_int_max_str_digits()
    huge = 7 * 10**5200 + 3  # 5201 digits
    path = tmp_path / "huge.txt"
    write_sequence(path, [1, huge, huge + 1])
    assert sys.get_int_max_str_digits() == cap
    assert read_sequence(path)[0] == [1, huge, huge + 1]
    assert sys.get_int_max_str_digits() == cap


class FailingElements(list):
    """Elements whose iteration fails after the first few."""

    def __iter__(self):
        yield from (1, 2, 3)
        raise MemoryError("out of memory")


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "partial.txt"
    with pytest.raises(MemoryError):
        write_sequence(path, FailingElements(), meta={"family": "custom"})
    assert not path.exists()
    assert list(tmp_path.iterdir()) == []


def test_as_elements_passthrough():
    assert as_elements([1, 2, 3]) == [1, 2, 3]
    assert as_elements(classic("identity", 3)) == [1, 2, 3]
