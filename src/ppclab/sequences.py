"""Integer sequences under study: the two-block construction and classics.

The main constructor interleaves, level by level, a run of consecutive
integers (an "A block", maximal additive structure) with a sparse geometric
tail (a "G block", powers of two shifted far to the right).  The relative
sizes are steered by a growth function f and two exponents gamma < beta; the
A blocks make the additive energy of every truncation large while the G
blocks keep the counting function long enough that the energy still falls
below the classical threshold.

Elements grow doubly exponentially (the top G element at level j has on the
order of 2^j bits), so everything is plain Python big integers.  A block
sequence holds its blocks, each a run C + [0, L) or a family 2C + 2^i, and
forms its element list from them only when asked for it.  Each bit budget
sits where its bits are formed, against one cap ``MAX_BITS``: the build
charges the C_j it holds, and the element list, a truncation and a block
file each charge the members they form, from the parts of the blocks, before
forming any.  Classic comparison families (identity, powers, primes,
lacunary) live here too, held as int64 words while their members fit one,
as does the one-integer-per-line file format shared with the CLI, whose
block files one chunk generator writes and checks.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from functools import cached_property
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .growth import GrowthFunction, _parse_number, parse_growth

__all__ = [
    "BlockParams",
    "Block",
    "BlockSequence",
    "ClassicSequence",
    "BudgetError",
    "build_blocks",
    "classic",
    "truncate",
    "max_element_bits",
    "write_sequence",
    "read_sequence",
    "load_sequence",
    "as_elements",
]


class BudgetError(Exception):
    """A requested computation exceeds its configured resource budget."""


@dataclass(frozen=True)
class BlockParams:
    """Construction parameters: growth function and exponents 0 < gamma < beta < 3/4."""

    f: GrowthFunction
    beta: float
    gamma: float
    j_max: int

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < self.beta < 0.75):
            raise ValueError(
                f"need 0 < gamma < beta < 3/4, got gamma={self.gamma}, beta={self.beta}"
            )
        if self.j_max < 1:
            raise ValueError("j_max must be >= 1")

    def a_len(self, j: int) -> int:
        """Length of the consecutive run at level j (0 at level 1)."""
        return self.lengths(j)[0]

    def g_len(self, j: int) -> int:
        """Number of geometric elements at level j (2 at level 1)."""
        return self.lengths(j)[1]

    def lengths(self, j: int) -> tuple[int, int]:
        """(a_len(j), g_len(j)), from one value of f(2^j)."""
        if j == 1:
            return 0, 2
        fj = self.f(2.0**j)
        return (math.floor(2.0**j * fj**-self.beta),
                math.floor(fj**-self.gamma * 2.0**j * (1.0 - fj ** (self.gamma - self.beta))))

    def levels(self) -> list[tuple[int, int]]:
        """``lengths(j)`` for j = 2 .. j_max."""
        return [self.lengths(j) for j in range(2, self.j_max + 1)]


@dataclass(frozen=True)
class Block:
    """One block's membership.  ``length`` is the size of the block as a set.

    ``c`` is the level's C_j: an "A" block holds the run c + [0, length), a
    "G" block the members 2c + 2^i for i = 1..length (level 1, whose c is
    0, holds the seed {1, 2} in its "G" block and nothing in its "A" block).
    The element list is a set union, so a block can share members with
    earlier blocks.  Consecutive runs stay contiguous in storage, so for an
    "A" block the values are ``elements[start_index : start_index+length]``
    even when the run restarted over an earlier one.  A geometric block lists
    any already-present members in ``shared``; its remaining
    ``length - len(shared)`` values sit at ``start_index``."""

    level: int
    kind: str  # "A" or "G"
    start_index: int
    length: int
    shared: tuple[int, ...] = ()
    c: int = 0


@dataclass(frozen=True)
class BlockSequence:
    """The blocks of the construction and their checkpoints.  The element
    list is formed from the blocks on first access, once its bits are
    within ``MAX_BITS``, and kept; ``len()``, the block files, truncations
    and the residues of ``paircorr`` read the blocks."""

    params: BlockParams
    blocks: tuple[Block, ...]
    checkpoints: tuple[int, ...]  # checkpoints[j-1] = #elements through level j

    def __len__(self) -> int:
        return self.checkpoints[-1]

    @cached_property
    def elements(self) -> list[int]:
        return _members(self.own_parts())

    def own_parts(self) -> Iterator[tuple[bool, int, int, int]]:
        """The members each block adds to the union, in storage order, as
        ``(geometric, base, lo, hi)``: base + 2^k for lo <= k < hi from a
        geometric block, base + k for lo <= k < hi from a run.  A restarted
        run adds the members above the last one stored; the level-1 seed is
        the run 1 + [0, 2)."""
        done = 0
        for b in self.blocks:
            hi = b.start_index + b.length - len(b.shared)  # the end of its storage
            if hi <= done:
                continue
            if b.level == 1:
                yield False, 1, 0, 2
            elif b.kind == "A":
                yield False, b.c, done - b.start_index, b.length
            else:  # the shared members are the least, 2c + 2^i for i <= len(shared)
                yield True, 2 * b.c, len(b.shared) + 1, b.length + 1
            done = hi

    def parts(self, n: int) -> Iterator[tuple[bool, int, int, int]]:
        """``own_parts()`` through the first n members, the last part cut."""
        for geometric, base, lo, hi in self.own_parts():
            if n <= 0:
                return
            hi = min(hi, lo + n)
            n -= hi - lo
            yield geometric, base, lo, hi

    def member(self, i: int) -> int:
        """The member at index 0 <= i < len(self), formed from its part."""
        if not 0 <= i < len(self):
            raise IndexError(f"member {i} outside 0..{len(self) - 1}")
        for geometric, base, lo, hi in self.own_parts():
            if i < hi - lo:
                return base + (1 << lo + i) if geometric else base + lo + i
            i -= hi - lo

    def checkpoint(self, j: int) -> int:
        if not (1 <= j <= self.params.j_max):
            raise ValueError(f"level {j} outside built range 1..{self.params.j_max}")
        return self.checkpoints[j - 1]

    def a_block(self, j: int) -> Block:
        return self._block(j, "A")

    def g_block(self, j: int) -> Block:
        return self._block(j, "G")

    def _block(self, j: int, kind: str) -> Block:
        # build_blocks appends the A block and then the G block of every
        # level, so level j sits at blocks[2(j-1)] and blocks[2(j-1) + 1]
        if not (1 <= j <= self.params.j_max):
            raise ValueError(f"no {kind} block at level {j}")
        b = self.blocks[2 * (j - 1) + (kind == "G")]
        if b.level != j or b.kind != kind:  # defensive: the layout above
            raise AssertionError(f"block layout broken at level {j}: found {b}")
        return b

    def block_values(self, block: Block) -> list[int]:
        """The block's members in increasing order, shared ones included."""
        if block.level == 1:
            return [1, 2] if block.kind == "G" else []
        if block.kind == "A":
            return list(range(block.c, block.c + block.length))
        return [2 * block.c + (1 << i) for i in range(1, block.length + 1)]


SequenceLike = Union[BlockSequence, "ClassicSequence", Sequence[int]]

# the bits any one charge admits: the C_j of a build, or the members of one
# element list or block file.  1 GiB of raw bits, far above anything the
# experiments need, turns an accidental j_max into a clean refusal instead
# of running out of memory.
MAX_BITS = 1 << 33


def _part_top(geometric: bool, base: int, hi: int) -> int:
    """The largest member of the part (geometric, base, lo, hi)."""
    return base + (1 << (hi - 1)) if geometric else base + hi - 1


def _charge_elements(parts: Iterable[tuple[bool, int, int, int]]) -> int:
    """The bits of the members of ``parts``, counted as each part's size
    times the bits of its largest member; refused when they exceed
    ``MAX_BITS``, before a list or a file of them is formed."""
    bits = sum((hi - lo) * _part_top(geometric, base, hi).bit_length()
               for geometric, base, lo, hi in parts)
    if bits > MAX_BITS:
        raise BudgetError(
            f"about {bits} element bits exceed the budget of {MAX_BITS} for one "
            "element list or file; lower j_max or the prefix"
        )
    return bits


def _members(parts: Iterable[tuple[bool, int, int, int]]) -> list[int]:
    """The members of ``parts`` (of ``BlockSequence.own_parts``) as one
    list, once :func:`_charge_elements` admits them."""
    parts = list(parts)
    _charge_elements(parts)
    elements: list[int] = []
    for geometric, base, lo, hi in parts:
        if geometric:
            elements.extend(base + (1 << i) for i in range(lo, hi))
        else:
            elements.extend(range(base + lo, base + hi))
    for a, b in zip(elements, elements[1:]):
        if a >= b:  # defensive: the invariant every consumer relies on
            raise AssertionError("construction produced a non-increasing list")
    return elements


def _c_bits(levels: list[tuple[int, int]]) -> int:
    """An upper bound on the bits of C_2, C_3, ... from the (a_len, g_len)
    of levels 2, 3, ...: C_j = 4 C_i + 2^(g_len(i) + 1) for the last level
    i < j with a geometric member, so bits(C_j) <= 3j + the largest g_len
    below j."""
    total, widest = 0, 2  # level 1 holds {1, 2}
    for j, (_, lg) in enumerate(levels, start=2):
        total += widest + 3 * j
        widest = max(widest, lg)
    return total


def build_blocks(f: GrowthFunction, beta: float, gamma: float, j_max: int) -> BlockSequence:
    """Build the interleaved block sequence through level ``j_max``.

    Level 1 is the seed {1, 2} (geometric, empty consecutive run).  At level
    j >= 2 the consecutive run starts at C_j = twice the largest element of
    the most recent nonempty geometric block, and the geometric block is
    C_j-shifted powers of two: 2*C_j + 2^i for i = 1..g_len(j).

    Either block may be empty at small levels; the element list is the set
    union, so a run that restarts at an earlier C_j (possible when geometric
    blocks were empty in between) only contributes its new integers, and a
    geometric member that lands inside the run is recorded as shared rather
    than stored twice.

    The blocks hold their C_j and form no member.  C_j has about g_len(j - 1)
    bits, so the build charges an upper bound on their bits (``_c_bits``),
    from the level lengths, against ``MAX_BITS`` before it forms any; the
    members are charged where a list or a file of them is formed.
    """
    params = BlockParams(f=f, beta=beta, gamma=gamma, j_max=j_max)
    levels = params.levels()
    bits = _c_bits(levels)
    if bits > MAX_BITS:
        raise BudgetError(
            f"about {bits} bits of C_j through level {j_max} exceed the budget "
            f"of {MAX_BITS}; lower j_max"
        )

    blocks: list[Block] = [
        Block(level=1, kind="A", start_index=0, length=0),
        Block(level=1, kind="G", start_index=0, length=2),
    ]
    checkpoints: list[int] = [2]
    last_g_max = 2  # largest element of the most recent nonempty G block
    # the union so far: `stored` elements, the largest `top`, and the
    # longest consecutive tail [tail, top] of the storage
    stored, top, tail = 2, 2, 1

    for j, (la, lg) in enumerate(levels, start=2):
        c = 2 * last_g_max

        # consecutive run [c, c + la)
        if la > 0:
            if c > top:
                blocks.append(Block(j, "A", stored, la, c=c))
                stored, top, tail = stored + la, c + la - 1, tail if c == top + 1 else c
            else:
                # a restarted run: everything in [c, top] must already be
                # present as a consecutive run from an earlier level
                if c < tail:
                    raise ValueError(
                        f"level {j}: run starting at {c} collides with "
                        "non-run elements; construction is inconsistent"
                    )
                blocks.append(Block(j, "A", stored - (top - c + 1), la, c=c))
                if c + la - 1 > top:
                    stored, top = stored + c + la - 1 - top, c + la - 1
        else:
            blocks.append(Block(j, "A", stored, 0, c=c))

        # geometric block {2c + 2^i}; the union can share small members with
        # this level's consecutive run (every integer of the run is present,
        # so a member at or below the current maximum must be one of them)
        if lg > 0:
            two_c = 2 * c
            below = (top - two_c).bit_length() - 1 if top > two_c else 0  # 2^i <= top - 2c
            shared = [two_c + (1 << i) for i in range(1, min(lg, below) + 1)]
            for v in shared:
                if not any(_holds(b, v) for b in blocks):
                    raise ValueError(
                        f"level {j}: geometric member {v} falls below the "
                        f"current maximum {top} without being present; "
                        "construction is inconsistent"
                    )
            blocks.append(Block(j, "G", stored, lg, shared=tuple(shared), c=c))
            last_g_max = two_c + (1 << lg)
            own = lg - len(shared)
            if own:  # members 2^i apart, so only the first can extend the tail
                if own > 1 or last_g_max != top + 1:
                    tail = last_g_max
                stored, top = stored + own, last_g_max
        else:
            blocks.append(Block(j, "G", stored, 0, c=c))

        checkpoints.append(stored)

    return BlockSequence(
        params=params,
        blocks=tuple(blocks),
        checkpoints=tuple(checkpoints),
    )


def _holds(b: Block, v: int) -> bool:
    """Whether v is a member of block b, from its record alone."""
    if b.level == 1:
        return b.kind == "G" and v in (1, 2)
    if b.kind == "A":
        return b.c <= v < b.c + b.length
    d = v - 2 * b.c
    return d > 1 and not d & (d - 1) and d.bit_length() - 1 <= b.length


# -- classic comparison families ------------------------------------------------


@dataclass(frozen=True)
class ClassicSequence:
    """A classic family, identified by ``(family, n, param)``.

    ``members`` holds the n members once: a read-only int64 array when the
    largest is below 2**63, a list of Python ints otherwise.  ``elements`` is
    always that list of Python ints; from an array it is built on first
    access and kept, so no numpy scalar reaches exact arithmetic."""

    family: str
    n: int
    param: int
    members: np.ndarray | list[int] = field(repr=False, compare=False)

    def __len__(self) -> int:
        return self.n

    @cached_property
    def elements(self) -> list[int]:
        if isinstance(self.members, np.ndarray):
            return self.members.tolist()
        return self.members


def _first_primes(n: int) -> np.ndarray:
    """The first n primes as int64, by sieving up to a standard upper bound."""
    bound = int(n * (math.log(n) + math.log(math.log(n)))) + 10 if n >= 6 else 12
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    # p_n < n (ln n + ln ln n) for n >= 6 (Rosser-Schoenfeld), so the sieve
    # always holds at least n primes
    return np.flatnonzero(np.frombuffer(sieve, dtype=np.uint8))[:n].astype(np.int64)


def classic(family: str, n: int, param: int = 0) -> ClassicSequence:
    """Build a classic family: identity | power (n^d) | primes | lacunary (q^n).

    ``param`` is the exponent d >= 1 for "power" (default 2) and the base
    q >= 2 for "lacunary" (default 2); it is ignored for the others.  A family
    whose largest member is below 2**63 is computed in int64, exactly, and
    stored as that array; a larger one as Python ints.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if family == "identity":
        members = np.arange(1, n + 1, dtype=np.int64)
        param = 1
    elif family == "power":
        param = param or 2
        if param < 1:
            raise ValueError("power exponent must be >= 1")
        if n**param < 1 << 63:
            members = np.arange(1, n + 1, dtype=np.int64)
            np.power(members, param, out=members)
        else:
            members = [k**param for k in range(1, n + 1)]
    elif family == "primes":
        members = _first_primes(n)
        param = 0
    elif family == "lacunary":
        param = param or 2
        if param < 2:
            raise ValueError("lacunary base must be >= 2")
        if param**n < 1 << 63:
            members = np.power(np.int64(param), np.arange(1, n + 1, dtype=np.int64))
        else:
            members = [param**k for k in range(1, n + 1)]
    else:
        raise ValueError(f"unknown family {family!r}")
    if isinstance(members, np.ndarray):
        members.flags.writeable = False
    return ClassicSequence(family, n, param, members)


# -- shared helpers ------------------------------------------------------------


def as_elements(seq: SequenceLike) -> Sequence[int]:
    if isinstance(seq, (BlockSequence, ClassicSequence)):
        return seq.elements
    return seq


def truncate(seq: SequenceLike, n: int) -> Sequence[int]:
    """The first n elements; refuses to silently pad a too-short sequence.
    A block sequence whose element list is not formed yet forms only those
    n, from its parts."""
    if not (0 <= n <= len(seq)):
        raise ValueError(f"truncation length {n} outside 0..{len(seq)}")
    if isinstance(seq, BlockSequence) and "elements" not in vars(seq):
        return _members(seq.parts(n))
    return as_elements(seq)[:n]


def max_element_bits(seq: SequenceLike) -> int:
    if isinstance(seq, BlockSequence):  # increasing: the last member
        return seq.member(len(seq) - 1).bit_length()
    elems = as_elements(seq)
    if not elems:
        raise ValueError("empty sequence has no maximum")
    return max(elems).bit_length()


# -- file format -----------------------------------------------------------------
#
# One decimal integer per line; '#' lines are comments.  Key = value comments
# at the top carry optional construction metadata so block sequences can be
# rebuilt (and verified) from their files.


@contextmanager
def _all_digits():
    """Lift the interpreter's cap on decimal conversions of ints (4300
    digits by default, where the cap exists) and put it back after: an
    element the bit budget admits may be far longer."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def write_sequence(path, seq: SequenceLike, meta: dict[str, str] | None = None) -> None:
    """Write the elements one per line after the metadata comments; a
    write that fails removes the file it started.  A block sequence's lines
    come from its construction (``_block_chunks``)."""
    if isinstance(seq, BlockSequence):
        _charge_elements(seq.own_parts())
        meta = block_meta(seq) if meta is None else meta
        body = _block_chunks(seq)
    else:
        body = map(b"%d\n".__mod__, as_elements(seq))
    header = "".join(f"# {key} = {value}\n" for key, value in (meta or {}).items())
    with _all_digits(), open(path, "wb") as fh:
        try:
            fh.write(header.encode("ascii"))
            fh.writelines(body)
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def block_meta(seq: BlockSequence) -> dict[str, str]:
    p = seq.params
    return {
        "family": "blocks",
        "f": p.f.spec_string,
        "beta": repr(p.beta),
        "gamma": repr(p.gamma),
        "jmax": str(p.j_max),
    }


def _read_meta(line: str, meta: dict[str, str]) -> None:
    """Record a stripped ``# key = value`` comment line; the first value of
    a key wins."""
    body = line[1:].strip()
    if "=" in body:
        key, _, value = body.partition("=")
        meta.setdefault(key.strip(), value.strip())


def read_sequence(path) -> tuple[list[int], dict[str, str]]:
    """Read elements and top-comment metadata; enforces strict increase."""
    elements: list[int] = []
    meta: dict[str, str] = {}
    with _all_digits(), open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                _read_meta(line, meta)
                continue
            try:
                x = int(line)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not an integer: {line!r}") from None
            if elements and x <= elements[-1]:
                raise ValueError(
                    f"{path}: line {lineno}: element {x} not strictly above "
                    f"its predecessor {elements[-1]}"
                )
            elements.append(x)
    return elements, meta


def rebuild_from_meta(meta: dict[str, str]) -> BlockSequence:
    """Rebuild a block sequence from file metadata written by write_sequence."""
    try:
        f = parse_growth(meta["f"])
        beta = _parse_number(meta["beta"])
        gamma = _parse_number(meta["gamma"])
        j_max = int(meta["jmax"])
    except KeyError as exc:
        raise ValueError(f"sequence file lacks block metadata key {exc}") from None
    return build_blocks(f, beta, gamma, j_max)


def load_sequence(path) -> Union[BlockSequence, list[int]]:
    """The sequence a file holds: the rebuilt blocks when its metadata names
    the block family, else its elements.

    A block file must hold exactly the elements its metadata rebuilds.  It
    is compared as it streams with the lines ``write_sequence`` writes for
    the rebuilt blocks, so no parsed copy is ever held.  A file the stream
    does not take (any line that differs, a blank line or a comment in the
    body, a number not written as ``write_sequence`` writes it) goes the
    long way: ``read_sequence``, rebuild, compare.  So every file loads, or
    is refused with the same error, exactly as by the long way.
    """
    seq = _streamed_blocks(path)
    if seq is not None:
        return seq
    elements, meta = read_sequence(path)
    if meta.get("family") == "blocks":
        seq = rebuild_from_meta(meta)
        if seq.elements != elements:
            raise ValueError(
                f"{path}: elements do not match their block metadata; "
                "the file was edited or written with different code"
            )
        return seq
    return elements


# lines per chunk of a block file, as written and as compared; larger chunks
# raise the peak of a load for no speed
_CHUNK_LINES = 256


def _streamed_blocks(path) -> BlockSequence | None:
    """The blocks rebuilt from the top metadata comments of ``path`` when
    every later line is the bytes ``write_sequence`` writes in its place;
    None for any other file, or when reading or rebuilding fails."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh, _all_digits():
        if not fh.seekable():  # a pipe read here could not be read again
            return None
        meta: dict[str, str] = {}
        body = 0
        for line in iter(fh.readline, b""):
            if not line.startswith(b"#"):
                break
            if not (line.endswith(b"\n") and line.isascii()) or b"\r" in line:
                return None
            _read_meta(line.decode("ascii").strip(), meta)
            body = fh.tell()
        if meta.get("family") != "blocks":
            return None
        try:
            seq = rebuild_from_meta(meta)
        except Exception:  # the long way raises it again, or an error before it
            return None
        fh.seek(body)
        for chunk in _block_chunks(seq):
            if fh.read(len(chunk)) != chunk:
                return None
        return None if fh.read(1) else seq


def _block_chunks(seq: BlockSequence) -> Iterator[bytes]:
    """The body of ``seq``'s block file, one line per element, in chunks of
    at most ``_CHUNK_LINES`` lines.  The lines come from the construction,
    one part of ``BlockSequence.own_parts`` at a time: run members by
    ``_run_chunks`` and geometric members base + 2^i by
    ``_geometric_chunks``.  A run head above the interpreter's digit cap
    needs the caller inside ``_all_digits()``."""
    for geometric, base, lo, hi in seq.own_parts():
        if geometric:
            yield from _geometric_chunks(base, lo, hi - 1)
        else:
            yield from _run_chunks(base + lo, hi - lo)


# every sum of _geometric_chunks is exact: a rounding raises and is never written
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def _geometric_chunks(base: int, lo: int, hi: int) -> Iterator[bytes]:
    """The lines of base + 2^i for i = lo, ..., hi.  The sums are decimal,
    and each power is the last one doubled, so a line costs time linear in
    its digits; base is converted once.  Each line is encoded as it is
    made, so no chunk is held as text and as bytes at once."""
    powers = accumulate(repeat(Decimal(2), hi - lo), _EXACT.multiply, initial=Decimal(1 << lo))
    sums = map(_EXACT.add, repeat(Decimal(base)), powers)
    for _ in range(lo, hi + 1, _CHUNK_LINES):
        yield b"\n".join([*map(str.encode, map(str, islice(sums, _CHUNK_LINES))), b""])


def _run_chunks(first: int, count: int) -> Iterator[bytes]:
    """The lines ``write_sequence`` writes for first, first + 1, ...,
    first + count - 1: a fixed-width tail below 10^width > count after the
    decimal of the head, so the tail carries into the head at most once.
    The line format holds the head's decimal, converted once per head
    value, and a chunk is one ``%`` of that format repeated.  A head above
    the interpreter's digit cap needs the caller inside ``_all_digits()``."""
    width = len(str(count))
    base = 10**width
    head, low = divmod(first, base)
    while count > 0:
        stop = min(base, low + count)
        line = b"%d%%0%dd\n" % (head, width) if head else b"%d\n"
        for start in range(low, stop, _CHUNK_LINES):
            tails = range(start, min(stop, start + _CHUNK_LINES))
            yield line * len(tails) % tuple(tails)
        count -= stop - low
        head, low = head + 1, 0
