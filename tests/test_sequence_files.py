"""Property tests: sequence files round-trip, an edited block file is
refused, and the streaming loader agrees with the long way.

``write_sequence`` followed by ``read_sequence`` must give back the elements
and the header metadata, for classic families and for small block
sequences; a block file's metadata must rebuild the same blocks.  A block
file changed by one element (one off by +-1, a dropped line or a duplicated
line) must make ``ppclab energy --seq`` exit 3 with a one-line message.
``load_sequence``, which checks a block file against its construction as it
streams, must give what ``read_sequence``, ``rebuild_from_meta`` and a
comparison give, on written files and on every edit drawn here: an equal
sequence, or the same exception type and message.  The chunk generator that
writes and checks block files must give the decimal lines of the elements,
at most ``_CHUNK_LINES`` of them a chunk.
"""

import contextlib
import io
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppclab.cli import main
from ppclab.growth import GrowthFunction
from ppclab.sequences import (
    BlockSequence,
    _CHUNK_LINES,
    _all_digits,
    _block_chunks,
    _geometric_chunks,
    _run_chunks,
    _streamed_blocks,
    block_meta,
    build_blocks,
    classic,
    load_sequence,
    read_sequence,
    rebuild_from_meta,
    write_sequence,
)


def round_trip(seq, meta=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seq.txt")
        write_sequence(path, seq, meta)
        return read_sequence(path)


@st.composite
def classic_families(draw):
    family = draw(st.sampled_from(["identity", "power", "primes", "lacunary"]))
    n = draw(st.integers(1, 120))
    param = {"power": draw(st.integers(1, 6)), "lacunary": draw(st.integers(2, 9))}.get(family, 0)
    return classic(family, n, param)


@given(seq=classic_families())
def test_classic_family_files_round_trip(seq):
    meta = {"family": seq.family, "n": str(seq.n), "param": str(seq.param)}
    elements, got = round_trip(seq, meta)
    assert elements == seq.elements
    assert got == meta


@st.composite
def small_blocks(draw):
    f = draw(st.sampled_from([
        GrowthFunction("ilog", r=1),
        GrowthFunction("ilog", r=2),
        GrowthFunction("ilog_eps", r=1, eps=0.5),
    ]))
    gamma = draw(st.floats(0.05, 0.6))
    beta = draw(st.floats(gamma + 0.01, 0.74))
    return build_blocks(f, beta, gamma, draw(st.integers(1, 8)))


@given(seq=small_blocks())
def test_block_files_round_trip(seq):
    elements, meta = round_trip(seq)
    assert elements == seq.elements
    assert meta == block_meta(seq)
    rebuilt = rebuild_from_meta(meta)
    assert rebuilt.elements == seq.elements
    assert rebuilt.checkpoints == seq.checkpoints


BLOCKS6 = build_blocks(GrowthFunction("ilog", r=1), 2 / 3, 1 / 3, 6)


@given(
    edit=st.sampled_from(["+1", "-1", "drop", "duplicate"]),
    index=st.integers(0, len(BLOCKS6.elements) - 1),
)
def test_block_file_edited_by_one_element_is_refused(edit, index):
    elements = list(BLOCKS6.elements)
    if edit == "drop":
        del elements[index]
    elif edit == "duplicate":
        elements.insert(index, elements[index])
    else:
        elements[index] += int(edit)
    lines = [f"# {key} = {value}" for key, value in block_meta(BLOCKS6).items()]
    lines += [str(x) for x in elements]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seq.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["energy", "--seq", path])
    assert code == 3
    message = err.getvalue()
    assert message.startswith("precondition error: ") and message.count("\n") == 1


# -- the streaming loader against the long way -----------------------------------


def long_way(path):
    """What a sequence file held before streaming: read every line, then
    rebuild and compare when the metadata names the blocks."""
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


def outcome(load, path):
    try:
        got = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, BlockSequence):
        return BlockSequence, got.params, got.elements, got.checkpoints
    return list, got


def edit_number(line, how):
    if how == "zeros":
        return b"00" + line
    if how == "plus":
        return b"+" + line
    if how == "spaces":
        return b"  " + line + b" "
    if how == "underscore":  # "1_234" reads as 1234; a lone "_7" reads as nothing
        return line[:1] + b"_" + line[1:] if len(line) > 1 else b"_" + line
    return line[:1] + b"\xa0" + line[1:]  # one non-ASCII byte


BODY_EDITS = ["run+1", "run-1", "geo+1", "geo-1", "drop", "duplicate", "swap", "append",
              "truncate", "no-final-newline", "crlf", "blank", "comment",
              "zeros", "plus", "spaces", "underscore", "non-ascii"]
HEADER_EDITS = ["jmax+1", "no-beta", "not-blocks"]


@st.composite
def block_params(draw):
    f = draw(st.sampled_from([
        GrowthFunction("ilog", r=1),
        GrowthFunction("ilog", r=2),
        GrowthFunction("ilog_eps", r=1, eps=0.5),
        GrowthFunction("ilog_eps", r=2, eps=0.25),
    ]))
    gamma = draw(st.floats(0.05, 0.6))
    beta = draw(st.floats(gamma + 0.01, 0.74))
    return f, beta, gamma, draw(st.integers(1, 10))


def edit_sites(seq, edit):
    """The element indices ``edit`` can be applied at."""
    n = len(seq.elements)
    runs = sorted({i for b in seq.blocks if b.kind == "A"
                   for i in range(b.start_index, b.start_index + b.length)})
    if edit.startswith("run") and runs:
        return runs
    if edit.startswith("geo") and len(runs) < n:
        return sorted(set(range(n)) - set(runs))
    if edit == "swap" and n > 1:
        return list(range(n - 1))
    return list(range(n))


def edited_file(seq, edit, i):
    """The bytes of seq's block file with ``edit`` applied at element i."""
    meta = block_meta(seq)
    if edit == "jmax+1":
        meta["jmax"] = str(seq.params.j_max + 1)
    elif edit == "no-beta":
        del meta["beta"]
    elif edit == "not-blocks":
        meta["family"] = "custom"
    header = [b"# %s = %s" % (k.encode(), v.encode()) for k, v in meta.items()]
    body = [b"%d" % x for x in seq.elements]
    end = b"\n"
    if edit in ("run+1", "run-1", "geo+1", "geo-1"):
        body[i] = b"%d" % (seq.elements[i] + int(edit[-2:]))
    elif edit == "drop":
        del body[i]
    elif edit == "duplicate":
        body.insert(i, body[i])
    elif edit == "swap" and i + 1 < len(body):
        body[i], body[i + 1] = body[i + 1], body[i]
    elif edit == "append":
        body.append(b"%d" % 10**9)
    elif edit == "truncate":
        body[-1], end = body[-1][: (len(body[-1]) + 1) // 2], b""
    elif edit == "no-final-newline":
        end = b""
    elif edit == "crlf":
        header, body, end = [h + b"\r" for h in header], [b + b"\r" for b in body], b"\r\n"
    elif edit == "blank":
        body.insert(i, b"")
    elif edit == "comment":
        body.insert(i, b"# jmax = 99")
    elif edit in ("zeros", "plus", "spaces", "underscore", "non-ascii"):
        body[i] = edit_number(body[i], edit)
    return b"\n".join(header + body) + end


def assert_loads_as_the_long_way(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "seq.txt")
        with open(path, "wb") as fh:
            fh.write(content)
        assert outcome(load_sequence, path) == outcome(long_way, path)


@pytest.mark.parametrize("edit", ["none"] + BODY_EDITS + HEADER_EDITS)
@settings(max_examples=15)
@given(params=block_params(), data=st.data())
def test_loader_agrees_with_the_long_way(edit, params, data):
    seq = build_blocks(*params)
    i = data.draw(st.sampled_from(edit_sites(seq, edit)))
    assert_loads_as_the_long_way(edited_file(seq, edit, i))


SEQ8 = build_blocks(GrowthFunction("ilog", r=1), 0.7, 0.45, 8)


@pytest.mark.parametrize("edit", ["run+1", "geo-1", "drop", "swap"])
def test_an_edit_at_any_line_is_refused(edit):
    # a loader that skips a kind of line, or counts the lines only, takes
    # one of these files
    for i in edit_sites(SEQ8, edit):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "seq.txt")
            with open(path, "wb") as fh:
                fh.write(edited_file(SEQ8, edit, i))
            with pytest.raises(ValueError):
                load_sequence(path)


def test_written_block_files_stream_and_others_take_the_long_way(tmp_path):
    path = tmp_path / "seq.txt"
    write_sequence(path, SEQ8)
    streamed = _streamed_blocks(path)
    assert streamed.elements == SEQ8.elements
    assert streamed.checkpoints == SEQ8.checkpoints
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert _streamed_blocks(path) is None
    assert load_sequence(path).elements == SEQ8.elements
    write_sequence(path, classic("power", 50, 3), meta={"family": "power"})
    assert _streamed_blocks(path) is None
    assert load_sequence(path) == classic("power", 50, 3).elements


@pytest.mark.parametrize("t", [1, 2, 3, 4, 9, 30])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 9, 10, 11, 99, 100, 101, 1234])
def test_run_lines_carry_into_the_head(t, count):
    first = 10**t - 3
    want = b"".join(b"%d\n" % x for x in range(first, first + count))
    assert b"".join(_run_chunks(first, count)) == want


def test_run_lines_past_the_decimal_digit_cap():
    cap = sys.get_int_max_str_digits()
    for first in (10**4400 - 3, 7 * 10**5200 + 5, 2**15000 + 1):
        with _all_digits():
            want = b"".join(b"%d\n" % x for x in range(first, first + 120))
            got = b"".join(_run_chunks(first, 120))
        assert got == want
    assert sys.get_int_max_str_digits() == cap


# -- the chunk generator of block files -------------------------------------------


def decimal_lines(seq):
    return b"".join(b"%d\n" % x for x in seq.elements)


@pytest.mark.parametrize("beta, gamma", [(2 / 3, 1 / 3), (0.7, 0.45)])
def test_block_lines_are_the_decimal_elements(beta, gamma):
    for j_max in range(2, 14):
        seq = build_blocks(GrowthFunction("ilog", r=1), beta, gamma, j_max)
        assert b"".join(_block_chunks(seq)) == decimal_lines(seq), j_max


@settings(max_examples=40)
@given(params=block_params())
def test_block_lines_of_drawn_blocks_are_the_decimal_elements(params):
    seq = build_blocks(*params)
    assert b"".join(_block_chunks(seq)) == decimal_lines(seq)


@st.composite
def geometric_rows(draw):
    """(base, lo, hi); the base is often 10^k - 2^lo, whose sums carry
    through a long run of nines."""
    lo = draw(st.integers(0, 300))
    hi = draw(st.integers(lo, lo + 80))
    if draw(st.booleans()):
        k = draw(st.integers(len(str(1 << lo)), 120))
        return 10**k - (1 << lo), lo, hi
    return draw(st.integers(0, 10**120)), lo, hi


@given(row=geometric_rows())
def test_geometric_lines_are_the_decimal_sums(row):
    base, lo, hi = row
    want = b"".join(b"%d\n" % (base + (1 << i)) for i in range(lo, hi + 1))
    assert b"".join(_geometric_chunks(base, lo, hi)) == want


def test_geometric_lines_past_the_decimal_digit_cap():
    cap = sys.get_int_max_str_digits()
    for base, lo in ((10**5000 - 2**7, 7), (2**20000 * 3, 1), (0, 15000)):
        with _all_digits():
            want = b"".join(b"%d\n" % (base + (1 << i)) for i in range(lo, lo + 40))
        assert b"".join(_geometric_chunks(base, lo, lo + 39)) == want
    assert sys.get_int_max_str_digits() == cap


def test_no_chunk_holds_more_than_chunk_lines():
    # the (2/3, 1/3) T_13 blocks hold runs and geometric blocks longer than a chunk
    seq = build_blocks(GrowthFunction("ilog", r=1), 2 / 3, 1 / 3, 13)
    parts = [(_block_chunks(seq), len(seq)), (_run_chunks(10**6 - 300, 1000), 1000),
             (_geometric_chunks(7, 3, 603), 601)]
    for chunks, lines in parts:
        counts = [chunk.count(b"\n") for chunk in chunks]
        assert sum(counts) == lines
        assert 0 < min(counts) and max(counts) == _CHUNK_LINES
