"""Property tests: sequence files round-trip, and an edited block file is
refused.

``write_sequence`` followed by ``read_sequence`` must give back the elements
and the header metadata, for classic families and for small block
sequences; a block file's metadata must rebuild the same blocks.  A block
file changed by one element (one off by +-1, a dropped line or a duplicated
line) must make ``ppclab energy --seq`` exit 3 with a one-line message.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from ppclab.cli import main
from ppclab.growth import GrowthFunction
from ppclab.sequences import (
    block_meta,
    build_blocks,
    classic,
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
