# Build the two-block sequence: long runs of consecutive integers (high
# additive energy, low cost) interleaved with sparse geometric tails that
# push the maximum up fast.  beta controls the run lengths, gamma the tails.

import os
import tempfile

from ppclab import GrowthFunction, build_blocks, load_sequence, max_element_bits, write_sequence

f = GrowthFunction("ilog", r=1)
seq = build_blocks(f, beta=2 / 3, gamma=1 / 3, j_max=8)

print("first 30 elements:", seq.elements[:30])
print("checkpoints T_j:  ", list(seq.checkpoints))
print("total elements:   ", len(seq.elements))
print("max element bits: ", max_element_bits(seq))

print("\nlevel  kind  start_idx  length  shared")
for b in seq.blocks:
    print(f"{b.level:>5}  {b.kind:>4}  {b.start_index:>9}  {b.length:>6}  {b.shared}")

# run lengths grow like 2^j / f(2^j)^beta; level 1 is the bare seed {1,2}
# with no consecutive run at all
print("\nrun lengths:", [seq.a_block(j).length for j in range(1, 9)])

# round-trip through the on-disk format (decimal per line, '#' metadata):
# load_sequence rebuilds the blocks from the metadata and checks every line
# of the file against them as it reads
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "blocks.txt")
    write_sequence(path, seq)
    loaded = load_sequence(path)
assert loaded.elements == seq.elements
assert loaded.checkpoints == seq.checkpoints
print("\nround-trip ok; parameters:", loaded.params)
