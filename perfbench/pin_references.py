"""Regenerate perfbench/references.json, the pinned exact outputs.

    python3 perfbench/pin_references.py

Run from the root of a source checkout whose outputs are trusted.  The
energy-blocks references come from the streaming sorted-merge route
(``method="sorted"``), not from the hash route the workload exercises; the
other pins are the outputs of one pass at the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from ppclab.energy import additive_energy  # noqa: E402
from ppclab.growth import parse_growth  # noqa: E402
from ppclab.sequences import build_blocks, truncate  # noqa: E402


def main() -> int:
    workdir = ROOT / ".perfbench" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    seed = workloads.DEFAULT_SEED
    try:
        seq = build_blocks(parse_growth("ilog(1)"), 0.7, 0.45, 12)
        energy = {}
        for j in range(1, 13):
            if seq.a_block(j).length:
                n = seq.checkpoint(j)
                energy[str(j)] = [n, additive_energy(truncate(seq, n), method="sorted")]

        mc = workloads.McDyadic(workdir, seed, {})
        mc.setup()
        code, csv = mc.run_pass(0)
        assert code == 0, code

        probe = workloads.ExceptionalProbe(workdir, seed, {})
        probe.setup()
        _, ratio, small, probes = probe.run_pass(0)
        assert all(code == 0 for code, _ in probes), probes
        refs = {
            "energy-blocks": {"energy": energy},
            "mc-dyadic": {"seed": seed, "sha256": workloads.sha256_file(csv)},
            "exceptional-probe": {
                "bc_ratio": str(ratio),
                "seed": seed,
                "small_measures": [str(s.measure) for s in small],
                "probe_sha256": [workloads.sha256_file(path) for _, path in probes],
            },
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCES, "w", encoding="ascii") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
