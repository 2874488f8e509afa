"""The benchmark workloads: set-up, one timed pass, exactness checks.

Each workload drives the README's CLI experiments in-process through
``ppclab.cli.main``, and the library's public functions where no CLI
experiment exists.  Layer functions are always looked up as module
attributes at call time, so the span wrappers of ``spans.py`` see them.

Checks run outside the timed part: ``check_pass`` runs after each pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
from fractions import Fraction
from pathlib import Path

import ppclab.cli
import ppclab.growth
import ppclab.intervals
import ppclab.paircorr
import ppclab.sequences

# the seed the seed-dependent references are pinned at
DEFAULT_SEED = 1
REFERENCES = Path(__file__).resolve().parent / "references.json"

HALF = Fraction(1, 2)
ONE = Fraction(1)


class SetupError(Exception):
    """The workload's inputs could not be prepared; no result is possible."""


class Checks:
    """Operations attempted and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_cli(argv: list[str]) -> tuple[object, str]:
    """One CLI experiment in-process: (exit code or error text, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = ppclab.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def build_seq(params: list[str], path: str) -> None:
    code, _ = run_cli(["build-seq", *params, "--out", path])
    if code != 0:
        raise SetupError(f"build-seq {' '.join(params)} exited with {code}")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def difference_properties(xs: list[int]) -> dict[str, float]:
    """Distinct differences per pair, and distinct ``hash`` values per
    distinct difference, over all pairs of ``xs``.

    Counted by sorting: a hash set would hit the very collisions it measures.
    """
    n = len(xs)
    diffs = sorted(xs[j] - xs[i] for i in range(n - 1) for j in range(i + 1, n))
    distinct, hashes, prev = 0, set(), None
    for d in diffs:
        if d != prev:
            distinct += 1
            hashes.add(hash(d))
            prev = d
    return {
        "energy.distinct_ratio": distinct / len(diffs),
        "energy.hash_distinct_ratio": len(hashes) / distinct,
    }


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, workdir: Path, seed: int, refs: dict) -> None:
        self.workdir = workdir
        self.seed = seed
        self.refs = refs.get(self.name, {})

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def setup(self) -> None:
        pass

    def run_pass(self, i: int):
        raise NotImplementedError

    def check_pass(self, i: int, record, checks: Checks) -> None:
        raise NotImplementedError

    def properties(self) -> dict[str, float]:
        """Input properties a layer's speed depends on (traced run only);
        0 on workloads that count no energy."""
        return {"energy.distinct_ratio": 0.0, "energy.hash_distinct_ratio": 0.0}


# The paper's own input: f = log, beta = 0.7, gamma = 0.45.
BLOCKS = ["--f", "ilog(1)", "--beta", "0.7", "--gamma", "0.45"]


class EnergyBlocks(Workload):
    """``scaling`` over every run-bearing level of the j_max = 12 blocks.

    The construction has no randomness, so the seed does not enter.
    """

    name = "energy-blocks"
    min_passes = 2  # host load drifts over tens of seconds; one pass spreads widely

    def setup(self) -> None:
        self.seq = self.path("blocks12.txt")
        build_seq(BLOCKS + ["--jmax", "12"], self.seq)

    def run_pass(self, i: int):
        csv = self.path(f"scaling-{i}.csv")
        code, _ = run_cli(["scaling", "--seq", self.seq, "--csv", csv])
        return code, csv

    def check_pass(self, i: int, record, checks: Checks) -> None:
        code, csv = record
        got = {}
        if code == 0:
            got = {row["j"]: [int(row["N"]), int(row["energy"])] for row in read_csv(csv)}
        for level, want in self.refs["energy"].items():
            checks.op(got.get(level) == want,
                      f"pass {i} level {level}: [N, E] = {got.get(level)} (exit {code}), "
                      f"pinned {want}")

    def properties(self) -> dict[str, float]:
        elements, _ = ppclab.sequences.read_sequence(self.seq)
        return difference_properties(elements)


MC = ["mc", "--family", "power", "--seq-n", "1000000",
      "--schedule", "250000,500000,1000000", "--s", "1/2,1"]
TRIALS = 4
# acceptance criterion 6 accepts R in [1.7, 2.3] at s = 1, i.e. 2s * [0.85, 1.15]
POISSON_BAND = (0.85, 1.15)


class McDyadic(Workload):
    """``mc`` on the squares at random dilations k / 2^64."""

    name = "mc-dyadic"

    def setup(self) -> None:
        self.first: bytes | None = None

    def run_pass(self, i: int):
        csv = self.path(f"mc-{i}.csv")
        code, _ = run_cli([*MC, "--trials", str(TRIALS), "--seed", str(self.seed), "--csv", csv])
        return code, csv

    def check_pass(self, i: int, record, checks: Checks) -> None:
        code, csv = record
        if code != 0:
            checks.op(False, f"pass {i}: exit {code}")
            return
        with open(csv, "rb") as fh:
            data = fh.read()
        problems = []
        if self.first is None:
            self.first = data
            # each trial draws its dilation from its own substream, so a rerun
            # of trial 0 alone must reproduce the header and trial-0 rows byte
            # for byte, at a quarter of the cost of a full rerun
            rerun = self.path("mc-rerun.csv")
            code, _ = run_cli([*MC, "--trials", "1", "--seed", str(self.seed), "--csv", rerun])
            again = b""
            if code == 0:
                with open(rerun, "rb") as fh:
                    again = fh.read()
            if again.count(b"\n") < 2 or not data.startswith(again):
                problems.append(f"rerun of trial 0 (exit {code}) differs from pass 0")
        elif data != self.first:
            problems.append("rerun bytes differ from pass 0")
        if self.seed == self.refs["seed"] and hashlib.sha256(data).hexdigest() != self.refs["sha256"]:
            problems.append("CSV sha256 differs from the pinned digest")
        cells: dict[tuple[str, str], list[float]] = {}
        for row in read_csv(csv):
            cells.setdefault((row["N"], row["s"]), []).append(float(row["R"]))
        for (n, s), values in sorted(cells.items()):
            # the median, not the mean: one dilation near a rational with a
            # small denominator is genuinely not Poissonian at these N (seed
            # 508 draws one 3e-5 from 15/29, R = 3.6 at N = 250000, s = 1)
            median, two_s = statistics.median(values), 2 * float(Fraction(s))
            if not POISSON_BAND[0] * two_s <= median <= POISSON_BAND[1] * two_s:
                problems.append(f"median R = {median} at N = {n}, s = {s} outside the Poisson band")
        checks.op(not problems, f"pass {i}: " + "; ".join(problems))


SYSTEM_LEVELS = range(8, 14)
PROBE_RANKS = range(8)
B_SIZE, B_RANGE = 16, range(-200, 201)
# every drawn B makes 14,400 +- 250 Bohr pieces (the median over random
# draws), so the seed changes the input but not the amount of interval work
B_PIECES, B_PIECES_TOL = 14_400, 250


def bohr_piece_count(b: list[int]) -> int:
    """Intervals materialized by small_denominator_set(b, .): |d| + 1 per
    distinct positive difference d."""
    return sum(d + 1 for d in {abs(x - y) for x in b for y in b} - {0})


def draw_b(rng: random.Random) -> list[int]:
    while True:
        b = rng.sample(B_RANGE, B_SIZE)
        if abs(bohr_piece_count(b) - B_PIECES) <= B_PIECES_TOL:
            return sorted(b)


class ExceptionalProbe(Workload):
    """Regular-system Bohr unions, their Borel-Cantelli ratio, seeded
    small-denominator sets, and ``probe`` on the j_max = 14 blocks."""

    name = "exceptional-probe"
    min_passes = 3  # host load drifts over tens of seconds; fewer passes spread widely

    def setup(self) -> None:
        self.seq = self.path("blocks14.txt")
        build_seq(BLOCKS + ["--jmax", "14"], self.seq)
        self.f = ppclab.growth.parse_growth("ilog(1)")
        self.theta = ppclab.growth.parse_theta("one_plus_log")
        self.system = ppclab.paircorr.RegularSystemParams(f=self.f, theta=self.theta)
        rng = random.Random(f"{self.name}:{self.seed}")
        self.b_sets = [draw_b(rng) for _ in range(3)]

    def run_pass(self, i: int):
        intervals, paircorr = ppclab.intervals, ppclab.paircorr
        pieces, level_sets = [], []
        for j in SYSTEM_LEVELS:
            union = intervals.IntervalSet.empty()
            for q in self.system.denominator_range(j):
                rank = paircorr.rank_of_denominator(q)
                delta = min(HALF, q * Fraction(ppclab.growth.psi(self.f, self.theta, rank)))
                piece = intervals.bohr_set(q, delta)
                pieces.append((q, delta, piece))
                union = union.union(piece)
            level_sets.append(union)
        ratio = intervals.borel_cantelli_ratio(level_sets)
        small = [intervals.small_denominator_set(b, HALF) for b in self.b_sets]
        probes = []
        for rank in PROBE_RANKS:
            csv = self.path(f"probe-{i}-{rank}.csv")
            code, _ = run_cli(["probe", "--seq", self.seq, "--levels", "8..14", "--s", "1",
                               "--alpha-from-regular-system", "j=10", f"rank={rank}",
                               "--csv", csv])
            probes.append((code, csv))
        return pieces, ratio, small, probes

    def check_pass(self, i: int, record, checks: Checks) -> None:
        pieces, ratio, small, probes = record
        for q, delta, piece in pieces:
            checks.op(piece.measure == min(ONE, 2 * delta),
                      f"pass {i}: bohr_set({q}, {delta}) has measure {piece.measure}")
        checks.op(str(ratio) == self.refs["bc_ratio"],
                  f"pass {i}: bc ratio {ratio}, pinned {self.refs['bc_ratio']}")
        for k, s in enumerate(small):
            ok = s.measure < 2 * HALF
            if self.seed == self.refs["seed"]:
                ok = ok and str(s.measure) == self.refs["small_measures"][k]
            checks.op(ok, f"pass {i}: small_denominator_set #{k} has measure {s.measure}")
        for rank, (code, csv) in enumerate(probes):
            ok = code == 0 and sha256_file(csv) == self.refs["probe_sha256"][rank]
            checks.op(ok, f"pass {i}: probe rank {rank} (exit {code}) differs from the pin")


WORKLOADS = {w.name: w for w in (EnergyBlocks, McDyadic, ExceptionalProbe)}


def load_references() -> dict:
    with open(REFERENCES, "r", encoding="ascii") as fh:
        return json.load(fh)
