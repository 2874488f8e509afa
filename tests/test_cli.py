"""End-to-end checks of the command-line interface: frozen printed examples,
CSV column contracts, manifest hashes, determinism, and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ppclab.cli
from ppclab.cli import EXPERIMENTS, main
from ppclab.energy import ap_energy_closed_form, energy_scaling
from ppclab.growth import GrowthFunction
from ppclab.sequences import BlockSequence, build_blocks, read_sequence

ILOG1 = GrowthFunction("ilog", r=1)
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return main([str(a) for a in args])


def test_bohr_prints_intervals_and_measure(capsys):
    assert run_cli("bohr", "--d", 2, "--delta", "1/8") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0/1 1/16", "7/16 9/16", "15/16 1/1", "measure = 1/4"]


def test_energy_trivial_file(tmp_path, capsys):
    path = tmp_path / "trivial3.txt"
    path.write_text("1\n2\n3\n")
    assert run_cli("energy", "--seq", path) == 0
    assert "E = 19" in capsys.readouterr().out


def test_build_seq_roundtrip(tmp_path, capsys):
    out = tmp_path / "seq.txt"
    assert run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3",
                   "--gamma", "1/3", "--jmax", 8, "--out", out) == 0
    elements, meta = read_sequence(out)
    assert meta["family"] == "blocks" and meta["jmax"] == "8"
    assert elements == build_blocks(ILOG1, 2 / 3, 1 / 3, 8).elements
    assert (tmp_path / "seq.txt.manifest.json").exists()


def test_manifest_hashes_an_output_larger_than_one_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(ppclab.cli, "_HASH_CHUNK", 1000)
    out = tmp_path / "seq.txt"
    assert run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3",
                   "--gamma", "1/3", "--jmax", 9, "--out", out) == 0
    payload = out.read_bytes()
    assert len(payload) > 3 * 1000
    manifest = json.loads((tmp_path / "seq.txt.manifest.json").read_text())
    assert manifest["output"] == {"path": "seq.txt", "sha256": hashlib.sha256(payload).hexdigest(),
                                  "bytes": len(payload)}


def test_pc_frozen_output(tmp_path, capsys):
    path = tmp_path / "trivial3.txt"
    path.write_text("1\n2\n3\n")
    assert run_cli("pc", "--seq", path, "--alpha", "1/3", "--s", 1) == 0
    out = capsys.readouterr().out
    assert "R = 2 (2.0)" in out


def test_scaling_csv_matches_library(tmp_path, capsys):
    seq_file, csv = tmp_path / "seq.txt", tmp_path / "scale.csv"
    run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
            "--jmax", 10, "--out", seq_file)
    assert run_cli("scaling", "--seq", seq_file, "--levels", "7..10",
                   "--csv", csv) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "j,N,energy,f(N),normalized"
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 10)
    expect = energy_scaling(seq, [7, 8, 9, 10])
    assert len(lines) == 1 + 4
    for line, row in zip(lines[1:], expect.rows):
        j, n, energy, f_n, normalized = line.split(",")
        assert (int(j), int(n), int(energy)) == (row.level, row.n, row.energy)
        assert float(f_n) == row.f_n
        assert float(normalized) == row.normalized
    # what the energy pass split off goes to the manifest, not the CSV
    split = json.loads((tmp_path / "scale.csv.manifest.json").read_text())["notes"]["energy_split"]
    assert split == dict(expect.split)
    assert split["runs"] > 0 and split["pieces"] > 0 and split["points"] < 1108 // 2


def test_scaling_default_levels_skip_empty_runs(tmp_path):
    seq_file, csv = tmp_path / "seq.txt", tmp_path / "scale.csv"
    run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
            "--jmax", 6, "--out", seq_file)
    assert run_cli("scaling", "--seq", seq_file, "--csv", csv) == 0
    first_rows = [line.split(",")[0] for line in csv.read_text().splitlines()[1:]]
    assert first_rows == ["2", "3", "4", "5", "6"]  # level 1 has no run


def test_scaling_forms_only_the_members_of_the_top_level_asked(tmp_path, capsys):
    # levels 8..12 of the T_19 blocks read the members through T_12 alone,
    # so they give the rows of the T_12 blocks; all levels of T_19 are still
    # refused on the bits of its element list
    blocks = ["scaling", "--family", "blocks", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3"]
    for jmax in (19, 12):
        assert run_cli(*blocks, "--jmax", jmax, "--levels", "8..12",
                       "--csv", tmp_path / f"{jmax}.csv") == 0
    assert (tmp_path / "19.csv").read_bytes() == (tmp_path / "12.csv").read_bytes()
    capsys.readouterr()
    assert run_cli(*blocks, "--jmax", 19, "--csv", tmp_path / "all.csv") == 4
    assert ("about 30085013672 element bits exceed the budget of 8589934592 for one "
            "element list" in capsys.readouterr().err)
    assert not (tmp_path / "all.csv").exists()


def test_probe_csv_and_manifest(tmp_path, capsys):
    seq_file, csv = tmp_path / "seq.txt", tmp_path / "probe.csv"
    run_cli("build-seq", "--f", "ilog(1)", "--beta", "0.7", "--gamma", "0.45",
            "--jmax", 8, "--out", seq_file)
    assert run_cli("probe", "--seq", seq_file, "--levels", "7..8", "--s", 1,
                   "--alpha-from-regular-system", "j=8", "rank=0",
                   "--csv", csv) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "level,N,s,R,predicted"
    # targeting the top level with the first level-8 candidate (1/13) must
    # reproduce the frozen statistic 39/5 at T_8 = 240
    last = lines[-1].split(",")
    assert last[0] == "8" and last[1] == "240"
    assert float(last[3]) == 7.8
    manifest = json.loads((tmp_path / "probe.csv.manifest.json").read_text())
    assert manifest["notes"]["candidate"] == "1/13"
    assert manifest["notes"]["eta"] == "1/31200"
    assert manifest["notes"]["target_level"] == 8


def test_mc_determinism_and_manifest_hash(tmp_path):
    cfg = tmp_path / "mc.cfg"
    cfg.write_text(
        "experiment = mc\n"
        "seq.family = power\n"
        "seq.n = 400\n"
        "mc.trials = 5\n"
        "mc.schedule = 200,400\n"
        "mc.s = 0.5,1\n"
        "mc.seed = 42\n"
        f"out.csv = {tmp_path / 'a.csv'}\n"
        "notes = determinism check\n"
    )
    assert run_cli("run", cfg) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert run_cli("run", cfg) == 0
    assert (tmp_path / "a.csv").read_bytes() == first

    # the flags path writes byte-identical rows
    assert run_cli("mc", "--family", "power", "--seq-n", 400, "--trials", 5,
                   "--schedule", "200,400", "--s", "0.5,1", "--seed", 42,
                   "--csv", tmp_path / "b.csv") == 0
    assert (tmp_path / "b.csv").read_bytes() == first

    lines = first.decode().splitlines()
    assert lines[0] == "trial,seed,N,s,R"
    assert len(lines) == 1 + 5 * 2 * 2
    assert lines[1].startswith("0,42,200,1/2,")

    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert manifest["seed"] == 42
    assert manifest["notes"]["user"] == "determinism check"
    assert manifest["output"]["sha256"] == hashlib.sha256(first).hexdigest()


def test_mc_sorts_and_drops_repeated_s_values(tmp_path):
    args = ["mc", "--family", "power", "--seq-n", 300, "--trials", 3,
            "--schedule", "150,300", "--seed", 7]
    assert run_cli(*args, "--s", "1,1/2,1", "--csv", tmp_path / "messy.csv") == 0
    assert run_cli(*args, "--s", "1/2,1", "--csv", tmp_path / "clean.csv") == 0
    assert (tmp_path / "messy.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


@pytest.mark.parametrize("grid", [("--schedule", "150,300", "--s", "1,-1/2"),
                                  ("--schedule", "0,300", "--s", "1")])
def test_mc_bad_grid_exits_3_without_output(tmp_path, capsys, grid):
    csv = tmp_path / "x.csv"
    assert run_cli("mc", "--family", "power", "--seq-n", 300, "--trials", 3,
                   "--seed", 7, *grid, "--csv", csv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("precondition error")
    assert not csv.exists()


def test_corollary_table_level_one_row(tmp_path):
    csv = tmp_path / "cor.csv"
    assert run_cli("corollary-table", "--r", 1, "--jmax", 1, "--csv", csv) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "j,N,energy,normalized,predicted_dim_eps"
    assert len(lines) == 2
    j, n, energy, _, dim = lines[1].split(",")
    assert (j, n, energy) == ("1", "2", "6")  # E({1,2}) = 6
    assert float(dim) == 1.0  # the eps variant keeps full predicted dimension
    notes = json.loads((tmp_path / "cor.csv.manifest.json").read_text())["notes"]
    assert notes["energy_split"] == {"runs": 0, "points": 2, "point_pairs": 1,
                                     "pieces": 0, "cross_hits": 0, "families": 0,
                                     "family_members": 0, "sets": 0, "set_pairs": 0,
                                     "set_pairs_kept": 0}


def test_bc_ratio_pipeline(tmp_path, capsys):
    b3, b5 = tmp_path / "b3.txt", tmp_path / "b5.txt"
    run_cli("bohr", "--d", 3, "--delta", "1/12", "--out", b3)
    run_cli("bohr", "--d", 5, "--delta", "1/20", "--out", b5)
    capsys.readouterr()
    assert run_cli("bc-ratio", "--sets", b3, b5) == 0
    # hand-checked: measures 1/6 and 1/10 overlap only near 0 and 1, each
    # overlap 1/100, so (4/15)^2 / (4/15 + 2/100 * 2) = 16/69
    assert "ratio = 16/69" in capsys.readouterr().out


def test_bc_ratio_names_the_file_and_line_of_a_bad_interval(tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("0 1/2\n")
    bad.write_text("# reversed\n0 1/4\n\n1/2 1/3\n")
    assert run_cli("bc-ratio", "--sets", good, bad) == 3
    assert capsys.readouterr().err == (
        f"precondition error: {bad}: line 4: not a valid subinterval of [0,1]: [1/2, 1/3]\n")
    bad.write_text("0 1/0\n")
    assert run_cli("bc-ratio", "--sets", bad, good) == 3
    assert capsys.readouterr().err.startswith(f"precondition error: {bad}: line 1: bad rational")


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "experiment = mc\nseq.family = power\nseq.n = 5\nmc.trials = 1\n"
        "mc.schedul = 5\nmc.seed = 1\nout.csv = x.csv\n"
    )
    assert run_cli("run", bad) == 2
    err = capsys.readouterr().err
    assert "bad.cfg:5" in err and "mc.schedul" in err

    dup = tmp_path / "dup.cfg"
    dup.write_text("experiment = bohr\nbohr.d = 2\nbohr.d = 3\nbohr.delta = 1/8\n")
    assert run_cli("run", dup) == 2
    assert "duplicate key" in capsys.readouterr().err

    noexp = tmp_path / "noexp.cfg"
    noexp.write_text("bohr.d = 2\n")
    assert run_cli("run", noexp) == 2
    assert "missing 'experiment" in capsys.readouterr().err

    assert run_cli("probe", "--family", "blocks", "--f", "ilog(1)",
                   "--beta", "2/3", "--gamma", "1/3", "--jmax", 5,
                   "--levels", "4..5") == 2  # neither alpha nor system given


def test_precondition_errors_exit_3(tmp_path, capsys):
    assert run_cli("energy", "--seq", tmp_path / "missing.txt") == 3
    path = tmp_path / "trivial3.txt"
    path.write_text("1\n2\n3\n")
    assert run_cli("scaling", "--seq", path, "--csv", tmp_path / "x.csv") == 3
    assert "block sequence" in capsys.readouterr().err
    assert run_cli("pc", "--seq", path, "--alpha", "1/3", "--n", 9) == 3
    # a fixed-point dilation whose comparison lands inside the guard window
    path4 = tmp_path / "trivial4.txt"
    path4.write_text("1\n2\n3\n4\n")
    assert run_cli("pc", "--seq", path4, "--alpha", "fixed:16384:16:8",
                   "--s", 1) == 3
    assert "rational mode" in capsys.readouterr().err
    assert run_cli("energy", "--seq", path, "--n", 0) == 3
    assert "need a nonempty set of integers" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [(MemoryError, 4), (RecursionError, 3)])
def test_resource_errors_exit_with_one_line(monkeypatch, tmp_path, capsys, error, code):
    def runner(values, ctx):
        raise error()

    monkeypatch.setitem(ppclab.cli._RUNNERS, "energy", runner)
    path = tmp_path / "trivial3.txt"
    path.write_text("1\n2\n3\n")
    assert run_cli("energy", "--seq", path) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_budget_refusals_exit_4(tmp_path, capsys):
    assert run_cli("mc", "--family", "power", "--seq-n", 500, "--trials", 10,
                   "--schedule", 500, "--seed", 1, "--max-points", 100,
                   "--csv", tmp_path / "x.csv") == 4
    assert run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3",
                   "--gamma", "1/3", "--jmax", 25,
                   "--out", tmp_path / "x.txt") == 4
    # a run-free set of 6000: 6000 * 5999 / 2 pairs for the key pass and 16
    # per element, over the default budget of 2^24
    assert run_cli("energy", "--family", "primes", "--seq-n", 6000) == 4
    path = tmp_path / "trivial3.txt"
    path.write_text("1\n2\n3\n")
    assert run_cli("energy", "--seq", path, "--max-pairs", 8) == 4
    # 10^9 + 1 Bohr intervals, over MAX_BOHR_PIECES = 2^24: refused before any is built
    assert run_cli("bohr", "--d", 10**9, "--delta", "1/4") == 4
    err = capsys.readouterr().err
    assert err.count("budget refusal") == 5
    assert run_cli("energy", "--seq", path, "--max-pairs", 9) == 0
    assert "E = 19" in capsys.readouterr().out
    # one run costs its elements and one piece: 5000 elements are far within
    # the budget, though 5000^2 is not
    assert run_cli("energy", "--family", "identity", "--seq-n", 5000) == 0
    assert f"E = {ap_energy_closed_form(5000)}" in capsys.readouterr().out


def test_energy_past_int64_within_a_raised_budget(capsys):
    # E passes 2^63 from n = 2,097,152 on, and 2n^3 from n = 1,664,512 on
    assert run_cli("energy", "--family", "identity", "--seq-n", 2000000,
                   "--max-pairs", 1000000000) == 0
    assert "E = 5333333333334000000" in capsys.readouterr().out.splitlines()



@pytest.mark.parametrize("argv", [
    ["energy", "--family", "identity", "--seq-n", "10", "--max-pairs=-5"],
    ["scaling", "--family", "blocks", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
     "--jmax", "8", "--max-pairs=-5", "--csv", "{out}"],
    ["corollary-table", "--r", "1", "--jmax", "12", "--max-pairs=-5", "--csv", "{out}"],
    ["mc", "--family", "power", "--seq-n", "50", "--trials", "1", "--schedule", "50",
     "--seed", "1", "--max-points=-1", "--csv", "{out}"],
], ids=["energy", "scaling", "corollary-table", "mc"])
def test_negative_budgets_are_config_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert run_cli(*(a.format(out=out) for a in argv)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    key = {"energy": "energy.max_pairs", "scaling": "scaling.max_pairs",
           "corollary-table": "table.max_pairs", "mc": "mc.max_points"}[argv[0]]
    assert line.startswith(f"config error: {key}: ") and "negative" in line
    assert not out.exists()


def test_budget_refusals_come_before_the_sequence_is_loaded(tmp_path, monkeypatch, capsys):
    def no_load(p):
        raise AssertionError("the sequence was loaded before the budget check")

    monkeypatch.setattr(ppclab.cli, "_load_sequence", no_load)
    path = tmp_path / "never-read.txt"  # does not exist: a read would fail
    assert run_cli("mc", "--seq", path, "--trials", 10, "--schedule", 500, "--seed", 1,
                   "--max-points", 100, "--csv", tmp_path / "x.csv") == 4
    assert run_cli("mc", "--family", "power", "--seq-n", 10**7, "--trials", 10,
                   "--schedule", 10**7, "--seed", 1, "--csv", tmp_path / "x.csv") == 4
    # 2 * 10^6 elements at 16 operations each, over the default budget of
    # 2^24 whatever their pairs cost: from energy.n ...
    assert run_cli("energy", "--seq", path, "--n", 2 * 10**6) == 4
    # ... or from a classic family's seq.n
    assert run_cli("energy", "--family", "power", "--seq-n", 2 * 10**6) == 4
    assert run_cli("energy", "--family", "identity", "--seq-n", 10, "--n", 2 * 10**6) == 4
    assert capsys.readouterr().err.count("budget refusal") == 5
    assert not (tmp_path / "x.csv").exists()


def test_budget_refusals_return_within_a_second(tmp_path, monkeypatch, capsys):
    # a refusal on the elements alone, 16 operations each, before the set is
    # built; then refusals on the work charged from the reduced set, where
    # the elements alone are within the budget: run-free primes (their key
    # pass), 10^6 of them near the most that charge admits, and T_14 of the
    # blocks (16 * 15783 = 252528 for the elements, about 7.2 * 10^5 in all)
    seq_file = tmp_path / "blocks14.txt"
    run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
            "--jmax", 14, "--out", seq_file)
    cases = [(["energy", "--family", "identity", "--seq-n", 10**9], None),
             (["energy", "--family", "primes", "--seq-n", 10**6], 16 * 10**6),
             (["energy", "--family", "primes", "--seq-n", 6000], 16 * 6000),
             (["scaling", "--seq", seq_file, "--max-pairs", 5 * 10**5,
               "--csv", tmp_path / "x.csv"], 16 * 15783),
             (["energy", "--seq", seq_file, "--max-pairs", 5 * 10**5], 16 * 15783)]
    for argv, elements in cases:
        start = time.perf_counter()
        assert run_cli(*argv) == 4
        assert time.perf_counter() - start < 1.0
        asked = int(re.search(r"about (\d+) pair operations", capsys.readouterr().err)[1])
        assert asked == 16 * 10**9 if elements is None else asked > elements
    # the split's own charge on the T_12 blocks, 12 runs and 10 families:
    # 16 per element, one per pair of the 78 shapes, and 16 per pair with one
    # of the 120 box groups and per family item,
    # 16 * 4167 + 78 * 79 / 2 + 16 * (120 * 78 + 120 * 121 / 2 + 12430)
    t12 = ["scaling", "--family", "blocks", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
           "--jmax", 12, "--csv", tmp_path / "t12.csv", "--max-pairs"]
    start = time.perf_counter()
    assert run_cli(*t12, 534552) == 4
    assert time.perf_counter() - start < 1.0
    assert "about 534553 pair operations" in capsys.readouterr().err
    assert not (tmp_path / "t12.csv").exists()
    assert run_cli(*t12, 534553) == 0
    # the mc, build-seq and bohr refusals of test_budget_refusals_exit_4,
    # the element list of T_19 that scaling would form, the C_j through
    # T_40, and the residue words of pc and probe over MAX_POINTS = 5 * 10^7:
    # 6 * 10^7 identity members, refused before classic builds them, and
    # the 51907929 members of T_26, before any residue is formed
    def never(*args):
        raise AssertionError("the refused work was started")

    monkeypatch.setattr(ppclab.cli, "classic", never)
    monkeypatch.setattr(ppclab.cli, "divergence_probe", never)
    blocks = ["--family", "blocks", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3"]
    others = [(["mc", "--family", "power", "--seq-n", 500, "--trials", 10, "--schedule", 500,
                "--seed", 1, "--max-points", 100, "--csv", tmp_path / "x.csv"],
               "about 5000 sampled points"),
              (["build-seq", *blocks, "--jmax", 25, "--out", tmp_path / "x.txt"],
               "element bits exceed"),
              (["scaling", *blocks, "--jmax", 19, "--csv", tmp_path / "x.csv"],
               "about 30085013672 element bits exceed the budget of 8589934592 for one "
               "element list"),
              (["build-seq", *blocks, "--jmax", 40, "--out", tmp_path / "x.txt"],
               "bits of C_j through level 40"),
              (["pc", "--family", "identity", "--seq-n", 6 * 10**7, "--alpha", "1/7"],
               "about 60000000 residue words"),
              (["probe", *blocks, "--jmax", 26, "--levels", "8..26", "--s", 1,
                "--alpha-from-regular-system", "j=10", "rank=3", "target=14"],
               "about 51907929 residue words"),
              (["bohr", "--d", 10**9, "--delta", "1/4"], "1000000001 Bohr intervals")]
    for argv, refusal in others:
        start = time.perf_counter()
        assert run_cli(*argv) == 4
        assert time.perf_counter() - start < 1.0
        assert refusal in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.txt").exists()


def test_edited_sequence_file_is_rejected(tmp_path, capsys):
    seq_file = tmp_path / "seq.txt"
    run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
            "--jmax", 6, "--out", seq_file)
    text = seq_file.read_text().splitlines()
    text.append(str(10**9))  # tamper: extra element not in the construction
    seq_file.write_text("\n".join(text) + "\n")
    assert run_cli("energy", "--seq", seq_file) == 3
    assert "metadata" in capsys.readouterr().err


def test_module_entry_point():
    # the subprocess finds the package in src/ whether or not it is installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ppclab.cli", "bohr", "--d", "1", "--delta", "1/4"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "measure = 1/2" in proc.stdout


@pytest.mark.parametrize("rank", ["-1", "-5"])
def test_probe_refuses_a_negative_regular_system_rank(tmp_path, capsys, rank):
    assert run_cli("probe", "--family", "blocks", "--f", "ilog(1)", "--beta", "0.7",
                   "--gamma", "0.45", "--jmax", 8, "--levels", 8,
                   "--alpha-from-regular-system", "j=8", f"rank={rank}",
                   "--csv", tmp_path / "probe.csv") == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error") and "rank" in err
    assert not (tmp_path / "probe.csv").exists()


@pytest.mark.parametrize("rank, code", [("1000000000", 0), ("1000000000000000", 4)])
def test_probe_picks_a_far_regular_system_rank_directly(tmp_path, capsys, rank, code):
    # level 40's first denominator alone holds over 10^9 candidates; the far
    # rank's walk is refused before it starts
    assert run_cli("probe", "--family", "blocks", "--f", "ilog(1)", "--beta", "0.7",
                   "--gamma", "0.45", "--jmax", 8, "--levels", 8,
                   "--alpha-from-regular-system", "j=40", f"rank={rank}",
                   "--csv", tmp_path / "probe.csv") == code
    err = capsys.readouterr().err
    assert (tmp_path / "probe.csv").exists() == (code == 0)
    assert len(err.splitlines()) == (code != 0)


@pytest.mark.parametrize("argv", [
    ["pc", "--family", "power", "--seq-n", "5", "--alpha", "1/3", "--s", "-1/2"],
    ["pc", "--family", "power", "--seq-n", "5", "--alpha", "1/3", "--bogus", "1"],
    [],
], ids=["negative-s-read-as-a-flag", "unknown-flag", "no-subcommand"])
def test_usage_errors_are_one_config_error_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


@pytest.mark.parametrize("argv", [["--help"], ["mc", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: ppclab" in capsys.readouterr().out


def test_one_parser_serves_a_usage_error_between_two_runs(tmp_path):
    # the parser is built once per process; a usage error between two good
    # runs leaves it as it was, so each call ends as it ends alone
    calls = [
        ["bohr", "--d", "3", "--delta", "1/10"],
        ["pc", "--family", "power", "--seq-n", "5", "--alpha", "1/3", "--bogus", "1"],
        ["pc", "--family", "power", "--seq-n", "40", "--alpha", "1/7", "--s", "1/2"],
    ]
    alone = []
    for argv in calls:
        ppclab.cli._build_parser.cache_clear()
        alone.append(_run_main(argv)[:2])
    ppclab.cli._build_parser.cache_clear()
    assert [_run_main(argv)[:2] for argv in calls] == alone
    assert [code for code, _ in alone] == [0, 2, 0]
    assert ppclab.cli._build_parser() is ppclab.cli._build_parser()


@pytest.mark.parametrize("source", ["flags", "file"])
def test_probe_never_forms_the_element_list(tmp_path, monkeypatch, capsys, source):
    blocks = ["--f", "ilog(1)", "--beta", "0.7", "--gamma", "0.45", "--jmax", "12"]
    seq_args = ["--family", "blocks", *blocks]
    if source == "file":
        assert run_cli("build-seq", *blocks, "--out", tmp_path / "seq.txt") == 0
        seq_args = ["--seq", tmp_path / "seq.txt"]
    probed = []

    def probe(seq, *args):
        probed.append(seq)
        return divergence_probe(seq, *args)

    divergence_probe = ppclab.cli.divergence_probe
    monkeypatch.setattr(ppclab.cli, "divergence_probe", probe)
    assert run_cli("probe", *seq_args, "--levels", "8..12", "--s", 1,
                   "--alpha-from-regular-system", "j=10", "rank=3", "target=11") == 0
    (seq,) = probed
    # the residues came per block, and nothing asked for the members
    assert "elements" not in seq.__dict__
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if "R=" in line]
    assert len(rows) == 5 and seq.elements  # the list forms on first access
    assert "elements" in seq.__dict__


def test_pc_probe_and_mc_reach_t21_without_the_element_list(tmp_path, monkeypatch, capsys):
    # the (2/3, 1/3) blocks through T_21: 1748223 members, whose element
    # list (about 4.7 * 10^11 bits) is over the budget; the residues come
    # per block, so nothing here may ask for it
    def no_elements(seq):
        raise AssertionError("the element list was formed")

    monkeypatch.setattr(BlockSequence, "elements", property(no_elements))
    blocks = ["--family", "blocks", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
              "--jmax", 21]
    assert run_cli("pc", *blocks, "--alpha", "1/13", "--s", 1) == 0
    assert "R = 78983276132/582741 " in capsys.readouterr().out
    assert run_cli("probe", *blocks, "--levels", "20,21", "--s", 1,
                   "--alpha-from-regular-system", "j=10", "rank=3", "target=14") == 0
    rows = [line.split()[3] for line in capsys.readouterr().out.splitlines() if "R=" in line]
    assert rows == ["R=6.5326381150393615", "R=7.765230179445071"]
    csv = tmp_path / "mc.csv"
    assert run_cli("mc", *blocks, "--trials", 1, "--schedule", 1748223, "--seed", 1,
                   "--csv", csv) == 0
    assert csv.read_text().splitlines()[1] == "0,1,1748223,1,196707.32963586453"


# -- fuzzing the evaluator's commands ---------------------------------------------------
#
# pc, probe, mc, energy, scaling, bohr, bc-ratio, corollary-table and
# build-seq (of classic families and of blocks) with flags drawn from small
# pools of valid and malformed tokens: whatever the draw, main returns 0, 2,
# 3 or 4 and a refusal is one line on stderr.  Each flag has a pool of valid
# tokens and one of malformed ones (None leaves the flag out); a run takes
# valid tokens for all flags but at most one, so most runs get past the
# parser.  The pools keep every run small: classic families of at most 50
# elements, blocks through level 8 (level 40 is refused by the charge on
# the C_j the build holds), ranks up to 100, short level ranges, Bohr frequencies up to 30,
# interval files of a few lines.  Every draw is also written as a config
# file and run through ``run``: the same exit code, and on success the same
# stdout and output file bytes.

CLASSIC_FLAGS = {
    "--family": (["identity", "power", "primes", "lacunary"], ["squares", None]),
    "--seq-n": (["1", "7", "50"], ["0", "-3", "x", None]),
    "--seq-param": ([None, "3"], ["0", "-2"]),
}
BLOCK_FLAGS = {
    "--family": (["blocks"], ["squares", None]),
    "--f": (["ilog(1)", "ilog(2)"], ["ilog(", None]),
    "--beta": (["0.7", "2/3"], ["x", "2", None]),
    "--gamma": (["0.45", "1/3"], ["2", None]),
    "--jmax": (["8"], ["1", "5", "0", "-1", None]),
}
ALPHA = (["1/13", "5/97", "0.25", "fixed:12345:200:64"],
         ["1/0", "nan", "fixed:1:8:8", "fixed:3:70", None])
S = (["1", "1/2", "0", "3"], ["-1/2", "1/0", "x"])
# the rank is the regular system's free index, so every draw mixes in bad ones
SYSTEM = (
    [f"j={j} rank={rank}{extra}" for j in (7, 8) for rank in (0, 3, 100, -1, -5, -100, "x")
     for extra in ("", " target=8", " eta=1/31200")],
    ["j=x rank=0", "j=-1 rank=0", "rank=0", "j=8", "j=8 rank=0 target=99",
     "j=8 rank=0 target=x", "j=8 rank=0 eta=-1", "j=8 rank=0 eta=1/0", "j=8 rank=0 bogus=1",
     "j=8 rank", "j=8 rank=0 rank=1", None],
)
COMMAND_FLAGS = {
    "pc": {"--alpha": ALPHA, "--n": ([None, "1", "7"], ["0", "51", "-1"]), "--s": S},
    "probe": {
        "--levels": (["7..8", "8", "1..8", "3,5"], ["8..7", "", "0..2", "7..9", "x..2", None]),
        "--s": S,
        # exactly one source of alpha is valid; both or neither is malformed
        "source": (["alpha", "system"], ["both", "neither"]),
    },
    "mc": {
        "--trials": (["1", "2"], ["0", "-1", None]),
        "--schedule": (["1", "7", "7,1,7"], ["0", "51", "-5", "", "x", None]),
        "--s": (["1", "1/2,1", "0"], ["-1/2", "1,-1/2", "", None]),
        "--seed": (["1", "0", "-7"], ["x", None]),
    },
    "energy": {
        "--n": ([None, "1", "7"], ["0", "-1", "x"]),
        "--max-pairs": ([None, "30", "100000"], ["x", "1/2", "-1"]),
    },
    "scaling": {
        "--levels": ([None, "2..8", "8", "3,5"], ["8..7", "", "0..2", "7..9", "x"]),
        "--max-pairs": ([None, "30", "100000"], ["x", "1/2", "-1"]),
    },
    "bohr": {
        "--d": (["1", "2", "-7", "30"], ["0", "x", "1/2", None]),
        "--delta": (["0", "1/8", "1/3", "1/2"], ["-1/4", "3/4", "x", "1/0", None]),
    },
    "build-seq": {},
    "build-seq-blocks": {
        "--family": ([None, "blocks"], ["squares"]),
        "--f": (["ilog(1)", "ilog(2)", "ilog_eps(1, 1/2)"], ["ilog(", "ilog(0)", "pow(1)", None]),
        "--beta": (["0.7", "2/3"], ["x", "2", "0.3", "1/0", None]),
        "--gamma": (["0.45", "1/3"], ["x", "0.9", "-1", None]),
        "--jmax": (["1", "5", "8"], ["0", "-1", "x", "40", None]),
    },
    "bc-ratio": {
        "--sets": (["half", "half middle", "middle pair half", "empty half"],
                   ["empty", "half zero-den", "one-end", "words middle", "reversed",
                    "non-ascii", "missing", "half missing"]),
    },
    "corollary-table": {
        "--r": (["1", "2"], ["0", "3", "x"]),
        "--jmax": (["2", "5", "8"], ["0", "-1", "x"]),
        "--beta": ([None, "0.7"], ["2", "x"]),
        "--gamma": ([None, "0.45"], ["2", "x"]),
        "--eps": (["1", "1/2"], ["0", "2", "x"]),
        "--max-pairs": ([None, "30", "100000"], ["x", "1/2", "-1"]),
    },
}
# the sequence flags each command draws from: none for bohr, bc-ratio,
# corollary-table and build-seq of blocks (whose own pools hold them),
# classic families for build-seq, blocks for probe, either for the others
SEQ_POOLS = {"bohr": {}, "bc-ratio": {}, "corollary-table": {}, "build-seq": CLASSIC_FLAGS,
             "build-seq-blocks": {}, "probe": BLOCK_FLAGS}
# the command a pool entry runs, where its name is not the command's
COMMANDS = {"build-seq-blocks": "build-seq"}
# the interval files bc-ratio draws from, by name; "missing" is never written
INTERVAL_FILES = {
    "half": b"0 1/2\n",
    "middle": b"# a comment\n1/4 3/4\n",
    "pair": b"0 1/8\n\n1/2 5/8\n",
    "empty": b"",
    "zero-den": b"0 1/0\n",
    "one-end": b"1/2\n",
    "words": b"x y\n",
    "reversed": b"3/4 1/4\n",
    "non-ascii": b"0 1/2\xa0\n",
}


@st.composite
def evaluator_run(draw, name, out):
    """The argv of one run of the pool entry ``name`` and its config-file
    text, its output file (if any) under ``out``."""
    command = COMMANDS.get(name, name)
    seq_pools = SEQ_POOLS[name] if name in SEQ_POOLS else (
        BLOCK_FLAGS if draw(st.booleans()) else CLASSIC_FLAGS)
    pools = {**seq_pools, **COMMAND_FLAGS[name]}
    bad = draw(st.sampled_from([None] * len(pools) + list(pools)))
    flags = {flag: draw(st.sampled_from(malformed if flag == bad else valid))
             for flag, (valid, malformed) in pools.items()}
    greedy = {}  # flags whose tokens follow them one by one
    if command == "probe":
        source = flags.pop("source")
        if source != "system":
            flags["--alpha"] = draw(st.sampled_from(ALPHA[0])) if source != "neither" else None
        if source in ("system", "both"):
            system = draw(st.sampled_from(SYSTEM[0] + SYSTEM[1]))
            if system:
                greedy["--alpha-from-regular-system"] = system.split()
    if command == "bc-ratio":
        greedy["--sets"] = [str(out / file) for file in flags.pop("--sets").split()]
    keys = {param.flag: param.key for param in EXPERIMENTS[command]}
    for flag in ("--csv", "--out"):
        if flag in keys:
            flags[flag] = str(out / f"{command}.out")
    # --flag=value, so that a value such as -1/2 is not read as a flag
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    for flag, tokens in greedy.items():
        argv += [flag, *tokens]
        flags[flag] = " ".join(tokens)
    config = [f"experiment = {command}"] + [
        f"{keys[flag]} = {value}" for flag, value in flags.items() if value is not None]
    return argv, "\n".join(config) + "\n"


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", COMMAND_FLAGS)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_evaluator_commands_exit_with_a_code_and_one_line(tmp_path, name, data):
    for file, content in INTERVAL_FILES.items():
        (tmp_path / file).write_bytes(content)
    argv, config = data.draw(evaluator_run(name, tmp_path))
    command = argv[0]
    output = tmp_path / f"{command}.out"
    output.unlink(missing_ok=True)
    code, out, err = _run_main(argv)
    assert code in (0, 2, 3, 4), argv
    if code:
        assert len(err.splitlines()) == 1, (argv, err)
    written = output.read_bytes() if code == 0 and output.exists() else None
    # the same run from a config file
    output.unlink(missing_ok=True)
    path = tmp_path / f"{command}.cfg"
    path.write_text(config)
    twin_code, twin_out, _ = _run_main(["run", str(path)])
    assert twin_code == code, (argv, config)
    if code == 0:
        assert twin_out == out, (argv, config)
        assert (output.read_bytes() if output.exists() else None) == written, (argv, config)
