"""End-to-end checks of the command-line interface: frozen printed examples,
CSV column contracts, manifest hashes, determinism, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ppclab.cli
from ppclab.cli import main
from ppclab.energy import energy_scaling
from ppclab.growth import GrowthFunction
from ppclab.sequences import build_blocks, read_sequence

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


def test_pc_frozen_output(tmp_path, capsys):
    path = tmp_path / "trivial3.txt"
    path.write_text("1\n2\n3\n")
    assert run_cli("pc", "--seq", path, "--alpha", "1/3", "--s", 1) == 0
    out = capsys.readouterr().out
    assert "R = 2 (2.0)" in out


def test_scaling_csv_matches_library(tmp_path, capsys):
    seq_file, csv = tmp_path / "seq.txt", tmp_path / "scale.csv"
    run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
            "--jmax", 9, "--out", seq_file)
    assert run_cli("scaling", "--seq", seq_file, "--levels", "6..9",
                   "--csv", csv) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "j,N,energy,f(N),normalized"
    seq = build_blocks(ILOG1, 2 / 3, 1 / 3, 9)
    expect = energy_scaling(seq, [6, 7, 8, 9])
    assert len(lines) == 1 + 4
    for line, row in zip(lines[1:], expect.rows):
        j, n, energy, f_n, normalized = line.split(",")
        assert (int(j), int(n), int(energy)) == (row.level, row.n, row.energy)
        assert float(f_n) == row.f_n
        assert float(normalized) == row.normalized


def test_scaling_default_levels_skip_empty_runs(tmp_path):
    seq_file, csv = tmp_path / "seq.txt", tmp_path / "scale.csv"
    run_cli("build-seq", "--f", "ilog(1)", "--beta", "2/3", "--gamma", "1/3",
            "--jmax", 6, "--out", seq_file)
    assert run_cli("scaling", "--seq", seq_file, "--csv", csv) == 0
    first_rows = [line.split(",")[0] for line in csv.read_text().splitlines()[1:]]
    assert first_rows == ["2", "3", "4", "5", "6"]  # level 1 has no run


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


def test_bc_ratio_pipeline(tmp_path, capsys):
    b3, b5 = tmp_path / "b3.txt", tmp_path / "b5.txt"
    run_cli("bohr", "--d", 3, "--delta", "1/12", "--out", b3)
    run_cli("bohr", "--d", 5, "--delta", "1/20", "--out", b5)
    capsys.readouterr()
    assert run_cli("bc-ratio", "--sets", b3, b5) == 0
    # hand-checked: measures 1/6 and 1/10 overlap only near 0 and 1, each
    # overlap 1/100, so (4/15)^2 / (4/15 + 2/100 * 2) = 16/69
    assert "ratio = 16/69" in capsys.readouterr().out


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
    # n^2 = 25M pair operations, over the default budget of 2^24
    assert run_cli("energy", "--family", "identity", "--seq-n", 5000) == 4
    path = tmp_path / "trivial3.txt"
    path.write_text("1\n2\n3\n")
    assert run_cli("energy", "--seq", path, "--max-pairs", 8) == 4
    # 10^9 + 1 Bohr intervals, over MAX_BOHR_PIECES = 2^24: refused before any is built
    assert run_cli("bohr", "--d", 10**9, "--delta", "1/4") == 4
    err = capsys.readouterr().err
    assert err.count("budget refusal") == 5
    assert run_cli("energy", "--seq", path, "--max-pairs", 9) == 0
    assert "E = 19" in capsys.readouterr().out


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
