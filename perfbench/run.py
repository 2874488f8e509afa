"""ppclab benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  NAME is one of the workloads in
BENCHMARK.json, or ``all`` to run each in turn.  The load is batch work in
a closed loop: one caller runs one experiment at a time, each workload in a
fresh single-threaded interpreter (child.py) with PPCLAB_THREADS cleared.

``--trace 0`` reports the end-to-end metrics: the median wall and CPU time
of a timed pass (passes repeat until ``--seconds`` of them are measured),
the median set-up time over several fresh interpreters, and the peak
resident memory.  ``--trace 1`` runs the workload once untraced and once
with spans around every layer, and reports the per-layer metrics plus the
tracing overhead.  Every output is checked for exactness outside the timed
part; the last line of standard output is the JSON result.  Results, with
an environment stamp, go to .perfbench/results/ and spans to
.perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# samples of set-up time per run: the timed child plus fresh set-up-only ones
SETUP_SAMPLES = 7
# every run must end within 180 s
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def source_stamp() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src/ppclab."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ppclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, started: float) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.started = started
        self.workdir = OUT / f"work-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "PPCLAB_THREADS"}

    def spawn(self, mode: str, trace: bool = False) -> dict:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        result = self.workdir / "result.json"
        spec = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "mode": mode, "trace": trace, "workdir": str(self.workdir),
            "result": str(result),
            "trace_path": str(OUT / "traces" / f"{self.workload}-seed{self.seed}.json"),
        }
        log = OUT / "logs" / f"{self.workload}-seed{self.seed}.log"
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        with open(log, "ab") as fh:
            spec["spawned_at"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{self.workload}: child overran the {DEADLINE_S:.0f} s limit")
        if code != 0 or not result.exists():
            raise BenchError(f"{self.workload}: child exited with {code}; see {log}")
        with open(result, "r", encoding="ascii") as fh:
            return json.load(fh)

    def measure(self) -> tuple[dict, list[dict]]:
        # set-up samples before and after the timed child spread over the run
        before = (SETUP_SAMPLES - 1) // 2
        setups = [self.spawn("setup")["setup_s"] for _ in range(before)]
        run = self.spawn("run")
        setups.append(run["setup_s"])
        setups += [self.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1 - before)]
        metrics = {
            "wall_s": run["wall_s"],
            "cpu_s": run["cpu_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        run["setup_samples_s"] = setups
        return metrics, [run]

    def measure_traced(self) -> tuple[dict, list[dict]]:
        plain = self.spawn("run")
        traced = self.spawn("run", trace=True)
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        return metrics, [plain, traced]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_one(spec: dict, workload: str, seed: int, seconds: int, trace: bool,
            started: float) -> dict:
    runner = Runner(workload, seed, seconds, started)
    try:
        metrics, children = runner.measure_traced() if trace else runner.measure()
    finally:
        runner.close()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    result = {
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "result": result, "env": {**children[-1]["env"], **source_stamp()},
        "children": [{k: v for k, v in c.items() if k != "layers"} for c in children],
    }
    with open(OUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"{workload} (seed {seed}, trace {int(trace)}): "
          f"{len(children[-1]['pass_wall_s'])} timed pass(es), {attempted - failed}/{attempted} "
          f"operations exact, fail_ratio = {failed / attempted if attempted else 1.0}")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for failure in sum((c["failures"] for c in children), []):
        print(f"  FAILED: {failure}")
    if trace:
        print_shares(children[-1], metrics)
    print(f"  env: {json.dumps(record['env'], sort_keys=True)}")
    return result


def print_shares(traced: dict, metrics: dict) -> None:
    """Each layer's share of the traced run (set-up plus one pass)."""
    total = traced["setup_s"] + traced["wall_s"]
    layers = ("sequences", "energy", "paircorr", "intervals", "growth", "cli")
    shares = ", ".join(
        f"{layer} {100 * metrics[f'{layer}.self_s'] / total:.1f} %" for layer in layers
    )
    print(f"  self-time shares of {total:.3f} s traced: {shares}")


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ppclab" / "__init__.py").is_file():
        print(f"no ppclab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    for sub in ("traces", "logs", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    try:
        if args.workload != "all":
            result = run_one(spec, args.workload, args.seed, seconds, bool(args.trace), started)
        else:
            result = run_all(spec, names, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run_all(spec: dict, names: list[str], seed: int, seconds: int, trace: bool) -> dict:
    """Every workload in turn, each within its own time limit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_one(spec, name, seed, seconds, trace, time.monotonic())
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


if __name__ == "__main__":
    sys.exit(main())
