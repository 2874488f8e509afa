"""One benchmark process: set-up, timed passes, exactness checks.

run.py starts it as ``python3 perfbench/child.py SPEC`` with a JSON spec and
reads back the JSON result it writes to ``spec["result"]``.  Each child is a
fresh single-threaded interpreter, so set-up time includes the interpreter
start and the imports.

Spec keys: workload, seed, seconds, mode ("setup" stops after set-up, "run"
also times passes and checks them), trace (record spans), workdir, result,
trace_path, spawned_at (``time.monotonic()`` just before the spawn; the
clock is shared by all processes of the machine).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# caps the repetitions of a very fast pass
MAX_PASSES = 50


def env_stamp() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        # run.py clears the variable, so the CLI's default of one thread applies
        "PPCLAB_THREADS": int(os.environ.get("PPCLAB_THREADS", "1")),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]](
        Path(spec["workdir"]), spec["seed"], workloads.load_references()
    )
    wl.setup()
    result: dict = {"setup_s": time.monotonic() - spec["spawned_at"]}
    if spec["mode"] == "run":
        result.update(run(wl, spec, tracer, workloads.Checks()))
    with open(spec["result"], "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


def run(wl, spec: dict, tracer, checks) -> dict:
    walls, cpus, timed = [], [], 0.0
    while True:
        i = len(walls)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            record, error = wl.run_pass(i), None
        except Exception as exc:
            record, error = None, f"pass {i} raised {type(exc).__name__}: {exc}"
        w1, c1 = time.perf_counter(), time.process_time()
        walls.append(w1 - w0)
        cpus.append(c1 - c0)
        timed += w1 - w0
        if tracer:
            tracer.uninstall()  # the spans cover set-up and one pass
        if error:
            checks.op(False, error)
            break
        try:
            wl.check_pass(i, record, checks)
        except Exception as exc:  # e.g. an output file the check cannot parse
            checks.op(False, f"pass {i} check raised {type(exc).__name__}: {exc}")
        del record
        if tracer or len(walls) >= MAX_PASSES:
            break
        if len(walls) >= wl.min_passes and timed >= spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:20],
        "env": env_stamp(),
    }
    if tracer:
        layers = tracer.layer_metrics()
        layers.update(wl.properties())
        tracer.write(spec["trace_path"])
        out["layers"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main())
