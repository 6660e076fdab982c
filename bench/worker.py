"""Child process of the benchmark: runs one workload's commands in a closed
loop through `fshom.cli.main` and writes timings and report digests to a
JSON file.

Usage: python3 worker.py JOB.json RESULT.json, with the working directory set
to the workload's input directory and fshom importable. The job gives the
prep commands (run once, untimed), the command sequence of one pass, the
measuring time in seconds and whether to trace. With tracing on, the first
half of the time runs untraced passes and the second half traced ones, so
the tracing overhead is measured within one process. Without tracing, a
speed probe (speed.py) runs a small fixed chunk of work every
PROBE_INTERVAL_S seconds, and each pass records the chunk times that fell in
it, so that its time can be scaled to the reference speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

import fshom.cli
from speed import ProbeTimer, chunk
from tracing import Tracer, layer_metrics

PROBE_INTERVAL_S = 0.05


def _run(argv, tracer=None) -> dict:
    if tracer is not None:
        tracer.command += 1
        rec = tracer.open("cli." + argv[0])
    try:
        rc = fshom.cli.main(list(argv))
        error = None
    except SystemExit as e:  # argparse rejects a command line this way
        rc, error = e.code if isinstance(e.code, int) else 2, f"exit {e.code}"
    except Exception as e:  # a crash is one failed command, not a failed run
        rc, error = -1, f"{type(e).__name__}: {e}"
    finally:
        if tracer is not None:
            tracer.close(rec)
    return {"rc": rc, "error": error}


def out_path(argv) -> str:
    return argv[argv.index("--out") + 1]


def _digest(path) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _pass(commands, tracer=None, probe=None) -> dict:
    for c in commands:  # a command that fails must not leave an old report behind
        if os.path.exists(out_path(c["argv"])):
            os.remove(out_path(c["argv"]))
    t0 = perf_counter()
    results = [_run(c["argv"], tracer) for c in commands]
    t1 = perf_counter()
    for c, r in zip(commands, results):
        r["sha256"] = _digest(out_path(c["argv"]))
    p = {"wall_s": t1 - t0, "results": results}
    if probe is not None:
        p["probe_s"] = probe.within(t0, t1)
    return p


def _loop(commands, seconds, tracer=None, probe=None) -> list:
    """Closed loop: passes back to back until `seconds` have elapsed."""
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        p = _pass(commands, tracer, probe)
        if tracer is not None:
            p["layers"] = layer_metrics(tracer.spans, tracer.counts)
            p["spans"] = tracer.spans
        passes.append(p)
        if perf_counter() - start >= seconds:
            return passes


def main(job_path, result_path) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    out = {"prep": [], "passes": [], "traced": []}
    for c in job["prep"]:
        r = _run(c["argv"])
        r["sha256"] = _digest(out_path(c["argv"]))
        out["prep"].append(r)
    seconds = job["seconds"]
    if job["trace"]:
        out["passes"] = _loop(job["commands"], seconds / 2)
        tracer = Tracer()
        tracer.install()
        out["traced"] = _loop(job["commands"], seconds / 2, tracer)
        tracer.uninstall()
    else:
        probe = ProbeTimer(PROBE_INTERVAL_S)
        probe.start()
        try:
            out["passes"] = _loop(job["commands"], seconds, probe=probe)
        finally:
            probe.stop()
        # a run shorter than one probe interval still needs a chunk time
        out["probe_s"] = [d for _, d in probe.samples] or [chunk() for _ in range(5)]
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
