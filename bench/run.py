"""fshom benchmark: seeded workloads through the `fshom` CLI, end to end and
per layer.

Run from the root of a source checkout (the directory holding src/fshom):

    python3 bench/run.py --workload crisp-homology-z --seed 1 --seconds 20 --trace 0

One run generates the workload's inputs from the seed, times interpreter
start-up plus `import fshom.cli` in fresh processes (setup_s), then runs the
workload's command sequence in a closed loop in one fresh child process
through `fshom.cli.main` for the given seconds. Both timings are scaled to a
reference machine speed by the probe in speed.py, which times a fixed chunk
of work during each pass and right after each import; the raw times go to
the summary and the record. Every report is checked: the command must exit
0, its bytes must match the digest pinned for the seed in bench/digests.json
(or, for an unpinned seed, the first pass), and it must satisfy the
invariants in checks.py. With --trace 1 the child runs untraced
passes for half the time and traced passes for the other half, and the run
reports per-layer metrics and the tracing overhead instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable summary.
A full record (percentiles, sample counts, Python version, nproc, git sha)
goes to .bench_out/. `--workload all` runs every workload untraced and then
traced, one block each. `--pin FIRST LAST` re-pins the report digests of
seeds FIRST..LAST; do that only when reports are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import inputs
import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = os.path.join(BENCH, "workloads.json")
DIGESTS = os.path.join(BENCH, "digests.json")
# set-up is timed in two halves, before and after the passes, so that one
# slow spell of the machine does not set the whole median; one extra spawn
# first warms the byte-code cache and is not counted
SETUP_SPAWNS = 10
SETUP_PROBE_CHUNKS = 20
CHILD_GRACE_S = 60


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + BENCH
    env.pop("PYTHONSTARTUP", None)
    return env


def measure_setup(root, spawns) -> list:
    """Seconds from spawning a fresh interpreter until fshom.cli is imported,
    once per spawn, with the mean chunk time of the speed probe that the
    child runs right after; the child signals on stdout once the import has
    finished, then writes its chunk time."""
    code = ("import fshom.cli, sys; sys.stdout.write('.'); sys.stdout.flush(); "
            f"import speed; sys.stdout.write(repr(speed.mean_chunk({SETUP_PROBE_CHUNKS})))")
    samples = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=root, env=_env(root),
                                stdout=subprocess.PIPE)
        try:
            got = proc.stdout.read(1)
            t1 = time.perf_counter()
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=CHILD_GRACE_S)
        if got != b"." or proc.returncode != 0:
            raise BenchError("importing fshom.cli failed in a fresh interpreter")
        samples.append({"raw_s": t1 - t0, "probe_s": float(rest)})
    return samples


def run_worker(root, workdir, job) -> dict:
    job_path = os.path.join(workdir, "job.json")
    result_path = os.path.join(workdir, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py"), job_path, result_path],
                            cwd=workdir, env=_env(root))
    try:
        rc = proc.wait(timeout=job["seconds"] + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("the workload child did not finish in time") from None
    if rc != 0:
        raise BenchError(f"the workload child exited with {rc}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def out_path(argv) -> str:
    return argv[argv.index("--out") + 1]


def judge(workload, pinned, workdir, facts, result) -> dict:
    """Count attempted and failed commands and collect the problems found.

    `pinned` maps each report file to its expected sha256, or is None when
    the seed has no pinned digests."""
    runs = [(spec, [r]) for spec, r in zip(workload["prep"], result["prep"])]
    for i, spec in enumerate(workload["commands"]):
        runs.append((spec, [p["results"][i] for p in result["passes"] + result["traced"]]))
    attempted = failed = 0
    problems = []
    for spec, results in runs:
        out = out_path(spec["argv"])
        want = pinned.get(out) if pinned else results[0]["sha256"]
        # the report bytes are the same in every passing run, so the
        # invariants are checked once, on the report of the last pass
        invariant = check_report(spec["check"], os.path.join(workdir, out), facts[spec["complex"]])
        problems += [f"{out}: {p}" for p in invariant]
        for r in results:
            attempted += 1
            bad = r["rc"] != 0 or r["sha256"] != want or invariant
            failed += bool(bad)
            if r["rc"] != 0:
                problems.append(f"{out}: exit {r['rc']} {r['error'] or ''}".rstrip())
            elif r["sha256"] != want:
                problems.append(f"{out}: report digest {r['sha256']} != {want}")
    return {"attempted": attempted, "failed": failed, "pinned": bool(pinned),
            "problems": sorted(set(problems))}


def check_report(kind, path, by_dim) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as e:
        return [f"no readable report: {e}"]
    try:
        return checks.CHECKS[kind](report, by_dim)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as e:
        return [f"malformed report: {type(e).__name__}: {e}"]


def tail(samples) -> dict:
    """Fastest, median and the highest percentile with at least ten samples
    above it."""
    s = sorted(samples)
    out = {"n": len(s), "min": s[0], "median": statistics.median(s)}
    i = len(s) - 11
    if i >= 0:
        out[f"p{100 * (i + 1) // len(s)}"] = s[i]
    return out


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def environment(root) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(root), "machine": platform.machine()}


def load_digests() -> dict:
    """Pinned report digests: workload -> seed -> report file -> sha256."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run_once(root, name, workload, seed, seconds, trace, pinned=None, time_setup=True) -> dict:
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=os.path.join(root, ".bench_work"))
    try:
        facts = inputs.make_inputs(name, workload["params"], seed, workdir)
        setup = measure_setup(root, 1 + SETUP_SPAWNS // 2)[1:] if time_setup else []
        result = run_worker(root, workdir, {"prep": workload["prep"], "commands": workload["commands"],
                                            "seconds": seconds, "trace": bool(trace)})
        if time_setup:
            setup += measure_setup(root, SETUP_SPAWNS - len(setup))
        verdict = judge(workload, pinned, workdir, facts, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup": setup, "result": result, "verdict": verdict}


def median_pass(passes) -> dict:
    """The pass with the median wall time (the lower middle one for an even count)."""
    return sorted(passes, key=lambda p: p["wall_s"])[(len(passes) - 1) // 2]


def scaled_walls(result) -> list:
    """Each pass's time without the probe chunks that ran inside it, scaled
    to the reference speed by the mean time of those chunks. A pass too
    short to hold a chunk takes the mean chunk of the whole run."""
    run_chunk = statistics.fmean(result["probe_s"])
    out = []
    for p in result["passes"]:
        inside = p["probe_s"]
        chunk = statistics.fmean(inside) if inside else run_chunk
        out.append(speed.scaled(p["wall_s"] - sum(inside), chunk, speed.PASS_ELASTICITY))
    return out


def scaled_setups(setup) -> list:
    return [speed.scaled(s["raw_s"], s["probe_s"], speed.SETUP_ELASTICITY) for s in setup]


def end_to_end(run) -> tuple:
    res = run["result"]
    walls = scaled_walls(res)
    setups = scaled_setups(run["setup"])
    v = run["verdict"]
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": res["maxrss_kb"] / 1024, "unit": "MB"},
    }
    detail = {"wall_s": tail(walls), "setup_s": tail(setups),
              "raw_wall_s": tail([p["wall_s"] for p in res["passes"]]),
              "raw_setup_s": tail([s["raw_s"] for s in run["setup"]]),
              "probe_chunk_s": tail(res["probe_s"]),
              "fail_ratio": v["failed"] / v["attempted"]}
    return metrics, detail


def per_layer(run) -> tuple:
    """Layer metrics of the median traced pass, so that they add up within
    one pass, and the tracing overhead as median traced minus median
    untraced pass time."""
    res = run["result"]
    traced = res["traced"]
    middle = median_pass(traced)
    metrics = dict(middle["layers"])
    untraced = statistics.median(p["wall_s"] for p in res["passes"])
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced_wall - untraced
    metrics["trace.overhead_ratio"] = traced_wall / untraced - 1
    counts_repeat = all(p["layers"][n] == middle["layers"][n] for p in traced for n in middle["layers"]
                        if layer_unit(n) in ("count", "bits"))
    return ({n: {"value": v, "unit": layer_unit(n)} for n, v in metrics.items()},
            {"traced_passes": len(traced), "untraced_passes": len(res["passes"]),
             "counts_repeat": counts_repeat})


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_class"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def pin(root, name, workload, first, last, digests) -> None:
    """Record the report digests of one pass for each seed in first..last."""
    for seed in range(first, last + 1):
        run = run_once(root, name, workload, seed, 0, 0, time_setup=False)
        v = run["verdict"]
        if v["failed"]:
            raise BenchError(f"seed {seed}: refusing to pin failing reports: {v['problems'][:3]}")
        specs = workload["prep"] + workload["commands"]
        res = run["result"]
        shas = [r["sha256"] for r in res["prep"]] + [r["sha256"] for r in res["passes"][0]["results"]]
        digests[str(seed)] = {out_path(s["argv"]): h for s, h in zip(specs, shas)}
        print(f"pinned {name} seed {seed}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", type=int, nargs=2, metavar=("FIRST", "LAST"))
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fshom", "cli.py")):
        raise BenchError("run from the root of an fshom checkout: src/fshom/cli.py not found")
    with open(WORKLOADS, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"] and args.workload != "all":
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from all, {', '.join(spec['workloads'])}")

    if args.pin:
        digests = load_digests()
        for name in spec["workloads"] if args.workload == "all" else [args.workload]:
            pin(root, name, spec["workloads"][name], *args.pin, digests.setdefault(name, {}))
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    if args.workload == "all":
        results = [report(root, spec, name, args.seed, args.seconds, trace)
                   for name in spec["workloads"] for trace in (0, 1)]
        return 0 if all(results) else 1
    report(root, spec, args.workload, args.seed, args.seconds, args.trace)
    return 0


def report(root, spec, name, seed, seconds, trace) -> bool:
    """Run one workload, write its record to .bench_out/, print its summary
    and, last, the JSON result line. Returns whether every report passed."""
    pinned = load_digests().get(name, {}).get(str(seed))
    run = run_once(root, name, spec["workloads"][name], seed, seconds, trace, pinned)
    v = run["verdict"]
    if trace:
        metrics, detail = per_layer(run)
    else:
        metrics, detail = end_to_end(run)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(root), "client": spec["client"],
              "verdict": v, "detail": detail, "metrics": metrics,
              "raw_wall_s_samples": [p["wall_s"] for p in run["result"]["passes"]],
              "pass_probe_s_samples": [p.get("probe_s") for p in run["result"]["passes"]],
              "setup_samples": run["setup"]}
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-s{seed}-t{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(median_pass(run["result"]["traced"])["spans"], fh)

    env = record["environment"]
    print(f"workload {name} seed {seed}: {v['attempted']} commands attempted, "
          f"{v['failed']} failed, digests {'pinned' if v['pinned'] else 'unpinned for this seed'}")
    print(f"python {env['python']}, nproc {env['nproc']}, git {env['git_sha'] or 'unknown'}")
    for p in v["problems"][:20]:
        print(f"  problem: {p}")
    if trace:
        print(f"traced passes {detail['traced_passes']}, untraced {detail['untraced_passes']}, "
              f"counts repeat across passes: {detail['counts_repeat']}")
        for metric, m in metrics.items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    else:
        for metric in ("wall_s", "setup_s", "raw_wall_s", "raw_setup_s", "probe_chunk_s"):
            t = detail[metric]
            extra = "".join(f", {k} {t[k]:.4f}" for k in t if k.startswith("p"))
            print(f"  {metric} = {t['median']:.4f} s (median{extra}, min {t['min']:.4f}, n={t['n']})")
        print(f"  peak_rss_mb = {metrics['peak_rss_mb']['value']:.2f} MB")
        print(f"  fail_ratio = {detail['fail_ratio']:.4f} ({v['failed']}/{v['attempted']})")
    print(json.dumps({"correct": v["failed"] == 0, "attempted": v["attempted"],
                      "failed": v["failed"], "metrics": metrics}), flush=True)
    return v["failed"] == 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        sys.exit(2)
