"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

It runs every workload for one pass on a small seed, so it takes about a
minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(cwd, workload, trace, seed=SEED):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        described = json.load(fh)["workloads"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {n: w["why"] for n, w in described.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_lists_every_metric_and_counts_repeat(workload):
    e2e = result(workload, 0)
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert {n: m["unit"] for n, m in e2e["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e["metrics"].values())

    first, second = result(workload, 1), result(workload, 1)
    assert {n: m["unit"] for n, m in first["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bits")]
    for n in counts:
        assert first["metrics"][n]["value"] == second["metrics"][n]["value"], n


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _reduced_under_trace(complex, ring):
    from fshom.homology import ReducedChainComplex

    tracer = Tracer()
    tracer.install()
    try:
        ReducedChainComplex(complex, ring)
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("ring_name", ["z", "zmod:3"])
def test_one_reduction_makes_dim_plus_one_smith_forms(ring_name):
    from fshom.exact import parse_ring
    from fshom.simplicial import SimplicialComplex

    maximal = gen.random_2complex(gen.rng_for("self-test", SEED, "random"), 7, 12)
    K = SimplicialComplex.from_maximal(maximal)
    tracer = _reduced_under_trace(K, parse_ring(ring_name))
    names = [s[0] for s in tracer.spans]
    assert names.count("homology.reduce") == 1
    assert names.count("exact.snf") == K.dim + 1
    assert names.count("exact.matmul") == 3 * (K.dim + 1)


def test_wrappers_reach_every_binding_and_come_off():
    import fshom.cli  # noqa: F401

    mods = {n: sys.modules[f"fshom.{n}"] for n in ("exact", "homology", "modules", "fuzzyhomology")}
    bound = [("homology", "snf"), ("modules", "snf"), ("modules", "kernel"), ("modules", "solve"),
             ("fuzzyhomology", "kernel"), ("fuzzyhomology", "solve"), ("exact", "snf")]
    before = {b: getattr(mods[b[0]], b[1]) for b in bound}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(mods[m], a) is not before[(m, a)] for m, a in bound)
        assert sys.modules["fshom"].snf is not before[("exact", "snf")]
    finally:
        tracer.uninstall()
    assert all(getattr(mods[m], a) is before[(m, a)] for m, a in bound)


def test_checks_catch_broken_reports():
    triangle = [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]
    cycle = {"0,1": 1, "1,2": 1, "0,2": -1}
    assert checks.chain_problems(cycle, 1, triangle, 0) == []
    assert checks.chain_problems({"0,1": 1}, 1, triangle, 0)
    assert checks.chain_problems({"0,1": 1, "1,2": 1, "0,2": 2}, 1, triangle, 3) == []
    assert checks.euler_problems([1, 1], triangle) == []
    assert checks.euler_problems([1, 0], triangle)
    assert checks.antitone_problems({"a & b": 3, "a": 2, "1": 1, "b | c": 1}, "x") == []
    assert checks.antitone_problems({"a & b": 1, "a": 2}, "x")
    assert checks.antitone_problems({"{p01}": 1, "{p00,p01}": 2}, "x")
