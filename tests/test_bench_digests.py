"""Report bytes at benchmark scale: every workload of bench/workloads.json,
run in-process on its seed-0 inputs, must write reports whose sha256 equals
the digest pinned in bench/digests.json. Only reads bench/."""

import hashlib
import json
import os

import pytest

from fshom.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
SEED = 0


def load(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = load("workloads.json")["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reports_match_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # bench/inputs.py imports its sibling gen.py
    import inputs

    spec = WORKLOADS[name]
    inputs.make_inputs(name, spec["params"], SEED, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    got = {}
    for command in spec["prep"] + spec["commands"]:
        argv = list(command["argv"])
        assert main(argv) == 0, argv
        out = argv[argv.index("--out") + 1]
        got[out] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    assert got == load("digests.json")[name][str(SEED)]
