"""Golden CLI reports and options: every analysis command, text and JSON,
byte for byte, and every option of every subcommand.

Each case runs `fshom.cli.main` on a fixture project, once to stdout and
once with `--out`, checks that both give the same bytes, and records the
exit code, the sha256 of the report and the sha256 of stderr unless stderr
names a path. The digests live in `tests/fixtures/cli_golden.json` and the
options in `tests/fixtures/cli_parser.json`; a change to any report byte or
any option fails here. Re-pin only for a deliberate, logged change:

    PYTHONPATH=src:tests python tests/test_cli_golden.py --pin
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from fshom.cli import build_parser, main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "cli_golden.json")
PARSER = os.path.join(FIXTURES, "cli_parser.json")

PROJECTS = ("reference", "wide_kappa", "broken", "projective_plane")
COMMANDS = ("validate", "homology", "eta", "cuts", "rank-table")
# one valid --class per project, in degree 0
CLASS_IN_DEGREE_0 = {"reference": "0,1", "wide_kappa": "1", "broken": "1",
                     "projective_plane": "1"}


def variants(project: str, command: str) -> dict:
    """Name -> extra argv, for one command on one project (both modes)."""
    out = {"plain": [], "ring-zmod2": ["--ring", "zmod:2"]}
    if command != "validate":
        out["degree-1"] = ["--degree", "1"]
        out["degree-out-of-range"] = ["--degree", "9"]
    if command == "eta":
        out["class"] = ["--degree", "0", "--class", CLASS_IN_DEGREE_0[project]]
        out["class-degree-1"] = ["--degree", "1", "--class", "1"]
        out["class-without-degree"] = ["--class", "1"]
    if command in ("cuts", "rank-table"):
        out["levels"] = ["--levels", "x", "--levels", "x | y"]
        out["levels-degree-0"] = ["--degree", "0", "--levels", "1"]
        out["bad-level"] = ["--levels", "x & w"]
    return out


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _run(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def record(tmp_dir: str, argv: list) -> dict:
    """Exit code and digests of one invocation, run to stdout and to `--out`."""
    code, out, err = _run(argv)
    out_path = os.path.join(tmp_dir, "report.out")
    if os.path.exists(out_path):
        os.remove(out_path)
    code_out, stdout_out, err_out = _run(argv + ["--out", out_path])
    written = ""
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            written = fh.read()
    # the report is the same whether it goes to stdout or to --out
    assert (code_out, stdout_out, written, err_out) == (code, "", out, err)
    return {
        "exit": code,
        "stdout": _digest(out),
        "stderr": None if FIXTURES in err else _digest(err),
    }


def records(tmp_dir: str, project: str, command: str) -> dict:
    path = os.path.join(FIXTURES, project + ".json")
    out = {}
    for mode, flags in (("text", []), ("json", ["--json"])):
        for name, extra in variants(project, command).items():
            out[f"{mode}/{name}"] = record(tmp_dir, [command, path] + flags + extra)
    return out


def parser_options() -> dict:
    """Subcommand -> every option's strings, dest, default, type, action and
    required flag (help texts left out)."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {name: [{"strings": a.option_strings, "dest": a.dest, "default": a.default,
                    "type": getattr(a.type, "__name__", a.type),
                    "action": type(a).__name__, "required": a.required}
                   for a in sp._actions]
            for name, sp in subparsers.choices.items()}


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("project", PROJECTS)
def test_reports_match_golden(tmp_path, project, command):
    got = records(str(tmp_path), project, command)
    assert got == _load(GOLDEN)[f"{project}/{command}"]


def test_golden_covers_every_case():
    assert sorted(_load(GOLDEN)) == sorted(f"{p}/{c}" for p in PROJECTS for c in COMMANDS)


def test_parser_options_are_pinned():
    assert parser_options() == _load(PARSER)


if __name__ == "__main__" and sys.argv[1:] == ["--pin"]:
    with tempfile.TemporaryDirectory() as tmp:
        pinned = {f"{p}/{c}": records(tmp, p, c) for p in PROJECTS for c in COMMANDS}
    for path, data in ((GOLDEN, pinned), (PARSER, parser_options())):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"pinned {sum(len(v) for v in pinned.values())} invocations and the parser")
