"""Command-line interface.

Commands: validate, homology, eta, cuts, rank-table, build-chromatic,
import-filtration. Each analysis command builds one report: `--json` writes
it as JSON and text mode renders the same report line by line. Exit codes:
0 success, 1 validation failure, 2 parse or usage error (also an unreadable
input file or an unwritable `--out`), 3 capability refusal (for example a
value lattice whose bottom is not meet-prime). Reports are deterministic:
identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .exact import format_ring
from .fuzzy import FuzzyError, vietoris_rips
from .fuzzyhomology import FuzzyHomologyContext, NotComputableError
from .homology import ReducedChainComplex
from .lattice import LatticeError, format_value, parse_value
from .project import (
    ProjectError,
    dump_json,
    dump_project,
    load_project,
    load_project_file,
    read_chromatic_csv,
    read_json,
)


class UsageError(ValueError):
    pass


def _chain_maps(complex, d: int, chains) -> list:
    """The {simplex: coefficient} map of each sparse chain {index:
    coefficient} of degree d, in index order, keys like "0,1". Each simplex
    on a chain is named once."""
    simplices = complex.simplices(d)
    names = {i: ",".join(map(str, simplices[i])) for i in set().union(*chains)}
    return [{names[i]: chain[i] for i in sorted(chain)} for chain in chains]


def _chain_text(chain: dict) -> str:
    """A chain map as text, for example `<0,1> - <0,3> + 2*<1,3>`."""
    text = ""
    for name, c in chain.items():
        term = f"<{name}>" if abs(c) == 1 else f"{abs(c)}*<{name}>"
        if text:
            text += (" - " if c < 0 else " + ") + term
        else:
            text = ("-" if c < 0 else "") + term
    return text or "0"


def _structure_json(structure, ring) -> dict:
    return {
        "betti": structure.betti,
        "torsion": [int(a) for a in structure.torsion],
        "description": structure.describe(ring),
    }


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {out_path}: {e}") from None


def _write(args, report: dict, render) -> None:
    """Emit the report as JSON under --json, else the text lines of render(report)."""
    if args.json:
        _emit(dump_json(report) + "\n", args.out)
    else:
        _emit("\n".join(render(report)) + "\n", args.out)


def _context(args) -> FuzzyHomologyContext:
    project = load_project_file(args.project, ring_override=args.ring)
    if project.violations:
        lines = [v.message() for v in project.violations]
        raise FuzzyError("the fuzzy values are not face-monotone:\n  " + "\n  ".join(lines))
    return FuzzyHomologyContext(project.mu, project.ring)


def _degrees(args, top: int) -> list:
    if args.degree is None:
        return list(range(top + 1))
    if not 0 <= args.degree <= top:
        raise UsageError(f"--degree must be in 0..{top}")
    return [args.degree]


def cmd_validate(args) -> int:
    project = load_project_file(args.project, ring_override=args.ring)
    report = {
        "valid": project.is_valid,
        "violations": [v.message() for v in project.violations],
        "warnings": list(project.warnings),
        "dimension": project.complex.dim,
        "simplex_counts": [project.complex.n(d) for d in range(project.complex.dim + 1)],
    }
    _write(args, report, _validate_text)
    return 0 if project.is_valid else 1


def _validate_text(report):
    yield f"complex: dimension {report['dimension']}, counts {report['simplex_counts']}"
    for w in report["warnings"]:
        yield f"warning: {w}"
    for m in report["violations"]:
        yield f"violation: {m}"
    yield "valid" if report["valid"] else "invalid"


def cmd_homology(args) -> int:
    project = load_project_file(args.project, ring_override=args.ring)
    R = ReducedChainComplex(project.complex, project.ring)
    degrees = []
    for d in _degrees(args, R.top):
        h = R.homology(d)
        chains = _chain_maps(project.complex, d, h.torsion_generators + h.free_generators)
        n_T = len(h.torsion_generators)
        degrees.append({
            "degree": d,
            **_structure_json(h.structure, project.ring),
            "torsion_generators": chains[:n_T],
            "free_generators": chains[n_T:],
        })
    _write(args, {"ring": format_ring(project.ring), "degrees": degrees}, _homology_text)
    return 0


def _homology_text(report):
    for entry in report["degrees"]:
        d = entry["degree"]
        yield f"H_{d} = {entry['description']}"
        for i, (a, g) in enumerate(zip(entry["torsion"], entry["torsion_generators"]), start=1):
            yield f"  t{d}_{i} (order {a}) = {_chain_text(g)}"
        for i, g in enumerate(entry["free_generators"], start=1):
            yield f"  f{d}_{i} = {_chain_text(g)}"


def _parse_class(args, ctx, d: int):
    text = args.class_
    ambient = ctx.reduced.ambient(d)
    try:
        coords = [int(x) for x in text.split(",")] if text.strip() else []
    except ValueError:
        raise UsageError(f"--class must be comma-separated integers, got {text!r}") from None
    if len(coords) != ambient.length:
        raise UsageError(
            f"--class needs {ambient.length} coordinates in degree {d} "
            f"({len(ambient.torsion)} torsion + {ambient.free_rank} free)")
    return ctx.reduced.class_from_vector(d, coords)


def cmd_eta(args) -> int:
    ctx = _context(args)
    if args.class_ is not None:
        if args.degree is None:
            raise UsageError("--class requires --degree")
        d = _degrees(args, ctx.reduced.top)[0]
        h = _parse_class(args, ctx, d)
        levels = ctx.eta_solvable_levels(d, h)
        report = {
            "degree": d,
            "class": list(h.vector()),
            "eta": format_value(ctx.lattice.join(levels)),
            "solvable_levels": [format_value(lv) for lv in levels],
        }
        _write(args, report, lambda r: [f"eta_{r['degree']}({r['class']}) = {r['eta']}"])
        return 0
    reports = []
    for d in _degrees(args, ctx.reduced.top):
        h = ctx.reduced.homology(d)
        torsion = h.structure.torsion
        generators = []
        chains = _chain_maps(ctx.mu.complex, d, h.torsion_generators + h.free_generators)
        # unit class i: torsion coordinates first, then free, as homology lists them
        for i, (chain, eta) in enumerate(zip(chains, ctx.eta_values(d))):
            kind = ({"kind": "torsion", "order": int(torsion[i])}
                    if i < len(torsion) else {"kind": "free"})
            generators.append({**kind, "chain": chain, "eta": format_value(eta)})
        kv = ctx.kappa_value_set(d)
        reports.append({
            "degree": d,
            **_structure_json(h.structure, ctx.ring),
            "generators": generators,
            "kappa_values": [format_value(lv) for lv in kv],
            "hdl": {format_value(lv): _structure_json(ctx.hdl_submodule(d, lv).structure, ctx.ring)
                    for lv in kv},
            "cuts": {format_value(lv): _structure_json(ctx.eta_cut(d, lv).structure, ctx.ring)
                     for lv in kv},
        })
    _write(args, {"ring": format_ring(ctx.ring), "reports": reports}, _eta_text)
    return 0


def _eta_text(report):
    for entry in report["reports"]:
        d = entry["degree"]
        yield f"H_{d} = {entry['description']}"
        for g in entry["generators"]:
            yield f"  {g['kind']} generator, eta = {g['eta']}"
        yield f"  L(kappa_{d}) = {{{', '.join(entry['kappa_values'])}}}"
        for lv in entry["kappa_values"]:
            yield f"  H_{d}({lv}) = {entry['hdl'][lv]['description']}"
        for lv in entry["kappa_values"]:
            yield f"  eta_{d} cut at {lv} = {entry['cuts'][lv]['description']}"


def _per_level(args, key: str, value, line) -> int:
    """cuts and rank-table: value(eta cut) at each requested level of each degree.

    The levels are those of --levels, else all of L(kappa_d). The report
    holds them under `key` by level text; text mode prints line(d, level,
    value) for each, in level-text order.
    """
    ctx = _context(args)
    degrees = _degrees(args, ctx.reduced.top)
    levels = []
    for text in args.levels or ():
        try:
            levels.append(parse_value(text, ctx.lattice))
        except LatticeError as e:
            raise UsageError(f"bad level {text!r}: {e}") from None
    reports = [{"degree": d,
                key: {format_value(lv): value(ctx.eta_cut(d, lv).structure, ctx.ring)
                      for lv in levels or ctx.kappa_value_set(d)}}
               for d in degrees]

    def render(report):
        for entry in report["reports"]:
            for lv, v in sorted(entry[key].items()):
                yield line(entry["degree"], lv, v)

    _write(args, {"ring": format_ring(ctx.ring), "reports": reports}, render)
    return 0


def cmd_cuts(args) -> int:
    return _per_level(args, "cuts", _structure_json,
                      lambda d, lv, s: f"eta_{d} cut at {lv} = {s['description']}")


def cmd_rank_table(args) -> int:
    return _per_level(args, "ranks", lambda structure, ring: structure.betti,
                      lambda d, lv, rank: f"rank eta_{d} cut at {lv} = {rank}")


def cmd_build_chromatic(args) -> int:
    dataset = read_chromatic_csv(args.csv)
    try:
        complex, mu = vietoris_rips(dataset, args.radius, args.max_dim)
    except FuzzyError as e:
        raise ProjectError(str(e)) from None
    _emit(dump_project(mu), args.out)
    return 0


def cmd_import_filtration(args) -> int:
    data = read_json(args.spec)
    if isinstance(data, dict) and "filtration" not in data and {"poset", "stages"} <= set(data):
        data = {"filtration": data}
    project = load_project(data, base_dir=os.path.dirname(os.path.abspath(args.spec)))
    for w in project.warnings:
        print(f"warning: {w}", file=sys.stderr)
    _emit(dump_project(project.mu, project.ring), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="fshom",
        description="Simplicial homology over a PID and lattice-valued fuzzy homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def analysis(name, func, help, degree=True):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("project", help="project JSON file")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--out", help="write the report to a file instead of stdout")
        sp.add_argument("--ring", help="coefficient ring: z or zmod:<p>")
        if degree:
            sp.add_argument("--degree", type=int, help="restrict to one degree")
        sp.set_defaults(func=func)
        return sp

    analysis("validate", cmd_validate, "check totality and face monotonicity", degree=False)
    analysis("homology", cmd_homology, "crisp homology of the complex")
    analysis("eta", cmd_eta, "fuzzy homology values, level submodules and cuts").add_argument(
        "--class", dest="class_",
        help="homology class coordinates (comma-separated, torsion then free)")
    for name, func, help in (("cuts", cmd_cuts, "cut submodules of the fuzzy homology"),
                             ("rank-table", cmd_rank_table, "betti numbers of eta cuts per level")):
        analysis(name, func, help).add_argument(
            "--levels", action="append",
            help="lattice level expression (repeatable); default: all of L(kappa_d)")

    sp = sub.add_parser("build-chromatic",
                        help="build a project from a labeled point cloud CSV")
    sp.add_argument("csv", help="CSV with coordinate columns and a 'label' column")
    sp.add_argument("--radius", required=True, help="Vietoris-Rips radius (closed threshold)")
    sp.add_argument("--max-dim", type=int, default=2, help="maximal simplex dimension")
    sp.add_argument("--out", help="write the project to a file instead of stdout")
    sp.set_defaults(func=cmd_build_chromatic)

    sp = sub.add_parser("import-filtration",
                        help="convert a poset filtration into a project")
    sp.add_argument("spec", help="JSON with 'poset' and 'stages'")
    sp.add_argument("--out", help="write the project to a file instead of stdout")
    sp.set_defaults(func=cmd_import_filtration)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProjectError, UsageError, LatticeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FuzzyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NotComputableError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
