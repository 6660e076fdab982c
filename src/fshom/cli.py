"""Command-line interface.

Commands: validate, homology, eta, cuts, rank-table, build-chromatic,
import-filtration. Exit codes: 0 success, 1 validation failure, 2 parse or
usage error, 3 capability refusal (for example a value lattice whose bottom
is not meet-prime). Reports are deterministic: identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import format_ring
from .fuzzy import FuzzyError
from .fuzzyhomology import FuzzyHomologyContext, NotComputableError
from .homology import ReducedChainComplex
from .lattice import LatticeError, format_value, parse_value
from .project import (
    LoadedProject,
    ProjectError,
    dump_project,
    load_project_file,
    project_from_fuzzy,
    read_chromatic_csv,
)
from .simplicial import Simplex


class UsageError(ValueError):
    pass


def _chain_map(complex, d: int, chain) -> dict:
    """Sparse {simplex: coefficient} map of a chain, keys like "0,1"."""
    out = {}
    for s, c in zip(complex.simplices(d), chain):
        if c:
            out[",".join(str(v) for v in s.vertices)] = int(c)
    return out


def _chain_text(complex, d: int, chain) -> str:
    parts = []
    for s, c in zip(complex.simplices(d), chain):
        if not c:
            continue
        c = int(c)
        name = "<" + ",".join(str(v) for v in s.vertices) + ">"
        if c == 1:
            term = name
        elif c == -1:
            term = "-" + name
        else:
            term = f"{c}*{name}"
        parts.append(term)
    if not parts:
        return "0"
    text = parts[0]
    for term in parts[1:]:
        text += " - " + term[1:] if term.startswith("-") else " + " + term
    return text


def _structure_json(structure, ring) -> dict:
    return {
        "betti": structure.betti,
        "torsion": [int(a) for a in structure.torsion],
        "description": structure.describe(ring),
    }


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check_mu_usable(project: LoadedProject) -> None:
    if project.violations:
        lines = [v.message() for v in project.violations]
        raise FuzzyError("the fuzzy values are not face-monotone:\n  " + "\n  ".join(lines))


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
    if args.json:
        _emit(_json_dump(report), args.out)
    else:
        lines = [f"complex: dimension {report['dimension']}, "
                 f"counts {report['simplex_counts']}"]
        for w in project.warnings:
            lines.append(f"warning: {w}")
        if project.is_valid:
            lines.append("valid")
        else:
            lines.extend(f"violation: {m}" for m in report["violations"])
            lines.append("invalid")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if project.is_valid else 1


def cmd_homology(args) -> int:
    project = load_project_file(args.project, ring_override=args.ring)
    R = ReducedChainComplex(project.complex, project.ring)
    degrees, homologies = [], []
    for d in _degrees(args, R.top):
        h = R.homology(d)
        homologies.append(h)
        degrees.append({
            "degree": d,
            "betti": h.structure.betti,
            "torsion": [int(a) for a in h.structure.torsion],
            "description": h.structure.describe(project.ring),
            "torsion_generators": [_chain_map(project.complex, d, g)
                                   for g in h.torsion_generators],
            "free_generators": [_chain_map(project.complex, d, g)
                                for g in h.free_generators],
        })
    report = {"ring": format_ring(project.ring), "degrees": degrees}
    if args.json:
        _emit(_json_dump(report), args.out)
    else:
        lines = []
        for entry, h in zip(degrees, homologies):
            d = entry["degree"]
            lines.append(f"H_{d} = {entry['description']}")
            for i, g in enumerate(h.torsion_generators, start=1):
                a = h.structure.torsion[i - 1]
                lines.append(f"  t{d}_{i} (order {a}) = {_chain_text(project.complex, d, g)}")
            for i, g in enumerate(h.free_generators, start=1):
                lines.append(f"  f{d}_{i} = {_chain_text(project.complex, d, g)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _make_context(project: LoadedProject) -> FuzzyHomologyContext:
    _check_mu_usable(project)
    return FuzzyHomologyContext(project.mu, project.ring)


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
    project = load_project_file(args.project, ring_override=args.ring)
    ctx = _make_context(project)
    ring = project.ring
    if args.class_ is not None:
        if args.degree is None:
            raise UsageError("--class requires --degree")
        d = _degrees(args, ctx.reduced.top)[0]
        h = _parse_class(args, ctx, d)
        levels = ctx.eta_solvable_levels(d, h)
        report = {
            "degree": d,
            "class": list(h.vector()),
            "eta": format_value(ctx.eta_value(d, h)),
            "solvable_levels": [format_value(lv) for lv in levels],
        }
        if args.json:
            _emit(_json_dump(report), args.out)
        else:
            _emit(f"eta_{d}({list(h.vector())}) = {report['eta']}\n", args.out)
        return 0
    reports = []
    for d in _degrees(args, ctx.reduced.top):
        h = ctx.reduced.homology(d)
        ambient = ctx.reduced.ambient(d)
        generators = []
        for i, chain in enumerate(h.torsion_generators):
            vec = [0] * ambient.length
            vec[i] = 1
            cls = ctx.reduced.class_from_vector(d, vec)
            generators.append({
                "kind": "torsion",
                "order": int(ambient.torsion[i]),
                "chain": _chain_map(ctx.mu.complex, d, chain),
                "eta": format_value(ctx.eta_value(d, cls)),
            })
        for j, chain in enumerate(h.free_generators):
            vec = [0] * ambient.length
            vec[len(ambient.torsion) + j] = 1
            cls = ctx.reduced.class_from_vector(d, vec)
            generators.append({
                "kind": "free",
                "chain": _chain_map(ctx.mu.complex, d, chain),
                "eta": format_value(ctx.eta_value(d, cls)),
            })
        kv = ctx.kappa_value_set(d)
        hdl = {format_value(lv): _structure_json(ctx.hdl_submodule(d, lv).structure, ring)
               for lv in kv}
        cuts = {format_value(lv): _structure_json(ctx.eta_cut(d, lv).structure, ring)
                for lv in kv}
        reports.append({
            "degree": d,
            "betti": h.structure.betti,
            "torsion": [int(a) for a in h.structure.torsion],
            "description": h.structure.describe(ring),
            "generators": generators,
            "kappa_values": [format_value(lv) for lv in kv],
            "hdl": hdl,
            "cuts": cuts,
        })
    report = {"ring": format_ring(ring), "reports": reports}
    if args.json:
        _emit(_json_dump(report), args.out)
    else:
        lines = []
        for entry in reports:
            d = entry["degree"]
            lines.append(f"H_{d} = {entry['description']}")
            for g in entry["generators"]:
                label = "torsion" if g["kind"] == "torsion" else "free"
                lines.append(f"  {label} generator, eta = {g['eta']}")
            lines.append(f"  L(kappa_{d}) = {{{', '.join(entry['kappa_values'])}}}")
            for lv in entry["kappa_values"]:
                lines.append(f"  H_{d}({lv}) = {entry['hdl'][lv]['description']}")
            for lv in entry["kappa_values"]:
                lines.append(f"  eta_{d} cut at {lv} = {entry['cuts'][lv]['description']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _requested_levels(args, ctx, d: int) -> list:
    if args.levels:
        out = []
        for text in args.levels:
            try:
                out.append(parse_value(text, ctx.lattice))
            except LatticeError as e:
                raise UsageError(f"bad level {text!r}: {e}") from None
        return out
    return ctx.kappa_value_set(d)


def cmd_cuts(args) -> int:
    project = load_project_file(args.project, ring_override=args.ring)
    ctx = _make_context(project)
    reports = []
    for d in _degrees(args, ctx.reduced.top):
        levels = _requested_levels(args, ctx, d)
        cuts = {format_value(lv): _structure_json(ctx.eta_cut(d, lv).structure, project.ring)
                for lv in levels}
        reports.append({"degree": d, "cuts": cuts})
    report = {"ring": format_ring(project.ring), "reports": reports}
    if args.json:
        _emit(_json_dump(report), args.out)
    else:
        lines = []
        for entry in reports:
            for lv, s in sorted(entry["cuts"].items()):
                lines.append(f"eta_{entry['degree']} cut at {lv} = {s['description']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rank_table(args) -> int:
    project = load_project_file(args.project, ring_override=args.ring)
    ctx = _make_context(project)
    reports = []
    for d in _degrees(args, ctx.reduced.top):
        levels = _requested_levels(args, ctx, d)
        table = ctx.rank_cut_table(d, levels)
        reports.append({
            "degree": d,
            "ranks": {format_value(lv): rank for lv, rank in table.items()},
        })
    report = {"ring": format_ring(project.ring), "reports": reports}
    if args.json:
        _emit(_json_dump(report), args.out)
    else:
        lines = []
        for entry in reports:
            for lv, rank in sorted(entry["ranks"].items()):
                lines.append(f"rank eta_{entry['degree']} cut at {lv} = {rank}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_build_chromatic(args) -> int:
    from .fuzzy import vietoris_rips

    dataset = read_chromatic_csv(args.csv)
    try:
        complex, mu = vietoris_rips(dataset, args.radius, args.max_dim)
    except FuzzyError as e:
        raise ProjectError(str(e)) from None
    project = project_from_fuzzy(mu)
    _emit(dump_project(project), args.out)
    return 0


def cmd_import_filtration(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ProjectError(f"cannot read {args.spec}: {e}") from None
    except json.JSONDecodeError as e:
        raise ProjectError(f"{args.spec}: invalid JSON: {e}") from None
    if isinstance(data, dict) and "filtration" not in data and {"poset", "stages"} <= set(data):
        data = {"filtration": data}
    from .project import load_project
    import os
    project = load_project(data, base_dir=os.path.dirname(os.path.abspath(args.spec)))
    for w in project.warnings:
        print(f"warning: {w}", file=sys.stderr)
    out = project_from_fuzzy(project.mu, project.ring)
    _emit(dump_project(out), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fshom",
        description="Simplicial homology over a PID and lattice-valued fuzzy homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, ring=True):
        sp.add_argument("project", help="project JSON file")
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.add_argument("--out", help="write the report to a file instead of stdout")
        if ring:
            sp.add_argument("--ring", help="coefficient ring: z or zmod:<p>")

    sp = sub.add_parser("validate", help="check totality and face monotonicity")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("homology", help="crisp homology of the complex")
    common(sp)
    sp.add_argument("--degree", type=int, help="restrict to one degree")
    sp.set_defaults(func=cmd_homology)

    sp = sub.add_parser("eta", help="fuzzy homology values, level submodules and cuts")
    common(sp)
    sp.add_argument("--degree", type=int, help="restrict to one degree")
    sp.add_argument("--class", dest="class_",
                    help="homology class coordinates (comma-separated, torsion then free)")
    sp.set_defaults(func=cmd_eta)

    sp = sub.add_parser("cuts", help="cut submodules of the fuzzy homology")
    common(sp)
    sp.add_argument("--degree", type=int, help="restrict to one degree")
    sp.add_argument("--levels", action="append",
                    help="lattice level expression (repeatable); default: all of L(kappa_d)")
    sp.set_defaults(func=cmd_cuts)

    sp = sub.add_parser("rank-table", help="betti numbers of eta cuts per level")
    common(sp)
    sp.add_argument("--degree", type=int, help="restrict to one degree")
    sp.add_argument("--levels", action="append", help="lattice level expression (repeatable)")
    sp.set_defaults(func=cmd_rank_table)

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
