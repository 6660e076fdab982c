"""Span tracing of fshom's layers, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of each module of
`src/fshom` and rebinds every name that refers to them in any loaded fshom
module (`snf` is bound in `exact`, `homology` and `modules`; `kernel` and
`solve` in `exact`, `modules` and `fuzzyhomology`). Modules are reached
through `sys.modules`, because `fshom.homology` as an attribute is the
re-exported function, not the module.

A wrapped call records one span: [name, start, end, parent index, command
id]. Spans stay in memory; `layer_metrics` turns them into per-layer busy
and self times and counts. Shapes, non-zeros, coefficient sizes and useful
product counts come from the arguments and return values only; the time
spent measuring them is recorded as `trace.measure` spans so it is charged to
no layer. The hottest lattice operations (`leq`, `meet`, `join`) and matrix
construction are counted without spans.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import Counter
from time import perf_counter

LAYERS = ("exact", "homology", "fuzzyhomology", "modules", "lattice",
          "simplicial", "fuzzy", "project")


def _nnz(rows) -> int:
    return sum(1 for row in rows for x in row if x)


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.command = 0
        self._restore = []
        self._kappa_seen = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.command]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if measure is not None:
                m = self.open("trace.measure")
                measure(args, result)
                self.close(m)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- measurements from arguments and results -----------------------------

    def _snf(self, args, s) -> None:
        A = args[0]
        c = self.counts
        c["exact.snf_entries"] += A.rows * A.cols
        c["exact.snf_max_rows"] = max(c["exact.snf_max_rows"], A.rows)
        c["exact.snf_nnz_in"] += _nnz(A.data)
        transforms = (s.P.data, s.P_inv.data, s.Q.data, s.Q_inv.data)
        c["exact.transform_nnz"] += sum(_nnz(t) for t in transforms)
        c["exact.transform_entries"] += 2 * (A.rows * A.rows + A.cols * A.cols)
        c["exact.max_coeff_bits"] = max(c["exact.max_coeff_bits"],
                                        max(_bits(t) for t in transforms + (s.D.data,)))

    def _matmul(self, args, _result) -> None:
        a, b = args
        self.counts["exact.matmul_mults"] += a.rows * a.cols * b.cols
        col_nnz = [sum(1 for row in a.data if row[k]) for k in range(a.cols)]
        self.counts["exact.matmul_useful"] += sum(
            n * sum(1 for x in b.data[k] if x) for k, n in enumerate(col_nnz))

    def _reduced(self, args, _result) -> None:
        R = args[0]
        self.counts["homology.classes"] += sum(
            len(R.torsion[d]) + R.partition[d].n_F for d in range(R.top + 1))

    def _kappa(self, args, result) -> None:
        ctx, d = args[0], args[1]
        seen = self._kappa_seen.setdefault(ctx, set())
        if d not in seen:
            seen.add(d)
            self.counts["fuzzyhomology.kappa_values"] += len(result)

    def _complex(self, args, _result) -> None:
        self.counts["simplicial.simplices"] += len(args[0])

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every fshom module-level name bound to `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if modname != "fshom" and not modname.startswith("fshom."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def _method(self, cls, attr, wrapper_of) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(wrapper_of(raw.__func__)))
        else:
            setattr(cls, attr, wrapper_of(raw))
        self._restore.append((cls, attr, raw))

    def install(self) -> None:
        import fshom.cli  # noqa: F401  (loads every fshom module)

        mods = {name: sys.modules[f"fshom.{name}"] for name in LAYERS}
        ex, ho, fh = mods["exact"], mods["homology"], mods["fuzzyhomology"]
        md, la, si, fu, pr = (mods[k] for k in ("modules", "lattice", "simplicial", "fuzzy", "project"))

        functions = [
            (ex.snf, "exact.snf", self._snf),
            (ex.solve, "exact.solve", None),
            (ex.kernel, "exact.kernel", None),
            (md.module_structure, "modules.structure", None),
            (la.parse_value, "lattice.parse", None),
            (fu.vietoris_rips, "fuzzy.rips", None),
            (fu.complete_values, "fuzzy.complete_values", None),
            (fu.explicit_violations, "fuzzy.violations", None),
            (fu.from_filtration, "fuzzy.from_filtration", None),
            (pr.read_chromatic_csv, "project.load", None),
            (pr.load_project, "project.load", None),
            (pr.load_project_file, "project.load", None),
            (pr.project_from_fuzzy, "project.export", None),
            (pr.dump_project, "project.export", None),
        ]
        for fn, name, measure in functions:
            self._rebind(fn, self.spanned(name, fn, measure))

        def span(name, measure=None):
            return lambda fn: self.spanned(name, fn, measure)

        def count(name):
            return lambda fn: self.counted(name, fn)

        methods = [
            (ex.ExactMatrix, "__matmul__", span("exact.matmul", self._matmul)),
            (ex.ExactMatrix, "__init__", count("exact.matrix_builds")),
            (ho.ReducedChainComplex, "__init__", span("homology.reduce", self._reduced)),
            (ho.ReducedChainComplex, "blocks", span("homology.blocks")),
            (fh.FuzzyHomologyContext, "kappa_value_set", span("fuzzyhomology.kappa_closure", self._kappa)),
            (fh.FuzzyHomologyContext, "eta_value", span("fuzzyhomology.eta")),
            (fh.FuzzyHomologyContext, "is_level_solvable", span("fuzzyhomology.level_solve")),
            (fh.FuzzyHomologyContext, "hdl_submodule", span("fuzzyhomology.hdl")),
            (fh.FuzzyHomologyContext, "eta_cut", span("fuzzyhomology.cut")),
            (md.SubmoduleOfHomology, "intersect", span("modules.intersect")),
            (md.SubmoduleOfHomology, "add", span("modules.add")),
            (md.SubmoduleOfHomology, "member", span("modules.member")),
            (la.CdlLattice, "leq", count("lattice.leq")),
            (la.CdlLattice, "meet", count("lattice.meet")),
            (la.CdlLattice, "join", count("lattice.join")),
            (si.SimplicialComplex, "__init__", span("simplicial.build", self._complex)),
            (si.SimplicialComplex, "from_maximal", span("simplicial.build")),
            (si.SimplicialComplex, "maximal_simplices", span("simplicial.maximal")),
            (si.SimplicialComplex, "boundary_matrix", span("simplicial.boundary")),
        ]
        for cls, attr, wrapper_of in methods:
            self._method(cls, attr, wrapper_of)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        """Drop recorded spans and counts (for example between passes)."""
        self.spans = []
        self.stack = []
        self.counts.clear()  # the counting wrappers hold this Counter
        self._kappa_seen = weakref.WeakKeyDictionary()


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass.

    A span's self time is its duration minus its direct children's; a
    layer's busy time is the time covered by its outermost spans, and its
    self time the sum of its spans' self times. `<name>_s` is the time covered
    by the outermost spans of that name, `<name>_calls` the number of its
    spans.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    selft = [d - c for d, c in zip(dur, child)]
    layer = [s[0].split(".", 1)[0] for s in spans]

    def has_ancestor(i, pred) -> bool:
        p = spans[i][3]
        while p >= 0:
            if pred(p):
                return True
            p = spans[p][3]
        return False

    calls = Counter(s[0] for s in spans)
    covered = Counter()
    layer_busy = Counter()
    layer_self = Counter()
    for i, s in enumerate(spans):
        name = s[0]
        layer_self[layer[i]] += selft[i]
        if not has_ancestor(i, lambda p: spans[p][0] == name):
            covered[name] += dur[i]
        if not has_ancestor(i, lambda p: layer[p] == layer[i]):
            layer_busy[layer[i]] += dur[i]

    # work beneath each span: which eta / hdl spans did any Smith reduction
    snf_under_eta = 0
    hdl_with_work = set()
    for i, s in enumerate(spans):
        if s[0] != "exact.snf":
            continue
        p = s[3]
        under_eta = False
        while p >= 0:
            if spans[p][0] == "fuzzyhomology.eta":
                under_eta = True
            elif spans[p][0] == "fuzzyhomology.hdl":
                hdl_with_work.add(p)
            p = spans[p][3]
        snf_under_eta += under_eta

    def ratio(a, b) -> float:
        return a / b if b else 0.0

    c = counts
    hdl_calls = calls["fuzzyhomology.hdl"]
    m = {
        "exact.snf_calls": calls["exact.snf"],
        "exact.snf_s": covered["exact.snf"],
        "exact.snf_entries": c["exact.snf_entries"],
        "exact.snf_max_rows": c["exact.snf_max_rows"],
        "exact.snf_nnz_in": c["exact.snf_nnz_in"],
        "exact.transform_nnz_ratio": ratio(c["exact.transform_nnz"], c["exact.transform_entries"]),
        "exact.max_coeff_bits": c["exact.max_coeff_bits"],
        "exact.matmul_calls": calls["exact.matmul"],
        "exact.matmul_s": covered["exact.matmul"],
        "exact.matmul_mults": c["exact.matmul_mults"],
        "exact.matmul_useful_ratio": ratio(c["exact.matmul_useful"], c["exact.matmul_mults"]),
        "exact.solve_calls": calls["exact.solve"],
        "exact.solve_s": covered["exact.solve"],
        "exact.kernel_calls": calls["exact.kernel"],
        "exact.kernel_s": covered["exact.kernel"],
        "exact.matrix_builds": c["exact.matrix_builds"],
        "homology.reduce_s": covered["homology.reduce"],
        "homology.reduce_self_s": sum(t for s, t in zip(spans, selft) if s[0] == "homology.reduce"),
        "homology.blocks_calls": calls["homology.blocks"],
        "homology.blocks_s": covered["homology.blocks"],
        "homology.classes": c["homology.classes"],
        "fuzzyhomology.kappa_closure_s": covered["fuzzyhomology.kappa_closure"],
        "fuzzyhomology.kappa_values": c["fuzzyhomology.kappa_values"],
        "fuzzyhomology.eta_calls": calls["fuzzyhomology.eta"],
        "fuzzyhomology.eta_s": covered["fuzzyhomology.eta"],
        "fuzzyhomology.level_solves": calls["fuzzyhomology.level_solve"],
        "fuzzyhomology.snf_per_class": ratio(snf_under_eta, calls["fuzzyhomology.eta"]),
        "fuzzyhomology.hdl_calls": hdl_calls,
        "fuzzyhomology.hdl_s": covered["fuzzyhomology.hdl"],
        "fuzzyhomology.hdl_hit_ratio": ratio(hdl_calls - len(hdl_with_work), hdl_calls),
        "fuzzyhomology.cut_calls": calls["fuzzyhomology.cut"],
        "fuzzyhomology.cut_s": covered["fuzzyhomology.cut"],
        "modules.structure_calls": calls["modules.structure"],
        "modules.structure_s": covered["modules.structure"],
        "modules.intersect_calls": calls["modules.intersect"],
        "modules.intersect_s": covered["modules.intersect"],
        "modules.add_calls": calls["modules.add"],
        "modules.member_calls": calls["modules.member"],
        "lattice.parse_calls": calls["lattice.parse"],
        "lattice.parse_s": covered["lattice.parse"],
        "lattice.meet_calls": c["lattice.meet"],
        "lattice.join_calls": c["lattice.join"],
        "lattice.leq_calls": c["lattice.leq"],
        "simplicial.simplices": c["simplicial.simplices"],
        "simplicial.build_s": covered["simplicial.build"],
        "simplicial.maximal_s": covered["simplicial.maximal"],
        "simplicial.boundary_s": covered["simplicial.boundary"],
        "fuzzy.rips_s": covered["fuzzy.rips"],
        "fuzzy.complete_values_s": covered["fuzzy.complete_values"],
        "fuzzy.violations_s": covered["fuzzy.violations"],
        "fuzzy.from_filtration_s": covered["fuzzy.from_filtration"],
        "project.load_s": covered["project.load"],
        "project.export_s": covered["project.export"],
        "cli.self_s": layer_self["cli"],
        "trace.measure_s": layer_busy["trace"],
        "trace.spans": n,
    }
    for name in LAYERS:
        m[f"{name}.busy_s"] = layer_busy[name]
        m[f"{name}.self_s"] = layer_self[name]
    return m
