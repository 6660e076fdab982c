"""The benchmark's layer tracer (bench/tracing.py) installs on the package and
comes off again, so a renamed traced name fails here and not only in traced
benchmark runs."""

import importlib.util
import os
import random
import sys

import pytest

from fshom.cli import main
from fshom.exact import PrimeField, ZZ
from fshom.fuzzy import ChromaticDataset, vietoris_rips
from fshom.fuzzyhomology import FuzzyHomologyContext
from fshom.homology import ReducedChainComplex
from oracles import carrier
from randgen import random_torsion_complex

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def snapshot():
    """Every module-level binding and class attribute of the loaded package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "fshom" and not name.startswith("fshom."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_installs_and_uninstalls(reference_mu):
    import fshom.cli  # noqa: F401  (the tracer wraps every module it loads)

    before = snapshot()
    tracer = load_tracer()
    tracer.install()
    try:
        assert tracer._restore
        for owner, attr, original in tracer._restore:
            assert vars(owner)[attr] is not original, (owner, attr)
        ctx = FuzzyHomologyContext(reference_mu, ZZ)
        ctx.eta_value(0, ctx.reduced.class_from_vector(0, [1, 0]))
        ctx.eta_cut(0, ctx.lattice.parse("x | y"))
        names = {span[0] for span in tracer.spans}
        assert {"fuzzyhomology.eta", "fuzzyhomology.level_solve", "fuzzyhomology.hdl",
                "fuzzyhomology.cut", "exact.kernel", "exact.snf"} <= names
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.fixture
def split_mu():
    """A seeded two-colour cloud of 14 points, 49 simplices, where H_2 at
    level a has a generator that is not a unit vector, so its Smith form
    runs (every H_d(l) of the reference project has unit generators only)."""
    rng = random.Random(11)
    points = tuple((rng.randint(0, 12), rng.randint(0, 12)) for _ in range(14))
    labels = tuple(rng.choice("ab") for _ in range(14))
    mu = vietoris_rips(ChromaticDataset(points, labels), 4, 2)[1]
    ctx = FuzzyHomologyContext(mu, ZZ)
    assert any(ctx.hdl_submodule(d, lv)._rest
               for d in range(ctx.reduced.top + 1) for lv in ctx.kappa_value_set(d))
    return mu


def test_each_submodule_is_factored_outside_membership(split_mu):
    """After `structure` has read every H_d(l), eta's membership tests reuse
    the cached Smith forms: no Smith reduction runs under `member`."""
    ctx = FuzzyHomologyContext(split_mu, ZZ)
    tracer = load_tracer()
    tracer.install()
    try:
        for d in range(ctx.reduced.top + 1):
            for level in carrier(ctx.lattice):
                ctx.hdl_submodule(d, level).structure
        for d in range(ctx.reduced.top + 1):
            n = ctx.reduced.ambient(d).length
            for k in range(n):
                ctx.eta_value(d, ctx.reduced.class_from_vector(d, [int(i == k) for i in range(n)]))
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def under_member(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == "modules.member":
                return True
            p = spans[p][3]
        return False

    names = [span[0] for span in spans]
    assert names.count("modules.member") > 0 and names.count("exact.snf") > 0
    assert not any(under_member(i) for i, name in enumerate(names) if name == "exact.snf")


def test_level_submodules_run_no_smith_form_or_kernel(split_mu):
    """The eta report's work (eta of every basis class, H_d(l) at every level
    of L(kappa_d)) builds the level submodules by nested-kernel sweeps: no
    `exact.kernel` or `exact.snf` span lies under `fuzzyhomology.hdl`."""
    ctx = FuzzyHomologyContext(split_mu, ZZ)
    tracer = load_tracer()
    tracer.install()
    try:
        for d in range(ctx.reduced.top + 1):
            n = ctx.reduced.ambient(d).length
            for k in range(n):
                ctx.eta_value(d, ctx.reduced.class_from_vector(d, [int(i == k) for i in range(n)]))
            for level in ctx.kappa_value_set(d):
                ctx.hdl_submodule(d, level).structure
    finally:
        tracer.uninstall()
    spans = tracer.spans

    def under_hdl(i):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == "fuzzyhomology.hdl":
                return True
            p = spans[p][3]
        return False

    names = [span[0] for span in spans]
    assert names.count("fuzzyhomology.hdl") > 0 and names.count("exact.snf") > 0
    assert not any(under_hdl(i) for i, name in enumerate(names)
                   if name in ("exact.kernel", "exact.snf"))


@pytest.mark.parametrize("ring", [ZZ, PrimeField(3)], ids=["z", "gf3"])
def test_reduction_makes_one_smith_form_per_degree_and_no_identity_product(ring):
    """The shape of `ReducedChainComplex`: construction makes dim + 1
    `exact.snf` spans and 2 * dim - 1 `exact.matmul` spans: the product that
    feeds each Smith form below the top (the top one reduces M_top as it is)
    and the `to_delta` product of each degree between 0 and the top (the
    top's is its Q, and degree 0, whose Smith form has rank 0, takes the
    P_inv above). The first read of `from_delta` runs the Smith forms again:
    dim + 1 `exact.snf` spans and 2 * dim + 1 `exact.matmul` spans more (the
    dim feeding products again, and the `from_delta` product of each of the
    dim + 1 degrees), and a second read runs nothing."""
    K = random_torsion_complex(random.Random(1))
    tracer = load_tracer()
    tracer.install()
    try:
        R = ReducedChainComplex(K, ring)
        built = [span[0] for span in tracer.spans]
        R.from_delta
        read = [span[0] for span in tracer.spans]
        R.from_delta
        again = [span[0] for span in tracer.spans]
    finally:
        tracer.uninstall()
    assert R.top == K.dim == 2
    assert built.count("homology.reduce") == 1
    assert built.count("exact.snf") == K.dim + 1
    assert built.count("exact.matmul") == 2 * K.dim - 1
    assert read.count("exact.snf") == 2 * (K.dim + 1)
    assert read.count("exact.matmul") == (2 * K.dim - 1) + (2 * K.dim + 1)
    assert again == read


@pytest.mark.parametrize("ring", [ZZ, PrimeField(3)], ids=["z", "gf3"])
def test_reduction_counts_its_matrix_builds(ring):
    """Every matrix but a deferred Smith transform passes through
    `ExactMatrix.__init__`, which the tracer counts as `exact.matrix_builds`:
    each Smith form of the reduction builds three (P_inv, Q and D), and the
    reduction builds more than two others per Smith form."""
    K = random_torsion_complex(random.Random(1))
    tracer = load_tracer()
    tracer.install()
    try:
        ReducedChainComplex(K, ring)
    finally:
        tracer.uninstall()
    snfs = [span[0] for span in tracer.spans].count("exact.snf")
    assert snfs > 0
    assert tracer.counts["exact.matrix_builds"] >= 5 * snfs


def traced_cli(*argv):
    """Span names of one CLI run under the bench tracer."""
    tracer = load_tracer()
    tracer.install()
    try:
        assert main(list(argv)) == 0
    finally:
        tracer.uninstall()
    return [span[0] for span in tracer.spans]


def test_eta_report_reads_eta_in_batch(fixture_path, capsys):
    """`eta` without `--class` reads eta of every generator off the level
    Smith forms: no per-class `eta_value` and no `member` test."""
    names = traced_cli("eta", fixture_path("reference.json"), "--json")
    capsys.readouterr()
    assert names.count("fuzzyhomology.hdl") > 0
    assert names.count("fuzzyhomology.eta") == 0
    assert names.count("modules.member") == 0


@pytest.mark.parametrize("degree, cls", [(0, "1,1"), (1, "1")])
def test_eta_of_a_class_tests_each_level_once(fixture_path, capsys, reference_mu, degree, cls):
    """`eta --class` makes one membership test per level of L(kappa_d)."""
    levels = FuzzyHomologyContext(reference_mu, ZZ).kappa_value_set(degree)
    names = traced_cli("eta", fixture_path("reference.json"), "--degree", str(degree),
                       "--class", cls)
    capsys.readouterr()
    assert names.count("modules.member") == len(levels)


def test_load_phases_keep_their_spans(tmp_path, monkeypatch, capsys, fixture_path):
    """`build-chromatic` then `validate` of the project it writes, and
    `import-filtration`, record the spans that the benchmark's per-layer
    load and export metrics read, so a faster load or export cannot hide its
    work from them."""
    rng = random.Random(3)
    rows = ["x,y,label"] + [f"{rng.randint(0, 12)},{rng.randint(0, 12)},{rng.choice('abc')}"
                            for _ in range(30)]
    (tmp_path / "cloud.csv").write_text("\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    built = traced_cli("build-chromatic", "cloud.csv", "--radius", "4", "--max-dim", "2",
                       "--out", "cloud.json")
    validated = traced_cli("validate", "cloud.json")
    imported = traced_cli("import-filtration", fixture_path("filtration_chain.json"), "--out", "f.json")
    capsys.readouterr()
    assert {"fuzzy.rips", "simplicial.build", "project.export"} <= set(built)
    assert {"project.load", "simplicial.build", "fuzzy.complete_values"} <= set(validated)
    assert {"project.load", "fuzzy.from_filtration", "project.export"} <= set(imported)
