"""The benchmark's layer tracer (bench/tracing.py) installs on the package and
comes off again, so a renamed traced name fails here and not only in traced
benchmark runs."""

import importlib.util
import os
import sys

from fshom.exact import ZZ
from fshom.fuzzyhomology import FuzzyHomologyContext

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


def test_each_submodule_is_factored_outside_membership(reference_mu):
    """After `structure` has read every H_d(l), eta's membership tests reuse
    the cached Smith forms: no Smith reduction runs under `member`."""
    ctx = FuzzyHomologyContext(reference_mu, ZZ)
    tracer = load_tracer()
    tracer.install()
    try:
        for d in range(ctx.reduced.top + 1):
            for level in ctx.lattice.carrier():
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


def test_level_submodules_run_no_smith_form_or_kernel(reference_mu):
    """The eta report's work (eta of every basis class, H_d(l) at every level
    of L(kappa_d)) builds the level submodules by nested-kernel sweeps: no
    `exact.kernel` or `exact.snf` span lies under `fuzzyhomology.hdl`."""
    ctx = FuzzyHomologyContext(reference_mu, ZZ)
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
