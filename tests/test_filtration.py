"""Filtration import at benchmark scale: `import-filtration` and
`from_filtration` against the per-stage oracle, non-monotone mutants, a
pinned grid project, the complexes an import builds, and the lattice
comparisons of a rank table over an imported bifiltration."""

import hashlib
import json
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest

from fshom.cli import main
from fshom.fuzzy import FuzzyError, ValueCoding, from_filtration
from fshom.lattice import CdlLattice, poset_from_spec
from fshom.project import ProjectError, load_project, project_from_fuzzy
from fshom.simplicial import SimplicialComplex
from oracles import pairwise_from_filtration

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# sha256 of `import-filtration` on grid_spec(10, 10, 3), as the per-stage
# importer wrote it
GRID_10x10_SHA256 = "9c4c7baba967adc771b2b4471a4eadea5928fbc8583aabeddc7a963b6ba5d396"


@pytest.fixture
def gen(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import gen

    return gen


def grid_spec(gen, size: int, seed: int, points: int = 90, side: int = 30) -> dict:
    """A size x size density-Rips grid bifiltration of seeded integer points:
    radii 2 to 5 evenly spaced, density thresholds n(j+1)/size, max_dim 2."""
    rng = random.Random(seed)
    pts = [(rng.randint(0, side), rng.randint(0, side)) for _ in range(points)]
    radii = [2 + Fraction(3 * i, size - 1) for i in range(size)]
    thresholds = [points * (j + 1) // size for j in range(size)]
    return gen.grid_bifiltration(pts, gen.density_ranks(pts, 4), radii, thresholds, 2)


def closure(maximal) -> set:
    return {face for s in maximal for k in range(1, len(s) + 1) for face in combinations(s, k)}


def maximal_of(faces) -> list:
    covered = {f for s in faces for f in combinations(s, len(s) - 1)}
    return sorted(([*s] for s in faces if s not in covered), key=lambda s: (len(s), s))


def mutant(spec: dict, rng: random.Random):
    """The spec with one simplex of a stage that lies in a lower stage, and
    its cofaces, removed from that stage (None if that empties the stage)."""
    poset = poset_from_spec(spec["poset"])
    stages = spec["stages"]
    while True:
        q = rng.choice(poset.elements)
        below = [p for p in poset.elements if p != q and poset.leq(p, q)]
        if below:
            break
    inherited = sorted(closure(stages[rng.choice(below)]))
    s = set(rng.choice(inherited))
    kept = {f for f in closure(stages[q]) if not s <= set(f)}
    return {**spec, "stages": {**stages, q: maximal_of(kept)}} if kept else None


def imported(spec: dict):
    """The library result on complexes, and the project loader's on face sets."""
    poset = poset_from_spec(spec["poset"])
    complexes = {p: SimplicialComplex.from_maximal(m) for p, m in spec["stages"].items()}
    return from_filtration(poset, complexes), load_project({"filtration": spec}).mu


class TestAgainstPerStageOracle:
    def test_grid_bifiltration_matches(self, gen):
        spec = grid_spec(gen, 6, 0, points=120, side=30)
        expected = pairwise_from_filtration(poset_from_spec(spec["poset"]), spec["stages"])
        assert len(expected.complex) >= 1000
        for mu in imported(spec):
            assert mu == expected
            assert project_from_fuzzy(mu) == project_from_fuzzy(expected)

    def test_mutants_name_the_same_pair(self, gen):
        """Non-monotone mutants whose first failing comparable pair is not a
        cover pair: checking the covers finds the failure, and the scan names
        the pair that the all-pairs check names."""
        spec = grid_spec(gen, 6, 1, points=120, side=30)
        poset = poset_from_spec(spec["poset"])
        covers = set(poset.covers)
        rng = random.Random(5)
        seen = 0
        for _ in range(8):
            bad = mutant(spec, rng)
            if bad is None:
                continue
            with pytest.raises(FuzzyError) as oracle:
                pairwise_from_filtration(poset, bad["stages"])
            message = str(oracle.value)
            pair = tuple(message.split("'")[1::2])
            if pair in covers:
                continue
            seen += 1
            with pytest.raises(FuzzyError) as lib:
                from_filtration(poset, {p: SimplicialComplex.from_maximal(m)
                                        for p, m in bad["stages"].items()})
            assert str(lib.value) == message
            with pytest.raises(ProjectError) as project:
                load_project({"filtration": bad})
            assert str(project.value) == message
        assert seen >= 4


def test_grid_import_bytes_are_pinned(gen, tmp_path):
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(grid_spec(gen, 10, 3)))
    out = tmp_path / "project.json"
    assert main(["import-filtration", str(spec), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRID_10x10_SHA256


def test_import_builds_one_complex(gen, tmp_path, monkeypatch):
    """One complex, for the union of the stages: none per stage."""
    spec = tmp_path / "grid.json"
    spec.write_text(json.dumps(grid_spec(gen, 4, 0)))
    built = []
    init = SimplicialComplex.__init__
    monkeypatch.setattr(SimplicialComplex, "__init__",
                        lambda self, simplices: built.append(1) or init(self, simplices))
    assert main(["import-filtration", str(spec), "--out", str(tmp_path / "p.json")]) == 0
    assert len(built) == 1


def test_rank_table_compares_each_pair_of_codes_once(tmp_path, monkeypatch):
    """A rank table over the benchmark's 4x4 bifiltration (seed 2) makes no
    more lattice comparisons than there are pairs of codes in the value
    codings it builds: `eta_cut` finds the least level above each
    join-irreducible part through the subcomplex's coding."""
    monkeypatch.syspath_prepend(BENCH)  # bench/inputs.py imports its sibling gen.py
    import inputs

    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"]["bifiltration-ranks"]
    inputs.make_inputs("bifiltration-ranks", spec["params"], 2, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["import-filtration", "filtration.json", "--out", "project.json"]) == 0
    calls, codings = [], []
    leq, init = CdlLattice.leq, ValueCoding.__init__
    monkeypatch.setattr(CdlLattice, "leq", lambda self, a, b: calls.append(1) or leq(self, a, b))
    monkeypatch.setattr(ValueCoding, "__init__",
                        lambda self, lattice: codings.append(self) or init(self, lattice))
    assert main(["rank-table", "project.json", "--json", "--out", "ranks.json"]) == 0
    pairs = sum(len(c.values) ** 2 for c in codings)
    assert 0 < len(calls) <= pairs, (len(calls), pairs)
