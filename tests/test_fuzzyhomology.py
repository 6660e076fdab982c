"""Lattice-valued homology: kappa, level submodules, eta values and cuts."""

import itertools
import random
import weakref
from collections import Counter

import pytest

import fshom.fuzzyhomology
from fshom.exact import PrimeField, ZZ
from fshom.fuzzy import ChromaticDataset, FuzzyError, FuzzySubcomplex, chromatic, vietoris_rips
from fshom.fuzzyhomology import FuzzyHomologyContext, NotComputableError
from fshom.homology import ReducedChainComplex
from fshom.lattice import (
    FreeDistributiveLattice,
    LatticeError,
    Poset,
    TotalOrder,
    UpSetLattice,
    format_value,
)
from fshom.project import load_project, load_project_file
from fshom.simplicial import Simplex, SimplicialComplex
from fshom.modules import SubmoduleOfHomology
from oracles import (
    FullAmbientSubmodule, brute_force_eta, carrier, delta_value_set, dense, facet_walk_violation, kappa,
    kernel_hdl_submodule, pairwise_meet_closure, per_simplex_index_set, simplex_values,
)
from randgen import lattice_family, random_complex, random_mu, random_torsion_complex
from test_filtration import BENCH, grid_spec

RINGS = [ZZ, PrimeField(2), PrimeField(3)]
RING_IDS = ["z", "gf2", "gf3"]
LATTICE_IDS = ["total", "fdl1", "fdl2", "fdl3", "upset-diamond", "upset-chain"]


def fmt_set(values):
    return [format_value(v) for v in values]


def free_class(ctx, d, k):
    ambient = ctx.reduced.ambient(d)
    vec = [0] * ambient.length
    vec[len(ambient.torsion) + k] = 1
    return ctx.reduced.class_from_vector(d, vec)


@pytest.fixture
def ctx(reference_mu):
    return FuzzyHomologyContext(reference_mu, ZZ)


class TestChainValues:
    def test_kappa_of_chains(self, ctx):
        L = ctx.lattice
        assert kappa(ctx, 0, [0, 0, 0, 1, 1]) == L.parse("x & y")
        assert kappa(ctx, 0, [1, 1, 0, 0, 0]) == L.parse("x")
        assert kappa(ctx, 0, [0, 0, 0, 0, 0]) == L.parse("1")
        assert kappa(ctx, 1, [1, -1, 0, 1, 0]) == L.parse("x")

    def test_value_sets(self, ctx):
        assert fmt_set(delta_value_set(ctx, 0)) == ["x", "y"]
        assert fmt_set(delta_value_set(ctx, 1)) == ["x", "x & y"]
        assert fmt_set(ctx.kappa_value_set(0)) == ["1", "x", "x & y", "y"]
        assert fmt_set(ctx.kappa_value_set(1)) == ["1", "x", "x & y"]
        assert fmt_set(ctx.kappa_value_set(2)) == ["1", "x & y"]

    def test_kappa_value_set_is_a_fresh_list(self, ctx):
        ctx.kappa_value_set(0).clear()
        assert fmt_set(ctx.kappa_value_set(0)) == ["1", "x", "x & y", "y"]
        ctx.kappa_value_set(7).clear()
        assert fmt_set(ctx.kappa_value_set(7)) == ["1"]

    def test_index_sets(self, ctx):
        L = ctx.lattice
        assert ctx.index_set(0, L.parse("x")) == (2, 4)
        assert ctx.index_set(1, L.parse("x")) == (2, 4)
        assert ctx.index_set(0, L.parse("x & y")) == ()
        assert ctx.index_set(0, L.parse("1")) == (0, 1, 2, 3, 4)
        assert ctx.index_set(0, L.parse("y")) == (0, 1, 3)

    def test_kappa_value_sets_meet_each_pair_of_codes_once(self, monkeypatch):
        """L(kappa_d) equals the pairwise meet-closure of the d-simplex values
        on the chromatic cloud of the chromatic-ingest workload's size, the
        4x4 grid bifiltration and seeded subcomplexes of every lattice
        family, while the closure meets no code with itself and no unordered
        pair of codes twice."""
        monkeypatch.syspath_prepend(BENCH)
        import gen

        rng = random.Random(7201)
        points = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(130))
        labels = tuple(rng.choice("abc") for _ in range(130))
        _, cloud = vietoris_rips(ChromaticDataset(points, labels), 5, 2)
        grid = load_project({"filtration": grid_spec(gen, 4, 2, points=32, side=20)}).mu
        subcomplexes = [cloud, grid]
        for lattice in lattice_family():
            K = random_complex(rng, max_vertices=9, max_dim=3, per_dim_cap=30)
            subcomplexes += [random_mu(rng, K, lattice) for _ in range(3)]
        pairs, closures = [], []
        closure = fshom.fuzzyhomology._meet_closure

        def checked(mu, groups):
            pairs.clear()
            codes = closure(mu, groups)
            assert all(a != b for a, b in pairs)
            assert len({frozenset(p) for p in pairs}) == len(pairs)
            closures.append(len(pairs))
            return codes

        monkeypatch.setattr(fshom.fuzzyhomology, "_meet_closure", checked)
        sizes = Counter()
        for mu in subcomplexes:
            meet = mu.coding.meet
            mu.coding.meet = lambda a, b, meet=meet: pairs.append((a, b)) or meet(a, b)
            ctx = FuzzyHomologyContext(mu, PrimeField(3))
            for d in range(ctx.reduced.top + 1):
                expected = pairwise_meet_closure(simplex_values(ctx, d), ctx.lattice)
                assert ctx.kappa_value_set(d) == expected
                sizes[len(expected) > 4] += 1
        assert sizes[True] > 4 and sum(closures) > 100, (sizes, sum(closures))

    def test_index_sets_by_value_group_match_the_per_simplex_definition(self):
        """Seeded subcomplexes of every lattice family, at every level of the
        lattice and in every degree (and one past the top)."""
        rng = random.Random(31)
        for _ in range(40):
            lattice = rng.choice(lattice_family())
            K = random_complex(rng, max_vertices=8, max_dim=3, per_dim_cap=20)
            ctx = FuzzyHomologyContext(random_mu(rng, K, lattice), ZZ)
            for level in carrier(lattice):
                for d in range(ctx.reduced.top + 2):
                    assert ctx.index_set(d, level) == per_simplex_index_set(ctx, d, level)


class TestEtaValues:
    def test_degree_zero_generators(self, ctx):
        L = ctx.lattice
        assert ctx.eta_value(0, free_class(ctx, 0, 0)) == L.parse("x | y")
        assert ctx.eta_value(0, free_class(ctx, 0, 1)) == L.parse("y")

    def test_zero_class_is_top(self, ctx):
        zero = ctx.reduced.class_from_vector(0, [0, 0])
        assert ctx.eta_value(0, zero) == ctx.lattice.parse("1")

    def test_degree_one_generator(self, ctx):
        h = free_class(ctx, 1, 0)
        assert ctx.eta_value(1, h) == ctx.lattice.parse("x")
        assert fmt_set(ctx.eta_solvable_levels(1, h)) == ["x", "x & y"]

    def test_multiples_only_grow(self, ctx):
        # eta is a fuzzy submodule: eta(a*h) >= eta(h)
        L = ctx.lattice
        h = free_class(ctx, 0, 0)
        double = ctx.reduced.class_from_vector(0, [2, 0])
        assert L.leq(ctx.eta_value(0, h), ctx.eta_value(0, double))

    def test_sum_bounded_below_by_meet(self, ctx):
        L = ctx.lattice
        a = free_class(ctx, 0, 0)
        b = free_class(ctx, 0, 1)
        s = ctx.reduced.class_from_vector(0, [1, 1])
        ea, eb = ctx.eta_value(0, a), ctx.eta_value(0, b)
        assert L.leq(ea & eb, ctx.eta_value(0, s))


class TestLevelSubmodules:
    def test_family(self, ctx):
        L = ctx.lattice
        expect = {"x & y": "Z^2", "x": "Z", "y": "Z^2", "x | y": "0", "1": "0", "0": "Z^2"}
        for text, desc in expect.items():
            assert ctx.hdl_submodule(0, L.parse(text)).structure.describe() == desc

    def test_hdl_x_is_generated_by_first_class(self, ctx):
        L = ctx.lattice
        S = ctx.hdl_submodule(0, L.parse("x"))
        assert S.member((1, 0))
        assert not S.member((0, 1))
        assert not S.member((1, 1))

    def test_monotone_in_level(self, ctx):
        values = list(carrier(ctx.lattice))
        for a in values:
            for b in values:
                if ctx.lattice.leq(a, b):
                    assert ctx.hdl_submodule(0, a).contains(ctx.hdl_submodule(0, b))

    def test_degree_one(self, ctx):
        L = ctx.lattice
        assert ctx.hdl_submodule(1, L.parse("x")).structure.describe() == "Z"
        assert ctx.hdl_submodule(1, L.parse("y")).structure.describe() == "0"

    def test_no_sweep_where_homology_is_zero(self):
        """Two triangles glued along an edge have H_1 = H_2 = 0: every level
        of those degrees is the zero submodule, cached under the value
        groups its level fails, and only degree 0 builds its sweeps."""
        K = SimplicialComplex.from_maximal([[0, 1, 2], [1, 2, 3]])
        lattice = lattice_family()[0]
        ctx = FuzzyHomologyContext(random_mu(random.Random(3), K, lattice), ZZ)
        for d in (1, 2):
            assert ctx.reduced.ambient(d).length == 0
            for lv in carrier(lattice):
                S = ctx.hdl_submodule(d, lv)
                key = ctx._fails(d, ctx.mu.coding.code(lv))
                assert S.structure.is_zero and ctx._hdl_cache[d][key] is S
                assert ctx.eta_cut(d, lv).structure.is_zero
            assert ctx.eta_values(d) == []
        assert ctx.eta_values(0) == [ctx.eta_value(0, ctx.reduced.class_from_vector(0, [1]))]
        assert list(ctx._sweeps) == [0]

    def test_cut_where_homology_is_zero_is_the_zero_submodule(self):
        """Where H_d = 0 (degrees 1 and 2 of two glued triangles, and every
        degree out of range) the cut is the zero submodule at every level,
        the level submodule's own; a foreign level is still refused."""
        K = SimplicialComplex.from_maximal([[0, 1, 2], [1, 2, 3]])
        lattice = lattice_family()[0]
        ctx = FuzzyHomologyContext(random_mu(random.Random(3), K, lattice), ZZ)
        expected = {d: [ctx.hdl_submodule(d, lv) for lv in carrier(lattice)] for d in (1, 2)}
        for d in (-1, 1, 2, 3):
            for lv in carrier(lattice):
                cut = ctx.eta_cut(d, lv)
                assert cut.structure.is_zero and cut.ambient.length == 0
                assert d not in expected or cut == expected[d][0]
            for level in ("not-a-value", TotalOrder(("lo", "hi")).parse("hi")):
                with pytest.raises(LatticeError):
                    ctx.eta_cut(d, level)

    @pytest.mark.parametrize("d", [-1, 0, 1, 5])
    def test_bad_level_refused_in_every_degree(self, ctx, d):
        other = TotalOrder(("lo", "hi"))
        for level in ("not-a-value", other.parse("hi")):
            with pytest.raises(LatticeError):
                ctx.hdl_submodule(d, level)


def cut_image(ctx, d, level):
    """The image of H_d(cut at level) -> H_d(K), from an independent
    reduction of the cut complex: its generating cycles, carried into K by
    inclusion, in K's class coordinates."""
    ambient = ctx.reduced.ambient(d)
    cut = ctx.mu.cut(level)
    if cut.is_empty or d > cut.dim:
        return SubmoduleOfHomology(ambient, [])
    H = ReducedChainComplex(cut, ctx.ring).homology(d)
    position = {s: i for i, s in enumerate(ctx.mu.complex.simplices(d))}
    images = []
    for chain in H.torsion_generators + H.free_generators:
        full = [0] * len(position)
        for s, c in zip(cut.simplices(d), dense(chain, cut.n(d))):
            full[position[s]] = c
        images.append(ctx.reduced.class_of_cycle(d, full).vector())
    return SubmoduleOfHomology(ambient, images)


class TestLevelSubmoduleOracles:
    """H_d(l) from the nested-kernel sweeps against independent constructions,
    at every carrier level: inside and outside L(kappa_d), 0 and 1 included."""

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    @pytest.mark.parametrize("index", range(len(lattice_family())), ids=LATTICE_IDS)
    def test_matches_per_level_kernel(self, index, ring):
        lattice = lattice_family()[index]
        levels = carrier(lattice)
        assert lattice.bottom in levels and lattice.top in levels
        rng = random.Random(5000 + index)
        complexes = [random_complex(rng) for _ in range(40)]
        complexes += [random_torsion_complex(rng) for _ in range(40)]
        for K in complexes:
            ctx = FuzzyHomologyContext(random_mu(rng, K, lattice), ring)
            expected = {}
            checked = set()
            for d in range(ctx.reduced.top + 2):
                for lv in levels:
                    ours = ctx.hdl_submodule(d, lv)
                    # the oracle depends on the level only through its index set
                    key = (d, ctx.index_set(d, lv))
                    if key not in expected:
                        expected[key] = kernel_hdl_submodule(ctx, d, lv)
                    if (id(ours), key) in checked:
                        continue
                    checked.add((id(ours), key))
                    theirs = expected[key]
                    assert ours == theirs, (K, d, format_value(lv))
                    assert ours.structure == theirs.structure, (K, d, format_value(lv))

    def test_a_request_sweeps_only_up_to_its_level(self):
        """On fresh contexts, the first request in a degree builds only
        keys (the value groups a level fails) within its own; requests in a
        shuffled order, so with the chains' sweeps interleaved, match the
        oracle."""
        rng = random.Random(6003)
        for lattice in lattice_family():
            for _ in range(12):
                K = random_torsion_complex(rng) if rng.random() < 0.5 else random_complex(rng)
                ctx = FuzzyHomologyContext(random_mu(rng, K, lattice), rng.choice(RINGS))
                for d in range(ctx.reduced.top + 1):
                    levels = list(carrier(lattice))
                    rng.shuffle(levels)
                    ctx.hdl_submodule(d, levels[0])
                    within = ctx._fails(d, ctx.mu.coding.code(levels[0]))
                    assert all(key <= within for key in ctx._hdl_cache[d])
                    for lv in levels:
                        assert ctx.hdl_submodule(d, lv) == kernel_hdl_submodule(ctx, d, lv)

    def test_a_finished_chain_holds_no_sweep(self):
        """Requests in a shuffled order: after each, a chain keeps its sweep
        exactly while its last key is uncached, and once every level
        of the degree is cached the context holds no sweep and each chain's
        generator is freed."""
        rng = random.Random(6011)
        for lattice in lattice_family():
            for _ in range(8):
                K = random_torsion_complex(rng) if rng.random() < 0.5 else random_complex(rng)
                ctx = FuzzyHomologyContext(random_mu(rng, K, lattice), rng.choice(RINGS))
                for d in range(ctx.reduced.top + 1):
                    if not ctx.reduced.ambient(d).length:
                        continue
                    # the sweeps that the first request would build
                    ctx._sweeps[d] = ctx._chain_sweeps(d)
                    refs = [weakref.ref(s) for s, _ in ctx._sweeps[d].values()]
                    kappa = [ctx._fails(d, c) for c in ctx._kappa_codes[d]]
                    levels = list(carrier(lattice))
                    rng.shuffle(levels)
                    for lv in levels:
                        ctx.hdl_submodule(d, lv)
                        cached, sweeps = ctx._hdl_cache[d], ctx._sweeps[d]
                        assert all(chain[-1] not in cached for _, chain in sweeps.values())
                        assert all(key in cached or key in sweeps for key in kappa)
                    assert ctx._sweeps[d] == {} and refs
                    assert all(ref() is None for ref in refs)

    def test_levels_compare_no_quadratic_count_of_code_pairs(self):
        """A 6-colour cloud has 64 codes and |L(kappa_d)| = 64, 60, 43: after
        every eta value and every cut at a level of L(kappa_d), the lattice
        order has been read on fewer than half of the code pairs, since a
        level is keyed by the value groups it fails, not by a scan of
        L(kappa_d) for the levels above it."""
        rng = random.Random(3)
        points, labels = [], []
        for _ in range(40):
            points.append((rng.randint(0, 12), rng.randint(0, 12)))
            labels.append(f"c{rng.randrange(6)}")
        _, mu = vietoris_rips(ChromaticDataset(tuple(points), tuple(labels)), 3, 2)
        ctx = FuzzyHomologyContext(mu, ZZ)
        assert [len(ctx.kappa_value_set(d)) for d in range(3)] == [64, 60, 43]
        for d in range(3):
            ctx.eta_values(d)
            for lv in ctx.kappa_value_set(d):
                ctx.eta_cut(d, lv).structure
        codes = len(mu.coding.values)
        assert codes == 64
        assert mu.coding.leq.cache_info().currsize < codes * codes / 2

    @staticmethod
    def assert_matches_cut_images(ctx):
        for d in range(ctx.reduced.top + 1):
            for lv in carrier(ctx.lattice):
                ours = ctx.hdl_submodule(d, lv)
                theirs = cut_image(ctx, d, lv)
                assert ours == theirs, (d, format_value(lv))
                assert ours.structure == theirs.structure, (d, format_value(lv))

    def test_chromatic_cloud_over_gf3_is_the_cut_image(self):
        rng = random.Random(6001)
        points = tuple((rng.randint(0, 19), rng.randint(0, 19)) for _ in range(30))
        labels = tuple(rng.choice("abc") for _ in range(30))
        _, mu = vietoris_rips(ChromaticDataset(points, labels), 5, 2)
        ctx = FuzzyHomologyContext(mu, PrimeField(3))
        assert ctx.reduced.top == 2 and len(ctx.kappa_value_set(1)) > 3
        assert sum(ctx.reduced.ambient(d).length for d in range(3)) > 3
        self.assert_matches_cut_images(ctx)

    def test_torsion_complexes_over_z_are_the_cut_images(self):
        """Two-colour vertex values, so the cuts split the Moore spaces and
        their torsion images are proper subgroups at some levels."""
        rng = random.Random(6002)
        proper = 0
        for _ in range(6):
            K = random_torsion_complex(rng)
            labels = {s.vertices[0]: rng.choice("xy") for s in K.simplices(0)}
            ctx = FuzzyHomologyContext(chromatic(K, labels, "xy"), ZZ)
            full = ctx.reduced.ambient(1).torsion
            assert full
            self.assert_matches_cut_images(ctx)
            proper += any(ctx.hdl_submodule(1, lv).structure.torsion not in ((), full)
                          for lv in carrier(ctx.lattice))
        assert proper


class TestBatchEta:
    """`eta_values(d)`, read off each level's Smith form in one pass, against
    `eta_value` of each unit class, one membership test per level."""

    @staticmethod
    def assert_batch_matches_per_class(ctx):
        for d in range(ctx.reduced.top + 2):
            n = ctx.reduced.ambient(d).length
            units = [ctx.reduced.class_from_vector(d, [int(i == k) for i in range(n)])
                     for k in range(n)]
            assert ctx.eta_values(d) == [ctx.eta_value(d, h) for h in units], d

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_torsion_complexes(self, ring):
        rng = random.Random(7001)
        for lattice in lattice_family():
            for _ in range(4):
                K = random_torsion_complex(rng)
                self.assert_batch_matches_per_class(
                    FuzzyHomologyContext(random_mu(rng, K, lattice), ring))

    @pytest.mark.parametrize("index", range(len(lattice_family())), ids=LATTICE_IDS)
    def test_reference_complex(self, reference_mu, index):
        lattice = lattice_family()[index]
        rng = random.Random(7002 + index)
        for _ in range(6):
            mu = random_mu(rng, reference_mu.complex, lattice)
            for ring in RINGS:
                self.assert_batch_matches_per_class(FuzzyHomologyContext(mu, ring))

    @pytest.mark.parametrize("ring", [PrimeField(3), ZZ], ids=["gf3", "z"])
    def test_chromatic_cloud_at_bench_scale(self, ring):
        """The 3-colour cloud of the chromatic-ingest workload's size."""
        rng = random.Random(7003)
        points = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(130))
        labels = tuple(rng.choice("abc") for _ in range(130))
        _, mu = vietoris_rips(ChromaticDataset(points, labels), 5, 2)
        ctx = FuzzyHomologyContext(mu, ring)
        assert 800 <= sum(ctx.mu.complex.n(d) for d in range(3)) <= 950
        assert sum(ctx.reduced.ambient(d).length for d in range(3)) > 20
        self.assert_batch_matches_per_class(ctx)


class TestSplitSubmodulesAgainstFullAmbient:
    """Every H_d(l) and every eta cut at a level of L(kappa_d), with its unit
    generators split off, against the full-ambient Smith form of
    `oracles.FullAmbientSubmodule`: structure, unit members, and membership
    of the unit classes, of the generators of every submodule of the degree
    and of seeded vectors, at the scale of the benchmark's inputs."""

    @staticmethod
    def assert_matches_full_ambient(ctx, rng) -> Counter:
        """Checks every submodule; counts those with unit coordinates and a
        rest ("split"), unit torsion coordinates, and torsion on the rest's
        support."""
        seen = Counter()
        for d in range(ctx.reduced.top + 1):
            ambient = ctx.reduced.ambient(d)
            n, m = ambient.length, len(ambient.torsion)
            levels = ctx.kappa_value_set(d)
            subs = [ctx.hdl_submodule(d, lv) for lv in levels]
            subs += [ctx.eta_cut(d, lv) for lv in levels]
            vecs = [{k: 1} for k in range(n)]
            vecs += [g for S in subs for g in S.generators]
            vecs += [{k: rng.randint(-3, 3) for k in rng.sample(range(n), min(n, 3))}
                     for _ in range(10 if n else 0)]
            for S in subs:
                oracle = FullAmbientSubmodule(S)
                assert S.structure == oracle.structure(), (d, S)
                assert S.unit_members() == oracle.unit_members(), (d, S)
                assert [S.member(v) for v in vecs] == [oracle.member(v) for v in vecs], (d, S)
                seen["split"] += bool(S._units) and bool(S._rest)
                seen["unit torsion"] += any(i < m for i in S._units)
                seen["rest torsion"] += bool(S._rest) and bool(S._local.torsion)
        return seen

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_chromatic_cloud(self, ring):
        """A 3-colour cloud of 130 points, as in chromatic-ingest."""
        rng = random.Random(7103)
        points = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(130))
        labels = tuple(rng.choice("abc") for _ in range(130))
        _, mu = vietoris_rips(ChromaticDataset(points, labels), 5, 2)
        ctx = FuzzyHomologyContext(mu, ring)
        assert len(ctx.mu.complex) > 1000
        assert self.assert_matches_full_ambient(ctx, rng)["split"]

    @pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
    def test_grid_bifiltration(self, ring, monkeypatch):
        """A 4x4 density-Rips grid of 32 points, as in bifiltration-ranks."""
        monkeypatch.syspath_prepend(BENCH)
        import gen

        mu = load_project({"filtration": grid_spec(gen, 4, 2, points=32, side=20)}).mu
        ctx = FuzzyHomologyContext(mu, ring)
        assert len(ctx.kappa_value_set(1)) > 4
        assert self.assert_matches_full_ambient(ctx, random.Random(7104))["split"]

    def test_torsion_complexes_over_z(self):
        """Two-colour vertex values on Moore-space wedges: torsion coordinates
        split off as units, and torsion on the support of a rest."""
        rng = random.Random(7105)
        seen = Counter()
        for _ in range(8):
            K = random_torsion_complex(rng)
            labels = {s.vertices[0]: rng.choice("xy") for s in K.simplices(0)}
            ctx = FuzzyHomologyContext(chromatic(K, labels, "xy"), ZZ)
            seen += self.assert_matches_full_ambient(ctx, rng)
        assert seen["unit torsion"] and seen["rest torsion"]


class TestEtaCuts:
    def test_family(self, ctx):
        L = ctx.lattice
        expect = {"x & y": "Z^2", "x": "Z", "y": "Z^2", "x | y": "Z", "1": "0"}
        for text, desc in expect.items():
            assert ctx.eta_cut(0, L.parse(text)).structure.describe() == desc

    def test_strict_containment_at_join(self, ctx):
        L = ctx.lattice
        level = L.parse("x | y")
        hdl = ctx.hdl_submodule(0, level)
        cut = ctx.eta_cut(0, level)
        assert cut.contains(hdl)
        assert not hdl.contains(cut)
        assert cut.member((1, 0))

    def test_join_cut_is_intersection(self, ctx):
        L = ctx.lattice
        byhand = ctx.hdl_submodule(0, L.parse("x")).intersect(
            ctx.hdl_submodule(0, L.parse("y")))
        assert ctx.eta_cut(0, L.parse("x | y")) == byhand

    def test_cut_contains_hdl_everywhere(self, ctx):
        for lv in carrier(ctx.lattice):
            for d in (0, 1):
                assert ctx.eta_cut(d, lv).contains(ctx.hdl_submodule(d, lv))

    def test_cut_consistent_with_eta_values(self, ctx):
        # [h] lands in the cut at level l exactly when eta(h) >= l
        L = ctx.lattice
        classes = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]]
        for lv in carrier(L):
            S = ctx.eta_cut(0, lv)
            for vec in classes:
                h = ctx.reduced.class_from_vector(0, vec)
                expected = L.leq(lv, ctx.eta_value(0, h))
                assert S.member(h.vector()) == expected

    def test_rank_table(self, ctx):
        L = ctx.lattice
        levels = [L.parse(t) for t in ("x & y", "x", "y", "x | y", "1")]
        assert [ctx.eta_cut(0, lv).structure.betti for lv in levels] == [2, 1, 2, 1, 0]


class TestDegenerateAndRefusals:
    def test_two_level_chain_reduces_to_crisp(self):
        T = TotalOrder(("lo", "hi"))
        K = SimplicialComplex.from_maximal([[0, 1], [1, 2], [0, 2]])
        mu = FuzzySubcomplex(K, T, {s: T.parse("hi") for s in K.all_simplices()})
        ctx = FuzzyHomologyContext(mu, ZZ)
        assert fmt_set(ctx.kappa_value_set(1)) == ["hi"]
        for d in (0, 1):
            ambient = ctx.reduced.ambient(d)
            for k in range(ambient.length):
                assert ctx.eta_value(d, free_class(ctx, d, k)) == T.parse("1")

    def test_chain_fast_path_matches_hdl(self):
        T = TotalOrder(("l0", "l1", "l2", "l3"))
        K = SimplicialComplex.from_maximal([[0, 1], [1, 2], [0, 2], [3]])
        values = {
            Simplex((0,)): "l3", Simplex((1,)): "l2", Simplex((2,)): "l2",
            Simplex((3,)): "l1",
            Simplex((0, 1)): "l2", Simplex((1, 2)): "l2", Simplex((0, 2)): "l1",
        }
        mu = FuzzySubcomplex(K, T, {s: T.parse(v) for s, v in values.items()})
        ctx = FuzzyHomologyContext(mu, ZZ)
        for lv in carrier(T):
            cut = ctx.eta_cut(0, lv)
            solvable = [v for v in ctx.kappa_value_set(0) if T.leq(lv, v)]
            if solvable:
                smallest = ctx.lattice.meet(solvable)
                assert cut == ctx.hdl_submodule(0, smallest)
            else:
                assert cut.structure.is_zero

    def test_single_point_eta_is_vertex_value(self):
        L = FreeDistributiveLattice(("x", "y"))
        K = SimplicialComplex.from_maximal([[0]])
        mu = FuzzySubcomplex(K, L, {Simplex((0,)): L.parse("x")})
        ctx = FuzzyHomologyContext(mu, ZZ)
        assert ctx.eta_value(0, free_class(ctx, 0, 0)) == L.parse("x")

    def test_zero_vertex_dropped_without_changing_eta(self, reference_mu, ctx):
        L = reference_mu.lattice
        K = SimplicialComplex.from_maximal([[0, 1], [0, 3], [1, 2, 3], [4], [5]])
        values = {s: v for s, v in reference_mu.items()}
        values[Simplex((5,))] = L.parse("0")
        bigger = FuzzySubcomplex(K, L, values)
        ctx2 = FuzzyHomologyContext(bigger, ZZ)
        assert ctx2.mu.complex == reference_mu.complex
        for k in range(2):
            assert ctx2.eta_value(0, free_class(ctx2, 0, k)) == \
                ctx.eta_value(0, free_class(ctx, 0, k))

    def test_non_meet_prime_lattice_refused(self):
        U = UpSetLattice(Poset(("a", "b"), ()))
        K = SimplicialComplex.from_maximal([[0]])
        mu = FuzzySubcomplex(K, U, {Simplex((0,)): U.parse("a")})
        with pytest.raises(NotComputableError):
            FuzzyHomologyContext(mu, ZZ)

    def test_subcomplex_that_is_not_face_monotone_refused(self):
        # a face below its coface: the cut at 1 is no complex, so eta is undefined
        T = TotalOrder(("0", "a", "1"))
        K = SimplicialComplex.from_maximal([[0, 1]])
        values = {Simplex((0,)): T.parse("a"), Simplex((1,)): T.top, Simplex((0, 1)): T.top}
        mu = FuzzySubcomplex(K, T, values)
        with pytest.raises(FuzzyError, match=r"^mu\(<0>\) = a does not dominate mu\(<0,1>\) = 1$"):
            FuzzyHomologyContext(mu, ZZ)
        with pytest.raises(ValueError, match="not face-closed"):
            mu.cut(T.top)


    @pytest.mark.parametrize("lattice", lattice_family()[:4], ids=LATTICE_IDS[:4])
    def test_monotone_check_names_the_facet_walks_first_failure(self, lattice):
        """On seeded total assignments, face-monotone ones and ones with a
        value changed, the context refuses exactly those in which the facet
        walk finds a failure, and with its message."""
        rng = random.Random(139)
        elements = [v for v in carrier(lattice) if v != lattice.bottom]
        refused = 0
        for _ in range(40):
            K = random_complex(rng)
            values = dict(random_mu(rng, K, lattice, elements).items())
            if rng.random() < 0.7:
                values[rng.choice(list(K.all_simplices()))] = rng.choice(elements)
            mu = FuzzySubcomplex(K, lattice, values)
            expected = facet_walk_violation(mu)
            if expected is None:
                FuzzyHomologyContext(mu, ZZ)
                continue
            refused += 1
            with pytest.raises(FuzzyError) as raised:
                FuzzyHomologyContext(mu, ZZ)
            assert str(raised.value) == expected
        assert 0 < refused < 40


class TestBruteForceOracle:
    def test_reference_over_gf2(self, reference_mu):
        ctx = FuzzyHomologyContext(reference_mu, PrimeField(2))
        L = ctx.lattice
        h1 = free_class(ctx, 1, 0)
        assert brute_force_eta(ctx, 1, h1) == L.parse("x")
        assert brute_force_eta(ctx, 1, h1) == ctx.eta_value(1, h1)
        for k, text in ((0, "x | y"), (1, "y")):
            h = free_class(ctx, 0, k)
            assert ctx.eta_value(0, h) == L.parse(text)
            assert brute_force_eta(ctx, 0, h) == L.parse(text)

    def test_requires_field(self, ctx):
        with pytest.raises(NotComputableError):
            brute_force_eta(ctx, 0, free_class(ctx, 0, 0))

    def test_enumeration_cap(self, reference_mu):
        ctx = FuzzyHomologyContext(reference_mu, PrimeField(2))
        with pytest.raises(NotComputableError):
            brute_force_eta(ctx, 0, free_class(ctx, 0, 0), cap=1)

    @staticmethod
    def assert_cuts_match_oracle(ctx):
        """For every class h and every carrier level l: h lies in the cut at l
        exactly when the brute-force eta(h) dominates l."""
        L = ctx.lattice
        levels = carrier(L)
        for d in range(ctx.reduced.top + 1):
            cuts = [ctx.eta_cut(d, lv) for lv in levels]
            for vec in itertools.product((0, 1), repeat=ctx.reduced.ambient(d).length):
                h = ctx.reduced.class_from_vector(d, vec)
                eta = brute_force_eta(ctx, d, h)
                for lv, cut in zip(levels, cuts):
                    assert cut.member(vec) == L.leq(lv, eta), (d, vec, lv)

    @pytest.mark.parametrize("index", range(len(lattice_family())),
                             ids=["total", "fdl1", "fdl2", "fdl3", "upset-diamond", "upset-chain"])
    def test_cuts_over_gf2_every_family(self, index):
        lattice = lattice_family()[index]
        rng = random.Random(4000 + index)
        for _ in range(20):
            K = random_complex(rng)
            ctx = FuzzyHomologyContext(random_mu(rng, K, lattice), PrimeField(2))
            self.assert_cuts_match_oracle(ctx)

    def test_cuts_over_gf2_wide_non_chain_value_set(self, fixture_path):
        ctx = FuzzyHomologyContext(load_project_file(fixture_path("wide_kappa.json")).mu,
                                   PrimeField(2))
        L = ctx.lattice
        values = ctx.kappa_value_set(0)
        assert len(values) > 16
        assert any(not L.leq(a, b) and not L.leq(b, a) for a in values for b in values)
        assert len(ctx.kappa_value_set(1)) < len(carrier(L))
        self.assert_cuts_match_oracle(ctx)
