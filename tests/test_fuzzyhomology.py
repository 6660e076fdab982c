"""Lattice-valued homology: kappa, level submodules, eta values and cuts."""

import itertools
import random

import pytest

from fshom.exact import PrimeField, ZZ
from fshom.fuzzy import ChromaticDataset, FuzzySubcomplex, chromatic, vietoris_rips
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
from fshom.project import load_project_file
from fshom.simplicial import Simplex, from_maximal
from fshom.modules import SubmoduleOfHomology
from oracles import brute_force_eta, kernel_hdl_submodule
from randgen import lattice_family, random_complex, random_mu, random_torsion_complex

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
        assert ctx.kappa(0, [0, 0, 0, 1, 1]) == L.parse("x & y")
        assert ctx.kappa(0, [1, 1, 0, 0, 0]) == L.parse("x")
        assert ctx.kappa(0, [0, 0, 0, 0, 0]) == L.parse("1")
        assert ctx.kappa(1, [1, -1, 0, 1, 0]) == L.parse("x")

    def test_value_sets(self, ctx):
        assert fmt_set(ctx.delta_value_set(0)) == ["x", "y"]
        assert fmt_set(ctx.delta_value_set(1)) == ["x", "x & y"]
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
        values = list(ctx.lattice.carrier())
        for a in values:
            for b in values:
                if ctx.lattice.leq(a, b):
                    assert ctx.hdl_submodule(0, a).contains(ctx.hdl_submodule(0, b))

    def test_degree_one(self, ctx):
        L = ctx.lattice
        assert ctx.hdl_submodule(1, L.parse("x")).structure.describe() == "Z"
        assert ctx.hdl_submodule(1, L.parse("y")).structure.describe() == "0"

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
        return SubmoduleOfHomology.zero(ambient)
    H = ReducedChainComplex(cut, ctx.ring).homology(d)
    position = {s: i for i, s in enumerate(ctx.mu.complex.simplices(d))}
    images = []
    for chain in H.torsion_generators + H.free_generators:
        full = [0] * len(position)
        for s, c in zip(cut.simplices(d), chain):
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
        levels = lattice.carrier()
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
        levels whose index sets lie within its own; requests in a shuffled
        order, so with the chains' sweeps interleaved, match the oracle."""
        rng = random.Random(6003)
        for lattice in lattice_family():
            for _ in range(12):
                K = random_torsion_complex(rng) if rng.random() < 0.5 else random_complex(rng)
                ctx = FuzzyHomologyContext(random_mu(rng, K, lattice), rng.choice(RINGS))
                for d in range(ctx.reduced.top + 1):
                    levels = list(lattice.carrier())
                    rng.shuffle(levels)
                    ctx.hdl_submodule(d, levels[0])
                    within = set(ctx.index_set(d, levels[0]))
                    assert all(set(ctx.index_set(d, lv)) <= within for lv in ctx._hdl_cache[d])
                    for lv in levels:
                        assert ctx.hdl_submodule(d, lv) == kernel_hdl_submodule(ctx, d, lv)

    @staticmethod
    def assert_matches_cut_images(ctx):
        for d in range(ctx.reduced.top + 1):
            for lv in ctx.lattice.carrier():
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
                          for lv in ctx.lattice.carrier())
        assert proper


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
        for lv in ctx.lattice.carrier():
            for d in (0, 1):
                assert ctx.eta_cut(d, lv).contains(ctx.hdl_submodule(d, lv))

    def test_cut_consistent_with_eta_values(self, ctx):
        # [h] lands in the cut at level l exactly when eta(h) >= l
        L = ctx.lattice
        classes = [[0, 0], [1, 0], [0, 1], [1, 1], [2, 1]]
        for lv in L.carrier():
            S = ctx.eta_cut(0, lv)
            for vec in classes:
                h = ctx.reduced.class_from_vector(0, vec)
                expected = L.leq(lv, ctx.eta_value(0, h))
                assert S.member(h.vector()) == expected

    def test_rank_table(self, ctx):
        L = ctx.lattice
        levels = [L.parse(t) for t in ("x & y", "x", "y", "x | y", "1")]
        table = ctx.rank_cut_table(0, levels)
        assert [table[lv] for lv in levels] == [2, 1, 2, 1, 0]


class TestDegenerateAndRefusals:
    def test_two_level_chain_reduces_to_crisp(self):
        T = TotalOrder(("lo", "hi"))
        K = from_maximal([[0, 1], [1, 2], [0, 2]])
        mu = FuzzySubcomplex(K, T, {s: T.parse("hi") for s in K.all_simplices()})
        ctx = FuzzyHomologyContext(mu, ZZ)
        assert fmt_set(ctx.kappa_value_set(1)) == ["hi"]
        for d in (0, 1):
            ambient = ctx.reduced.ambient(d)
            for k in range(ambient.length):
                assert ctx.eta_value(d, free_class(ctx, d, k)) == T.parse("1")

    def test_chain_fast_path_matches_hdl(self):
        T = TotalOrder(("l0", "l1", "l2", "l3"))
        K = from_maximal([[0, 1], [1, 2], [0, 2], [3]])
        values = {
            Simplex((0,)): "l3", Simplex((1,)): "l2", Simplex((2,)): "l2",
            Simplex((3,)): "l1",
            Simplex((0, 1)): "l2", Simplex((1, 2)): "l2", Simplex((0, 2)): "l1",
        }
        mu = FuzzySubcomplex(K, T, {s: T.parse(v) for s, v in values.items()})
        ctx = FuzzyHomologyContext(mu, ZZ)
        for lv in T.carrier():
            cut = ctx.eta_cut(0, lv)
            solvable = [v for v in ctx.kappa_value_set(0) if T.leq(lv, v)]
            if solvable:
                smallest = ctx.lattice.meet(solvable)
                assert cut == ctx.hdl_submodule(0, smallest)
            else:
                assert cut.structure.is_zero

    def test_single_point_eta_is_vertex_value(self):
        L = FreeDistributiveLattice(("x", "y"))
        K = from_maximal([[0]])
        mu = FuzzySubcomplex(K, L, {Simplex((0,)): L.parse("x")})
        ctx = FuzzyHomologyContext(mu, ZZ)
        assert ctx.eta_value(0, free_class(ctx, 0, 0)) == L.parse("x")

    def test_zero_vertex_dropped_without_changing_eta(self, reference_mu, ctx):
        L = reference_mu.lattice
        K = from_maximal([[0, 1], [0, 3], [1, 2, 3], [4], [5]])
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
        K = from_maximal([[0]])
        mu = FuzzySubcomplex(K, U, {Simplex((0,)): U.parse("a")})
        with pytest.raises(NotComputableError):
            FuzzyHomologyContext(mu, ZZ)


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
        levels = L.carrier()
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
        assert len(ctx.kappa_value_set(1)) < len(L.carrier())
        self.assert_cuts_match_oracle(ctx)
