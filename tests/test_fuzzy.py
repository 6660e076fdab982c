"""Fuzzy subcomplexes: validation, cuts, chromatic and filtration builders."""

import random
from fractions import Fraction

import pytest

from fshom.fuzzy import (
    ChromaticDataset,
    FuzzyError,
    FuzzySubcomplex,
    chromatic,
    complete_values,
    explicit_violations,
    from_filtration,
    vietoris_rips,
)
from fshom.lattice import (
    FreeDistributiveLattice,
    Poset,
    TotalOrder,
    UpSetLattice,
    format_value,
)
from fshom.simplicial import EMPTY_COMPLEX, Simplex, from_maximal
from oracles import pairwise_complete_values, pairwise_explicit_violations, pairwise_vietoris_rips
from randgen import lattice_family, random_complex


def fdl2():
    return FreeDistributiveLattice(("x", "y"))


def vertex_names(K):
    return {s.vertices for s in K.all_simplices()}


class TestValidation:
    def test_reference_is_monotone(self, reference_mu):
        assert reference_mu.validate() == []

    def test_smaller_face_value_flagged(self):
        L = fdl2()
        K = from_maximal([[0, 1]])
        mu = FuzzySubcomplex(K, L, {
            Simplex((0,)): L.parse("x & y"),
            Simplex((1,)): L.parse("1"),
            Simplex((0, 1)): L.parse("x"),
        })
        bad = mu.validate()
        assert len(bad) == 1
        v = bad[0]
        assert v.face == Simplex((0,)) and v.coface == Simplex((0, 1))
        assert "x & y" in v.message() and "x" in v.message()

    def test_constant_top_ok(self):
        L = fdl2()
        K = from_maximal([[0, 1, 2]])
        mu = FuzzySubcomplex(K, L, {s: L.parse("1") for s in K.all_simplices()})
        assert mu.validate() == []

    def test_values_must_cover_every_simplex(self):
        L = fdl2()
        K = from_maximal([[0, 1]])
        with pytest.raises(FuzzyError):
            FuzzySubcomplex(K, L, {Simplex((0,)): L.parse("x")})

    def test_explicit_violations_any_codimension(self):
        L = fdl2()
        explicit = {
            Simplex((0,)): L.parse("x & y"),
            Simplex((0, 1, 2)): L.parse("x"),
        }
        bad = explicit_violations(explicit, L)
        assert len(bad) == 1
        assert bad[0].face == Simplex((0,)) and bad[0].coface == Simplex((0, 1, 2))

    def test_completion_and_violations_match_pairwise_definitions(self):
        """Seeded partial assignments on every lattice family: values, their
        order, and the violations in order equal the pairwise definitions."""
        rng = random.Random(5)
        for _ in range(300):
            lattice = rng.choice(lattice_family())
            K = random_complex(rng, max_vertices=8, max_dim=4)
            elements = list(lattice.carrier())
            simplices = list(K.all_simplices())
            explicit = {s: rng.choice(elements)
                        for s in rng.sample(simplices, rng.randint(0, len(simplices)))}
            values = complete_values(K, lattice, explicit)
            expected = pairwise_complete_values(K, lattice, explicit)
            assert list(values.items()) == list(expected.items())
            bad = explicit_violations(explicit, lattice)
            assert bad == pairwise_explicit_violations(explicit, lattice)


class TestCuts:
    def test_reference_cut_family(self, reference_mu):
        L = reference_mu.lattice
        at_x = reference_mu.cut(L.parse("x"))
        assert vertex_names(at_x) == {(0,), (1,), (3,), (0, 1), (0, 3), (1, 3)}
        assert reference_mu.cut(L.parse("1")).is_empty
        assert reference_mu.cut(L.parse("0")) == reference_mu.complex
        assert reference_mu.cut(L.parse("x & y")) == reference_mu.complex
        at_y = reference_mu.cut(L.parse("y"))
        assert vertex_names(at_y) == {(2,), (4,)}

    def test_cut_monotone_and_join_rule(self, reference_mu):
        L = reference_mu.lattice
        values = list(L.carrier())
        for a in values:
            for b in values:
                ca, cb = reference_mu.cut(a), reference_mu.cut(b)
                if L.leq(a, b):
                    assert cb.is_subcomplex_of(ca)
                cj = reference_mu.cut(a | b)
                expected = {s for s in ca.all_simplices()} & \
                           {s for s in cb.all_simplices()}
                assert set(cj.all_simplices()) == expected

    def test_support_and_core(self, reference_mu):
        assert reference_mu.support() == reference_mu.complex
        assert reference_mu.core().is_empty
        assert reference_mu.restrict_to_support().complex == reference_mu.complex
        assert reference_mu.restrict_to_support() is reference_mu

    def test_zero_vertex_dropped(self):
        L = fdl2()
        K = from_maximal([[0, 1], [2]])
        mu = FuzzySubcomplex(K, L, {
            Simplex((0,)): L.parse("x"),
            Simplex((1,)): L.parse("x"),
            Simplex((0, 1)): L.parse("x"),
            Simplex((2,)): L.parse("0"),
        })
        restricted = mu.restrict_to_support()
        assert vertex_names(restricted.complex) == {(0,), (1,), (0, 1)}

    def test_all_zero_support_empty(self):
        L = fdl2()
        K = from_maximal([[0]])
        mu = FuzzySubcomplex(K, L, {Simplex((0,)): L.parse("0")})
        assert mu.support().is_empty
        with pytest.raises(FuzzyError):
            mu.restrict_to_support()

    def test_value_recoverable_from_cuts(self, reference_mu):
        L = reference_mu.lattice
        grid = list(L.carrier())
        for s, v in reference_mu.items():
            hits = [lv for lv in grid if s in set(reference_mu.cut(lv).all_simplices())]
            assert L.join(hits) == v


class TestCompletion:
    def test_join_of_cofaces(self):
        L = fdl2()
        K = from_maximal([[0, 1, 2], [3]])
        full = complete_values(K, L, {
            Simplex((0, 1, 2)): L.parse("x & y"),
            Simplex((3,)): L.parse("y"),
        })
        assert format_value(full[Simplex((0,))]) == "x & y"
        assert format_value(full[Simplex((3,))]) == "y"

    def test_explicit_values_joined_in(self):
        L = fdl2()
        K = from_maximal([[0, 1]])
        full = complete_values(K, L, {
            Simplex((0,)): L.parse("x"),
            Simplex((0, 1)): L.parse("y"),
        })
        # the vertex keeps its own value joined with the edge's
        assert format_value(full[Simplex((0,))]) == "x | y"
        assert format_value(full[Simplex((1,))]) == "y"

    def test_unknown_simplex_rejected(self):
        L = fdl2()
        K = from_maximal([[0, 1]])
        with pytest.raises(FuzzyError):
            complete_values(K, L, {Simplex((5,)): L.parse("x")})


class TestChromatic:
    def test_reference_values(self, reference_mu):
        K = from_maximal([[0, 1], [0, 3], [1, 2, 3], [4]])
        L = FreeDistributiveLattice(("x", "y"))
        labels = {0: "x", 1: "x", 2: "y", 3: "x", 4: "y"}
        mu = chromatic(K, labels, ("x", "y"))
        assert {s: format_value(v) for s, v in mu.items()} == \
               {s: format_value(v) for s, v in reference_mu.items()}
        assert mu.lattice == L

    def test_monochromatic(self):
        K = from_maximal([[0, 1, 2]])
        mu = chromatic(K, {0: "r", 1: "r", 2: "r"}, ("r",))
        assert all(format_value(v) == "r" for _, v in mu.items())

    def test_unlabeled_vertex_rejected(self):
        K = from_maximal([[0, 1]])
        with pytest.raises(FuzzyError):
            chromatic(K, {0: "r"}, ("r",))
        with pytest.raises(FuzzyError):
            chromatic(K, {0: "r", 1: "s"}, ("r",))


class TestVietorisRips:
    def test_closed_threshold_exact(self):
        data = ChromaticDataset((("0", "0"), ("1", "0")), ("r", "b"))
        K, _ = vietoris_rips(data, "1", 1)
        assert K.n(1) == 1
        K, _ = vietoris_rips(data, "999/1000", 1)
        assert K.dim == 0

    def test_unit_square_diagonals_excluded(self):
        pts = (("0", "0"), ("1", "0"), ("1", "1"), ("0", "1"))
        data = ChromaticDataset(pts, ("r", "r", "b", "b"))
        K, _ = vietoris_rips(data, Fraction(105, 100), 2)
        assert K.n(1) == 4 and K.dim == 1

    def test_reference_point_cloud(self, fixture_path):
        from fshom.project import read_chromatic_csv

        data = read_chromatic_csv(fixture_path("points.csv"))
        assert data.palette() == ["blue", "red"]
        K, mu = vietoris_rips(data, 2, 2)
        assert {s.vertices for s in K.simplices(1)} == \
            {(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)}
        assert {s.vertices for s in K.simplices(2)} == {(0, 1, 4), (0, 3, 4)}
        assert format_value(mu.value(Simplex((0, 1, 4)))) == "blue & red"
        K1, _ = vietoris_rips(data, 2, 1)
        assert K1.dim == 1

    def test_float_coordinates_work(self):
        data = ChromaticDataset(((0.0, 0.0), (3.0, 4.0)), ("r", "b"))
        K, _ = vietoris_rips(data, 5.0, 1)
        assert K.n(1) == 1

    def test_float_path_compares_the_rounded_sum_of_squares(self):
        # (3 * 0.1) ** 2 + 0.4 ** 2 rounds above 0.5 ** 2, so no edge,
        # although the correctly rounded distance is 0.5
        data = ChromaticDataset(((0.0, 0.0), (3 * 0.1, 0.4)), ("r", "b"))
        K, _ = vietoris_rips(data, 0.5, 1)
        assert K.n(1) == 0
        data = ChromaticDataset((("0", "0"), ("0.3", "0.4")), ("r", "b"))
        K, _ = vietoris_rips(data, "1/2", 1)
        assert K.n(1) == 1

    def test_negative_radius_rejected(self):
        data = ChromaticDataset((("0",),), ("r",))
        with pytest.raises(FuzzyError):
            vietoris_rips(data, "-1", 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, bad):
        data = ChromaticDataset(((0.0, 0.0), (1.0, 0.0)), ("r", "b"))
        with pytest.raises(FuzzyError):
            vietoris_rips(data, bad, 1)
        data = ChromaticDataset(((0.0, bad), (1.0, 0.0)), ("r", "b"))
        with pytest.raises(FuzzyError):
            vietoris_rips(data, 1.0, 1)
        with pytest.raises(FuzzyError):
            vietoris_rips(data, "1", 1)

    def test_matches_pairwise_oracle(self):
        rng = random.Random(41)
        kinds = ("int", "rational", "decimal", "mixed", "float")
        columns = (0, 1, 2, 3)
        for trial in range(320):
            kind = kinds[trial % len(kinds)]
            cols = columns[(trial // len(kinds)) % len(columns)]
            data, radius = random_cloud(rng, kind, cols)
            max_dim = rng.randint(0, 3)
            K, mu = vietoris_rips(data, radius, max_dim)
            K_ref, mu_ref = pairwise_vietoris_rips(data, radius, max_dim)
            assert K == K_ref, (kind, cols, data, radius, max_dim)
            assert mu == mu_ref, (kind, cols, data, radius, max_dim)


def random_coordinate(rng, kind):
    """One coordinate of the given kind; ranges are small so that many pairs
    sit at exactly the radius or straddle it."""
    if kind == "mixed":
        kind = rng.choice(("int", "rational", "decimal"))
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "rational":
        return Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 6, 7)))
    if kind == "decimal":
        return f"{rng.randint(-40, 40) / 10:.1f}"
    return rng.randint(-8, 8) * 0.1


def random_cloud(rng, kind, cols):
    """A labeled cloud of the given coordinate kind and width, with some
    duplicated points, and a radius of the matching kind (sometimes 0)."""
    points = [tuple(random_coordinate(rng, kind) for _ in range(cols))
              for _ in range(rng.randint(1, 12))]
    for _ in range(rng.randint(0, 3)):
        points.append(rng.choice(points))
    rng.shuffle(points)
    labels = tuple(rng.choice("abc") for _ in points)
    if rng.random() < 0.15:
        radius = 0.0 if kind == "float" else 0
    elif kind == "float":
        radius = rng.randint(1, 12) * 0.1
    else:
        radius = rng.choice((rng.randint(1, 3), Fraction(rng.randint(1, 30), rng.choice((2, 3, 5))),
                             f"{rng.randint(1, 30) / 10:.1f}"))
    return ChromaticDataset(tuple(points), labels), radius


class TestFiltration:
    def test_chain_filtration(self):
        P = Poset(("a", "b"), (("a", "b"),))
        stages = {"a": from_maximal([[0]]), "b": from_maximal([[0, 1]])}
        mu = from_filtration(P, stages)
        assert isinstance(mu.lattice, UpSetLattice)
        got = {s.vertices: format_value(v) for s, v in mu.items()}
        assert got == {(0,): "{a,b}", (1,): "{b}", (0, 1): "{b}"}

    def test_constant_filtration_is_top(self):
        P = Poset(("a", "b"), (("a", "b"),))
        K = from_maximal([[0, 1]])
        mu = from_filtration(P, {"a": K, "b": K})
        assert all(format_value(v) == "{a,b}" for _, v in mu.items())

    def test_cut_recovers_stages(self):
        P = Poset(("a", "b"), ())
        stages = {"a": from_maximal([[0], [1]]), "b": from_maximal([[1], [2]])}
        mu = from_filtration(P, stages)
        L = mu.lattice
        for p in ("a", "b"):
            level = L.value_from_set(P.up(p))
            assert mu.cut(level) == stages[p]
        assert format_value(mu.value(Simplex((1,)))) == "{a,b}"

    def test_non_monotone_rejected(self):
        P = Poset(("a", "b"), (("a", "b"),))
        stages = {"a": from_maximal([[0, 1]]), "b": from_maximal([[0]])}
        with pytest.raises(FuzzyError) as err:
            from_filtration(P, stages)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_missing_stage_rejected(self):
        P = Poset(("a", "b"), (("a", "b"),))
        with pytest.raises(FuzzyError):
            from_filtration(P, {"a": from_maximal([[0]])})
