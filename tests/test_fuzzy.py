"""Fuzzy subcomplexes: validation, cuts, chromatic and filtration builders."""

import math
import random
import sys
from fractions import Fraction

import pytest

import fshom.fuzzy
from fshom.fuzzy import (
    ChromaticDataset,
    FuzzyError,
    FuzzySubcomplex,
    ValueCoding,
    chromatic,
    explicit_violations,
    from_filtration,
    vietoris_rips,
)
from fshom.lattice import (
    FreeDistributiveLattice,
    LatticeError,
    Poset,
    TotalOrder,
    UpSetLattice,
    format_value,
)
from fshom.simplicial import EMPTY_COMPLEX, Simplex, SimplicialComplex
from oracles import (
    carrier, pairwise_complete_values, pairwise_explicit_violations, pairwise_vietoris_rips,
)
from randgen import complete, lattice_family, random_complex


def fdl2():
    return FreeDistributiveLattice(("x", "y"))


def vertex_names(K):
    return {s.vertices for s in K.all_simplices()}


class TestValidation:
    def test_reference_is_monotone(self, reference_mu):
        assert explicit_violations(dict(reference_mu.items()), reference_mu.lattice) == []

    def test_smaller_face_value_flagged(self):
        L = fdl2()
        bad = explicit_violations({
            Simplex((0,)): L.parse("x & y"),
            Simplex((1,)): L.parse("1"),
            Simplex((0, 1)): L.parse("x"),
        }, L)
        assert len(bad) == 1
        v = bad[0]
        assert v.face == Simplex((0,)) and v.coface == Simplex((0, 1))
        assert "x & y" in v.message() and "x" in v.message()

    def test_constant_top_ok(self):
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1, 2]])
        assert explicit_violations({s: L.parse("1") for s in K.all_simplices()}, L) == []

    def test_total_assignment_lists_every_violating_pair(self):
        """On a total assignment every (face, coface) pair is checked, of
        any codimension, in (face, coface) order."""
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1, 2]])
        values = {s: L.parse("x") for s in K.all_simplices()}
        values[Simplex((0,))] = L.parse("0")
        bad = explicit_violations(values, L)
        assert [(v.face, v.coface) for v in bad] == [
            (Simplex((0,)), Simplex((0, 1))), (Simplex((0,)), Simplex((0, 2))),
            (Simplex((0,)), Simplex((0, 1, 2)))]

    def test_values_must_cover_every_simplex(self):
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1]])
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
            elements = list(carrier(lattice))
            simplices = list(K.all_simplices())
            explicit = {s: rng.choice(elements)
                        for s in rng.sample(simplices, rng.randint(0, len(simplices)))}
            values = complete(K, lattice, explicit)
            expected = pairwise_complete_values(K, lattice, explicit)
            assert list(values.items()) == list(expected.items())
            bad = explicit_violations(explicit, lattice)
            assert bad == pairwise_explicit_violations(explicit, lattice)

    def test_completion_and_violations_match_pairwise_definitions_at_bench_scale(self):
        """The same on a chromatic complex of about 860 simplices, for every
        lattice family: a random part of a face-monotone assignment (the meet
        of random vertex values), and random values on a random part."""
        rng = random.Random(13)
        points = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(130))
        K, _ = vietoris_rips(ChromaticDataset(points, ("a",) * 130), 5, 2)
        assert 700 <= len(K) <= 1000
        simplices = list(K.all_simplices())
        seen_violations = False
        for lattice in lattice_family():
            elements = list(carrier(lattice))
            at = {v: rng.choice(elements) for (v,) in K.simplices(0)}
            monotone = {s: lattice.meet(at[v] for v in s) for s in simplices}
            for explicit in (
                    {s: monotone[s] for s in rng.sample(simplices, len(simplices) // 3)},
                    {s: rng.choice(elements) for s in rng.sample(simplices, len(simplices) // 4)}):
                values = complete(K, lattice, explicit)
                expected = pairwise_complete_values(K, lattice, explicit)
                assert list(values.items()) == list(expected.items())
                bad = explicit_violations(explicit, lattice)
                assert bad == pairwise_explicit_violations(explicit, lattice)
                seen_violations = seen_violations or bool(bad)
            assert explicit_violations(monotone, lattice) == []
        assert seen_violations

    def test_completion_runs_the_facet_loop_only_where_a_code_pair_fails(self, monkeypatch):
        """On a chromatic complex of about 860 simplices, for every lattice
        family, `complete_values` equals the pairwise definition. A
        face-monotone assignment on every simplex (the meet of random vertex
        values) compares only distinct code pairs and never walks a facet;
        a non-monotone one (one vertex lowered to 0, random values on a random
        part, a random part of the monotone one) walks the facets."""
        walks = []
        combinations = fshom.fuzzy.combinations
        monkeypatch.setattr(fshom.fuzzy, "combinations",
                            lambda s, k: walks.append(1) or combinations(s, k))
        rng = random.Random(71)
        points = tuple((rng.randint(0, 40), rng.randint(0, 40)) for _ in range(130))
        K, _ = vietoris_rips(ChromaticDataset(points, ("a",) * 130), 5, 2)
        assert 700 <= len(K) <= 1000
        simplices = list(K.all_simplices())
        for lattice in lattice_family():
            elements = list(carrier(lattice))
            at = {v: rng.choice(elements) for (v,) in K.simplices(0)}
            monotone = {s: lattice.meet(at[v] for v in s) for s in simplices}
            coface = rng.choice([s for s in simplices if s.dim and monotone[s] != lattice.bottom])
            for explicit, walked in (
                    (monotone, False),
                    ({**monotone, K.get(coface[:1]): lattice.bottom}, True),
                    ({s: rng.choice(elements) for s in rng.sample(simplices, len(simplices) // 4)}, True),
                    ({s: monotone[s] for s in rng.sample(simplices, len(simplices) // 3)}, True)):
                walks.clear()
                values = complete(K, lattice, explicit)
                assert list(values.items()) == list(pairwise_complete_values(K, lattice, explicit).items())
                assert bool(walks) == walked, (lattice, walked)

    @pytest.mark.parametrize("foreign", [TotalOrder(("lo", "hi")).top, "x", ["x"]],
                             ids=["other-lattice", "string", "unhashable-list"])
    def test_foreign_values_are_refused_with_lattice_error(self, foreign):
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1]])
        values = {s: L.parse("x") for s in K.all_simplices()}
        for s in K.all_simplices():
            with pytest.raises(LatticeError):
                FuzzySubcomplex(K, L, {**values, s: foreign})
            # complete_values takes codes: the coding is what refuses the value
            with pytest.raises(LatticeError):
                ValueCoding(L).code(foreign)

    def test_values_are_held_as_codes_of_the_distinct_values(self, reference_mu):
        coding = reference_mu.coding
        distinct = {v for _, v in reference_mu.items()}
        assert len(coding.values) == len(distinct) and set(coding.values) == distinct
        for s, v in reference_mu.items():
            assert coding.values[reference_mu.code(s)] == v


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
        values = list(carrier(L))
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
        assert reference_mu.cut(reference_mu.lattice.top).is_empty
        assert reference_mu.restrict_to_support().complex == reference_mu.complex
        assert reference_mu.restrict_to_support() is reference_mu

    def test_zero_vertex_dropped(self):
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1], [2]])
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
        K = SimplicialComplex.from_maximal([[0]])
        mu = FuzzySubcomplex(K, L, {Simplex((0,)): L.parse("0")})
        assert mu.support().is_empty
        with pytest.raises(FuzzyError):
            mu.restrict_to_support()

    def test_value_recoverable_from_cuts(self, reference_mu):
        L = reference_mu.lattice
        grid = list(carrier(L))
        for s, v in reference_mu.items():
            hits = [lv for lv in grid if s in set(reference_mu.cut(lv).all_simplices())]
            assert L.join(hits) == v


class TestCompletion:
    def test_join_of_cofaces(self):
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1, 2], [3]])
        full = complete(K, L, {
            Simplex((0, 1, 2)): L.parse("x & y"),
            Simplex((3,)): L.parse("y"),
        })
        assert format_value(full.value(Simplex((0,)))) == "x & y"
        assert format_value(full.value(Simplex((3,)))) == "y"

    def test_explicit_values_joined_in(self):
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1]])
        full = complete(K, L, {
            Simplex((0,)): L.parse("x"),
            Simplex((0, 1)): L.parse("y"),
        })
        # the vertex keeps its own value joined with the edge's
        assert format_value(full.value(Simplex((0,)))) == "x | y"
        assert format_value(full.value(Simplex((1,)))) == "y"

    def test_unknown_simplex_rejected(self):
        L = fdl2()
        K = SimplicialComplex.from_maximal([[0, 1]])
        with pytest.raises(FuzzyError):
            complete(K, L, {Simplex((5,)): L.parse("x")})


class TestChromatic:
    def test_reference_values(self, reference_mu):
        K = SimplicialComplex.from_maximal([[0, 1], [0, 3], [1, 2, 3], [4]])
        L = FreeDistributiveLattice(("x", "y"))
        labels = {0: "x", 1: "x", 2: "y", 3: "x", 4: "y"}
        mu = chromatic(K, labels, ("x", "y"))
        assert {s: format_value(v) for s, v in mu.items()} == \
               {s: format_value(v) for s, v in reference_mu.items()}
        assert mu.lattice == L

    def test_monochromatic(self):
        K = SimplicialComplex.from_maximal([[0, 1, 2]])
        mu = chromatic(K, {0: "r", 1: "r", 2: "r"}, ("r",))
        assert all(format_value(v) == "r" for _, v in mu.items())

    def test_unlabeled_vertex_rejected(self):
        K = SimplicialComplex.from_maximal([[0, 1]])
        with pytest.raises(FuzzyError):
            chromatic(K, {0: "r"}, ("r",))
        with pytest.raises(FuzzyError):
            chromatic(K, {0: "r", 1: "s"}, ("r",))


class TestVietorisRips:
    def test_dataset_checks_every_way_it_is_built(self):
        data = ChromaticDataset((("0", "0"), ("1", "0")), ("r", "b"))
        assert data == ((("0", "0"), ("1", "0")), ("r", "b")) and data.labels == ("r", "b")
        for build in (lambda: ChromaticDataset((("0",),), ("r", "b")),
                      lambda: ChromaticDataset._make(((("0",), ("1", "0")), ("r", "b"))),
                      lambda: data._replace(labels=("r",)),
                      lambda: data._replace(points=(("0",), ("1", "0")))):
            with pytest.raises(FuzzyError):
                build()

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

    def test_float_is_read_as_its_shortest_decimal(self):
        # 3 * 0.1 is the float 0.30000000000000004, read as that decimal, so
        # (0.30000000000000004, 0.4) is farther than 0.5 from the origin;
        # the float 0.3 reads as 3/10, exactly 0.5 away, as the text "0.3"
        data = ChromaticDataset(((0.0, 0.0), (3 * 0.1, 0.4)), ("r", "b"))
        K, _ = vietoris_rips(data, 0.5, 1)
        assert K.n(1) == 0
        data = ChromaticDataset(((0.0, 0.0), (0.3, 0.4)), ("r", "b"))
        K, _ = vietoris_rips(data, 0.5, 1)
        assert K.n(1) == 1
        data = ChromaticDataset((("0", "0"), ("0.3", "0.4")), ("r", "b"))
        K, _ = vietoris_rips(data, "1/2", 1)
        assert K.n(1) == 1

    def test_float_and_text_radii_agree_on_a_one_decimal_axis(self):
        """One-decimal points 0.0 .. 9.9 on one axis and every one-decimal
        radius 0.1 .. 9.9: float inputs give the edges of their decimal
        texts, which link exactly the points at most the radius apart."""
        spell = [f"{k // 10}.{k % 10}" for k in range(100)]
        text = ChromaticDataset(tuple((x,) for x in spell), ("a",) * 100)
        floats = ChromaticDataset(tuple((k / 10,) for k in range(100)), text.labels)
        for j in range(1, 100):
            edges = [{s.vertices for s in vietoris_rips(data, r, 1)[0].simplices(1)}
                     for data, r in ((floats, j / 10), (text, spell[j]))]
            assert edges[0] == edges[1] == {(k, m) for k in range(100) for m in range(k + 1, min(k + j, 99) + 1)}

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
        rng, spell_rng = random.Random(41), random.Random(43)
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
            # the same numbers as text: int() reads some spellings, Fraction the rest
            text = ChromaticDataset(tuple(tuple(as_text(spell_rng, x) for x in p) for p in data.points),
                                    data.labels)
            r_text = as_text(spell_rng, radius)
            got = vietoris_rips(text, r_text, max_dim)
            assert got == pairwise_vietoris_rips(text, r_text, max_dim) == (K, mu), (text, r_text)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
    def test_text_past_the_int_digit_limit_is_refused(self):
        # int() and Fraction both refuse it, so it reads as any unreadable text
        digits = "9" * 5000
        for data, radius in ((ChromaticDataset(((digits,),), ("r",)), "1"),
                             (ChromaticDataset((("0",),), ("r",)), digits)):
            with pytest.raises(FuzzyError) as err:
                vietoris_rips(data, radius, 1)
            assert str(err.value) == f"cannot read number {digits!r}"

    def test_grid_cells_match_pairwise_oracle_on_adversarial_clouds(self):
        """Clouds built against the neighbour grid: points on multiples of
        the radius (both signs), pairs at exactly the radius across a cell
        edge along an axis and along a diagonal, fractional coordinates and
        radii, radius 0 with repeated points, and 0, 1 and 3 coordinates."""
        F = Fraction
        on_multiples = [(a * k, b * k) for k in (2, 3) for a in range(-3, 4) for b in range(-3, 4)]
        across = [(4, 0), (9, 0), (-1, 0), (-6, 0), (4, 4), (7, 8), (1, 0), (-2, 4), (1, 9),
                  (-4, -5), (-7, -9), (5, -5), (8, -9), (0, 5), (0, 10), (-3, 5)]
        fractional = [(F(p, 3), F(q, 7)) for p in range(-7, 8, 2) for q in (-5, 0, 6, 13)]
        repeated = [(1, 2), (1, 2), (0, 0), (1, 2), (-1, -2), (0, 0), (3, 3)]
        cases = [(on_multiples, r) for r in (2, 3, F(3, 2), "1.5", 0)]
        cases += [(on_multiples, r) for r in (2.0, 3.0, 0.0)]
        cases += [(across, r) for r in (5, "5", F(5), 5.0, 4, F(49, 10))]
        cases += [(fractional, r) for r in (F(2, 3), F(1, 21), F(5, 7), "0.4", 0)]
        cases += [(repeated, r) for r in (0, F(0), "0", 0.0)]
        cases += [([()] * 5, 0), ([()] * 3, 1.5)]
        cases += [([(x,) for x in (-6, -3, -2, 0, 1, 3, 3, 5, 9)], r) for r in (3, F(3, 2), 0, 3.0)]
        rng = random.Random(24)
        cube = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(25)]
        cases += [(cube, r) for r in (1, 2, F(3, 2), 2.5, 0)]
        for points, radius in cases:
            labels = tuple("abc"[i % 3] for i in range(len(points)))
            data = ChromaticDataset(tuple(points), labels)
            for max_dim in (1, 3):
                got = vietoris_rips(data, radius, max_dim)
                assert got == pairwise_vietoris_rips(data, radius, max_dim), (points, radius, max_dim)

    def test_float_grid_keys_are_exact(self):
        """Float clouds whose cell keys a rounded quotient would get wrong,
        each float read as its decimal: coordinates a few ulps off multiples
        of twice the radius, quotients past 2**53, 1e308 with radius 1e-10,
        and radii whose square rounds to 0 as a float, which link no two
        distinct points."""
        nudged = []
        for r in (0.1, 0.3, 0.375, 1e-3):
            xs = []  # within 2 ulps of 2rk and of 2rk +- r
            for base in (2 * r * k + s for k in range(-3, 4) for s in (0, r, -r)):
                up = down = base
                xs.append(base)
                for _ in range(2):
                    up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                    xs += (up, down)
            nudged.append(([(x, 0.0) for x in xs] + [(0.0, x) for x in xs[::3]], r))
            nudged.append(([(x, y) for x, y in zip(xs, reversed(xs))], r))
        big = 2.0 ** 70
        past = [(big, 0.0), (big, 0.7), (big, 1.0), (math.nextafter(big, math.inf), 0.0),
                (math.nextafter(big, 0.0), 0.5), (-big, 0.25), (-big, 1.25), (0.5, big), (1.25, big)]
        huge = [(1e308, 0.0), (1e308, 1e-10), (1e308, 3e-10), (1e308, 2e-10), (-1e308, 0.0),
                (-1e308, -1e-10), (1e308, -1e-10), (-1e308, 2e-10)]
        tiny = [(0.0, 0.0), (1e-170, 0.0), (0.0, -1e-165), (1e-160, 0.0), (5e-324, 5e-324), (-2e-162, 0.0)]
        cases = nudged + [(past, r) for r in (1.0, 0.25, 1e-3)] + [(huge, r) for r in (1e-10, 2e-10)]
        cases += [(tiny, r) for r in (0.0, 1e-200, 1e-163, 2e-162)]
        for points, radius in cases:
            labels = tuple("abc"[i % 3] for i in range(len(points)))
            data = ChromaticDataset(tuple(points), labels)
            got = vietoris_rips(data, radius, 2)
            assert got == pairwise_vietoris_rips(data, radius, 2), (points, radius)
        _, mu = vietoris_rips(ChromaticDataset(tuple(tiny), ("a",) * len(tiny)), 0.0, 1)
        assert len(set(tiny)) == 6 and not [s for s, _ in mu.items() if s.dim == 1]

    def test_far_apart_points_are_never_compared(self):
        """Only pairs in adjacent cells are tested, so the gap of two points
        in cells far apart on a grid axis is never computed, however large."""
        data = ChromaticDataset(((0.0, 0.0), (1e300, 0.0), (-1e300, 1e300), (0.5, 0.0)), ("a",) * 4)
        K, _ = vietoris_rips(data, 1.0, 2)
        assert {s.vertices for s in K.simplices(1)} == {(0, 3)}

    @pytest.mark.parametrize("radius", [1e200, 1.4e154, 1.7e308])
    def test_huge_float_radius_is_read_as_its_decimal(self, radius):
        """A float radius near the top of the float range is read exactly as
        the decimal of its repr: a valid radius that links (0, 0) and (1, 0)."""
        data = ChromaticDataset(((0.0, 0.0), (1.0, 0.0)), ("a", "b"))
        assert fshom.fuzzy._as_number(radius) == Fraction(repr(radius))
        K, _ = vietoris_rips(data, radius, 1)
        assert {s.vertices for s in K.simplices(1)} == {(0, 1)}

    def test_huge_gap_is_no_edge(self):
        """Exact comparison keeps a neighbour pair with a gap past the radius
        apart, however large the numbers: on a grid axis, and on a third
        coordinate, which is off the grid."""
        data = ChromaticDataset(((0.0,), (2e154,), (1e154,)), ("a", "b", "c"))
        K, _ = vietoris_rips(data, 1e154, 1)
        assert {s.vertices for s in K.simplices(1)} == {(0, 2), (1, 2)}
        data = ChromaticDataset(((0.0, 0.0, 0.0), (0.0, 0.0, 1e300), (0.0, 0.5, 0.0)), ("a", "b", "c"))
        K, _ = vietoris_rips(data, 1.0, 2)
        assert {s.vertices for s in K.simplices(1)} == {(0, 2)}

    def test_whole_fractions_are_rescaled_to_ints(self, monkeypatch):
        """Text such as "2.0" or "5/1" reads as a Fraction with denominator
        1; the rescale still turns every coordinate and the radius into an
        int, so no cell key or pair test runs Fraction arithmetic."""
        points = (("2.0", "3.0"), ("5/1", "7.0"), ("-1.0", "3"), ("10.0", "3.0"), ("6", "6.0"))
        data = ChromaticDataset(points, ("a", "b", "a", "b", "c"))
        expected = pairwise_vietoris_rips(data, "5.0", 2)

        def refuse(*args):
            raise AssertionError("Fraction arithmetic after the rescale")
        for name in ("__sub__", "__rsub__", "__floordiv__", "__rfloordiv__", "__mul__", "__pow__", "__le__"):
            monkeypatch.setattr(Fraction, name, refuse)
        got = vietoris_rips(data, "5.0", 2)
        assert got == expected and got[0].n(1) > 0

    def test_bench_scale_cloud_matches_pairwise_oracle(self, monkeypatch):
        """A seeded 1000-point cloud at the benchmark's density writes the
        oracle's project bytes and tests at most three pairs per edge. The
        oracle reads the integers as they are, so it runs int arithmetic and
        stays fast."""
        from fshom.project import dump_project

        rng = random.Random(2024)
        n = 1000
        side = round(40 * math.sqrt(n / 130))
        points = tuple((rng.randint(0, side), rng.randint(0, side)) for _ in range(n))
        labels = tuple(rng.choice("abc") for _ in range(n))
        K, mu = vietoris_rips(ChromaticDataset(points, labels), 5, 2)
        K_ref, mu_ref = pairwise_vietoris_rips(ChromaticDataset(points, labels), 5, 2)
        assert K == K_ref and dump_project(mu) == dump_project(mu_ref)
        gaps = []  # one per coordinate of each pair tested
        monkeypatch.setattr(fshom.fuzzy, "sub", lambda a, b: gaps.append(1) or a - b)
        assert vietoris_rips(ChromaticDataset(points, labels), 5, 2) == (K, mu)
        assert K.n(2) > 0 and len(gaps) // 2 <= 3 * K.n(1), (len(gaps) // 2, K.n(1))


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


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def as_text(rng, x):
    """The number x as text of the same value (a float's value is the
    decimal of its repr): int spellings that `int()`
    reads (" 7 ", "+3", "007", "١٢"; "0_12", which `Fraction` reads from
    Python 3.11 on) or only `Fraction` reads ("5/1", "50e-1", "5.0"), and
    "p/q" for a non-integer. Text is kept as it is."""
    if isinstance(x, str):
        return x
    x = Fraction(repr(x)) if isinstance(x, float) else Fraction(x)
    if x.denominator != 1:
        return rng.choice((f"{x.numerator}/{x.denominator}", f" {x.numerator}/{x.denominator} "))
    v = x.numerator
    sign, digits = "-" if v < 0 else rng.choice(("", "+")), str(abs(v))
    spellings = [f" {v} ", sign + digits, f"{sign}00{digits}", sign + digits.translate(ARABIC_INDIC),
                 f"{v}/1", f"{v}0e-1", f"{v}.0"]
    if sys.version_info >= (3, 11):
        spellings.append(f"{sign}0_{digits}")
    return rng.choice(spellings)


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
        stages = {"a": SimplicialComplex.from_maximal([[0]]),
                  "b": SimplicialComplex.from_maximal([[0, 1]])}
        mu = from_filtration(P, stages)
        assert isinstance(mu.lattice, UpSetLattice)
        got = {s.vertices: format_value(v) for s, v in mu.items()}
        assert got == {(0,): "{a,b}", (1,): "{b}", (0, 1): "{b}"}

    def test_constant_filtration_is_top(self):
        P = Poset(("a", "b"), (("a", "b"),))
        K = SimplicialComplex.from_maximal([[0, 1]])
        mu = from_filtration(P, {"a": K, "b": K})
        assert all(format_value(v) == "{a,b}" for _, v in mu.items())

    def test_cut_recovers_stages(self):
        P = Poset(("a", "b"), ())
        stages = {"a": SimplicialComplex.from_maximal([[0], [1]]),
                  "b": SimplicialComplex.from_maximal([[1], [2]])}
        mu = from_filtration(P, stages)
        L = mu.lattice
        for p in ("a", "b"):
            level = L.value_from_set(P.up(p))
            assert mu.cut(level) == stages[p]
        assert format_value(mu.value(Simplex((1,)))) == "{a,b}"

    def test_non_monotone_rejected(self):
        P = Poset(("a", "b"), (("a", "b"),))
        stages = {"a": SimplicialComplex.from_maximal([[0, 1]]),
                  "b": SimplicialComplex.from_maximal([[0]])}
        with pytest.raises(FuzzyError) as err:
            from_filtration(P, stages)
        assert "a" in str(err.value) and "b" in str(err.value)

    def test_missing_stage_rejected(self):
        P = Poset(("a", "b"), (("a", "b"),))
        with pytest.raises(FuzzyError):
            from_filtration(P, {"a": SimplicialComplex.from_maximal([[0]])})
