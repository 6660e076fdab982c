"""Lattice values: orders, free distributive lattices, up-set lattices, parsing."""

import itertools
import random

import pytest

from fshom.lattice import (
    FreeDistributiveLattice,
    LatticeError,
    Poset,
    TotalOrder,
    UpSetLattice,
    enumerate_fdl,
    format_value,
    lattice_from_spec,
    lattice_to_spec,
    parse_value,
)
from randgen import lattice_family


def fdl(*names):
    return FreeDistributiveLattice(names)


class TestTotalOrder:
    def test_join_meet_are_max_min(self):
        T = TotalOrder(("a", "b", "c"))
        a, b, c = (T.parse(n) for n in "abc")
        assert (a | b) == b and (a & b) == a
        assert T.join((a, b, c)) == c and T.meet((a, b, c)) == a
        assert T.parse("0") == a and T.parse("1") == c

    def test_needs_levels(self):
        with pytest.raises(LatticeError):
            TotalOrder(())


class TestFreeDistributiveLattice:
    def test_sizes(self):
        assert len(enumerate_fdl(("x",))) == 3
        assert len(enumerate_fdl(("x", "y"))) == 6
        assert len(enumerate_fdl(("x", "y", "z"))) == 20

    def test_fdl2_elements(self):
        names = sorted(format_value(v) for v in enumerate_fdl(("x", "y")))
        assert names == ["0", "1", "x", "x & y", "x | y", "y"]

    def test_meet_of_joins_normalizes(self):
        L = fdl("x", "y", "z")
        a = L.parse("x | y")
        b = L.parse("x | z")
        assert format_value(a & b) == "x | y & z"

    def test_absorption_collapses_terms(self):
        L = fdl("x", "y")
        assert format_value(L.parse("x | x & y")) == "x"
        assert format_value(L.parse("x & y | 1")) == "1"
        assert format_value(L.parse("x & 0")) == "0"

    def test_distinct_generators_incomparable(self):
        L = fdl("x", "y")
        x, y = L.generator("x"), L.generator("y")
        assert not x <= y and not y <= x
        assert x <= (x | y) and (x & y) <= x

    def test_leq_matches_monotone_assignment_oracle(self):
        for names in (("x",), ("x", "y"), ("x", "y", "z")):
            L = fdl(*names)
            values = enumerate_fdl(names, lattice=L)
            assignments = [set(c) for r in range(len(names) + 1)
                           for c in itertools.combinations(names, r)]

            def ev(v, assign):
                terms = v.payload
                return any(all(g in assign for g in term) for term in terms)

            for a in values:
                for b in values:
                    oracle = all(ev(a, s) <= ev(b, s) for s in assignments)
                    assert L.leq(a, b) == oracle

    def test_duplicate_generator_rejected(self):
        with pytest.raises(LatticeError):
            fdl("x", "x")


class TestUpSetLattice:
    def diamond(self):
        return UpSetLattice(Poset(("a", "b", "c", "d"),
                                  (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))))

    def test_carrier_and_bounds(self):
        U = self.diamond()
        vals = [format_value(v) for v in U.carrier()]
        assert vals[0] == "{}" and vals[-1] == "{a,b,c,d}"
        assert len(vals) == 6

    def test_join_union_meet_intersection(self):
        U = self.diamond()
        b = U.parse("b")
        c = U.parse("c")
        assert format_value(b | c) == "{b,c,d}"
        assert format_value(b & c) == "{d}"

    def test_set_literal_requires_up_closed(self):
        U = self.diamond()
        assert format_value(U.parse("{b,d}")) == "{b,d}"
        with pytest.raises(LatticeError):
            U.parse("{b}")
        with pytest.raises(LatticeError):
            U.value_from_set(("a",))

    def test_name_means_principal_filter(self):
        U = self.diamond()
        assert format_value(U.parse("a")) == "{a,b,c,d}"

    def test_poset_cycle_rejected(self):
        with pytest.raises(LatticeError):
            Poset(("a", "b"), (("a", "b"), ("b", "a")))

    def test_unknown_cover_rejected(self):
        with pytest.raises(LatticeError):
            Poset(("a",), (("a", "b"),))


class TestMeetPrimeZero:
    def test_cases(self):
        assert TotalOrder(("a", "b")).zero_is_meet_prime
        assert fdl("x", "y", "z").zero_is_meet_prime
        diamond = UpSetLattice(Poset(("a", "b", "c", "d"),
                                     (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))))
        assert diamond.zero_is_meet_prime
        antichain = UpSetLattice(Poset(("a", "b"), ()))
        assert not antichain.zero_is_meet_prime


class TestParsing:
    def test_round_trip_all_lattices(self):
        for L in lattice_family():
            for v in L.carrier():
                assert L.parse(format_value(v)) == v

    def test_precedence_and_parens(self):
        L = fdl("x", "y", "z")
        assert L.parse("x | y & z") == L.parse("x | (y & z)")
        assert L.parse("(x | y) & z") != L.parse("x | y & z")

    def test_errors(self):
        L = fdl("x", "y")
        for bad in ("w", "x &", "x | | y", "(x", "x)", "{x}", ""):
            with pytest.raises(LatticeError):
                L.parse(bad)

    def test_cross_lattice_operations_rejected(self):
        a = fdl("x").parse("x")
        b = fdl("x", "y").parse("x")
        with pytest.raises(LatticeError):
            a | b

    def test_spec_round_trip(self):
        for L in lattice_family():
            spec = lattice_to_spec(L)
            M = lattice_from_spec(spec)
            assert lattice_to_spec(M) == spec
            assert [format_value(v) for v in M.carrier()] == \
                   [format_value(v) for v in L.carrier()]


class TestLatticeLaws:
    def check_triple(self, L, a, b, c):
        assert (a | a) == a and (a & a) == a
        assert (a | b) == (b | a) and (a & b) == (b & a)
        assert ((a | b) | c) == (a | (b | c))
        assert ((a & b) & c) == (a & (b & c))
        assert (a | (a & b)) == a and (a & (a | b)) == a
        # distributivity, both sides
        assert (a & (b | c)) == ((a & b) | (a & c))
        assert (a | (b & c)) == ((a | b) & (a | c))
        # connecting lemma
        leq = L.leq(a, b)
        assert leq == ((a | b) == b) == ((a & b) == a)

    def test_laws_on_random_triples(self):
        rng = random.Random(7)
        for L in lattice_family():
            values = list(L.carrier())
            for _ in range(1000):
                self.check_triple(L, *(rng.choice(values) for _ in range(3)))

    def test_folds_of_no_and_one_value(self):
        for L in lattice_family():
            assert L.join([]) == L.bottom and L.meet([]) == L.top
            for v in L.carrier():
                assert L.join([v]) == v and L.meet([v]) == v
                assert L.join([v, L.bottom]) == v and L.meet([v, L.top]) == v


class TestJoinIrreducibles:
    def test_parts_join_back_and_are_join_prime(self):
        for L in lattice_family():
            values = list(L.carrier())
            for v in values:
                parts = L.join_irreducibles(v)
                assert L.join(parts) == v
                for j in parts:
                    assert j != L.bottom
                    for a, b in itertools.product(values, repeat=2):
                        if L.leq(j, a | b):
                            assert L.leq(j, a) or L.leq(j, b), (v, j, a, b)

    def test_examples(self):
        T = TotalOrder(("a", "b", "c"))
        assert T.join_irreducibles(T.parse("b")) == [T.parse("b")]
        assert T.join_irreducibles(T.bottom) == []
        F = fdl("x", "y", "z")
        assert [format_value(j) for j in F.join_irreducibles(F.parse("x | y & z"))] == \
            ["x", "y & z"]
        assert F.join_irreducibles(F.top) == [F.top]
        assert F.join_irreducibles(F.bottom) == []
        U = UpSetLattice(Poset(("a", "b", "c", "d"),
                               (("a", "c"), ("b", "c"), ("c", "d"))))
        assert [format_value(j) for j in U.join_irreducibles(U.parse("{a,b,c,d}"))] == \
            ["{a,c,d}", "{b,c,d}"]
        assert U.join_irreducibles(U.parse("{c,d}")) == [U.parse("c")]
