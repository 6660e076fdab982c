"""Lattice values: orders, free distributive lattices, up-set lattices, parsing."""

import itertools
import os
import random
import subprocess
import sys

import pytest

from fshom.lattice import (
    FreeDistributiveLattice,
    LatticeError,
    Poset,
    TotalOrder,
    UpSetLattice,
    format_value,
    lattice_from_spec,
    lattice_to_spec,
    parse_value,
)
from oracles import carrier, enumerate_fdl, reference_parse_value
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

    def test_enumeration_caps(self):
        with pytest.raises(LatticeError):
            enumerate_fdl(("a", "b", "c", "d", "e"))
        with pytest.raises(LatticeError):
            carrier(UpSetLattice(Poset([str(i) for i in range(17)], [])))

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

    def test_generator_accepts_only_generators(self):
        L = fdl("x")
        for name in ("0", "1", "y", "xy"):
            with pytest.raises(LatticeError, match=f"unknown generator '{name}'"):
                L.generator(name)
        L = fdl("0", "1")
        assert [format_value(L.generator(name)) for name in ("0", "1")] == ["0", "1"]
        assert L.generator("0") not in (L.bottom, L.top) and L.generator(1) == L.parse("1")


class TestUpSetLattice:
    def diamond(self):
        return UpSetLattice(Poset(("a", "b", "c", "d"),
                                  (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))))

    def test_carrier_and_bounds(self):
        U = self.diamond()
        vals = [format_value(v) for v in carrier(U)]
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

    def test_set_errors_name_the_first_bad_name_under_every_hash_seed(self):
        """Each of p, q, r and s lacks t, and none is known to the second
        lattice: the error names 'p', the first name written, whatever order
        a set of the names iterates in."""
        code = ("from fshom.lattice import *\n"
                "for U in (UpSetLattice(Poset('pqrst', [(x, 't') for x in 'pqrs'])),\n"
                "          UpSetLattice(Poset('a', []))):\n"
                "    try:\n"
                "        parse_value('{p,q,r,s}', U)\n"
                "    except LatticeError as e:\n"
                "        print(e)\n")
        src = os.path.dirname(os.path.dirname(sys.modules["fshom.lattice"].__file__))
        outputs = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert outputs == {"set is not upward closed: contains 'p' but not ['t']\n"
                           "unknown poset element 'p'\n"}

    def test_name_means_principal_filter(self):
        U = self.diamond()
        assert format_value(U.parse("a")) == "{a,b,c,d}"

    def test_poset_cycle_rejected(self):
        for covers in ((("a", "b"), ("b", "a")), (("a", "b"), ("b", "c"), ("c", "a"))):
            with pytest.raises(LatticeError, match="cover cycle through 'a'"):
                Poset(("a", "b", "c"), covers)

    def test_unknown_cover_rejected(self):
        with pytest.raises(LatticeError):
            Poset(("a",), (("a", "b"),))


class TestValueHash:
    """A value hashes its payload only; the lattice is compared by `__eq__`."""

    @pytest.mark.parametrize("spec, text", [
        ({"kind": "total", "levels": ["0", "lo", "1"]}, "lo"),
        ({"kind": "fdl", "generators": ["x", "y"]}, "x & y | x"),
        ({"kind": "upset", "elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}, "b | c"),
    ])
    def test_equal_values_of_one_spec_hash_equal(self, spec, text):
        u, v = (parse_value(text, lattice_from_spec(spec)) for _ in range(2))
        assert u.lattice is not v.lattice
        assert u == v and hash(u) == hash(v) and len({u, v}) == 1

    def test_equal_payloads_in_different_lattices_stay_unequal(self):
        pairs = [(TotalOrder(("0", "1")).top, TotalOrder(("0", "a", "1")).parse("a")),
                 (fdl("x").parse("x"), fdl("x", "y").parse("x")),
                 (UpSetLattice(Poset(("a", "b"), ())).parse("a"),
                  UpSetLattice(Poset(("a", "b"), (("b", "a"),))).parse("{a}")),
                 (UpSetLattice(Poset(("a",), ())).bottom, fdl("a").bottom)]
        for u, v in pairs:
            assert u.payload == v.payload and hash(u) == hash(v)
            assert u != v and len({u, v}) == 2


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
            for v in carrier(L):
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

    def test_agrees_with_the_reference_parser(self):
        """Seeded random token strings: the same value, or the same error
        type and message, as recursive descent over a character scan. Names
        "0" and "1" shadow the literals in the last three lattices."""
        rng = random.Random(41)
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        lattices = lattice_family() + [
            TotalOrder(("1", "mid", "0")),
            fdl("0", "x"),
            UpSetLattice(Poset(("1", "a", "0"), (("a", "1"), ("0", "a")))),
        ]
        for L in lattices:
            names = [format_value(j) for j in L.join_irreducibles(L.top)] + \
                list(getattr(L, "levels", ())) + list(getattr(L, "generators", ()))
            if isinstance(L, UpSetLattice):
                names += L.poset.elements
            pool = names + ["0", "1", "w", "x1", "\u00e9"] + list("&|(){},") * 2
            for _ in range(3000):
                parts = []
                for _ in range(rng.randint(0, 9)):
                    token = rng.choice(pool) if rng.random() < 0.95 else chr(rng.randrange(0x110000))
                    parts += [token, rng.choice(("", "", " ", rng.choice(spaces)))]
                text = "".join(parts)
                outcomes = []
                for parse in (parse_value, reference_parse_value):
                    try:
                        outcomes.append(parse(text, L))
                    except Exception as e:  # the error type and message are compared
                        outcomes.append((type(e), str(e)))
                assert outcomes[0] == outcomes[1], (L, text)

    def test_nesting_limit(self):
        L = fdl("x", "y")
        for depth in (330, 1000):
            assert L.parse("(" * depth + "x | y" + ")" * depth) == L.parse("x | y")
        for depth in (1001, 100_000):
            with pytest.raises(LatticeError, match="^expression nested too deeply to parse$"):
                L.parse("(" * depth + "x" + ")" * depth)

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
            assert [format_value(v) for v in carrier(M)] == \
                   [format_value(v) for v in carrier(L)]


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
            values = list(carrier(L))
            for _ in range(1000):
                self.check_triple(L, *(rng.choice(values) for _ in range(3)))

    def test_folds_of_no_and_one_value(self):
        for L in lattice_family():
            assert L.join([]) == L.bottom and L.meet([]) == L.top
            for v in carrier(L):
                assert L.join([v]) == v and L.meet([v]) == v
                assert L.join([v, L.bottom]) == v and L.meet([v, L.top]) == v


class TestJoinIrreducibles:
    def test_parts_join_back_and_are_join_prime(self):
        for L in lattice_family():
            values = list(carrier(L))
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
