"""Finitely generated module structure and submodule arithmetic."""

import itertools
import random

import pytest

from fshom.exact import PrimeField, ZZ, solve
from fshom.modules import (
    HomologyAmbient,
    ModuleStructure,
    SubmoduleOfHomology,
    module_structure,
)


def ambient(torsion=(), free=0, ring=ZZ):
    return HomologyAmbient(ring, tuple(torsion), free)


class TestStructureDescriptions:
    def test_describe(self):
        assert ModuleStructure(0, ()).describe() == "0"
        assert ModuleStructure(2, ()).describe() == "Z^2"
        assert ModuleStructure(1, (2,)).describe() == "Z/(2) + Z"
        assert ModuleStructure(0, (2, 6)).describe() == "Z/(2) + Z/(6)"
        assert ModuleStructure(1, ()).describe(PrimeField(5)) == "Z/5"


class TestSubmoduleStructure:
    def test_full_and_zero(self):
        amb = ambient((4,), 1)
        zero = SubmoduleOfHomology.zero(amb)
        assert zero.structure.is_zero
        full = SubmoduleOfHomology.full(amb)
        assert full.structure.betti == 1 and full.structure.torsion == (4,)

    def test_diagonal_generator_in_mixed_ambient(self):
        # (2, 1) generates a free rank-1 subgroup of Z/4 + Z
        S = SubmoduleOfHomology(ambient((4,), 1), [(2, 1)])
        st = module_structure(S)
        assert st.betti == 1 and st.torsion == ()

    def test_torsion_subgroup(self):
        S = SubmoduleOfHomology(ambient((4,), 1), [(2, 0)])
        st = S.structure
        assert st.betti == 0 and st.torsion == (2,)

    def test_finite_index_subgroup(self):
        S = SubmoduleOfHomology(ambient((), 2), [(2, 0), (0, 3)])
        assert S.structure.betti == 2 and S.structure.torsion == ()


class TestMembership:
    def test_mixed_ambient(self):
        amb = ambient((4,), 1)
        S = SubmoduleOfHomology(amb, [(2, 1)])
        assert S.member((2, 1))
        assert S.member((0, 2))   # 2*(2,1) = (4,2) = (0,2) mod 4
        assert not S.member((1, 1))
        assert not S.member((2, 0))

    def test_zero_always_member(self):
        amb = ambient((3,), 2)
        assert SubmoduleOfHomology.zero(amb).member((0, 0, 0))

    def test_member_matches_solving_the_lifted_matrix(self):
        """Seeded submodules over Z with torsion and over GF(2), GF(3), GF(5):
        `member` agrees with a fresh solve of the lifted matrix, whether
        `structure` has read the cached Smith form before or not, and over
        a field with the enumerated span."""
        rng = random.Random(4)
        for ring in (ZZ, PrimeField(2), PrimeField(3), PrimeField(5)):
            for _ in range(40):
                if ring.is_field:
                    amb = ambient((), rng.randint(1, 3), ring)
                else:
                    amb = ambient(tuple(rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(1, 2))),
                                  rng.randint(0, 2))
                n = amb.length
                gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))]
                vecs = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(12)]
                for _ in range(4):
                    cs = [rng.randint(-2, 2) for _ in gens]
                    vecs.append(tuple(sum(c * g[i] for c, g in zip(cs, gens)) for i in range(n)))
                member_first = SubmoduleOfHomology(amb, gens)
                answers = [member_first.member(v) for v in vecs]
                member_first.structure
                structure_first = SubmoduleOfHomology(amb, gens)
                structure_first.structure
                lifted = structure_first._lifted_matrix()
                expected = [solve(lifted, v).solvable for v in vecs]
                assert answers == expected
                assert [member_first.member(v) for v in vecs] == expected
                assert [structure_first.member(v) for v in vecs] == expected
                assert any(expected)
                if ring.is_field:
                    span = {tuple(ring.of(sum(c * g[i] for c, g in zip(cs, gens))) for i in range(n))
                            for cs in itertools.product(range(ring.p), repeat=len(gens))}
                    assert expected == [tuple(map(ring.of, v)) in span for v in vecs]

    def test_member_ignores_reduction(self):
        """Seeded submodules over Z with torsion, GF(2) and GF(3): a vector
        with torsion multiples added, negative entries and entries >= p is a
        member exactly when its reduction is; a wrong length is refused."""
        rng = random.Random(17)
        for ring in (ZZ, PrimeField(2), PrimeField(3)):
            for _ in range(30):
                if ring.is_field:
                    amb = ambient((), rng.randint(0, 3), ring)
                else:
                    amb = ambient(tuple(rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(0, 2))),
                                  rng.randint(0, 2))
                n = amb.length
                gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))]
                S = SubmoduleOfHomology(amb, gens)
                shift = list(amb.torsion) + [ring.p if ring.is_field else 0] * amb.free_rank
                for _ in range(12):
                    v = [rng.randint(-6, 6) for _ in range(n)]
                    v = tuple(x + rng.randint(-3, 3) * a for x, a in zip(v, shift))
                    assert S.member(v) == S.member(amb.reduce_vector(v))
                for bad_length in {n + 1, max(n - 1, 0)} - {n}:
                    with pytest.raises(ValueError):
                        S.member((0,) * bad_length)


class TestLatticeOfSubmodules:
    def test_intersection_is_exact_on_a_box(self):
        """Over GF(2), GF(3) and Z with torsion, on small ambients, every
        vector of a box lies in a.intersect(b) exactly when it lies in a and
        in b."""
        rng = random.Random(29)
        cases = [(PrimeField(2), (), 3), (PrimeField(3), (), 2), (ZZ, (2,), 1),
                 (ZZ, (2, 4), 0), (ZZ, (3,), 1), (ZZ, (), 2)]
        for ring, tors, free in cases:
            amb = ambient(tors, free, ring)
            n = amb.length
            box = list(itertools.product(range(-4, 5), repeat=n))
            for _ in range(8):
                a, b = (SubmoduleOfHomology(amb, [tuple(rng.randint(-4, 4) for _ in range(n))
                                                  for _ in range(rng.randint(0, 2))])
                        for _ in range(2))
                inter = a.intersect(b)
                assert [inter.member(v) for v in box] == \
                    [a.member(v) and b.member(v) for v in box]

    def test_intersection_of_free_lines(self):
        amb = ambient((), 2)
        a = SubmoduleOfHomology(amb, [(2, 0)])
        b = SubmoduleOfHomology(amb, [(3, 0)])
        c = a.intersect(b)
        assert c.member((6, 0))
        assert not c.member((2, 0))
        assert not c.member((3, 0))
        assert c.structure.betti == 1

    def test_sum_of_free_lines(self):
        amb = ambient((), 2)
        a = SubmoduleOfHomology(amb, [(2, 0)])
        b = SubmoduleOfHomology(amb, [(3, 0)])
        c = a.add(b)
        assert c.member((1, 0))
        assert not c.member((0, 1))

    def test_intersection_with_torsion(self):
        amb = ambient((4,), 0)
        a = SubmoduleOfHomology(amb, [(1,)])
        b = SubmoduleOfHomology(amb, [(2,)])
        c = a.intersect(b)
        assert c.member((2,)) and not c.member((1,))

    def test_equality_by_mutual_membership(self):
        amb = ambient((), 2)
        a = SubmoduleOfHomology(amb, [(1, 1), (0, 2)])
        b = SubmoduleOfHomology(amb, [(1, 3), (1, -1)])
        assert a != b   # b has index 4 in Z^2, a has index 2
        b = SubmoduleOfHomology(amb, [(1, 3), (0, 2)])
        assert a == b
        c = SubmoduleOfHomology(amb, [(1, 1)])
        assert a != c and a.contains(c) and not c.contains(a)

    def test_random_lattice_laws(self):
        rng = random.Random(211)
        for _ in range(60):
            tors = tuple(rng.choice((2, 3, 4)) for _ in range(rng.randint(0, 2)))
            free = rng.randint(0, 2)
            amb = ambient(tors, free)
            n = len(tors) + free
            if n == 0:
                continue

            def rand_sub():
                gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                        for _ in range(rng.randint(0, 2))]
                return SubmoduleOfHomology(amb, gens)

            a, b = rand_sub(), rand_sub()
            inter = a.intersect(b)
            total = a.add(b)
            assert a.contains(inter) and b.contains(inter)
            assert total.contains(a) and total.contains(b)
            # generators of the sum are sums of members
            for g in a.generators:
                assert total.member(g)
            # intersection members must sit in both
            for g in inter.generators:
                assert a.member(g) and b.member(g)
