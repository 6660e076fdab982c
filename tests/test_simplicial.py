"""Simplices, complexes and boundary matrices."""

import copy
import pickle
import random
from itertools import combinations

import pytest

from fshom.simplicial import (
    EMPTY_COMPLEX,
    Simplex,
    SimplicialComplex,
)
from oracles import boundary_walk_closure_error
from randgen import random_complex

REFERENCE_MAXIMAL = [[0, 1], [0, 3], [1, 2, 3], [4]]

# frozen reference boundary matrices, rows indexed by lex-sorted bases
REFERENCE_M1 = [
    [-1, -1, 0, 0, 0],
    [1, 0, -1, -1, 0],
    [0, 0, 1, 0, -1],
    [0, 1, 0, 1, 1],
    [0, 0, 0, 0, 0],
]
REFERENCE_M2 = [[0], [0], [1], [-1], [1]]


def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


class TestSimplex:
    def test_vertices_sorted_and_unique(self):
        assert Simplex((2, 0, 1)).vertices == (0, 1, 2)
        assert Simplex((3,)).dim == 0
        with pytest.raises(ValueError):
            Simplex((1, 1))
        with pytest.raises(ValueError):
            Simplex(())
        with pytest.raises(ValueError):
            Simplex((-1, 0))

    @pytest.mark.parametrize("vertices", [(0, 1.5), (0, 1.0), (True, 2), (False,), ("3", 1), (None,)])
    def test_vertex_ids_must_be_ints(self, vertices):
        with pytest.raises(ValueError):
            Simplex(vertices)

    def test_faces(self):
        assert len(Simplex((1, 2, 3)).faces()) == 7
        assert Simplex((4,)).faces() == [Simplex((4,))]

    def test_containment_and_order(self):
        assert set(Simplex((0, 1))) <= set(Simplex((0, 1, 2)))
        assert not set(Simplex((3,))) <= set(Simplex((0, 1, 2)))
        # membership is the tuple's: vertices are members, faces are not
        assert 0 in Simplex((0, 1)) and 2 not in Simplex((0, 1))
        assert (0,) not in Simplex((0, 1)) and Simplex((0,)) not in Simplex((0, 1))
        assert sorted([Simplex((1, 2)), Simplex((0, 3))]) == \
            [Simplex((0, 3)), Simplex((1, 2))]

    def test_boundary_signs(self):
        b = Simplex((0, 1, 2)).boundary()
        assert b == [(1, Simplex((1, 2))), (-1, Simplex((0, 2))), (1, Simplex((0, 1)))]

    def test_is_its_vertex_tuple(self):
        rng = random.Random(31)
        simplices = [Simplex(rng.sample(range(9), rng.randint(1, 4))) for _ in range(60)]
        for s in simplices:
            vs = s.vertices
            assert type(vs) is tuple and vs == tuple(sorted(vs))
            assert s == vs and vs == s and hash(s) == hash(vs)
            assert {s: 1}[vs] == 1 and vs in {s}
        assert [s.vertices for s in sorted(simplices)] == sorted(s.vertices for s in simplices)

    def test_immutable(self):
        s = Simplex((2, 0))
        with pytest.raises(AttributeError):
            s.vertices = (0, 1)
        with pytest.raises(AttributeError):
            s.color = "red"

    def test_copy_and_pickle_round_trip(self):
        s = Simplex((5, 1, 3))
        for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert type(t) is Simplex and t == s and t.vertices == (1, 3, 5)


class TestComplexConstruction:
    def test_reference_counts(self):
        K = SimplicialComplex.from_maximal(REFERENCE_MAXIMAL)
        assert K.dim == 2
        assert [K.n(d) for d in range(3)] == [5, 5, 1]
        assert [s.vertices for s in K.simplices(1)] == \
            [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_from_maximal_idempotent(self):
        K = SimplicialComplex.from_maximal(REFERENCE_MAXIMAL)
        K2 = SimplicialComplex.from_maximal([s.vertices for s in K.all_simplices()])
        assert K == K2
        assert [s.vertices for s in K.maximal_simplices()] == \
            [(4,), (0, 1), (0, 3), (1, 2, 3)]

    def test_maximal_simplices_match_the_quadratic_definition(self):
        rng = random.Random(23)
        for _ in range(50):
            K = random_complex(rng)
            quadratic = sorted((s for s in K.all_simplices()
                                if not any(s != t and set(s) <= set(t) for t in K.all_simplices())),
                               key=lambda s: (s.dim, s.vertices))
            assert K.maximal_simplices() == quadratic
            assert SimplicialComplex.from_maximal(quadratic) == K

    def test_closure_by_construction_equals_the_checked_constructor(self):
        """`from_maximal` holds its closure without the constructor's checks.
        On 80 seeded maximal lists, with repeated and nested entries, mixed
        dimensions, unsorted vertices and a lone vertex, given as int lists
        (the bulk path) and as tuples (the `Simplex` path), it equals the
        checked `SimplicialComplex` of every face: bases, index, maximal
        simplices and the type of every simplex."""
        rng = random.Random(67)
        for _ in range(80):
            n = rng.randint(1, 12)
            listed = [rng.sample(range(n), rng.randint(1, min(n, 5))) for _ in range(rng.randint(1, 6))]
            listed.append(list(rng.choice(listed)))  # a repeat
            s = rng.choice(listed)
            listed.append(rng.sample(s, rng.randint(1, len(s))))  # a face of an entry
            listed.append([n + rng.randint(0, 3)])  # a lone vertex
            rng.shuffle(listed)
            expected = SimplicialComplex({Simplex(c) for vs in listed for k in range(1, len(vs) + 1)
                                          for c in combinations(sorted(vs), k)})
            for given in (listed, [tuple(vs) for vs in listed]):
                K = SimplicialComplex.from_maximal(given)
                assert K == expected
                assert [K.n(d) for d in range(K.dim + 2)] == [expected.n(d) for d in range(K.dim + 2)]
                assert K._index == expected._index
                assert K.maximal_simplices() == expected.maximal_simplices()
                assert {type(s) for s in K.all_simplices()} == {Simplex}
                assert all(K.get(s.vertices) is s for s in K.all_simplices())

    def test_face_closure_required(self):
        with pytest.raises(ValueError):
            SimplicialComplex([Simplex((0, 1))])

    @pytest.mark.parametrize("gapped", [
        [(0,), (1,), (2,), (0, 1, 2)],               # vertices and a triangle
        [(0, 1), (1, 2)],                            # edges alone
        [(0,), (1,), (2,), (3,), (0, 1, 2, 3)],      # vertices and a tetrahedron
        [(0,), (1,), (0, 1), (0, 1, 2, 3)],          # a gap at dimension 2
    ], ids=["vertices-triangle", "edges", "vertices-tetrahedron", "gap-at-2"])
    def test_dimension_gap_is_not_face_closed(self, gapped):
        with pytest.raises(ValueError, match="not face-closed"):
            SimplicialComplex(map(Simplex, gapped))

    def test_plain_tuples_refused(self):
        with pytest.raises(TypeError):
            SimplicialComplex([(0,)])
        with pytest.raises(TypeError):
            SimplicialComplex([Simplex((0,)), Simplex((1,)), (0, 1)])

    def test_closure_checked_on_every_face(self):
        # the closure is built here from vertex lists, not by from_maximal
        rng = random.Random(29)
        for _ in range(60):
            listed = [rng.sample(range(8), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
            closure = {Simplex(c) for vs in listed for k in range(1, len(vs) + 1)
                       for c in combinations(sorted(vs), k)}
            assert set(SimplicialComplex.from_maximal(listed).all_simplices()) == closure
            for s in closure:
                rest = closure - {s}
                if any(set(s) <= set(t) for t in rest):
                    with pytest.raises(ValueError):
                        SimplicialComplex(rest)
                else:
                    assert set(SimplicialComplex(rest).all_simplices()) == rest

    def test_closure_error_names_the_boundary_walks_first_missing_face(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(80):
            simplices = list(random_complex(rng, max_vertices=9, per_dim_cap=30).all_simplices())
            rng.shuffle(simplices)
            missing = set(rng.sample(simplices, min(len(simplices), rng.randint(2, 5))))
            rest = [s for s in simplices if s not in missing]
            expected = boundary_walk_closure_error(rest)
            if expected is None:
                assert set(SimplicialComplex(rest).all_simplices()) == set(rest)
                continue
            with pytest.raises(ValueError) as exc:
                SimplicialComplex(rest)
            assert str(exc.value) == expected
            checked += 1
        assert checked > 40

    def test_get_returns_the_complexs_own_simplex(self):
        K = SimplicialComplex.from_maximal(REFERENCE_MAXIMAL)
        for s in K.all_simplices():
            assert K.get(s.vertices) is s
        assert K.get((0, 2)) is None and K.get((5,)) is None

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            SimplicialComplex.from_maximal([])
        assert EMPTY_COMPLEX.is_empty and EMPTY_COMPLEX.dim == -1

    def test_subcomplex(self):
        K = SimplicialComplex.from_maximal(REFERENCE_MAXIMAL)
        sub = SimplicialComplex.from_maximal([[0, 1], [4]])
        assert sub.is_subcomplex_of(K)
        assert not SimplicialComplex.from_maximal([[0, 5]]).is_subcomplex_of(K)


class TestBoundaryMatrices:
    def test_reference_entries(self):
        K = SimplicialComplex.from_maximal(REFERENCE_MAXIMAL)
        assert K.boundary_matrix(1) == REFERENCE_M1
        assert K.boundary_matrix(2) == REFERENCE_M2

    def test_degenerate_degrees(self):
        K = SimplicialComplex.from_maximal(REFERENCE_MAXIMAL)
        assert K.boundary_matrix(0) == [[0, 0, 0, 0, 0]]
        assert K.boundary_matrix(3) == [[0]]
        with pytest.raises(ValueError):
            K.boundary_matrix(4)

    def test_boundary_squares_to_zero(self):
        rng = random.Random(17)
        for _ in range(50):
            K = random_complex(rng)
            for d in range(1, K.dim + 1):
                prod = matmul(K.boundary_matrix(d), K.boundary_matrix(d + 1))
                assert all(all(v == 0 for v in row) for row in prod)

    def test_columns_list_faces_in_boundary_order(self):
        rng = random.Random(47)
        for _ in range(40):
            K = random_complex(rng, max_vertices=9, max_dim=4, per_dim_cap=40)
            for d in range(1, K.dim + 1):
                expected = [{K.index(f): sign for sign, f in s.boundary()} for s in K.simplices(d)]
                assert [list(c.items()) for c in K.boundary_columns(d)] == \
                    [list(c.items()) for c in expected]

    def test_single_point(self):
        K = SimplicialComplex.from_maximal([[0]])
        assert K.boundary_matrix(0) == [[0]]
        assert K.boundary_matrix(1) == [[0]]
