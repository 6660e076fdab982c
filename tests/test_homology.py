"""Basis reduction of chain complexes and homology structure."""

import hashlib
import json
import random
import re

import pytest

import fshom.homology
from fshom.exact import ExactMatrix, PrimeField, ZZ, snf
from fshom.homology import ReducedChainComplex
from fshom.simplicial import SimplicialComplex
from oracles import (
    block_diagonal, chain_boundary, composed_to_delta, cycle_of_class, dense, dense_snf,
    derived_diagonal, rank_above,
)
from randgen import random_complex, random_torsion_complex, rips_complex

REFERENCE_MAXIMAL = [[0, 1], [0, 3], [1, 2, 3], [4]]

SPHERE = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]

RP2 = [[0, 1, 2], [0, 1, 3], [0, 2, 4], [0, 3, 5], [0, 4, 5],
       [1, 2, 5], [1, 3, 4], [1, 4, 5], [2, 3, 4], [2, 3, 5]]

# triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS = [[(i + a) % 7, (i + b) % 7, (i + c) % 7]
         for i in range(7) for a, b, c in ((0, 1, 3), (0, 2, 3))]


def betti_list(maximal, ring=ZZ):
    R = ReducedChainComplex(SimplicialComplex.from_maximal(maximal), ring)
    return [R.homology(d).structure.betti for d in range(R.top + 1)]


class TestReduction:
    def test_reference_partitions(self):
        R = ReducedChainComplex(SimplicialComplex.from_maximal(REFERENCE_MAXIMAL), ZZ)
        assert R.partition[0] == (3, 0, 0, 2)
        assert R.partition[1] == (1, 0, 3, 1)
        assert R.partition[2] == (0, 0, 1, 0)

    def check_invariants(self, K, ring):
        R = ReducedChainComplex(K, ring)
        for d in range(R.top + 1):
            n = K.n(d)
            ident = ExactMatrix.identity(ring, n)
            assert R.from_delta[d] @ R.to_delta[d] == ident
            assert R.to_delta[d] @ R.from_delta[d] == ident
            p = R.partition[d]
            assert p.n_U + p.n_T + p.n_R + p.n_F == n
        D = [derived_diagonal(R, d) for d in range(R.top + 2)]
        assert D == [block_diagonal(R, d) for d in range(R.top + 2)]
        for d in range(R.top + 1):
            assert is_zero(D[d] @ D[d + 1])
        return R

    def test_invariants_on_random_complexes(self):
        rng = random.Random(101)
        for i in range(40):
            K = random_complex(rng)
            ring = PrimeField(2) if i % 3 == 0 else ZZ
            self.check_invariants(K, ring)

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(2), PrimeField(3)], ids=["z", "gf2", "gf3"])
    def test_derived_diagonal_is_the_block_form(self, ring):
        """from_delta[d-1] @ M_d @ to_delta[d] has the units and torsion of
        degree d - 1 on the shifted diagonal past the rank above, and zeros
        elsewhere, the zero ends included."""
        rng = random.Random(131)
        complexes = [random_complex(rng) for _ in range(20)]
        complexes += [random_torsion_complex(rng) for _ in range(4)]
        for K in complexes:
            R = ReducedChainComplex(K, ring)
            for d in range(R.top + 2):
                assert derived_diagonal(R, d) == block_diagonal(R, d), d

    def test_holds_no_diagonal_boundary_or_rank(self):
        R = ReducedChainComplex(random_torsion_complex(random.Random(0)), ZZ)
        assert R.from_delta and R.homology(1).structure.torsion
        for name in ("D", "boundary", "rank"):
            assert not hasattr(R, name), name

    def test_empty_complex_rejected(self):
        from fshom.simplicial import EMPTY_COMPLEX
        with pytest.raises(ValueError):
            ReducedChainComplex(EMPTY_COMPLEX, ZZ)


def dense_product(A, B):
    """Reference product: the dense triple loop, zero terms included.

    Independent of ExactMatrix.__matmul__. Ring elements are ints and both
    rings add and multiply as integers before reducing, so one reduction at
    the end of each sum gives the ring's value.
    """
    assert A.ring == B.ring and A.cols == B.rows
    cols = [[B.data[k][j] for k in range(B.rows)] for j in range(B.cols)]
    rows = [[A.ring.of(sum(a * b for a, b in zip(row, col))) for col in cols]
            for row in A.data]
    return ExactMatrix.from_rows(A.ring, rows, cols=B.cols)


def dense_rows(M):
    return [list(row) for row in M.data]


def is_identity(M):
    return M.rows == M.cols and dense_rows(M) == [
        [int(i == j) for j in range(M.cols)] for i in range(M.rows)]


def is_zero(M):
    return not any(any(row) for row in M.data)


def reduction_digest(R):
    blob = json.dumps({"to_delta": [dense_rows(m) for m in R.to_delta],
                       "from_delta": [dense_rows(m) for m in R.from_delta],
                       "D": [dense_rows(derived_diagonal(R, d)) for d in range(R.top + 2)]},
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


ORACLE_COMPLEXES = {
    # the 40-point cloud of the ROADMAP baseline: 40/111/142 simplices
    "rips40": lambda: rips_complex(random.Random(0), 40),
    # H_1 = Z/2 + Z/5, so the transforms carry coefficients up to 16
    "torsion": lambda: random_torsion_complex(random.Random(0)),
}
ORACLE_RINGS = {"z": ZZ, "gf2": PrimeField(2), "gf3": PrimeField(3)}

# reduction_digest as the dense reduction core (zero terms included)
# computed it; a change of pivot rule or operation order changes the bases
# and fails here.
PINNED_REDUCTIONS = {
    ("rips40", "z"):
        "2905925d2ae6963d6faf46161d59112b8334e1705aa37d17b484a993d41c1466",
    ("rips40", "gf2"):
        "0bbf5ceb311535d86b86bc7023b6300c3b9f9e1541cd6753e1aaa431891fec95",
    ("rips40", "gf3"):
        "625bd1dd1dafa2e4f2e30fa2edee9225cd5c2e1c5611e4ac2d1770add6440c11",
    ("torsion", "z"):
        "286b677857d88f4aa99c7b016fdd674500ba9f31ffb3f6eadbb7bc255b92f837",
    ("torsion", "gf2"):
        "e9bf8eda61ffb9168625c0f940170207d0fbab9f6e2b8525e18eb66a6582c9b5",
    ("torsion", "gf3"):
        "78be9453eb0fc43b72a65807089c5c3c792c6a3339fc2118116d61ac2033fc1e",
}


class TestReductionOracle:
    """The reduction core at bench scale against the dense reference product."""

    @pytest.mark.parametrize("ring_name", ORACLE_RINGS)
    @pytest.mark.parametrize("name", ORACLE_COMPLEXES)
    def test_against_dense_product(self, name, ring_name, monkeypatch):
        smith = []

        def recording_snf(A, *args, **kwargs):
            s = snf(A, *args, **kwargs)
            smith.append((A, s))
            return s

        monkeypatch.setattr(fshom.homology, "snf", recording_snf)
        K = ORACLE_COMPLEXES[name]()
        R = ReducedChainComplex(K, ORACLE_RINGS[ring_name])
        assert len(smith) == R.top + 1
        for A, s in smith:
            assert dense_product(dense_product(s.P, A), s.Q) == s.D
            assert is_identity(dense_product(s.P, s.P_inv))
            assert is_identity(dense_product(s.Q, s.Q_inv))
        for d in range(R.top + 1):
            assert is_identity(dense_product(R.to_delta[d], R.from_delta[d]))
        for d in range(1, R.top + 1):
            M = dense_product(R.from_delta[d - 1], chain_boundary(R, d))
            assert dense_product(M, R.to_delta[d]) == block_diagonal(R, d)
        for d in range(R.top + 1):
            assert is_zero(dense_product(block_diagonal(R, d), block_diagonal(R, d + 1)))
        if name == "torsion" and ring_name == "z":
            assert max(abs(x) for M in R.to_delta for row in M.data for x in row) > 1
        assert reduction_digest(R) == PINNED_REDUCTIONS[name, ring_name]


# reduction_digest of the 60-point cloud (60/269/536 simplices) as the dense
# reduction core computed it
PINNED_RIPS60 = {
    "z": "fd3cd024d6656ad258a5ed884d847550f4e40dcedf311a64ef66b090cee4fc8b",
    "gf3": "c4a0332609cfd02800f0f909c15dfd900fc9d99ebb96043f96ef1edfb28b7603",
}


class TestRips60:
    """The sparse core at the 60-point cloud, against the dense Smith worker
    and the digests of the dense reduction."""

    @pytest.mark.parametrize("ring_name", ORACLE_RINGS)
    def test_every_smith_form_matches_the_dense_worker(self, ring_name, monkeypatch):
        calls = []

        def recording_snf(A, *args, **kwargs):
            s = snf(A, *args, **kwargs)
            calls.append((A, s))
            return s

        monkeypatch.setattr(fshom.homology, "snf", recording_snf)
        R = ReducedChainComplex(rips_complex(random.Random(0), 60), ORACLE_RINGS[ring_name])
        assert len(calls) == R.top + 1
        for A, s in calls:
            assert s == dense_snf(A)
        if ring_name in PINNED_RIPS60:
            assert reduction_digest(R) == PINNED_RIPS60[ring_name]


def eager_from_delta(R):
    """`from_delta` as a reduction whose Smith forms keep all four transforms
    builds it: the row transform P is carried down from degree to degree."""
    P = P_inv = ExactMatrix.identity(R.ring, R.complex.n(R.top))
    out = [None] * (R.top + 1)
    for d in range(R.top, -1, -1):
        r_up = rank_above(R, d)
        N = chain_boundary(R, d) @ P_inv
        s = snf(N.column_block(range(r_up, N.cols)))
        out[d] = P.take_rows(range(r_up)).vstack(s.Q_inv @ P.take_rows(range(r_up, P.rows)))
        P, P_inv = s.P, s.P_inv
    return out


SHORTCUT_COMPLEXES = {
    "rips60": lambda: rips_complex(random.Random(0), 60),
    **{f"torsion-{seed}": (lambda seed=seed: random_torsion_complex(random.Random(seed)))
       for seed in range(4)},
}


class TestToDeltaWithoutIdentityProducts:
    """`to_delta` takes the top Smith form's Q as it is and, where a Smith
    form has rank 0, the P_inv of the degree above. At bench scale it
    equals the full composition, which multiplies by the identity there."""

    @pytest.mark.parametrize("ring_name", ["z", "gf3"])
    @pytest.mark.parametrize("name", SHORTCUT_COMPLEXES)
    def test_equals_the_full_composition(self, name, ring_name):
        R = ReducedChainComplex(SHORTCUT_COMPLEXES[name](), ORACLE_RINGS[ring_name])
        expected = composed_to_delta(R)
        for got, want in zip(R.to_delta, expected, strict=True):
            assert (got.rows, got.cols) == (want.rows, want.cols)
            assert got.by_cols == want.by_cols


class TestFromDeltaOnDemand:
    @pytest.mark.parametrize("ring_name", ORACLE_RINGS)
    @pytest.mark.parametrize("name", ORACLE_COMPLEXES)
    def test_built_on_first_read_as_the_eager_reduction_built_it(self, name, ring_name):
        R = ReducedChainComplex(ORACLE_COMPLEXES[name](), ORACLE_RINGS[ring_name])
        assert "from_delta" not in vars(R)
        expected = eager_from_delta(R)
        assert "from_delta" not in vars(R)
        assert R.from_delta == expected
        assert R.from_delta is R.from_delta


UCT_COMPLEXES = {"rp2": lambda: SimplicialComplex.from_maximal(RP2)}
UCT_COMPLEXES.update({f"torsion-{seed}": (lambda seed=seed: random_torsion_complex(random.Random(seed)))
                      for seed in range(8)})
UCT_PRIMES = (2, 3, 5)


def torsion_count(R, d, p):
    """t_d(p): the torsion coefficients of H_d(K; Z) that p divides."""
    if d < 0:
        return 0
    return sum(1 for a in R.torsion[d] if a % p == 0)


class TestUniversalCoefficients:
    """dim H_d(K; F_p) = beta_d + t_d(p) + t_{d-1}(p) (Hatcher, section 3.A)."""

    @pytest.mark.parametrize("name", UCT_COMPLEXES)
    def test_field_betti_from_integer_reduction(self, name):
        K = UCT_COMPLEXES[name]()
        RZ = ReducedChainComplex(K, ZZ)
        for p in UCT_PRIMES:
            Rp = ReducedChainComplex(K, PrimeField(p))
            for d in range(K.dim + 1):
                assert Rp.torsion[d] == ()
                expected = RZ.partition[d].n_F + torsion_count(RZ, d, p) + torsion_count(RZ, d - 1, p)
                assert Rp.homology(d).structure.betti == expected, (p, d)

    def test_fixtures_have_torsion_for_every_prime(self):
        reductions = [ReducedChainComplex(make(), ZZ) for make in UCT_COMPLEXES.values()]
        for p in UCT_PRIMES:
            assert any(torsion_count(R, 1, p) for R in reductions), p


class TestHomologyStructure:
    def test_reference(self):
        R = ReducedChainComplex(SimplicialComplex.from_maximal(REFERENCE_MAXIMAL), ZZ)
        assert [R.homology(d).structure.describe() for d in range(3)] == \
            ["Z^2", "Z", "0"]
        h0 = R.homology(0)
        assert [dense(g, 5) for g in h0.free_generators] == \
            [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        h1 = R.homology(1)
        assert [dense(g, 5) for g in h1.free_generators] == [[1, -1, 0, 1, 0]]

    def test_point_and_circle(self):
        assert betti_list([[0]]) == [1]
        assert betti_list([[0, 1], [1, 2], [0, 2]]) == [1, 1]

    def test_two_circles(self):
        two = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
        assert betti_list(two) == [2, 2]

    def test_sphere(self):
        assert betti_list(SPHERE) == [1, 0, 1]

    def test_projective_plane_torsion(self):
        R = ReducedChainComplex(SimplicialComplex.from_maximal(RP2), ZZ)
        assert R.homology(0).structure.describe() == "Z"
        h1 = R.homology(1)
        assert h1.structure.betti == 0 and h1.structure.torsion == (2,)
        assert R.homology(2).structure.is_zero
        # over the two-element field the torsion shows up as extra rank
        assert betti_list(RP2, PrimeField(2)) == [1, 1, 1]
        assert betti_list(RP2, PrimeField(3)) == [1, 0, 0]

    def test_torus(self):
        assert betti_list(TORUS) == [1, 2, 1]

    def test_betti_by_rank_nullity(self):
        rng = random.Random(103)
        for _ in range(30):
            K = random_complex(rng)
            R = ReducedChainComplex(K, ZZ)
            for d in range(K.dim + 1):
                rank_d = snf(ExactMatrix.from_rows(ZZ, K.boundary_matrix(d))).rank
                rank_up = snf(ExactMatrix.from_rows(ZZ, K.boundary_matrix(d + 1))).rank
                assert R.homology(d).structure.betti == K.n(d) - rank_d - rank_up


class TestGeneratorColumns:
    @pytest.mark.parametrize("ring", [ZZ, PrimeField(3)], ids=["z", "gf3"])
    def test_generators_are_the_t_and_f_columns(self, ring):
        """Each generating cycle is its sparse column of `to_delta[d]`: densified,
        the T (torsion) or F (free) column of `blocks(d)`, a cycle, and the
        unit class of its position."""
        rng = random.Random(109)
        complexes = [random_torsion_complex(rng) for _ in range(6)] + [rips_complex(rng, 40)]
        for K in complexes:
            R = ReducedChainComplex(K, ring)
            for d in range(R.top + 1):
                h = R.homology(d)
                _, T, _, F = R.blocks(d)
                assert [dense(g, K.n(d)) for g in h.torsion_generators] == \
                    [dense(column, T.rows) for column in T.by_cols]
                assert [dense(g, K.n(d)) for g in h.free_generators] == \
                    [dense(column, F.rows) for column in F.by_cols]
                gens = h.torsion_generators + h.free_generators
                for k, g in enumerate(gens):
                    assert all(x for x in g.values())
                    chain = dense(g, K.n(d))
                    assert R.class_of_cycle(d, chain).vector() == \
                        tuple(int(i == k) for i in range(len(gens)))


class TestClassCoordinates:
    def reference(self):
        return ReducedChainComplex(SimplicialComplex.from_maximal(REFERENCE_MAXIMAL), ZZ)

    def test_round_trip(self):
        R = self.reference()
        for d in (0, 1):
            ambient = R.ambient(d)
            for k in range(ambient.length):
                vec = [0] * ambient.length
                vec[k] = 1
                coords = R.class_from_vector(d, vec)
                cycle = cycle_of_class(R, d, coords)
                back = R.class_of_cycle(d, cycle)
                assert back.vector() == coords.vector()

    def test_boundary_invisible(self):
        R = self.reference()
        # boundary of the triangle, as a 1-cycle
        b = [0, 0, 1, -1, 1]
        coords = R.class_of_cycle(1, b)
        assert coords.is_zero
        # adding it to a generator does not move the class
        z = [1, -1, 0, 1, 0]
        moved = [zi + bi for zi, bi in zip(z, b)]
        assert R.class_of_cycle(1, moved).vector() == R.class_of_cycle(1, z).vector()

    def test_non_cycle_rejected(self):
        R = self.reference()
        with pytest.raises(ValueError, match=re.escape("chain is not a cycle; boundary = [-1, 1, 0, 0, 0]")):
            R.class_of_cycle(1, [1, 0, 0, 0, 0])

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(3)], ids=["z", "gf3"])
    def test_refuses_exactly_the_chains_with_a_boundary(self, ring):
        """A chain is refused, with its boundary named, exactly when the
        boundary matrix does not kill it; cycles plus boundaries pass."""
        rng = random.Random(137)
        for _ in range(20):
            K = random_complex(rng)
            R = ReducedChainComplex(K, ring)
            for d in range(K.dim + 1):
                M = chain_boundary(R, d)
                for trial in range(6):
                    if trial % 2:
                        # a cycle of random class plus a random boundary
                        vec = [rng.randint(-2, 2) for _ in range(R.ambient(d).length)]
                        up = [ring.of(rng.randint(-2, 2)) for _ in range(K.n(d + 1) if d < K.dim else 1)]
                        chain = [ring.of(a + b) for a, b in zip(cycle_of_class(R, d, R.class_from_vector(d, vec)),
                                                                chain_boundary(R, d + 1).apply(up))]
                    else:
                        chain = [ring.of(rng.randint(-2, 2)) for _ in range(K.n(d))]
                    bd = M.apply(chain)
                    if any(bd):
                        with pytest.raises(ValueError, match=re.escape(f"chain is not a cycle; boundary = {bd}")):
                            R.class_of_cycle(d, chain)
                    else:
                        R.class_of_cycle(d, chain)

    def test_inconsistent_bases_fail_loudly(self):
        R = self.reference()
        # the identity puts the cycle <0,1> - <0,3> + <1,3> in the R block
        R.from_delta[1] = ExactMatrix.identity(ZZ, 5)
        with pytest.raises(AssertionError, match="non-cycle block"):
            R.class_of_cycle(1, [1, -1, 0, 1, 0])

    def test_torsion_coordinates_reduced(self):
        R = ReducedChainComplex(SimplicialComplex.from_maximal(RP2), ZZ)
        ambient = R.ambient(1)
        assert ambient.torsion == (2,) and ambient.free_rank == 0
        g = dense(R.homology(1).torsion_generators[0], R.complex.n(1))
        coords = R.class_of_cycle(1, g)
        assert coords.vector() == (1,)
        doubled = [2 * v for v in g]
        assert R.class_of_cycle(1, doubled).is_zero

    def test_random_round_trips(self):
        rng = random.Random(107)
        for _ in range(20):
            K = random_complex(rng)
            R = ReducedChainComplex(K, ZZ)
            for d in range(K.dim + 1):
                ambient = R.ambient(d)
                if ambient.length == 0:
                    continue
                vec = [rng.randint(-3, 3) for _ in range(ambient.length)]
                coords = R.class_from_vector(d, vec)
                back = R.class_of_cycle(d, cycle_of_class(R, d, coords))
                assert back.vector() == coords.vector()
