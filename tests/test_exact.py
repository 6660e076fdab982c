"""Exact linear algebra: rings, Smith normal form, Diophantine systems."""

import random
import time

import pytest

from fshom import exact
from fshom.exact import (
    ExactMatrix,
    PrimeField,
    ZZ,
    _is_prime,
    format_ring,
    kernel,
    nested_kernels,
    parse_ring,
    snf,
    solve,
)
import oracles
from oracles import dense, dense_snf
from randgen import random_torsion_complex, rips_complex


def mat(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


def rand_matrix(rng, ring=ZZ, max_side=6, lo=-9, hi=9):
    m = rng.randint(0, max_side)
    n = rng.randint(0, max_side)
    if m == 0:
        return ExactMatrix.from_rows(ring, [], cols=n)
    return mat([[ring.of(rng.randint(lo, hi)) for _ in range(n)] for _ in range(m)], ring)


class TestRings:
    def test_integer_quotient_is_nearest(self):
        rng = random.Random(11)
        for _ in range(500):
            a = rng.randint(-50, 50)
            b = rng.choice([n for n in range(-9, 10) if n])
            r = a - b * ZZ.quo(a, b)
            assert 2 * abs(r) <= abs(b)

    def test_prime_field_canonical_and_inverse(self):
        F = PrimeField(7)
        assert F.of(-3) == 4 and F.of(10) == 3
        for a in range(1, 7):
            assert F.of(a * F.inv(a)) == 1

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_primality_is_exact(self):
        # 561 is a Carmichael number; 2^61 + 1 is divisible by 3
        for composite in (561, 2 ** 61 + 1, 3215031751, 3825123056546413051):
            with pytest.raises(ValueError, match="not prime"):
                PrimeField(composite)
        sieve = [k for k in range(2, 2000) if all(k % q for q in range(2, k))]
        assert [k for k in range(2000) if _is_prime(k)] == sieve

    def test_large_prime_modulus_is_fast(self):
        started = time.perf_counter()
        assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
        assert time.perf_counter() - started < 0.1

    def test_modulus_beyond_primality_bound_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            parse_ring(f"zmod:{10 ** 400 + 1}")

    def test_ring_spec_round_trip(self):
        assert parse_ring("z") is ZZ
        assert format_ring(parse_ring("zmod:5")) == "zmod:5"
        with pytest.raises(ValueError):
            parse_ring("gf:4")


class TestConstructor:
    """One sparse constructor; `from_rows` is the checked way from dense rows."""

    def test_sparse_lines_and_dense_rows_agree(self):
        A = mat([[0, 2], [3, 0], [0, 0]])
        assert ExactMatrix(ZZ, 3, 2, by_rows=[{1: 2}, {0: 3}, {}]) == A
        assert ExactMatrix(ZZ, 3, 2, by_cols=[{1: 3}, {0: 2}]) == A
        assert A.data == ((0, 2), (3, 0), (0, 0))

    def test_needs_a_view(self):
        with pytest.raises(ValueError):
            ExactMatrix(ZZ, 1, 1)

    def test_dense_rows_are_refused(self):
        with pytest.raises(TypeError):
            ExactMatrix(ZZ, 1, 2, [[1, 2]])

    def test_from_rows_canonicalises_and_checks_shape(self):
        assert ExactMatrix.from_rows(PrimeField(3), [[3, -1], [4, 0]]).by_rows == ({1: 2}, {0: 1})
        assert ExactMatrix.from_rows(ZZ, [], cols=2).by_cols == ({}, {})
        with pytest.raises(ValueError):
            ExactMatrix.from_rows(ZZ, [[1, 2], [3]])
        with pytest.raises(ValueError):
            ExactMatrix.from_rows(ZZ, [])

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(5)], ids=["z", "gf5"])
    def test_apply_is_the_dense_product(self, ring):
        rng = random.Random(4)
        for _ in range(100):
            A = rand_matrix(rng, ring)
            x = [rng.randint(-9, 9) for _ in range(A.cols)]
            assert A.apply(x) == [ring.of(sum(a * b for a, b in zip(row, x))) for row in A.data]
        with pytest.raises(ValueError):
            mat([[1, 2]]).apply([1])


class TestSmithNormalForm:
    def check(self, A):
        S = snf(A)
        ring = A.ring
        assert S.P @ A @ S.Q == S.D
        n = ExactMatrix.identity(ring, A.rows)
        assert S.P @ S.P_inv == n and S.P_inv @ S.P == n
        m = ExactMatrix.identity(ring, A.cols)
        assert S.Q @ S.Q_inv == m and S.Q_inv @ S.Q == m
        d = [S.D.data[i][i] for i in range(min(A.rows, A.cols))]
        for i in range(A.rows):
            for j in range(A.cols):
                if i != j:
                    assert S.D.data[i][j] == ring.of(0)
        assert all(x != 0 for x in d[:S.rank])
        assert all(x == 0 for x in d[S.rank:])
        for i in range(S.rank - 1):
            assert ring.divides(d[i], d[i + 1])
        if ring is ZZ:
            assert all(x > 0 for x in d[:S.rank])
        return S

    def test_diagonal_gcd_fixture(self):
        S = self.check(mat([[2, 0], [0, 3]]))
        assert S.invariant_factors == (1, 6)

    def test_small_fixtures(self):
        assert self.check(mat([[2, 4], [6, 8]])).invariant_factors == (2, 4)
        assert self.check(mat([[0, 0], [0, 0]])).rank == 0
        assert self.check(ExactMatrix.identity(ZZ, 3)).invariant_factors == (1, 1, 1)
        assert self.check(ExactMatrix.from_rows(ZZ, [], cols=3)).rank == 0
        assert self.check(mat([[], [], []])).rank == 0

    def test_random_integer_matrices(self):
        rng = random.Random(23)
        for _ in range(300):
            self.check(rand_matrix(rng))

    def test_random_field_matrices(self):
        rng = random.Random(29)
        F = PrimeField(2)
        for _ in range(150):
            S = self.check(rand_matrix(rng, F, lo=0, hi=1))
            assert all(x == 1 for x in S.invariant_factors)


# mostly multiples of 2, 3 and 5, so that pivots are often non-units and
# the divisibility sweep runs
TORSION_ENTRIES = (0, 0, 0, 1, 2, -2, 3, 4, -4, 6, -6, 9, 10, 12, -15, 25)


class TestSparseSmithAgainstDenseOracle:
    """snf on sparse lines returns the very SmithDecomposition of the dense
    worker it replaced: same pivots, same operations, same transforms."""

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(2), PrimeField(3), PrimeField(5)],
                             ids=["z", "gf2", "gf3", "gf5"])
    def test_random_matrices(self, ring, monkeypatch):
        sweeps = []
        addmul = exact._Side.addmul

        def recording_addmul(side, i, j, c):
            if i < j:  # only the divisibility sweep adds a later line to the pivot line
                sweeps.append((i, j))
            addmul(side, i, j, c)

        monkeypatch.setattr(exact._Side, "addmul", recording_addmul)
        rng = random.Random(61)
        for k in range(200):
            m, n = rng.randint(0, 7), rng.randint(0, 7)
            if k % 2:
                rows = [[rng.choice(TORSION_ENTRIES) for _ in range(n)] for _ in range(m)]
            else:
                rows = [[rng.randint(-9, 9) if rng.random() < 0.4 else 0 for _ in range(n)]
                        for _ in range(m)]
            A = ExactMatrix.from_rows(ring, rows, cols=n)
            assert snf(A) == dense_snf(A)
        if ring is ZZ:
            assert len(sweeps) >= 10


class TestSmithAgainstDenseOracleAtBenchScale:
    """The oracle comparison on boundary matrices of the benchmark's size:
    d_1 and d_2 of the 60-point Rips cloud (865 simplices), and boundaries of
    random Moore-space wedges, whose torsion makes the divisibility sweep run."""

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(3)], ids=["z", "gf3"])
    def test_rips_cloud_boundaries(self, ring):
        K = rips_complex(random.Random(0), 60)
        assert len(K) == 865
        for d in (1, 2):
            A = ExactMatrix.from_rows(ring, K.boundary_matrix(d))
            assert snf(A) == dense_snf(A)

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(3)], ids=["z", "gf3"])
    def test_torsion_complex_boundaries(self, ring, monkeypatch):
        sweeps = []
        row_addmul = oracles._DenseWorker.row_addmul

        def recording_row_addmul(w, i, j, c):
            if i < j:  # only the divisibility sweep adds a lower row to the pivot row
                sweeps.append((i, j))
            row_addmul(w, i, j, c)

        monkeypatch.setattr(oracles._DenseWorker, "row_addmul", recording_row_addmul)
        rng = random.Random(1)
        for _ in range(3):
            K = random_torsion_complex(rng)
            for d in (1, 2):
                A = ExactMatrix.from_rows(ring, K.boundary_matrix(d))
                assert snf(A) == dense_snf(A)
        if ring is ZZ:
            assert sweeps


PARTIAL_KEEPS = (("P_inv", "Q"), ("P",), ())
TRANSFORMS = ("P", "P_inv", "Q", "Q_inv")


def bench_scale_boundaries(ring):
    """d_1 and d_2 of the 60-point Rips cloud and of three random Moore-space wedges."""
    complexes = [rips_complex(random.Random(0), 60)]
    rng = random.Random(1)
    complexes += [random_torsion_complex(rng) for _ in range(3)]
    return [ExactMatrix.from_rows(ring, K.boundary_matrix(d)) for K in complexes for d in (1, 2)]


class TestPartialSmithFormsAgainstDenseOracle:
    """`snf(A, keep)` for each `keep` the product asks for: D, rank, invariant
    factors and every kept transform equal the dense oracle's while the unkept
    transforms are still deferred, and each unkept one equals the oracle's once
    it is read."""

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(2), PrimeField(3)], ids=["z", "gf2", "gf3"])
    def test_bench_scale_boundaries(self, ring):
        for A in bench_scale_boundaries(ring):
            oracle = dense_snf(A)
            for keep in PARTIAL_KEEPS:
                s = snf(A, keep)
                unkept = [name for name in TRANSFORMS if name not in keep]
                assert (s.D, s.rank, s.invariant_factors) == \
                    (oracle.D, oracle.rank, oracle.invariant_factors)
                for name in keep:
                    assert getattr(s, name) == getattr(oracle, name), (keep, name)
                for name in unkept:
                    M = getattr(s, name)
                    assert isinstance(M, exact._DeferredTransform)
                    assert M._by_rows is None and M._by_cols is None, (keep, name)
                for name in unkept:
                    assert getattr(s, name) == getattr(oracle, name), (keep, name)

    def test_unknown_transform_is_refused(self):
        with pytest.raises(ValueError, match="R"):
            snf(mat([[1]]), ("P", "R"))


class TestDiophantine:
    def test_solvable_systems_by_substitution(self):
        rng = random.Random(37)
        for _ in range(200):
            A = rand_matrix(rng, max_side=5)
            x0 = [rng.randint(-4, 4) for _ in range(A.cols)]
            b = A.apply(x0)
            sol = solve(A, b)
            assert sol.solvable
            assert A.apply(sol.particular) == list(b)
            for z in sol.homogeneous_basis:
                assert all(v == 0 for v in A.apply(z))

    def test_unsolvable_has_certificate(self):
        sol = solve(mat([[2]]), [1])
        assert not sol.solvable and sol.certificate_row == 0
        sol = solve(mat([[1], [1]]), [1, 2])
        assert not sol.solvable

    def test_unsolvable_agrees_with_box_search(self):
        rng = random.Random(41)
        for _ in range(60):
            A = rand_matrix(rng, max_side=3, lo=-4, hi=4)
            if A.cols == 0 or A.cols > 3 or A.rows == 0:
                continue
            b = [rng.randint(-6, 6) for _ in range(A.rows)]
            sol = solve(A, b)
            if sol.solvable:
                assert A.apply(sol.particular) == b
            else:
                # unsolvable over Z stays unsolvable in any bounded box
                box = range(-12, 13)
                found = False
                vecs = [[v] for v in box] if A.cols == 1 else (
                    [[u, v] for u in box for v in box] if A.cols == 2 else
                    [[u, v, w] for u in box for v in box for w in box])
                for x in vecs:
                    if A.apply(x) == b:
                        found = True
                        break
                assert not found

    def test_kernel_is_saturated(self):
        ker = kernel(mat([[2, 4]]))
        assert len(ker) == 1
        v = dense(ker[0], 2)
        assert v in ([2, -1], [-2, 1])
        assert kernel(ExactMatrix.identity(ZZ, 3)) == []

    def test_kernel_spans_null_space(self):
        rng = random.Random(43)
        for _ in range(100):
            A = rand_matrix(rng, max_side=5)
            ker = [dense(z, A.cols) for z in kernel(A)]
            for z in ker:
                assert all(v == 0 for v in A.apply(z))
            S = snf(A)
            assert len(ker) == A.cols - S.rank

    @pytest.mark.parametrize("ring", [ZZ, PrimeField(2), PrimeField(3)], ids=["z", "gf2", "gf3"])
    def test_nested_kernels_every_prefix_against_smith(self, ring):
        """Each batch's basis spans the kernel of its row prefix: it is killed
        by the prefix, has cols - rank vectors (rank from a Smith form), and
        over Z is saturated (its own invariant factors are units)."""
        rng = random.Random(53)
        for _ in range(200):
            A = rand_matrix(rng, ring, max_side=7, lo=-4, hi=4)
            order = list(range(A.rows))
            rng.shuffle(order)
            ends = sorted(rng.randint(0, A.rows) for _ in range(rng.randint(1, 4)))
            batches = [order[a:b] for a, b in zip([0, *ends], ends)]
            for end, basis in zip(ends, nested_kernels(A, batches)):
                basis = [dense(z, A.cols) for z in basis]
                prefix = A.take_rows(order[:end])
                assert all(not any(prefix.apply(z)) for z in basis)
                assert len(basis) == A.cols - snf(prefix).rank
                if basis:
                    S = snf(mat([list(row) for row in zip(*basis)], ring))
                    assert S.rank == len(basis)
                    assert all(ring.is_unit(a) for a in S.invariant_factors)

    def test_field_solve(self):
        F = PrimeField(3)
        A = mat([[1, 2], [1, 1]], F)
        sol = solve(A, [F.of(1), F.of(1)])
        assert sol.solvable
        assert A.apply(sol.particular) == [1, 1]
        # dependent rows with inconsistent right-hand side
        assert not solve(mat([[1, 2], [2, 1]], F), [F.of(1), F.of(1)]).solvable
