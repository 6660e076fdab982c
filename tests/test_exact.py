"""Exact linear algebra: rings, Smith normal form, Diophantine systems."""

import random
import time

import pytest

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


def mat(rows, ring=ZZ):
    return ExactMatrix.from_rows(ring, rows)


def rand_matrix(rng, ring=ZZ, max_side=6, lo=-9, hi=9):
    m = rng.randint(0, max_side)
    n = rng.randint(0, max_side)
    if m == 0:
        return ExactMatrix.zeros(ring, 0, n)
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
            assert F.mul(a, F.inv(a)) == 1

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
        assert all(not ring.is_zero(x) for x in d[:S.rank])
        assert all(ring.is_zero(x) for x in d[S.rank:])
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
        assert self.check(ExactMatrix.zeros(ZZ, 0, 3)).rank == 0
        assert self.check(ExactMatrix.zeros(ZZ, 3, 0)).rank == 0

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
        v = ker[0]
        assert list(v) in ([2, -1], [-2, 1])
        assert kernel(ExactMatrix.identity(ZZ, 3)) == []

    def test_kernel_spans_null_space(self):
        rng = random.Random(43)
        for _ in range(100):
            A = rand_matrix(rng, max_side=5)
            ker = kernel(A)
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
