"""Acceptance gate: one test per shipped guarantee, at the stated scale.

Criteria 1-6 pin the worked reference example (the bi-chromatic complex on
five vertices) to exact frozen values. Criteria 7-10 are randomized property
sweeps with fixed seeds and wall-clock budgets.
"""

import itertools
import random
import time

import pytest

from fshom.exact import ExactMatrix, PrimeField, ZZ, snf, solve
from fshom.fuzzyhomology import FuzzyHomologyContext
from fshom.homology import ReducedChainComplex
from fshom.lattice import FreeDistributiveLattice, enumerate_fdl, format_value
from fshom.simplicial import from_maximal
from oracles import brute_force_eta
from randgen import lattice_family, random_complex, random_fdl, random_mu

REFERENCE_MAXIMAL = [[0, 1], [0, 3], [1, 2, 3], [4]]


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds
        self.started = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.started
        assert elapsed < self.budget, f"budget {self.budget}s exceeded: {elapsed:.1f}s"


@pytest.fixture
def reference_ctx(reference_mu):
    return FuzzyHomologyContext(reference_mu, ZZ)


def free_class(ctx, d, k):
    ambient = ctx.reduced.ambient(d)
    vec = [0] * ambient.length
    vec[len(ambient.torsion) + k] = 1
    return ctx.reduced.class_from_vector(d, vec)


def test_criterion_01_reference_crisp_homology():
    watch = Stopwatch(1.0)
    R = ReducedChainComplex(from_maximal(REFERENCE_MAXIMAL), ZZ)
    h0 = R.homology(0)
    assert h0.structure.betti == 2 and h0.structure.torsion == ()
    assert [list(g) for g in h0.free_generators] == \
        [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    h1 = R.homology(1)
    assert h1.structure.betti == 1 and h1.structure.torsion == ()
    assert [list(g) for g in h1.free_generators] == [[1, -1, 0, 1, 0]]
    watch.check()


def test_criterion_02_reference_matrices_and_partitions():
    watch = Stopwatch(1.0)
    K = from_maximal(REFERENCE_MAXIMAL)
    assert K.boundary_matrix(1) == [
        [-1, -1, 0, 0, 0],
        [1, 0, -1, -1, 0],
        [0, 0, 1, 0, -1],
        [0, 1, 0, 1, 1],
        [0, 0, 0, 0, 0],
    ]
    assert K.boundary_matrix(2) == [[0], [0], [1], [-1], [1]]
    R = ReducedChainComplex(K, ZZ)
    for d in range(R.top + 1):
        assert (R.D[d] @ R.D[d + 1]).is_zero_matrix()
    assert R.partition[0].as_tuple() == (3, 0, 0, 2)
    assert R.partition[1].as_tuple() == (1, 0, 3, 1)
    watch.check()


def test_criterion_03_reference_eta_degree_one(reference_ctx):
    watch = Stopwatch(1.0)
    ctx = reference_ctx
    h = free_class(ctx, 1, 0)
    levels = ctx.eta_solvable_levels(1, h)
    assert sorted(format_value(v) for v in levels) == ["x", "x & y"]
    assert format_value(ctx.eta_value(1, h)) == "x"
    watch.check()


def test_criterion_04_reference_level_submodule_family(reference_ctx):
    watch = Stopwatch(1.0)
    ctx = reference_ctx
    L = ctx.lattice
    expected = {"x & y": "Z^2", "x": "Z", "y": "Z^2", "1": "0", "x | y": "0"}
    for text, desc in expected.items():
        assert ctx.hdl_submodule(0, L.parse(text)).structure.describe() == desc
    at_x = ctx.hdl_submodule(0, L.parse("x"))
    assert at_x.member((1, 0)) and not at_x.member((0, 1))
    watch.check()


def test_criterion_05_reference_cuts_and_strictness(reference_ctx):
    watch = Stopwatch(1.0)
    ctx = reference_ctx
    L = ctx.lattice
    expected = {"x & y": "Z^2", "x": "Z", "y": "Z^2", "x | y": "Z", "1": "0"}
    for text, desc in expected.items():
        assert ctx.eta_cut(0, L.parse(text)).structure.describe() == desc
    level = L.parse("x | y")
    hdl = ctx.hdl_submodule(0, level)
    cut0 = ctx.eta_cut(0, level)
    assert cut0.contains(hdl) and not hdl.contains(cut0)
    watch.check()


def test_criterion_06_reference_eta_degree_zero(reference_ctx):
    watch = Stopwatch(1.0)
    ctx = reference_ctx
    assert format_value(ctx.eta_value(0, free_class(ctx, 0, 0))) == "x | y"
    assert format_value(ctx.eta_value(0, free_class(ctx, 0, 1))) == "y"
    zero = ctx.reduced.class_from_vector(0, [0, 0])
    assert format_value(ctx.eta_value(0, zero)) == "1"
    watch.check()


def test_criterion_07_oracle_equivalence_over_gf2():
    watch = Stopwatch(300.0)
    rng = random.Random(70707)
    field = PrimeField(2)
    checked = 0
    for _ in range(200):
        K = random_complex(rng)
        lattice = random_fdl(rng)
        mu = random_mu(rng, K, lattice)
        ctx = FuzzyHomologyContext(mu, field)
        for d in range(ctx.reduced.top + 1):
            ambient = ctx.reduced.ambient(d)
            for k in range(ambient.free_rank):
                h = free_class(ctx, d, k)
                assert ctx.eta_value(d, h) == brute_force_eta(ctx, d, h)
                checked += 1
    assert checked >= 200
    watch.check()


def test_criterion_08_level_submodule_properties():
    watch = Stopwatch(120.0)
    rng = random.Random(80808)
    instances = 0
    while instances < 500:
        K = random_complex(rng)
        lattice = rng.choice(lattice_family())
        mu = random_mu(rng, K, lattice)
        ring = ZZ if instances % 2 else PrimeField(2)
        ctx = FuzzyHomologyContext(mu, ring)
        values = list(lattice.carrier())
        for _ in range(4):
            if instances >= 500:
                break
            d = rng.randint(0, ctx.reduced.top)
            l2 = rng.choice(values)
            l1 = l2 & rng.choice(values)
            S = [rng.choice(values) for _ in range(rng.randint(1, 3))]

            # cut monotonicity on the fuzzy complex itself
            c1, c2 = ctx.mu.cut(l1), ctx.mu.cut(l2)
            assert c2.is_subcomplex_of(c1)
            joined = ctx.mu.cut(lattice.join(S))
            inter = set(ctx.mu.cut(S[0]).all_simplices())
            for s in S[1:]:
                inter &= set(ctx.mu.cut(s).all_simplices())
            assert set(joined.all_simplices()) == inter

            # (i) closure under addition of members
            h1 = ctx.hdl_submodule(d, l1)
            if h1.generators:
                g = [a + b for a, b in zip(h1.generators[0], h1.generators[-1])]
                assert h1.member(g)
            # (ii) antitone in the level
            assert h1.contains(ctx.hdl_submodule(d, l2))
            # (iii) join level inside the intersection
            hj = ctx.hdl_submodule(d, lattice.join(S))
            hs = [ctx.hdl_submodule(d, s) for s in S]
            cap = hs[0]
            for other in hs[1:]:
                cap = cap.intersect(other)
            assert cap.contains(hj)
            # (iv) meet level contains the intersection
            hm = ctx.hdl_submodule(d, lattice.meet(S))
            assert hm.contains(cap)
            # (vi) level submodule sits inside the eta cut
            h2 = ctx.hdl_submodule(d, l2)
            assert ctx.eta_cut(d, l2).contains(h2)
            instances += 1
    watch.check()


def test_criterion_09_lattice_laws_and_fdl_oracle():
    watch = Stopwatch(60.0)
    rng = random.Random(90909)
    by_kind = {}
    for L in lattice_family():
        by_kind.setdefault(type(L).__name__, []).append(L)
    for lattices in by_kind.values():
        carriers = [(L, list(L.carrier())) for L in lattices]
        for _ in range(10000):
            L, values = carriers[rng.randrange(len(carriers))]
            a, b, c = (rng.choice(values) for _ in range(3))
            assert (a | a) == a and (a & a) == a
            assert (a | b) == (b | a) and (a & b) == (b & a)
            assert ((a | b) | c) == (a | (b | c))
            assert ((a & b) & c) == (a & (b & c))
            assert (a | (a & b)) == a and (a & (a | b)) == a
            assert (a & (b | c)) == ((a & b) | (a & c))
            assert (a | (b & c)) == ((a | b) & (a | c))
            leq = L.leq(a, b)
            assert leq == ((a | b) == b) == ((a & b) == a)

    # semantic oracle: order agrees with pointwise order of monotone functions
    for names in (("x",), ("x", "y"), ("x", "y", "z")):
        L = FreeDistributiveLattice(names)
        values = enumerate_fdl(names, lattice=L)
        assignments = [set(c) for r in range(len(names) + 1)
                       for c in itertools.combinations(names, r)]

        def ev(v, assign):
            return any(all(g in assign for g in term) for term in v.payload)

        for a in values:
            for b in values:
                oracle = all(ev(a, s) <= ev(b, s) for s in assignments)
                assert L.leq(a, b) == oracle
    watch.check()


def test_criterion_10_smith_normal_form_suite():
    watch = Stopwatch(120.0)
    rng = random.Random(101010)
    for case in range(1000):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        A = ExactMatrix.from_rows(
            ZZ, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        S = snf(A)
        assert S.P @ A @ S.Q == S.D
        assert S.P @ S.P_inv == ExactMatrix.identity(ZZ, m)
        assert S.Q @ S.Q_inv == ExactMatrix.identity(ZZ, n)
        d = S.invariant_factors
        assert all(d[i] > 0 and d[i + 1] % d[i] == 0 for i in range(len(d) - 1))

        if case % 4 == 0:
            x0 = [rng.randint(-5, 5) for _ in range(n)]
            b = A.apply(x0)
            sol = solve(A, b)
            assert sol.solvable and A.apply(sol.particular) == b

    # unsolvability agrees with exhaustive search over a bounded box
    disagreements = 0
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(1, 3)
        A = ExactMatrix.from_rows(
            ZZ, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        b = [rng.randint(-6, 6) for _ in range(m)]
        sol = solve(A, b)
        box = range(-15, 16)
        hit = any(A.apply(list(x)) == b
                  for x in itertools.product(box, repeat=n))
        if sol.solvable:
            assert A.apply(sol.particular) == b
        elif hit:
            disagreements += 1
    assert disagreements == 0
    watch.check()
