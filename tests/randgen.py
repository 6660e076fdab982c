"""Random fixture generators shared by the property and acceptance tests."""

import random
from itertools import combinations

from fshom.fuzzy import FuzzySubcomplex, ValueCoding, complete_values
from fshom.lattice import FreeDistributiveLattice, TotalOrder
from fshom.simplicial import SimplicialComplex
from oracles import carrier, enumerate_fdl


def random_complex(rng: random.Random, max_vertices: int = 7, max_dim: int = 3,
                   per_dim_cap: int = 12) -> SimplicialComplex:
    """A random non-empty complex with at most per_dim_cap simplices per dimension."""
    while True:
        nv = rng.randint(1, max_vertices)
        pool = list(range(nv))
        maximal = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, min(max_dim + 1, nv))
            maximal.append(rng.sample(pool, size))
        K = SimplicialComplex.from_maximal(maximal)
        if all(K.n(d) <= per_dim_cap for d in range(K.dim + 1)):
            return K


def rips_complex(rng: random.Random, n: int, side: int = 20, radius: int = 5,
                 max_dim: int = 2) -> SimplicialComplex:
    """Vietoris-Rips complex of n random integer points in [0, side]^2."""
    pts = [(rng.randint(0, side), rng.randint(0, side)) for _ in range(n)]
    near = {(i, j) for i, j in combinations(range(n), 2)
            if (pts[i][0] - pts[j][0]) ** 2 + (pts[i][1] - pts[j][1]) ** 2 <= radius * radius}
    cliques = [c for k in range(1, max_dim + 2) for c in combinations(range(n), k)
               if all(e in near for e in combinations(c, 2))]
    return SimplicialComplex.from_maximal(cliques)


def moore_space(k: int) -> list:
    """Maximal triangles of a 2-complex with H_1 = Z/k and H_2 = 0 (k >= 2).

    A disk is glued to the triangle 0-1-2 along a boundary that wraps k
    times around it: a ring of 3k vertices meets the triangle, and a cone
    point 3 + 3k closes the disk.
    """
    ring = [3 + i for i in range(3 * k)]
    cone = 3 + 3 * k
    triangles = []
    for i in range(3 * k):
        a, b = i % 3, (i + 1) % 3
        c, c_next = ring[i], ring[(i + 1) % (3 * k)]
        triangles += [[a, b, c], [b, c, c_next], [c, c_next, cone]]
    return triangles


def random_torsion_complex(rng: random.Random) -> SimplicialComplex:
    """One or two Moore spaces and a random complex, wedged at a vertex and
    randomly relabelled, so H_1 has torsion and the bases are scrambled."""
    pieces = [moore_space(rng.choice((2, 3, 4, 5, 6))) for _ in range(rng.randint(1, 2))]
    extra = random_complex(rng, max_dim=2)
    pieces.append([list(s.vertices) for s in extra.maximal_simplices()])
    maximal, offset = [], 0
    for piece in pieces:
        top = max(v for s in piece for v in s)
        # vertex 0 of every piece is the wedge point
        maximal += [[v + offset if v else 0 for v in s] for s in piece]
        offset += top
    labels = list(range(offset + 1))
    rng.shuffle(labels)
    return SimplicialComplex.from_maximal([[labels[v] for v in s] for s in maximal])


def random_fdl(rng: random.Random, max_generators: int = 3) -> FreeDistributiveLattice:
    names = ("x", "y", "z")[: rng.randint(1, max_generators)]
    return FreeDistributiveLattice(names)


def random_mu(rng: random.Random, K: SimplicialComplex, lattice,
              elements=None, allow_zero: bool = False) -> FuzzySubcomplex:
    """A random face-monotone assignment, non-zero everywhere unless allow_zero."""
    if elements is None:
        elements = list(carrier(lattice))
    if not allow_zero:
        elements = [v for v in elements if v != lattice.join(())]
    raw = {s: rng.choice(elements) for s in K.all_simplices()}
    return complete(K, lattice, raw)


def complete(K: SimplicialComplex, lattice, explicit) -> FuzzySubcomplex:
    """`complete_values` of a {simplex: value} assignment, coded by a new coding."""
    coding = ValueCoding(lattice)
    return complete_values(K, coding, {s: coding.code(v) for s, v in explicit.items()})


def random_value(rng: random.Random, elements):
    return rng.choice(list(elements))


def lattice_family():
    """One representative lattice per implemented kind, for law sweeps."""
    from fshom.lattice import Poset, UpSetLattice

    diamond = Poset(("a", "b", "c", "d"),
                    (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))
    chain = Poset(("p", "q", "r"), (("p", "q"), ("q", "r")))
    return [
        TotalOrder(("l0", "l1", "l2", "l3", "l4")),
        FreeDistributiveLattice(("x",)),
        FreeDistributiveLattice(("x", "y")),
        FreeDistributiveLattice(("x", "y", "z")),
        UpSetLattice(diamond),
        UpSetLattice(chain),
    ]


def fdl_elements(names) -> list:
    return list(enumerate_fdl(tuple(names)))
