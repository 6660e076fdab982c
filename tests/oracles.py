"""Independent reference computations that the tests compare fshom against."""

from itertools import combinations

from fshom.fuzzy import FuzzySubcomplex, Violation, _as_number
from fshom.fuzzyhomology import NotComputableError
from fshom.lattice import FreeDistributiveLattice
from fshom.simplicial import Simplex, SimplicialComplex

DEFAULT_BRUTE_FORCE_CAP = 1 << 20


def brute_force_eta(ctx, d, h, cap=DEFAULT_BRUTE_FORCE_CAP):
    """eta_d of the class: the join of kappa over every representative.

    Enumerates the whole boundary space of the context's reduction, so the
    coefficient ring must be a field with p^rank below the cap.
    """
    if not ctx.ring.is_field:
        raise NotComputableError("brute-force enumeration needs field coefficients")
    p = ctx.ring.p
    U, _, _, _ = ctx.reduced.blocks(d)
    if p ** U.cols > cap:
        raise NotComputableError(f"boundary space {p}^{U.cols} exceeds the cap {cap}")
    z = ctx.reduced.cycle_of_class(d, h)
    basis = [U.col(j) for j in range(U.cols)]
    best = []
    coeffs = [0] * len(basis)
    ring = ctx.ring
    while True:
        b = list(z)
        for c, vec in zip(coeffs, basis):
            if c:
                for i, x in enumerate(vec):
                    b[i] = ring.add(b[i], ring.mul(c, x))
        best.append(ctx.kappa(d, b))
        i = 0
        while i < len(coeffs) and coeffs[i] == p - 1:
            coeffs[i] = 0
            i += 1
        if i == len(coeffs):
            break
        coeffs[i] += 1
    return ctx.lattice.join(best)


def pairwise_complete_values(complex, lattice, explicit):
    """Each simplex's value is the join of the explicit values on every
    simplex that contains it, found by comparing every pair."""
    values = {}
    assigned = list(explicit.items())
    for s in complex.all_simplices():
        vertex_set = set(s.vertices)
        values[s] = lattice.join([v for t, v in assigned if vertex_set <= set(t.vertices)])
    return values


def pairwise_explicit_violations(explicit, lattice):
    """Every pair of explicit simplices, face before coface in (dim, vertices)
    order, where the face's value fails to dominate the coface's."""
    items = sorted(explicit.items(), key=lambda kv: (kv[0].dim, kv[0].vertices))
    return [Violation(s1, s2, v1, v2) for (s1, v1), (s2, v2) in combinations(items, 2)
            if s1 in s2 and not lattice.leq(v2, v1)]


def pairwise_vietoris_rips(data, radius, max_dim):
    """Vietoris-Rips complex by testing every pair of points and extending
    every clique by every higher vertex, with exact Fraction distances (or
    floats when any input is a float); each simplex's value is the meet of
    its vertex colours, taken simplex by simplex."""
    coords = [tuple(_as_number(x) for x in p) for p in data.points]
    r = _as_number(radius)
    use_float = isinstance(r, float) or any(isinstance(x, float) for p in coords for x in p)
    if use_float:
        coords = [tuple(float(x) for x in p) for p in coords]
        rr = float(r) ** 2
    else:
        rr = r * r
    n = len(coords)
    close = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d2 = sum((a - b) ** 2 for a, b in zip(coords[i], coords[j]))
            close[i][j] = close[j][i] = d2 <= rr
    simplices = [(i,) for i in range(n)]
    frontier = simplices
    for _ in range(max_dim):
        frontier = [clique + (v,) for clique in frontier for v in range(clique[-1] + 1, n)
                    if all(close[u][v] for u in clique)]
        simplices.extend(frontier)
    K = SimplicialComplex([Simplex(s) for s in simplices])
    lattice = FreeDistributiveLattice(data.palette())
    values = {s: lattice.meet([lattice.generator(str(data.labels[v])) for v in s.vertices])
              for s in K.all_simplices()}
    return K, FuzzySubcomplex(K, lattice, values)
