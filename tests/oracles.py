"""Independent reference computations that the tests compare fshom against."""

import math
from fractions import Fraction
from itertools import combinations

from fshom.exact import ExactMatrix, SmithDecomposition, format_ring, snf
from fshom.fuzzy import FuzzyError, FuzzySubcomplex, Violation
from fshom.fuzzyhomology import NotComputableError
from fshom.lattice import (
    FreeDistributiveLattice, LatticeError, LatticeValue, TotalOrder, UpSetLattice, format_value,
    lattice_to_spec, parse_value,
)
from fshom.modules import ModuleStructure, SubmoduleOfHomology
from fshom.project import ProjectError
from fshom.simplicial import Simplex, SimplicialComplex

DEFAULT_BRUTE_FORCE_CAP = 1 << 20


def dense(column, n) -> list:
    """A sparse column {index: entry} as a dense list of length n."""
    out = [0] * n
    for i, x in column.items():
        out[i] = x
    return out


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _DenseWorker:
    """Mutable state for one Smith reduction.

    Row operations act on D and P (left) and on P_inv (right, inverted);
    column operations act on D and Q (right) and on Q_inv (left, inverted),
    so P @ A @ Q == D and the inverse pairs stay exact at every step.
    """

    def __init__(self, A: ExactMatrix):
        self.ring = A.ring
        self.m = A.rows
        self.n = A.cols
        self.D = [list(row) for row in A.data]
        self.P = _identity_rows(A.rows)
        self.Pi = _identity_rows(A.rows)
        self.Q = _identity_rows(A.cols)
        self.Qi = _identity_rows(A.cols)

    def row_swap(self, i, j):
        if i == j:
            return
        self.D[i], self.D[j] = self.D[j], self.D[i]
        self.P[i], self.P[j] = self.P[j], self.P[i]
        for row in self.Pi:
            row[i], row[j] = row[j], row[i]

    def col_swap(self, i, j):
        if i == j:
            return
        for row in self.D:
            row[i], row[j] = row[j], row[i]
        for row in self.Q:
            row[i], row[j] = row[j], row[i]
        self.Qi[i], self.Qi[j] = self.Qi[j], self.Qi[i]

    def row_addmul(self, i, j, c):
        """row_i += c * row_j (i != j, c canonical)."""
        if not c:
            return
        of = self.ring.of
        for mat in (self.D, self.P):
            ri = mat[i]
            for k, x in enumerate(mat[j]):
                if x:
                    ri[k] = of(ri[k] + c * x)
        # inverse update: column j -= c * column i
        for row in self.Pi:
            if row[i]:
                row[j] = of(row[j] - c * row[i])

    def col_addmul(self, j, k, c):
        """col_j += c * col_k (j != k, c canonical)."""
        if not c:
            return
        of = self.ring.of
        for mat in (self.D, self.Q):
            for row in mat:
                if row[k]:
                    row[j] = of(row[j] + c * row[k])
        # inverse update: row k -= c * row j
        rk = self.Qi[k]
        for t, x in enumerate(self.Qi[j]):
            if x:
                rk[t] = of(rk[t] - c * x)

    def row_scale(self, i, u):
        """row_i *= u for a unit u."""
        of = self.ring.of
        ui = self.ring.inv(u)
        self.D[i] = [of(u * x) for x in self.D[i]]
        self.P[i] = [of(u * x) for x in self.P[i]]
        for row in self.Pi:
            row[i] = of(ui * row[i])

    def find_pivot(self, t):
        """Smallest non-zero entry of D[t:, t:] by (|entry|, row, col).

        The row-major scan stops at the first entry of size 1: no non-zero
        entry is smaller, and every later entry comes after it in (row, col).
        """
        ring = self.ring
        best = None
        for i in range(t, self.m):
            row = self.D[i]
            for j in range(t, self.n):
                if row[j]:
                    size = ring.pivot_size(row[j])
                    if best is None or size < best[0]:
                        if size == 1:
                            return (i, j)
                        best = (size, i, j)
        return None if best is None else (best[1], best[2])


def dense_snf(A):
    """`exact.snf` on dense row-major lists: the same pivot rule and the same
    order of elementary operations, with every transform held as a dense
    square grid and every operation walking whole rows or columns."""
    ring = A.ring
    w = _DenseWorker(A)
    m, n = w.m, w.n
    t = 0
    while t < min(m, n):
        pos = w.find_pivot(t)
        if pos is None:
            break
        w.row_swap(t, pos[0])
        w.col_swap(t, pos[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if w.D[i][t]:
                    q = ring.quo(w.D[i][t], w.D[t][t])
                    w.row_addmul(i, t, ring.of(-q))
                    if w.D[i][t]:
                        # non-zero remainder is strictly smaller; make it the pivot
                        w.row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if w.D[t][j]:
                    q = ring.quo(w.D[t][j], w.D[t][t])
                    w.col_addmul(j, t, ring.of(-q))
                    if w.D[t][j]:
                        w.col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the rest of the submatrix for the chain
            # d_i | d_{i+1}; a unit divides everything
            if ring.is_unit(w.D[t][t]):
                break
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not ring.divides(w.D[t][t], w.D[i][j]):
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            w.row_addmul(t, bad, ring.of(1))
        u = ring.normalizer(w.D[t][t])
        if ring.of(u - 1):
            w.row_scale(t, u)
        t += 1
    return SmithDecomposition(
        ring=ring,
        P=ExactMatrix.from_rows(ring, w.P, cols=m),
        P_inv=ExactMatrix.from_rows(ring, w.Pi, cols=m),
        Q=ExactMatrix.from_rows(ring, w.Q, cols=n),
        Q_inv=ExactMatrix.from_rows(ring, w.Qi, cols=n),
        D=ExactMatrix.from_rows(ring, w.D, cols=n),
        rank=t,
        invariant_factors=tuple(w.D[i][i] for i in range(t)),
    )


class FullAmbientSubmodule:
    """A submodule read off one Smith form of its lifted matrix over the
    whole ambient: every generator, then a_i * e_i for every torsion
    coordinate, on every ambient row. No coordinate is split off. (`snf`
    itself is checked against `dense_snf` in tests/test_exact.py.)"""

    def __init__(self, S: SubmoduleOfHomology):
        ambient = S.ambient
        columns = [*S.generators, *({i: a} for i, a in enumerate(ambient.torsion))]
        self.ambient = ambient
        self.smith = snf(ExactMatrix(ambient.ring, ambient.length, len(columns),
                                     by_cols=columns), ("P",))

    def member(self, vec) -> bool:
        return self.smith.failing_row(vec)[0] is None

    def unit_members(self) -> list:
        """P e_i is column i of P, so e_i is a member exactly when column i
        passes the solvability test."""
        s = self.smith
        return [s.first_failure(c) is None for c in s.P.by_cols]

    def structure(self) -> ModuleStructure:
        """L / R for L the lattice of the lifted matrix and R the span of the
        relation vectors: each a_j e_j in the basis d_i * (P^-1 e_i) of L has
        coordinates a_j P[i][j] / d_i, and a second Smith form of those
        coordinates gives the betti number and the invariant factors."""
        ring, coeffs, s = self.ambient.ring, self.ambient.torsion, self.smith
        m, r = len(coeffs), s.rank
        rows = []
        for i in range(r):
            d = s.D.by_rows[i][i]
            rows.append({j: y for j, p in s.P.by_rows[i].items()
                         if j < m and (y := ring.exact_div(coeffs[j] * p, d))})
        for i in range(r, self.ambient.length):
            assert not any(j < m and ring.of(coeffs[j] * p) for j, p in s.P.by_rows[i].items())
        sy = snf(ExactMatrix(ring, r, m, by_rows=rows), ())
        return ModuleStructure(r - sy.rank, tuple(a for a in sy.invariant_factors
                                                  if not ring.is_unit(a)))


def enumerate_fdl(generators, lattice=None) -> list:
    """All elements of the free distributive lattice over the generators.

    The carrier is the set of antichains of generator subsets (a Dedekind
    number), so the generator count is capped at 4.
    """
    gens = tuple(str(g) for g in generators)
    if not 1 <= len(gens) <= 4:
        raise LatticeError(f"enumerate_fdl supports 1..4 generators, got {len(gens)}")
    if lattice is None:
        lattice = FreeDistributiveLattice(gens)
    subsets = []
    for k in range(len(gens) + 1):
        subsets.extend(frozenset(c) for c in combinations(gens, k))
    out = []
    for mask in range(1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        if any(a < b or b < a for a, b in combinations(family, 2)):
            continue
        out.append(LatticeValue(lattice, frozenset(family)))
    out.sort(key=lambda v: (len(v.payload), format_value(v)))
    return out


def carrier(lattice) -> list:
    """Every element of the lattice: a total order's levels in order, else
    sorted by (size, text). A free distributive lattice is enumerated by
    `enumerate_fdl` (at most 4 generators), an up-set lattice from the
    subsets of its poset (at most 16 elements)."""
    if isinstance(lattice, TotalOrder):
        return [LatticeValue(lattice, i) for i in range(len(lattice.levels))]
    if isinstance(lattice, FreeDistributiveLattice):
        return enumerate_fdl(lattice.generators, lattice=lattice)
    elements = lattice.poset.elements
    n = len(elements)
    if n > 16:
        raise LatticeError("up-set enumeration capped at 16 poset elements")
    out = []
    for mask in range(1 << n):
        try:
            out.append(lattice.value_from_set(elements[i] for i in range(n) if mask >> i & 1))
        except LatticeError:
            continue
    out.sort(key=lambda v: (len(v.payload), format_value(v)))
    return out


def simplex_values(ctx, d) -> list:
    """The value of each d-simplex of the context's complex, in basis order."""
    if not 0 <= d <= ctx.reduced.top:
        return []
    return [ctx.mu.value(s) for s in ctx.mu.complex.simplices(d)]


def kappa(ctx, d, chain):
    """Value of a dense chain: the meet of the values of the d-simplices at
    its non-zero coordinates."""
    values = simplex_values(ctx, d)
    if len(chain) != len(values):
        raise ValueError("chain length does not match the simplex basis")
    ring = ctx.ring
    return ctx.lattice.meet(v for c, v in zip(chain, values) if ring.of(c))


def pairwise_meet_closure(values, lattice) -> list:
    """The meet-closure of the non-zero values plus 1, in text order, by
    meeting every pair of closed values until no new value appears."""
    closed = {v for v in values if v != lattice.bottom} | {lattice.top}
    while True:
        fresh = {lattice.meet([a, b]) for a in closed for b in closed} - closed
        if not fresh:
            return sorted(closed, key=format_value)
        closed |= fresh


def delta_value_set(ctx, d) -> list:
    """The distinct values of the d-simplices, in text order."""
    return sorted(set(simplex_values(ctx, d)), key=format_value)


def cycle_of_class(R, d, coords) -> tuple:
    """A representative cycle of the class, in the simplex basis: the T and F
    columns of the reduction's `to_delta[d]` times the class coordinates."""
    _, T, _, F = R.blocks(d)
    chain = T.apply(list(coords.alpha))
    free_part = F.apply(list(coords.phi))
    return tuple(R.ring.of(a + b) for a, b in zip(chain, free_part))


def chain_boundary(R, d) -> ExactMatrix:
    """M_d, the boundary matrix of degree d (0..top + 1) over R's ring, from
    the complex's dense `boundary_matrix` rather than the sparse columns
    that the reduction builds."""
    return ExactMatrix.from_rows(R.ring, R.complex.boundary_matrix(d))


def rank_above(R, d) -> int:
    """r_{d+1}, the rank of D_{d+1}: the U and T blocks of degree d (0..top)."""
    p = R.partition[d]
    return p.n_U + p.n_T


def derived_diagonal(R, d) -> ExactMatrix:
    """D_d as the bases give it: from_delta[d-1] @ M_d @ to_delta[d] for
    0 < d <= top, and the zero ends M_0 (1 x n_0) and M_{top+1} (n_top x 1)."""
    M = chain_boundary(R, d)
    if d == 0 or d == R.top + 1:
        return M
    return R.from_delta[d - 1] @ M @ R.to_delta[d]


def block_diagonal(R, d) -> ExactMatrix:
    """D_d as `partition` and `torsion` predict it: entry (k, r_{d+1} + k) is
    1 for k < n_U(d-1), then the torsion coefficients of degree d - 1, and
    every other entry is zero. Same shape as `derived_diagonal`."""
    rows = R.complex.n(d - 1) if d else 1
    cols = R.complex.n(d) if d <= R.top else 1
    entries = (1,) * R.partition[d - 1].n_U + R.torsion[d - 1] if d else ()
    shift = rank_above(R, d) if d <= R.top else 0
    lines = [{shift + k: a} for k, a in enumerate(entries)]
    lines += [{} for _ in range(rows - len(entries))]
    return ExactMatrix(R.ring, rows, cols, by_rows=lines)


def composed_to_delta(R) -> list:
    """`to_delta` of each degree as the composition with no shortcut builds
    it: P_inv is the identity at the top, and every degree's basis is the
    first r_up columns of P_inv next to its other columns times the Smith
    form's Q, each product taken even where a factor is the identity."""
    P_inv = ExactMatrix.identity(R.ring, R.complex.n(R.top))
    r_up = 0
    out = [None] * (R.top + 1)
    for d in range(R.top, -1, -1):
        N = chain_boundary(R, d) @ P_inv
        s = snf(N.column_block(range(r_up, N.cols)), ("P_inv", "Q"))
        rest = P_inv.column_block(range(r_up, N.cols)) @ s.Q
        out[d] = P_inv.column_block(range(r_up)).hstack(rest)
        P_inv, r_up = s.P_inv, s.rank
    return out


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
    z = cycle_of_class(ctx.reduced, d, h)
    basis = [dense(column, U.rows) for column in U.by_cols]
    best = []
    coeffs = [0] * len(basis)
    ring = ctx.ring
    while True:
        b = list(z)
        for c, vec in zip(coeffs, basis):
            if c:
                for i, x in enumerate(vec):
                    b[i] = ring.of(b[i] + c * x)
        best.append(kappa(ctx, d, b))
        i = 0
        while i < len(coeffs) and coeffs[i] == p - 1:
            coeffs[i] = 0
            i += 1
        if i == len(coeffs):
            break
        coeffs[i] += 1
    return ctx.lattice.join(best)


def per_simplex_index_set(ctx, d, level) -> tuple:
    """0-based indices of the d-simplices whose value does not dominate the
    level, asked of the lattice simplex by simplex."""
    if not 0 <= d <= ctx.reduced.top:
        return ()
    leq, value = ctx.lattice.leq, ctx.mu.value
    return tuple(i for i, s in enumerate(ctx.mu.complex.simplices(d)) if not leq(level, value(s)))


def kernel_hdl_submodule(ctx, d, level):
    """H_d(level) level by level: the kernel of (U_d | T_d | F_d) restricted
    to the rows of the index set, from the columns of Q past the rank of its
    Smith form, read past the U block."""
    ambient = ctx.reduced.ambient(d)
    if not 0 <= d <= ctx.reduced.top:
        return SubmoduleOfHomology(ambient, [])
    iu, it, _, if_ = ctx.reduced.block_indices(d)
    restricted = ctx.reduced.to_delta[d].take_rows(per_simplex_index_set(ctx, d, level))
    G = restricted.column_block([*iu, *it, *if_])
    s = snf(G)
    return SubmoduleOfHomology(ambient, [dense(s.Q.by_cols[j], G.cols)[len(iu):]
                                         for j in range(s.rank, G.cols)])


def boundary_walk_closure_error(simplices):
    """The message naming the first face missing from a set of simplices, or
    None when it is face-closed: the simplices are grouped by dimension in the
    order the set iterates them, and each group is walked in sorted order,
    every simplex's `boundary()` in turn."""
    pool = set(simplices)
    by_dim = {}
    for s in pool:
        by_dim.setdefault(s.dim, []).append(s)
    for group in by_dim.values():
        for s in sorted(group):
            for _, face in s.boundary():
                if face not in pool:
                    return f"complex is not face-closed: missing {face!r} of {s!r}"
    return None


def facet_walk_violation(mu):
    """The message of the first (simplex, facet) pair, simplices in the
    complex's order and facets in `combinations` order, whose facet value
    does not dominate the simplex's, or None; values are compared by the
    lattice itself."""
    K, leq = mu.complex, mu.lattice.leq
    for d in range(1, K.dim + 1):
        for s in K.simplices(d):
            for face in map(K.get, combinations(s, d)):
                if not leq(mu.value(s), mu.value(face)):
                    return Violation(face, s, mu.value(face), mu.value(s)).message()
    return None


def walk_from_maximal(simplices) -> SimplicialComplex:
    """`SimplicialComplex.from_maximal` entry by entry: every entry is
    parsed by `Simplex`, which names the first bad one."""
    listed = list(simplices)
    if not listed:
        raise ValueError("at least one simplex is required")
    closure = set()
    for vs in listed:
        s = vs if isinstance(vs, Simplex) else Simplex(vs)
        for k in range(1, len(s) + 1):
            closure.update(combinations(s, k))
    return SimplicialComplex(map(Simplex._sorted, closure))


def walk_mu_entries(entries, complex, lattice) -> dict:
    """A project's mu entries as {simplex: value}, entry by entry; the first
    bad entry is the ProjectError that `fshom.project.load_project` raises."""
    explicit, parsed = {}, {}
    if not isinstance(entries, list):
        raise ProjectError("'mu' must be a list of {simplex, value} objects")
    for i, entry in enumerate(entries):
        if not (isinstance(entry, dict) and "simplex" in entry and "value" in entry):
            raise ProjectError(f"mu entry {i} must have 'simplex' and 'value'")
        vertices, text = entry["simplex"], entry["value"]
        try:
            s = Simplex(vertices)
        except (ValueError, TypeError) as e:
            raise ProjectError(f"mu entry {i}: {e}") from None
        if s not in complex:
            raise ProjectError(f"mu entry {i}: {s!r} is not in the complex")
        if s in explicit:
            raise ProjectError(f"mu entry {i}: duplicate value for {s!r}")
        if not isinstance(text, str):
            raise ProjectError(f"mu entry {i}: value must be a string")
        if text not in parsed:
            try:
                parsed[text] = parse_value(text, lattice)
            except LatticeError as e:
                raise ProjectError(f"mu entry {i}: {e}") from None
        explicit[s] = parsed[text]
    return explicit


def project_dict(mu, ring) -> dict:
    """The normal-form project of a fuzzy subcomplex as a dict, built entry
    by entry: its lattice spec, its maximal simplices, one mu entry per
    simplex in (dim, vertices) order and its ring."""
    K = mu.complex
    return {
        "lattice": lattice_to_spec(mu.lattice),
        "complex": {"maximal": [list(s) for s in K.maximal_simplices()]},
        "mu": [{"simplex": list(s), "value": format_value(mu.value(s))} for s in K.all_simplices()],
        "ring": format_ring(ring),
    }


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
            if set(s1) <= set(s2) and not lattice.leq(v2, v1)]


def fraction_number(x):
    """A coordinate as an exact number: an int as is, a finite float as the
    Fraction of its repr (0.3 is 3/10), and anything else as the Fraction of
    its value or text; no int fast path for text. Unreadable or non-finite
    input is the FuzzyError that `vietoris_rips` raises for it."""
    if isinstance(x, bool):
        raise FuzzyError("boolean is not a coordinate")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise FuzzyError("coordinates and radius must be finite")
        return Fraction(repr(x))
    try:
        return Fraction(x if isinstance(x, Fraction) else str(x))
    except (ValueError, ZeroDivisionError):
        raise FuzzyError(f"cannot read number {x!r}") from None


def pairwise_vietoris_rips(data, radius, max_dim):
    """Vietoris-Rips complex by testing every pair of points and extending
    every clique by every higher vertex, with exact squared distances of the
    `fraction_number` readings; each simplex's value is the meet of its
    vertex colours, taken simplex by simplex."""
    coords = [tuple(map(fraction_number, p)) for p in data.points]
    r = fraction_number(radius)
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


def pairwise_from_filtration(poset, stages):
    """The up-set valued subcomplex of a filtration given by maximal simplex
    lists: a complex per stage, monotonicity checked on every comparable pair
    in element order, and each simplex's value the set of stages that
    contain it, asked of every stage."""
    if not poset.elements:
        raise FuzzyError("empty poset")
    for p in poset.elements:
        if p not in stages:
            raise FuzzyError(f"no stage for poset element {p!r}")
    complexes = {p: SimplicialComplex.from_maximal(stages[p]) for p in poset.elements}
    for p in poset.elements:
        for q in poset.elements:
            if p != q and poset.leq(p, q) and not complexes[p].is_subcomplex_of(complexes[q]):
                raise FuzzyError(
                    f"filtration is not monotone: stage {p!r} is not contained in stage {q!r}")
    union = set()
    for K in complexes.values():
        union.update(K.all_simplices())
    K = SimplicialComplex(union)
    lattice = UpSetLattice(poset)
    values = {s: lattice.value_from_set(p for p in poset.elements if s in complexes[p])
              for s in K.all_simplices()}
    return FuzzySubcomplex(K, lattice, values)


def reference_atom(lattice, name):
    """The value of a name as each family resolved it on its own: the
    family's own names first, then the literals 0 and 1."""
    if isinstance(lattice, TotalOrder) and name in lattice.levels:
        return LatticeValue(lattice, lattice.levels.index(name))
    if isinstance(lattice, FreeDistributiveLattice) and name in lattice.generators:
        return LatticeValue(lattice, frozenset([frozenset([name])]))
    if isinstance(lattice, UpSetLattice) and name in lattice.poset.elements:
        return LatticeValue(lattice, lattice.poset.up(name))
    if name == "0":
        return lattice.bottom
    if name == "1":
        return lattice.top
    noun = {TotalOrder: "level", FreeDistributiveLattice: "generator",
            UpSetLattice: "poset element"}[type(lattice)]
    raise LatticeError(f"unknown {noun} {name!r}")


_SYMBOLS = ("&", "|", "(", ")", "{", "}", ",")


def reference_tokenize(text: str) -> list:
    """Lattice expression tokens, character by character: `str.isspace`
    separates, each symbol is a token, and so is each maximal run of other
    characters."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(ch)
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _SYMBOLS:
            j += 1
        tokens.append(text[i:j])
        i = j
    return tokens


class _ReferenceParser:
    """Recursive descent over the tokens: expr := term ("|" term)*,
    term := atom ("&" atom)*, atom := "(" expr ")" | "{" names "}" | name."""

    def __init__(self, tokens, lattice):
        self.tokens = tokens
        self.pos = 0
        self.lattice = lattice

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise LatticeError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise LatticeError(f"expected {tok!r}, got {got!r}")

    def expr(self):
        terms = [self.term()]
        while self.peek() == "|":
            self.next()
            terms.append(self.term())
        return self.lattice.join(terms) if len(terms) > 1 else terms[0]

    def term(self):
        atoms = [self.atom()]
        while self.peek() == "&":
            self.next()
            atoms.append(self.atom())
        return self.lattice.meet(atoms) if len(atoms) > 1 else atoms[0]

    def atom(self):
        tok = self.next()
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if tok == "{":
            if not isinstance(self.lattice, UpSetLattice):
                raise LatticeError("set syntax {..} is only valid in up-set lattices")
            names = []
            if self.peek() == "}":
                self.next()
                return self.lattice.bottom
            names.append(self.next())
            while self.peek() == ",":
                self.next()
                names.append(self.next())
            self.expect("}")
            return self.lattice.value_from_set(names)
        if tok in _SYMBOLS:
            raise LatticeError(f"unexpected {tok!r}")
        return reference_atom(self.lattice, tok)


def reference_parse_value(text, lattice):
    """A lattice expression's value by recursive descent over
    `reference_tokenize`, with `reference_atom` for names."""
    tokens = reference_tokenize(text)
    if not tokens:
        raise LatticeError("empty expression")
    p = _ReferenceParser(tokens, lattice)
    try:
        v = p.expr()
    except RecursionError:
        raise LatticeError("expression nested too deeply to parse") from None
    if p.peek() is not None:
        raise LatticeError(f"trailing input starting at {p.peek()!r}")
    return v
