"""Lattice-valued fuzzy subcomplexes.

A fuzzy subcomplex assigns every simplex a lattice value so that faces carry
values at least as large as their cofaces. Cuts at a level are crisp
subcomplexes; the support collects everything with non-zero value. Builders
cover the chromatic construction from labeled vertices, Vietoris-Rips
ingestion of labeled point clouds, and the import of poset-indexed
filtrations as up-set valued subcomplexes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattice import CdlLattice, LatticeValue, Poset, UpSetLattice, FreeDistributiveLattice
from .simplicial import EMPTY_COMPLEX, Simplex, SimplicialComplex


class FuzzyError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    """A face whose value fails to dominate one of its cofaces."""

    face: Simplex
    coface: Simplex
    face_value: LatticeValue
    coface_value: LatticeValue

    def message(self) -> str:
        from .lattice import format_value
        return (f"mu({self.face!r}) = {format_value(self.face_value)} does not dominate "
                f"mu({self.coface!r}) = {format_value(self.coface_value)}")


class FuzzySubcomplex:
    """A total, face-monotone assignment of lattice values to a complex."""

    def __init__(self, complex: SimplicialComplex, lattice: CdlLattice, values):
        missing = [s for s in complex.all_simplices() if s not in values]
        if missing:
            raise FuzzyError(f"missing values for {len(missing)} simplices, e.g. {missing[0]!r}")
        for s, v in values.items():
            if s not in complex:
                raise FuzzyError(f"value given for {s!r}, which is not in the complex")
            lattice._check(v)
        self.complex = complex
        self.lattice = lattice
        self._values = dict(values)

    def value(self, s: Simplex) -> LatticeValue:
        return self._values[s]

    def items(self):
        for s in self.complex.all_simplices():
            yield s, self._values[s]

    def validate(self) -> list:
        """Violating codimension-1 (face, coface) pairs; empty means valid."""
        out = []
        for d in range(1, self.complex.dim + 1):
            for s in self.complex.simplices(d):
                sv = self._values[s]
                for _, face in s.boundary():
                    fv = self._values[face]
                    if not self.lattice.leq(sv, fv):
                        out.append(Violation(face, s, fv, sv))
        return out

    def cut(self, level: LatticeValue) -> SimplicialComplex:
        """The crisp subcomplex of simplices with value >= level."""
        self.lattice._check(level)
        keep = [s for s, v in self.items() if self.lattice.leq(level, v)]
        return SimplicialComplex(keep) if keep else EMPTY_COMPLEX

    def support(self) -> SimplicialComplex:
        """Simplices with non-zero value (always a crisp subcomplex)."""
        bottom = self.lattice.bottom
        keep = [s for s, v in self.items() if v != bottom]
        return SimplicialComplex(keep) if keep else EMPTY_COMPLEX

    def core(self) -> SimplicialComplex:
        return self.cut(self.lattice.top)

    def restrict_to_support(self) -> "FuzzySubcomplex":
        if not self.complex.is_empty and self.lattice.bottom not in self._values.values():
            return self
        sup = self.support()
        if sup.is_empty:
            raise FuzzyError("support is empty: every simplex has value 0")
        return FuzzySubcomplex(sup, self.lattice,
                               {s: self._values[s] for s in sup.all_simplices()})

    def __eq__(self, other):
        return (isinstance(other, FuzzySubcomplex)
                and self.complex == other.complex
                and self.lattice == other.lattice
                and self._values == other._values)

    def __repr__(self):
        return f"FuzzySubcomplex({self.complex!r} over {self.lattice!r})"


def complete_values(complex: SimplicialComplex, lattice: CdlLattice, explicit) -> dict:
    """Extend a partial assignment to all simplices.

    Each simplex receives the join of every explicit value on itself and its
    cofaces. This is the least face-monotone assignment dominating the
    explicit one, so values may be given on maximal simplices only; a simplex
    with no assigned coface gets 0.
    """
    for s, v in explicit.items():
        if s not in complex:
            raise FuzzyError(f"value given for {s!r}, which is not in the complex")
        lattice._check(v)
    values = {s: explicit.get(s, lattice.bottom) for s in complex.all_simplices()}
    # every coface reaches a simplex through a chain of facets, so joining
    # each value into its facets from the top dimension down covers them all
    for d in range(complex.dim, 0, -1):
        for s in complex.simplices(d):
            for _, face in s.boundary():
                values[face] = lattice.join([values[face], values[s]])
    return values


def explicit_violations(explicit, lattice: CdlLattice) -> list:
    """Monotonicity failures among explicitly assigned simplices only.

    Ordered by (face, coface), each in (dim, vertices) order.
    """
    out = []
    for s2, v2 in explicit.items():
        for s1 in s2.faces():
            if s1 != s2 and s1 in explicit and not lattice.leq(v2, explicit[s1]):
                out.append(Violation(s1, s2, explicit[s1], v2))
    out.sort(key=lambda v: (v.face.dim, v.face.vertices, v.coface.dim, v.coface.vertices))
    return out


def chromatic(K: SimplicialComplex, labels, palette) -> FuzzySubcomplex:
    """Fuzzy subcomplex over the free distributive lattice of colors.

    Each vertex gets its color generator; every higher simplex gets the meet
    of its vertex colors.
    """
    palette = [str(c) for c in palette]
    lattice = FreeDistributiveLattice(palette)
    gen = {c: lattice.generator(c) for c in palette}
    values = {}
    meets = {}  # a simplex's value depends only on its set of colours
    for s in K.all_simplices():
        colors = set()
        for v in s.vertices:
            if v not in labels:
                raise FuzzyError(f"vertex {v} has no label")
            color = str(labels[v])
            if color not in gen:
                raise FuzzyError(f"label {color!r} of vertex {v} is outside the palette")
            colors.add(color)
        key = frozenset(colors)
        if key not in meets:
            meets[key] = lattice.meet(gen[c] for c in sorted(key))
        values[s] = meets[key]
    return FuzzySubcomplex(K, lattice, values)


@dataclass(frozen=True)
class ChromaticDataset:
    """A labeled point cloud: coordinate vectors plus one color per point."""

    points: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.points) != len(self.labels):
            raise FuzzyError("points and labels must have equal length")
        dims = {len(p) for p in self.points}
        if len(dims) > 1:
            raise FuzzyError("points have mixed dimensions")

    def palette(self) -> list:
        return sorted(set(str(c) for c in self.labels))


def _as_number(x):
    """Exact rational when possible, float otherwise."""
    if isinstance(x, bool):
        raise FuzzyError("boolean is not a coordinate")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return x
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise FuzzyError(f"cannot read number {x!r}") from None


def vietoris_rips(data: ChromaticDataset, radius, max_dim: int):
    """Vietoris-Rips complex of the points with chromatic fuzzy values.

    Edges use the closed threshold: distance(i, j) <= radius. Comparisons
    are exact over rationals; if any input is a float the whole computation
    drops to floats with exact (epsilon 0) comparison, and a non-finite
    float is refused.

    On the rational path every coordinate and the radius are scaled by the
    least common denominator of them all, so each squared distance is
    compared with r^2 in `int` arithmetic; scaling by a positive constant
    keeps every comparison. The float path keeps the formula
    sum((a - b) ** 2) in coordinate order.

    Neighbours are found by a sweep over the points sorted by their first
    coordinate: the scan from a point stops at the first later point whose
    squared first-coordinate gap exceeds r^2, since every point after it is
    at least as far along that axis. The stop is exact on the float path
    too: a rounded sum of non-negative terms is at least each of its terms,
    and rounding is monotone, so the rounded squared distance is at least
    the rounded squared gap. Cliques then grow in increasing vertex order
    from each vertex's sorted list of higher neighbours, keeping only the
    candidates adjacent to the vertex just added (Zomorodian, "Fast
    construction of the Vietoris-Rips complex", 2010). The work is the
    neighbour pairs the sweep visits plus the cliques it emits, not all
    pairs of points.
    """
    if max_dim < 0:
        raise FuzzyError("max_dim must be >= 0")
    coords = [tuple(_as_number(x) for x in p) for p in data.points]
    r = _as_number(radius)
    if r < 0:
        raise FuzzyError("radius must be >= 0")
    use_float = isinstance(r, float) or any(
        isinstance(x, float) for p in coords for x in p)
    if use_float:
        coords = [tuple(float(x) for x in p) for p in coords]
        r = float(r)
        if not (math.isfinite(r) and all(math.isfinite(x) for p in coords for x in p)):
            raise FuzzyError("coordinates and radius must be finite")
        rr = r ** 2
    else:
        scale = math.lcm(r.denominator, *(x.denominator for p in coords for x in p))
        coords = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in coords]
        r = r.numerator * (scale // r.denominator)
        rr = r * r
    n = len(coords)
    first = [p[0] if p else 0 for p in coords]
    order = sorted(range(n), key=first.__getitem__)
    up = [[] for _ in range(n)]  # neighbours with a higher index
    for a, i in enumerate(order):
        ci, fi = coords[i], first[i]
        for b in range(a + 1, n):
            j = order[b]
            if (first[j] - fi) ** 2 > rr:
                break
            if sum((x - y) ** 2 for x, y in zip(ci, coords[j])) <= rr:
                up[min(i, j)].append(max(i, j))
    adjacent = [set(u) for u in up]
    frontier = [((i,), sorted(u)) for i, u in enumerate(up)]
    cliques = [c for c, _ in frontier]
    for _ in range(max_dim):
        # each candidate list holds the common higher neighbours of the clique
        frontier = [(c + (v,), [w for w in cands[k + 1:] if w in adjacent[v]])
                    for c, cands in frontier for k, v in enumerate(cands)]
        if not frontier:
            break
        cliques.extend(c for c, _ in frontier)
    K = SimplicialComplex(map(Simplex._sorted, cliques))
    labels = {i: str(data.labels[i]) for i in range(n)}
    return K, chromatic(K, labels, data.palette())


def from_filtration(poset: Poset, stages) -> FuzzySubcomplex:
    """Encode a poset-indexed filtration as an up-set valued subcomplex.

    Requires stages to be monotone: p <= q implies stages[p] is a subcomplex
    of stages[q]. The value of a simplex is the up-set of stages containing
    it, so cutting at a principal filter recovers the stage exactly.
    """
    if not poset.elements:
        raise FuzzyError("empty poset")
    for p in poset.elements:
        if p not in stages:
            raise FuzzyError(f"no stage for poset element {p!r}")
    for p in poset.elements:
        for q in poset.elements:
            if p != q and poset.leq(p, q):
                if not stages[p].is_subcomplex_of(stages[q]):
                    raise FuzzyError(
                        f"filtration is not monotone: stage {p!r} is not contained in stage {q!r}")
    lattice = UpSetLattice(poset)
    union = set()
    for p in poset.elements:
        union.update(stages[p].all_simplices())
    if not union:
        raise FuzzyError("all stages are empty")
    K = SimplicialComplex(union)
    values = {}
    for s in K.all_simplices():
        members = frozenset(p for p in poset.elements if s in stages[p])
        values[s] = lattice.value_from_set(members)
    return FuzzySubcomplex(K, lattice, values)
