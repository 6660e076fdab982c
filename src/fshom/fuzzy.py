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
from collections import namedtuple
from functools import cache
from itertools import combinations, product, repeat, starmap
from operator import add, itemgetter, sub

from .lattice import CdlLattice, FreeDistributiveLattice, LatticeValue, Poset, UpSetLattice, format_value
from .simplicial import EMPTY_COMPLEX, Simplex, SimplicialComplex


class FuzzyError(ValueError):
    pass


class Violation(namedtuple("Violation", "face coface face_value coface_value")):
    """A face whose value fails to dominate one of its cofaces: face and
    coface (Simplex), face_value and coface_value (LatticeValue)."""

    __slots__ = ()

    def message(self) -> str:
        return (f"mu({self.face!r}) = {format_value(self.face_value)} does not dominate "
                f"mu({self.coface!r}) = {format_value(self.coface_value)}")


class ValueCoding:
    """Distinct values of one lattice, coded 0, 1, ... in order of first coding
    (`values[c]` has code c). `code(v)` checks a new value once against the
    lattice, its type before its hash, so a foreign or unhashable value is a
    LatticeError. `leq`, `join` and `meet` of two codes run the lattice's own
    method once per pair of codes; a new join or meet is coded."""

    def __init__(self, lattice: CdlLattice):
        self.lattice, self.values, self._code = lattice, [], {}
        vals, codes = self.values, self._code

        def code(v: LatticeValue) -> int:
            """The code of v, coding it first if it is new."""
            c = codes.get(v) if isinstance(v, LatticeValue) else None
            if c is None:
                lattice._check(v)
                c = codes[v] = len(vals)
                vals.append(v)
            return c
        # closures, not methods: a coding holds no reference cycle, so it is freed at once
        self.code = code
        self.leq = cache(lambda a, b: lattice.leq(vals[a], vals[b]))
        self.join = cache(lambda a, b: code(lattice.join([vals[a], vals[b]])))
        self.meet = cache(lambda a, b: code(lattice.meet([vals[a], vals[b]])))


class FuzzySubcomplex:
    """A total assignment of lattice values to a complex (`explicit_violations`
    of its items lists where it fails to be face-monotone). Simplex s holds
    `code(s)`, a code of `coding`, the `ValueCoding` of its distinct values;
    the coding may gain codes later (say, the meets of a `FuzzyHomologyContext`)."""

    def __init__(self, complex: SimplicialComplex, lattice: CdlLattice, values):
        missing = [s for s in complex.all_simplices() if s not in values]
        if missing:
            raise FuzzyError(f"missing values for {len(missing)} simplices, e.g. {missing[0]!r}")
        for s in values:
            if s not in complex:
                raise FuzzyError(f"value given for {s!r}, which is not in the complex")
        coding = ValueCoding(lattice)
        self.complex, self.lattice, self.coding = complex, lattice, coding
        self._code = {s: coding.code(values[s]) for s in complex.all_simplices()}

    @classmethod
    def _coded(cls, complex: SimplicialComplex, coding: ValueCoding, codes: dict) -> "FuzzySubcomplex":
        """The subcomplex that holds `codes`, {simplex: code} over the
        complex's simplices in its order, unchecked and not copied."""
        mu = object.__new__(cls)
        mu.complex, mu.lattice, mu.coding, mu._code = complex, coding.lattice, coding, codes
        return mu

    def code(self, s: Simplex) -> int:
        return self._code[s]

    def value(self, s: Simplex) -> LatticeValue:
        return self.coding.values[self._code[s]]

    def items(self):
        return ((s, self.coding.values[c]) for s, c in self._code.items())

    def cut(self, level: LatticeValue) -> SimplicialComplex:
        """The crisp subcomplex of simplices with value >= level."""
        self.lattice._check(level)
        above = [self.lattice.leq(level, v) for v in self.coding.values]
        keep = [s for s, c in self._code.items() if above[c]]
        return SimplicialComplex(keep) if keep else EMPTY_COMPLEX

    def support(self) -> SimplicialComplex:
        """Simplices with non-zero value (always a crisp subcomplex)."""
        nonzero = [v != self.lattice.bottom for v in self.coding.values]
        keep = [s for s, c in self._code.items() if nonzero[c]]
        return SimplicialComplex(keep) if keep else EMPTY_COMPLEX

    def restrict_to_support(self) -> "FuzzySubcomplex":
        # without a code for 0, no simplex has the value 0
        if not self.complex.is_empty and self.lattice.bottom not in self.coding._code:
            return self
        sup = self.support()
        if sup.is_empty:
            raise FuzzyError("support is empty: every simplex has value 0")
        code = self._code
        return FuzzySubcomplex._coded(sup, self.coding, {s: code[s] for s in sup.all_simplices()})

    def __eq__(self, other):
        return (isinstance(other, FuzzySubcomplex)
                and self.complex == other.complex
                and self.lattice == other.lattice
                and list(self.items()) == list(other.items()))

    def __repr__(self):
        return f"FuzzySubcomplex({self.complex!r} over {self.lattice!r})"


def complete_values(complex: SimplicialComplex, coding: ValueCoding, explicit) -> FuzzySubcomplex:
    """The fuzzy subcomplex that extends a partial assignment to all simplices.

    `explicit` maps simplices of the complex (or tuples equal to them; the
    result keeps the complex's own simplices) to codes of `coding`, which
    becomes the subcomplex's coding. Each simplex receives the join of every
    explicit value on itself and its cofaces. This is the least face-monotone
    assignment dominating the explicit one, so values may be given on maximal
    simplices only; a simplex with no assigned coface gets 0, which is coded
    only when some simplex has no explicit value. Values are joined as codes,
    each pair of distinct values once.

    Values are joined into facets from the top dimension down. Each
    dimension first collects its distinct (coface code, facet code) pairs in
    C-level passes: when every pair is ordered, as in every exported
    project, no facet of that dimension changes and its facet loop is
    skipped; otherwise the loop runs over every (simplex, facet) pair.

    >>> L, K = FreeDistributiveLattice(("x", "y")), SimplicialComplex.from_maximal([[0, 1], [2]])
    >>> coding = ValueCoding(L)
    >>> x, y = coding.code(L.parse("x")), coding.code(L.parse("y"))
    >>> mu = complete_values(K, coding, {Simplex((0, 1)): x, Simplex((1,)): y})
    >>> [format_value(mu.value(Simplex((v,)))) for v in (0, 1, 2)]
    ['x', 'x | y', '0']
    """
    bottom = coding.code(coding.lattice.bottom) if len(explicit) < len(complex) else None
    codes = dict.fromkeys(complex.all_simplices(), bottom)
    codes.update(explicit)
    # a key outside the complex grows the dict; only then are the keys walked to name it
    if len(codes) != len(complex):
        for s in explicit:
            if s not in complex:
                raise FuzzyError(f"value given for {s!r}, which is not in the complex")
    # every coface reaches a simplex through a chain of facets, so joining
    # each value into its facets from the top dimension down covers them all;
    # a value already below the facet's leaves it unchanged, so it is skipped,
    # and a dimension whose distinct (coface, facet) code pairs all pass
    # leaves every facet unchanged
    get = codes.__getitem__
    for d in range(complex.dim, 0, -1):
        group = complex.simplices(d)
        cofaces, pairs = [*map(get, group)], set()
        for j in range(d + 1):
            # the facets without vertex j, as tuples (one index gives a bare vertex)
            rest = [*range(j), *range(j + 1, d + 1)]
            facets = map(itemgetter(*rest), group) if d > 1 else zip(map(itemgetter(*rest), group))
            pairs.update(zip(cofaces, map(get, facets)))
        if all(starmap(coding.leq, pairs)):
            continue
        for s in group:
            c = codes[s]
            for face in combinations(s, d):
                f = codes[face]
                if not coding.leq(c, f):
                    codes[face] = coding.join(f, c)
    return FuzzySubcomplex._coded(complex, coding, codes)


def explicit_violations(explicit, lattice: CdlLattice) -> list:
    """Monotonicity failures among explicitly assigned simplices only.

    `explicit` maps simplices, or the sorted vertex tuples equal to them, to
    values; each violation holds `Simplex` objects either way. Ordered by
    (face, coface), each in (dim, vertices) order. Values are compared as
    codes of one `ValueCoding`, each pair of them once.
    """
    coding = ValueCoding(lattice)
    codes = {s: coding.code(v) for s, v in explicit.items()}
    out = []
    for s2, c2 in codes.items():
        for k in range(1, len(s2)):
            for face in combinations(s2, k):
                c1 = codes.get(face)
                if c1 is not None and not coding.leq(c2, c1):
                    out.append(Violation(Simplex._sorted(face), Simplex._sorted(s2),
                                         coding.values[c1], coding.values[c2]))
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
    color = {}
    for (v,) in K.simplices(0):
        if v not in labels:
            raise FuzzyError(f"vertex {v} has no label")
        color[v] = str(labels[v])
        if color[v] not in gen:
            raise FuzzyError(f"label {color[v]!r} of vertex {v} is outside the palette")
    coding = ValueCoding(lattice)
    # a simplex's value depends only on its set of colours
    meet = cache(lambda key: coding.code(lattice.meet(gen[c] for c in sorted(key))))
    return FuzzySubcomplex._coded(
        K, coding, {s: meet(frozenset(map(color.__getitem__, s))) for s in K.all_simplices()})


class ChromaticDataset(namedtuple("ChromaticDataset", "points labels")):
    """A labeled point cloud: points (a tuple of coordinate tuples, all of
    one length) and labels (a tuple holding one color per point). `_replace`
    builds through `_make`, so it checks them too."""

    __slots__ = ()

    def __new__(cls, points, labels):
        if len(points) != len(labels):
            raise FuzzyError("points and labels must have equal length")
        if len({len(p) for p in points}) > 1:
            raise FuzzyError("points have mixed dimensions")
        return super().__new__(cls, points, labels)

    _make = classmethod(lambda cls, fields: cls(*fields))

    def palette(self) -> list:
        return sorted(set(str(c) for c in self.labels))


def _as_number(x):
    """An int as is, text without "_" that `int()` reads as that int (which
    `Fraction` reads as the same integer), a finite float as the exact
    `Fraction` of its `repr`, the shortest decimal that reads back as that
    float (so 0.3 is 3/10, as the text "0.3" is), and any other value as an
    exact `Fraction` of its text ("5/1", "0.5", "1_0"; `Fraction` reads "_"
    from Python 3.11 on); `fractions` is imported only for the last two."""
    if isinstance(x, bool):
        raise FuzzyError("boolean is not a coordinate")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise FuzzyError("coordinates and radius must be finite")
        x = repr(float(x))
    elif isinstance(x, str) and "_" not in x:
        try:
            return int(x)
        except ValueError:
            pass
    from fractions import Fraction
    try:
        return Fraction(x if isinstance(x, Fraction) else str(x))
    except (ValueError, ZeroDivisionError):
        raise FuzzyError(f"cannot read number {x!r}") from None


def vietoris_rips(data: ChromaticDataset, radius, max_dim: int):
    """Vietoris-Rips complex of the points with chromatic fuzzy values.

    Edges use the closed threshold: distance(i, j) <= radius. Every
    coordinate and the radius are read as exact rationals by one rule
    (`_as_number`: a float is the decimal of its `repr`, and a non-finite
    float is refused), then scaled by the least common denominator of them
    all, so each squared distance is compared with r^2 in `int` arithmetic;
    scaling by a positive constant keeps every comparison.

    Neighbours are found on a uniform grid of side r (1 when r = 0) over the
    first min(2, dim) coordinates: a point's cell key is the integer floor
    of each such coordinate divided by the side, and a pair is tested only
    when its cells differ by at most one on every axis. Each unordered pair
    of adjacent cells is visited once (the offsets after the zero offset in
    lexicographic order), and so is each pair inside a cell. A pair that
    passes the test has a gap of at most r on each grid axis (a gap above r
    alone squares past r^2), so its cells are adjacent.
    Cliques then grow in increasing vertex order from each vertex's sorted
    list of higher neighbours, keeping only the candidates adjacent to the
    vertex just added (Zomorodian, "Fast construction of the Vietoris-Rips
    complex", 2010). The work is the pairs in adjacent cells plus the
    cliques emitted, not all pairs of points: at a fixed density, a bounded
    number of pairs per point.
    """
    if max_dim < 0:
        raise FuzzyError("max_dim must be >= 0")
    coords = [tuple(map(_as_number, p)) for p in data.points]
    r = _as_number(radius)
    if r < 0:
        raise FuzzyError("radius must be >= 0")
    scale = math.lcm(r.denominator, *(x.denominator for p in coords for x in p))
    coords = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in coords]
    r = r.numerator * (scale // r.denominator)
    rr, side = r * r, r or 1
    axes = min(2, len(coords[0]) if coords else 0)
    keys = [tuple(x // side for x in p[:axes]) for p in coords]
    n = len(coords)
    cells = {}
    for i, key in enumerate(keys):
        cells.setdefault(key, []).append(i)
    offsets = [*product((-1, 0, 1), repeat=axes)][3 ** axes // 2 + 1:]
    up = [[] for _ in range(n)]  # neighbours with a higher index
    for key, here in cells.items():
        pairs = [*combinations(here, 2)]
        for offset in offsets:
            there = cells.get(tuple(map(add, key, offset)))
            if there:
                pairs += product(here, there)
        for i, j in pairs:
            if sum(map(pow, map(sub, coords[i], coords[j]), repeat(2))) <= rr:
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

    Each stage is a `SimplicialComplex` or its face set: a face-closed set of
    strictly increasing tuples of non-negative int vertex ids (taken as is,
    as `fshom.project.load_project` builds them). Stages must be monotone:
    p <= q implies stage p is contained in stage q. The order is the
    reflexive-transitive closure of the covers, so inclusion along every
    cover gives it for every comparable pair, and only the covers are
    checked; when one fails, the comparable pairs are scanned in element
    order, so the error names the first failing (p, q).

    The value of a simplex is the up-set of stages containing it, so cutting
    at a principal filter recovers the stage exactly. It is the union of the
    principal filters of the stages where the simplex is new, in none of the
    stages that the covers put directly below, so each stage is compared with
    its lower covers once and no stage is asked about every simplex.
    """
    if not poset.elements:
        raise FuzzyError("empty poset")
    faces = {}
    for p in poset.elements:
        if p not in stages:
            raise FuzzyError(f"no stage for poset element {p!r}")
        stage = stages[p]
        faces[p] = frozenset(stage.all_simplices()) if isinstance(stage, SimplicialComplex) else stage
    lower = {p: [] for p in poset.elements}
    for a, b in poset.covers:
        lower[b].append(faces[a])
        if not faces[a] <= faces[b]:
            for p in poset.elements:
                for q in poset.elements:
                    if p != q and poset.leq(p, q) and not faces[p] <= faces[q]:
                        raise FuzzyError(
                            f"filtration is not monotone: stage {p!r} is not contained in stage {q!r}")
    new_at = {}  # simplex -> the stages where it is new (the minimal stages containing it)
    for p in poset.elements:
        for s in faces[p].difference(*lower[p]):
            new_at.setdefault(s, []).append(p)
    if not new_at:
        raise FuzzyError("all stages are empty")
    K = SimplicialComplex(map(Simplex._sorted, new_at))
    lattice = UpSetLattice(poset)
    coding = ValueCoding(lattice)
    upset = cache(lambda minimal: coding.code(
        LatticeValue(lattice, frozenset().union(*map(poset.up, minimal)))))
    return FuzzySubcomplex._coded(K, coding, {s: upset(tuple(new_at[s])) for s in K.all_simplices()})
