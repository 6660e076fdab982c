"""Finite abstract simplicial complexes with oriented boundary matrices.

Simplices are stored with strictly increasing vertex ids, which fixes the
positive orientation. Within each dimension d the simplices are sorted
lexicographically; their positions define the chain basis used by every
boundary matrix, so results are reproducible across runs.
"""

from __future__ import annotations

from itertools import combinations


class Simplex:
    """A simplex as a strictly increasing tuple of vertex ids."""

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(int(v) for v in vertices)
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        if any(v < 0 for v in vs):
            raise ValueError("vertex ids must be non-negative")
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate vertices in {vs}")
        object.__setattr__(self, "vertices", tuple(sorted(vs)))

    def __setattr__(self, name, value):
        raise AttributeError("Simplex is immutable")

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def faces(self) -> list:
        """All non-empty subsimplices, including the simplex itself."""
        out = []
        for k in range(1, len(self.vertices) + 1):
            out.extend(Simplex(c) for c in combinations(self.vertices, k))
        return out

    def boundary(self) -> list:
        """Signed codimension-1 faces: (sign, face) with alternating signs."""
        if self.dim == 0:
            return []
        out = []
        for j in range(len(self.vertices)):
            face = self.vertices[:j] + self.vertices[j + 1:]
            out.append((-1 if j % 2 else 1, Simplex(face)))
        return out

    def __contains__(self, other: "Simplex") -> bool:
        return set(other.vertices) <= set(self.vertices)

    def __eq__(self, other):
        return isinstance(other, Simplex) and self.vertices == other.vertices

    def __lt__(self, other):
        return self.vertices < other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "<" + ",".join(str(v) for v in self.vertices) + ">"


class SimplicialComplex:
    """A face-closed set of simplices with lexicographic per-dimension bases."""

    __slots__ = ("_by_dim", "_index", "_all")

    def __init__(self, simplices):
        pool = set(simplices)
        for s in pool:
            if not isinstance(s, Simplex):
                raise TypeError(f"not a Simplex: {s!r}")
        by_dim = {}
        for s in pool:
            by_dim.setdefault(s.dim, []).append(s)
        for d, group in by_dim.items():
            group.sort()
            for s in group:
                for face in s.faces():
                    if face not in pool:
                        raise ValueError(f"complex is not face-closed: missing {face!r} of {s!r}")
        dims = sorted(by_dim)
        if dims and dims != list(range(dims[-1] + 1)):
            raise ValueError("dimension gap in complex")
        object.__setattr__(self, "_by_dim", tuple(tuple(by_dim[d]) for d in dims))
        object.__setattr__(self, "_index",
                           {s: i for group in self._by_dim for i, s in enumerate(group)})
        object.__setattr__(self, "_all", frozenset(pool))

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def from_maximal(cls, simplices) -> "SimplicialComplex":
        """Downward closure of the given simplices.

        >>> K = SimplicialComplex.from_maximal([[0, 1, 2, 3]])
        >>> [K.n(d) for d in range(4)]
        [4, 6, 4, 1]
        """
        listed = list(simplices)
        if not listed:
            raise ValueError("at least one simplex is required")
        closure = set()
        for vs in listed:
            s = vs if isinstance(vs, Simplex) else Simplex(vs)
            closure.update(s.faces())
        return cls(closure)

    @property
    def dim(self) -> int:
        return len(self._by_dim) - 1

    @property
    def is_empty(self) -> bool:
        return not self._by_dim

    def simplices(self, d: int) -> tuple:
        """The sorted basis of d-simplices (empty beyond the dimension)."""
        if 0 <= d <= self.dim:
            return self._by_dim[d]
        return ()

    def all_simplices(self):
        for group in self._by_dim:
            yield from group

    def n(self, d: int) -> int:
        return len(self.simplices(d))

    def index(self, s: Simplex) -> int:
        return self._index[s]

    def __contains__(self, s) -> bool:
        return s in self._all

    def __len__(self) -> int:
        return len(self._all)

    def maximal_simplices(self) -> list:
        """Simplices that are not a facet of any simplex one dimension up, in (dim, vertices) order."""
        facets = {face for s in self.all_simplices() for _, face in s.boundary()}
        return [s for s in self.all_simplices() if s not in facets]

    def boundary_matrix(self, d: int) -> list:
        """The matrix of the boundary map in the lexicographic bases.

        Shape n_{d-1} x n_d for 0 < d <= dim; the degenerate ends are the
        1 x n_0 zero matrix at d = 0 and the n_dim x 1 zero matrix at
        d = dim + 1, standing in for the zero maps.
        """
        if not 0 <= d <= self.dim + 1:
            raise ValueError(f"degree {d} out of range 0..{self.dim + 1}")
        if d == 0:
            return [[0] * self.n(0)]
        if d == self.dim + 1:
            return [[0] for _ in range(self.n(self.dim))] if self.dim >= 0 else [[0]]
        rows = self.n(d - 1)
        mat = [[0] * self.n(d) for _ in range(rows)]
        for j, s in enumerate(self.simplices(d)):
            for sign, face in s.boundary():
                mat[self.index(face)][j] = sign
        return mat

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._all <= other._all

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._all == other._all

    def __hash__(self):
        return hash(self._all)

    def __repr__(self):
        if self.is_empty:
            return "SimplicialComplex(empty)"
        counts = ",".join(str(self.n(d)) for d in range(self.dim + 1))
        return f"SimplicialComplex(dim={self.dim}, counts=[{counts}])"


EMPTY_COMPLEX = SimplicialComplex(())


def from_maximal(simplices) -> SimplicialComplex:
    return SimplicialComplex.from_maximal(simplices)
