"""Finite abstract simplicial complexes with oriented boundary matrices.

Simplices are stored with strictly increasing vertex ids, which fixes the
positive orientation. Vertex ids are non-negative `int`s (`bool` is refused).
Within each dimension d the simplices are sorted lexicographically; their
positions define the chain basis used by every boundary matrix, so results
are reproducible across runs.

A `Simplex` is its sorted vertex tuple: a `tuple` subclass, equal to that
tuple and hashed and ordered like it. `Simplex(vertices)` validates and
sorts its input. `Simplex._sorted(t)` wraps a tuple that is already known to
be a valid simplex (strictly increasing non-negative ints) without checking
it again; faces, boundaries, the `from_maximal` closure and the Rips cliques
are built that way, because sub-tuples of a valid simplex and cliques grown
in increasing vertex order are valid by construction.
"""

from __future__ import annotations

from itertools import combinations


class Simplex(tuple):
    """A simplex: its strictly increasing tuple of vertex ids."""

    __slots__ = ()

    def __new__(cls, vertices):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"vertex ids must be integers, not {v!r}")
            if v < 0:
                raise ValueError("vertex ids must be non-negative")
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate vertices in {vs}")
        return tuple.__new__(cls, sorted(int(v) for v in vs))

    @classmethod
    def _sorted(cls, vertices: tuple) -> "Simplex":
        """Wrap a strictly increasing tuple of non-negative ints, unchecked."""
        return tuple.__new__(cls, vertices)

    @property
    def vertices(self) -> tuple:
        """The vertex ids as a plain tuple."""
        return tuple(self)

    @property
    def dim(self) -> int:
        return len(self) - 1

    def faces(self) -> list:
        """All non-empty subsimplices, including the simplex itself."""
        out = []
        for k in range(1, len(self) + 1):
            out.extend(map(Simplex._sorted, combinations(self, k)))
        return out

    def boundary(self) -> list:
        """Signed codimension-1 faces: (sign, face) with alternating signs."""
        if len(self) == 1:
            return []
        return [(-1 if j % 2 else 1, Simplex._sorted(self[:j] + self[j + 1:])) for j in range(len(self))]

    def __contains__(self, other: "Simplex") -> bool:
        """Whether `other` is a face of this simplex (not vertex membership)."""
        return set(other) <= set(self)

    def __repr__(self):
        return "<" + ",".join(map(str, self)) + ">"


class SimplicialComplex:
    """A face-closed set of simplices with lexicographic per-dimension bases."""

    __slots__ = ("_by_dim", "_index")

    def __init__(self, simplices):
        pool = set(simplices)
        for s in pool:
            if not isinstance(s, Simplex):
                raise TypeError(f"not a Simplex: {s!r}")
        by_dim = {}
        for s in pool:
            by_dim.setdefault(s.dim, []).append(s)
        # every facet present implies every face present, by induction on dimension
        for group in by_dim.values():
            group.sort()
            for s in group:
                for _, face in s.boundary():
                    if face not in pool:
                        raise ValueError(f"complex is not face-closed: missing {face!r} of {s!r}")
        dims = sorted(by_dim)
        if dims and dims != list(range(dims[-1] + 1)):
            raise ValueError("dimension gap in complex")
        object.__setattr__(self, "_by_dim", tuple(tuple(by_dim[d]) for d in dims))
        object.__setattr__(self, "_index",
                           {s: i for group in self._by_dim for i, s in enumerate(group)})

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
            for k in range(1, len(s) + 1):
                closure.update(combinations(s, k))
        return cls(map(Simplex._sorted, closure))

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
        return s in self._index

    def __len__(self) -> int:
        return len(self._index)

    def maximal_simplices(self) -> list:
        """Simplices that are not a facet of any simplex one dimension up, in (dim, vertices) order."""
        facets = {face for s in self.all_simplices() for _, face in s.boundary()}
        return [s for s in self.all_simplices() if s not in facets]

    def boundary_columns(self, d: int) -> list:
        """The columns of `boundary_matrix(d)` as {row: sign} dicts of their
        non-zero entries (every column is empty at d = 0 and d = dim + 1)."""
        if not 0 <= d <= self.dim + 1:
            raise ValueError(f"degree {d} out of range 0..{self.dim + 1}")
        if d == 0:
            return [{} for _ in range(self.n(0))]
        if d == self.dim + 1:
            return [{}]
        index = self._index
        return [{index[face]: sign for sign, face in s.boundary()} for s in self.simplices(d)]

    def boundary_matrix(self, d: int) -> list:
        """The matrix of the boundary map in the lexicographic bases.

        Shape n_{d-1} x n_d for 0 < d <= dim; the degenerate ends are the
        1 x n_0 zero matrix at d = 0 and the n_dim x 1 zero matrix at
        d = dim + 1, standing in for the zero maps.
        """
        columns = self.boundary_columns(d)
        mat = [[0] * len(columns) for _ in range(1 if d == 0 else self.n(d - 1))]
        for j, column in enumerate(columns):
            for i, sign in column.items():
                mat[i][j] = sign
        return mat

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._index.keys() <= other._index.keys()

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self._by_dim == other._by_dim

    def __hash__(self):
        return hash(self._by_dim)

    def __repr__(self):
        if self.is_empty:
            return "SimplicialComplex(empty)"
        counts = ",".join(str(self.n(d)) for d in range(self.dim + 1))
        return f"SimplicialComplex(dim={self.dim}, counts=[{counts}])"


EMPTY_COMPLEX = SimplicialComplex(())


def from_maximal(simplices) -> SimplicialComplex:
    return SimplicialComplex.from_maximal(simplices)
