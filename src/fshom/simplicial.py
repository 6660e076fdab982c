"""Finite abstract simplicial complexes with oriented boundary matrices.

Simplices are stored with strictly increasing vertex ids, which fixes the
positive orientation. Vertex ids are non-negative `int`s (`bool` is refused).
Within each dimension d the simplices are sorted lexicographically; their
positions define the chain basis used by every boundary matrix, so results
are reproducible across runs.

A `Simplex` is its sorted vertex tuple: a `tuple` subclass, equal to that
tuple and hashed, ordered and searched (`in`) like it. `Simplex(vertices)`
validates and sorts its input. `Simplex._sorted(t)` wraps a tuple known to be
a valid simplex (strictly increasing non-negative ints) without checking it
again, in one C-level call (`tuple.__new__` bound to `Simplex`); faces,
boundaries, the `from_maximal` closure, the Rips cliques and the filtration
union are built that way, as sub-tuples of a valid simplex and cliques grown
in increasing vertex order are valid by construction. Where a face is only
looked up (the face-closure check, `maximal_simplices`, `boundary_columns`),
it stays the plain tuple that `itertools.combinations` or an
`operator.itemgetter` yields.

The constructor checks that its simplices are `Simplex`es and face-closed
(so without a dimension gap: a gap leaves some present dimension m >= 1
without (m-1)-faces). `from_maximal` builds a closure that is both by
construction, so it groups that closure by size and holds it unchecked.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, combinations, repeat
from operator import itemgetter


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

    def __repr__(self):
        return "<" + ",".join(map(str, self)) + ">"


# wraps a strictly increasing tuple of non-negative ints, unchecked
Simplex._sorted = partial(tuple.__new__, Simplex)


def _int_lists(lists) -> bool:
    """Whether `lists` is a list of non-empty lists of ints, tested at C level
    (bool and float vertices would compare equal to ints, so the test is exact)."""
    return ({*map(type, lists)} == {list} and all(lists)
            and {*map(type, chain.from_iterable(lists))} == {int})


def _facets(simplices, d: int):
    """The codimension-1 faces of the given d-simplices, as plain tuples."""
    return chain.from_iterable(map(combinations, simplices, repeat(d)))


class SimplicialComplex:
    """A face-closed set of simplices with lexicographic per-dimension bases."""

    __slots__ = ("_by_dim", "_index")

    def __init__(self, simplices):
        pool = set(simplices)
        by_dim = {}
        for s in pool:
            if not isinstance(s, Simplex):
                raise TypeError(f"not a Simplex: {s!r}")
            by_dim.setdefault(len(s) - 1, []).append(s)
        # every facet present implies every face present, by induction on
        # dimension; faces are plain tuples (equal to and hashed like their
        # Simplex), and only a failing group is walked again to name the face
        for d, group in by_dim.items():
            group.sort()
            if d and not pool.issuperset(_facets(group, d)):
                for s in group:
                    for _, face in s.boundary():
                        if face not in pool:
                            raise ValueError(f"complex is not face-closed: missing {face!r} of {s!r}")
        self._set(tuple(tuple(by_dim[d]) for d in sorted(by_dim)))

    def _set(self, by_dim: tuple) -> None:
        """Hold `by_dim`, the sorted simplices of each dimension 0..dim, and index them."""
        object.__setattr__(self, "_by_dim", by_dim)
        index = {}
        for group in by_dim:
            index.update(zip(group, range(len(group))))
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @classmethod
    def from_maximal(cls, simplices) -> "SimplicialComplex":
        """Downward closure of the given simplices.

        When every entry is a non-empty list of ints (`_int_lists`), the
        other vertex checks (non-negative, none repeated) run once per list
        at C level; any other input, or a list that fails them, is parsed by
        `Simplex`, which names the first bad entry.

        The closure is closed by construction: it holds the k-vertex faces of
        the given simplices for every k from 1 to the largest size, so it has
        every facet of its simplices and no dimension gap. It is grouped by
        size and sorted, group by group, and held without the checks of the
        constructor (simplex types, face closure).

        >>> K = SimplicialComplex.from_maximal([[0, 1, 2, 3]])
        >>> [K.n(d) for d in range(4)]
        [4, 6, 4, 1]
        """
        listed = list(simplices)
        if not listed:
            raise ValueError("at least one simplex is required")
        if (_int_lists(listed) and min(chain.from_iterable(listed)) >= 0
                and [*map(len, listed)] == [*map(len, map(set, listed))]):
            valid = [*map(tuple, map(sorted, listed))]
        else:
            valid = [vs if isinstance(vs, Simplex) else Simplex(vs) for vs in listed]
        groups = (sorted({*chain.from_iterable(map(combinations, valid, repeat(k)))})
                  for k in range(1, max(map(len, valid)) + 1))
        K = object.__new__(cls)
        K._set(tuple(tuple(map(Simplex._sorted, group)) for group in groups))
        return K

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
        """An iterator over every simplex, in (dim, vertices) order."""
        return chain.from_iterable(self._by_dim)

    def n(self, d: int) -> int:
        return len(self.simplices(d))

    def index(self, s: Simplex) -> int:
        return self._index[s]

    def __contains__(self, s) -> bool:
        return s in self._index

    def get(self, vertices: tuple):
        """The complex's own simplex equal to the tuple `vertices`, or None."""
        i = self._index.get(vertices)
        return None if i is None else self._by_dim[len(vertices) - 1][i]

    def __len__(self) -> int:
        return len(self._index)

    def maximal_simplices(self) -> list:
        """Simplices that are not a facet of any simplex one dimension up, in (dim, vertices) order."""
        facets = set()
        for d, group in enumerate(self._by_dim):
            if d:
                facets.update(_facets(group, d))
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
        # the rows of the faces without vertex j, j = 0..d, one pass over the
        # group each (one index gives a bare vertex, so it is wrapped in a
        # tuple); each column lists them in that order with sign (-1)^j, as
        # in boundary()
        group = self.simplices(d)
        row = self._index.__getitem__
        faces = []
        for j in range(d + 1):
            get = itemgetter(*range(j), *range(j + 1, d + 1))
            faces.append(map(row, map(get, group) if d > 1 else zip(map(get, group))))
        signs = [-1 if j % 2 else 1 for j in range(d + 1)]
        return [dict(zip(rows, signs)) for rows in zip(*faces)]

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
