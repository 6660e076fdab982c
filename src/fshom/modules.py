"""Finitely generated modules presented inside a homology group.

A homology group over the coefficient ring is D/(a_1) + ... + D/(a_m) + D^f
with non-unit torsion coefficients a_1 | ... | a_m. A submodule is held as a
list of generator coordinate vectors (torsion residues first, then free
coordinates), each a sparse column {index: coordinate}. Structure,
membership, intersection and sum all go through the lifted lattice in
D^{m+f}: the lift of a submodule always contains the relation vectors
a_i * e_i, which makes every question a Smith form or Diophantine
computation. Each submodule factors its lifted matrix once; that
one Smith form answers every membership test and gives the structure.

Generator lists may be redundant; the derived structure is canonical, and
submodule equality is mutual membership of generators.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property

# `solve` is unused here but stays bound, because the benchmark's
# bench/test_bench.py::test_wrappers_reach_every_binding_and_come_off reads it
from .exact import (  # noqa: F401
    ExactMatrix, SmithDecomposition, _line_products, kernel, snf, solve,
)


class ModuleStructure(namedtuple("ModuleStructure", "betti torsion")):
    """Isomorphism type: D^betti (an int) plus one cyclic summand per entry of the tuple torsion."""

    __slots__ = ()

    @property
    def is_zero(self) -> bool:
        return self.betti == 0 and not self.torsion

    def describe(self, ring=None) -> str:
        if self.is_zero:
            return "0"
        base = f"Z/{ring.p}" if ring is not None and ring.is_field else "Z"
        parts = [f"Z/({a})" for a in self.torsion]
        if self.betti == 1:
            parts.append(base)
        elif self.betti > 1:
            parts.append(f"{base}^{self.betti}")
        return " + ".join(parts)


class HomologyAmbient(namedtuple("HomologyAmbient", "ring torsion free_rank")):
    """The group a submodule lives in, over `ring`: torsion coefficients (a tuple) + free_rank."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.torsion) + self.free_rank

    def reduce_column(self, vec) -> dict:
        """Canonicalize coordinates, given dense (a sequence of this length)
        or sparse (a mapping {index: coordinate}), as a sparse column: torsion
        entries mod a_i, free entries as is, zeros dropped."""
        if isinstance(vec, Mapping):
            entries = vec.items()
        elif len(vec) != self.length:
            raise ValueError("coordinate length does not match ambient")
        else:
            entries = enumerate(vec)
        of, torsion = self.ring.of, self.torsion
        m = len(torsion)  # a field has no torsion
        column = {}
        for i, x in entries:
            x = of(x) % torsion[i] if i < m else of(x)
            if x:
                column[i] = x
        return column


class SubmoduleOfHomology:
    """A submodule of the ambient group, generated by coordinate vectors.

    `generators` holds each distinct non-zero generator once, as a sparse
    column from `HomologyAmbient.reduce_column`, so a generator may be given
    dense or sparse.
    """

    def __init__(self, ambient: HomologyAmbient, generators):
        self.ambient = ambient
        gens = []
        seen = set()
        for g in generators:
            column = ambient.reduce_column(g)
            key = frozenset(column.items())
            if column and key not in seen:
                seen.add(key)
                gens.append(column)
        self.generators = tuple(gens)

    @classmethod
    def full(cls, ambient: HomologyAmbient) -> "SubmoduleOfHomology":
        return cls(ambient, ({i: 1} for i in range(ambient.length)))

    def _lifted_matrix(self) -> ExactMatrix:
        """Generators plus the relation vectors a_i * e_i, as sparse columns over the ring."""
        columns = [*self.generators, *({i: a} for i, a in enumerate(self.ambient.torsion))]
        return ExactMatrix(self.ambient.ring, self.ambient.length, len(columns), by_cols=columns)

    @cached_property
    def _smith(self) -> SmithDecomposition:
        """The one Smith form of the lifted matrix, read by `member` and
        `structure`; both read only P and D, so only P is kept."""
        return snf(self._lifted_matrix(), ("P",))

    @cached_property
    def structure(self) -> ModuleStructure:
        return module_structure(self)

    def member(self, vec) -> bool:
        """Whether the class with these coordinates (dense or sparse) lies in
        the submodule.

        The lifted matrix holds the relation columns a_i * e_i, so a vector
        and its reduction pass the same solvability test.
        """
        return self._smith.failing_row(vec)[0] is None

    def unit_members(self) -> list:
        """Whether each unit class e_i lies in the submodule, in ambient order,
        from one pass over the columns of P: P e_i is column i, so e_i passes
        the solvability test of `member` exactly when column i does."""
        s = self._smith
        return [s.first_failure(c) is None for c in s.P.by_cols]

    def intersect(self, other: "SubmoduleOfHomology") -> "SubmoduleOfHomology":
        if other.ambient != self.ambient:
            raise ValueError("ambient groups differ")
        # (x, y) in ker [G1 | G2] gives G1 x = -G2 y, which lies in both;
        # G1 x is summed from the columns of G1 at the non-zeros of x
        g1 = self._lifted_matrix()
        xs = [{k: x for k, x in w.items() if k < g1.cols}
              for w in kernel(g1.hstack(other._lifted_matrix()))]
        return SubmoduleOfHomology(self.ambient, _line_products(g1.ring, xs, g1.by_cols))

    def add(self, other: "SubmoduleOfHomology") -> "SubmoduleOfHomology":
        if other.ambient != self.ambient:
            raise ValueError("ambient groups differ")
        return SubmoduleOfHomology(self.ambient, self.generators + other.generators)

    def contains(self, other: "SubmoduleOfHomology") -> bool:
        return all(self.member(g) for g in other.generators)

    def __eq__(self, other):
        return (isinstance(other, SubmoduleOfHomology)
                and self.ambient == other.ambient
                and self.contains(other) and other.contains(self))

    def __hash__(self):  # pragma: no cover - equality is semantic
        return hash(self.ambient)

    def __repr__(self):
        s = self.structure
        return f"SubmoduleOfHomology({s.describe(self.ambient.ring)}, {len(self.generators)} generators)"


def module_structure(S: SubmoduleOfHomology) -> ModuleStructure:
    """Isomorphism type of the submodule.

    Lift the generators to the free module D^{m+f}, adjoin the relation
    vectors a_i * e_i to get the lattice L, and compute L / R for R the
    relation span: write a basis of L from the submodule's Smith form of the
    lifted matrix, express each relation vector in that basis, and read the betti
    number and invariant factors off a second Smith form.
    """
    ambient = S.ambient
    ring = ambient.ring
    m = len(ambient.torsion)
    n = ambient.length
    s = S._smith
    r = s.rank
    # L has basis c_i = d_i * (P^{-1} e_i), i < r. A relation vector a_j e_j
    # lies in L, so its i-th coordinate is a_j P[i][j] / d_i, and the rows
    # past the rank must vanish.
    coeffs = ambient.torsion
    P = s.P.by_rows
    rows = []
    for i in range(r):
        d = s.D.by_rows[i][i]
        row = {}
        for j, p in P[i].items():
            if j < m:
                y = ring.exact_div(coeffs[j] * p, d)
                if y:
                    row[j] = y
        rows.append(row)
    for i in range(r, n):
        if any(j < m and ring.of(coeffs[j] * p) for j, p in P[i].items()):
            raise AssertionError("relation vector escapes the lifted lattice")
    Y = ExactMatrix(ring, r, m, by_rows=rows)
    sy = snf(Y, ())  # only the invariant factors are read
    torsion = tuple(a for a in sy.invariant_factors if not ring.is_unit(a))
    return ModuleStructure(r - sy.rank, torsion)
