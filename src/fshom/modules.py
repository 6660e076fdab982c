"""Finitely generated modules presented inside a homology group.

A homology group over the coefficient ring is D/(a_1) + ... + D/(a_m) + D^f
with non-unit torsion coefficients a_1 | ... | a_m. A submodule is held as a
list of generator coordinate vectors (torsion residues first, then free
coordinates), each a sparse column {index: coordinate}. Structure,
membership, intersection and sum all go through the lifted lattice in
D^{m+f}: the lift of a submodule always contains the relation vectors
a_i * e_i, which makes every question a Smith form or Diophantine
computation.

A submodule is sized by what it holds. A generator u * e_i that generates
the whole summand of coordinate i (u a unit, or over Z a unit mod a_i)
splits that summand off, from the ambient and from the submodule alike; the
other generators, projected off these unit coordinates, touch a support of
coordinates. One Smith form, of the lifted matrix of the projected
generators on the rows of the support, answers every membership test and
gives the structure; a submodule of unit generators only needs none.

Generator lists may be redundant; the derived structure is canonical, and
submodule equality is mutual membership of generators.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from math import gcd

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
        or sparse (a mapping {index: coordinate}, indices in 0..length-1), as
        a sparse column: torsion entries mod a_i, free entries as is, zeros
        dropped."""
        n = self.length
        if isinstance(vec, Mapping):
            entries = vec.items()
        elif len(vec) != n:
            raise ValueError("coordinate length does not match ambient")
        else:
            entries = enumerate(vec)
        of, torsion = self.ring.of, self.torsion
        m = len(torsion)  # a field has no torsion
        column = {}
        for i, x in entries:
            if not 0 <= i < n:
                raise ValueError(f"coordinate index {i} is outside 0..{n - 1}")
            x = of(x) % torsion[i] if i < m else of(x)
            if x:
                column[i] = x
        return column

    def lifted_matrix(self, generators) -> ExactMatrix:
        """Generators (sparse columns) plus the relation vectors a_i * e_i,
        as sparse columns over the ring."""
        columns = [*generators, *({i: a} for i, a in enumerate(self.torsion))]
        return ExactMatrix(self.ring, self.length, len(columns), by_cols=columns)


class SubmoduleOfHomology:
    """A submodule of the ambient group, generated by coordinate vectors.

    `generators` holds each distinct non-zero generator once, as a sparse
    column from `HomologyAmbient.reduce_column`, so a generator may be given
    dense or sparse.

    A generator u * e_i that generates the summand of coordinate i (u a
    unit of the ring, or over Z a unit mod a_i) makes i a unit coordinate:
    the summand lies in the submodule, and it is a direct summand of the
    submodule and of the ambient. The other generators, projected off the
    unit coordinates, are the rest; the coordinates they touch, in order,
    are its support, and `_local` is the ambient of the support. The
    submodule is the unit summands plus the rest, and only the rest needs a
    Smith form. On Z/(2) + Z/(6) + Z, <e_0, 2 e_1> is Z/(2) + Z/(3), whose
    invariant factor is 6:

    >>> from fshom.exact import ZZ
    >>> S = SubmoduleOfHomology(HomologyAmbient(ZZ, (2, 6), 1), [(1, 0, 0), (0, 2, 0)])
    >>> S.structure
    ModuleStructure(betti=0, torsion=(6,))
    >>> S.member((1, 4, 0)), S.member((0, 1, 0)), S.unit_members()
    (True, False, [True, False, False])
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
        torsion, is_unit = ambient.torsion, ambient.ring.is_unit
        m = len(torsion)  # a field has no torsion
        units = set()
        for g in gens:
            if len(g) == 1:
                [(i, x)] = g.items()
                if gcd(x, torsion[i]) == 1 if i < m else is_unit(x):
                    units.add(i)
        # a projected column lies off the unit coordinates, so it repeats no
        # generator that touches them: `seen` still finds every duplicate
        rest = []
        for g in gens:
            if units.isdisjoint(g):
                rest.append(g)
                continue
            column = {i: x for i, x in g.items() if i not in units}
            key = frozenset(column.items())
            if column and key not in seen:
                seen.add(key)
                rest.append(column)
        support = sorted({i for g in rest for i in g})
        position = {i: k for k, i in enumerate(support)}
        mt = bisect_left(support, m)
        self._units = frozenset(units)
        self._position = position  # support coordinate -> its row, in order
        self._local = HomologyAmbient(ambient.ring, tuple(torsion[i] for i in support[:mt]),
                                      len(support) - mt)
        self._rest = [{position[i]: x for i, x in g.items()} for g in rest]

    @classmethod
    def full(cls, ambient: HomologyAmbient) -> "SubmoduleOfHomology":
        return cls(ambient, ({i: 1} for i in range(ambient.length)))

    @cached_property
    def _smith(self) -> SmithDecomposition:
        """The one Smith form, of the rest's lifted matrix on its support,
        read by `member`, `unit_members` and `structure`; they read only P
        and D, so only P is kept. Nothing reads it when the rest is empty."""
        return snf(self._local.lifted_matrix(self._rest), ("P",))

    @cached_property
    def structure(self) -> ModuleStructure:
        return module_structure(self)

    def member(self, vec) -> bool:
        """Whether the class with these coordinates (dense or sparse) lies in
        the submodule.

        Past the unit coordinates, a member lies on the support, where the
        solvability test of the rest's lifted matrix decides. That matrix
        holds the relation columns a_i * e_i, so a vector and its reduction
        pass the same test.
        """
        units, position = self._units, self._position
        local = {}
        for i, x in self.ambient.reduce_column(vec).items():
            if i not in units:
                k = position.get(i)
                if k is None:
                    return False
                local[k] = x
        return not local or self._smith.failing_row(local)[0] is None

    def unit_members(self) -> list:
        """Whether each unit class e_i lies in the submodule, in ambient order:
        true on the unit coordinates, false off them and the support, and on
        the support from one pass over the columns of P: P e_k is column k,
        so e_k passes the solvability test of `member` exactly when column k
        does."""
        out = [i in self._units for i in range(self.ambient.length)]
        if self._rest:
            s = self._smith
            for i, column in zip(self._position, s.P.by_cols):
                out[i] = s.first_failure(column) is None
        return out

    def intersect(self, other: "SubmoduleOfHomology") -> "SubmoduleOfHomology":
        if other.ambient != self.ambient:
            raise ValueError("ambient groups differ")
        # (x, y) in ker [G1 | G2] gives G1 x = -G2 y, which lies in both;
        # G1 x is summed from the columns of G1 at the non-zeros of x
        g1 = self.ambient.lifted_matrix(self.generators)
        xs = [{k: x for k, x in w.items() if k < g1.cols}
              for w in kernel(g1.hstack(self.ambient.lifted_matrix(other.generators)))]
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
    """Isomorphism type of the submodule: its unit summands plus the rest.

    For the rest, lift its generators to the free module on its support,
    adjoin the relation vectors a_i * e_i of the support's torsion
    coordinates to get the lattice L, and compute L / R for R the relation
    span: write a basis of L from the rest's Smith form and express each
    relation vector in that basis. The torsion coefficient a of each unit
    summand is one more relation, a times a generator of its own, so the
    relation matrix is block-diagonal and one more Smith form gives the
    betti number and the invariant factors of the whole. With no torsion
    coordinate on the support, R = 0 and L is free of the form's rank, so no
    second form runs.
    """
    ring, torsion = S.ambient.ring, S.ambient.torsion
    units = sorted(S._units)
    betti = sum(1 for i in units if i >= len(torsion))
    unit_torsion = tuple(torsion[i] for i in units if i < len(torsion))
    if not S._rest:
        return ModuleStructure(betti, unit_torsion)
    s = S._smith
    r = s.rank
    coeffs = S._local.torsion
    if not coeffs:
        return ModuleStructure(betti + r, unit_torsion)
    m = len(coeffs)  # the support's torsion coordinates come first
    # L has basis c_i = d_i * (P^{-1} e_i), i < r. A relation vector a_j e_j
    # lies in L, so its i-th coordinate is a_j P[i][j] / d_i, and the rows
    # past the rank must vanish.
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
    for i in range(r, S._local.length):
        if any(j < m and ring.of(coeffs[j] * p) for j, p in P[i].items()):
            raise AssertionError("relation vector escapes the lifted lattice")
    rows += ({m + k: a} for k, a in enumerate(unit_torsion))
    # only the invariant factors are read
    sy = snf(ExactMatrix(ring, len(rows), m + len(unit_torsion), by_rows=rows), ())
    return ModuleStructure(betti + len(rows) - sy.rank, _torsion_factors(sy))


def _torsion_factors(s: SmithDecomposition) -> tuple:
    """The non-unit invariant factors of a Smith form."""
    return tuple(a for a in s.invariant_factors if not s.ring.is_unit(a))
