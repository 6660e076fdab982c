"""Simplicial homology over a PID via a compatible chain of Smith reductions.

The boundary matrices are diagonalized from the top dimension downward so
that the output bases are compatible across degrees. The top boundary M_t is
Smith-reduced as it is, since D_{t+1} = 0 leaves no row transform to apply;
each step below reuses the row transform of the degree above, Smith-reduces
the remaining columns, and records the change of basis. The resulting
diagonal matrices satisfy D_d @ D_{d+1} = 0, and in each degree the new
basis splits into four blocks in this order:

- U: boundaries hit with a unit coefficient,
- T: cycles hit with a non-unit torsion coefficient a_i,
- R: non-cycles (their D_d column is non-zero),
- F: free cycle generators.

The block sizes come from the invariant factors that the reductions return:
those of D_{d+1} split into units (U) and torsion coefficients a_i (T), and
the rank of D_d counts R. Homology in degree d is then
D/(a_1) + ... + D/(a_nT) + D^{nF} on the nose. The generators are the T
and F columns of `to_delta[d]` (`homology`), and a cycle in the simplex basis
converts to class coordinates through `from_delta[d]` (`class_of_cycle`).
The inverse, a representative cycle of given class coordinates, is built
only by the test oracles.

No D_d is stored (it is `from_delta[d-1] @ M_d @ to_delta[d]`, whose
entries `partition` and `torsion` give), nor any boundary matrix M_d or rank.
The reduction keeps only what `to_delta` needs of each Smith form (P_inv and
Q): `to_delta[t]` is the top form's Q itself, and a degree whose form has
rank 0 (degree 0 always has) made no column operation, so its `to_delta` is
the P_inv of the degree above. `from_delta` is not part of it: its first
read runs the Smith forms again with all four transforms, and builds every
degree's inverse basis.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .exact import ExactMatrix, snf
from .modules import HomologyAmbient, ModuleStructure
from .simplicial import SimplicialComplex


class DegreePartition(namedtuple("DegreePartition", "n_U n_T n_R n_F")):
    """Counts of the U/T/R/F blocks in one degree (four ints)."""

    __slots__ = ()


class ClassCoordinates(namedtuple("ClassCoordinates", "degree alpha phi")):
    """Coordinates of a homology class in degree (an int): torsion residues
    alpha and free part phi, tuples of ring elements."""

    __slots__ = ()

    def vector(self) -> tuple:
        return self.alpha + self.phi

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vector())


class DegreeHomology(namedtuple("DegreeHomology", "degree structure torsion_generators free_generators")):
    """Structure and generating cycles of one homology group.

    degree is an int and structure a ModuleStructure. The cycles in the tuples
    torsion_generators and free_generators are sparse columns {d-simplex
    index: coefficient} of `to_delta[degree]`, shared with it and not to be changed.
    """

    __slots__ = ()


class ReducedChainComplex:
    """The per-degree bases and block counts of a complex reduced over a fixed ring."""

    def __init__(self, complex: SimplicialComplex, ring):
        if complex.is_empty:
            raise ValueError("cannot reduce an empty complex")
        self.complex = complex
        self.ring = ring
        self.top = complex.dim
        self._reduce()

    def _reduce(self) -> None:
        ring = self.ring
        t = self.top
        self.to_delta = [None] * (t + 1)    # E^H -> E^Delta change of basis
        self.partition = [None] * (t + 1)
        self.torsion = [()] * (t + 1)

        factors_up = ()  # invariant factors of D_{d+1}; D_{t+1} is zero
        for d, r_up, P_inv, s in self._smith_forms(("P_inv", "Q")):
            n_d = self.complex.n(d)
            if P_inv is None:  # the top degree: no row transform above
                self.to_delta[d] = s.Q
            elif not s.rank:  # no column operation ran: s.Q is the identity
                self.to_delta[d] = P_inv
            else:
                # the column transform is diag(I_{r_up}, s.Q), composed block by block
                kept, rest = range(r_up), range(r_up, n_d)
                self.to_delta[d] = P_inv.column_block(kept).hstack(P_inv.column_block(rest) @ s.Q)
            # the unit factors of D_{d+1} come first, as each divides the next
            torsion = tuple(a for a in factors_up if not ring.is_unit(a))
            n_U, n_T, n_R = len(factors_up) - len(torsion), len(torsion), s.rank
            n_F = n_d - n_U - n_T - n_R
            if n_F < 0:
                raise AssertionError("inconsistent block counts")
            self.partition[d] = DegreePartition(n_U, n_T, n_R, n_F)
            self.torsion[d] = torsion
            factors_up = s.invariant_factors

    def _smith_forms(self, keep):
        """The Smith form of each degree, from the top down: yields (d, r_up,
        P_inv, s), where r_up is the rank of D_{d+1} and P_inv the inverse
        row transform of the degree above. At the top, D_{t+1} = 0: P_inv is
        None, r_up is 0 and s = snf(M_t, keep). Below it, s = snf(N', keep)
        for N' the columns of M_d @ P_inv past r_up; the columns before them
        vanish, as D_d @ D_{d+1} = 0. Each M_d is built here. `keep` must
        name P_inv.
        """
        P_inv, r_up = None, 0
        for d in range(self.top, -1, -1):
            M = _boundary(self.complex, self.ring, d)
            if P_inv is None:
                s = snf(M, keep)
            else:
                N = M @ P_inv
                if any(N.by_cols[:r_up]):
                    raise AssertionError("boundary columns expected to vanish did not")
                s = snf(N.column_block(range(r_up, N.cols)), keep)
            yield d, r_up, P_inv, s
            P_inv, r_up = s.P_inv, s.rank

    @cached_property
    def from_delta(self) -> list:
        """The E^Delta -> E^H change of basis of each degree, the inverse of
        `to_delta[d]`: diag(I_{r_up}, s.Q_inv) @ P, for P the row transform
        of the degree above (the identity at the top). The reduction keeps
        neither factor, so the first read runs the Smith forms again with
        all four transforms; the pivot rule is deterministic, so they are
        the same forms."""
        from_delta = [None] * (self.top + 1)
        P = ExactMatrix.identity(self.ring, self.complex.n(self.top))
        for d, r_up, _, s in self._smith_forms(("P", "P_inv", "Q", "Q_inv")):
            kept, rest = range(r_up), range(r_up, P.rows)
            from_delta[d] = P.take_rows(kept).vstack(s.Q_inv @ P.take_rows(rest))
            P = s.P
        return from_delta

    # block columns of the E^H basis inside M^{Delta,H}_d, in U,T,R,F order

    def block_indices(self, d: int):
        p = self.partition[d]
        u0 = 0
        t0 = p.n_U
        r0 = t0 + p.n_T
        f0 = r0 + p.n_R
        return (range(u0, t0), range(t0, r0), range(r0, f0), range(f0, f0 + p.n_F))

    def blocks(self, d: int):
        iu, it, ir, if_ = self.block_indices(d)
        m = self.to_delta[d]
        return (m.column_block(iu), m.column_block(it),
                m.column_block(ir), m.column_block(if_))

    def ambient(self, d: int) -> HomologyAmbient:
        if not 0 <= d <= self.top:
            return HomologyAmbient(self.ring, (), 0)
        return HomologyAmbient(self.ring, self.torsion[d], self.partition[d].n_F)

    def homology(self, d: int) -> DegreeHomology:
        amb = self.ambient(d)
        structure = ModuleStructure(amb.free_rank, amb.torsion)
        if not 0 <= d <= self.top:
            return DegreeHomology(d, structure, (), ())
        _, it, _, if_ = self.block_indices(d)
        columns = self.to_delta[d].by_cols
        return DegreeHomology(d, structure, tuple(columns[j] for j in it),
                              tuple(columns[j] for j in if_))

    def class_of_cycle(self, d: int, chain) -> ClassCoordinates:
        """Homology coordinates of a cycle given in the simplex basis."""
        if not 0 <= d <= self.top:
            raise ValueError(f"degree {d} out of range")
        coords = self.from_delta[d].apply(chain)
        _, it, ir, if_ = self.block_indices(d)
        # D_d is injective on the R block and zero on the others, so a chain
        # is a cycle exactly when its R coordinates vanish
        if any(coords[i] for i in ir):
            bd = _boundary(self.complex, self.ring, d).apply(chain)
            if any(bd):
                raise ValueError(f"chain is not a cycle; boundary = {bd}")
            raise AssertionError("cycle has non-zero non-cycle block")
        return self.class_from_vector(d, [coords[i] for i in (*it, *if_)])

    def class_from_vector(self, d: int, vec) -> ClassCoordinates:
        """The class of these coordinates (torsion, then free), reduced."""
        amb = self.ambient(d)
        column = amb.reduce_column(vec)
        reduced = tuple(column.get(i, 0) for i in range(amb.length))
        m = len(amb.torsion)
        return ClassCoordinates(d, reduced[:m], reduced[m:])


def _boundary(complex: SimplicialComplex, ring, d: int) -> ExactMatrix:
    """The boundary matrix of degree d over the ring, built by columns. The
    signs are ring elements as they are over Z; over Z/p, -1 becomes p - 1."""
    columns = complex.boundary_columns(d)
    if ring.of(-1) != -1:
        of = ring.of
        columns = [{i: of(x) for i, x in column.items()} for column in columns]
    return ExactMatrix(ring, 1 if d == 0 else complex.n(d - 1), len(columns), by_cols=columns)
