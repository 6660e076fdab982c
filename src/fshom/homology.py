"""Simplicial homology over a PID via a compatible chain of Smith reductions.

The boundary matrices are diagonalized from the top dimension downward so
that the output bases are compatible across degrees: working down from
D_{t+1} = M_{t+1} (a zero matrix), each step reuses the row transform of the
previous degree, Smith-reduces the remaining columns, and records the change
of basis. The resulting diagonal matrices satisfy D_d @ D_{d+1} = 0, and in
each degree the new basis splits into four blocks in this order:

- U: boundaries hit with a unit coefficient,
- T: cycles hit with a non-unit torsion coefficient a_i,
- R: non-cycles (their D_d column is non-zero),
- F: free cycle generators.

Homology in degree d is then D/(a_1) + ... + D/(a_nT) + D^{nF} on the nose,
and cycles convert between the simplex basis and homology coordinates by the
recorded matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import ExactMatrix, snf
from .modules import HomologyAmbient, ModuleStructure
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class DegreePartition:
    """Counts of the U/T/R/F blocks in one degree."""

    n_U: int
    n_T: int
    n_R: int
    n_F: int

    def as_tuple(self) -> tuple:
        return (self.n_U, self.n_T, self.n_R, self.n_F)


@dataclass(frozen=True)
class ClassCoordinates:
    """Coordinates of a homology class: torsion residues and free part."""

    degree: int
    alpha: tuple
    phi: tuple

    def vector(self) -> tuple:
        return self.alpha + self.phi

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.vector())


@dataclass(frozen=True)
class DegreeHomology:
    """Structure and generating cycles of one homology group."""

    degree: int
    structure: ModuleStructure
    torsion_generators: tuple
    free_generators: tuple


class ReducedChainComplex:
    """All per-degree reduction data for a complex over a fixed ring."""

    def __init__(self, complex: SimplicialComplex, ring):
        if complex.is_empty:
            raise ValueError("cannot reduce an empty complex")
        self.complex = complex
        self.ring = ring
        t = complex.dim
        self.top = t
        self.boundary = [ExactMatrix.from_rows(ring, complex.boundary_matrix(d))
                         for d in range(t + 2)]
        self._reduce()

    def _reduce(self) -> None:
        ring = self.ring
        t = self.top
        n = [self.boundary[d].cols for d in range(t + 2)]
        self.D = [None] * (t + 2)
        self.to_delta = [None] * (t + 1)    # E^H -> E^Delta change of basis
        self.from_delta = [None] * (t + 1)  # E^Delta -> E^H change of basis
        self.rank = [0] * (t + 2)
        self.partition = [None] * (t + 1)
        self.torsion = [()] * (t + 1)

        self.D[t + 1] = self.boundary[t + 1]
        P = ExactMatrix.identity(ring, n[t])      # row transform produced above
        P_inv = ExactMatrix.identity(ring, n[t])
        for d in range(t, -1, -1):
            r_up = self.rank[d + 1]
            N = self.boundary[d] @ P_inv
            if any(any(row[:r_up]) for row in N.data):
                raise AssertionError("boundary columns expected to vanish did not")
            N_prime = N.column_block(range(r_up, N.cols))
            s = snf(N_prime)
            zero_left = ExactMatrix.zeros(ring, N.rows, r_up)
            self.D[d] = zero_left.hstack(s.D)
            self.rank[d] = s.rank
            # the column transform is diag(I_{r_up}, s.Q), composed block by block
            kept, rest = range(r_up), range(r_up, n[d])
            self.to_delta[d] = P_inv.column_block(kept).hstack(P_inv.column_block(rest) @ s.Q)
            self.from_delta[d] = P.take_rows(kept).vstack(s.Q_inv @ P.take_rows(rest))
            P, P_inv = s.P, s.P_inv

        for d in range(t + 1):
            self._classify(d)

    def _classify(self, d: int) -> None:
        ring = self.ring
        r_here = self.rank[d]
        r_up = self.rank[d + 1]
        n_d = self.boundary[d].cols
        diag_up = []
        if r_up:
            # D_{d+1} = [0 | D'] with a zero block of rank(D_{d+2}) columns
            offset = self.rank[d + 2]
            diag_up = [self.D[d + 1].data[i][offset + i] for i in range(r_up)]
        units = sum(1 for a in diag_up if ring.is_unit(a))
        torsion = tuple(a for a in diag_up if not ring.is_unit(a))
        n_U, n_T, n_R = units, len(torsion), r_here
        n_F = n_d - n_U - n_T - n_R
        if n_F < 0:
            raise AssertionError("inconsistent block counts")
        self.partition[d] = DegreePartition(n_U, n_T, n_R, n_F)
        self.torsion[d] = torsion

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
        _, T, _, F = self.blocks(d)
        return DegreeHomology(
            d, structure,
            tuple(tuple(T.col(j)) for j in range(T.cols)),
            tuple(tuple(F.col(j)) for j in range(F.cols)),
        )

    def class_of_cycle(self, d: int, chain) -> ClassCoordinates:
        """Homology coordinates of a cycle given in the simplex basis."""
        if not 0 <= d <= self.top:
            raise ValueError(f"degree {d} out of range")
        bd = self.boundary[d].apply(chain)
        if any(not self.ring.is_zero(x) for x in bd):
            raise ValueError(f"chain is not a cycle; boundary = {bd}")
        coords = self.from_delta[d].apply(chain)
        _, it, ir, if_ = self.block_indices(d)
        if any(not self.ring.is_zero(coords[i]) for i in ir):
            raise AssertionError("cycle has non-zero non-cycle block")
        return self.class_from_vector(d, [coords[i] for i in (*it, *if_)])

    def cycle_of_class(self, d: int, coords: ClassCoordinates) -> tuple:
        """A representative cycle of the class, in the simplex basis."""
        _, T, _, F = self.blocks(d)
        chain = T.apply(list(coords.alpha))
        free_part = F.apply(list(coords.phi))
        return tuple(self.ring.add(a, b) for a, b in zip(chain, free_part))

    def class_from_vector(self, d: int, vec) -> ClassCoordinates:
        amb = self.ambient(d)
        reduced = amb.reduce_vector(vec)
        m = len(amb.torsion)
        return ClassCoordinates(d, reduced[:m], reduced[m:])


def homology(K: SimplicialComplex, ring) -> list:
    """Per-degree homology of the complex, degrees 0..dim."""
    R = ReducedChainComplex(K, ring)
    return [R.homology(d) for d in range(R.top + 1)]
