"""Lattice-valued fuzzy homology of a fuzzy subcomplex.

Built on the reduced chain complex: the value of a chain is the meet of the
values of its supporting simplices. Everything else is read off one cached
primitive, the level submodule H_d(l) of the classes that have a
representative cycle supported on the cut complex at level l:

- eta_d of a class h is the join of the levels l in the meet-closed value set
  L(kappa_d) with h in H_d(l);
- the cut {h : eta_d(h) >= l} is the intersection of H_d(m_j) over the
  join-irreducible parts j of l, where m_j is the meet of the values of
  L(kappa_d) above j, and the whole group when l = 0. Every supported
  lattice is finite and distributive, so a join-irreducible j is join-prime
  (Birkhoff's representation theorem; Davey-Priestley, *Introduction to
  Lattices and Order*, ch. 5): eta_d(h) >= j exactly when some level s >= j
  of L(kappa_d) has h in H_d(s), and as H_d is antitone and L(kappa_d) is
  meet-closed, exactly when h is in H_d(m_j).

Two standing assumptions are enforced at construction: the support of the
subcomplex is the whole complex (arranged by restriction), and 0 is
meet-prime in the value lattice. Without meet-primeness eta_d does not live
on the homology module and no algorithm is provided, so construction is
refused.
"""

from __future__ import annotations

from functools import reduce

# `solve` stays bound: bench/test_bench.py::test_wrappers_reach_every_binding_and_come_off reads it
from .exact import kernel, solve, ZZ  # noqa: F401
from .fuzzy import FuzzySubcomplex
from .homology import ClassCoordinates, ReducedChainComplex
from .lattice import LatticeValue, format_value
from .modules import SubmoduleOfHomology


class NotComputableError(RuntimeError):
    """A capability refusal: the inputs are valid but outside what we compute."""


class FuzzyHomologyContext:
    """Shared state for fuzzy homology queries over one subcomplex and ring."""

    def __init__(self, mu: FuzzySubcomplex, ring=ZZ):
        if not mu.lattice.zero_is_meet_prime:
            raise NotComputableError(
                "0 is not meet-prime in the value lattice; fuzzy homology is "
                "only computed when a & b = 0 forces a = 0 or b = 0")
        self.mu = mu.restrict_to_support()
        self.lattice = mu.lattice
        self.ring = ring
        self.reduced = ReducedChainComplex(self.mu.complex, ring)
        self._hdl_cache = {}
        self._values = [
            [self.mu.value(s) for s in self.mu.complex.simplices(d)]
            for d in range(self.reduced.top + 1)
        ]
        self._kappa_values = [_meet_closure(self.lattice, vals) for vals in self._values]

    # -- chain values -------------------------------------------------

    def kappa(self, d: int, chain) -> LatticeValue:
        """Value of a chain: meet of values over its non-zero coordinates."""
        vals = self._values[d] if 0 <= d <= self.reduced.top else []
        if len(chain) != len(vals):
            raise ValueError("chain length does not match the simplex basis")
        support = [v for c, v in zip(chain, vals) if not self.ring.is_zero(self.ring.of(c))]
        return self.lattice.meet(support)

    def delta_value_set(self, d: int) -> list:
        """Distinct simplex values in degree d, deterministically ordered."""
        return sorted(set(self._values[d]), key=format_value) if 0 <= d <= self.reduced.top else []

    def kappa_value_set(self, d: int) -> list:
        """L(kappa_d): the meet-closure of the non-zero simplex values plus 1."""
        if 0 <= d <= self.reduced.top:
            return list(self._kappa_values[d])
        return [self.lattice.top]

    # -- level submodules ----------------------------------------------

    def index_set(self, d: int, level: LatticeValue) -> tuple:
        """0-based indices of d-simplices whose value does not dominate level."""
        self.lattice._check(level)
        vals = self._values[d] if 0 <= d <= self.reduced.top else []
        return tuple(i for i, v in enumerate(vals) if not self.lattice.leq(level, v))

    def hdl_submodule(self, d: int, level: LatticeValue) -> SubmoduleOfHomology:
        """H_d(level): classes with a representative supported on the cut.

        Computed as the projection of the kernel of (U_d | T_d | F_d)
        restricted to the rows of the index set: past the U block, a kernel
        vector is the class coordinate (torsion, then free).
        """
        key = (d, level)
        if key in self._hdl_cache:
            return self._hdl_cache[key]
        ambient = self.reduced.ambient(d)
        if not 0 <= d <= self.reduced.top:
            return SubmoduleOfHomology.zero(ambient)
        iu, it, _, if_ = self.reduced.block_indices(d)
        restricted = self.reduced.to_delta[d].take_rows(self.index_set(d, level))
        G = restricted.column_block([*iu, *it, *if_])
        result = SubmoduleOfHomology(ambient, [w[len(iu):] for w in kernel(G)])
        self._hdl_cache[key] = result
        return result

    def is_level_solvable(self, d: int, h: ClassCoordinates, level: LatticeValue) -> bool:
        """Whether the class has a representative supported on the cut at level."""
        return self.hdl_submodule(d, level).member(h.vector())

    # -- eta values and cuts -------------------------------------------

    def eta_solvable_levels(self, d: int, h: ClassCoordinates) -> list:
        """Levels l of L(kappa_d) with the class in H_d(l)."""
        return [lv for lv in self.kappa_value_set(d) if self.is_level_solvable(d, h, lv)]

    def eta_value(self, d: int, h: ClassCoordinates) -> LatticeValue:
        """eta_d of the class: the join of its solvable levels."""
        return self.lattice.join(self.eta_solvable_levels(d, h))

    def eta_cut(self, d: int, level: LatticeValue) -> SubmoduleOfHomology:
        """The cut of eta_d at the level, {h : eta_d(h) >= level}, in H_d.

        The intersection over the join-irreducible parts j of the level of
        H_d at the meet of the values of L(kappa_d) above j (see the module
        docstring); the whole group at level 0.
        """
        values = self.kappa_value_set(d)
        least_above = dict.fromkeys(self.lattice.meet([s for s in values if self.lattice.leq(j, s)])
                                    for j in self.lattice.join_irreducibles(level))
        parts = [self.hdl_submodule(d, m) for m in least_above]
        if not parts:
            return SubmoduleOfHomology.full(self.reduced.ambient(d))
        return reduce(lambda a, b: a.intersect(b), parts)

    def rank_cut_table(self, d: int, levels) -> dict:
        """Betti number of the eta cut at each requested level."""
        return {lv: self.eta_cut(d, lv).structure.betti for lv in levels}


def _meet_closure(lattice, values) -> list:
    """The meet-closure of the non-zero values plus 1, deterministically ordered."""
    seed = {v for v in values if v != lattice.bottom}
    seed.add(lattice.top)
    closed = set(seed)
    frontier = set(seed)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in closed:
                m = lattice.meet([a, b])
                if m not in closed and m not in fresh:
                    fresh.add(m)
        closed |= fresh
        frontier = fresh
    return sorted(closed, key=format_value)
