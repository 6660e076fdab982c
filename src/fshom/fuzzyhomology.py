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

The level submodules of a degree are built along chains of index sets.
H_d(l) is the image of H_d(cut at l) -> H_d(K): the classes c for which some
boundary coefficients b make the cycle U_d b + (T_d | F_d) c, in the columns
of `to_delta[d]`, vanish on the index set I(l) of the simplices whose value
does not dominate l. So H_d(l) is the part past the U block of the kernel of
(U_d | T_d | F_d) restricted to the rows of I(l). For l <= l' the index sets
are nested, I(l) within I(l'), so along a chain of index sets every kernel
is read off one column reduction that takes the rows in the order in which
they enter (`exact.nested_kernels`): image persistence, as in Cohen-Steiner,
Edelsbrunner, Harer and Morozov, "Persistent homology for kernels, images,
and cokernels" (SODA 2009). It stays exact over a PID because the retired
columns are in echelon form on the processed rows and the column transform
is unimodular, so the still-active columns are a basis of each kernel. The
levels of L(kappa_d) are covered greedily by chains of their index sets,
smallest first (every chain of L(kappa_d) is such a chain), on the first
request in degree d. A chain's sweep runs only as far as the levels asked
for and resumes from there, so one level pivots only on the rows of its own
index set, and all levels take one sweep per chain. Any other level l has
the index set of m, the meet of the values of L(kappa_d) above l: every
simplex value lies in L(kappa_d) (the support is the whole complex), and
such a value dominates l exactly when it dominates m.

Two standing assumptions are enforced at construction: the support of the
subcomplex is the whole complex (arranged by restriction), and 0 is
meet-prime in the value lattice. Without meet-primeness eta_d does not live
on the homology module and no algorithm is provided, so construction is
refused.
"""

from __future__ import annotations

from functools import reduce

# `kernel` and `solve` are unused here but stay bound, because the benchmark's
# bench/test_bench.py::test_wrappers_reach_every_binding_and_come_off reads them
from .exact import kernel, nested_kernels, solve, ZZ  # noqa: F401
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
        self._sweeps = {}
        self._values = [
            [self.mu.value(s) for s in self.mu.complex.simplices(d)]
            for d in range(self.reduced.top + 1)
        ]
        # each simplex value as a position in the distinct values of its
        # degree, so that an index set compares each distinct value once
        self._distinct, self._codes = [], []
        for vals in self._values:
            distinct = sorted(set(vals), key=format_value)
            pos = {v: k for k, v in enumerate(distinct)}
            self._distinct.append(distinct)
            self._codes.append([pos[v] for v in vals])
        self._kappa_values = [_meet_closure(self.lattice, vals) for vals in self._distinct]

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
        return list(self._distinct[d]) if 0 <= d <= self.reduced.top else []

    def kappa_value_set(self, d: int) -> list:
        """L(kappa_d): the meet-closure of the non-zero simplex values plus 1."""
        if 0 <= d <= self.reduced.top:
            return list(self._kappa_values[d])
        return [self.lattice.top]

    # -- level submodules ----------------------------------------------

    def index_set(self, d: int, level: LatticeValue) -> tuple:
        """0-based indices of d-simplices whose value does not dominate level."""
        self.lattice._check(level)
        if not 0 <= d <= self.reduced.top:
            return ()
        fails = [not self.lattice.leq(level, v) for v in self._distinct[d]]
        return tuple(i for i, k in enumerate(self._codes[d]) if fails[k])

    def hdl_submodule(self, d: int, level: LatticeValue) -> SubmoduleOfHomology:
        """H_d(level): classes with a representative supported on the cut.

        A level of L(kappa_d) is read off the sweep of its chain, run only
        as far as that level (see the module docstring). Any other level has
        the index set, so the submodule, of the least level of L(kappa_d)
        above it.
        """
        self.lattice._check(level)
        if not 0 <= d <= self.reduced.top:
            return SubmoduleOfHomology.zero(self.reduced.ambient(d))
        levels = self._hdl_cache.setdefault(d, {})
        if level not in levels:
            m = self._least_above(d, level)
            if d not in self._sweeps:
                self._sweeps[d] = self._chain_sweeps(d)
            sweep, ambient = self._sweeps[d][m], self.reduced.ambient(d)
            while m not in levels:
                lv, basis = next(sweep)
                levels[lv] = SubmoduleOfHomology(ambient, basis)
            levels[level] = levels[m]
        return levels[level]

    def _chain_sweeps(self, d: int) -> dict:
        """Each level of L(kappa_d) -> the lazy sweep of its chain.

        A sweep yields (level, basis) along its chain: the basis spans the
        kernel of (U_d | T_d | F_d) restricted to the rows of I(level), read
        past the U block, where a kernel vector is a class coordinate
        (torsion, then free).
        """
        iu, it, _, if_ = self.reduced.block_indices(d)
        G = self.reduced.to_delta[d].column_block([*iu, *it, *if_])
        rows = {lv: frozenset(self.index_set(d, lv)) for lv in self._kappa_values[d]}
        # greedy chain cover of the index sets under inclusion, smallest first
        pending = sorted(rows, key=lambda lv: len(rows[lv]))
        sweeps = {}
        while pending:
            chain, rest = [pending[0]], []
            for lv in pending[1:]:
                if rows[chain[-1]] <= rows[lv]:
                    chain.append(lv)
                else:
                    rest.append(lv)
            pending = rest
            prefixes = [frozenset(), *(rows[lv] for lv in chain)]
            batches = [sorted(b - a) for a, b in zip(prefixes, prefixes[1:])]
            sweep = ((lv, [w[len(iu):] for w in basis])
                     for lv, basis in zip(chain, nested_kernels(G, batches)))
            sweeps.update(dict.fromkeys(chain, sweep))
        return sweeps

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
        least_above = dict.fromkeys(self._least_above(d, j)
                                    for j in self.lattice.join_irreducibles(level))
        parts = [self.hdl_submodule(d, m) for m in least_above]
        if not parts:
            return SubmoduleOfHomology.full(self.reduced.ambient(d))
        return reduce(lambda a, b: a.intersect(b), parts)

    def _least_above(self, d: int, level: LatticeValue) -> LatticeValue:
        """The meet of the values of L(kappa_d) above the level (1 outside 0..top)."""
        values = self._kappa_values[d] if 0 <= d <= self.reduced.top else ()
        return self.lattice.meet([s for s in values if self.lattice.leq(level, s)])

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
