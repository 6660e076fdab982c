"""Lattice-valued fuzzy homology of a fuzzy subcomplex.

Built on the reduced chain complex: the value of a chain is the meet of the
values of its supporting simplices. Everything else is read off one cached
primitive, the level submodule H_d(l) of the classes that have a
representative cycle supported on the cut complex at level l:

- eta_d of a class h is the join of the levels l in the meet-closed value set
  L(kappa_d) with h in H_d(l);
- the cut {h : eta_d(h) >= l} is the intersection of H_d(j) over the
  join-irreducible parts j of l, and the whole group when l = 0. Every
  supported lattice is finite and distributive, so a join-irreducible j is
  join-prime (Birkhoff's representation theorem; Davey-Priestley,
  *Introduction to Lattices and Order*, ch. 5): eta_d(h) >= j exactly when
  some level s >= j of L(kappa_d) has h in H_d(s). The least such s is m,
  the meet of the levels of L(kappa_d) above j, and H_d is antitone, so
  this holds exactly when h is in H_d(m), which is H_d(j): j and m fail
  the same value groups (below).

eta_d of every unit class of a degree (the generators that the homology
report lists) is read in batch, one pass per level of L(kappa_d)
(`SubmoduleOfHomology.unit_members`): e_i lies in H_d(l) when i is a unit
coordinate of H_d(l) (some generator spans its summand), not when i lies
outside those and the support of the other generators, and otherwise
exactly when P e_i passes the solvability criterion, for P A Q = D the
Smith form of those generators' lifted matrix on their support. So no
class vector is built, no per-class solve is run, and a level of unit
generators only runs no Smith form. In a degree where H_d = 0, every
H_d(l) is the zero submodule and no sweep runs.

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
index set, and all levels take one sweep per chain; once its last level is
read, the chain's sweep is dropped with the rows and transform it holds.
H_d(l) depends on l only through the value groups it fails, the codes of
degree d not above l's, whose simplices make up I(l); so the level
submodules are cached by that key. Every key is the key of a level of
L(kappa_d): every simplex value lies in L(kappa_d) (the support is the whole
complex), so a group's value dominates l exactly when it dominates m, the
meet of the values of L(kappa_d) above l, and m is a level of L(kappa_d).

Three standing assumptions are enforced at construction: the subcomplex is
face-monotone (else it is refused, as its cuts are not complexes), its
support is the whole complex (arranged by restriction), and 0 is meet-prime
in the value lattice. Without meet-primeness eta_d does not live on the
homology module and no algorithm is provided, so construction is refused.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product, starmap

# `kernel` and `solve` are unused here but stay bound, because the benchmark's
# bench/test_bench.py::test_wrappers_reach_every_binding_and_come_off reads them
from .exact import kernel, nested_kernels, solve, ZZ  # noqa: F401
from .fuzzy import FuzzyError, FuzzySubcomplex, Violation, complete_values
from .homology import ClassCoordinates, ReducedChainComplex
from .lattice import LatticeValue, format_value
from .modules import SubmoduleOfHomology


class NotComputableError(RuntimeError):
    """A capability refusal: the inputs are valid but outside what we compute."""


class FuzzyHomologyContext:
    """Shared state for fuzzy homology queries over one subcomplex and ring;
    simplex values are read as codes of the subcomplex's `ValueCoding`."""

    def __init__(self, mu: FuzzySubcomplex, ring=ZZ):
        if not mu.lattice.zero_is_meet_prime:
            raise NotComputableError(
                "0 is not meet-prime in the value lattice; fuzzy homology is "
                "only computed when a & b = 0 forces a = 0 or b = 0")
        _check_monotone(mu)
        self.mu = mu.restrict_to_support()
        self.lattice = mu.lattice
        self.ring = ring
        self.reduced = ReducedChainComplex(self.mu.complex, ring)
        self._hdl_cache = {}
        self._sweeps = {}
        self._fails_cache = {}
        self._groups = [_value_groups(self.mu, d) for d in range(self.reduced.top + 1)]
        self._kappa_codes = [_meet_closure(self.mu, groups) for groups in self._groups]

    # -- value sets ---------------------------------------------------

    def kappa_value_set(self, d: int) -> list:
        """L(kappa_d): the meet-closure of the non-zero simplex values plus 1."""
        if 0 <= d <= self.reduced.top:
            return [self.mu.coding.values[c] for c in self._kappa_codes[d]]
        return [self.lattice.top]

    # -- level submodules ----------------------------------------------

    def index_set(self, d: int, level: LatticeValue) -> tuple:
        """0-based indices of d-simplices whose value does not dominate level,
        in ascending order: the union of the value groups the level fails."""
        lc = self.mu.coding.code(level)
        if not 0 <= d <= self.reduced.top:
            return ()
        groups = self._groups[d]
        return tuple(sorted(i for c in self._fails(d, lc) for i in groups[c]))

    def _fails(self, d: int, lc: int) -> frozenset:
        """The codes of the value groups of degree d not above code lc: the
        key of the level's submodule, which determines its index set.
        Computed once per (d, lc)."""
        key = self._fails_cache.get((d, lc))
        if key is None:
            leq = self.mu.coding.leq
            key = frozenset(c for c in self._groups[d] if not leq(lc, c))
            self._fails_cache[d, lc] = key
        return key

    def hdl_submodule(self, d: int, level: LatticeValue) -> SubmoduleOfHomology:
        """H_d(level): classes with a representative supported on the cut.

        Cached by the value groups the level fails, which are those of a
        level of L(kappa_d); that one is read off the sweep of its chain,
        run only as far as that level (see the module docstring), and a
        chain whose levels are all cached holds no sweep. Where H_d = 0 the
        level is the zero submodule, cached without building the degree's
        sweeps.
        """
        self.lattice._check(level)
        if not 0 <= d <= self.reduced.top:
            return SubmoduleOfHomology(self.reduced.ambient(d), [])
        key = self._fails(d, self.mu.coding.code(level))
        levels = self._hdl_cache.setdefault(d, {})
        if key in levels:
            return levels[key]
        ambient = self.reduced.ambient(d)
        if not ambient.length:
            levels[key] = SubmoduleOfHomology(ambient, [])  # H_d = 0: no sweep
            return levels[key]
        if d not in self._sweeps:
            self._sweeps[d] = self._chain_sweeps(d)
        sweeps = self._sweeps[d]
        sweep, chain = sweeps[key]
        while key not in levels:
            k, basis = next(sweep)
            levels[k] = SubmoduleOfHomology(ambient, basis)
        if chain[-1] in levels:  # a finished chain frees its sweep's state
            for k in chain:
                del sweeps[k]
        return levels[key]

    def _chain_sweeps(self, d: int) -> dict:
        """The key of each level of L(kappa_d) -> (the lazy sweep of its
        chain, the chain of keys).

        A sweep yields (key, basis) along its chain: the basis spans the
        kernel of (U_d | T_d | F_d) restricted to the rows of the key's value
        groups, read past the U block, where a kernel vector is a class
        coordinate (torsion, then free). The kernel vectors are sparse
        columns, so the U block is dropped by shifting their keys.
        """
        iu, it, _, if_ = self.reduced.block_indices(d)
        n_U = len(iu)
        G = self.reduced.to_delta[d].column_block([*iu, *it, *if_])
        groups = self._groups[d]
        # greedy chain cover of the keys under inclusion, fewest rows first
        pending = sorted((self._fails(d, c) for c in self._kappa_codes[d]),
                         key=lambda key: sum(len(groups[c]) for c in key))
        sweeps = {}
        while pending:
            chain, rest = [pending[0]], []
            for key in pending[1:]:
                if chain[-1] <= key:
                    chain.append(key)
                else:
                    rest.append(key)
            pending = rest
            batches = [sorted(i for c in b - a for i in groups[c])
                       for a, b in zip([frozenset(), *chain], chain)]
            sweep = ((key, [{k - n_U: x for k, x in w.items() if k >= n_U} for w in basis])
                     for key, basis in zip(chain, nested_kernels(G, batches)))
            sweeps.update(dict.fromkeys(chain, (sweep, chain)))
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

    def eta_values(self, d: int) -> list:
        """eta_d of every unit class e_i of H_d, in coordinate order (torsion,
        then free), equal to `eta_value` of each.

        One pass per level l of L(kappa_d), in `kappa_value_set` order:
        e_i lies in H_d(l) when a generator of H_d(l) spans its summand;
        otherwise, when i lies on the support of the other generators,
        exactly when its column of P, for the Smith form P A Q = D of their
        lifted matrix on that support, is non-zero only below the rank, with
        d_k | P[k][i] there; and not at all off that support
        (`SubmoduleOfHomology.unit_members`).
        """
        solvable = [[] for _ in range(self.reduced.ambient(d).length)]
        for lv in self.kappa_value_set(d):
            for levels, inside in zip(solvable, self.hdl_submodule(d, lv).unit_members()):
                if inside:
                    levels.append(lv)
        return [self.lattice.join(levels) for levels in solvable]

    def eta_cut(self, d: int, level: LatticeValue) -> SubmoduleOfHomology:
        """The cut of eta_d at the level, {h : eta_d(h) >= level}, in H_d.

        The intersection of H_d(j) over the join-irreducible parts j of the
        level, each distinct cached submodule taken once (see the module
        docstring); the whole group at level 0.
        """
        parts = {id(S): S for S in (self.hdl_submodule(d, j)
                                    for j in self.lattice.join_irreducibles(level))}
        if not parts:
            return SubmoduleOfHomology.full(self.reduced.ambient(d))
        return reduce(lambda a, b: a.intersect(b), parts.values())


def _check_monotone(mu: FuzzySubcomplex) -> None:
    """A FuzzyError naming one face whose value does not dominate its coface's,
    if mu has one: mu is face-monotone exactly when its least monotone
    completion is mu, else its facets (by transitivity enough) are walked."""
    coding, code, K = mu.coding, mu._code, mu.complex
    if complete_values(K, coding, code)._code == code:
        return
    for d in range(1, K.dim + 1):
        for s in K.simplices(d):
            for face in combinations(s, d):
                if not coding.leq(code[s], code[face]):
                    raise FuzzyError(Violation(K.get(face), s, coding.values[code[face]],
                                               coding.values[code[s]]).message())


def _value_groups(mu, d) -> dict:
    """Code -> the ascending indices of the d-simplices with that code."""
    groups = {}
    for i, c in enumerate(map(mu._code.__getitem__, mu.complex.simplices(d))):
        groups.setdefault(c, []).append(i)
    return groups


def _meet_closure(mu, groups) -> list:
    """The codes of the meet-closure of the non-zero codes among `groups`
    (those of one degree) plus 1, in value-text order.

    Every meet of k + 1 seed codes is a meet of k seeds met with a seed, so
    each new code is met with the seeds only, once, as it enters the
    closure: the seeds pairwise, then each new code with each seed. Each
    unordered pair is formed once and no code is met with itself."""
    coding, bottom = mu.coding, mu.lattice.bottom
    seed = [c for c in groups if coding.values[c] != bottom]
    top = coding.code(mu.lattice.top)
    if top not in seed:
        seed.append(top)
    closed = set(seed)
    pairs = combinations(seed, 2)
    while True:
        fresh = {*starmap(coding.meet, pairs)} - closed
        if not fresh:
            return sorted(closed, key=lambda c: format_value(coding.values[c]))
        closed |= fresh
        pairs = product(fresh, seed)
