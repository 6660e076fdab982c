"""Completely distributive lattices used as membership domains.

Three families are implemented, each with a canonical element form:

- TotalOrder: a finite chain of named levels; elements are level indices.
- FreeDistributiveLattice: formal joins of formal meets of generators,
  with bottom (empty join) and top (empty meet) adjoined; elements are
  antichains of generator subsets (join-of-meets normal form, minimal
  subsets only).
- UpSetLattice: upward closed subsets of a finite poset, ordered by
  inclusion; joins are unions and meets are intersections.

Values are immutable and compare by canonical payload within a lattice of
the same structure. Every family is finite and distributive, and lists the
join-irreducible parts of a value (`join_irreducibles`), which join back to
it and are join-prime.
"""

from __future__ import annotations

import re
from functools import reduce


class LatticeError(ValueError):
    pass


class LatticeValue:
    """An element of a concrete lattice, in canonical form."""

    __slots__ = ("lattice", "payload")

    def __init__(self, lattice, payload):
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeValue is immutable")

    def __eq__(self, other):
        return (isinstance(other, LatticeValue)
                and self.lattice.key == other.lattice.key
                and self.payload == other.payload)

    def __hash__(self):
        # equal values have equal payloads; the lattice key is left to __eq__
        return hash(self.payload)

    def __le__(self, other):
        return self.lattice.leq(self, other)

    def __ge__(self, other):
        return self.lattice.leq(other, self)

    def __lt__(self, other):
        return self <= other and self != other

    def __gt__(self, other):
        return other <= self and self != other

    def __or__(self, other):
        return self.lattice.join([self, other])

    def __and__(self, other):
        return self.lattice.meet([self, other])

    def __repr__(self):
        return f"<{format_value(self)}>"


class CdlLattice:
    """Common behaviour of the three lattice families. Each family names its
    elements by `_name` (None for an unknown name) and by its `noun`."""

    def _check(self, v: LatticeValue) -> None:
        if not isinstance(v, LatticeValue) or v.lattice.key != self.key:
            raise LatticeError(f"value {v!r} does not belong to lattice {self.key}")

    def leq(self, a: LatticeValue, b: LatticeValue) -> bool:
        self._check(a)
        self._check(b)
        return self._leq(a.payload, b.payload)

    def join(self, values) -> LatticeValue:
        """The join, folded from the first value; bottom for no values."""
        return self._fold(values, self._join2, self.bottom)

    def meet(self, values) -> LatticeValue:
        """The meet, folded from the first value; top for no values."""
        return self._fold(values, self._meet2, self.top)

    def _fold(self, values, op, empty: LatticeValue) -> LatticeValue:
        vals = list(values)
        for v in vals:
            self._check(v)
        if not vals:
            return empty
        return LatticeValue(self, reduce(op, (v.payload for v in vals)))

    def _atom(self, name: str) -> LatticeValue:
        """The value a name denotes: the family's own name first, then the
        literals 0 and 1."""
        value = self._name(name) or {"0": self.bottom, "1": self.top}.get(name)
        if value is None:
            raise LatticeError(f"unknown {self.noun} {name!r}")
        return value

    def parse(self, text: str) -> LatticeValue:
        return parse_value(text, self)

    def __eq__(self, other):
        return isinstance(other, CdlLattice) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"{type(self).__name__}{self.key[1:]}"


class TotalOrder(CdlLattice):
    """A finite chain. The first level is bottom, the last is top.

    >>> L = TotalOrder(["0", "lo", "hi", "1"])
    >>> L.parse("lo") <= L.parse("hi")
    True
    """

    noun = "level"

    def __init__(self, levels):
        levels = tuple(str(x) for x in levels)
        if len(levels) < 2:
            raise LatticeError("a total order needs at least 2 levels")
        if len(set(levels)) != len(levels):
            raise LatticeError("duplicate level names")
        self.levels = levels
        self.key = ("total", levels)
        self._index = {name: i for i, name in enumerate(levels)}
        self.bottom = LatticeValue(self, 0)
        self.top = LatticeValue(self, len(levels) - 1)
        self.zero_is_meet_prime = True

    def _leq(self, a, b):
        return a <= b

    def _join2(self, a, b):
        return max(a, b)

    def _meet2(self, a, b):
        return min(a, b)

    def _format(self, payload):
        return self.levels[payload]

    def join_irreducibles(self, v: LatticeValue) -> list:
        """The join-irreducible parts of v, which join back to v: v itself above 0."""
        self._check(v)
        return [v] if v.payload else []

    def _name(self, name):
        return LatticeValue(self, self._index[name]) if name in self._index else None


def _minimal_antichain(subsets) -> frozenset:
    """Keep only the inclusion-minimal subsets; drops duplicates."""
    pool = set(frozenset(s) for s in subsets)
    return frozenset(a for a in pool if not any(b < a for b in pool))


class FreeDistributiveLattice(CdlLattice):
    """Free bounded distributive lattice over named generators.

    Elements are antichains of generator subsets, read as a join of meets:
    {{x}, {y,z}} is x | (y & z). The empty antichain is 0 and {{}} (the
    empty meet present) is 1.

    >>> L = FreeDistributiveLattice(["x", "y"])
    >>> format_value(L.parse("x & y | 1"))
    '1'
    """

    noun = "generator"

    def __init__(self, generators):
        generators = tuple(str(g) for g in generators)
        if not generators:
            raise LatticeError("at least one generator is required")
        if len(set(generators)) != len(generators):
            raise LatticeError("duplicate generator names")
        self.generators = generators
        self.key = ("fdl", generators)
        self.bottom = LatticeValue(self, frozenset())
        self.top = LatticeValue(self, frozenset([frozenset()]))
        self.zero_is_meet_prime = True

    def _leq(self, a, b):
        # a <= b iff every meet-term of a is refined by some meet-term of b
        return all(any(B <= A for B in b) for A in a)

    def _join2(self, a, b):
        return _minimal_antichain(a | b)

    def _meet2(self, a, b):
        return _minimal_antichain(A | B for A in a for B in b)

    def _format(self, payload):
        if not payload:
            return "0"
        if frozenset() in payload:
            return "1"
        terms = sorted(tuple(sorted(term)) for term in payload)
        return " | ".join(" & ".join(term) for term in terms)

    def join_irreducibles(self, v: LatticeValue) -> list:
        """The join-irreducible parts of v: its meet-terms (the empty term is 1)."""
        self._check(v)
        return [LatticeValue(self, frozenset([term])) for term in sorted(v.payload, key=sorted)]

    def _name(self, name):
        return LatticeValue(self, frozenset([frozenset([name])])) if name in self.generators else None

    def generator(self, name) -> LatticeValue:
        """The generator of that name (the literals 0 and 1 only when they are generators)."""
        value = self._name(str(name))
        if value is None:
            raise LatticeError(f"unknown generator {str(name)!r}")
        return value


class Poset:
    """A finite poset given by its Hasse diagram (cover pairs)."""

    def __init__(self, elements, covers):
        elements = tuple(str(x) for x in elements)
        if len(set(elements)) != len(elements):
            raise LatticeError("duplicate poset elements")
        covers = tuple((str(a), str(b)) for a, b in covers)
        known = set(elements)
        for a, b in covers:
            if a not in known or b not in known:
                raise LatticeError(f"cover ({a!r}, {b!r}) mentions an unknown element")
            if a == b:
                raise LatticeError(f"cover ({a!r}, {b!r}) is reflexive")
        self.elements = elements
        self.covers = covers
        above = {x: set() for x in elements}
        for a, b in covers:
            above[a].add(b)
        # reflexive-transitive closure by DFS from each element
        self._up = {}
        for x in elements:
            seen = {x}
            stack = [x]
            while stack:
                cur = stack.pop()
                for nxt in above[cur]:
                    if nxt == x:
                        raise LatticeError(f"cover cycle through {x!r}")
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            self._up[x] = frozenset(seen)
        self.key = ("poset", elements, frozenset(covers))

    def leq(self, a, b) -> bool:
        return b in self._up[a]

    def up(self, a) -> frozenset:
        """The principal filter of a: every element at or above it."""
        return self._up[a]

    def __eq__(self, other):
        return isinstance(other, Poset) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Poset({list(self.elements)}, {list(self.covers)})"


class UpSetLattice(CdlLattice):
    """The lattice of up-sets of a finite poset, ordered by inclusion."""

    noun = "poset element"

    def __init__(self, poset: Poset):
        self.poset = poset
        self.key = ("upset", poset.key)
        self.bottom = LatticeValue(self, frozenset())
        self.top = LatticeValue(self, frozenset(poset.elements))
        # 0 = {} is meet-prime iff no two disjoint up-sets exist, i.e. iff
        # every pair of elements has a common upper bound
        self.zero_is_meet_prime = all(
            poset.up(a) & poset.up(b)
            for a in poset.elements for b in poset.elements
        )

    def _leq(self, a, b):
        return a <= b

    def _join2(self, a, b):
        return a | b

    def _meet2(self, a, b):
        return a & b

    def _format(self, payload):
        names = [x for x in self.poset.elements if x in payload]
        return "{" + ",".join(names) + "}"

    def join_irreducibles(self, v: LatticeValue) -> list:
        """The join-irreducible parts of v: the principal up-sets of its minimal elements."""
        self._check(v)
        return [LatticeValue(self, self.poset.up(p)) for p in self.poset.elements
                if p in v.payload and not any(q != p and p in self.poset.up(q) for q in v.payload)]

    def _name(self, name):
        return LatticeValue(self, self.poset.up(name)) if name in self.poset.elements else None

    def value_from_set(self, names) -> LatticeValue:
        """The up-set of the named elements; the first bad name, in the order
        given, is the one an error names."""
        members = dict.fromkeys(str(x) for x in names)
        for x in members:
            if x not in self.poset.elements:
                raise LatticeError(f"unknown poset element {x!r}")
            missing = self.poset.up(x).difference(members)
            if missing:
                raise LatticeError(
                    f"set is not upward closed: contains {x!r} but not {sorted(missing)!r}")
        return LatticeValue(self, frozenset(members))


def format_value(v: LatticeValue) -> str:
    return v.lattice._format(v.payload)


# Lattice expressions: names, "&" (binding tighter), "|", parentheses, and
# in up-set lattices explicit sets such as {a,b}. A token is one of the
# symbols or a maximal run of other characters that are not white space.
_TOKENS = re.compile(r"[&|(){},]|[^\s&|(){},]+").findall
_MAX_NESTING = 1000


def parse_value(text: str, lattice: CdlLattice) -> LatticeValue:
    """Parse a lattice expression into a canonical value.

    Parentheses nest at most 1000 deep.

    >>> L = FreeDistributiveLattice(["x", "y"])
    >>> format_value(parse_value("y & x | x & y", L))
    'x & y'
    """
    tokens = iter(_TOKENS(text))

    def take() -> str:
        tok = next(tokens, None)
        if tok is None:
            raise LatticeError("unexpected end of expression")
        return tok

    tok = next(tokens, None)
    if tok is None:
        raise LatticeError("empty expression")
    # the terms joined so far in the current level and the atoms met so far
    # in its current term; `outer` holds those of each enclosing level
    terms, atoms, outer = [], [], []
    while True:
        if tok == "(":
            if len(outer) == _MAX_NESTING:
                raise LatticeError("expression nested too deeply to parse")
            outer.append((terms, atoms))
            terms, atoms = [], []
            tok = take()
            continue
        if tok == "{":
            if not isinstance(lattice, UpSetLattice):
                raise LatticeError("set syntax {..} is only valid in up-set lattices")
            names = []
            tok = take()
            if tok != "}":
                names.append(tok)
                while (tok := take()) == ",":
                    names.append(take())
                if tok != "}":
                    raise LatticeError(f"expected '}}', got {tok!r}")
            atoms.append(lattice.value_from_set(names))
        elif tok in ("&", "|", ")", "}", ","):
            raise LatticeError(f"unexpected {tok!r}")
        else:
            atoms.append(lattice._atom(tok))
        tok = next(tokens, None)
        # past an atom: "&" continues the term, "|" the level, ")" closes
        # the level, and anything else ends the expression
        while tok != "&":
            terms.append(lattice.meet(atoms) if len(atoms) > 1 else atoms[0])
            atoms = []
            if tok == "|":
                break
            value = lattice.join(terms) if len(terms) > 1 else terms[0]
            if not outer:
                if tok is not None:
                    raise LatticeError(f"trailing input starting at {tok!r}")
                return value
            if tok != ")":
                raise LatticeError("unexpected end of expression" if tok is None
                                   else f"expected ')', got {tok!r}")
            terms, atoms = outer.pop()
            atoms.append(value)
            tok = next(tokens, None)
        tok = take()


def lattice_from_spec(spec: dict) -> CdlLattice:
    """Build a lattice from its JSON description.

    Shapes: {"kind":"total","levels":[...]} |
            {"kind":"fdl","generators":[...]} |
            {"kind":"upset","elements":[...],"covers":[["a","b"],...]}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise LatticeError("lattice spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "total":
        return TotalOrder(_spec_names(spec, "levels"))
    if kind == "fdl":
        return FreeDistributiveLattice(_spec_names(spec, "generators"))
    if kind == "upset":
        return UpSetLattice(poset_from_spec(spec))
    raise LatticeError(f"unknown lattice kind {kind!r}")


def poset_from_spec(spec: dict) -> Poset:
    """Build a poset from {"elements":[...],"covers":[["a","b"],...]}."""
    covers = _spec_list(spec, "covers")
    for cover in covers:
        if not (isinstance(cover, list) and len(cover) == 2):
            raise LatticeError(f"cover {cover!r} must be a pair [lower, upper]")
        if not all(isinstance(name, str) for name in cover):
            raise LatticeError(f"the entries of cover {cover!r} must be strings")
    return Poset(_spec_names(spec, "elements"), covers)


def _spec_list(spec: dict, key: str) -> list:
    """The JSON list under `key` (empty when absent)."""
    value = spec.get(key, [])
    if not isinstance(value, list):
        raise LatticeError(f"'{key}' must be a list")
    return value


def _spec_names(spec: dict, key: str) -> list:
    """The JSON list of names under `key`: every entry must be a string."""
    names = _spec_list(spec, key)
    for name in names:
        if not isinstance(name, str):
            raise LatticeError(f"entry {name!r} of '{key}' must be a string")
    return names


def lattice_to_spec(lattice: CdlLattice) -> dict:
    if isinstance(lattice, TotalOrder):
        return {"kind": "total", "levels": list(lattice.levels)}
    if isinstance(lattice, FreeDistributiveLattice):
        return {"kind": "fdl", "generators": list(lattice.generators)}
    if isinstance(lattice, UpSetLattice):
        return {"kind": "upset",
                "elements": list(lattice.poset.elements),
                "covers": [list(c) for c in lattice.poset.covers]}
    raise LatticeError(f"cannot serialize lattice {lattice!r}")
