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

from functools import reduce
from itertools import combinations


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
        return hash((self.lattice.key, self.payload))

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
    """Common behaviour of the three lattice families."""

    kind = "?"

    def _check(self, v: LatticeValue) -> None:
        if not isinstance(v, LatticeValue) or v.lattice.key != self.key:
            raise LatticeError(f"value {v!r} does not belong to lattice {self.key}")

    def leq(self, a: LatticeValue, b: LatticeValue) -> bool:
        self._check(a)
        self._check(b)
        return self._leq(a.payload, b.payload)

    def join(self, values) -> LatticeValue:
        """The join, folded from the first value; bottom for no values."""
        vals = list(values)
        for v in vals:
            self._check(v)
        if not vals:
            return self.bottom
        return LatticeValue(self, reduce(self._join2, (v.payload for v in vals)))

    def meet(self, values) -> LatticeValue:
        """The meet, folded from the first value; top for no values."""
        vals = list(values)
        for v in vals:
            self._check(v)
        if not vals:
            return self.top
        return LatticeValue(self, reduce(self._meet2, (v.payload for v in vals)))

    def parse(self, text: str) -> LatticeValue:
        return parse_value(text, self)

    def format(self, v: LatticeValue) -> str:
        self._check(v)
        return self._format(v.payload)

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

    kind = "total"

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

    def _atom(self, name):
        if name in self._index:
            return LatticeValue(self, self._index[name])
        if name == "0":
            return self.bottom
        if name == "1":
            return self.top
        raise LatticeError(f"unknown level {name!r}")

    def carrier(self):
        return [LatticeValue(self, i) for i in range(len(self.levels))]


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

    kind = "fdl"

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

    def _atom(self, name):
        if name in self.generators:
            return LatticeValue(self, frozenset([frozenset([name])]))
        if name == "0":
            return self.bottom
        if name == "1":
            return self.top
        raise LatticeError(f"unknown generator {name!r}")

    def generator(self, name) -> LatticeValue:
        return self._atom(str(name))

    def carrier(self, cap: int = 4):
        return enumerate_fdl(self.generators, cap=cap, lattice=self)


def enumerate_fdl(generators, cap: int = 4, lattice=None):
    """All elements of the free distributive lattice over the generators.

    The carrier is the set of antichains of generator subsets (a Dedekind
    number), so the generator count is capped.
    """
    gens = tuple(str(g) for g in generators)
    if not 1 <= len(gens) <= cap:
        raise LatticeError(f"enumerate_fdl supports 1..{cap} generators, got {len(gens)}")
    if lattice is None:
        lattice = FreeDistributiveLattice(gens)
    subsets = []
    for k in range(len(gens) + 1):
        subsets.extend(frozenset(c) for c in combinations(gens, k))
    out = []
    for mask in range(1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        if any(a < b or b < a for a, b in combinations(family, 2)):
            continue
        out.append(LatticeValue(lattice, frozenset(family)))
    out.sort(key=lambda v: (len(v.payload), format_value(v)))
    return out


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
        for x in elements:
            for y in self._up[x]:
                if y != x and x in self._up[y]:
                    raise LatticeError(f"cover cycle between {x!r} and {y!r}")
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

    kind = "upset"

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

    def _atom(self, name):
        if name in self.poset.elements:
            return LatticeValue(self, self.poset.up(name))
        if name == "0":
            return self.bottom
        if name == "1":
            return self.top
        raise LatticeError(f"unknown poset element {name!r}")

    def value_from_set(self, names) -> LatticeValue:
        members = frozenset(str(x) for x in names)
        for x in members:
            if x not in self.poset.elements:
                raise LatticeError(f"unknown poset element {x!r}")
            missing = self.poset.up(x) - members
            if missing:
                raise LatticeError(
                    f"set is not upward closed: contains {x!r} but not {sorted(missing)!r}")
        return LatticeValue(self, members)

    def carrier(self, cap: int = 16):
        n = len(self.poset.elements)
        if n > cap:
            raise LatticeError(f"up-set enumeration capped at {cap} poset elements")
        out = []
        for mask in range(1 << n):
            members = frozenset(self.poset.elements[i] for i in range(n) if mask >> i & 1)
            try:
                out.append(self.value_from_set(members))
            except LatticeError:
                continue
        out.sort(key=lambda v: (len(v.payload), format_value(v)))
        return out


def format_value(v: LatticeValue) -> str:
    return v.lattice.format(v)


# expression parser: NAME, '&' (binds tighter), '|', parentheses, literals
# 0 and 1; up-set lattices additionally accept explicit sets like {a,b}

_SYMBOLS = ("&", "|", "(", ")", "{", "}", ",")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(ch)
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in _SYMBOLS:
            j += 1
        tokens.append(text[i:j])
        i = j
    return tokens


class _Parser:
    def __init__(self, tokens, lattice):
        self.tokens = tokens
        self.pos = 0
        self.lattice = lattice

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise LatticeError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise LatticeError(f"expected {tok!r}, got {got!r}")

    def expr(self):
        terms = [self.term()]
        while self.peek() == "|":
            self.next()
            terms.append(self.term())
        return self.lattice.join(terms) if len(terms) > 1 else terms[0]

    def term(self):
        atoms = [self.atom()]
        while self.peek() == "&":
            self.next()
            atoms.append(self.atom())
        return self.lattice.meet(atoms) if len(atoms) > 1 else atoms[0]

    def atom(self):
        tok = self.next()
        if tok == "(":
            v = self.expr()
            self.expect(")")
            return v
        if tok == "{":
            if not isinstance(self.lattice, UpSetLattice):
                raise LatticeError("set syntax {..} is only valid in up-set lattices")
            names = []
            if self.peek() == "}":
                self.next()
                return self.lattice.bottom
            names.append(self.next())
            while self.peek() == ",":
                self.next()
                names.append(self.next())
            self.expect("}")
            return self.lattice.value_from_set(names)
        if tok in _SYMBOLS:
            raise LatticeError(f"unexpected {tok!r}")
        return self.lattice._atom(tok)


def parse_value(text: str, lattice: CdlLattice) -> LatticeValue:
    """Parse a lattice expression into a canonical value.

    >>> L = FreeDistributiveLattice(["x", "y"])
    >>> format_value(parse_value("y & x | x & y", L))
    'x & y'
    """
    tokens = _tokenize(text)
    if not tokens:
        raise LatticeError("empty expression")
    p = _Parser(tokens, lattice)
    v = p.expr()
    if p.peek() is not None:
        raise LatticeError(f"trailing input starting at {p.peek()!r}")
    return v


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
        return TotalOrder(spec.get("levels", ()))
    if kind == "fdl":
        return FreeDistributiveLattice(spec.get("generators", ()))
    if kind == "upset":
        return UpSetLattice(Poset(spec.get("elements", ()), spec.get("covers", ())))
    raise LatticeError(f"unknown lattice kind {kind!r}")


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
