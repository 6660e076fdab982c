"""Exact linear algebra over Z and Z/p.

Smith normal form with transformation matrices, linear Diophantine systems,
and kernel bases (of a growing prefix of rows, by one column reduction).
All integer work uses Python's arbitrary-precision ints; fixed-width
overflow is not a failure mode.

Matrices are stored sparse: the non-zero entries of each row or of each
column, as dicts (see `ExactMatrix`). Every product and every elementary row
or column operation of the Smith reduction touches only the non-zeros of the
lines it combines, so the work follows the non-zero count: boundary matrices
and Smith transforms of simplicial complexes have a few non-zeros per line.
Zero terms contribute nothing to an exact sum, so results equal those of
dense loops with the same pivot rule and order of operations.

The elimination step of the Smith reduction is written once, on one side of
D (`_Side`): the row side carries P and P_inv, the column side Q and Q_inv,
and `snf` clears each pivot through both sides until neither swaps. A
caller names the transforms it reads (`snf(A, keep=...)`), and only those
are updated during the elimination; an unkept one is rebuilt by a second
elimination if it is ever read. The README's "Performance" section gives
measured times and their hardware.

A ring element is a canonical int (`ring.of(x) == x`), computed with int
arithmetic and reduced once by `ring.of`; a ring carries only what differs
between Z and Z/p.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Mapping


class IntegerRing:
    """The ring of integers. Elements are plain ints."""

    is_field = False
    name = "Z"

    def of(self, x):
        return int(x)

    def is_unit(self, a):
        return a == 1 or a == -1

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        return a

    def quo(self, a, b):
        """Quotient q minimizing |a - q*b| (nearest, ties toward floor)."""
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q += 1
        return q

    def divides(self, a, b):
        """True when a | b."""
        if a == 0:
            return b == 0
        return b % a == 0

    def exact_div(self, a, b):
        q, r = divmod(a, b)
        if r != 0:
            raise ValueError(f"{b} does not divide {a} exactly")
        return q

    def normalizer(self, a):
        """A unit u such that u*a is the canonical associate (non-negative)."""
        return -1 if a < 0 else 1

    def pivot_size(self, a):
        return abs(a)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "Z"


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Primality of n, exact for every n below _MILLER_RABIN_LIMIT."""
    if n < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Z/p for a prime p. Elements are canonical ints in [0, p)."""

    is_field = True

    def __init__(self, p: int):
        if p >= _MILLER_RABIN_LIMIT:
            raise ValueError(f"modulus {p} is too large (must be below {_MILLER_RABIN_LIMIT})")
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"Z/{p}"

    def of(self, x):
        return int(x) % self.p

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self.name}")
        return pow(a, -1, self.p)

    def divides(self, a, b):
        return a % self.p != 0 or b % self.p == 0

    def exact_div(self, a, b):
        return a * self.inv(b) % self.p

    quo = exact_div  # division leaves no remainder in a field

    def normalizer(self, a):
        return self.inv(a)

    def pivot_size(self, a):
        a %= self.p
        return min(a, self.p - a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Z/p", self.p))

    def __repr__(self):
        return self.name


ZZ = IntegerRing()


def parse_ring(text: str):
    """Parse a ring name: "z" for the integers, "zmod:<p>" for Z/p.

    >>> parse_ring("z")
    Z
    >>> parse_ring("zmod:5")
    Z/5
    """
    t = text.strip().lower()
    if t == "z":
        return ZZ
    if t.startswith("zmod:"):
        try:
            p = int(t[len("zmod:"):])
        except ValueError:
            raise ValueError(f"bad modulus in ring spec {text!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown ring spec {text!r} (expected 'z' or 'zmod:<p>')")


def format_ring(ring) -> str:
    if ring.is_field:
        return f"zmod:{ring.p}"
    return "z"


def _transpose(lines, n: int) -> tuple:
    """The other view of sparse lines: n dicts, one per index of the entries."""
    out = [{} for _ in range(n)]
    for j, line in enumerate(lines):
        for i, x in line.items():
            out[i][j] = x
    return tuple(out)


def _dense(line: dict, n: int) -> list:
    """A sparse line {index: entry} as a dense list of length n."""
    out = [0] * n
    for i, x in line.items():
        out[i] = x
    return out


class ExactMatrix:
    """Sparse matrix over an exact ring. Treated as an immutable value.

    Built from its non-zero entries, by rows (`by_rows[i]` is a dict
    {column: entry}) or by columns (`by_cols[j]`, {row: entry}) or both; the
    other view is built on first use in O(nnz) and kept. The entries must be
    canonical and non-zero (`ring.of(x) == x != 0`), which is not checked:
    `from_rows` is the checked way to build from dense rows. `data`, the
    dense row-major tuples, is built on first read too. The dicts are shared
    between matrices and must not be changed.

    >>> A = ExactMatrix.from_rows(ZZ, [[0, 2], [3, 0], [0, 0]])
    >>> A.by_rows
    ({1: 2}, {0: 3}, {})
    >>> A.by_cols
    ({1: 3}, {0: 2})
    >>> ExactMatrix(ZZ, 3, 2, by_cols=[{1: 3}, {0: 2}]) == A
    True
    """

    __slots__ = ("ring", "rows", "cols", "_by_rows", "_by_cols", "_dense")

    def __init__(self, ring, rows: int, cols: int, *, by_rows=None, by_cols=None):
        if by_rows is None and by_cols is None:
            raise ValueError("an ExactMatrix needs its lines by_rows or by_cols")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._by_rows = None if by_rows is None else tuple(by_rows)
        self._by_cols = None if by_cols is None else tuple(by_cols)
        self._dense = None

    @classmethod
    def from_rows(cls, ring, data, cols=None):
        """Build from dense rows: each entry is canonicalised by the ring and
        zeros are dropped. `cols` is required when there are no rows."""
        if cols is None:
            if not data:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("matrix data does not match declared shape")
        of = ring.of
        return cls(ring, len(data), cols,
                   by_rows=[{j: y for j, x in enumerate(row) if (y := of(x))} for row in data])

    @classmethod
    def identity(cls, ring, n: int):
        lines = tuple({i: 1} for i in range(n))
        return cls(ring, n, n, by_rows=lines, by_cols=lines)

    # Only a `_DeferredTransform` holds neither view; its first read fills one.

    @property
    def by_rows(self) -> tuple:
        if self._by_rows is None:
            if self._by_cols is None:
                self._rebuild()
                return self.by_rows
            self._by_rows = _transpose(self._by_cols, self.rows)
        return self._by_rows

    @property
    def by_cols(self) -> tuple:
        if self._by_cols is None:
            if self._by_rows is None:
                self._rebuild()
                return self.by_cols
            self._by_cols = _transpose(self._by_rows, self.cols)
        return self._by_cols

    @property
    def data(self) -> tuple:
        """The dense row-major view, built on first read."""
        if self._dense is None:
            self._dense = tuple(tuple(_dense(line, self.cols)) for line in self.by_rows)
        return self._dense

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """The product, line by line: by columns when both factors hold
        columns, else by rows. Only non-zero entries meet."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        if self._by_cols is not None and other._by_cols is not None:
            lines = _line_products(ring, other._by_cols, self._by_cols)
            return ExactMatrix(ring, self.rows, other.cols, by_cols=lines)
        lines = _line_products(ring, self.by_rows, other.by_rows)
        return ExactMatrix(ring, self.rows, other.cols, by_rows=lines)

    def apply(self, vec) -> list:
        """Matrix-vector product, from the columns at the non-zeros of vec."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        x = {j: v for j, v in enumerate(vec) if v}
        return _dense(_line_products(self.ring, [x], self.by_cols)[0], self.rows)

    def column_block(self, indices) -> "ExactMatrix":
        cols = self.by_cols
        block = [cols[j] for j in indices]
        return ExactMatrix(self.ring, self.rows, len(block), by_cols=block)

    def take_rows(self, indices) -> "ExactMatrix":
        rows = self.by_rows
        block = [rows[i] for i in indices]
        return ExactMatrix(self.ring, len(block), self.cols, by_rows=block)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.rows != self.rows:
            raise ValueError("row counts differ")
        if other.ring != self.ring:
            raise ValueError("rings differ")
        return ExactMatrix(self.ring, self.rows, self.cols + other.cols,
                           by_cols=self.by_cols + other.by_cols)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.cols != self.cols:
            raise ValueError("column counts differ")
        if other.ring != self.ring:
            raise ValueError("rings differ")
        return ExactMatrix(self.ring, self.rows + other.rows, self.cols,
                           by_rows=self.by_rows + other.by_rows)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.by_rows == other.by_rows)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols,
                     tuple(frozenset(line.items()) for line in self.by_rows)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ExactMatrix({self.ring}, {self.rows}x{self.cols}, [{body}])"


def _line_products(ring, lines, factor) -> list:
    """Each line of `lines` times the lines of `factor`: the row (or column)
    products sum_k line[k] * factor[k], keeping non-zero entries only.

    Entries are ints in both rings, so each sum is taken over the integers
    and, over Z/p, reduced mod p once.
    """
    p = ring.p if ring.is_field else 0
    out = []
    for line in lines:
        acc = {}
        for k, b in line.items():
            for i, a in factor[k].items():
                acc[i] = acc.get(i, 0) + b * a
        if p:
            out.append({i: y for i, x in acc.items() if (y := x % p)})
        else:
            out.append({i: x for i, x in acc.items() if x})
    return out


class SmithDecomposition(namedtuple("SmithDecomposition", "ring P P_inv Q Q_inv D rank invariant_factors")):
    """P @ A @ Q == D with D diagonal, d_1 | d_2 | ... | d_rank.

    P, Q, their exact inverses P_inv, Q_inv and D are ExactMatrix over
    `ring`; the inverses are there because the homology reduction consumes
    them directly. rank is an int, invariant_factors a tuple. A transform
    that `snf` was not asked to keep is a `_DeferredTransform`: it reads
    the same as a kept one, at the cost of one more elimination of A on
    first read.
    """

    __slots__ = ()

    def failing_row(self, b):
        """The solvability criterion of A x = b: None when solvable, else the
        first row where it fails, with c = P b as a sparse {row: entry} dict.

        b is a dense sequence (of length A.rows) or a sparse mapping {index:
        entry}. A x = b is solvable exactly when d_i | c_i for every i below
        the rank and c_i = 0 past it. c is summed from the columns of P at
        the non-zeros of b, and only its non-zero entries can fail
        (`first_failure`).
        """
        if not isinstance(b, Mapping):
            if len(b) != self.P.cols:
                raise ValueError("vector length does not match column count")
            b = {j: x for j, x in enumerate(b) if x}
        c = _line_products(self.ring, [b], self.P.by_cols)[0]
        return self.first_failure(c), c

    def first_failure(self, c):
        """The first row where c = P b, a sparse {row: entry} dict, fails the
        solvability criterion, or None. For b = e_j, c is column j of P."""
        divides, factors, rank = self.ring.divides, self.invariant_factors, self.rank
        bad = [i for i, x in c.items() if i >= rank or not divides(factors[i], x)]
        return min(bad) if bad else None


class _Side:
    """One side of a Smith reduction, as sparse lines; `snf` uses it twice.

    The row side holds D by rows (`lines`) and by columns (`mirror`), P by
    rows (`T`) and P_inv by columns (`T_inv`). The column side holds the
    same two views of D the other way round, Q by columns and Q_inv by rows.
    An operation on lines of D acts on the same lines of T, and inverted on
    lines of T_inv, so P @ A @ Q == D and the inverse pairs stay exact at
    every step. A transform that is not kept is None and costs nothing.
    Each operation touches only the non-zeros of the lines it combines.
    `clear` makes the operations that clear one pivot in a single loop, each
    line updated in place; `addmul` makes one such operation, for the
    divisibility sweep of `snf`.
    """

    def __init__(self, ring, lines: list, mirror: list, keep_T: bool, keep_T_inv: bool):
        self.ring = ring
        self.lines = lines
        self.mirror = mirror
        self.T = [{i: 1} for i in range(len(lines))] if keep_T else None
        self.T_inv = [{i: 1} for i in range(len(lines))] if keep_T_inv else None

    def swap(self, i, j):
        """Swap lines i and j; in the mirror, entries (k, i) and (k, j) trade places."""
        if i == j:
            return
        lines, mirror = self.lines, self.mirror
        li, lj = lines[i], lines[j]
        for k in li:
            del mirror[k][i]
        for k in lj:
            del mirror[k][j]
        for k, x in li.items():
            mirror[k][j] = x
        for k, x in lj.items():
            mirror[k][i] = x
        lines[i], lines[j] = lj, li
        for T in (self.T, self.T_inv):
            if T is not None:
                T[i], T[j] = T[j], T[i]

    def addmul(self, i, j, c):
        """line_i += c * line_j (i != j, c an int); inverse: T_inv line j -= c * line i."""
        if not c:
            return
        ring = self.ring
        _addmul(ring, self.lines[i], self.lines[j], c, self.mirror, i)
        if self.T is not None:
            _addmul(ring, self.T[i], self.T[j], c)
        if self.T_inv is not None:
            _addmul(ring, self.T_inv[j], self.T_inv[i], -c)

    def scale(self, i, u):
        """line_i *= u for a unit u."""
        of = self.ring.of
        line = self.lines[i]
        for k, x in line.items():
            line[k] = self.mirror[k][i] = of(u * x)
        if self.T is not None:
            _scale(of, self.T[i], u)
        if self.T_inv is not None:
            _scale(of, self.T_inv[i], self.ring.inv(u))

    def clear(self, t) -> bool:
        """Clear the entries at t of the lines past t, in order (clearing one
        changes no other line). True once a non-zero remainder, strictly
        smaller than the pivot, has been swapped in as the new pivot.

        Each line i is cleared by `addmul(i, t, c)` written out in one loop:
        D's line with its mirror entries, T's line and T_inv's line. For a
        unit pivot, c = -x * pivot^-1 (reduced mod p over Z/p, as `ring.quo`
        gives it) leaves no remainder; otherwise c = -quo(x, pivot).
        """
        ring, lines, mirror, T, T_inv = self.ring, self.lines, self.mirror, self.T, self.T_inv
        p = ring.p if ring.is_field else 0
        source = lines[t]
        pivot = source[t]
        inv = ring.inv(pivot) if ring.is_unit(pivot) else None
        for i in sorted(i for i in mirror[t] if i > t):
            target = lines[i]
            x = target[t]
            if inv is None:
                c = -ring.quo(x, pivot)
            else:
                c = -(x * inv % p) if p else -x * inv
            for k, y in source.items():
                v = target.get(k, 0) + c * y
                if p:
                    v %= p
                if v:
                    target[k] = mirror[k][i] = v
                elif k in target:
                    del target[k]
                    del mirror[k][i]
            if T is not None:
                line = T[i]
                for k, y in T[t].items():
                    v = line.get(k, 0) + c * y
                    if p:
                        v %= p
                    if v:
                        line[k] = v
                    elif k in line:
                        del line[k]
            if T_inv is not None:
                line = T_inv[t]
                for k, y in T_inv[i].items():
                    v = line.get(k, 0) - c * y
                    if p:
                        v %= p
                    if v:
                        line[k] = v
                    elif k in line:
                        del line[k]
            if inv is None and t in target:
                self.swap(t, i)
                return True
        return False


def find_pivot(ring, rows: list, t, live: list):
    """Smallest non-zero entry of D[t:, t:] by (|entry|, row, col), from D's rows.

    Rows t.. are zero left of column t, as every earlier pivot row and
    column is cleared. `live` is a sorted list of row indices that holds
    every non-empty row past t - 1; only those rows are scanned, and the
    scanned rows found empty are dropped from it. Rows are scanned in order,
    and the scan stops after the first row holding an entry of size 1: no
    non-zero entry is smaller, and every later entry comes after it in
    (row, col).
    """
    size = ring.pivot_size
    best = None
    k = start = bisect_left(live, t)
    while k < len(live):
        i = live[k]
        k += 1
        for j, x in rows[i].items():
            key = (size(x), i, j)
            if best is None or key < best:
                best = key
        if best is not None and best[0] == 1:
            break
    live[start:k] = [i for i in live[start:k] if rows[i]]
    return None if best is None else best[1:]


def _addmul(ring, target: dict, source: dict, c, mirror=None, index=None) -> None:
    """target += c * source on sparse lines; `mirror` is the other view of
    the same matrix, where entry (k, index) follows each change. Entries
    are ints in both rings; over Z/p each new entry is reduced mod p."""
    p = ring.p if ring.is_field else 0
    for k, x in source.items():
        v = target.get(k, 0) + c * x
        if p:
            v %= p
        if v:
            target[k] = v
            if mirror is not None:
                mirror[k][index] = v
        elif k in target:
            del target[k]
            if mirror is not None:
                del mirror[k][index]


def _scale(of, line: dict, v) -> None:
    for k, x in line.items():
        line[k] = of(v * x)


_TRANSFORMS = ("P", "P_inv", "Q", "Q_inv")
_TRANSFORM_NAMES = frozenset(_TRANSFORMS)
_BY_ROWS = (True, False, False, True)  # P and Q_inv are held by rows, P_inv and Q by columns


def snf(A: ExactMatrix, keep=_TRANSFORMS) -> SmithDecomposition:
    """Smith normal form with transformation matrices.

    Pivot rule: the non-zero entry of minimal absolute value in the remaining
    submatrix, ties broken by smallest (row, col). Deterministic. Each pivot
    is cleared from its column (the row side) and its row (the column side)
    until neither side swaps in a smaller remainder.

    `keep` names the transforms ("P", "P_inv", "Q", "Q_inv") the elimination
    tracks; the default is all four. An unkept transform is not computed:
    it is a `_DeferredTransform`, which one more elimination of A fills when
    any unkept transform of this form is first read. The pivots depend on D
    alone, so it equals the transform a full `snf(A)` returns.

    >>> A = ExactMatrix.from_rows(ZZ, [[2, 0], [0, 3]])
    >>> s = snf(A, keep=("P",))
    >>> s.invariant_factors
    (1, 6)
    >>> s.Q == snf(A).Q
    True
    """
    if not _TRANSFORM_NAMES.issuperset(keep):
        raise ValueError(f"keep names {sorted(set(keep) - _TRANSFORM_NAMES)}; "
                         f"the transforms are {', '.join(_TRANSFORMS)}")
    ring = A.ring
    m, n = A.rows, A.cols
    Dr, Dc, rank, lines = _eliminate(A, keep)
    unkept = tuple(name for name, line in zip(_TRANSFORMS, lines) if line is None)
    shared = [A, unkept] if unkept else None
    P, P_inv, Q, Q_inv = (
        _DeferredTransform(ring, size, shared, k) if line is None
        else ExactMatrix(ring, size, size, by_rows=line) if _BY_ROWS[k]
        else ExactMatrix(ring, size, size, by_cols=line)
        for k, (size, line) in enumerate(zip((m, m, n, n), lines)))
    return SmithDecomposition(
        ring=ring, P=P, P_inv=P_inv, Q=Q, Q_inv=Q_inv,
        D=ExactMatrix(ring, m, n, by_rows=Dr, by_cols=Dc),
        rank=rank,
        invariant_factors=tuple(Dr[i][i] for i in range(rank)),
    )


def _eliminate(A: ExactMatrix, keep) -> tuple:
    """The elimination behind `snf`: (D by rows, D by columns, rank, lines),
    where `lines` holds P by rows, P_inv by columns, Q by columns and Q_inv
    by rows, and None for each transform that `keep` does not name."""
    ring = A.ring
    m, n = A.rows, A.cols
    Dr = [dict(line) for line in A.by_rows]
    Dc = [dict(line) for line in A.by_cols]
    rows = _Side(ring, Dr, Dc, "P" in keep, "P_inv" in keep)
    cols = _Side(ring, Dc, Dr, "Q" in keep, "Q_inv" in keep)
    # No row past t turns non-empty: row clearing adds the pivot row only to
    # rows non-zero at column t, column clearing changes only row t, and a
    # swap moves a non-empty row onto a live one. So `live` never gains a row.
    live = [i for i in range(m) if Dr[i]]
    t = 0
    while t < min(m, n):
        pos = find_pivot(ring, Dr, t, live)
        if pos is None:
            break
        rows.swap(t, pos[0])
        cols.swap(t, pos[1])
        while True:
            while rows.clear(t) or cols.clear(t):
                pass
            # pivot must divide the rest of the submatrix for the chain
            # d_i | d_{i+1}; a unit divides everything, and every entry
            # divides 0. Rows past t are now zero up to column t.
            pivot = Dr[t][t]
            if ring.is_unit(pivot):
                break
            bad = next((i for i in live if i > t
                        and any(not ring.divides(pivot, x) for x in Dr[i].values())), None)
            if bad is None:
                break
            rows.addmul(t, bad, 1)
        u = ring.normalizer(Dr[t][t])
        if u != 1:
            rows.scale(t, u)
        t += 1
    return Dr, Dc, t, (rows.T, rows.T_inv, cols.T, cols.T_inv)


class _DeferredTransform(ExactMatrix):
    """A square Smith transform that `snf` did not keep, held with neither
    view of its lines until one is read.

    The unkept transforms of one Smith form share one list, [A, names of
    the unkept transforms]. The first read of any of them reruns the
    elimination of A for those transforms only, and the list becomes
    [None, their lines]; each transform then takes its own lines from it.
    """

    __slots__ = ("_shared", "_index")

    def __init__(self, ring, n: int, shared: list, index: int):
        self.ring = ring
        self.rows = self.cols = n
        self._by_rows = self._by_cols = self._dense = None
        self._shared = shared
        self._index = index

    def _rebuild(self) -> None:
        shared, k = self._shared, self._index
        if shared[0] is not None:
            A, names = shared
            shared[:] = [None, list(_eliminate(A, names)[3])]
        lines = shared[1]
        if _BY_ROWS[k]:
            self._by_rows = tuple(lines[k])
        else:
            self._by_cols = tuple(lines[k])
        lines[k] = None
        self._shared = None


class DiophantineSolution(namedtuple("DiophantineSolution",
                                     "solvable particular homogeneous_basis certificate_row",
                                     defaults=(None,))):
    """Solution set of A x = b over the ring.

    When solvable (a bool), every solution is the tuple particular + a ring
    combination of the tuples in homogeneous_basis. Otherwise particular is
    None and certificate_row (an int; default None) names a row of the Smith
    form where the solvability criterion fails (divisibility, or a non-zero
    entry past the rank).
    """

    __slots__ = ()


def nested_kernels(A: ExactMatrix, batches):
    """Kernel bases of A restricted to a growing prefix of its rows.

    `batches` is a sequence of row-index lists. The k-th basis yielded spans
    the kernel of A restricted to the rows of batches 0..k, as sparse
    columns {index: entry} (copies of columns of Q). A batch is reduced only
    when its basis is asked for.

    One column reduction serves every prefix. It keeps G = A Q on the rows
    of the batches, and the unimodular Q, as sparse columns, and feeds the
    rows in order. A column is active while it is zero on every processed
    row. At a row, the active columns that are non-zero there are reduced
    among themselves by Euclid's algorithm (pivot of least size, ties to the
    lowest column) until one is left, and that one retires. Combinations of
    active columns stay zero on the processed rows, and the retired columns
    are in echelon form on them, with one pivot row each. So a kernel vector
    Q y of the prefix has y zero on every retired column, and the active
    columns of Q are a basis of the kernel: over a PID too, as Q is
    unimodular. Only active columns are ever changed.
    """
    ring = A.ring
    quo, size = ring.quo, ring.pivot_size
    n = A.cols
    batches = [list(batch) for batch in batches]
    G = [{} for _ in range(n)]
    R = {}  # the fed rows of G, by row
    for batch in batches:
        for i in batch:
            if i in R:
                continue  # a repeated row adds no condition
            R[i] = dict(A.by_rows[i])
            for j, x in R[i].items():
                G[j][i] = x
    Q = [{j: 1} for j in range(n)]
    active = set(range(n))
    for batch in batches:
        for r in batch:
            cols = sorted(R[r].keys() & active)
            while len(cols) > 1:
                p = min(cols, key=lambda j: (size(G[j][r]), j))
                a = G[p][r]
                left = [p]
                for j in cols:
                    if j != p:
                        c = -quo(G[j][r], a)
                        _addmul(ring, G[j], G[p], c, R, j)
                        _addmul(ring, Q[j], Q[p], c)
                        if r in G[j]:
                            left.append(j)
                cols = sorted(left)
            active.difference_update(cols)
        yield [dict(Q[j]) for j in sorted(active)]


def kernel(A: ExactMatrix) -> list:
    """Basis of ker A, as sparse columns: `nested_kernels` with every row in
    one batch.

    The basis is saturated over Z: the basis vectors are columns of a
    unimodular matrix.
    """
    return next(nested_kernels(A, [range(A.rows)]))


def solve(A: ExactMatrix, b) -> DiophantineSolution:
    """Solve the linear system A x = b exactly via the Smith form P A Q = D:
    x = Q y with y_i = c_i / d_i for c = P b."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length does not match row count")
    S, ring = snf(A, ("P", "Q")), A.ring
    row, c = S.failing_row(b)
    hom = tuple(tuple(_dense(S.Q.by_cols[j], A.cols)) for j in range(S.rank, A.cols))
    if row is not None:
        return DiophantineSolution(False, None, hom, certificate_row=row)
    y = [ring.exact_div(c.get(i, 0), d) for i, d in enumerate(S.invariant_factors)]
    return DiophantineSolution(True, tuple(S.Q.apply(y + [0] * (A.cols - S.rank))), hom)
