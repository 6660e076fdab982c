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
dense loops with the same pivot rule and order of operations. Measured
envelope (Python 3.11 on a 2-vCPU Xeon KVM guest): reducing a
Vietoris-Rips 2-complex over Z takes 0.04 s at 865 simplices, 0.26 s at
2835 and 0.47 s at 4687 simplices, with 36 MB peak RSS at the largest.
"""

from __future__ import annotations

from dataclasses import dataclass


class IntegerRing:
    """The ring of integers. Elements are plain ints."""

    is_field = False
    name = "Z"

    def of(self, x):
        return int(x)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a == 1 or a == -1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

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

    def is_zero(self, a):
        return a % self.p == 0

    def is_unit(self, a):
        return a % self.p != 0

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self.name}")
        return pow(a, -1, self.p)

    def quo(self, a, b):
        # exact division: remainder is always zero in a field
        return self.mul(a, self.inv(b))

    def divides(self, a, b):
        return a % self.p != 0 or b % self.p == 0

    def exact_div(self, a, b):
        return self.mul(a, self.inv(b))

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


def _check_shape(rows: int, cols: int, data) -> None:
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("matrix data does not match declared shape")


def _transpose(lines, n: int) -> tuple:
    """The other view of sparse lines: n dicts, one per index of the entries."""
    out = [{} for _ in range(n)]
    for j, line in enumerate(lines):
        for i, x in line.items():
            out[i][j] = x
    return tuple(out)


class ExactMatrix:
    """Sparse matrix over an exact ring. Treated as an immutable value.

    The non-zero entries are held by rows (`by_rows[i]` is a dict
    {column: entry}) or by columns (`by_cols[j]`, {row: entry}); the other
    view is built on first use in O(nnz) and kept. `data`, the dense
    row-major tuples, is built the same way. The dicts are shared between
    matrices and must not be changed.

    >>> A = ExactMatrix.from_rows(ZZ, [[0, 2], [3, 0], [0, 0]])
    >>> A.by_rows
    ({1: 2}, {0: 3}, {})
    >>> A.by_cols
    ({1: 3}, {0: 2})
    """

    __slots__ = ("ring", "rows", "cols", "_by_rows", "_by_cols", "_dense")

    def __init__(self, ring, rows: int, cols: int, data):
        _check_shape(rows, cols, data)
        of = ring.of
        lines = []
        for row in data:
            line = {}
            for j, x in enumerate(row):
                x = of(x)
                if x:
                    line[j] = x
            lines.append(line)
        self._set(ring, rows, cols, tuple(lines), None)

    def _set(self, ring, rows, cols, by_rows, by_cols) -> None:
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self._by_rows = by_rows
        self._by_cols = by_cols
        self._dense = None

    @classmethod
    def _lines(cls, ring, rows: int, cols: int, by_rows=None, by_cols=None) -> "ExactMatrix":
        """Build from sparse lines of canonical non-zero entries (one view or both)."""
        self = object.__new__(cls)
        self._set(ring, rows, cols,
                  None if by_rows is None else tuple(by_rows),
                  None if by_cols is None else tuple(by_cols))
        return self

    @classmethod
    def from_rows(cls, ring, data, cols=None):
        rows = len(data)
        if cols is None:
            if rows == 0:
                raise ValueError("cols is required for a matrix with no rows")
            cols = len(data[0])
        return cls(ring, rows, cols, data)

    @classmethod
    def identity(cls, ring, n: int):
        lines = tuple({i: 1} for i in range(n))
        return cls._lines(ring, n, n, lines, lines)

    @classmethod
    def zeros(cls, ring, rows: int, cols: int):
        return cls._lines(ring, rows, cols, [{} for _ in range(rows)], [{} for _ in range(cols)])

    @property
    def by_rows(self) -> tuple:
        if self._by_rows is None:
            self._by_rows = _transpose(self._by_cols, self.rows)
        return self._by_rows

    @property
    def by_cols(self) -> tuple:
        if self._by_cols is None:
            self._by_cols = _transpose(self._by_rows, self.cols)
        return self._by_cols

    @property
    def data(self) -> tuple:
        """The dense row-major view, built on first read."""
        if self._dense is None:
            dense = []
            for line in self.by_rows:
                row = [0] * self.cols
                for j, x in line.items():
                    row[j] = x
                dense.append(tuple(row))
            self._dense = tuple(dense)
        return self._dense

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """The product, line by line: by columns when both factors hold
        columns, else by rows. Only non-zero entries meet."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        if self._by_cols is not None and other._by_cols is not None:
            lines = _line_products(ring, other._by_cols, self._by_cols)
            return ExactMatrix._lines(ring, self.rows, other.cols, by_cols=lines)
        lines = _line_products(ring, self.by_rows, other.by_rows)
        return ExactMatrix._lines(ring, self.rows, other.cols, by_rows=lines)

    def apply(self, vec) -> list:
        """Matrix-vector product, from the columns at the non-zeros of vec."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        ring = self.ring
        of, add, mul = ring.of, ring.add, ring.mul
        out = [0] * self.rows
        for line, x in zip(self.by_cols, vec):
            if x:
                x = of(x)
                for i, a in line.items():
                    out[i] = add(out[i], mul(a, x))
        return out

    def col(self, j: int) -> list:
        out = [0] * self.rows
        for i, x in self.by_cols[j].items():
            out[i] = x
        return out

    def column_block(self, indices) -> "ExactMatrix":
        cols = self.by_cols
        block = [cols[j] for j in indices]
        return ExactMatrix._lines(self.ring, self.rows, len(block), by_cols=block)

    def take_rows(self, indices) -> "ExactMatrix":
        rows = self.by_rows
        block = [rows[i] for i in indices]
        return ExactMatrix._lines(self.ring, len(block), self.cols, by_rows=block)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.rows != self.rows:
            raise ValueError("row counts differ")
        if other.ring != self.ring:
            raise ValueError("rings differ")
        return ExactMatrix._lines(self.ring, self.rows, self.cols + other.cols,
                                  by_cols=self.by_cols + other.by_cols)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.cols != self.cols:
            raise ValueError("column counts differ")
        if other.ring != self.ring:
            raise ValueError("rings differ")
        return ExactMatrix._lines(self.ring, self.rows + other.rows, self.cols,
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
    and reduced into the ring once.
    """
    of = ring.of
    out = []
    for line in lines:
        acc = {}
        for k, b in line.items():
            for i, a in factor[k].items():
                acc[i] = acc.get(i, 0) + b * a
        out.append({i: y for i, x in acc.items() if (y := of(x))})
    return out


@dataclass(frozen=True)
class SmithDecomposition:
    """P @ A @ Q == D with D diagonal, d_1 | d_2 | ... | d_rank.

    P and Q are invertible over the ring; their exact inverses are carried
    along because the homology reduction consumes them directly.
    """

    ring: object
    P: ExactMatrix
    P_inv: ExactMatrix
    Q: ExactMatrix
    Q_inv: ExactMatrix
    D: ExactMatrix
    rank: int
    invariant_factors: tuple

    def failing_row(self, b):
        """The solvability criterion of A x = b: None when solvable, else the
        first row where it fails, with c = P b.

        A x = b is solvable exactly when d_i | c_i for every i below the rank
        and c_i = 0 past it. c is summed from the columns of P at the
        non-zeros of b, and only its non-zero entries can fail.
        """
        ring = self.ring
        c = self.P.apply(b)
        factors = self.invariant_factors
        for i, x in enumerate(c):
            if x and (i >= self.rank or not ring.divides(factors[i], x)):
                return i, c
        return None, c

    def solve(self, b) -> DiophantineSolution:
        """Solve A x = b for the factored A: x = Q y with y_i = c_i / d_i."""
        ring = self.ring
        row, c = self.failing_row(b)
        cols = self.Q.rows
        hom = tuple(tuple(self.Q.col(j)) for j in range(self.rank, cols))
        if row is not None:
            return DiophantineSolution(False, None, hom, certificate_row=row)
        y = [ring.of(0)] * cols
        for i, d in enumerate(self.invariant_factors):
            y[i] = ring.exact_div(c[i], d)
        return DiophantineSolution(True, tuple(self.Q.apply(y)), hom)


class _Worker:
    """Mutable state for one Smith reduction, as sparse lines.

    Row operations act on D and P (left) and on P_inv (right, inverted);
    column operations act on D and Q (right) and on Q_inv (left, inverted),
    so P @ A @ Q == D and the inverse pairs stay exact at every step. D is
    held both by rows (`Dr`) and by columns (`Dc`); P and Q_inv by rows,
    P_inv and Q by columns. Each operation then touches only the non-zeros
    of the two lines it combines.
    """

    def __init__(self, A: ExactMatrix):
        self.ring = A.ring
        self.m = A.rows
        self.n = A.cols
        self.Dr = [dict(line) for line in A.by_rows]
        self.Dc = [dict(line) for line in A.by_cols]
        self.P = [{i: 1} for i in range(A.rows)]
        self.Pi = [{i: 1} for i in range(A.rows)]
        self.Q = [{j: 1} for j in range(A.cols)]
        self.Qi = [{j: 1} for j in range(A.cols)]

    def row_swap(self, i, j):
        if i == j:
            return
        _swap(self.Dr, i, j, self.Dc)
        self.P[i], self.P[j] = self.P[j], self.P[i]
        self.Pi[i], self.Pi[j] = self.Pi[j], self.Pi[i]

    def col_swap(self, i, j):
        if i == j:
            return
        _swap(self.Dc, i, j, self.Dr)
        self.Q[i], self.Q[j] = self.Q[j], self.Q[i]
        self.Qi[i], self.Qi[j] = self.Qi[j], self.Qi[i]

    def row_addmul(self, i, j, c):
        """row_i += c * row_j (i != j)."""
        ring = self.ring
        if ring.is_zero(c):
            return
        _addmul(ring, self.Dr[i], self.Dr[j], c, self.Dc, i)
        _addmul(ring, self.P[i], self.P[j], c)
        # inverse update: column j -= c * column i
        _addmul(ring, self.Pi[j], self.Pi[i], ring.neg(c))

    def col_addmul(self, j, k, c):
        """col_j += c * col_k (j != k)."""
        ring = self.ring
        if ring.is_zero(c):
            return
        _addmul(ring, self.Dc[j], self.Dc[k], c, self.Dr, j)
        _addmul(ring, self.Q[j], self.Q[k], c)
        # inverse update: row k -= c * row j
        _addmul(ring, self.Qi[k], self.Qi[j], ring.neg(c))

    def row_scale(self, i, u):
        """row_i *= u for a unit u."""
        ring = self.ring
        mul = ring.mul
        ui = ring.inv(u)
        ri = self.Dr[i]
        for k, x in ri.items():
            ri[k] = self.Dc[k][i] = mul(u, x)
        pi = self.P[i]
        for k, x in pi.items():
            pi[k] = mul(u, x)
        col = self.Pi[i]
        for k, x in col.items():
            col[k] = mul(ui, x)

    def find_pivot(self, t):
        """Smallest non-zero entry of D[t:, t:] by (|entry|, row, col).

        Rows t.. are zero left of column t, as every earlier pivot row and
        column is cleared. Rows are scanned in order, and the scan stops
        after the first row holding an entry of size 1: no non-zero entry is
        smaller, and every later entry comes after it in (row, col).
        """
        size = self.ring.pivot_size
        best = None
        for i in range(t, self.m):
            for j, x in self.Dr[i].items():
                key = (size(x), i, j)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] == 1:
                break
        return None if best is None else best[1:]


def _swap(lines: list, i, j, mirror: list) -> None:
    """Swap lines i and j of one view of a matrix; `mirror` is the other
    view, where entries (k, i) and (k, j) trade places."""
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


def snf(A: ExactMatrix) -> SmithDecomposition:
    """Smith normal form with transformation matrices.

    Pivot rule: the non-zero entry of minimal absolute value in the remaining
    submatrix, ties broken by smallest (row, col). Deterministic.

    >>> s = snf(ExactMatrix.from_rows(ZZ, [[2, 0], [0, 3]]))
    >>> s.invariant_factors
    (1, 6)
    """
    ring = A.ring
    w = _Worker(A)
    m, n = w.m, w.n
    Dr, Dc = w.Dr, w.Dc
    t = 0
    while t < min(m, n):
        pos = w.find_pivot(t)
        if pos is None:
            break
        w.row_swap(t, pos[0])
        w.col_swap(t, pos[1])
        while True:
            restart = False
            # rows below t with a non-zero in column t, in order; clearing
            # one changes no other row
            for i in sorted(i for i in Dc[t] if i > t):
                q = ring.quo(Dr[i][t], Dr[t][t])
                w.row_addmul(i, t, ring.neg(q))
                if t in Dr[i]:
                    # non-zero remainder is strictly smaller; make it the pivot
                    w.row_swap(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in sorted(j for j in Dr[t] if j > t):
                q = ring.quo(Dr[t][j], Dr[t][t])
                w.col_addmul(j, t, ring.neg(q))
                if j in Dr[t]:
                    w.col_swap(t, j)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the rest of the submatrix for the chain
            # d_i | d_{i+1}; a unit divides everything, and every entry
            # divides 0. Rows past t are now zero up to column t.
            pivot = Dr[t][t]
            if ring.is_unit(pivot):
                break
            bad = next((i for i in range(t + 1, m)
                        if any(not ring.divides(pivot, x) for x in Dr[i].values())), None)
            if bad is None:
                break
            w.row_addmul(t, bad, ring.of(1))
        u = ring.normalizer(Dr[t][t])
        if not ring.is_zero(ring.sub(u, ring.of(1))):
            w.row_scale(t, u)
        t += 1
    return SmithDecomposition(
        ring=ring,
        P=ExactMatrix._lines(ring, m, m, by_rows=w.P),
        P_inv=ExactMatrix._lines(ring, m, m, by_cols=w.Pi),
        Q=ExactMatrix._lines(ring, n, n, by_cols=w.Q),
        Q_inv=ExactMatrix._lines(ring, n, n, by_rows=w.Qi),
        D=ExactMatrix._lines(ring, m, n, by_rows=Dr, by_cols=Dc),
        rank=t,
        invariant_factors=tuple(Dr[i][i] for i in range(t)),
    )


@dataclass(frozen=True)
class DiophantineSolution:
    """Solution set of A x = b over the ring.

    When solvable, every solution is particular + a ring combination of
    homogeneous_basis. certificate_row names a row of the Smith form where
    the solvability criterion fails (divisibility, or a non-zero entry past
    the rank).
    """

    solvable: bool
    particular: tuple | None
    homogeneous_basis: tuple
    certificate_row: int | None = None


def nested_kernels(A: ExactMatrix, batches):
    """Kernel bases of A restricted to a growing prefix of its rows.

    `batches` is a sequence of row-index lists. The k-th basis yielded spans
    the kernel of A restricted to the rows of batches 0..k, as dense
    vectors. A batch is reduced only when its basis is asked for.

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
    neg, quo, size = ring.neg, ring.quo, ring.pivot_size
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
                        c = neg(quo(G[j][r], a))
                        _addmul(ring, G[j], G[p], c, R, j)
                        _addmul(ring, Q[j], Q[p], c)
                        if r in G[j]:
                            left.append(j)
                cols = sorted(left)
            active.difference_update(cols)
        basis = []
        for j in sorted(active):
            vec = [0] * n
            for i, x in Q[j].items():
                vec[i] = x
            basis.append(vec)
        yield basis


def kernel(A: ExactMatrix) -> list:
    """Basis of ker A: `nested_kernels` with every row in one batch.

    The basis is saturated over Z: the basis vectors are columns of a
    unimodular matrix.
    """
    return next(nested_kernels(A, [range(A.rows)]))


def solve(A: ExactMatrix, b) -> DiophantineSolution:
    """Solve the linear system A x = b exactly via the Smith form."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length does not match row count")
    return snf(A).solve(b)
