"""Exact rational matrices: ranks, kernels, minors, Gale duals, permutation signs.

Entries are :class:`fractions.Fraction`; nothing here ever rounds.
``integer_rows`` clears each row of its denominators: ``det``, the
paired-minor scans in ``engine`` and the cocircuit normals in ``matroid``
take their integer rows from it. One fraction-free (Bareiss) elimination step,
``_eliminate``, serves both ``integer_det`` and ``integer_pivots``, which
finds a rank, a nonsingular square submatrix of that size and its
determinant. The other routines work over Fraction.
Matrices are immutable once constructed.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .errors import (NoComplement, NotGaleDual, ParseError, RankDeficient, ShapeMismatch,
                     SizeMismatch, VerificationFailed)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q". Decimal and exponent notation are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not an exact rational: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    return str(q)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


class RationalMatrix:
    """Dense matrix of exact rationals (row-major, immutable)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, rows=None, cols=None):
        grid = tuple(tuple(_coerce(e) for e in row) for row in entries)
        if rows is None:
            rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ShapeMismatch(f"expected {rows}x{cols} grid")
        self.rows = rows
        self.cols = cols
        self.entries = grid

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows=None) -> "RationalMatrix":
        columns = [tuple(_coerce(e) for e in c) for c in columns]
        if rows is None:
            rows = len(columns[0]) if columns else 0
        return cls([[c[i] for c in columns] for i in range(rows)], rows, len(columns))

    # -- access ---------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"RationalMatrix({[[str(e) for e in row] for row in self.entries]})"

    # -- algebra --------------------------------------------------------------

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.cols,
            self.rows,
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return RationalMatrix(
            [
                [
                    sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ],
            self.rows,
            other.cols,
        )

    def apply(self, vector):
        """Matrix-vector product over exact rationals."""
        vector = tuple(_coerce(v) for v in vector)
        if len(vector) != self.cols:
            raise ShapeMismatch(f"vector of length {len(vector)} for {self.rows}x{self.cols}")
        return tuple(
            sum((self.entries[i][j] * vector[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        return RationalMatrix(
            [[self.entries[i][j] for j in col_idx] for i in row_idx],
            len(row_idx),
            len(col_idx),
        )

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.entries for e in row)

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_rational(e) for e in row] for row in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalMatrix":
        try:
            rows = data["rows"]
            cols = data["cols"]
            entries = data["entries"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed matrix object: missing {exc}") from exc
        if not isinstance(rows, int) or not isinstance(cols, int):
            raise ParseError("matrix rows/cols must be integers")
        if len(entries) != rows:
            raise ParseError(f"expected {rows} rows, found {len(entries)}")
        grid = []
        for row in entries:
            if len(row) != cols:
                raise ParseError(f"expected {cols} entries per row, found {len(row)}")
            grid.append([parse_rational(e) for e in row])
        return cls(grid, rows, cols)

    @classmethod
    def from_json(cls, text: str) -> "RationalMatrix":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(data)


class IndexSet:
    """Sorted distinct 0-based indices into a ground set of declared size."""

    __slots__ = ("indices", "ground_size")

    def __init__(self, indices, ground_size: int):
        idx = tuple(sorted(set(int(i) for i in indices)))
        if len(idx) != len(tuple(indices)):
            raise SizeMismatch("repeated indices in IndexSet")
        if idx and (idx[0] < 0 or idx[-1] >= ground_size):
            raise SizeMismatch(f"index out of range for ground set of size {ground_size}")
        self.indices = idx
        self.ground_size = ground_size

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def __eq__(self, other):
        return (
            isinstance(other, IndexSet)
            and self.indices == other.indices
            and self.ground_size == other.ground_size
        )

    def __hash__(self):
        return hash((self.indices, self.ground_size))

    def __repr__(self):
        return f"IndexSet({list(self.indices)}, {self.ground_size})"

    def complement(self) -> "IndexSet":
        inside = set(self.indices)
        return IndexSet([i for i in range(self.ground_size) if i not in inside], self.ground_size)


# -- elimination --------------------------------------------------------------


def rref(M: RationalMatrix):
    """Reduced row-echelon form; returns (rref matrix, pivot column tuple)."""
    grid = [list(row) for row in M.entries]
    pivots = []
    pr = 0
    for pc in range(M.cols):
        pivot_row = next((i for i in range(pr, M.rows) if grid[i][pc] != 0), None)
        if pivot_row is None:
            continue
        grid[pr], grid[pivot_row] = grid[pivot_row], grid[pr]
        inv = grid[pr][pc]
        grid[pr] = [e / inv for e in grid[pr]]
        for i in range(M.rows):
            if i != pr and grid[i][pc] != 0:
                factor = grid[i][pc]
                grid[i] = [a - factor * b for a, b in zip(grid[i], grid[pr])]
        pivots.append(pc)
        pr += 1
        if pr == M.rows:
            break
    return RationalMatrix(grid, M.rows, M.cols), tuple(pivots)


def rank(M: RationalMatrix) -> int:
    return len(rref(M)[1])


def column_basis(C: RationalMatrix) -> RationalMatrix:
    """Independent columns spanning im(C), from one rref of C^T.

    C itself when its columns are independent, so that points drawn from the
    basis are the caller's; otherwise the nonzero rows of rref(C^T), transposed.
    """
    R, pivots = rref(C.transpose())
    if len(pivots) == C.cols:
        return C
    return RationalMatrix([R.entries[i] for i in range(len(pivots))], len(pivots), C.rows).transpose()


def kernel_basis(M: RationalMatrix) -> RationalMatrix:
    """Columns form a basis of ker(M); zero columns means trivial kernel."""
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [j for j in range(M.cols) if j not in pivot_set]
    columns = []
    for f in free:
        v = [Fraction(0)] * M.cols
        v[f] = Fraction(1)
        for row_i, pc in enumerate(pivots):
            v[pc] = -R.entries[row_i][f]
        columns.append(v)
    return RationalMatrix.from_columns(columns, rows=M.cols)


def _eliminate(grid, pivot_row, prev):
    """One Bareiss step: clear the first column of each row of grid with
    pivot_row and drop that column. Every division by the previous pivot prev
    is exact, so every entry stays an integer: after each step, each entry is
    the minor on the pivot rows and columns so far plus its own row and column.
    """
    p = pivot_row[0]
    return [[(p * a - row[0] * b) // prev for a, b in zip(row[1:], pivot_row[1:])] for row in grid]


def integer_det(grid) -> int:
    """Determinant of a square integer matrix, given as a list of rows, by
    fraction-free elimination (``_eliminate``). The empty matrix has
    determinant 1.
    """
    if not grid:
        return 1
    grid = list(grid)
    sign = 1
    prev = 1
    # each step eliminates the first column and drops the pivot row
    while len(grid) > 1:
        if grid[0][0] == 0:
            swap = next((i for i in range(1, len(grid)) if grid[i][0] != 0), None)
            if swap is None:
                return 0
            grid[0], grid[swap] = grid[swap], grid[0]
            sign = -sign
        pivot_row = grid[0]
        grid = _eliminate(grid[1:], pivot_row, prev)
        prev = pivot_row[0]
    return sign * grid[0][0]


def integer_pivots(grid):
    """(P, Q, d) for an integer matrix given as a list of rows: Q is the pivot
    columns of its rref, P is rows (increasing) such that the submatrix on rows
    P and columns Q is nonsingular, and d is its determinant; len(Q) is the
    rank. d = 1 when the rank is 0.

    The same fraction-free elimination as ``integer_det``, on each column in
    turn, skipping a column with no pivot. The last pivot is the determinant
    with the rows in the order they were taken, so d is it times the sign of
    that order.
    """
    rows = list(range(len(grid)))  # the index of each row not yet taken
    grid = list(grid)
    P, Q = [], []
    prev = 1
    for c in range(len(grid[0]) if grid else 0):
        k = next((i for i, row in enumerate(grid) if row[0] != 0), None)
        if k is None:
            grid = [row[1:] for row in grid]
            continue
        P.append(rows.pop(k))
        Q.append(c)
        pivot_row = grid.pop(k)
        grid = _eliminate(grid, pivot_row, prev)
        prev = pivot_row[0]
        if not grid:
            break
    inversions = sum(p > q for i, p in enumerate(P) for q in P[i + 1:])
    return sorted(P), Q, -prev if inversions % 2 else prev


def integer_rows(M: RationalMatrix):
    """(rows, scales): each row of M times the lcm of its denominators, as a
    list of integers, and that lcm, so M.row(i) = rows[i] / scales[i]."""
    rows, scales = [], []
    for row in M.entries:
        s = lcm(*(e.denominator for e in row))
        scales.append(s)
        rows.append([e.numerator * (s // e.denominator) for e in row])
    return rows, scales


def det(M: RationalMatrix) -> Fraction:
    """Exact determinant: ``integer_det`` of the integer rows, divided by the
    product of the row scales."""
    if M.rows != M.cols:
        raise SizeMismatch(f"determinant of {M.rows}x{M.cols} matrix")
    rows, scales = integer_rows(M)
    return Fraction(integer_det(rows), prod(scales))


def minor(M: RationalMatrix, I: IndexSet, J: IndexSet) -> Fraction:
    """det of the submatrix M_{I,J}; |I| must equal |J|."""
    if len(I) != len(J):
        raise SizeMismatch(f"minor needs |I| = |J|, got {len(I)} and {len(J)}")
    return det(M.submatrix(I, J))


def permutation_sign_tau(I: IndexSet, n: int) -> int:
    """Sign of the permutation sending 1..n to (sorted I^c, sorted I)."""
    if I.ground_size != n:
        raise SizeMismatch("IndexSet ground size disagrees with n")
    arrangement = list(I.complement()) + list(I)
    inversions = sum(
        1
        for a in range(len(arrangement))
        for b in range(a + 1, len(arrangement))
        if arrangement[a] > arrangement[b]
    )
    return -1 if inversions % 2 else 1


def _clear_row(row):
    """Scale a rational row to coprime integers with positive leading entry."""
    denom_lcm = 1
    for e in row:
        denom_lcm = denom_lcm * e.denominator // gcd(denom_lcm, e.denominator)
    ints = [int(e * denom_lcm) for e in row]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return [Fraction(v) for v in ints]


def gale_dual(C: RationalMatrix) -> RationalMatrix:
    """Z of shape (n-s) x n with im(C) = ker(Z), deterministic normalization."""
    n, s = C.rows, C.cols
    if rank(C) < s:
        raise RankDeficient(f"C has rank below its column count {s}")
    if s >= n:
        raise NoComplement("subspace is full-dimensional; no Gale dual exists")
    left_kernel = kernel_basis(C.transpose())  # columns w with w^T C = 0
    Z_raw = left_kernel.transpose()
    Z_rref, _ = rref(Z_raw)
    Z = RationalMatrix([_clear_row(row) for row in Z_rref.entries], Z_raw.rows, n)
    if not (Z @ C).is_zero() or rank(Z) != n - s:
        raise VerificationFailed("computed Gale dual does not have kernel im(C)")
    return Z


def verify_gale_relation(C: RationalMatrix, Z: RationalMatrix) -> Fraction:
    """The constant delta with delta*det(C_{I,[s]}) = tau(I)*det(Z_{[n-s],I^c}) for all I."""
    n, s = C.rows, C.cols
    if Z.cols != n or Z.rows != n - s:
        raise ShapeMismatch("Z must be (n-s) x n for C of shape n x s")
    full_s = IndexSet(range(s), s)
    full_ns = IndexSet(range(n - s), n - s)
    delta = None
    checks = []
    for combo in combinations(range(n), s):
        I = IndexSet(combo, n)
        lhs = minor(C, I, full_s)
        rhs = permutation_sign_tau(I, n) * minor(Z, full_ns, I.complement())
        checks.append((I, lhs, rhs))
        if delta is None and lhs != 0:
            if rhs == 0:
                raise NotGaleDual(f"det(C_I) nonzero but complementary det(Z) zero at I={list(I)}")
            delta = rhs / lhs
    if delta is None:
        raise NotGaleDual("all maximal minors of C vanish")
    for I, lhs, rhs in checks:
        if delta * lhs != rhs:
            raise NotGaleDual(f"Gale minor relation fails at I={list(I)}")
    return delta
