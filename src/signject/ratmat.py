"""Exact rational matrices: ranks, kernels, minors, Gale duals, permutation signs.

Entries are :class:`fractions.Fraction`; nothing here ever rounds.
``integer_rows`` clears each row of its denominators, and every elimination
runs on those integer rows. ``integer_rref`` is one fraction-free
Gauss-Jordan elimination: it gives the reduced form, the pivots and their
determinant, and is behind ``rref``, ``rank``, ``maximal_minors`` and the
factorization of the paired-minor scan in ``engine``. ``rref`` is behind
``row_basis``, ``column_basis``, ``kernel_basis`` and ``gale_dual``, and no
other module calls it. ``integer_det``, the same elimination run forward
only, is behind ``det`` alone, and no other module names it.
``maximal_minors`` gives every nonzero maximal minor of an integer matrix in
one Laplace expansion, row by row, of its reduced form, which is also an
echelon form, so that no intermediate level holds more minors than the table;
the paired-minor scan (at rank s) and the det-polynomial scan in ``engine``,
the cocircuits in ``matroid`` and ``verify_gale_relation`` read every minor
from such tables. ``integer_monomial`` is the one exact x^B: the steady-state
grid in ``crn`` and the integral-B sampling oracle evaluate their monomials
with it. The matrix product also runs on integer rows: the integer dot
products of the rows of one factor with the columns of the other, over their
scales. Matrices are immutable once constructed.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .errors import (NoComplement, NotGaleDual, ParseError, RankDeficient, ShapeMismatch,
                     SizeMismatch, VerificationFailed)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q". Decimal and exponent notation are rejected."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"not an exact rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None


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
        # row i of self is rows[i] / s_i and column j of other is columns[j] / t_j,
        # so entry (i, j) is their integer dot product over s_i * t_j
        rows, row_scales = integer_rows(self)
        columns, column_scales = integer_rows(other.transpose())
        # only a row's nonzero entries add to its dot products
        terms = [[(k, a) for k, a in enumerate(row) if a] for row in rows]
        return RationalMatrix(
            [
                [Fraction(sum(a * column[k] for k, a in row), s * t) for column, t in zip(columns, column_scales)]
                for row, s in zip(terms, row_scales)
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
            "entries": [[str(e) for e in row] for row in self.entries],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RationalMatrix":
        try:
            rows = data["rows"]
            cols = data["cols"]
            entries = data["entries"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed matrix object: missing {exc}") from exc
        # type(...) is int: JSON true and false are bools, which are ints
        if type(rows) is not int or type(cols) is not int:
            raise ParseError("matrix rows/cols must be integers")
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise ParseError("matrix entries must be a list of rows, each a list")
        if len(entries) != rows:
            raise ParseError(f"expected {rows} rows, found {len(entries)}")
        for row in entries:
            if len(row) != cols:
                raise ParseError(f"expected {cols} entries per row, found {len(row)}")
            for e in row:
                # a JSON integer reads as its "p" string does
                if type(e) is not int and not isinstance(e, str):
                    raise ParseError(f"matrix entries are \"p/q\" strings or integers, not {e!r}")
        return cls(entries, rows, cols)


# -- elimination --------------------------------------------------------------


def rref(M: RationalMatrix):
    """Reduced row-echelon form; returns (rref matrix, pivot column tuple).

    ``integer_rref`` of the integer rows of M, divided by its d: scaling a row
    does not change the rref, which is unique.
    """
    rows, _, Q, d = integer_rref(integer_rows(M)[0])
    return RationalMatrix([[Fraction(a, d) for a in row] for row in rows], M.rows, M.cols), tuple(Q)


def rank(M: RationalMatrix) -> int:
    """The number of pivots ``integer_rref`` takes on the integer rows of M."""
    return len(integer_rref(integer_rows(M)[0])[2])


def row_basis(M: RationalMatrix) -> RationalMatrix:
    """The nonzero rows of rref(M): independent rows with the same row space,
    so the same kernel, as M."""
    R, pivots = rref(M)
    return RationalMatrix(R.entries[:len(pivots)], len(pivots), M.cols)


def column_basis(C: RationalMatrix) -> RationalMatrix:
    """Independent columns spanning im(C), from one rref of C^T.

    C itself when its columns are independent, so that points drawn from the
    basis are the caller's; otherwise ``row_basis(C^T)``, transposed.
    """
    R = row_basis(C.transpose())
    return C if R.rows == C.cols else R.transpose()


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


def integer_rref(grid):
    """(rows, P, Q, d) for an integer matrix given as a list of rows, by
    fraction-free Gauss-Jordan elimination (Bareiss, run above the pivot as
    well as below it). Q is the pivot columns of its rref, so len(Q) is the
    rank. P is the rows taken as pivots, in the order taken, and d is
    det(M_{P,Q}) with the rows in that order (1 when the rank is 0).
    rows[:len(Q)] are d times the nonzero rows of the rref, an echelon form;
    the others are 0.

    Each step takes the first row not yet taken with a nonzero entry p in the
    column, and every other row becomes (p*a - row[c]*b) // prev, with prev
    the previous pivot, so a row with a zero in the column is only scaled.
    Every division is exact, and the last pivot is d.
    """
    rows = list(grid)
    order = list(range(len(rows)))  # the input index of each row
    Q = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        t = len(Q)
        k = next((i for i in range(t, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        # move the pivot row up to t, keeping the rows not taken in input order
        pivot_row = rows.pop(k)
        rows.insert(t, pivot_row)
        order.insert(t, order.pop(k))
        Q.append(c)
        p = pivot_row[c]
        for i, row in enumerate(rows):
            if row[c] and i != t:
                rows[i] = [(p * a - row[c] * b) // prev for a, b in zip(row, pivot_row)]
            elif not row[c] and p != prev:
                rows[i] = [p * a // prev for a in row]
        prev = p
        if t + 1 == len(rows):
            break
    return rows, order[:len(Q)], Q, prev


def integer_det(grid) -> int:
    """Determinant of a square integer matrix, given as a list of rows, by
    fraction-free elimination run forward only. The empty matrix has
    determinant 1.
    """
    if not grid:
        return 1
    grid = list(grid)
    sign = 1
    prev = 1
    # each Bareiss step clears the first column with the pivot row and drops
    # that row and column; every division by the previous pivot is exact, and
    # each entry is the minor on the pivot rows and columns so far plus its own
    while len(grid) > 1:
        if grid[0][0] == 0:
            swap = next((i for i in range(1, len(grid)) if grid[i][0] != 0), None)
            if swap is None:
                return 0
            grid[0], grid[swap] = grid[swap], grid[0]
            sign = -sign
        p, *tail = grid[0]
        grid = [[(p * a - row[0] * b) // prev for a, b in zip(row[1:], tail)] for row in grid[1:]]
        prev = p
    return sign * grid[0][0]


def maximal_minors(rows) -> dict:
    """{J: det(M_{:,J})} for a k x r integer matrix M, given as a list of rows:
    one entry per column subset J (a sorted tuple, in lexicographic order) whose
    k x k minor is nonzero. With no rows, the one minor is the empty one, 1.

    ``integer_rref`` gives U = d R for the rref R = M_{:,Q}^-1 M, so
    det(U_J) = e det(M_J) with e = d^k / det(M_{:,Q}) = sign(P) d^(k-1), and
    the division by e is exact; if rank M < k, every minor is 0. The minors
    of U come from Laplace expansion row by row, from the last row up: the
    minors of rows t..k-1 are summed from those of rows t+1..k-1, each one
    times a nonzero entry of row t outside its columns, so every smaller minor
    is computed once and used by all its extensions, and zero minors and zero
    entries cost nothing. Rows t..k-1 of U are zero left of row t's pivot, so
    their nonzero minors lie on k - t of at most r - t columns: at most
    C(r - t, k - t) <= C(r, k) of them. No level outgrows the table, whether k
    is small or close to r. A column set is a bitmask while it grows.
    """
    k = len(rows)
    U, P, Q, d = integer_rref(rows)
    if len(Q) < k:
        return {}
    e = _sign(P) * d ** (k - 1) if k else 1
    level = {0: 1}
    for row in reversed(U):
        # in the minor on K + j, this row is the first, and its entry at
        # column j stands at column |{k in K: k < j}|, which gives its
        # cofactor's sign
        entries = [(a, 1 << j) for j, a in enumerate(row) if a]
        grown = {}
        for K, m in level.items():
            for a, bit in entries:
                if not K & bit:
                    odd = (K & (bit - 1)).bit_count() & 1
                    grown[K | bit] = grown.get(K | bit, 0) + (-a * m if odd else a * m)
        level = {K: m for K, m in grown.items() if m}
    width = max(map(int.bit_length, level), default=0)
    return dict(sorted((tuple(j for j in range(width) if K >> j & 1), m // e) for K, m in level.items()))


def integer_rows(M: RationalMatrix):
    """(rows, scales): each row of M times the lcm of its denominators, as a
    list of integers, and that lcm, so M.row(i) = rows[i] / scales[i]."""
    rows, scales = [], []
    for row in M.entries:
        s = lcm(*(e.denominator for e in row))
        scales.append(s)
        rows.append([e.numerator * (s // e.denominator) for e in row])
    return rows, scales


def integer_monomial(V, exps):
    """(p, d) with prod_i V_i^e_i = p / d, for positive integers V_i and integer e_i."""
    p = d = 1
    for v, e in zip(V, exps):
        if e > 0:
            p *= v**e
        elif e < 0:
            d *= v**-e
    return p, d


def det(M: RationalMatrix) -> Fraction:
    """Exact determinant: ``integer_det`` of the integer rows, divided by the
    product of the row scales."""
    if M.rows != M.cols:
        raise SizeMismatch(f"determinant of {M.rows}x{M.cols} matrix")
    rows, scales = integer_rows(M)
    return Fraction(integer_det(rows), prod(scales))


def _sign(arrangement) -> int:
    """Sign of the permutation that lists distinct integers in this order."""
    inversions = sum(1 for a, x in enumerate(arrangement) for y in arrangement[a + 1:] if x > y)
    return -1 if inversions % 2 else 1


def permutation_sign_tau(I, n: int) -> int:
    """Sign of the permutation sending 1..n to (sorted I^c, sorted I), for a sorted tuple I."""
    return _sign([i for i in range(n) if i not in I] + list(I))


def gale_dual(C: RationalMatrix) -> RationalMatrix:
    """Z of shape (n-s) x n with im(C) = ker(Z), deterministic normalization:
    the rref of the left kernel of C, each row cleared of its denominators."""
    n, s = C.rows, C.cols
    left_kernel = kernel_basis(C.transpose())  # columns w with w^T C = 0
    if left_kernel.cols != n - s:
        raise RankDeficient(f"C has rank below its column count {s}")
    if s >= n:
        raise NoComplement("subspace is full-dimensional; no Gale dual exists")
    # rref rows lead with 1, so their integer rows are primitive with a
    # positive leading entry
    Z_rref, _ = rref(left_kernel.transpose())
    Z = RationalMatrix(integer_rows(Z_rref)[0], n - s, n)
    if not (Z @ C).is_zero() or rank(Z) != n - s:
        raise VerificationFailed("computed Gale dual does not have kernel im(C)")
    return Z


def verify_gale_relation(C: RationalMatrix, Z: RationalMatrix) -> Fraction:
    """The constant delta with delta*det(C_{I,[s]}) = tau(I)*det(Z_{[n-s],I^c}) for all I."""
    n, s = C.rows, C.cols
    if Z.cols != n or Z.rows != n - s:
        raise ShapeMismatch("Z must be (n-s) x n for C of shape n x s")
    # det(C_{I,[s]}) and det(Z_{[n-s],I^c}) as maximal minors of C^T and Z
    c_rows, c_scales = integer_rows(C.transpose())
    z_rows, z_scales = integer_rows(Z)
    c_minors, c_den = maximal_minors(c_rows), prod(c_scales)
    z_minors, z_den = maximal_minors(z_rows), prod(z_scales)
    delta = None
    checks = []
    for I in combinations(range(n), s):
        lhs = Fraction(c_minors.get(I, 0), c_den)
        Ic = tuple(i for i in range(n) if i not in I)
        rhs = permutation_sign_tau(I, n) * Fraction(z_minors.get(Ic, 0), z_den)
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
