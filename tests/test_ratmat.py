import json
from fractions import Fraction
from itertools import combinations
from math import prod
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signject.errors import (
    NoComplement,
    NotGaleDual,
    ParseError,
    RankDeficient,
    ShapeMismatch,
    SizeMismatch,
)
from signject.ratmat import (
    RationalMatrix,
    det,
    gale_dual,
    integer_rows,
    integer_rref,
    kernel_basis,
    maximal_minors,
    parse_rational,
    permutation_sign_tau,
    rank,
    row_basis,
    rref,
    verify_gale_relation,
)

from reference import cofactor_det

M = RationalMatrix


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" +2/6 ") == Fraction(1, 3)
    for bad in ("1.5", "1e3", "a", "1/2/3", "", "1/0", "-0/00"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_json_round_trip():
    A = M([["1/2", "-3"], ["0", "7/5"]])
    data = json.loads(json.dumps(A.to_json_dict()))
    assert RationalMatrix.from_json_dict(data) == A
    data["entries"][0][0] = "0.5"
    with pytest.raises(ParseError):
        RationalMatrix.from_json_dict(data)


def test_json_integer_entries():
    """A JSON integer reads as its "p" string does; any other non-string is a ParseError."""
    data = {"rows": 1, "cols": 2, "entries": [[1, -1]]}
    assert RationalMatrix.from_json_dict(data) == M([["1", "-1"]])
    big = 10**40
    assert RationalMatrix.from_json_dict({"rows": 1, "cols": 1, "entries": [[big]]}) == M([[str(big)]])
    for bad in (True, False, None, 1.5, [1], {"p": 1}):
        with pytest.raises(ParseError):
            RationalMatrix.from_json_dict({"rows": 1, "cols": 2, "entries": [[bad, -1]]})
    # a string is not a list of entries, and true is not a row count
    for bad in ({"rows": 1, "cols": 2, "entries": ["12"]}, {"rows": 2, "cols": 1, "entries": "12"},
                {"rows": True, "cols": 2, "entries": [["1", "2"]]}):
        with pytest.raises(ParseError):
            RationalMatrix.from_json_dict(bad)


def test_shape_checks():
    with pytest.raises(ShapeMismatch):
        M([[1, 2], [3]])
    with pytest.raises(ShapeMismatch):
        M([[1, 2]]) @ M([[1, 2]])


def test_rank_and_kernel():
    # rank 1 example with kernel spanned by (-2, 1)
    A = M([[1, 2], [2, 4]])
    assert rank(A) == 1
    K = kernel_basis(A)
    assert K.cols == 1
    assert A.apply(K.column(0)) == (0, 0)
    # the worked kernel: ker [[1,0,1],[0,1,1]] = span (-1,-1,1)
    A = M([[1, 0, 1], [0, 1, 1]])
    K = kernel_basis(A)
    assert K.column(0) == (Fraction(-1), Fraction(-1), Fraction(1))
    assert kernel_basis(M.identity(3)).cols == 0


def test_det_basics():
    assert det(M([], 0, 0)) == 1
    assert det(M([[0, 1], [1, 1]])) == -1
    assert det(M([[2]])) == 2
    with pytest.raises(SizeMismatch):
        det(M([[1, 2]], 1, 2))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.booleans(),
)
def test_det_matches_cofactor(grid, zero_corner):
    if zero_corner:
        grid[0][0] = Fraction(0)  # the elimination must swap rows
    A = M(grid)
    assert det(A) == cofactor_det(A)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4), st.randoms(use_true_random=False))
def test_matmul_matches_fraction_sums(m, k, p, rnd):
    """The product on integer rows gives each entry's Fraction sum, zero
    entries, zero rows and empty inner dimensions included."""
    def draw(rows, cols):
        return M([[Fraction(rnd.choice((0, 0, rnd.randint(-9, 9))), rnd.randint(1, 12)) for _ in range(cols)]
                  for _ in range(rows)], rows, cols)

    A, B = draw(m, k), draw(k, p)
    product = A @ B
    assert (product.rows, product.cols) == (m, p)
    assert product.entries == tuple(
        tuple(sum((A[i, t] * B[t, j] for t in range(k)), Fraction(0)) for j in range(p)) for i in range(m))
    assert all(type(e) is Fraction for row in product.entries for e in row)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.randoms(use_true_random=False))
def test_integer_rref_matches_rref(rows, cols, rnd):
    """Q is the rref pivot columns, d = det(M_{P,Q}) with P in the order
    returned is nonzero, and the first len(Q) rows are d times the rref rows,
    also when rows repeat up to scale (rank below rows) or all entries vanish."""
    A = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 7)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rnd.random() < 0.3:
        A[-1] = [Fraction(-2, 3) * e for e in A[0]]
    if rnd.random() < 0.05:
        A = [[Fraction(0)] * cols for _ in range(rows)]
    grid, scales = integer_rows(M(A))
    assert all(g == a * s for row, grow, s in zip(A, grid, scales) for a, g in zip(row, grow))
    reduced, P, Q, d = integer_rref(grid)
    R, pivots = rref(M(A))
    k = len(Q)
    assert tuple(Q) == pivots
    assert len(set(P)) == len(P) == k
    assert d != 0 and d == cofactor_det(M(A).submatrix(P, Q)) * prod(scales[p] for p in P)
    assert [[Fraction(a) for a in row] for row in reduced[:k]] == \
        [[d * e for e in R.row(i)] for i in range(k)]
    assert all(a == 0 for row in reduced[k:] for a in row)
    # on its own: d on the pivot columns, and every input row, times d, is
    # the combination of the reduced rows with its pivot-column entries
    assert all(reduced[i][q] == (d if i == j else 0) for i in range(k) for j, q in enumerate(Q))
    assert all(d * g == sum(row[q] * red[j] for q, red in zip(Q, reduced))
               for row in grid for j, g in enumerate(row))


_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# up to 5 x 6 fractional matrices; _vary keeps one as drawn, makes its last row
# dependent on the first two, or zeroes it
_matrices = st.integers(0, 5).flatmap(lambda rows: st.integers(0, 6).flatmap(
    lambda cols: st.lists(st.lists(_fractions, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows).map(lambda g: M(g, rows, cols))))
_variants = st.sampled_from(["as drawn", "last row dependent", "all zero"])


def _vary(A, variant):
    if variant == "last row dependent" and A.rows > 1:
        grid = [list(row) for row in A.entries]
        grid[-1] = [Fraction(-2, 3) * a + b for a, b in zip(grid[0], grid[1])]
        return M(grid, A.rows, A.cols)
    if variant == "all zero":
        return M.zeros(A.rows, A.cols)
    return A


@settings(max_examples=150, deadline=None)
@given(_matrices, _variants)
@example(M([], 0, 0), "as drawn")
@example(M([], 0, 3), "as drawn")
@example(M([[], [], []], 3, 0), "as drawn")
@example(M.zeros(3, 4), "as drawn")
def test_rref_defining_properties(A, variant):
    """rref(A) = (R, Q) is checked by what defines it, not against itself: R is
    in reduced row-echelon form with pivot columns Q, A = A[:, Q] R[:k], and
    some k-minor A_{P,Q} is nonzero, so k is the rank."""
    A = _vary(A, variant)
    R, Q = rref(A)
    k = len(Q)
    assert (R.rows, R.cols) == (A.rows, A.cols)
    assert list(Q) == sorted(set(Q))
    for i, q in enumerate(Q):
        assert all(e == 0 for e in R.row(i)[:q])
        assert R.column(q) == tuple(Fraction(int(l == i)) for l in range(A.rows))
    assert all(e == 0 for i in range(k, A.rows) for e in R.row(i))
    assert A.submatrix(range(A.rows), Q) @ M(R.entries[:k], k, A.cols) == A
    assert any(cofactor_det(A.submatrix(P, Q)) != 0 for P in combinations(range(A.rows), k))


def _pivot_rows(A):
    """The nonzero rows of rref(A), built as the engine built its own A' and
    Z bases before ``row_basis``."""
    R, pivots = rref(A)
    rows = [R.entries[i] for i in range(len(pivots))]
    return RationalMatrix(rows, len(rows), A.cols)


@settings(max_examples=100, deadline=None)
@given(_matrices, _variants)
@example(M([], 0, 3), "as drawn")
@example(M([[], [], []], 3, 0), "as drawn")
@example(M.zeros(3, 4), "as drawn")
def test_row_basis_keeps_the_kernel(A, variant):
    """row_basis(A) has rank(A) independent rows and the kernel of A: each
    annihilates the other's kernel basis. It equals the engine's former copy."""
    A = _vary(A, variant)
    R = row_basis(A)
    assert R.cols == A.cols
    assert R.rows == rank(R) == rank(A)
    assert (A @ kernel_basis(R)).is_zero() and (R @ kernel_basis(A)).is_zero()
    assert R == _pivot_rows(A)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_kernel_identity(rows, cols, rnd):
    A = M([[Fraction(rnd.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)])
    K = kernel_basis(A)
    assert K.cols == cols - rank(A)
    for j in range(K.cols):
        assert all(v == 0 for v in A.apply(K.column(j)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 7),
    st.sampled_from(["k = 0", "k = 1", "k = r", "any k"]),
    st.sampled_from(["dense", "sparse"]),
    st.sampled_from(["as drawn", "zero row", "repeated column"]),
    st.randoms(use_true_random=False),
)
@example(0, "k = 0", "dense", "as drawn", Random(0))
@example(5, "k = r", "dense", "as drawn", Random(0))
@example(3, "any k", "sparse", "as drawn", Random(0))
def test_maximal_minors_match_cofactor(r, k_case, density, variant, rnd):
    """maximal_minors of a 0/±1 matrix (k <= 5, for the cofactor oracle) is
    det(M_{:,J}) on every column subset J in lexicographic order, with exactly
    the zero minors left out: none when k > r, and the empty minor 1 when k = 0."""
    k = {"k = 0": 0, "k = 1": 1, "k = r": min(r, 5), "any k": rnd.randint(0, 5)}[k_case]
    nonzero = (1, -1) if density == "dense" else (1, -1, 0, 0, 0, 0)
    rows = [[rnd.choice(nonzero) for _ in range(r)] for _ in range(k)]
    if variant == "zero row" and k:
        rows[rnd.randrange(k)] = [0] * r
    elif variant == "repeated column" and r > 1:
        j, l = rnd.sample(range(r), 2)
        for row in rows:
            row[l] = row[j]
    minors = {J: m for J in combinations(range(r), k)
              if (m := cofactor_det(M(rows, k, r).submatrix(range(k), J))) != 0}
    got = maximal_minors(rows)
    assert list(got.items()) == list(minors.items())
    assert all(type(m) is int for m in got.values())


def test_permutation_sign_tau():
    # worked values on ground size 3 (0-based index sets)
    assert permutation_sign_tau((1, 2), 3) == 1
    assert permutation_sign_tau((0, 2), 3) == -1
    assert permutation_sign_tau((0, 1), 3) == 1


def test_gale_dual_worked():
    # C = (1,-1)^T -> Z = (1,1), delta = -1
    C = M([[1], [-1]])
    Z = gale_dual(C)
    assert Z.entries == ((Fraction(1), Fraction(1)),)
    assert verify_gale_relation(C, Z) == -1
    # C = (1,1,1)^T -> Z = [[1,0,-1],[0,1,-1]], delta = 1
    C = M([[1], [1], [1]])
    Z = gale_dual(C)
    assert Z.entries == (
        (Fraction(1), Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(1), Fraction(-1)),
    )
    assert verify_gale_relation(C, Z) == 1


def test_gale_dual_errors():
    with pytest.raises(RankDeficient):
        gale_dual(M([[1, 2], [2, 4], [0, 0]]))
    with pytest.raises(NoComplement):
        gale_dual(M([[1, 0], [0, 1]]))
    with pytest.raises(NotGaleDual):
        verify_gale_relation(M([[1], [1]]), M([[1, 1]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.randoms(use_true_random=False))
def test_gale_relation_property(n, rnd):
    s = rnd.randint(1, n - 1)
    C = M([[Fraction(rnd.randint(-4, 4)) for _ in range(s)] for _ in range(n)])
    if rank(C) < s:
        return
    Z = gale_dual(C)
    delta = verify_gale_relation(C, Z)
    assert delta != 0


def test_gale_relation_near_square():
    """A dense 22 x 20 C: the relation holds on all C(22, 20) = 231 I, with
    the delta of the first I."""
    rnd = Random(22)
    C = M([[rnd.randint(-5, 5) for _ in range(20)] for _ in range(22)])
    Z = gale_dual(C)
    I = tuple(range(20))
    delta = permutation_sign_tau(I, 22) * det(Z.submatrix(range(2), (20, 21))) / det(C.submatrix(I, range(20)))
    assert verify_gale_relation(C, Z) == delta


def test_rref_idempotent():
    A = M([[2, 4, 1], [1, 2, 3]])
    R, pivots = rref(A)
    assert rref(R)[0] == R
    assert pivots == (0, 2)
