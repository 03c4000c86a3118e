import json
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signject.errors import (
    NoComplement,
    NotGaleDual,
    ParseError,
    RankDeficient,
    ShapeMismatch,
    SizeMismatch,
)
from signject.oracle import cofactor_det
from signject.ratmat import (
    IndexSet,
    RationalMatrix,
    det,
    gale_dual,
    integer_pivots,
    integer_rows,
    kernel_basis,
    minor,
    parse_rational,
    permutation_sign_tau,
    rank,
    rref,
    verify_gale_relation,
)

M = RationalMatrix


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(" +2/6 ") == Fraction(1, 3)
    for bad in ("1.5", "1e3", "a", "1/2/3", ""):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_json_round_trip():
    A = M([["1/2", "-3"], ["0", "7/5"]])
    data = json.loads(A.to_json())
    assert RationalMatrix.from_json_dict(data) == A
    data["entries"][0][0] = "0.5"
    with pytest.raises(ParseError):
        RationalMatrix.from_json_dict(data)


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
@given(st.integers(1, 5), st.integers(1, 6), st.randoms(use_true_random=False))
def test_integer_pivots_match_rref(rows, cols, rnd):
    """Q is the rref pivot columns and d = det(M_{P,Q}) is nonzero, also when
    rows repeat up to scale (rank below rows) or all entries vanish."""
    A = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 7)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rnd.random() < 0.3:
        A[-1] = [Fraction(-2, 3) * e for e in A[0]]
    if rnd.random() < 0.05:
        A = [[Fraction(0)] * cols for _ in range(rows)]
    grid, scales = integer_rows(M(A))
    assert all(g == a * s for row, grow, s in zip(A, grid, scales) for a, g in zip(row, grow))
    P, Q, d = integer_pivots(grid)
    assert tuple(Q) == rref(M(A))[1]
    assert P == sorted(set(P)) and len(P) == len(Q)
    assert d != 0 and d == cofactor_det(M(A).submatrix(P, Q)) * prod(scales[p] for p in P)


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


def test_minor_and_index_set():
    A = M([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    I = IndexSet([0, 2], 3)
    J = IndexSet([1, 2], 3)
    assert minor(A, I, J) == det(M([[2, 3], [8, 10]]))
    assert list(I.complement()) == [1]
    with pytest.raises(SizeMismatch):
        IndexSet([0, 0], 3)
    with pytest.raises(SizeMismatch):
        minor(A, IndexSet([0], 3), IndexSet([0, 1], 3))


def test_permutation_sign_tau():
    # worked values on ground size 3 (0-based index sets)
    assert permutation_sign_tau(IndexSet([1, 2], 3), 3) == 1
    assert permutation_sign_tau(IndexSet([0, 2], 3), 3) == -1
    assert permutation_sign_tau(IndexSet([0, 1], 3), 3) == 1


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


def test_rref_idempotent():
    A = M([[2, 4, 1], [1, 2, 3]])
    R, pivots = rref(A)
    assert rref(R)[0] == R
    assert pivots == (0, 2)
