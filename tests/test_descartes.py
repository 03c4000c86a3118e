from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signject.descartes import check_bnd, check_ex, univariate_sign_variations
from signject.errors import RankDeficient
from signject.feasibility import cone_interior_membership
from signject.ratmat import RationalMatrix, rank

M = RationalMatrix


def test_bnd_univariate_examples():
    B = M([[1], [2], [5]])
    holds, ledger = check_bnd(M([[1, -1, 1]]), B)
    assert not holds and ledger["conflicting_J"] == [[0], [1]]
    holds, _ = check_bnd(M([[1, 2, 3]]), B)
    assert holds


def test_bnd_transpose_is_sum_of_squares():
    A = M([[1, 2, 0], [0, 1, 3]])
    holds, _ = check_bnd(A, A.transpose())
    assert holds


def test_bnd_rank_check():
    with pytest.raises(RankDeficient):
        check_bnd(M([[1, 2], [2, 4]]), M.identity(2))


def test_ex_worked():
    B = M([[1, 0], [0, 1], [1, 1]])
    rep = check_ex(B.transpose(), B)
    assert rep.ex_holds and rep.bnd_holds and rep.matroid_equal
    assert all(v > 0 for v in rep.halfspace_witness)

    rep = check_ex(M([[1, 1]]), M([[1], [-1]]))
    assert not rep.ex_holds  # rows of B span no open half-space

    rep = check_ex(M([[1, 2]]), M([[1], [3]]))
    assert rep.ex_holds  # one sign variation: exactly one positive root


def test_ex_zero_matching():
    # det A_J zero where det B_J nonzero: matroids differ
    A = M([[1, 0], [0, 0]])
    with pytest.raises(RankDeficient):
        check_ex(A, M.identity(2))
    A = M([[1, 1, 0], [0, 0, 1]])
    B = M([[1, 0], [1, 1], [0, 1]])
    rep = check_ex(A, B)
    assert not rep.matroid_equal and rep.conflicting_J is not None


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ex_implies_bnd(rnd):
    n = rnd.randint(1, 2)
    r = rnd.randint(n, 4)
    A = M([[Fraction(rnd.randint(-3, 3)) for _ in range(r)] for _ in range(n)])
    B = M([[Fraction(rnd.randint(-3, 3)) for _ in range(n)] for _ in range(r)])
    if rank(A) < n or rank(B) < n:
        return
    rep = check_ex(A, B)  # DescartesReport asserts ex -> bnd internally
    if rep.ex_holds:
        assert rep.bnd_holds


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_ex_invariant_under_positive_scaling(rnd):
    n = rnd.randint(1, 2)
    r = rnd.randint(n, 3)
    A = M([[Fraction(rnd.randint(-3, 3)) for _ in range(r)] for _ in range(n)])
    B = M([[Fraction(rnd.randint(-3, 3)) for _ in range(n)] for _ in range(r)])
    if rank(A) < n or rank(B) < n:
        return
    j = rnd.randrange(r)
    c = Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
    A2 = M([[c * v if k == j else v for k, v in enumerate(row)] for row in A.entries])
    B2 = M([[c * v for v in row] if k == j else list(row) for k, row in enumerate(B.entries)])
    assert check_ex(A, B).ex_holds == check_ex(A2, B2).ex_holds


def test_cone_query():
    I2 = M.identity(2)
    assert cone_interior_membership(I2, [Fraction(1), Fraction(1)]).feasible
    assert not cone_interior_membership(I2, [Fraction(1), Fraction(0)]).feasible
    assert cone_interior_membership(M([[1, 0, 1], [0, 1, 1]]), [Fraction(2), Fraction(2)]).feasible


def test_univariate_sign_variations():
    assert univariate_sign_variations([Fraction(-1), 1, -1, 1]) == 3
    assert univariate_sign_variations([Fraction(0), 1, -1, 1]) == 2
    assert univariate_sign_variations([Fraction(2), 1, -1, 1]) == 2
    assert univariate_sign_variations([1, 2, 3]) == 0
    assert univariate_sign_variations([]) == 0


def test_univariate_reduction():
    # 1 x r A with one nonzero sign: bnd true and <=1 variation with any -y prefix
    A = M([[1, 2, 3]])
    B = M([[1], [2], [5]])
    holds, _ = check_bnd(A, B)
    assert holds
    assert univariate_sign_variations([Fraction(-4)] + list(A.entries[0])) <= 1

