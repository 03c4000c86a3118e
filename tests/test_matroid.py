from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signject import matroid
from signject.descartes import check_ex
from signject.errors import RankDeficient, ShapeMismatch, TooLarge
from signject.matroid import (
    chirotope,
    cocircuits,
    common_sign_vectors,
    covectors,
    image_sign_vectors,
    matroid_vectors,
)
from signject.oracle import brute_force_sign_set
from signject.ratmat import RationalMatrix, rank
from signject.signs import SignVector, compose, orthogonal, sigma

M = RationalMatrix
S = SignVector.parse


def test_chirotope_worked():
    A = M([[1, 0, 1], [0, 1, 1]])
    chi = chirotope(A)
    assert chi.signs == {(0, 1): 1, (0, 2): 1, (1, 2): -1}
    with pytest.raises(RankDeficient):
        chirotope(M([[1, 2], [2, 4]]))


def test_same_oriented_matroid():
    """check_ex's matroid_equal: the maximal minors of A and of Bt agree in
    sign, all alike or all opposite."""
    def same_oriented_matroid(A, Bt):
        return check_ex(A, Bt.transpose()).matroid_equal

    A = M([[1, 0, 1], [0, 1, 1]])
    B = M([[2, 0, 3], [0, 5, 4]])
    assert same_oriented_matroid(A, B)
    # negating one column flips a single minor sign
    C = M([[1, 0, -1], [0, 1, -1]])
    assert not same_oriented_matroid(A, C)
    # global negation is identified
    assert same_oriented_matroid(A, M([[-1, 0, -1], [0, -1, -1]]))


def test_cocircuits_worked():
    A = M([[1, 0, 1], [0, 1, 1]])
    cc = cocircuits(A)
    assert set(cc) == {
        S("0++"), S("0--"), S("+0+"), S("-0-"), S("+-0"), S("-+0"),
    }
    # sign vectors come in +/- pairs
    assert all(-c in set(cc) for c in cc)


def test_covectors_worked():
    A = M([[1, -1]])
    assert set(covectors(A)) == {S("00"), S("+-"), S("-+")}
    I2 = M.identity(2)
    assert len(covectors(I2)) == 9


def test_matroid_vectors_worked():
    assert set(matroid_vectors(M([[1, -1]]))) == {S("00"), S("++"), S("--")}
    A = M([[1, 0, 1], [0, 1, 1]])
    assert set(matroid_vectors(A)) == {S("000"), S("++-"), S("--+")}
    assert matroid_vectors(M.identity(2)) == (S("00"),)


def test_image_sign_vectors():
    C = M([[1], [1]])
    assert set(image_sign_vectors(C)) == {S("00"), S("++"), S("--")}
    # rank-deficient presentation is re-presented before enumeration
    C2 = M([[1, 2], [1, 2]])
    assert set(image_sign_vectors(C2)) == {S("00"), S("++"), S("--")}
    assert image_sign_vectors(M.zeros(2, 1)) == (S("00"),)


def test_common_sign_vectors_worked():
    Mm = M([[1, -1]])
    assert common_sign_vectors(Mm, M([[1], [1]])) == (S("--"), S("++"))
    assert common_sign_vectors(Mm, M([[1], [-1]])) == ()
    assert common_sign_vectors(Mm, M.zeros(2, 1)) == ()
    # ker M and im C must live in the same space
    with pytest.raises(ShapeMismatch):
        common_sign_vectors(Mm, M([[1], [1], [1]]))


def test_too_large_guard():
    wide = M([[1] * 17])
    with pytest.raises(TooLarge):
        covectors(wide)


def fractional_configuration(rnd, max_n, max_r):
    """A random n x r configuration with denominators up to 7, possibly rank-deficient."""
    n = rnd.randint(1, max_n)
    r = rnd.randint(n, max_r)
    return M([[Fraction(rnd.randint(-3, 3), rnd.randint(1, 7)) for _ in range(r)] for _ in range(n)])


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_covectors_match_brute_force(rnd):
    A = fractional_configuration(rnd, 3, 5)
    if rank(A) < A.rows:
        with pytest.raises(RankDeficient):
            covectors(A)
        return
    r = A.cols
    assert covectors(A) == brute_force_sign_set(A.transpose(), "image")
    if r == 5:  # each further sweep of 3^5 orthant LPs would add about a third to the test's time
        return
    kernel = brute_force_sign_set(A, "kernel")
    assert matroid_vectors(A) == kernel
    # sigma(ker A) ∩ sigma(im C) for a second, possibly dependent, configuration C
    k = rnd.randint(1, 2)
    C = M([[Fraction(rnd.randint(-2, 2)) for _ in range(k)] for _ in range(r)])
    shared = set(kernel) & set(brute_force_sign_set(C, "image"))
    assert common_sign_vectors(A, C) == tuple(sorted(v for v in shared if not v.is_zero()))


def reference_closure(base, r):
    """Composition closure of base and the zero vector, on SignVectors."""
    closed = {SignVector.zero(r)} | set(base)
    while True:
        fresh = {compose(u, v) for u in closed for v in base} - closed
        if not fresh:
            return closed
        closed |= fresh


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_covectors_match_reference_closure(rnd):
    A = fractional_configuration(rnd, 4, 6)
    if rank(A) < A.rows:
        return
    cc = cocircuits(A)
    cov = reference_closure(cc, A.cols)
    assert covectors(A) == tuple(sorted(cov))
    # cocircuits are the nonzero covectors of minimal support
    nonzero = [v for v in cov if not v.is_zero()]
    minimal = {v for v in nonzero if not any(w.support < v.support for w in nonzero)}
    assert set(cc) == minimal
    assert cc == tuple(sorted(minimal))


def tope_count(n, r):
    """Topes of a uniform oriented matroid of rank n on r elements."""
    return 2 * sum(comb(r - 1, i) for i in range(n))


def moment_curve(n, r):
    """Columns (1, t, ..., t^(n-1)) for t = 1..r: every maximal minor is a
    positive Vandermonde determinant, so the oriented matroid is uniform."""
    return M([[t ** k for t in range(1, r + 1)] for k in range(n)])


@pytest.mark.parametrize("n, r", [(3, 16), (4, 12), (5, 12)])
def test_uniform_covector_counts(n, r):
    """A covector of a uniform matroid with k < n zeros is a tope of its
    contraction, uniform of rank n - k on r - k elements."""
    cov = covectors(moment_curve(n, r))
    assert len(cov) == 1 + sum(comb(r, k) * tope_count(n - k, r - k) for k in range(n))
    assert sum(1 for v in cov if len(v.support) == r) == tope_count(n, r)


def test_coordinate_covector_count():
    # every pair of coordinate cocircuits but +-e_j is conformal: the closure's worst case
    assert len(covectors(M.identity(9))) == 3 ** 9


def all_pairs_closure(A):
    """Composition closure of A's cocircuits with every cocircuit, on (pos, neg)
    masks: the reference for the conformal closure of ``_covector_masks``."""
    pairs = matroid._cocircuit_masks(A)
    base = [(p, q, p | q) for p, q in pairs]
    closed = {(0, 0), *pairs}
    frontier = list(closed)
    while frontier:
        fresh = []
        for pos, neg in frontier:
            free = ~(pos | neg)
            for p, q, supp in base:
                if supp & free:
                    w = (pos | (p & free), neg | (q & free))
                    if w not in closed:
                        closed.add(w)
                        fresh.append(w)
        frontier = fresh
    return closed


def outcome(f, *args):
    try:
        return f(*args)
    except (RankDeficient, ShapeMismatch) as exc:
        return type(exc)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_conformal_closure_matches_all_pairs_closure(rnd):
    A = fractional_configuration(rnd, 5, 9)
    if A.rows > 1 and rnd.random() < 0.3:
        # a dependent last row: covectors raises, the other three re-present
        A = M(A.entries[:-1] + ([2 * a for a in A.row(0)],))
    k = rnd.randint(1, 3)
    C = M([[Fraction(rnd.randint(-2, 2), rnd.randint(1, 3)) for _ in range(k)] for _ in range(A.cols)])
    calls = ((covectors, A), (matroid_vectors, A), (image_sign_vectors, A.transpose()),
             (common_sign_vectors, A, C))
    closures = []
    conformal = matroid._covector_masks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matroid, "_covector_masks", lambda B: closures.append(conformal(B)) or closures[-1])
        got = [outcome(*call) for call in calls]
    assert closures
    assert not any(pos & neg for masks in closures for pos, neg in masks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matroid, "_covector_masks", all_pairs_closure)
        assert [outcome(*call) for call in calls] == got


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_covector_closure_and_duality(rnd):
    n = rnd.randint(1, 2)
    r = rnd.randint(n, 4)
    A = M([[Fraction(rnd.randint(-3, 3)) for _ in range(r)] for _ in range(n)])
    if rank(A) < n:
        return
    cov = set(covectors(A))
    # closed under negation and composition
    for u in cov:
        assert -u in cov
        for v in cov:
            assert compose(u, v) in cov
    # every covector is orthogonal to every kernel sign vector
    for u in cov:
        for w in matroid_vectors(A):
            assert orthogonal(u, w)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_chirotope_column_permutation(rnd):
    n = rnd.randint(1, 2)
    r = rnd.randint(n, 4)
    A = M([[Fraction(rnd.randint(-3, 3)) for _ in range(r)] for _ in range(n)])
    if rank(A) < n:
        return
    perm = list(range(r))
    rnd.shuffle(perm)
    B = M.from_columns([A.column(j) for j in perm], rows=n)
    chi_a = chirotope(A)
    chi_b = chirotope(B)
    # permuting columns permutes subsets and multiplies by the permutation sign
    for subset, s in chi_b.signs.items():
        orig = tuple(sorted(perm[j] for j in subset))
        assert abs(s) == abs(chi_a.signs[orig])
