from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signject import matroid, ratmat
from signject.crn import parse_network, stoichiometry
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
from signject.ratmat import RationalMatrix, column_basis, integer_det, integer_rows, kernel_basis, rank
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
    for enumeration in (chirotope, cocircuits, covectors):
        with pytest.raises(TooLarge):
            enumeration(wide)
    # one coordinate fewer is within the guard
    assert len(chirotope(M([[1] * 16])).signs) == 16
    assert cocircuits(M([[1] * 16])) == (S("-" * 16), S("+" * 16))
    # the intersection closes ker M, so the guard applies when both sides are nonzero
    with pytest.raises(TooLarge):
        common_sign_vectors(M.zeros(1, 17), M([[1]] * 17))
    # a side {0} gives () with nothing enumerated
    assert common_sign_vectors(M.identity(17), M([[1]] * 17)) == ()
    assert common_sign_vectors(M.zeros(1, 17), M.zeros(17, 1)) == ()


def test_only_the_kernel_closure_meets_the_budget(monkeypatch):
    """im C = R^7 has 3^7 covectors, past a budget of 1,000, but only the line
    ker M is closed, and R^7 has no circuits to test it by. ker M = R^7 is
    closed, so it meets the budget."""
    monkeypatch.setattr(matroid, "COVECTOR_BUDGET", 1000)
    chain = M([[1 if j == i else -1 if j == i + 1 else 0 for j in range(7)] for i in range(6)])
    assert common_sign_vectors(chain, M.identity(7)) == (S("-" * 7), S("+" * 7))
    with pytest.raises(TooLarge):
        common_sign_vectors(M.zeros(1, 7), M([[1]] * 7))


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


def hyperplane_normal_cocircuits(A):
    """The cocircuits as (pos, neg) masks, one hyperplane normal per (n-1)-subset
    H of columns: t_i = (-1)^(n-1-i) det of the columns H without row i, by
    ``integer_det``, and entry j is sign(t . a^j). The reference for the
    table-read ``_cocircuit_masks``."""
    n, r = A.rows, A.cols
    if n == 0:
        return set()
    if rank(A) < n:
        raise RankDeficient(f"configuration has rank below {n}")
    columns, _ = integer_rows(A.transpose())
    found = set()
    for H in combinations(range(r), n - 1):
        rows = [[columns[h][i] for h in H] for i in range(n)]
        t = [(-1) ** (n - 1 - i) * integer_det(rows[:i] + rows[i + 1:]) for i in range(n)]
        if not any(t):
            continue
        values = [sum(ti * ai for ti, ai in zip(t, col)) for col in columns]
        pos = sum(1 << j for j, v in enumerate(values) if v > 0)
        neg = sum(1 << j for j, v in enumerate(values) if v < 0)
        found |= {(pos, neg), (neg, pos)}
    return found


def gale_configuration(rnd):
    """[I_r | -B] for a random r x n B, r <= 8 and n <= 4. Its rows span
    ker [B^T I_n] = im [B; I_n]^perp, so its cocircuits are the circuits that
    decide the sign pairs (sigma(By), sigma(y))."""
    r, n = rnd.randint(1, 8), rnd.randint(1, 4)
    return M([[int(i == k) for k in range(r)] + [-Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(n)]
              for i in range(r)])


def cocircuit_instance(kind, rnd):
    if kind == "fractional":
        return fractional_configuration(rnd, 5, 9)
    if kind == "dependent":
        A = fractional_configuration(rnd, 5, 9)
        return M(A.entries + (tuple(2 * a - b for a, b in zip(A.row(0), A.row(-1))),))
    if kind == "empty":
        return M.zeros(0, rnd.randint(0, 5))
    if kind == "zero_and_repeated":
        A = fractional_configuration(rnd, 4, 6)
        columns = [A.column(j) for j in range(A.cols)]
        columns += [(Fraction(0),) * A.rows] * rnd.randint(1, 2)
        # a column repeated, or repeated negated and scaled
        columns += [tuple(rnd.choice((1, -3)) * a for a in rnd.choice(columns)) for _ in range(rnd.randint(1, 2))]
        rnd.shuffle(columns)
        return M.from_columns(columns, rows=A.rows)
    return gale_configuration(rnd)


COCIRCUIT_KINDS = ("fractional", "dependent", "empty", "zero_and_repeated", "gale")


@pytest.mark.parametrize("kind", COCIRCUIT_KINDS)
@settings(max_examples=30, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_cocircuits_match_hyperplane_normals(kind, rnd):
    """The cocircuits read from one table of maximal minors equal the ones from
    a normal per hyperplane, and both raise RankDeficient on the same inputs."""
    A = cocircuit_instance(kind, rnd)
    assert outcome(matroid._cocircuit_masks, A) == outcome(hyperplane_normal_cocircuits, A)
    if kind == "dependent":
        with pytest.raises(RankDeficient):
            matroid._cocircuit_masks(A)


def test_one_minor_table_per_cocircuit_call(monkeypatch):
    """Every closure reads its cocircuits from one table of maximal minors, with
    no determinant and no rank of its own."""
    def forbidden(*args):
        raise AssertionError("the cocircuits took a determinant or a rank")

    tables, calls = [], []
    table, masks = matroid.maximal_minors, matroid._cocircuit_masks
    monkeypatch.setattr(matroid, "maximal_minors", lambda rows: tables.append(rows) or table(rows))
    monkeypatch.setattr(matroid, "_cocircuit_masks", lambda A: calls.append(A) or masks(A))
    monkeypatch.setattr(ratmat, "integer_det", forbidden)
    monkeypatch.setattr(matroid, "rank", forbidden)
    A = M([[1, 0, 1, 2], [0, 1, 1, -1]])
    cocircuits(A)
    covectors(A)
    matroid_vectors(A)
    image_sign_vectors(A.transpose())
    common_sign_vectors(M([[1, -1, 0]]), M([[1, 0], [1, 0], [0, 1]]))
    assert len(calls) == len(tables) == 6


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


def two_closure_intersection(A, C):
    """sigma(ker A) ∩ sigma(im C) minus 0 by closing both sides and intersecting:
    the reference for the one closure and circuit filter of ``common_sign_vectors``."""
    shared = matroid._span_masks(kernel_basis(A)) & matroid._span_masks(column_basis(C))
    shared.discard((0, 0))
    return matroid._sign_vectors(shared, A.cols)


def draw_matrix(rnd, rows, cols, sparse=False):
    values = (0, 0, 0, 1, -1, 2) if sparse else (-3, -2, -1, 0, 1, 2, 3)
    return M([[Fraction(rnd.choice(values), rnd.randint(1, 3)) for _ in range(cols)] for _ in range(rows)],
             rows, cols)


def appending(rnd, k):
    """[I_k | h] for a random integer h: X @ it is X with the column X h appended."""
    return M([[1 if i == j else 0 for j in range(k)] + [rnd.randint(-2, 2)] for i in range(k)], k, k + 1)


def invertible(rnd, n):
    """A random invertible n x n rational matrix: unit lower times nonzero-diagonal upper triangular."""
    L = M([[1 if i == j else (Fraction(rnd.randint(-2, 2)) if j < i else 0) for j in range(n)] for i in range(n)])
    U = M([[Fraction(rnd.choice((-3, -1, 1, 2)), rnd.randint(1, 3)) if i == j else
            (Fraction(rnd.randint(-2, 2)) if j > i else 0) for j in range(n)] for i in range(n)])
    return L @ U


SHARED_KINDS = ("dense", "sparse", "dependent", "zero_M", "zero_C", "full_C",
                "thin_kernel", "thin_image")


def shared_instance(kind, rnd):
    """(M, C) over r <= 8 coordinates for one kind of `common_sign_vectors` input."""
    r = rnd.randint(1, 8)
    m, k = rnd.randint(0, r + 1), rnd.randint(0, r + 1)
    if kind == "thin_kernel":  # dim ker M <= 2 < rank C, few circuits, most draws
        m, k = max(r - rnd.randint(0, 2), 0), r - rnd.randint(0, 1)
    elif kind == "thin_image":  # rank C <= 2 < dim ker M, many circuits, most draws
        m, k = rnd.randint(0, max(r - 3, 0)), rnd.randint(1, 2)
    A = draw_matrix(rnd, m, r, sparse=kind == "sparse")
    C = draw_matrix(rnd, r, k, sparse=kind == "sparse")
    if kind == "dependent":  # a last row of M and a last column of C that depend on the others
        A, C = appending(rnd, m).transpose() @ A, C @ appending(rnd, k)
    elif kind == "zero_M":  # ker M = R^r
        A = M.zeros(m, r)
    elif kind == "zero_C":  # S = {0}
        C = M.zeros(r, k)
    elif kind == "full_C":  # S = R^r
        C = invertible(rnd, r)
    return A, C


@pytest.mark.parametrize("kind", SHARED_KINDS)
@settings(max_examples=25, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_common_sign_vectors_match_two_closures(kind, rnd):
    A, C = shared_instance(kind, rnd)
    if kind == "zero_C":
        assert rank(C) == 0
    if kind == "full_C":
        assert rank(C) == A.cols
    assert common_sign_vectors(A, C) == two_closure_intersection(A, C)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_common_sign_vectors_metamorphic(rnd):
    """The shared set depends only on ker M and on the orthants of im C: it is
    the same for GM and CH (G, H invertible), for M and C with positively
    scaled columns and rows, and it permutes with the coordinates."""
    A, C = shared_instance(rnd.choice(SHARED_KINDS[:4]), rnd)
    r = A.cols
    shared = common_sign_vectors(A, C)
    assert common_sign_vectors(invertible(rnd, A.rows) @ A, C @ invertible(rnd, C.cols)) == shared
    scale = [Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(r)]
    other = [Fraction(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in range(r)]
    A_scaled = M([[a * d for a, d in zip(row, scale)] for row in A.entries], A.rows, r)
    C_scaled = M([[d * c for c in row] for row, d in zip(C.entries, other)], r, C.cols)
    assert common_sign_vectors(A_scaled, C_scaled) == shared
    perm = list(range(r))
    rnd.shuffle(perm)
    A_perm = M([[row[p] for p in perm] for row in A.entries], A.rows, r)
    C_perm = M([C.row(p) for p in perm], r, C.cols)
    assert common_sign_vectors(A_perm, C_perm) == tuple(sorted(SignVector(v[p] for p in perm) for v in shared))


def counting_closures(monkeypatch):
    """The configurations ``_covector_masks`` closes, as they come."""
    closed = []
    conformal = matroid._covector_masks
    monkeypatch.setattr(matroid, "_covector_masks", lambda B: closed.append(B) or conformal(B))
    return closed


def test_one_closure_on_two_site_network(monkeypatch):
    """ker N^T (dimension 3) is closed and im N (dimension 5) filters it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "networks" / "twosite.txt"
    N, _ = stoichiometry(parse_network(path.read_text()))
    closed = counting_closures(monkeypatch)
    assert common_sign_vectors(N.transpose(), N) == ()
    assert [B.rows for B in closed] == [3]


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_closure_per_call(rnd):
    """One closure per call, on a basis of ker M, and none when ker M or im C
    is {0}."""
    A, C = shared_instance(rnd.choice(SHARED_KINDS), rnd)
    kernel_dim, image_dim = A.cols - rank(A), rank(C)
    with pytest.MonkeyPatch.context() as mp:
        closed = counting_closures(mp)
        common_sign_vectors(A, C)
    if not min(kernel_dim, image_dim):
        assert closed == []
        return
    [B] = closed
    assert B.rows == kernel_dim and (A @ B.transpose()).is_zero()
