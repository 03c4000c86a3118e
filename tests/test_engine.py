import json
import time
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from signject import engine, matroid, ratmat
from signject.engine import (
    FullSpace,
    OrthantUnion,
    Subspace,
    check_injectivity,
    check_minors,
    construct_counterexample,
    det_condition,
    evaluate_map,
    gamma_det_poly,
)
from signject.cli import main
from signject.errors import InternalError, NonPositiveInput, SearchBudgetExceeded, ShapeMismatch, TooLarge
from signject.feasibility import feasible_sign_pair
from signject.matroid import image_sign_vectors, matroid_vectors
from signject.oracle import naive_symbolic_gamma_det
from signject.ratmat import RationalMatrix, det, rank, rref
from signject.signs import SignVector

from reference import cofactor_det

M = RationalMatrix
S = SignVector.parse


def test_gamma_det_worked():
    # det of [[Z],[A'_k B_l]] with Z=(1 1), A'=(1), B=(1 2): +2 k1 l2 - 1 k1 l1
    poly = gamma_det_poly(M([[1]]), M([[1, 2]]), M([[1, 1]]))
    assert poly.terms == {((1,), (0,)): Fraction(2), ((0,), (0,)): Fraction(-1)}
    assert not det_condition(poly)


def test_gamma_det_square_convention():
    # s = n: no Z block, plain symbolic determinant
    poly = gamma_det_poly(M.identity(2), M.identity(2), None)
    assert poly.terms == {((0, 1), (0, 1)): Fraction(1)}
    assert det_condition(poly)
    with pytest.raises(ShapeMismatch):
        gamma_det_poly(M([[1]]), M([[1, 2]]), None)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_gamma_matches_leibniz_oracle(rnd):
    n = rnd.randint(1, 3)
    s = rnd.randint(1, n)
    r = rnd.randint(s, 3)
    Ap = M([[Fraction(rnd.randint(-2, 2)) for _ in range(r)] for _ in range(s)])
    B = M([[Fraction(rnd.randint(-2, 2), rnd.randint(1, 3)) for _ in range(n)] for _ in range(r)])
    Z = None
    if s < n:
        Z = M([[Fraction(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(n - s)])
        if rank(Z) < n - s:
            return
    assert gamma_det_poly(Ap, B, Z).terms == naive_symbolic_gamma_det(Ap, B, Z).terms


def test_check_minors_ledger():
    # Atilde for A = (1,-1), S = span{(1,1)}: C A' = [[1,-1],[1,-1]]
    Atilde = M([[1, -1], [1, -1]])
    B = M.identity(2)
    holds, ledger = check_minors(Atilde, B, 1)
    assert not holds
    assert ledger["conflict"] == {
        "first": {"I": (0,), "J": (0,)},
        "second": {"I": (1,), "J": (1,)},
    }
    holds, ledger = check_minors(M.identity(2), M.identity(2), 2)
    assert holds and ledger["common_sign"] == 1


def reference_minors(Atilde, B, s):
    """check_minors by cofactor expansion of every det(Atilde_{I,J}) and
    det(B_{J,I}), scanning all pairs in lexicographic (I, J) order."""
    common_sign, witness, conflict = 0, None, None
    for I in combinations(range(Atilde.rows), s):
        for J in combinations(range(Atilde.cols), s):
            product = cofactor_det(Atilde.submatrix(I, J)) * cofactor_det(B.submatrix(J, I))
            sg = (product > 0) - (product < 0)
            if sg == 0:
                continue
            if common_sign == 0:
                common_sign, witness = sg, (I, J, product)
            elif sg != common_sign and conflict is None:
                conflict = {"first": {"I": witness[0], "J": witness[1]},
                            "second": {"I": I, "J": J}}
    ledger = {
        "s": s,
        "common_sign": common_sign,
        "nonzero_witness": None if witness is None else
        {"I": witness[0], "J": witness[1], "product": witness[2]},
        "conflict": conflict,
    }
    return common_sign != 0 and conflict is None, ledger


def _fractional(rnd, rows, cols):
    return [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 7)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["below", "equal", "above"]))
def test_check_minors_matches_cofactor_reference(rnd, rank_case):
    """Fractional Atilde = X Y of rank below, equal to or above s (at most the
    inner dimension k), against a B drawn at random or as a positive row
    scaling of Atilde^T, whose nonzero products are all positive."""
    n = rnd.randint(1, 4)
    r = rnd.randint(1, 5)
    low = min(n, r)
    s = rnd.randint(1, low) if rank_case != "above" or low == 1 else rnd.randint(1, low - 1)
    k = {"below": s - 1, "equal": s, "above": rnd.randint(s + 1, low) if s < low else s}[rank_case]
    Atilde = M(_fractional(rnd, n, k)) @ M(_fractional(rnd, k, r)) if k else M.zeros(n, r)
    if rnd.random() < 0.5:
        B = M(_fractional(rnd, r, n))
    else:
        scales = [Fraction(rnd.randint(1, 7), rnd.randint(1, 7)) for _ in range(r)]
        B = M([[c * e for e in row] for c, row in zip(scales, Atilde.transpose().entries)])
    assert check_minors(Atilde, B, s) == reference_minors(Atilde, B, s)


def test_birch_always_injective():
    A = M([[1, 2, 0], [3, 4, 1]])
    v = check_injectivity(A, A.transpose(), FullSpace())
    assert v.injective


def test_dense_full_space_decides_in_one_pair():
    """With m = n = r = 20 the paired-minor scan has one pair, I = J = [20],
    and its product is det(A) det(B). Each table of minors is a 20 x 20
    matrix, which a Laplace expansion of M's own rows would grow through
    C(20, 10) column sets; the scan finishes in milliseconds."""
    rnd = Random(20)
    A = M([[rnd.randint(-5, 5) for _ in range(20)] for _ in range(20)])
    B = M([[rnd.randint(-5, 5) for _ in range(20)] for _ in range(20)])
    start = time.process_time()
    v = check_injectivity(A, B, FullSpace())
    assert time.process_time() - start < 5
    assert v.injective and v.method == "minors"
    witness = v.certificate["nonzero_witness"]
    assert witness["I"] == witness["J"] == tuple(range(20))
    assert witness["product"] == det(A) * det(B) != 0


def test_full_space_counterexample():
    A = M([[1, -1]])
    v = check_injectivity(A, M.identity(2), FullSpace())
    assert not v.injective
    cx = v.counterexample
    assert all(k > 0 for k in cx.kappa)
    assert mp.mpf(cx.residual_bound) < mp.mpf("1e-30")


def test_kernel_of_B_breaks_injectivity():
    # x^B collapses along ker(B) regardless of A
    B = M([[1, 1], [1, 1]])
    v = check_injectivity(M.identity(2), B, FullSpace())
    assert not v.injective
    assert str(v.counterexample.mu) == "00"


def test_subspace_routes_agree_on_worked_example():
    A = M([[1, -1]])
    B = M.identity(2)
    bad = check_injectivity(A, B, Subspace(C=M([[1], [1]])))
    good = check_injectivity(A, B, Subspace(C=M([[1], [-1]])))
    assert not bad.injective and good.injective
    assert bad.certificate["det_poly_sign_count"] == 2


def test_zero_dimensional_subspace_vacuous():
    for sub in (Subspace(Z=M.identity(2)), Subspace(C=M.zeros(2, 0))):
        assert sub.dim() == 0 and sub.kernel_presentation() == M.identity(2)
        v = check_injectivity(M.identity(2), M.identity(2), sub)
        assert v.injective
        assert v.certificate == {"empty_condition": True}


def test_orthant_union():
    B = M([[1, 1], [1, 1]])
    A = M.identity(2)
    assert check_injectivity(A, B, OrthantUnion((S("++"),))).injective
    assert not check_injectivity(A, B, OrthantUnion((S("+-"),))).injective


def test_dimension_mismatch_falls_back_to_search():
    # dim S = 1 but rank A = 2: the bordered-determinant route does not apply
    v = check_injectivity(M.identity(2), M.identity(2), Subspace(C=M([[1], [1]])))
    assert v.injective and v.method == "sign_search"


def test_evaluate_map():
    I2 = M.identity(2)
    vals, err = evaluate_map(I2, I2, [Fraction(1), Fraction(1)], [Fraction(2), Fraction(3)])
    assert abs(vals[0] - 2) < mp.mpf("1e-70") and abs(vals[1] - 3) < mp.mpf("1e-70")
    assert err < mp.mpf("1e-70")
    with pytest.raises(NonPositiveInput):
        evaluate_map(I2, I2, [Fraction(1), Fraction(-1)], [Fraction(1), Fraction(1)])
    # non-integer exponents are fine: x^(1/2)
    B = M([["1/2", "0"], ["0", "1"]])
    vals, _ = evaluate_map(I2, B, [1, 1], [Fraction(4), Fraction(9)])
    assert abs(vals[0] - 2) < mp.mpf("1e-70")


def test_evaluate_map_leaves_global_interval_context(monkeypatch):
    """evaluate_map computes on raw mpmath.libmp intervals at the precision it
    is given, in no interval context: it neither reads nor sets the global
    mpmath.iv, whose precision therefore does not change the result."""
    import mpmath

    A, B = M([[1, -1], [2, 1]]), M([["1/2", "1"], ["3", "-1/3"]])
    kappa, x = [Fraction(2, 3), Fraction(5)], [Fraction(7, 2), Fraction(1, 9)]
    first = evaluate_map(A, B, kappa, x, 256)
    monkeypatch.setattr(mpmath.iv, "prec", 20)
    assert evaluate_map(A, B, kappa, x, 256) == first
    assert mpmath.iv.prec == 20
    monkeypatch.setattr(mpmath, "iv", None)
    assert evaluate_map(A, B, kappa, x, 256) == first
    low = evaluate_map(A, B, kappa, x, 64)
    assert low != first and abs(low[0][0] - first[0][0]) < mp.mpf("1e-15")


_REFERENCE_CONTEXTS = {}


def _reference_exact(value, ctx):
    """value in ctx as the interval context and mp took it before the libmp
    evaluation: a Fraction as ctx.mpf(p) / ctx.mpf(q), anything else as ctx.mpf."""
    if isinstance(value, Fraction):
        return ctx.mpf(value.numerator) / ctx.mpf(value.denominator)
    return ctx.mpf(value)


def _reference_monomials(B, x, ctx):
    logs = [ctx.log(_reference_exact(xi, ctx)) for xi in x]
    out = []
    for row in B.entries:
        expo = ctx.mpf(0)
        for b, log_x in zip(row, logs):
            if b != 0:
                expo += _reference_exact(b, ctx) * log_x
        out.append(ctx.exp(expo))
    return out


def _reference_evaluate_map(A, B, kappa, x, prec):
    """evaluate_map as it was computed in a private MPIntervalContext."""
    from mpmath.ctx_iv import MPIntervalContext

    if prec not in _REFERENCE_CONTEXTS:
        _REFERENCE_CONTEXTS[prec] = MPIntervalContext()
        _REFERENCE_CONTEXTS[prec].prec = prec
    ctx = _REFERENCE_CONTEXTS[prec]
    with mp.workprec(prec):
        mono = _reference_monomials(B, x, ctx)
        values, radius = [], mp.mpf(0)
        for row in A.entries:
            acc = ctx.mpf(0)
            for a, k, m in zip(row, kappa, mono):
                if a != 0:
                    acc += _reference_exact(a, ctx) * _reference_exact(k, ctx) * m
            values.append(mp.mpf(acc.mid))
            radius = max(radius, mp.mpf(acc.delta) / 2)
        return tuple(values), radius


def _random_map_input(rnd):
    """(A, B, kappa, x): rational A, fractional B, kappa with numerators and
    denominators of about 300 bits, and x mixing Fractions, ints and mpfs of
    up to 2,000 bits, some of them close to 1."""
    from mpmath import libmp

    m, r, n = rnd.randint(1, 3), rnd.randint(1, 4), rnd.randint(1, 3)
    A = M([[Fraction(rnd.randint(-6, 6), rnd.choice([1, 1, 2, 3])) for _ in range(r)] for _ in range(m)])
    B = M([[Fraction(rnd.randint(-7, 7), rnd.randint(1, 6)) for _ in range(n)] for _ in range(r)])
    kappa = [Fraction(rnd.getrandbits(300) + 1, rnd.getrandbits(300) + 1) for _ in range(r)]
    x = []
    for _ in range(n):
        kind = rnd.randrange(3)
        if kind == 0:
            x.append(Fraction(rnd.getrandbits(rnd.randint(1, 300)) + 1, rnd.getrandbits(rnd.randint(1, 300)) + 1))
        elif kind == 1:
            x.append(rnd.getrandbits(rnd.randint(1, 300)) + 1)
        elif rnd.randrange(2):
            x.append(mp.make_mpf(libmp.from_man_exp(rnd.getrandbits(rnd.randint(1, 2000)) | 1,
                                                    rnd.randint(-3000, 1000))))
        else:
            # close to 1, where rounding x moves ln x by many ulps
            bits = rnd.randint(20, 2000)
            x.append(mp.make_mpf(libmp.from_man_exp((1 << bits) + (rnd.getrandbits(bits - 10) | 1), -bits)))
    return A, B, kappa, x


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([64, 128, 256, 1024]))
def test_evaluate_map_matches_the_interval_context(rnd, prec):
    """The libmp evaluation gives, bit for bit, the values and radius that
    mpmath's interval context gives with the same operations, at every
    precision the witness builder uses (1,024 bits is its retry)."""
    A, B, kappa, x = _random_map_input(rnd)
    values, radius = evaluate_map(A, B, kappa, x, prec)
    ref_values, ref_radius = _reference_evaluate_map(A, B, kappa, x, prec)
    assert [v._mpf_ for v in values] == [v._mpf_ for v in ref_values]
    assert radius._mpf_ == ref_radius._mpf_


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([64, 128, 256, 1024]))
def test_point_monomials_match_the_mp_context(rnd, prec):
    """The point x^B of the witness builder is, bit for bit, what mp computes
    at the same precision with round-to-nearest."""
    _, B, _, x = _random_map_input(rnd)
    with mp.workprec(prec):
        reference = [v._mpf_ for v in _reference_monomials(B, x, mp)]
    assert engine._monomials(B, x, prec) == reference


def test_subspace_presentations_computed_once(monkeypatch):
    """dim, image_presentation and kernel_presentation run rref only once each."""
    calls = [0]

    def counting(M_, _rref=ratmat.rref):
        calls[0] += 1
        return _rref(M_)

    monkeypatch.setattr(ratmat, "rref", counting)
    for S_ in (Subspace(C=M([[1, 2], [0, 1], [1, 3]])), Subspace(Z=M([[1, -1, 0]]))):
        first = (S_.dim(), S_.image_presentation(), S_.kernel_presentation())
        before = calls[0]
        assert (S_.dim(), S_.image_presentation(), S_.kernel_presentation()) == first
        assert calls[0] == before
    assert calls[0] > 0


SIGN_SET_CASES = {
    "dependent columns": {"C": M([[1, 2, 0], [2, 4, 1], [-1, -2, 1]])},
    "dependent rows": {"Z": M([[1, -1, 0], [2, -2, 0], [0, 0, 0]])},
    "dim n image": {"C": M([[1, 0, 1], [0, 1, 1]])},
    "dim n kernel": {"Z": M.zeros(1, 3)},
    "dim 0 image": {"C": M.zeros(3, 2)},
    "dim 0 kernel": {"Z": M.identity(2)},
}


def _expected_sign_vectors(S_):
    """sigma(S) minus 0, as the image presentation's image_sign_vectors gives it."""
    return tuple(v for v in image_sign_vectors(S_.image_presentation()) if not v.is_zero())


@pytest.mark.parametrize("presentation", SIGN_SET_CASES.values(), ids=SIGN_SET_CASES.keys())
def test_nonzero_sign_vectors_close_the_cached_basis(presentation, monkeypatch):
    """nonzero_sign_vectors is sigma(S) minus 0, closed from the cached basis:
    column_basis runs once per Subspace(C=...) and never for Subspace(Z=...)."""
    calls = []

    def counting(C, _column_basis=ratmat.column_basis):
        calls.append(C)
        return _column_basis(C)

    for module in (engine, matroid):
        monkeypatch.setattr(module, "column_basis", counting)
    S_ = Subspace(**presentation)
    vectors = S_.nonzero_sign_vectors()
    S_.dim(), S_.kernel_presentation()
    assert len(calls) == ("C" in presentation)
    assert vectors == _expected_sign_vectors(S_)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["C", "Z"]))
def test_nonzero_sign_vectors_match_image_sign_vectors(rnd, kind):
    """On random presentations, dependent ones included, nonzero_sign_vectors
    is the image presentation's image_sign_vectors minus 0."""
    n, k = rnd.randint(1, 4), rnd.randint(0, 4)
    rows, cols = (k, n) if kind == "Z" else (n, k)
    entries = [[rnd.choice((0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)]
    S_ = Subspace(**{kind: M(entries, rows, cols)})
    assert S_.nonzero_sign_vectors() == _expected_sign_vectors(S_)


def test_counterexample_construction_direct():
    A = M([[1, -1]])
    B = M.identity(2)
    res = feasible_sign_pair(A, B, S("++"), S("++"))
    cx = construct_counterexample(A, B, FullSpace(), S("++"), S("++"), res.witness[2:])
    assert all(k > 0 for k in cx.kappa)
    assert mp.mpf(cx.residual_bound) < mp.mpf("1e-30")


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pair_y_block_matches_joint_lp(rnd):
    # for mu in sigma(ker A) the y block alone gives the joint LP's verdict and
    # the y half of its witness, Fraction for Fraction
    m = rnd.randint(1, 3)
    r, n = rnd.randint(m, 5), rnd.randint(1, 4)

    def rational():
        return Fraction(rnd.randint(-4, 4), rnd.randint(1, 5))

    A = M([[rational() for _ in range(r)] for _ in range(m)])
    B = M([[rational() for _ in range(n)] for _ in range(r)])
    mu = rnd.choice(matroid_vectors(A))
    tau = SignVector([rnd.randint(-1, 1) for _ in range(n)])
    joint = feasible_sign_pair(A, B, mu, tau)
    alone = engine._pair_y(B, mu, tau)
    assert alone.feasible == joint.feasible
    assert alone.witness == (joint.witness[r:] if joint.feasible else None)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_necessary_condition_on_search_verdicts(rnd):
    # if some nonzero sign of S is shared by ker(B), injectivity must fail
    n = rnd.randint(1, 2)
    r = rnd.randint(1, 3)
    A = M([[Fraction(rnd.randint(-2, 2)) for _ in range(r)] for _ in range(n)])
    B = M([[Fraction(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(r)])
    T = tuple(v for v in matroid_vectors(B) if not v.is_zero())
    if not T:
        return
    v = check_injectivity(A, B, OrthantUnion(T[:1]))
    assert not v.injective


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False))
def test_monotone_in_subset(rnd):
    # injective w.r.t. the full space implies injective w.r.t. any subspace
    n = rnd.randint(1, 2)
    r = rnd.randint(1, 3)
    A = M([[Fraction(rnd.randint(-2, 2)) for _ in range(r)] for _ in range(n)])
    B = M([[Fraction(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(r)])
    full = check_injectivity(A, B, FullSpace())
    if not full.injective:
        return
    C = M([[Fraction(rnd.randint(-2, 2))] for _ in range(n)])
    sub = Subspace(C=C)
    assert check_injectivity(A, B, sub).injective


def _invertible(rnd, k):
    while True:
        G = M([[Fraction(rnd.randint(-2, 2)) for _ in range(k)] for _ in range(k)])
        if det(G) != 0:
            return G


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_subspace_verdicts_keep_the_symmetries(rnd):
    """The verdict depends only on sigma(ker A), sigma(S) and the sign pairs
    (sigma(Bv), sigma(v)), so neither relabelling the reactions (one
    permutation of A's columns and B's rows) nor A -> GA with G invertible
    changes it. The det polynomial of (A', B, Z) keeps each coefficient under
    the relabelling, at its relabelled J, and is scaled by det H under
    A' -> HA', so its sign set is kept or, for det H < 0, negated."""
    m, n = rnd.randint(1, 3), rnd.randint(1, 3)
    r = rnd.randint(m, 5)
    A = M([[Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)) for _ in range(r)] for _ in range(m)])
    B = M([[Fraction(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(r)])
    R, pivots = rref(A)
    s = len(pivots)
    dim = s if s <= n and rnd.random() < 0.7 else rnd.randint(1, n)
    C = M([[Fraction(rnd.randint(-2, 2)) for _ in range(dim)] for _ in range(n)])
    if s == 0 or rank(C) < dim:
        return
    S_ = Subspace(C=C)
    perm = rnd.sample(range(r), r)
    relabelled = (M([[row[q] for q in perm] for row in A.entries]), M([B.row(q) for q in perm]))
    G = _invertible(rnd, m)
    injective = check_injectivity(A, B, S_).injective
    assert check_injectivity(*relabelled, S_).injective == injective
    assert check_injectivity(G @ A, B, S_).injective == injective
    if dim != s:
        return
    Aprime, Z = M(R.entries[:s]), S_.kernel_presentation()
    terms = gamma_det_poly(Aprime, B, Z).terms
    at = {q: j for j, q in enumerate(perm)}  # the new index of old reaction q
    assert gamma_det_poly(M([[row[q] for q in perm] for row in Aprime.entries]), relabelled[1], Z).terms == \
        {(I, tuple(sorted(at[q] for q in J))): c for (I, J), c in terms.items()}
    H = _invertible(rnd, s)
    assert gamma_det_poly(H @ Aprime, B, Z).terms == {key: det(H) * c for key, c in terms.items()}


# Each relation returns the new instance and carry(kappa, x, y), which maps a
# counterexample of the old instance (x and y as mpf) to one of the new.


def _zero_row(rnd, A, B, S_):
    return M(A.entries + ((0,) * A.cols,)), B, S_, lambda kappa, x, y: (kappa, x, y)


def _scaled_reactions(rnd, A, B, S_):
    d = [Fraction(rnd.randint(1, 3), rnd.randint(1, 3)) for _ in range(A.cols)]

    def carry(kappa, x, y):
        return [k / dj for k, dj in zip(kappa, d)], x, y

    return M([[a * dj for a, dj in zip(row, d)] for row in A.entries]), B, S_, carry


def _scaled_exponents(rnd, A, B, S_):
    d = [Fraction(rnd.choice((1, 2, 3, Fraction(1, 2)))) for _ in range(B.cols)]

    def carry(kappa, x, y):
        def root(v):
            return [vi ** (mp.mpf(di.denominator) / di.numerator) for vi, di in zip(v, d)]

        return kappa, root(x), root(y)

    return A, M([[b * di for b, di in zip(row, d)] for row in B.entries]), S_, carry


def _inverted_coordinate(rnd, A, B, S_):
    i = rnd.randrange(B.cols)

    def flip(v):
        return [-x if k == i else x for k, x in enumerate(v)]

    def carry(kappa, x, y):
        def invert(v):
            return [1 / vk if k == i else vk for k, vk in enumerate(v)]

        return kappa, invert(x), invert(y)

    if isinstance(S_, OrthantUnion):
        S_ = OrthantUnion(tuple(SignVector(flip(t)) for t in S_.T))
    elif isinstance(S_, Subspace):
        C = S_.C
        S_ = Subspace(C=M([[-x for x in row] if k == i else row for k, row in enumerate(C.entries)], C.rows, C.cols))
    return A, M([flip(row) for row in B.entries]), S_, carry


def _duplicated_reaction(rnd, A, B, S_):
    j = rnd.randrange(A.cols)

    def carry(kappa, x, y):
        half = kappa[j] / 2
        return [half if k == j else kj for k, kj in enumerate(kappa)] + [half], x, y

    return M([row + (row[j],) for row in A.entries]), M(B.entries + (B.row(j),)), S_, carry


SYMMETRIES = [_zero_row, _scaled_reactions, _scaled_exponents, _inverted_coordinate, _duplicated_reaction]
# the relations that keep x - y in a subspace S
SUBSPACE_CARRIERS = (_zero_row, _scaled_reactions, _duplicated_reaction)


def _assert_carried(verdict, carry, A, B):
    """If verdict has a counterexample, carry maps it to one that
    verify_counterexample accepts for (A, B) at 256 bits."""
    cx = verdict.counterexample
    if cx is None:
        return
    with mp.workprec(256):
        kappa, x, y = carry(cx.kappa, [mp.mpf(v) for v in cx.x], [mp.mpf(v) for v in cx.y])
    assert engine.verify_counterexample(A, B, kappa, x, y, 256)[0]


@pytest.mark.parametrize("space", ["full", "orthants"])
@pytest.mark.parametrize("relation", SYMMETRIES, ids=lambda f: f.__name__.lstrip("_"))
@settings(max_examples=50, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_full_space_and_orthant_verdicts_keep_the_symmetries(space, relation, rnd):
    """For S = R^n and for a union of orthants, the verdict depends only on
    sigma(ker A), sigma(S) and the sign pairs (sigma(Bv), sigma(v)). A zero
    row of A, A -> A D (kappa absorbs D), B -> B D (x_i -> x_i^{d_i}) for a
    positive diagonal D, x_i -> 1/x_i (column i of B and coordinate i of
    every orthant negated) and a duplicated reaction (a column of A repeated
    with its row of B: its rate constants add up) keep each of them, so the
    verdict. The same maps carry a counterexample of the first instance to
    one of the second: kappa_j -> kappa_j / d_j, x_i -> x_i^{1/d_i}, x_i ->
    1/x_i (y alike) and kappa_j split into two halves."""
    m, n, r = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(1, 5)
    A = M([[Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)) for _ in range(r)] for _ in range(m)])
    B = M([[Fraction(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(r)])
    S_ = FullSpace()
    if space == "orthants":
        nonzero = [SignVector(t) for t in product((-1, 0, 1), repeat=n) if any(t)]
        S_ = OrthantUnion(tuple(rnd.sample(nonzero, rnd.randint(1, min(len(nonzero), 6)))))
    A2, B2, S2, carry = relation(rnd, A, B, S_)
    try:
        verdicts = [check_injectivity(a, b, s) for a, b, s in ((A, B, S_), (A2, B2, S2))]
    except TooLarge:
        return
    assert verdicts[0].injective == verdicts[1].injective
    _assert_carried(verdicts[0], carry, A2, B2)


@pytest.mark.parametrize("relation", SYMMETRIES, ids=lambda f: f.__name__.lstrip("_"))
@settings(max_examples=50, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_subspace_verdicts_keep_the_sign_symmetries(relation, rnd):
    """The five relations of the full-space and orthant test keep the verdict
    for a subspace S = im C too: x_i -> 1/x_i then negates row i of C. C's
    columns may be dependent, and in most draws dim S is rank A, so that the
    minors and det-polynomial routes decide. The zero row, the scaled
    reactions and the duplicated reaction keep x - y in S, so they carry a
    counterexample too."""
    m, n, r = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(1, 5)
    A = M([[Fraction(rnd.randint(-2, 2), rnd.randint(1, 2)) for _ in range(r)] for _ in range(m)])
    B = M([[Fraction(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(r)])
    s = rank(A)
    k = s if s <= n and rnd.random() < 0.7 else rnd.randint(0, n)
    C = M([[Fraction(rnd.randint(-2, 2)) for _ in range(k)] for _ in range(n)], n, k)
    A2, B2, S2, carry = relation(rnd, A, B, Subspace(C=C))
    try:
        verdicts = [check_injectivity(a, b, s_) for a, b, s_ in ((A, B, Subspace(C=C)), (A2, B2, S2))]
    except (TooLarge, SearchBudgetExceeded):
        return
    assert verdicts[0].injective == verdicts[1].injective
    if relation in SUBSPACE_CARRIERS:
        _assert_carried(verdicts[0], carry, A2, B2)


# -- nogoods in the (mu, tau) sweep ---------------------------------------------


def _sweep(A, B, T, budget, nogoods):
    """(outcome, pairs decided, pair LPs, pair) of the sweep over T, with its
    nogoods or without them; the outcome is the verdict, or the budget
    message, and pair is the feasible (mu, tau, y) it returns, or None."""
    pairs, lps, pair = [], [], None
    refuted, pair_y = engine._refuted, engine._pair_y
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "SIGN_SEARCH_LP_BUDGET", budget)
        patch.setattr(engine, "_refuted",
                      lambda *args: pairs.append(1) or (nogoods and refuted(*args)))
        patch.setattr(engine, "_pair_y", lambda *args: lps.append(1) or pair_y(*args))
        try:
            outcome, pair = engine._sign_search(A, B, OrthantUnion(T).T)
        except SearchBudgetExceeded as exc:
            outcome = str(exc)
    return outcome, len(pairs), len(lps), pair


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sweep_nogoods_change_nothing(rnd):
    """With and without nogoods the sweep gives the same verdict, witness,
    pairs_tested and budget trip; it decides the same pairs, with no more LPs.
    B is sometimes rank-deficient, so that mu = 0 meets T."""
    m = rnd.randint(1, 3)
    r, n = rnd.randint(m, 5), rnd.randint(1, 4)

    def rational():
        return Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) if rnd.random() < 0.7 else Fraction(0)

    A = M([[rational() for _ in range(r)] for _ in range(m)])
    B = M([[rational() for _ in range(n)] for _ in range(r)])
    orthants = [SignVector(t) for t in product((-1, 0, 1), repeat=n) if any(t)]
    T = tuple(rnd.sample(orthants, rnd.randint(1, len(orthants))))
    budget = rnd.choice((engine.SIGN_SEARCH_LP_BUDGET, rnd.randint(1, 40)))
    with_, without = _sweep(A, B, T, budget, True), _sweep(A, B, T, budget, False)
    assert with_[:2] == without[:2]
    assert with_[3] == without[3]
    assert with_[2] <= without[2] == without[1]


def _birch():
    """A Birch instance (B = A^T) over every nonzero orthant: injective, and
    decided by a sweep in which nogoods decide some pairs."""
    A = M([[1, 0, 1], [0, 1, 1]])
    T = tuple(SignVector(t) for t in product((-1, 0, 1), repeat=2) if any(t))
    return A, A.transpose(), T


def _doubled(nogood):
    """The nogood with the contribution of its first support row doubled: it
    fits the same pairs, but its rows no longer combine to zero."""
    pos, neg, terms = nogood
    (i, c), *rest = terms
    return pos, neg, [(i, 2 * c), *rest]


def test_mutated_nogood_fails_its_recheck():
    A, B, T = _birch()
    mu, tau = S("++-"), S("++")
    result = engine._pair_y(B, mu, tau)
    assert not result.feasible
    nogood = engine._nogood(result.certificate, tau + mu)
    # another pair that the nogood decides, and the negated pair, which it
    # decides in the other orientation (the pair LP is symmetric under y -> -y)
    for other in (S("-0") + mu, tuple(-s for s in tau + mu)):
        assert engine._refuted([nogood], B, other)
        with pytest.raises(InternalError, match="Farkas certificate does not prove infeasibility"):
            engine._refuted([_doubled(nogood)], B, other)


def test_mutated_nogood_exits_5(tmp_path, capsys, monkeypatch):
    A, B, T = _birch()
    paths = []
    for name, matrix in (("A", A), ("B", B)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(matrix.to_json_dict()))
    (tmp_path / "T.txt").write_text("".join(f"{t}\n" for t in T))
    argv = ["injectivity", "--A", str(paths[0]), "--B", str(paths[1]), "--S-signs", str(tmp_path / "T.txt")]
    assert main(argv) == 0
    capsys.readouterr()
    nogood = engine._nogood
    monkeypatch.setattr(engine, "_nogood", lambda *args: _doubled(nogood(*args)))
    assert main(argv) == 5
    assert capsys.readouterr() == ("", "internal error: Farkas certificate does not prove infeasibility\n")
