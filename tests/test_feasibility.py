from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signject.errors import InternalError
from signject.feasibility import (
    StrictSystem,
    check_certificate,
    _check_witness,
    cone_interior_membership,
    feasible_sign_pair,
    open_halfspace_contains_rows,
    rational_point_with_sign,
    solve_rows,
    solve_strict,
)
from signject.ratmat import RationalMatrix
from signject.signs import SignVector, sigma, sign_of

from reference import fm_strict_feasible

M = RationalMatrix
S = SignVector.parse


def test_single_variable():
    res = solve_strict(StrictSystem(nvars=1, comp_signs=S("+")))
    assert res.feasible and res.witness[0] > 0
    res = solve_strict(StrictSystem(nvars=1, comp_signs=S("-")))
    assert res.feasible and res.witness[0] < 0


def test_contradictory_signs():
    # x > 0 and x < 0 via a linear sign row
    sys = StrictSystem(nvars=1, comp_signs=S("+"), linear_sign_rows=M([[1]]), linear_signs=S("-"))
    res = solve_strict(sys)
    assert not res.feasible
    assert res.certificate is not None


def test_equality_blocks_positivity():
    sys = StrictSystem(nvars=2, equalities=M([[1, 1]]), comp_signs=S("++"))
    res = solve_strict(sys)
    assert not res.feasible
    # certificate combines the rows to a contradiction; checked internally, spot check length
    assert len(res.certificate) == 3


def test_zero_sign_forces_exact_zero():
    sys = StrictSystem(nvars=2, equalities=M([[1, -1]]), comp_signs=S("0+"))
    res = solve_strict(sys)
    assert not res.feasible  # x1 = 0 forces x2 = 0, contradicting x2 > 0


def _check_farkas(sys, certificate):
    """Dense reference: do the multipliers refute the eps = 1 relaxation?"""
    rows = sys.constraint_rows()
    combo = [Fraction(0)] * sys.nvars
    bound = Fraction(0)
    for (coeffs, sign), lam in zip(rows, certificate):
        if sign != 0:
            if lam < 0:
                return False
            bound += lam
        side = -1 if sign == -1 else 1
        for j, c in enumerate(coeffs):
            combo[j] += side * lam * c
    return len(certificate) == len(rows) and all(c == 0 for c in combo) and bound > 0


def _witness_holds(rows, witness):
    """Dense reference: does the witness give every row its sign?"""
    return all(sign_of(sum(c * w for c, w in zip(coeffs, witness))) == s for coeffs, s in rows)


def _accepts(check, *args):
    try:
        check(*args)
    except InternalError:
        return False
    return True


def _draw_system(nvars, m, k, rnd):
    """Coordinates are left unconstrained by drawing comp_signs=None and
    constraining some coordinates through unit rows among the linear sign rows."""
    def entry():
        return Fraction(rnd.randint(-4, 4), rnd.randint(1, 7))

    def signs(length):
        return SignVector([rnd.choice([-1, 0, 1]) for _ in range(length)])

    def unit(i):
        return [Fraction(int(j == i)) for j in range(nvars)]

    comp = signs(nvars) if rnd.random() < 0.5 else None
    g_rows = [[entry() for _ in range(nvars)] for _ in range(k)]
    if comp is None:
        g_rows += [unit(i) for i in range(nvars) if rnd.random() < 0.7]
    E = M([[entry() for _ in range(nvars)] for _ in range(m)], m, nvars)
    G = M(g_rows) if g_rows else None
    return StrictSystem(
        nvars=nvars,
        equalities=E,
        comp_signs=comp,
        linear_sign_rows=G,
        linear_signs=signs(len(g_rows)) if g_rows else None,
    )


strict_systems = given(st.integers(1, 4), st.integers(0, 2), st.integers(0, 2), st.randoms(use_true_random=False))


@settings(max_examples=150, deadline=None)
@strict_systems
def test_matches_fourier_motzkin(nvars, m, k, rnd):
    sys = _draw_system(nvars, m, k, rnd)
    res = solve_strict(sys)
    assert res.feasible == fm_strict_feasible(sys)
    if not res.feasible:
        assert _check_farkas(sys, res.certificate)


@settings(max_examples=150, deadline=None)
@strict_systems
def test_rechecks_reject_bad_results(nvars, m, k, rnd):
    """The sparse re-checks raise on a perturbed certificate or a negated
    witness, and accept exactly what the dense references accept."""
    sys = _draw_system(nvars, m, k, rnd)
    rows = sys.constraint_rows()
    res = solve_strict(sys)
    if res.feasible:
        w = res.witness
        negated = tuple(-v for v in w)
        if any(s for _, s in rows):
            with pytest.raises(InternalError):
                _check_witness(rows, negated)
        scaled = tuple(2 * v for v in w)
        drawn = tuple(Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in w)
        for cand in (w, negated, scaled, drawn):
            assert _accepts(_check_witness, rows, cand) == _witness_holds(rows, cand)
        return
    lam = list(res.certificate)
    candidates = [lam, [3 * v for v in lam], [Fraction(rnd.randint(-2, 2)) for _ in lam]]
    for i, (coeffs, s) in enumerate(rows):
        bad = []
        if any(coeffs):
            delta = Fraction(rnd.choice([-1, 1]) * rnd.randint(1, 5), rnd.randint(1, 5))
            bad.append(lam[:i] + [lam[i] + delta] + lam[i + 1:])
        if s and lam[i] > 0:
            bad.append(lam[:i] + [-lam[i]] + lam[i + 1:])
        for cand in bad:
            with pytest.raises(InternalError):
                check_certificate(nvars, rows, cand)
        candidates += bad
    for cand in candidates:
        assert _accepts(check_certificate, nvars, rows, cand) == _check_farkas(sys, cand)


def _fraction_check_witness(rows, witness):
    """The witness re-check as it was over Fraction: the reference the
    integer re-check is held to."""
    for coeffs, s in rows:
        if sign_of(sum((c * w for c, w in zip(coeffs, witness) if c), Fraction(0))) != s:
            raise InternalError("witness violates a strict constraint; solver bug")


def _fraction_check_certificate(nvars, rows, certificate):
    """The certificate re-check as it was over Fraction."""
    combo = [Fraction(0)] * nvars
    total = Fraction(0)
    for (coeffs, s), l in zip(rows, certificate):
        if s:
            if l < 0:
                raise InternalError("Farkas multiplier for an inequality is negative")
            total += l
            l *= s
        if l:
            for j, c in enumerate(coeffs):
                if c:
                    combo[j] += l * c
    if any(combo) or total <= 0:
        raise InternalError("Farkas certificate does not prove infeasibility")


def _outcome(check, *args):
    """None if check accepts, else its InternalError message."""
    try:
        check(*args)
    except InternalError as error:
        return str(error)
    return None


def _sign_flipped(rows, i):
    coeffs, s = rows[i]
    return rows[:i] + [(coeffs, -s if s else 1)] + rows[i + 1:]


@settings(max_examples=150, deadline=None)
@strict_systems
def test_integer_rechecks_match_fraction_references(nvars, m, k, rnd):
    """The integer re-checks accept and reject, with the same messages, what
    the Fraction re-checks do: on the solver's own witness or certificate, and
    on each with one multiplier or entry doubled, one row's sign flipped, a
    negative inequality multiplier or an all-zero inequality total."""
    sys = _draw_system(nvars, m, k, rnd)
    rows = sys.constraint_rows()
    res = solve_strict(sys)
    if res.feasible:
        w = list(res.witness)
        cases = [(rows, w), (rows, [-v for v in w])]
        cases += [(rows, w[:j] + [2 * w[j]] + w[j + 1:]) for j in range(nvars)]
        cases += [(_sign_flipped(rows, i), w) for i in range(len(rows))]
        cases.append((rows, [Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in w]))
        for case_rows, cand in cases:
            assert _outcome(_check_witness, case_rows, cand) == _outcome(_fraction_check_witness, case_rows, cand)
        assert _outcome(_check_witness, rows, w) is None
        return
    lam = list(res.certificate)
    inequalities = [i for i, (_, s) in enumerate(rows) if s]
    cases = [(rows, lam)]
    cases += [(rows, lam[:i] + [2 * lam[i]] + lam[i + 1:]) for i in range(len(rows)) if lam[i]]
    cases += [(_sign_flipped(rows, i), lam) for i in range(len(rows))]
    negative = [lam[:i] + [-lam[i] if lam[i] else Fraction(-1, 3)] + lam[i + 1:] for i in inequalities]
    zero_total = [Fraction(0) if s else l for (_, s), l in zip(rows, lam)]
    cases += [(rows, cand) for cand in negative + [zero_total]]
    for case_rows, cand in cases:
        assert (_outcome(check_certificate, nvars, case_rows, cand)
                == _outcome(_fraction_check_certificate, nvars, case_rows, cand))
    assert _outcome(check_certificate, nvars, rows, lam) is None
    for cand in negative:
        assert _outcome(check_certificate, nvars, rows, cand) == "Farkas multiplier for an inequality is negative"
    assert _outcome(check_certificate, nvars, rows, zero_total) == "Farkas certificate does not prove infeasibility"


@settings(max_examples=150, deadline=None)
@strict_systems
def test_variable_scaling_changes_no_pivot(nvars, m, k, rnd):
    """Scaling variable j by c_j > 0, that is coefficient j of every row, takes
    the simplex through the same pivots: witness_j comes out divided by c_j
    and the certificate is the same. Integer rows and their Fraction copies
    give the same result. The sampling oracle's integer rows rest on both."""
    sys = _draw_system(nvars, m, k, rnd)
    rows = sys.constraint_rows()
    res = solve_rows(nvars, rows)
    assert res == solve_strict(sys)
    c = [rnd.choice([1, 2, 3, 12, 1000, Fraction(1, 6), Fraction(5, 4)]) for _ in range(nvars)]
    scaled = [(tuple(v * cj for v, cj in zip(coeffs, c)), s) for coeffs, s in rows]
    # clearing every denominator at once is one more common scaling
    L = lcm(*(v.denominator for coeffs, _ in scaled for v in coeffs))
    c = [cj * L for cj in c]
    ints = [(tuple(int(v * L) for v in coeffs), s) for coeffs, s in scaled]
    fractions = [(tuple(Fraction(v) for v in coeffs), s) for coeffs, s in ints]
    got = solve_rows(nvars, ints)
    assert got == solve_rows(nvars, fractions)
    assert got.feasible == res.feasible
    if res.feasible:
        assert got.witness == tuple(w / cj for w, cj in zip(res.witness, c))
    else:
        assert got.certificate == res.certificate


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_witness_homogeneity(rnd):
    nvars = rnd.randint(1, 4)
    target = SignVector([rnd.choice([-1, 0, 1]) for _ in range(nvars)])
    res = solve_strict(StrictSystem(nvars=nvars, comp_signs=target))
    assert res.feasible
    assert sigma(res.witness) == target
    assert sigma([3 * w for w in res.witness]) == target  # cone: scaling preserves signs


def test_feasible_sign_pair_worked():
    A = M([[1, -1]])
    B = M.identity(2)
    res = feasible_sign_pair(A, B, S("++"), S("++"))
    assert res.feasible
    x, y = res.witness[:2], res.witness[2:]
    assert all(v > 0 for v in x) and all(v > 0 for v in y)
    assert x[0] == x[1]  # ker(1,-1)
    res = feasible_sign_pair(A, B, S("+-"), S("++"))
    assert not res.feasible  # (+,-) is not a kernel sign of (1,-1)


def test_open_halfspace():
    res = open_halfspace_contains_rows(M([[1, 0], [0, 1], [1, 1]]))
    assert res.feasible
    t = res.witness
    assert t[0] > 0 and t[1] > 0 and t[0] + t[1] > 0
    assert not open_halfspace_contains_rows(M([[1], [-1]])).feasible


def test_cone_interior():
    I2 = M.identity(2)
    assert cone_interior_membership(I2, [1, 1]).feasible
    assert not cone_interior_membership(I2, [1, 0]).feasible
    res = cone_interior_membership(M([[1, -1]]), [0])
    assert res.feasible
    assert all(v > 0 for v in res.witness)


def test_rational_point_with_sign():
    z = rational_point_with_sign(M([[1, 1, 1]]), S("+-+"))
    assert z is not None
    assert sum(z) == 0 and sigma(z) == S("+-+")
    assert rational_point_with_sign(M([[1, 0], [0, 1]]), S("++")) is None
    # a 0-row equality matrix adds no rows
    assert sigma(rational_point_with_sign(M([], 0, 2), S("-0"))) == S("-0")
