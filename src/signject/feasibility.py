"""Exact feasibility of homogeneous linear systems with strict sign constraints.

A strict system is one list of (row, sign) pairs, with sign -1, 0 or +1:
row . z = 0 for sign 0, and row . z of that sign otherwise. The same pairs
feed the simplex tableau and both re-checks. Strict inequalities are decided
through the eps-relaxation: since every system here is homogeneous, its
solution set is a cone, so feasibility of "> 0" constraints is equivalent to
feasibility with ">= eps" for any positive eps; we fix eps = 1. The relaxed
system is solved by a phase-1 simplex with Bland's rule, so termination is
guaranteed. The simplex works on integer rows, each a positive multiple of
its rational row, so it takes the pivots of the rational simplex and both
witnesses and Farkas certificates are exact. Every witness and every
certificate is re-verified exactly before it is returned, on the nonzero
entries of the same (row, sign) pairs: a zero coefficient or a zero
multiplier adds nothing to a sum, so it is skipped. Both re-checks sum
Python integers over one common denominator.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import InternalError, LengthMismatch, ShapeMismatch, VerificationFailed
from .ratmat import RationalMatrix
from .signs import SignVector, sigma, sign_of


@dataclass(frozen=True)
class StrictSystem:
    """Homogeneous system: E z = 0, sigma(z) = comp_signs and sigma(G z) = linear_signs.

    Each part may be absent; a sign of 0 forces its component or row to vanish
    exactly.
    """

    nvars: int
    equalities: Optional[RationalMatrix] = None
    comp_signs: Optional[SignVector] = None
    linear_sign_rows: Optional[RationalMatrix] = None
    linear_signs: Optional[SignVector] = None

    def constraint_rows(self):
        """Flatten to (row, sign) pairs: E's rows with sign 0, then one unit row
        per comp_signs entry, then G's rows."""
        n = self.nvars
        rows = []
        if self.equalities is not None:
            if self.equalities.cols != n:
                raise ShapeMismatch("equality matrix column count disagrees with nvars")
            rows += [(row, 0) for row in self.equalities.entries]
        if self.comp_signs is not None:
            if len(self.comp_signs) != n:
                raise LengthMismatch("comp_signs length disagrees with nvars")
            rows += [(unit_row(n, i), s) for i, s in enumerate(self.comp_signs)]
        if self.linear_sign_rows is not None:
            if self.linear_sign_rows.cols != n:
                raise ShapeMismatch("linear sign rows disagree with nvars")
            if self.linear_signs is None or len(self.linear_signs) != self.linear_sign_rows.rows:
                raise LengthMismatch("one sign per linear sign row required")
            rows += zip(self.linear_sign_rows.entries, self.linear_signs)
        return rows


_ZERO, _ONE = Fraction(0), Fraction(1)


def unit_row(n: int, i: int):
    """The row of z_i among n variables."""
    return (_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - 1 - i)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Optional[tuple] = None
    certificate: Optional[tuple] = None


# -- phase-1 simplex ----------------------------------------------------------


def _simplex_feasibility(nvars, rows):
    """Decide {row . z = 0 for sign 0, sign * (row . z) >= 1 otherwise} exactly.

    rows are (row, sign) pairs, the equalities first. Returns (witness, None)
    or (None, lam), one Farkas multiplier per row: lam >= 0 on the
    inequalities, sum lam_i row_i = 0 over the rows as oriented by their
    signs, and the sum of the inequalities' lam_i is positive.

    Each tableau row is held as integers: a positive multiple of the rational
    row it stands for, cleared of denominators when it is built, pivoted as
    p*row - f*row_leave and divided by the gcd of its entries. Positive
    scaling keeps the sign of every reduced cost and every ratio, so Bland's
    rule takes the same pivots as over the rationals. The objective row
    carries its own denominator, from which the Farkas multipliers are read.
    """
    m = len(rows)
    art_start = 2 * nvars + sum(1 for _, s in rows if s)
    n_cols = art_start + m  # z+, z-, surpluses, artificials

    tableau = []
    scales = []
    surplus = 2 * nvars
    for i, (coeffs, s) in enumerate(rows):
        scale = lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        if s < 0:
            ints = [-v for v in ints]
        row = [0] * (n_cols + 1)
        row[:nvars] = ints
        row[nvars:2 * nvars] = [-v for v in ints]
        if s:
            row[surplus] = -scale
            row[-1] = scale
            surplus += 1
        row[art_start + i] = scale
        scales.append(scale)
        tableau.append(row)

    basis = [art_start + i for i in range(m)]
    # reduced-cost row for min(sum of artificials), artificials basic: the
    # costs minus the rational rows, as integers over obj_den
    obj_den = lcm(*scales)
    obj = [0] * (n_cols + 1)
    for row, scale in zip(tableau, scales):
        f = obj_den // scale
        obj = [a - f * b for a, b in zip(obj, row)]
    for j in range(art_start, n_cols):
        obj[j] += obj_den

    while True:
        entering = next(
            (j for j in range(art_start) if obj[j] < 0), None
        )  # artificials never re-enter
        if entering is None:
            break
        # least ratio rhs/coef over coef > 0, ties to the smaller basis index
        leave = None
        for i in range(m):
            coef = tableau[i][entering]
            if coef > 0:
                if leave is None:
                    leave, num, den = i, tableau[i][-1], coef
                    continue
                lhs, rhs = tableau[i][-1] * den, num * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, tableau[i][-1], coef
        if leave is None:
            raise InternalError("phase-1 objective unbounded below; cannot happen")
        pivot_row = tableau[leave]
        p = pivot_row[entering]
        for i in range(m):
            f = tableau[i][entering]
            if i != leave and f != 0:
                row = [p * a - f * b for a, b in zip(tableau[i], pivot_row)]
                g = gcd(*row)
                tableau[i] = [e // g for e in row] if g > 1 else row
        f = obj[entering]
        obj = [p * a - f * b for a, b in zip(obj, pivot_row)]
        obj_den *= p
        g = gcd(obj_den, *obj)
        if g > 1:
            obj = [e // g for e in obj]
            obj_den //= g
        basis[leave] = entering

    if obj[-1] == 0:
        values = [Fraction(0)] * n_cols
        for i, b in enumerate(basis):
            values[b] = Fraction(tableau[i][-1], tableau[i][b])
        witness = tuple(values[j] - values[nvars + j] for j in range(nvars))
        return witness, None

    # infeasible: artificial reduced costs encode the dual multipliers
    return None, [Fraction(obj_den - obj[art_start + i], obj_den) for i in range(m)]


# -- strict systems -----------------------------------------------------------


def solve_strict(sys: StrictSystem) -> FeasibilityResult:
    """Decide the strict system exactly via the eps-relaxation, eps = 1.

    An infeasible system's certificate has one Farkas multiplier per row of
    constraint_rows(), in that order.
    """
    return solve_rows(sys.nvars, sys.constraint_rows())


def solve_rows(nvars: int, rows) -> FeasibilityResult:
    """Decide (row, sign) pairs over nvars variables exactly, eps = 1.

    A row's coefficients may be ints or Fractions: the simplex clears each
    row of its denominators, so an int row and its Fraction copy give the
    same result. The witness, or the certificate with one Farkas multiplier
    per row in the given order, is re-checked exactly before it is returned.

    Scaling variable j by c_j > 0 (coefficient j of every row times c_j)
    changes no pivot: each reduced cost and each ratio of the entering column
    is scaled by the same c_j, so Bland's rule picks the same columns and
    rows, witness_j comes out divided by c_j and the certificate is the same.
    Scaling a row is not such an invariance: on an inequality it moves the
    eps = 1 boundary, and on an equality it reweights that row's artificial
    in the phase-1 objective, which can change the pivots.
    """
    # the tableau takes the equalities first, each group in the given order
    order = [i for i, (_, s) in enumerate(rows) if not s]
    order += [i for i, (_, s) in enumerate(rows) if s]
    witness, lam = _simplex_feasibility(nvars, [rows[i] for i in order])
    if witness is not None:
        _check_witness(rows, witness)
        return FeasibilityResult(True, witness=witness)
    certificate = [None] * len(rows)
    for i, l in zip(order, lam):
        certificate[i] = l
    check_certificate(nvars, rows, certificate)
    return FeasibilityResult(False, certificate=tuple(certificate))


def _check_witness(rows, witness):
    """Raise unless each row gives the witness its sign: the sign of an
    integer sum, with the witness over one denominator and each row over its own."""
    den = lcm(*(w.denominator for w in witness))
    u = [w.numerator * (den // w.denominator) for w in witness]
    for coeffs, s in rows:
        scale = lcm(*(c.denominator for c in coeffs))
        if sign_of(sum(c.numerator * (scale // c.denominator) * v for c, v in zip(coeffs, u) if c)) != s:
            raise InternalError("witness violates a strict constraint; solver bug")


def check_certificate(nvars, rows, certificate):
    """Raise unless lam >= 0 on the inequalities, sum lam_i s_i row_i = 0 (s_i =
    1 on an equality) and the inequalities' total is positive: with no negative
    lam_i, iff one is nonzero. Each product lam_i s_i c_ij is put over one
    common denominator, so the combination sums integers."""
    if any(s and l < 0 for (_, s), l in zip(rows, certificate)):
        raise InternalError("Farkas multiplier for an inequality is negative")
    products = [(j, l.numerator * (s or 1) * c.numerator, l.denominator * c.denominator)
                for (coeffs, s), l in zip(rows, certificate) if l for j, c in enumerate(coeffs) if c]
    den = lcm(*(d for _, _, d in products))
    combo = [0] * nvars
    for j, p, d in products:
        combo[j] += p * (den // d)
    if any(combo) or not any(s and l for (_, s), l in zip(rows, certificate)):
        raise InternalError("Farkas certificate does not prove infeasibility")


# -- named queries ------------------------------------------------------------


def feasible_sign_pair(
    A: RationalMatrix, B: RationalMatrix, mu: SignVector, tau: SignVector
) -> FeasibilityResult:
    """Decide Ax = 0, sigma(x) = sigma(By) = mu, sigma(y) = tau over z = (x, y).

    The joint system, kept as a public query and as the reference the tests
    hold the engine's pair LPs to; the engine does not call it. Its x and y
    blocks share no variable, and for mu in sigma(ker A) the x block is
    feasible, so the engine solves the y block alone and gets the same
    witness Fractions as witness[A.cols:] here.
    """
    m, r = A.rows, A.cols
    rB, n = B.rows, B.cols
    if len(mu) != r or rB != r:
        raise LengthMismatch(f"mu must have length {r} matching columns of A and rows of B")
    if len(tau) != n:
        raise LengthMismatch(f"tau must have length {n} matching columns of B")
    zero_r = [Fraction(0)] * r
    zero_n = [Fraction(0)] * n
    eqs = RationalMatrix([list(row) + zero_n for row in A.entries], m, r + n)
    g_rows = RationalMatrix([zero_r + list(row) for row in B.entries], r, r + n)
    system = StrictSystem(
        nvars=r + n,
        equalities=eqs,
        comp_signs=SignVector(tuple(mu) + tuple(tau)),
        linear_sign_rows=g_rows,
        linear_signs=mu,
    )
    return solve_strict(system)


def open_halfspace_contains_rows(B: RationalMatrix) -> FeasibilityResult:
    """Feasible iff some t has b_j . t > 0 for every row b_j of B."""
    if B.rows == 0:
        return FeasibilityResult(True, witness=tuple(Fraction(0) for _ in range(B.cols)))
    return solve_strict(
        StrictSystem(nvars=B.cols, linear_sign_rows=B, linear_signs=SignVector([1] * B.rows))
    )


def cone_interior_membership(A: RationalMatrix, y) -> FeasibilityResult:
    """Feasible iff y = A mu for some strictly positive mu (y in the open cone).

    The system A mu = y is inhomogeneous, so it is homogenized with a scaling
    variable t > 0 before the eps-relaxation applies; the returned witness is
    de-homogenized.
    """
    y = tuple(Fraction(v) for v in y)
    if len(y) != A.rows:
        raise LengthMismatch(f"y must have length {A.rows}")
    r = A.cols
    eqs = RationalMatrix(
        [list(row) + [-y[i]] for i, row in enumerate(A.entries)], A.rows, r + 1
    )
    system = StrictSystem(
        nvars=r + 1,
        equalities=eqs,
        comp_signs=SignVector([1] * (r + 1)),
    )
    result = solve_strict(system)
    if not result.feasible:
        return result
    t = result.witness[r]
    mu = tuple(v / t for v in result.witness[:r])
    if A.apply(mu) != y:
        raise VerificationFailed("de-homogenized cone witness does not reproduce y")
    return FeasibilityResult(True, witness=mu)


def rational_point_with_sign(E: RationalMatrix, target: SignVector):
    """Exact rational z with E z = 0 and sigma(z) = target, or None."""
    result = solve_strict(StrictSystem(nvars=len(target), equalities=E, comp_signs=target))
    if not result.feasible:
        return None
    if sigma(result.witness) != target:
        raise VerificationFailed("witness does not carry the target sign vector")
    return result.witness
