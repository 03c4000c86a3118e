"""Exact feasibility of homogeneous linear systems with strict sign constraints.

Strict inequalities are decided through the epsilon-relaxation: since every
system here is homogeneous, its solution set is a cone, so feasibility of
"> 0" constraints is equivalent to feasibility with ">= eps" for any positive
eps; we fix eps = 1. The relaxed system is solved by a phase-1 simplex with
Bland's rule, so termination is guaranteed. The simplex works on integer
rows, each a positive multiple of its rational row, so it takes the pivots of
the rational simplex and both witnesses and Farkas certificates are exact.
Every witness and every certificate is re-verified over Fraction before it is
returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import InternalError, LengthMismatch, ShapeMismatch, VerificationFailed
from .ratmat import RationalMatrix
from .signs import SignVector, sigma

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class StrictSystem:
    """Homogeneous system: E z = 0, componentwise signs, and sign(G z) = g_signs.

    comp_signs constrains z componentwise wherever free_mask is False; a sign
    of 0 forces the component to vanish exactly.
    """

    nvars: int
    equalities: Optional[RationalMatrix] = None
    comp_signs: Optional[SignVector] = None
    free_mask: Optional[Sequence[bool]] = None
    linear_sign_rows: Optional[RationalMatrix] = None
    linear_signs: Optional[SignVector] = None

    def constraint_rows(self):
        """Flatten to (row, relation) pairs; relation is '=0', '>0' or '<0'."""
        rows = []
        if self.equalities is not None:
            if self.equalities.cols != self.nvars:
                raise ShapeMismatch("equality matrix column count disagrees with nvars")
            for row in self.equalities.entries:
                rows.append((row, "=0"))
        if self.comp_signs is not None:
            if len(self.comp_signs) != self.nvars:
                raise LengthMismatch("comp_signs length disagrees with nvars")
            free = self.free_mask or [False] * self.nvars
            for i, s in enumerate(self.comp_signs):
                if free[i]:
                    continue
                unit = tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.nvars))
                rows.append((unit, {1: ">0", -1: "<0", 0: "=0"}[s]))
        if self.linear_sign_rows is not None:
            if self.linear_sign_rows.cols != self.nvars:
                raise ShapeMismatch("linear sign rows disagree with nvars")
            if self.linear_signs is None or len(self.linear_signs) != self.linear_sign_rows.rows:
                raise LengthMismatch("one sign per linear sign row required")
            for row, s in zip(self.linear_sign_rows.entries, self.linear_signs):
                rows.append((row, {1: ">0", -1: "<0", 0: "=0"}[s]))
        return rows


@dataclass(frozen=True)
class FeasibilityResult:
    status: str
    witness: Optional[tuple] = None
    certificate: Optional[tuple] = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


# -- phase-1 simplex ----------------------------------------------------------


def _simplex_feasibility(nvars, eq_rows, ineq_rows):
    """Decide {E z = rhs, A z >= rhs} exactly.

    Returns (witness, None) or (None, (lam_eq, lam_ineq)) where the Farkas
    multipliers satisfy lam_ineq >= 0, sum lam_i row_i = 0 and
    sum lam_i rhs_i > 0.

    Each tableau row is held as integers: a positive multiple of the rational
    row it stands for, cleared of denominators when it is built, pivoted as
    p*row - f*row_leave and divided by the gcd of its entries. Positive
    scaling keeps the sign of every reduced cost and every ratio, so Bland's
    rule takes the same pivots as over the rationals. The objective row
    carries its own denominator, from which the Farkas multipliers are read.
    """
    all_rows = [(coeffs, rhs, False) for coeffs, rhs in eq_rows]
    all_rows += [(coeffs, rhs, True) for coeffs, rhs in ineq_rows]
    m = len(all_rows)
    art_start = 2 * nvars + len(ineq_rows)
    n_cols = art_start + m  # z+, z-, surpluses, artificials

    tableau = []
    flips = []
    scales = []
    surplus = 2 * nvars
    for i, (coeffs, rhs, is_ineq) in enumerate(all_rows):
        scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        ints = [c.numerator * (scale // c.denominator) for c in coeffs]
        row = [0] * (n_cols + 1)
        row[:nvars] = ints
        row[nvars:2 * nvars] = [-v for v in ints]
        if is_ineq:
            row[surplus] = -scale
            surplus += 1
        row[-1] = rhs.numerator * (scale // rhs.denominator)
        flip = 1
        if row[-1] < 0:
            row = [-e for e in row]
            flip = -1
        row[art_start + i] = scale  # artificial (after flip)
        flips.append(flip)
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
    lam = [flips[i] * (1 - Fraction(obj[art_start + i], obj_den)) for i in range(m)]
    lam_eq = tuple(lam[: len(eq_rows)])
    lam_ineq = tuple(lam[len(eq_rows):])
    _check_certificate(nvars, eq_rows, ineq_rows, lam_eq, lam_ineq)
    return None, (lam_eq, lam_ineq)


def _check_certificate(nvars, eq_rows, ineq_rows, lam_eq, lam_ineq):
    if any(l < 0 for l in lam_ineq):
        raise InternalError("Farkas multiplier for an inequality is negative")
    combo = [Fraction(0)] * nvars
    total = Fraction(0)
    for (coeffs, rhs), l in list(zip(eq_rows, lam_eq)) + list(zip(ineq_rows, lam_ineq)):
        for j, c in enumerate(coeffs):
            combo[j] += l * Fraction(c)
        total += l * Fraction(rhs)
    if any(c != 0 for c in combo) or total <= 0:
        raise InternalError("Farkas certificate does not prove infeasibility")


# -- strict systems -----------------------------------------------------------


def solve_strict(sys: StrictSystem, eps: Fraction = Fraction(1)) -> FeasibilityResult:
    """Decide the strict system exactly via the eps-relaxation (default eps=1)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    rows = sys.constraint_rows()
    eq_rows = []
    ineq_rows = []
    ineq_origin = []
    for idx, (coeffs, rel) in enumerate(rows):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if rel == "=0":
            eq_rows.append((coeffs, Fraction(0)))
        elif rel == ">0":
            ineq_rows.append((coeffs, eps))
            ineq_origin.append(idx)
        else:
            ineq_rows.append((tuple(-c for c in coeffs), eps))
            ineq_origin.append(idx)
    witness, certificate = _simplex_feasibility(sys.nvars, eq_rows, ineq_rows)
    if witness is not None:
        _check_strict_witness(rows, witness)
        return FeasibilityResult(FEASIBLE, witness=witness)
    lam_eq, lam_ineq = certificate
    # report multipliers in the order of constraint_rows()
    full = [Fraction(0)] * len(rows)
    eq_positions = [i for i, (_, rel) in enumerate(rows) if rel == "=0"]
    for pos, l in zip(eq_positions, lam_eq):
        full[pos] = l
    for pos, l in zip(ineq_origin, lam_ineq):
        full[pos] = l
    return FeasibilityResult(INFEASIBLE, certificate=tuple(full))


def _check_strict_witness(rows, witness):
    for coeffs, rel in rows:
        value = sum((Fraction(c) * w for c, w in zip(coeffs, witness)), Fraction(0))
        ok = (rel == "=0" and value == 0) or (rel == ">0" and value > 0) or (rel == "<0" and value < 0)
        if not ok:
            raise InternalError("witness violates a strict constraint; solver bug")


# -- named queries ------------------------------------------------------------


def feasible_sign_pair(
    A: RationalMatrix, B: RationalMatrix, mu: SignVector, tau: SignVector
) -> FeasibilityResult:
    """Decide Ax = 0, sigma(x) = sigma(By) = mu, sigma(y) = tau over z = (x, y)."""
    m, r = A.rows, A.cols
    rB, n = B.rows, B.cols
    if len(mu) != r or rB != r:
        raise LengthMismatch(f"mu must have length {r} matching columns of A and rows of B")
    if len(tau) != n:
        raise LengthMismatch(f"tau must have length {n} matching columns of B")
    zero_r = [Fraction(0)] * r
    zero_n = [Fraction(0)] * n
    eqs = RationalMatrix([list(row) + zero_n for row in A.entries], m, r + n) if m else None
    g_rows = RationalMatrix([zero_r + list(row) for row in B.entries], r, r + n)
    system = StrictSystem(
        nvars=r + n,
        equalities=eqs,
        comp_signs=SignVector(tuple(mu) + tuple(tau)),
        linear_sign_rows=g_rows,
        linear_signs=mu,
    )
    return solve_strict(system)


def split_pair_witness(result: FeasibilityResult, r: int):
    """Split a feasible_sign_pair witness z = (x, y) into its two halves."""
    return result.witness[:r], result.witness[r:]


def open_halfspace_contains_rows(B: RationalMatrix) -> FeasibilityResult:
    """Feasible iff some t has b_j . t > 0 for every row b_j of B."""
    system = StrictSystem(
        nvars=B.cols,
        linear_sign_rows=B,
        linear_signs=SignVector([1] * B.rows) if B.rows else None,
    )
    if B.rows == 0:
        return FeasibilityResult(FEASIBLE, witness=tuple(Fraction(0) for _ in range(B.cols)))
    return solve_strict(system)


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
    return FeasibilityResult(FEASIBLE, witness=mu)


def rational_point_with_sign(E: Optional[RationalMatrix], nvars: int, target: SignVector):
    """Exact rational z with E z = 0 and sigma(z) = target, or None."""
    system = StrictSystem(nvars=nvars, equalities=E, comp_signs=target)
    result = solve_strict(system)
    if not result.feasible:
        return None
    if sigma(result.witness) != target:
        raise VerificationFailed("witness does not carry the target sign vector")
    return result.witness
