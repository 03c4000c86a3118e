"""Reference implementations that only the tests use.

Each re-derives by a different algorithm a quantity the package computes:
determinants by cofactor expansion, and strict systems by Fourier-Motzkin
elimination. Both are exponential, so each stops with ``TooLarge`` past its
limit: the cofactor expansion at the order ``oracle.COFACTOR_LIMIT`` that
also bounds the Leibniz oracle, and Fourier-Motzkin at
``FM_VARIABLE_LIMIT`` variables.
"""
from fractions import Fraction

from signject.errors import TooLarge
from signject.feasibility import StrictSystem
from signject.oracle import COFACTOR_LIMIT
from signject.ratmat import RationalMatrix

FM_VARIABLE_LIMIT = 6


def cofactor_det(M: RationalMatrix) -> Fraction:
    """Determinant by cofactor expansion along the first row (n <= 5)."""
    n = M.rows
    if n != M.cols:
        raise ValueError("determinant of a non-square matrix")
    if n > COFACTOR_LIMIT:
        raise TooLarge(f"cofactor expansion limited to order {COFACTOR_LIMIT}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return M[0, 0]
    total = Fraction(0)
    for j in range(n):
        if M[0, j] == 0:
            continue
        minor = M.submatrix(range(1, n), [c for c in range(n) if c != j])
        total += (-1) ** j * M[0, j] * cofactor_det(minor)
    return total


# -- Fourier-Motzkin ----------------------------------------------------------


def fourier_motzkin_feasible(eq_rows, ineq_rows, nvars: int) -> bool:
    """Decide {E z = b, A z >= rhs} by variable elimination (nvars <= 6).

    eq_rows and ineq_rows are sequences of (coeffs, rhs) pairs. Each equality
    is first solved for its first variable with a nonzero coefficient, which is
    substituted into every other row (exact Gaussian elimination). Before each
    elimination step, rows that are positive multiples of one coefficient
    vector are cut to the strongest: scaled to a leading entry of +-1, the one
    with the largest right-hand side. Without that cut the row count can square
    at every step.
    """
    if nvars > FM_VARIABLE_LIMIT:
        raise TooLarge(f"Fourier-Motzkin limited to {FM_VARIABLE_LIMIT} variables")
    eqs = [(tuple(map(Fraction, coeffs)), Fraction(rhs)) for coeffs, rhs in eq_rows]
    rows = [(tuple(map(Fraction, coeffs)), Fraction(rhs)) for coeffs, rhs in ineq_rows]
    while eqs:
        c, b = eqs.pop()
        v = next((j for j, a in enumerate(c) if a), None)
        if v is None:
            if b:
                return False
            continue

        def substitute(row):
            coeffs, rhs = row
            f = coeffs[v] / c[v]
            return tuple(a - f * e for a, e in zip(coeffs, c)), rhs - f * b

        eqs = list(map(substitute, eqs))
        rows = list(map(substitute, rows))

    for var in range(nvars - 1, -1, -1):
        rows = _strongest(rows)
        pos = [r for r in rows if r[0][var] > 0]
        neg = [r for r in rows if r[0][var] < 0]
        rest = [r for r in rows if r[0][var] == 0]
        combined = []
        for cp, bp in pos:
            for cn, bn in neg:
                # scale so the var cancels: cp/cp[var] + cn/(-cn[var])
                sp, sn = cp[var], -cn[var]
                coeffs = tuple(a / sp + b / sn for a, b in zip(cp, cn))
                combined.append((coeffs, bp / sp + bn / sn))
        rows = rest + combined
    return all(rhs <= 0 for coeffs, rhs in rows)


def _strongest(rows):
    """One row per coefficient vector up to a positive factor, scaled to a
    leading entry of +-1: the one with the largest right-hand side."""
    best = {}
    for coeffs, rhs in rows:
        lead = abs(next((a for a in coeffs if a), 1))
        key = tuple(a / lead for a in coeffs)
        best[key] = max(best.get(key, rhs / lead), rhs / lead)
    return list(best.items())


def fm_strict_feasible(sys: StrictSystem) -> bool:
    """The strict system decided through the same eps=1 relaxation, by FM."""
    rows = sys.constraint_rows()
    eq_rows = [(coeffs, 0) for coeffs, s in rows if not s]
    ineq_rows = [(tuple(s * c for c in coeffs), 1) for coeffs, s in rows if s]
    return fourier_motzkin_feasible(eq_rows, ineq_rows, sys.nvars)
