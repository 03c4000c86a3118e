"""Independent slow oracles for the test suite and the ``oracle`` subcommands.

Every routine here re-derives a quantity the engine computes, by a different
algorithm (cofactor expansion, Fourier-Motzkin, brute-force orthant sweeps,
Leibniz expansion, random sampling). Outside the tests, only the CLI's
``oracle`` subcommands import this module, when they run; the rest of the
package never depends on it. Importing it loads neither numpy nor mpmath:
only the non-integral-B branch of sampled_injectivity_search imports them,
for its float kernel vectors and, through engine.verify_counterexample, its
interval residuals.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm

from .engine import (DEFAULT_PRECISION_BITS, FullSpace, OrthantUnion, Subspace, SymbolicDetPoly,
                     verify_counterexample)
from .errors import ShapeMismatch, TooLarge, VerificationFailed
from .feasibility import StrictSystem, rational_point_with_sign, solve_strict
from .ratmat import RationalMatrix, integer_monomial
from .signs import SignVector, canonical_sort, sign_of

COFACTOR_LIMIT = 5
FM_VARIABLE_LIMIT = 6
SWEEP_DIM_LIMIT = 5


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
    """Decide {E z = 0, A z >= rhs} by variable elimination (nvars <= 6).

    eq_rows and ineq_rows are sequences of (coeffs, rhs) pairs; equalities are
    rewritten as opposite inequality pairs first.
    """
    if nvars > FM_VARIABLE_LIMIT:
        raise TooLarge(f"Fourier-Motzkin limited to {FM_VARIABLE_LIMIT} variables")
    rows = []
    for coeffs, rhs in eq_rows:
        c = tuple(Fraction(v) for v in coeffs)
        rows.append((c, Fraction(rhs)))
        rows.append((tuple(-v for v in c), -Fraction(rhs)))
    for coeffs, rhs in ineq_rows:
        rows.append((tuple(Fraction(v) for v in coeffs), Fraction(rhs)))

    for var in range(nvars - 1, -1, -1):
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


def fm_strict_feasible(sys: StrictSystem) -> bool:
    """The strict system decided through the same eps=1 relaxation, by FM."""
    rows = sys.constraint_rows()
    eq_rows = [(coeffs, 0) for coeffs, s in rows if not s]
    ineq_rows = [(tuple(s * c for c in coeffs), 1) for coeffs, s in rows if s]
    return fourier_motzkin_feasible(eq_rows, ineq_rows, sys.nvars)


# -- brute-force sign sets ----------------------------------------------------


def brute_force_sign_set(M: RationalMatrix, mode: str):
    """sigma(ker M) or sigma(im M) by sweeping all 3^n orthants (dim <= 5)."""
    if mode not in ("kernel", "image"):
        raise ValueError("mode must be 'kernel' or 'image'")
    n = M.cols if mode == "kernel" else M.rows
    if not n:
        raise ShapeMismatch(f"the ground set is empty: the {mode} of M lies in R^0")
    if n > SWEEP_DIM_LIMIT:
        raise TooLarge(f"orthant sweep limited to dimension {SWEEP_DIM_LIMIT}")
    found = []
    for signs in product((-1, 0, 1), repeat=n):
        tau = SignVector(signs)
        # x in ker M with sigma(x) = tau, or c with sigma(M c) = tau
        if mode == "kernel":
            system = StrictSystem(nvars=n, equalities=M, comp_signs=tau)
        else:
            system = StrictSystem(nvars=M.cols, linear_sign_rows=M, linear_signs=tau)
        if solve_strict(system).feasible:
            found.append(tau)
    return canonical_sort(found)


# -- symbolic determinant by Leibniz ------------------------------------------


def naive_symbolic_gamma_det(Aprime: RationalMatrix, B: RationalMatrix, Z):
    """The bordered determinant expanded by the Leibniz formula (n <= 5).

    Each product kappa_j lambda_i is tracked as an exponent dictionary; the
    result is collapsed to a SymbolicDetPoly, with a check that no monomial
    carries an exponent above one (everything multilinear survives).
    """
    s, r = Aprime.rows, Aprime.cols
    if B.rows != r:
        raise ShapeMismatch("B must have one row per column of A'")
    n = B.cols
    if n > COFACTOR_LIMIT:
        raise TooLarge(f"Leibniz expansion limited to order {COFACTOR_LIMIT}")
    top = 0 if Z is None else Z.rows
    if top + s != n:
        raise ValueError("blocks do not stack to a square matrix")

    def entry(i, col):
        # polynomial as dict: (kappa exponents tuple, lambda exponents tuple) -> coeff
        if i < top:
            c = Z.entries[i][col]
            return {} if c == 0 else {((0,) * r, (0,) * n): c}
        k = i - top
        poly = {}
        for j in range(r):
            c = Aprime.entries[k][j] * B.entries[j][col]
            if c != 0:
                ke = tuple(1 if t == j else 0 for t in range(r))
                le = tuple(1 if t == col else 0 for t in range(n))
                poly[(ke, le)] = poly.get((ke, le), Fraction(0)) + c
        return poly

    total = {}
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = {((0,) * r, (0,) * n): Fraction(sign)}
        for i in range(n):
            prod = _poly_mul(prod, entry(i, perm[i]), r, n)
            if not prod:
                break
        for key, c in prod.items():
            total[key] = total.get(key, Fraction(0)) + c

    terms = {}
    for (ke, le), c in total.items():
        if c == 0:
            continue
        if not (all(e <= 1 for e in ke) and all(e <= 1 for e in le)):
            raise VerificationFailed("non-multilinear monomial survived")
        J = tuple(j for j, e in enumerate(ke) if e)
        I = tuple(i for i, e in enumerate(le) if e)
        terms[(I, J)] = c
    return SymbolicDetPoly(s, terms)


def _perm_sign(perm):
    inv = sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b])
    return -1 if inv % 2 else 1


def _poly_mul(p, q, r, n):
    out = {}
    for (ka, la), ca in p.items():
        for (kb, lb), cb in q.items():
            key = (tuple(a + b for a, b in zip(ka, kb)), tuple(a + b for a, b in zip(la, lb)))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


# -- sampling search ----------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    samples: int
    seed: int
    candidates: int
    violations: tuple = ()

    @property
    def found_violation(self) -> bool:
        return bool(self.violations)


def sampled_injectivity_search(
    A: RationalMatrix,
    B: RationalMatrix,
    S=None,
    samples: int = 1000,
    seed: int = 0,
    prec: int = DEFAULT_PRECISION_BITS,
) -> SearchReport:
    """Random search for (kappa, x, y) with f_kappa(x) = f_kappa(y), x != y, x - y in S.

    Pairs (x, y) are drawn as rationals with x - y in S (via an S-basis when S
    is a subspace; S = None means the full space). A collision exists for some
    positive kappa iff A diag(x^B - y^B) has a positive kernel vector.

    When B is integral this is decided exactly, with no floating point.
    Whether such a kappa exists depends only on the sign pattern of
    d = x^B - y^B (a kernel vector w of A with sign pattern sigma(d) gives
    kappa_j = w_j / d_j, and any kappa_j > 0 where d_j = 0), so a pattern
    whose LP was infeasible is not solved again. A feasible sample keeps its
    own LP's witness kappa, and its violation is checked by an exact rational
    residual: f_kappa(x) = f_kappa(y) must hold exactly, or VerificationFailed
    is raised.

    When B is not integral, a float kernel vector rounded to a rational kappa
    counts only if engine.verify_counterexample accepts it: the relative
    residual, bounded in interval arithmetic at prec bits, is at most
    engine.RESIDUAL_TOLERANCE. Deterministic per seed.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if B.rows != A.cols:
        raise ShapeMismatch("B must have one row per column of A")
    rng = random.Random(seed)
    m, r = A.rows, A.cols
    n = B.cols
    integral_B = all(v.denominator == 1 for row in B.entries for v in row)

    # Every draw is p / d with d in {1, 2, 3, 4}, so its numerator over 12 is
    # an integer; samples are integer vectors over the common denominator q.
    scale = 1
    basis = None
    orthants = None
    if S is None or isinstance(S, FullSpace):
        pass
    elif isinstance(S, Subspace):
        if S.dim() == 0:
            return SearchReport(samples=samples, seed=seed, candidates=0)
        basis = S.image_presentation()
        scale = lcm(*(v.denominator for row in basis.entries for v in row))
        basis = [[int(v * scale) for v in row] for row in basis.entries]
    elif isinstance(S, OrthantUnion):
        orthants = S.T
    else:
        raise TypeError("unsupported subset specification")
    q = 12 * scale

    def draw_over_12():
        p = rng.randint(-8, 8)
        return p * (12 // rng.choice([1, 2, 3, 4]))

    if integral_B:
        # X = q x, so x^b = (p / d) q^-deg for (p, d) = integer_monomial(X, b), deg = sum(b)
        exponents = [[int(v) for v in row] for row in B.entries]
        q_scales = [Fraction(1, q) ** sum(row) for row in exponents]
        positive = SignVector([1] * r)
    else:
        import numpy

        Af = numpy.array([[float(v) for v in row] for row in A.entries]).reshape(m, r)
        Bf = numpy.array([[float(v) for v in row] for row in B.entries])
    infeasible = set()
    candidates = 0
    violations = []
    for _ in range(samples):
        if basis is not None:
            coeffs = [draw_over_12() for _ in range(len(basis[0]))]
            Z = [sum(b * c for b, c in zip(row, coeffs)) for row in basis]
        elif orthants is not None:
            tau = rng.choice(orthants)
            Z = [s * abs(draw_over_12()) for s in tau]
        else:
            Z = [draw_over_12() for _ in range(n)]
        Y = [rng.randint(1, 12) * (q // rng.choice([1, 2])) for _ in range(n)]
        X = [a + b for a, b in zip(Y, Z)]
        if not any(Z) or min(X) <= 0:
            continue
        if integral_B:
            mx = [integer_monomial(X, row) for row in exponents]
            my = [integer_monomial(Y, row) for row in exponents]
            pattern = tuple(sign_of(px * dy - py * dx) for (px, dx), (py, dy) in zip(mx, my))
            if pattern in infeasible:
                continue
            mono_x = [Fraction(p, d) * w for (p, d), w in zip(mx, q_scales)]
            mono_y = [Fraction(p, d) * w for (p, d), w in zip(my, q_scales)]
            diffs = [a - b for a, b in zip(mono_x, mono_y)]
            D = RationalMatrix(
                [[A.entries[i][j] * diffs[j] for j in range(r)] for i in range(m)], m, r
            )
            kq = rational_point_with_sign(D, positive)
            if kq is None:
                infeasible.add(pattern)
                continue
            candidates += 1
            if _exact_map(A, kq, mono_x) != _exact_map(A, kq, mono_y):
                raise VerificationFailed("the LP's kappa does not give f_kappa(x) = f_kappa(y)")
            violations.append((tuple(kq), _fractions(X, q), _fractions(Y, q)))
            continue
        kq = _float_collision_kappa(Af, Bf, _floats(X, q), _floats(Y, q))
        if kq is None:
            continue
        candidates += 1
        x, y = _fractions(X, q), _fractions(Y, q)
        if verify_counterexample(A, B, kq, x, y, prec)[0]:
            violations.append((tuple(kq), x, y))
    return SearchReport(samples=samples, seed=seed, candidates=candidates, violations=tuple(violations))


def _fractions(V, q):
    return tuple(Fraction(v, q) for v in V)


def _floats(V, q):
    import numpy

    # int / int rounds correctly, so these equal the floats of the Fractions
    return numpy.array([v / q for v in V])


def _exact_map(A, kappa, mono):
    """f_kappa(x) = A diag(kappa) x^B over the rationals, from the monomials x^B."""
    return [sum((a * k * v for a, k, v in zip(row, kappa, mono)), Fraction(0)) for row in A.entries]


def _float_collision_kappa(Af, Bf, xf, yf):
    """A positive float kernel vector of A diag(x^B - y^B), rounded to rationals,
    or None. The tolerance on the singular values is absolute. With no rows,
    every positive vector is in the kernel, and kappa = 1."""
    import numpy

    D = Af * (numpy.exp(Bf @ numpy.log(xf)) - numpy.exp(Bf @ numpy.log(yf)))
    if not D.size:
        return [Fraction(1)] * D.shape[1]
    _, sing, vt = numpy.linalg.svd(D)
    for v in (vt[i] for i in range(len(vt)) if i >= len(sing) or sing[i] < 1e-10):
        if numpy.all(v > 1e-9):
            return [Fraction(float(k)).limit_denominator(10**9) for k in v]
        if numpy.all(v < -1e-9):
            return [Fraction(float(-k)).limit_denominator(10**9) for k in v]
    return None
