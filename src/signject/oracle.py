"""Independent slow oracles for the test suite and the ``oracle`` subcommands.

Every routine here re-derives a quantity the engine computes, by a different
algorithm (brute-force orthant sweeps, Leibniz expansion, random sampling);
the references that only the tests use, cofactor determinants and
Fourier-Motzkin elimination, are in tests/reference.py. Outside the tests,
only the CLI's ``oracle`` subcommands import this module, when they run; the
rest of the package never depends on it. Importing it does not load mpmath: only the
non-integral-B branch of sampled_injectivity_search does, through
engine.collision_kappa and engine.verify_counterexample. Every sign pattern
and every candidate is decided exactly, for every B; for integral B in Python
ints, from the monomials to the LP's rows and the residual.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import lcm

from .engine import (DEFAULT_PRECISION_BITS, FullSpace, OrthantUnion, Subspace, SymbolicDetPoly, border_block,
                     check_ambient_dim, collision_kappa, retry_precisions, verify_counterexample)
from .errors import ShapeMismatch, TooLarge, VerificationFailed
from .feasibility import StrictSystem, rational_point_with_sign, solve_rows, solve_strict
from .ratmat import RationalMatrix, integer_monomial, integer_rows
from .signs import SignVector, canonical_sort, sigma, sign_of

COFACTOR_LIMIT = 5
SWEEP_DIM_LIMIT = 5


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
    Z = border_block(Z, s, n)
    if n > COFACTOR_LIMIT:
        raise TooLarge(f"Leibniz expansion limited to order {COFACTOR_LIMIT}")
    top = 0 if Z is None else Z.rows

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
    positive kappa iff A diag(x^B - y^B) has a positive kernel vector, that is
    iff ker A has a vector w with the sign pattern sigma(x^B - y^B) (then
    kappa_j = w_j / (x^b_j - y^b_j), and kappa_j > 0 is free where w_j = 0).

    The sign pattern is exact for every B: with D_j the lcm of the
    denominators of row j of B, x^b_j - y^b_j has the sign of
    x^(D_j b_j) - y^(D_j b_j), whose integer exponents ratmat.integer_monomial
    takes. A pattern found infeasible is not solved again.

    When B is integral, each sample whose pattern is not known infeasible is
    decided by an exact LP on A diag(x^B - y^B), built on integer rows by
    _integral_collision. A feasible sample keeps its own LP's witness kappa,
    and its violation is checked by an exact integer residual:
    f_kappa(x) = f_kappa(y) must hold exactly, or VerificationFailed is raised.

    When B is not integral, a sample is a candidate iff ker A has a rational
    w with its pattern, found once per pattern; kappa comes from w by
    engine.collision_kappa, and the candidate counts as a violation only if
    engine.verify_counterexample accepts it: the relative residual, bounded in
    interval arithmetic, is at most engine.RESIDUAL_TOLERANCE. Both run at
    each of engine.retry_precisions(prec) in turn, as the counterexample
    builder's do, until one accepts. Deterministic per seed.

    As in check_injectivity, an S outside R^n and, unless S = {0} or a union
    of no orthants, an A with no columns raise ShapeMismatch.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if B.rows != A.cols:
        raise ShapeMismatch("B must have one row per column of A")
    rng = random.Random(seed)
    r = A.cols
    n = B.cols
    check_ambient_dim(S, n)

    # S = {0} or a union of no orthants: no x != y has x - y in S
    if isinstance(S, Subspace) and not S.dim() or isinstance(S, OrthantUnion) and not S.T:
        return SearchReport(samples=samples, seed=seed, candidates=0)
    # Every draw is p / d with d in {1, 2, 3, 4}, so its numerator over 12 is
    # an integer; samples are integer vectors over the common denominator q.
    scale = 1
    basis = None
    orthants = None
    if S is None or isinstance(S, FullSpace):
        pass
    elif isinstance(S, Subspace):
        basis = S.image_presentation()
        scale = lcm(*(v.denominator for row in basis.entries for v in row))
        basis = [[int(v * scale) for v in row] for row in basis.entries]
    elif isinstance(S, OrthantUnion):
        orthants = S.T
    else:
        raise TypeError("unsupported subset specification")
    if not r:
        raise ShapeMismatch("the ground set is empty: A has no columns, so kappa has no coordinate")
    q = 12 * scale
    y_steps = (q, q // 2)

    def draw_over_12():
        return rng.randrange(-8, 9) * rng.choice((12, 6, 4, 3))

    # row j of B times D_j, the lcm of its denominators (integer_rows); x = X / q,
    # and q^-deg drops out of the sign patterns
    exponents = integer_rows(B)[0]
    integral_B = all(v.denominator == 1 for row in B.entries for v in row)
    if integral_B:
        # x^b_j = (p / d) q^-deg_j for (p, d) = integer_monomial(X, b_j),
        # deg_j = sum(b_j), and A = A_int / a_den over one common denominator
        degrees = [sum(row) for row in exponents]
        top = max(0, *degrees)
        powers = [(q ** max(d, 0), q ** max(-d, 0), q ** (top - d)) for d in degrees]
        a_den = lcm(*(v.denominator for row in A.entries for v in row))
        A_int = [[int(v * a_den) for v in row] for row in A.entries]
    infeasible = set()
    kernel_points = {}
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
        Y = [rng.randrange(1, 13) * rng.choice(y_steps) for _ in range(n)]
        X = [a + b for a, b in zip(Y, Z)]
        # a zero draw where tau is nonzero would put x - y outside S
        if not any(Z) or min(X) <= 0 or (orthants is not None and sigma(Z) != tau):
            continue
        mx = [integer_monomial(X, row) for row in exponents]
        my = [integer_monomial(Y, row) for row in exponents]
        gaps = [px * dy - py * dx for (px, dx), (py, dy) in zip(mx, my)]
        pattern = tuple(map(sign_of, gaps))
        if pattern in infeasible:
            continue
        if integral_B:
            kq = _integral_collision(A_int, a_den, powers, mx, my, gaps)
        else:
            # w in ker A with sigma(w) = sigma(x^B - y^B), made into kappa below
            if pattern not in kernel_points:
                kernel_points[pattern] = rational_point_with_sign(A, SignVector(pattern))
            kq = kernel_points[pattern]
        if kq is None:
            infeasible.add(pattern)
            continue
        candidates += 1
        x, y = _fractions(X, q), _fractions(Y, q)
        if integral_B:
            violations.append((kq, x, y))
            continue
        for bits in retry_precisions(prec):
            kappa = collision_kappa(B, kq, x, y, bits)
            if verify_counterexample(A, B, kappa, x, y, bits)[0]:
                violations.append((tuple(kappa), x, y))
                break
    return SearchReport(samples=samples, seed=seed, candidates=candidates, violations=tuple(violations))


def _integral_collision(A_int, a_den, powers, mx, my, gaps):
    """kappa > 0 with A diag(kappa) x^B = A diag(kappa) y^B exactly, or None.

    A = A_int / a_den; x^b_j = (p_j / d_j) q^-deg_j for (p_j, d_j) in mx (and
    my); gap_j = p^x_j d^y_j - p^y_j d^x_j; powers[j] = (q^max(deg_j, 0),
    q^max(-deg_j, 0), q^(top - deg_j)). The LP solves A diag(x^B - y^B) kappa
    = 0, kappa > 0 in z_j = kappa_j / c_j, c_j = a_den / |x^b_j - y^b_j| (1
    where that is 0), on the integer rows A_int diag(sigma(gap)) and the unit
    rows c_j z_j > 0; by solve_rows that scaling changes no pivot. The
    residual sums f_kappa(x) and f_kappa(y) separately, as integers over one
    common denominator, from kappa and the monomials alone.
    """
    r = len(gaps)
    scales = [Fraction(a_den * dx * dy * up, abs(g) * down) if g else 1
              for (_, dx), (_, dy), (up, down, _), g in zip(mx, my, powers, gaps)]
    signs = [sign_of(g) for g in gaps]
    rows = [([v * s for v, s in zip(row, signs)], 0) for row in A_int]
    rows += [((0,) * j + (c,) + (0,) * (r - 1 - j), 1) for j, c in enumerate(scales)]
    result = solve_rows(r, rows)
    if not result.feasible:
        return None
    kappa = tuple(z * c for z, c in zip(result.witness, scales))
    if any(k <= 0 for k in kappa):
        raise VerificationFailed("witness does not carry the target sign vector")
    den = lcm(*(k.denominator for k in kappa))
    ks = [k.numerator * (den // k.denominator) for k in kappa]
    common = lcm(*(d for _, d in mx), *(d for _, d in my))
    fx, fy = ([sum(v * k * p * (common // d) * lift for v, k, (p, d), (_, _, lift) in zip(row, ks, mono, powers))
               for row in A_int] for mono in (mx, my))
    if fx != fy:
        raise VerificationFailed("the LP's kappa does not give f_kappa(x) = f_kappa(y)")
    return kappa


def _fractions(V, q):
    return tuple(Fraction(v, q) for v in V)

