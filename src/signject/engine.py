"""The injectivity decision engine.

Decides whether the whole family f_kappa(x) = A diag(kappa) x^B is injective
with respect to a subset S of R^n, for all positive kappa. Three routes exist
and provably agree: the paired-minor sign test, the symbolic determinant of
the bordered square matrix, and the exhaustive sign-pair search. They decide
exactly and return a sign pair; floating point enters only at the one
``construct_counterexample`` call, which renders and re-verifies it. The
witness builder and evaluate_map compute on raw mpmath.libmp values, with the
roundings mpmath's contexts use: to nearest for points, as mp does, and
outward for enclosures, as iv does. They import mpmath when called, so
importing this module, or deciding a verdict of "injective", does not load it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Optional

from .errors import (InternalError, LengthMismatch, NonPositiveInput, SearchBudgetExceeded,
                     ShapeMismatch, VerificationFailed)
from .feasibility import StrictSystem, check_certificate, rational_point_with_sign, solve_strict, unit_row
from .matroid import common_sign_vectors, covectors, matroid_vectors
from .ratmat import (
    RationalMatrix,
    column_basis,
    det,
    gale_dual,
    integer_rows,
    integer_rref,
    kernel_basis,
    maximal_minors,
    permutation_sign_tau,
    row_basis,
)
from .signs import SignVector, sigma, sign_of

DEFAULT_PRECISION_BITS = 256
# the largest relative residual a counterexample may have; the float 1e-30 is
# the same binary value as mpmath's default-precision mpf("1e-30")
RESIDUAL_TOLERANCE = 1e-30
# (mu, tau) pairs the sign search may decide, by LP or by nogood, before it gives up
SIGN_SEARCH_LP_BUDGET = 5000


# -- subset specifications ----------------------------------------------------


@dataclass(frozen=True)
class FullSpace:
    """S = R^n."""


@dataclass(frozen=True)
class Subspace:
    """A vector subspace, presented as im(C) or as ker(Z)."""

    C: Optional[RationalMatrix] = None
    Z: Optional[RationalMatrix] = None

    def __post_init__(self):
        if (self.C is None) == (self.Z is None):
            raise ShapeMismatch("give exactly one of an image (C) or kernel (Z) presentation")

    @property
    def ambient_dim(self) -> int:
        return self.C.rows if self.C is not None else self.Z.cols

    # The presentations are computed once per instance (cached_property writes
    # the instance __dict__, which a frozen dataclass allows).
    @cached_property
    def _image(self) -> RationalMatrix:
        return kernel_basis(self.Z) if self.Z is not None else column_basis(self.C)

    @cached_property
    def _kernel(self) -> RationalMatrix:
        if self.Z is not None:
            # a Z with dependent rows gives way to the nonzero rows of its rref
            return self.Z if self.Z.rows == self.ambient_dim - self.dim() else row_basis(self.Z)
        n = self.ambient_dim
        C = self._image
        if C.cols == n:
            return RationalMatrix([], 0, n)
        return gale_dual(C)

    def dim(self) -> int:
        return self._image.cols

    def image_presentation(self) -> RationalMatrix:
        """n x dim matrix with independent columns spanning S."""
        return self._image

    def kernel_presentation(self) -> RationalMatrix:
        """(n - dim) x n matrix Z with S = ker(Z); zero rows when S = R^n."""
        return self._kernel

    def nonzero_sign_vectors(self):
        """sigma(S) minus the zero vector, canonically ordered: the covectors
        of the transposed basis, whose rows span S."""
        if self.dim() == 0:
            return ()
        return tuple(v for v in covectors(self.image_presentation().transpose()) if not v.is_zero())


@dataclass(frozen=True)
class OrthantUnion:
    """S = sigma^{-1}(T) for a set of nonzero sign vectors T."""

    T: tuple

    def __post_init__(self):
        T = tuple(sorted(set(self.T)))
        if any(t.is_zero() for t in T):
            raise ValueError("OrthantUnion sign vectors must be nonzero")
        object.__setattr__(self, "T", T)


def check_ambient_dim(S, n: int):
    """Raise ShapeMismatch unless S, a Subspace or an OrthantUnion, lives in R^n."""
    if isinstance(S, Subspace) and S.ambient_dim != n:
        raise ShapeMismatch("subspace lives in the wrong ambient dimension")
    if isinstance(S, OrthantUnion) and any(len(t) != n for t in S.T):
        raise ShapeMismatch(f"orthant sign vectors must have length n = {n}")


# -- symbolic determinant -----------------------------------------------------


@dataclass(frozen=True)
class SymbolicDetPoly:
    """det(Gamma_{kappa,lambda}) = sum c_{I,J} kappa^J lambda^I with |I| = |J| = s."""

    s: int
    terms: dict  # (I tuple, J tuple) -> nonzero Fraction

    def signs(self):
        return {sign_of(c) for c in self.terms.values()}


def border_block(Z: Optional[RationalMatrix], s: int, n: int) -> Optional[RationalMatrix]:
    """Z as the top block of the n x n bordered matrix over s rows of
    A'_kappa B_lambda: None when Z is absent or has no rows, which needs s = n.
    Raises ShapeMismatch for a Z that does not fit."""
    if Z is None or Z.rows == 0:
        if s != n:
            raise ShapeMismatch("Z may be empty only when s = n")
        return None
    if Z.rows != n - s or Z.cols != n:
        raise ShapeMismatch(f"Z must be {n - s} x {n}")
    return Z


def gamma_det_poly(
    Aprime: RationalMatrix, B: RationalMatrix, Z: Optional[RationalMatrix]
) -> SymbolicDetPoly:
    """Exact coefficients of det of the (Z over A'_kappa B_lambda) block matrix.

    The coefficient of kappa^J lambda^I is tau(I) det(Z_{:,I^c}) det(A'_J)
    det(B_{J,I}). Every minor is read from a ``maximal_minors`` table on
    integer rows: one of A', one of Z, and one of B[:, I]^T for each I with
    det(Z_{:,I^c}) != 0.
    """
    s, r = Aprime.rows, Aprime.cols
    if B.rows != r:
        raise ShapeMismatch("B must have one row per column of A'")
    n = B.cols
    Z = border_block(Z, s, n)
    b_rows, b_scales = integer_rows(B)
    a_rows, a_scales = integer_rows(Aprime)
    # det(A'_{[s],J}) does not depend on I; a J with a zero minor adds no term
    a_minors = maximal_minors(a_rows)
    # with no Z (s = n), the one minor is the empty one, on I^c = ()
    z_rows, z_scales = ([], []) if Z is None else integer_rows(Z)
    z_minors, z_den = maximal_minors(z_rows), prod(z_scales)
    a_den = prod(a_scales)
    terms = {}
    for I in combinations(range(n), s):
        Ic = tuple(i for i in range(n) if i not in I)
        z_minor = z_minors.get(Ic)
        if z_minor is None:
            continue
        tau = permutation_sign_tau(I, n)
        # det(B_{J,I}) for every J, as the maximal minors of B[:, I]^T
        b_minors = maximal_minors([[row[i] for row in b_rows] for i in I])
        for J, a_minor in a_minors.items():
            b = b_minors.get(J)
            if b:
                terms[(I, J)] = Fraction(tau * z_minor * a_minor * b,
                                         z_den * a_den * prod(b_scales[j] for j in J))
    return SymbolicDetPoly(s, terms)


def det_condition(p: SymbolicDetPoly) -> bool:
    """True iff the polynomial is nonzero and all coefficients share one sign."""
    return len(p.signs()) == 1


# -- minors route -------------------------------------------------------------


def _paired_products(Atilde: RationalMatrix, B: RationalMatrix, s: int):
    """(I, J, num, den) with det(Atilde_{I,J}) det(B_{J,I}) = num / den and
    den > 0, in lexicographic (I, J) order; pairs whose product is known to
    vanish may be left out. The cases are those of ``check_minors``; at rank s
    every minor is read from a ``maximal_minors`` table: one of R, one of C^T,
    and one of B[:, I]^T for each I with det(C_I) != 0.
    """
    n, r = Atilde.rows, Atilde.cols
    a_rows, a_scales = integer_rows(Atilde)
    _, P, Q, d = integer_rref(a_rows)
    if len(Q) < s:
        return
    if len(Q) > s:
        for I in combinations(range(n), s):
            for J in combinations(range(r), s):
                product = det(Atilde.submatrix(I, J)) * det(B.submatrix(J, I))
                yield I, J, product.numerator, product.denominator
        return
    # Atilde = C R with C = Atilde_{:,Q} and R = (Atilde_{P,Q})^{-1} Atilde_P,
    # the nonzero rows of its rref; by Cauchy-Binet det(Atilde_{I,J}) =
    # det(C_I) det(R_J), and on the integer rows det(R_J) = det(Atilde_{P,J}) / d
    b_rows, b_scales = integer_rows(B)
    sign_d = 1 if d > 0 else -1
    r_minors = [(J, sign_d * m, prod(b_scales[j] for j in J))
                for J, m in maximal_minors([a_rows[p] for p in P]).items()]
    # det(C_I) for every I, as the maximal minors of C^T
    for I, c in maximal_minors([[row[q] for row in a_rows] for q in Q]).items():
        den = abs(d) * prod(a_scales[i] for i in I)
        # det(B_{J,I}) for every J, as the maximal minors of B[:, I]^T
        b_minors = maximal_minors([[row[i] for row in b_rows] for i in I])
        for J, m, b_scale in r_minors:
            b = b_minors.get(J)
            if b:
                yield I, J, c * m * b, den * b_scale


def check_minors(Atilde: RationalMatrix, B: RationalMatrix, s: int):
    """The paired-minor sign condition over all |I| = |J| = s.

    Returns (holds, ledger). The ledger records the first nonzero product
    det(Atilde_{I,J}) det(B_{J,I}) in lexicographic (I, J) order, as the index
    tuples I and J and the exact Fraction, and, on failure, the (I, J) of the
    first pair whose product has the other sign.

    One fraction-free elimination of Atilde's integer rows (``integer_rows``,
    ``integer_rref``) gives its rank k, and the scan depends on it:

    - k < s: every s-minor of Atilde vanishes, and no pair is scanned;
    - k = s: Atilde = C R, with C its pivot columns and R the nonzero rows of
      its rref, so det(Atilde_{I,J}) = det(C_I) det(R_J) (Cauchy-Binet). Two
      tables of ``maximal_minors`` give every nonzero det(R_J) and det(C_I)
      (the latter as minors of C^T), so the I and J with a zero factor are
      dropped before the pairs are formed. For each I left, one table of the
      maximal minors of B[:, I]^T, on B's integer rows, gives det(B_{J,I})
      for every J;
    - k > s (only the ``minors`` command with s below the rank of Atilde):
      no one factorization serves, so both minors of each pair are taken
      directly with ``det``.
    """
    if B.rows != Atilde.cols or B.cols != Atilde.rows:
        raise ShapeMismatch("B must be r x n for an n x r Atilde")
    if s < 0:
        raise ValueError(f"the minor order s must be non-negative, got {s}")
    common_sign = 0
    witness = None
    conflict = None
    for I, J, num, den in _paired_products(Atilde, B, s):
        if num == 0:
            continue
        sg = 1 if num > 0 else -1
        if common_sign == 0:
            common_sign = sg
            witness = (I, J, Fraction(num, den))
        elif sg != common_sign and conflict is None:
            conflict = (witness[:2], (I, J))
    holds = common_sign != 0 and conflict is None
    ledger = {
        "s": s,
        "common_sign": common_sign,
        "nonzero_witness": None if witness is None else {"I": witness[0], "J": witness[1], "product": witness[2]},
        "conflict": None if conflict is None else {
            "first": {"I": conflict[0][0], "J": conflict[0][1]},
            "second": {"I": conflict[1][0], "J": conflict[1][1]},
        },
    }
    return holds, ledger


# -- verdicts -----------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    kappa: tuple  # exact positive rationals
    x: tuple  # decimal strings at full working precision
    y: tuple
    residual_bound: str
    mu: SignVector
    tau: SignVector


@dataclass(frozen=True)
class Verdict:
    injective: bool
    method: str
    certificate: Optional[dict] = None
    counterexample: Optional[Counterexample] = None
    warnings: tuple = ()

    def to_json_dict(self):
        """This verdict as the CLI renders it. Kept only for the benchmark's
        tamper check (``bench/tests/test_bench.py``), which reads its
        counterexample here; delete it once that check reads the fields."""
        from .cli import _json_value

        return _json_value(self)


# -- numeric evaluation -------------------------------------------------------


def _to_libmp(value, prec: int, interval: bool = False):
    """A Fraction, int or mpf as a raw mpmath.libmp value at prec bits: for p / q
    the interval of iv.mpf(p) / iv.mpf(q), or the point of mp.mpf(p) / mp.mpf(q)
    (no division by q = 1, which changes no bit). An mpf enters an interval
    exactly, as iv takes it, and a point rounded to nearest, as mp.mpf does."""
    from mpmath import libmp

    if not isinstance(value, (int, Fraction)):
        v = value._mpf_
        return (v, v) if interval else libmp.mpf_pos(v, prec, libmp.round_nearest)
    p, q = value.numerator, value.denominator
    if interval:
        floor, ceiling = libmp.round_floor, libmp.round_ceiling
        num = (libmp.from_int(p, prec, floor), libmp.from_int(p, prec, ceiling))
        if q == 1:
            return num
        return libmp.mpi_div(num, (libmp.from_int(q, prec, floor), libmp.from_int(q, prec, ceiling)), prec)
    rn = libmp.round_nearest
    num = libmp.from_int(p, prec, rn)
    return num if q == 1 else libmp.mpf_div(num, libmp.from_int(q, prec, rn), prec, rn)


def _monomials(B: RationalMatrix, x, prec: int, interval: bool = False):
    """x^B as raw mpmath.libmp values at prec bits, points as mp computes them or
    enclosures as iv does: row j is exp(sum_i b_ji ln x_i), summed left to
    right from 0 over the nonzero b_ji."""
    from mpmath import libmp

    if interval:
        log, mul, add, exp = libmp.mpi_log, libmp.mpi_mul, libmp.mpi_add, libmp.mpi_exp
        zero, tail = (libmp.fzero, libmp.fzero), (prec,)
    else:
        log, mul, add, exp = libmp.mpf_log, libmp.mpf_mul, libmp.mpf_add, libmp.mpf_exp
        zero, tail = libmp.fzero, (prec, libmp.round_nearest)
    logs = [log(_to_libmp(xi, prec, interval), *tail) for xi in x]
    out = []
    for row in B.entries:
        expo = zero
        for b, log_x in zip(row, logs):
            if b:
                expo = add(expo, mul(_to_libmp(b, prec, interval), log_x, *tail), *tail)
        out.append(exp(expo, *tail))
    return out


def evaluate_map(
    A: RationalMatrix, B: RationalMatrix, kappa, x, prec: int = DEFAULT_PRECISION_BITS
):
    """f_kappa(x) = A diag(kappa) x^B with a rigorous interval error bound.

    Returns (values, error_bound): midpoints and the largest interval radius,
    both as mpf at the working precision. Each entry is the interval sum, left
    to right from 0, of (a_ij kappa_j) x^B_j over the nonzero a_ij.
    """
    if A.cols != B.rows:
        raise ShapeMismatch("A and B are not composable")
    kappa = tuple(kappa)
    x = tuple(x)
    if len(kappa) != A.cols or len(x) != B.cols:
        raise LengthMismatch("kappa must match columns of A; x must match columns of B")
    if any(k <= 0 for k in kappa) or any(xi <= 0 for xi in x):
        raise NonPositiveInput("kappa and x must be componentwise positive")
    from mpmath import libmp, mp

    mul, add = libmp.mpi_mul, libmp.mpi_add
    kappa = [_to_libmp(k, prec, True) for k in kappa]
    mono = _monomials(B, x, prec, interval=True)
    values = []
    radius = libmp.fzero
    for row in A.entries:
        acc = (libmp.fzero, libmp.fzero)
        for a, k, m in zip(row, kappa, mono):
            if a:
                acc = add(acc, mul(mul(_to_libmp(a, prec, True), k, prec), m, prec), prec)
        values.append(mp.make_mpf(libmp.mpi_mid(acc, prec)))
        half = libmp.mpf_shift(libmp.mpi_delta(acc, prec), -1)
        if libmp.mpf_gt(half, radius):
            radius = half
    return tuple(values), mp.make_mpf(radius)


# -- counterexample construction ----------------------------------------------


def exponential_pair(z, v):
    """Positive x, y with x - y = z and ln x - ln y = v, at the caller's mp precision.

    z and v are rational with one sign pattern: y_i = z_i / (e^{v_i} - 1) and
    x_i = y_i e^{v_i}, and x_i = y_i = 1 where z_i = 0.
    """
    from mpmath import libmp, mp

    prec, rn = mp.prec, libmp.round_nearest
    one = mp.make_mpf(libmp.fone)
    x, y = [], []
    for zi, vi in zip(z, v):
        if zi == 0:
            x.append(one)
            y.append(one)
        else:
            ev = libmp.mpf_exp(_to_libmp(vi, prec), prec, rn)
            yi = libmp.mpf_div(_to_libmp(zi, prec), libmp.mpf_sub(ev, libmp.fone, prec, rn), prec, rn)
            y.append(mp.make_mpf(yi))
            x.append(mp.make_mpf(libmp.mpf_mul(yi, ev, prec, rn)))
    return x, y


def rational_point_in_subset(S, tau: SignVector):
    """Exact rational z in S with sigma(z) = tau."""
    if isinstance(S, (FullSpace, OrthantUnion)):
        return tuple(Fraction(s) for s in tau)
    z = rational_point_with_sign(S.kernel_presentation(), tau)
    if z is None:
        raise VerificationFailed("no rational point of the requested sign exists in S")
    return z


def construct_counterexample(
    A: RationalMatrix,
    B: RationalMatrix,
    S,
    mu: SignVector,
    tau: SignVector,
    y_hat,
    prec: int = DEFAULT_PRECISION_BITS,
) -> Counterexample:
    """Build (kappa, x, y) with f_kappa(x) = f_kappa(y), x - y in S, from a feasible pair.

    y_hat is the y half of a solution of the (mu, tau) sign system, with
    sigma(y_hat) = tau and sigma(B y_hat) = mu; it supplies ln x - ln y. kappa
    is emitted as exact positive rationals, so the verified residual is
    nonzero but far below tolerance.
    """
    if sigma(y_hat) != tau:
        raise VerificationFailed("pair witness does not carry the sign tau")
    z = rational_point_in_subset(S, tau)
    if mu.is_zero():
        w = tuple(Fraction(0) for _ in range(A.cols))
    else:
        w = rational_point_with_sign(A, mu)
        if w is None:
            raise VerificationFailed("mu is not a sign vector of ker(A)")

    from mpmath import mp

    for attempt_prec in retry_precisions(prec):
        with mp.workprec(attempt_prec):
            x_num, y_num = exponential_pair(z, y_hat)
            kappa = collision_kappa(B, w, x_num, y_num, attempt_prec)
            ok, bound = verify_counterexample(A, B, kappa, x_num, y_num, attempt_prec)
            if ok:
                digits = int(attempt_prec * 0.3010299957) + 2
                return Counterexample(
                    kappa=tuple(kappa),
                    x=tuple(mp.nstr(xi, digits) for xi in x_num),
                    y=tuple(mp.nstr(yi, digits) for yi in y_num),
                    residual_bound=mp.nstr(bound, 8),
                    mu=mu,
                    tau=tau,
                )
    raise VerificationFailed("counterexample residual exceeds tolerance at maximum precision")


def retry_precisions(prec: int):
    """The working precisions, in bits, at which a rounded kappa is tried: prec,
    then max(4 prec, 1024)."""
    return prec, max(4 * prec, 1024)


def collision_kappa(B: RationalMatrix, w, x, y, prec: int):
    """kappa_j = w_j / (x^b_j - y^b_j) at prec bits, rounded to nearest from
    x^B and y^B, as exact rationals; kappa_j = 1 where w_j = 0.

    For w in ker A with sigma(w) = sigma(x^B - y^B), A diag(kappa) x^B =
    A diag(kappa) y^B up to that rounding. x and y may be exact rationals or
    mpf. A kappa_j that is not positive raises VerificationFailed.
    """
    from mpmath import libmp

    rn = libmp.round_nearest
    kappa = []
    for wj, xBj, yBj in zip(w, _monomials(B, x, prec), _monomials(B, y, prec)):
        if wj == 0:
            kappa.append(Fraction(1))
        else:
            kj = libmp.mpf_div(_to_libmp(wj, prec), libmp.mpf_sub(xBj, yBj, prec, rn), prec, rn)
            if libmp.mpf_sign(kj) <= 0:
                raise VerificationFailed("constructed kappa is not positive")
            kappa.append(Fraction(*map(int, libmp.to_rational(kj))))
    return kappa


def verify_counterexample(A, B, kappa, x_num, y_num, prec):
    """(relative residual <= RESIDUAL_TOLERANCE, the residual) of f_kappa(x) = f_kappa(y),
    bounded in interval arithmetic at prec bits; with no rows of A the residual
    is 0 and the scale 1. x and y may be exact rationals or mpf."""
    from mpmath import mp

    with mp.workprec(prec):
        if any(k <= 0 for k in kappa) or any(v <= 0 for v in x_num) or any(v <= 0 for v in y_num):
            return False, mp.inf
        fx, ex = evaluate_map(A, B, kappa, x_num, prec)
        fy, ey = evaluate_map(A, B, kappa, y_num, prec)
        residual = max((abs(a - b) for a, b in zip(fx, fy)), default=mp.mpf(0)) + ex + ey
        scale = max([*(abs(v) for v in fx), mp.mpf(1)])
        rel = residual / scale
        return rel <= RESIDUAL_TOLERANCE, rel


# -- the decision procedure ---------------------------------------------------


def _zero_mu(r: int) -> SignVector:
    """mu = 0 in {-,0,+}^r: the sign of By for a y in ker(B)."""
    if not r:
        raise ShapeMismatch("the ground set is empty: A has no columns, so mu = 0 has no coordinate")
    return SignVector.zero(r)


def _pair_y(B: RationalMatrix, mu: SignVector, tau: SignVector):
    """The y block of the (mu, tau) sign pair: sigma(By) = mu, sigma(y) = tau.

    The joint system of ``feasible_sign_pair`` adds an x block, Ax = 0 and
    sigma(x) = mu, that shares no variable with y. For mu in sigma(ker A), as
    every caller's is, that block is feasible, so the pair is feasible iff
    this system is. Under Bland's rule the joint tableau is block diagonal: a
    pivot in one block changes no entry, ratio or reduced-cost sign of the
    other, and each block keeps its columns and rows in the same relative
    order. So this system takes the y block's pivots and returns the same
    witness Fractions as the y half of the joint witness.
    """
    return solve_strict(StrictSystem(nvars=B.cols, comp_signs=tau, linear_sign_rows=B, linear_signs=mu))


def _nogood(certificate, signs):
    """The nogood of an infeasible pair LP: its checked Farkas certificate on
    the rows it is nonzero on, each with its contribution c_i, which is
    lambda_i s_i on an inequality and lambda_i on an equality.

    signs are the pair's constraint signs, tau on the unit rows y_k and then mu
    on the rows of B. Returns (pos, neg, terms): the bitmasks of the support
    rows with c_i > 0 and with c_i < 0, and the (i, c_i).
    """
    terms = [(i, l * s if s else l) for i, (l, s) in enumerate(zip(certificate, signs)) if l]
    return sum(1 << i for i, c in terms if c > 0), sum(1 << i for i, c in terms if c < 0), terms


def _refuted(nogoods, B: RationalMatrix, signs) -> bool:
    """True iff a nogood decides the pair with these constraint signs: in one
    orientation o = +-1 (the pair LP is symmetric under y -> -y), every
    support row's sign is 0 or o sign(c_i), and one is nonzero.

    Then lambda'_i = |c_i| on the rows that keep a sign and o c_i on those
    that became equalities combine the same rows to the same zero, with a
    positive total, checked again on the pair's own support rows first.
    """
    n = B.cols
    pos = sum(1 << i for i, s in enumerate(signs) if s > 0)
    neg = sum(1 << i for i, s in enumerate(signs) if s < 0)
    for c_pos, c_neg, terms in nogoods:
        agree, oppose = pos & c_pos | neg & c_neg, pos & c_neg | neg & c_pos
        if bool(agree) == bool(oppose):
            continue
        o = 1 if agree else -1
        rows, lams = [], []
        for i, c in terms:
            s = signs[i]
            rows.append((unit_row(n, i) if i < n else B.entries[i - n], s))
            lams.append(o * (c * s if s else c))
        check_certificate(n, rows, lams)
        return True
    return False


def _sign_search(A: RationalMatrix, B: RationalMatrix, T):
    """The exhaustive feasibility search over (mu, tau) pairs, for T the
    canonically ordered distinct nonzero sign vectors of S (``OrthantUnion.T``
    or ``Subspace.nonzero_sign_vectors``). Returns (verdict, pair), pair the
    first feasible (mu, tau, y) (sigma(By) = mu, sigma(y) = tau) or None.

    mu = 0 takes the first tau of T in sigma(ker B). Each other pair (mu in
    sigma(ker A)) is decided by its y block alone (``_pair_y``), or without an
    LP by a nogood: the checked Farkas certificate of an earlier infeasible
    pair that fits it in either orientation (``_refuted``), re-checked on the
    pair's own rows. A nogood never fits a feasible pair, so every witness
    comes from the same LP as without nogoods. Raises SearchBudgetExceeded
    instead of deciding more than SIGN_SEARCH_LP_BUDGET pairs, by LP or by
    nogood, so the budget trips where it would if every pair took an LP.
    """
    if not T:
        return Verdict(True, "sign_search", certificate={"empty_condition": True}), None

    # mu = 0 arm: feasible iff ker(B) meets one of the requested orthants
    kerB = set(matroid_vectors(B))
    tau = next((t for t in T if t in kerB), None)
    if tau is not None:
        y = rational_point_with_sign(B, tau)
        return Verdict(False, "sign_search"), (_zero_mu(A.cols), tau, y)

    mus = tuple(v for v in matroid_vectors(A) if not v.is_zero())
    nogoods = []
    tested = 0
    for mu in mus:
        for tau in T:
            if tested == SIGN_SEARCH_LP_BUDGET:
                raise SearchBudgetExceeded(f"the (mu, tau) sign search stopped after {tested} LPs")
            tested += 1
            # the pair LP's constraint signs: tau on the unit rows, then mu on B's rows
            signs = tau + mu
            if _refuted(nogoods, B, signs):
                continue
            result = _pair_y(B, mu, tau)
            if result.feasible:
                return Verdict(False, "sign_search"), (mu, tau, result.witness)
            nogoods.append(_nogood(result.certificate, signs))
    certificate = {
        "pairs_tested": tested,
        "mu_candidates": mus,
        "tau_candidates": T,
    }
    return Verdict(True, "sign_search", certificate=certificate), None


def check_injectivity(
    A: RationalMatrix, B: RationalMatrix, S, prec: int = DEFAULT_PRECISION_BITS
) -> Verdict:
    """Decide injectivity of the family with respect to S, dispatching on the shape of S.

    Routes decide exactly and return the (mu, tau, y) of a "not injective"
    verdict; the one ``construct_counterexample`` call renders it at prec bits.
    """
    r = A.cols
    if B.rows != r:
        raise ShapeMismatch("B must have one row per column of A")
    n = B.cols
    warnings = ()
    if len({B.row(j) for j in range(r)}) < r:
        warnings = ("duplicate rows in B: the coset interpretation of S may weaken",)

    check_ambient_dim(S, n)
    if isinstance(S, FullSpace):
        verdict, pair = _check_full_space(A, B)
    elif isinstance(S, OrthantUnion):
        verdict, pair = _sign_search(A, B, S.T)
    elif isinstance(S, Subspace):
        dim = S.dim()
        if dim == 0:
            verdict, pair = Verdict(True, "minors", certificate={"empty_condition": True}), None
        elif dim != (Aprime := row_basis(A)).rows:
            verdict, pair = _sign_search(A, B, S.nonzero_sign_vectors())
        else:
            verdict, pair = _check_subspace_minors(A, Aprime, B, S)
    else:
        raise TypeError(f"unknown subset specification {type(S).__name__}")
    counterexample = None if pair is None else construct_counterexample(A, B, S, *pair, prec)
    # a route's verdict carries only its own warnings; the duplicate-rows one goes first
    return replace(verdict, counterexample=counterexample, warnings=warnings + verdict.warnings)


def _check_full_space(A, B):
    """S = R^n, as (verdict, pair) like ``_sign_search``: a y in ker B pairs
    with mu = 0, and otherwise the smallest rho in sigma(ker A) ∩ sigma(im B)
    with the y block (``_pair_y``) of the pair (rho, tau), as rho is in sigma(ker A)."""
    m, n = A.rows, B.cols
    K = kernel_basis(B)
    if K.cols:
        # ker(B) nontrivial: the monomial map itself is not injective
        y = K.column(0)
        return Verdict(False, "full_space"), (_zero_mu(A.cols), sigma(y), y)
    ledger = None
    if m == n:
        holds, ledger = check_minors(A, B, n)
        if holds:
            return Verdict(True, "minors", certificate=ledger), None
    shared = common_sign_vectors(A, B)
    if not shared:
        if m == n:
            raise InternalError("minors route failed but sign sets do not intersect")
        return Verdict(True, "sign_search", certificate={"kernel_image_intersection": "trivial"}), None
    rho = shared[0]
    # rho in sigma(im B): recover a y with sigma(By) = rho, then pair it with rho
    res = solve_strict(StrictSystem(nvars=n, linear_sign_rows=B, linear_signs=rho))
    if not res.feasible:
        raise VerificationFailed("no y with sigma(By) = rho, though rho is in sigma(im B)")
    tau = sigma(res.witness)
    pair = _pair_y(B, rho, tau)
    if not pair.feasible:
        raise VerificationFailed("the sign pair (rho, sigma(y)) is infeasible")
    return Verdict(False, "minors" if m == n else "sign_search", certificate=ledger), (rho, tau, pair.witness)


def _check_subspace_minors(A, Aprime, B, S):
    """dim S = rank A, as (verdict, pair) like ``_sign_search``: the minors and
    det-polynomial routes decide, and a failed verdict takes its pair from the
    sign search.

    Aprime is row_basis(A). If the sign search hits its pair budget (it decides
    at most SIGN_SEARCH_LP_BUDGET (mu, tau) pairs, by LP or by nogood), the
    decided verdict is returned with its certificate, no pair and a warning.
    """
    C = S.image_presentation()
    Z = S.kernel_presentation()
    holds, ledger = check_minors(C @ Aprime, B, Aprime.rows)
    poly = gamma_det_poly(Aprime, B, Z)
    if det_condition(poly) != holds:
        raise InternalError("the (min) and (det) routes disagree; internal bug")
    certificate = {"minors": ledger, "det_poly_sign_count": len(poly.signs())}
    if holds:
        return Verdict(True, "minors", certificate=certificate), None
    try:
        verdict, pair = _sign_search(A, B, S.nonzero_sign_vectors())
    except SearchBudgetExceeded:
        return Verdict(False, "minors", certificate=certificate, warnings=(
            f"no counterexample: the (mu, tau) sign search stopped at its {SIGN_SEARCH_LP_BUDGET:,}-LP "
            "budget after the minors route had decided",)), None
    if verdict.injective:
        raise InternalError("minor route failed but sign search found no feasible pair")
    return Verdict(False, "minors", certificate=certificate), pair
