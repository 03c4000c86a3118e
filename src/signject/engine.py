"""The injectivity decision engine.

Decides whether the whole family f_kappa(x) = A diag(kappa) x^B is injective
with respect to a subset S of R^n, for all positive kappa. Three routes exist
and provably agree: the paired-minor sign test, the symbolic determinant of
the bordered square matrix, and the exhaustive sign-pair search. All
verdict-bearing arithmetic is exact; floating point enters only when a
counterexample witness is rendered and re-verified at high precision. The
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
from .matroid import common_sign_vectors, image_sign_vectors, matroid_vectors
from .ratmat import (
    RationalMatrix,
    column_basis,
    det,
    gale_dual,
    integer_det,
    integer_rows,
    integer_rref,
    kernel_basis,
    permutation_sign_tau,
    rank,
    rref,
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
            return self.Z if self.Z.rows == self.ambient_dim - self.dim() else _pivot_rows(self.Z)
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
        """sigma(S) minus the zero vector, canonically ordered."""
        if self.dim() == 0:
            return ()
        return tuple(v for v in image_sign_vectors(self.image_presentation()) if not v.is_zero())


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
    """Exact coefficients of det of the (Z over A'_kappa B_lambda) block matrix."""
    s, r = Aprime.rows, Aprime.cols
    if B.rows != r:
        raise ShapeMismatch("B must have one row per column of A'")
    n = B.cols
    Z = border_block(Z, s, n)
    b_rows, b_scales = integer_rows(B)
    terms = {}
    full_s = list(range(s))
    full_ns = list(range(n - s))
    # det(A'_{[s],J}) does not depend on I; a J with a zero minor adds no term
    a_minors = [(J, m) for J in combinations(range(r), s)
                if (m := det(Aprime.submatrix(full_s, J))) != 0]
    for I in combinations(range(n), s):
        Ic = [i for i in range(n) if i not in set(I)]
        tau = permutation_sign_tau(I, n)
        z_minor = Fraction(1) if Z is None else det(Z.submatrix(full_ns, Ic))
        if z_minor == 0:
            continue
        for J, a_minor in a_minors:
            b = integer_det([[b_rows[j][i] for i in I] for j in J])
            if b:
                terms[(I, J)] = tau * z_minor * a_minor * Fraction(b, prod(b_scales[j] for j in J))
    return SymbolicDetPoly(s, terms)


def det_condition(p: SymbolicDetPoly) -> bool:
    """True iff the polynomial is nonzero and all coefficients share one sign."""
    return len(p.signs()) == 1


# -- minors route -------------------------------------------------------------


def _paired_products(Atilde: RationalMatrix, B: RationalMatrix, s: int):
    """(I, J, num, den) with det(Atilde_{I,J}) det(B_{J,I}) = num / den and
    den > 0, in lexicographic (I, J) order; pairs whose product is known to
    vanish may be left out. The cases are those of ``check_minors``.
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
    r_minors = [(J, sign_d * m, prod(b_scales[j] for j in J)) for J in combinations(range(r), s)
                if (m := integer_det([[a_rows[p][j] for j in J] for p in P]))]
    for I in combinations(range(n), s):
        c = integer_det([[a_rows[i][q] for q in Q] for i in I])
        if c == 0:
            continue
        den = abs(d) * prod(a_scales[i] for i in I)
        for J, m, b_scale in r_minors:
            b = integer_det([[b_rows[j][i] for i in I] for j in J])
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
      its rref, so det(Atilde_{I,J}) = det(C_I) det(R_J) (Cauchy-Binet):
      C(n, s) + C(r, s) integer minors, and the I and J with a zero factor
      are dropped before the pairs are formed. det(B_{J,I}) is an integer
      minor of B's integer rows, taken only for the pairs left;
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

    from mpmath import libmp, mp

    rn = libmp.round_nearest
    for attempt_prec in (prec, max(4 * prec, 1024)):
        with mp.workprec(attempt_prec):
            x_num, y_num = exponential_pair(z, y_hat)
            xB = _monomials(B, x_num, attempt_prec)
            yB = _monomials(B, y_num, attempt_prec)
            kappa = []
            for wj, xBj, yBj in zip(w, xB, yB):
                if wj == 0:
                    kappa.append(Fraction(1))
                else:
                    diff = libmp.mpf_sub(xBj, yBj, attempt_prec, rn)
                    kj = libmp.mpf_div(_to_libmp(wj, attempt_prec), diff, attempt_prec, rn)
                    if libmp.mpf_sign(kj) <= 0:
                        raise VerificationFailed("constructed kappa is not positive")
                    kappa.append(Fraction(*map(int, libmp.to_rational(kj))))
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


def _pivot_rows(A: RationalMatrix) -> RationalMatrix:
    """The nonzero rows of rref(A): an s x r matrix with the same kernel as A."""
    R, pivots = rref(A)
    rows = [R.entries[i] for i in range(len(pivots))]
    return RationalMatrix(rows, len(rows), A.cols)


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
    """True iff a nogood decides the pair with these constraint signs: every
    support row's sign is 0 or sign(c_i), and one is nonzero.

    Then lambda'_i = |c_i| on the rows that keep a sign and c_i on those that
    became equalities combine the same rows to the same zero, with a positive
    total. That combination is checked again on the pair's own support rows
    before the pair is skipped.
    """
    n = B.cols
    pos = sum(1 << i for i, s in enumerate(signs) if s > 0)
    neg = sum(1 << i for i, s in enumerate(signs) if s < 0)
    for c_pos, c_neg, terms in nogoods:
        if pos & c_neg or neg & c_pos or not (pos | neg) & (c_pos | c_neg):
            continue
        rows, lams = [], []
        for i, c in terms:
            s = signs[i]
            rows.append((unit_row(n, i) if i < n else B.entries[i - n], s))
            lams.append(c * s if s else c)
        check_certificate(n, rows, lams)
        return True
    return False


def _sign_search(A: RationalMatrix, B: RationalMatrix, T, S, prec):
    """The exhaustive feasibility search over (mu, tau) pairs.

    Each pair with mu in sigma(ker A) is decided by its y block alone
    (``_pair_y``), which gives the witness of the joint LP's y half, or
    without an LP by a nogood: the checked Farkas certificate of an earlier
    infeasible pair that fits it (``_refuted``), re-checked on the pair's own
    rows. A nogood never fits a feasible pair, so every witness comes from the
    same LP as without nogoods. Raises SearchBudgetExceeded instead of deciding
    more than SIGN_SEARCH_LP_BUDGET pairs, whether by LP or by nogood, so the
    budget trips where it would if every pair took an LP.
    """
    r = A.cols
    T = tuple(sorted(set(T)))
    if not T:
        return Verdict(True, "sign_search", certificate={"empty_condition": True})

    # mu = 0 arm: feasible iff ker(B) meets one of the requested orthants
    kerB = set(matroid_vectors(B))
    shared = sorted(kerB.intersection(T))
    if shared:
        tau = shared[0]
        y_hat = rational_point_with_sign(B, tau)
        cx = construct_counterexample(A, B, S, _zero_mu(r), tau, y_hat, prec)
        return Verdict(False, "sign_search", counterexample=cx)

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
                cx = construct_counterexample(A, B, S, mu, tau, result.witness, prec)
                return Verdict(False, "sign_search", counterexample=cx)
            nogoods.append(_nogood(result.certificate, signs))
    certificate = {
        "pairs_tested": tested,
        "mu_candidates": mus,
        "tau_candidates": T,
    }
    return Verdict(True, "sign_search", certificate=certificate)


def check_injectivity(
    A: RationalMatrix, B: RationalMatrix, S, prec: int = DEFAULT_PRECISION_BITS
) -> Verdict:
    """Decide injectivity of the family with respect to S, dispatching on the shape of S.

    prec is the working precision, in bits, at which a counterexample is
    rendered and re-verified; the verdict itself is exact.
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
        verdict = _check_full_space(A, B, S, prec)
    elif isinstance(S, OrthantUnion):
        verdict = _sign_search(A, B, S.T, S, prec)
    elif isinstance(S, Subspace):
        dim = S.dim()
        if dim == 0:
            verdict = Verdict(True, "minors", certificate={"empty_condition": True})
        elif dim != (Aprime := _pivot_rows(A)).rows:
            verdict = _sign_search(A, B, S.nonzero_sign_vectors(), S, prec)
        else:
            verdict = _check_subspace_minors(A, Aprime, B, S, prec)
    else:
        raise TypeError(f"unknown subset specification {type(S).__name__}")
    # a route's verdict carries only its own warnings; the duplicate-rows one goes first
    return replace(verdict, warnings=warnings + verdict.warnings)


def _check_full_space(A, B, S, prec):
    """S = R^n. A counterexample comes from the smallest rho in sigma(ker A) ∩
    sigma(im B): rho is in sigma(ker A), so the pair (rho, tau) is decided by its
    y block alone (``_pair_y``), with the witness of the joint LP's y half."""
    m, r = A.rows, A.cols
    n = B.cols
    if rank(B) < n:
        # ker(B) nontrivial: the monomial map itself is not injective
        kv = kernel_basis(B).column(0)
        cx = construct_counterexample(A, B, S, _zero_mu(r), sigma(kv), kv, prec)
        return Verdict(False, "full_space", counterexample=cx)
    ledger = None
    if m == n:
        holds, ledger = check_minors(A, B, n)
        if holds:
            return Verdict(True, "minors", certificate=ledger)
    shared = common_sign_vectors(A, B)
    if not shared:
        if m == n:
            raise InternalError("minors route failed but sign sets do not intersect")
        return Verdict(True, "sign_search", certificate={"kernel_image_intersection": "trivial"})
    rho = shared[0]
    # rho in sigma(im B): recover a y with sigma(By) = rho, then pair it with rho
    res = solve_strict(StrictSystem(nvars=n, linear_sign_rows=B, linear_signs=rho))
    if not res.feasible:
        raise VerificationFailed("no y with sigma(By) = rho, though rho is in sigma(im B)")
    tau = sigma(res.witness)
    pair = _pair_y(B, rho, tau)
    if not pair.feasible:
        raise VerificationFailed("the sign pair (rho, sigma(y)) is infeasible")
    cx = construct_counterexample(A, B, S, rho, tau, pair.witness, prec)
    return Verdict(False, "minors" if m == n else "sign_search", certificate=ledger, counterexample=cx)


def _check_subspace_minors(A, Aprime, B, S, prec):
    """dim S = rank A: the minors and det-polynomial routes decide, and a failed
    verdict takes its counterexample from the sign search.

    Aprime is _pivot_rows(A). If the sign search hits its LP budget, the decided
    verdict is returned with its certificate, no counterexample and a warning.
    """
    C = S.image_presentation()
    Z = S.kernel_presentation()
    holds, ledger = check_minors(C @ Aprime, B, Aprime.rows)
    poly = gamma_det_poly(Aprime, B, Z)
    if det_condition(poly) != holds:
        raise InternalError("the (min) and (det) routes disagree; internal bug")
    certificate = {"minors": ledger, "det_poly_sign_count": len(poly.signs())}
    if holds:
        return Verdict(True, "minors", certificate=certificate)
    try:
        verdict = _sign_search(A, B, S.nonzero_sign_vectors(), S, prec)
    except SearchBudgetExceeded:
        return Verdict(False, "minors", certificate=certificate, warnings=(
            f"no counterexample: the (mu, tau) sign search stopped at its {SIGN_SEARCH_LP_BUDGET:,}-LP "
            "budget after the minors route had decided",))
    if verdict.injective:
        raise InternalError("minor route failed but sign search found no feasible pair")
    return replace(verdict, method="minors", certificate=certificate)
