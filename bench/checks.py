"""Output checks computed apart from signject.

Nothing here imports signject. Exact linear algebra goes through sympy's
``DomainMatrix`` over QQ (imported on first use, so that sympy is loaded only
after the timed part of a run), numeric re-verification through mpmath at
``PREC_BITS`` bits, and sign-vector algebra through (positive, negative)
bitmask pairs. Matrices are lists of rows of ``Fraction``; sign vectors are
strings over ``+-0`` as signject prints them.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from mpmath import mp

PREC_BITS = 320
RESIDUAL_LIMIT = "1e-30"


# -- exact linear algebra -----------------------------------------------------


def to_dm(M, cols=None):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    cols = len(M[0]) if M else cols
    return DomainMatrix([[QQ(v.numerator, v.denominator) for v in row] for row in M], (len(M), cols), QQ)


def from_dm(D):
    return [[Fraction(int(v.numerator), int(v.denominator)) for v in row] for row in D.to_list()]


def transpose(M):
    return [list(col) for col in zip(*M)]


def rank(M):
    return to_dm(M).rank() if M and M[0] else 0


def _det(D):
    from sympy import ZZ

    if all(v.denominator == 1 for row in D.to_list() for v in row):
        return D.convert_to(ZZ).det()
    return D.det()


def left_kernel(C):
    """Rows w with w . c = 0 for every column c of C: the orthogonal complement of im(C)."""
    return from_dm(to_dm(C).transpose().nullspace()) if rank(C) < len(C) else []


def in_image_exact(W, d):
    """d lies in im(C), given the rows W = left_kernel(C)."""
    return all(sum((w * v for w, v in zip(row, d)), Fraction(0)) == 0 for row in W)


def paired_minor_condition(A, B, C):
    """The paper's paired-minor condition for S = im(C) when dim S = rank A.

    With C' an n x s basis of S and A' an s x r basis of the row space of A,
    the family is injective with respect to S iff the products
    det((C'A')_{I,J}) det(B_{J,I}) over |I| = |J| = s are all >= 0 or all
    <= 0, and not all zero. A change of either basis scales every product by
    one nonzero constant, so the bases here (original columns of C, original
    rows of A) need not be those signject uses. Returns None when
    dim S != rank A.
    """
    s = rank(A)
    if rank(C) != s:
        return None
    if s == 0:
        return True
    Cb = to_dm(C).columnspace()
    Ab = to_dm(A).transpose().columnspace().transpose()
    At = Cb * Ab
    Bd = to_dm(B)
    n, r = At.shape
    signs = set()
    for I in combinations(range(n), s):
        for J in combinations(range(r), s):
            a = _det(At.extract(list(I), list(J)))
            if a == 0:
                continue
            b = _det(Bd.extract(list(J), list(I)))
            if b != 0:
                signs.add((a > 0) == (b > 0))
    return len(signs) == 1


# -- numeric re-verification of witnesses -------------------------------------


def _mpf(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / mp.mpf(q.denominator)


def _monomials(B, x):
    out = []
    for row in B:
        value = mp.mpf(1)
        for xi, b in zip(x, row):
            if b != 0:
                value *= mp.power(xi, int(b) if b.denominator == 1 else _mpf(b))
        out.append(value)
    return out


def relative_residual(A, B, kappa, x, y):
    """max_i |f(x)_i - f(y)_i| over the largest sum of absolute terms of f (at least 1)."""
    terms = []
    for point in (x, y):
        mono = _monomials(B, point)
        terms.append([[_mpf(a) * _mpf(k) * m for a, k, m in zip(row, kappa, mono)] for row in A])
    diff = max((abs(mp.fsum(tx) - mp.fsum(ty)) for tx, ty in zip(*terms)), default=mp.mpf(0))
    scale = max([mp.mpf(1)] + [mp.fsum(abs(t) for t in row) for point_terms in terms for row in point_terms])
    return diff / scale


def witness_errors(A, B, kappa, x, y, in_S):
    """Check (kappa, x, y): positive, x != y, x - y in S, f_kappa(x) = f_kappa(y) to 1e-30.

    kappa holds exact rationals (strings or Fractions); x and y are decimal
    strings or Fractions. in_S receives x - y as mpf and returns an error
    string or None.
    """
    errors = []
    kappa = [Fraction(k) for k in kappa]
    with mp.workprec(PREC_BITS):
        xs = [_mpf(v) if isinstance(v, Fraction) else mp.mpf(v) for v in x]
        ys = [_mpf(v) if isinstance(v, Fraction) else mp.mpf(v) for v in y]
        if any(k <= 0 for k in kappa) or any(v <= 0 for v in xs + ys):
            return ["kappa, x and y are not all positive"]
        if len(kappa) != len(A[0]) or len(xs) != len(B[0]) or len(ys) != len(xs):
            return ["witness has the wrong length"]
        if xs == ys:
            errors.append("x equals y")
        problem = in_S([a - b for a, b in zip(xs, ys)])
        if problem:
            errors.append(problem)
        rel = relative_residual(A, B, kappa, xs, ys)
        if not rel <= mp.mpf(RESIDUAL_LIMIT):
            errors.append(f"relative residual {mp.nstr(rel, 5)} exceeds {RESIDUAL_LIMIT}")
    return errors


def subspace_membership(C):
    """in_S test for S = im(C): x - y must be orthogonal to im(C)'s complement."""
    W = left_kernel(C)

    def in_S(d):
        scale = max(abs(v) for v in d)
        for row in W:
            dot = mp.fsum(_mpf(w) * v for w, v in zip(row, d))
            if abs(dot) > mp.mpf(RESIDUAL_LIMIT) * scale * sum(abs(_mpf(w)) for w in row):
                return "x - y does not lie in S"
        return None

    return in_S


def orthant_membership(T):
    """in_S test for S = union of the orthants with sign vectors in T."""
    allowed = set(T)

    def in_S(d):
        signs = sign_string(d)
        return None if signs in allowed else f"sign of x - y, {signs}, is not in T"

    return in_S


# -- sign vectors -------------------------------------------------------------


def sign_string(values):
    return "".join("+" if v > 0 else "-" if v < 0 else "0" for v in values)


def masks(text):
    pos = neg = 0
    for i, c in enumerate(text):
        if c == "+":
            pos |= 1 << i
        elif c == "-":
            neg |= 1 << i
    return pos, neg


def orthogonal(X, Y):
    same = (X[0] & Y[0]) | (X[1] & Y[1])
    opposite = (X[0] & Y[1]) | (X[1] & Y[0])
    return (same == 0) == (opposite == 0)


def compose(X, Y):
    free = ~(X[0] | X[1])
    return X[0] | (Y[0] & free), X[1] | (Y[1] & free)


def circuits(A):
    """Signed circuits of the column matroid of A: minimal-support vectors of ker A."""
    r = len(A[0])
    D = to_dm(A)
    rows = list(range(len(A)))
    found = set()
    for k in range(1, rank(A) + 2):
        for T in combinations(range(r), k):
            kernel = D.extract(rows, list(T)).nullspace()
            if kernel.shape[0] != 1:
                continue
            v = from_dm(kernel)[0]
            if any(c == 0 for c in v):
                continue
            full = [Fraction(0)] * r
            for j, c in zip(T, v):
                full[j] = c
            found.add(sign_string(full))
            found.add(sign_string([-c for c in full]))
    return found


def cocircuits(A):
    """Signed cocircuits of the columns of A (full row rank): sign vectors of t^T A
    for the normals t of hyperplanes spanned by columns."""
    n, r = len(A), len(A[0])
    At = transpose(A)
    found = set()
    for H in combinations(range(r), n - 1):
        sub = [At[j] for j in H]
        if rank(sub) != n - 1:
            continue
        t = from_dm(to_dm(sub, n).nullspace())[0] if H else [Fraction(1)] + [Fraction(0)] * (n - 1)
        values = [sum((ti * a for ti, a in zip(t, col)), Fraction(0)) for col in At]
        found.add(sign_string(values))
        found.add(sign_string([-v for v in values]))
    return found


def zaslavsky_regions(A):
    """Regions of the central arrangement {t : t . a_j = 0}: sum over column subsets T
    of (-1)^(|T| - rank T)."""
    r = len(A[0])
    At = transpose(A)
    total = 0
    for k in range(r + 1):
        for T in combinations(range(r), k):
            rk = rank([At[j] for j in T]) if T else 0
            total += -1 if (k - rk) % 2 else 1
    return total


def covector_errors(A, L):
    """L (sign strings) must be the covector set of the columns of A."""
    r = len(A[0])
    errors = []
    Ls = set(L)
    if len(Ls) != len(L):
        errors.append("covector list has repeats")
    if "0" * r not in Ls:
        errors.append("zero vector missing")
    flip = str.maketrans("+-", "-+")
    if any(X.translate(flip) not in Ls for X in Ls):
        errors.append("not closed under negation")
    Lm = {masks(X) for X in Ls}
    co = [masks(C) for C in cocircuits(A)]
    if any(C not in Lm for C in co):
        errors.append("a cocircuit is missing")
    # closure under composition with every cocircuit, plus every covector
    # being the composition of the cocircuits conformal to it, gives closure
    # under composition of any two covectors (composition is associative)
    if any(compose(X, C) not in Lm for X in Lm for C in co):
        errors.append("not closed under composition")
    for X in Lm:
        covered = 0
        for C in co:
            if not (C[0] & ~X[0]) and not (C[1] & ~X[1]):
                covered |= C[0] | C[1]
        if covered != X[0] | X[1]:
            errors.append("a covector is not a composition of cocircuits")
            break
    circ = [masks(Y) for Y in circuits(A)]
    if any(not orthogonal(X, Y) for X in Lm for Y in circ):
        errors.append("a covector is not orthogonal to a circuit of ker A")
    topes = sum(1 for X in Ls if "0" not in X)
    regions = zaslavsky_regions(A)
    if topes != regions:
        errors.append(f"{topes} topes but Zaslavsky's count is {regions}")
    return errors


def cocircuit_errors(A, L):
    errors = []
    if len(set(L)) != len(L):
        errors.append("cocircuit list has repeats")
    if set(L) != cocircuits(A):
        errors.append("cocircuits differ from the hyperplane normals")
    circ = [masks(Y) for Y in circuits(A)]
    if any(not orthogonal(masks(X), Y) for X in L for Y in circ):
        errors.append("a cocircuit is not orthogonal to a circuit of ker A")
    return errors


def subspace_sign_vectors(C):
    """sigma(im C) minus zero: the sign vectors orthogonal to every elementary
    vector of the complement ker(C^T) (Rockafellar's theorem)."""
    n = len(C)
    circ = [masks(Y) for Y in circuits(transpose(C))]
    out = set()
    for code in range(1, 3 ** n):
        rest, signs = code, []
        for _ in range(n):
            rest, digit = divmod(rest, 3)
            signs.append("0+-"[digit])
        text = "".join(signs)
        if all(orthogonal(masks(text), Y) for Y in circ):
            out.add(text)
    return out
