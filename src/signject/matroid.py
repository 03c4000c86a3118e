"""Chirotopes, cocircuits, and covector enumeration for rational vector configurations.

A configuration is an n x r rational matrix of rank n whose columns are the
ground-set vectors. Cocircuits come from integer hyperplane normals (signed
(n-1)-minors of the column-scaled configuration), and covectors are their
composition closure, computed on bitmask pairs. The closure can be exponential
in r, so ``covectors`` raises ``TooLarge`` when r exceeds ``GROUND_SET_GUARD``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import RankDeficient, ShapeMismatch, TooLarge
from .ratmat import RationalMatrix, column_basis, det, integer_det, integer_rows, kernel_basis, rank
from .signs import SignVector, canonical_sort, sign_of

GROUND_SET_GUARD = 16


@dataclass(frozen=True)
class Chirotope:
    """Signs of maximal minors, stored on sorted n-subsets of the ground set."""

    rank: int
    ground_size: int
    signs: dict  # sorted index tuple -> -1/0/+1

    def __getitem__(self, subset):
        return self.signs[tuple(sorted(subset))]

    def negate(self) -> "Chirotope":
        return Chirotope(self.rank, self.ground_size, {k: -v for k, v in self.signs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Chirotope)
            and self.rank == other.rank
            and self.ground_size == other.ground_size
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.rank, self.ground_size, tuple(sorted(self.signs.items()))))


def chirotope(A: RationalMatrix) -> Chirotope:
    """Sign of det(A_{[n],J}) for every sorted n-subset J of columns."""
    n, r = A.rows, A.cols
    if rank(A) < n:
        raise RankDeficient(f"configuration has rank below {n}")
    signs = {}
    for J in combinations(range(r), n):
        signs[J] = sign_of(det(A.submatrix(range(n), J)))
    return Chirotope(n, r, signs)


def cocircuits(A: RationalMatrix):
    """All cocircuits (+/- pairs) of the configuration, canonically ordered.

    Each (n-1)-subset H of columns spanning a hyperplane determines a normal t,
    and the induced sign vector (sign(t . a^j))_j is a covector of minimal
    support. Scaling each column by the lcm of its denominators keeps every
    sign, so t is taken as the signed (n-1)-minors of the integer columns H:
    t . a = det[A_H | a], and t = 0 exactly when A_H has rank below n-1.
    """
    n, r = A.rows, A.cols
    if rank(A) < n:
        raise RankDeficient(f"configuration has rank below {n}")
    columns, _ = integer_rows(A.transpose())
    found = set()
    for H in combinations(range(r), n - 1):
        rows = [[columns[h][i] for h in H] for i in range(n)]
        t = [(-1) ** (n - 1 - i) * integer_det(rows[:i] + rows[i + 1:]) for i in range(n)]
        if not any(t):
            continue
        c = SignVector(sign_of(sum(ti * ai for ti, ai in zip(t, col))) for col in columns)
        found.add(c)
        found.add(-c)
    return canonical_sort(found)


def covectors(A: RationalMatrix):
    """The full covector set sigma(im(A^T)): composition closure of the cocircuits.

    A sign vector is held as the bitmask pair (pos, neg) of its + and -
    coordinates, and u o v = (pos_u | pos_v & ~supp_u, neg_u | neg_v & ~supp_u);
    a cocircuit whose support lies inside supp_u leaves u unchanged.
    """
    r = A.cols
    if r > GROUND_SET_GUARD:
        raise TooLarge(f"covector enumeration guarded at ground-set size {GROUND_SET_GUARD}")
    pairs = [(sum(1 << j for j, x in enumerate(c) if x > 0), sum(1 << j for j, x in enumerate(c) if x < 0))
             for c in cocircuits(A)]
    base = [(p, q, p | q) for p, q in pairs]
    closed = {(0, 0), *pairs}
    frontier = list(closed)
    while frontier:
        fresh = []
        for pos, neg in frontier:
            free = ~(pos | neg)
            for p, q, supp in base:
                if supp & free:
                    w = (pos | (p & free), neg | (q & free))
                    if w not in closed:
                        closed.add(w)
                        fresh.append(w)
        frontier = fresh
    return canonical_sort(
        SignVector((pos >> j & 1) - (neg >> j & 1) for j in range(r)) for pos, neg in closed
    )


def matroid_vectors(A: RationalMatrix):
    """sigma(ker(A)) as a complete sign-vector set (rank-deficient A allowed)."""
    K = kernel_basis(A)
    if K.cols == 0:
        return (SignVector.zero(A.cols),)
    # ker(A) = im(K), so its sign vectors are the covectors of K^T
    return covectors(K.transpose())


def image_sign_vectors(C: RationalMatrix):
    """sigma(im(C)) for an n x k matrix C whose columns span the subspace."""
    if C.cols == 0 or C.is_zero():
        return (SignVector.zero(C.rows),)
    return covectors(column_basis(C).transpose())


def common_sign_vectors(M: RationalMatrix, C: RationalMatrix):
    """The nonzero sign vectors of sigma(ker M) ∩ sigma(im C), canonically ordered.

    Empty iff ker(M) and im(C) share no nonzero orthant: the sign condition
    behind injectivity, at most one positive solution and unique special
    steady states.
    """
    shared = set(matroid_vectors(M)) & set(image_sign_vectors(C))
    return canonical_sort(v for v in shared if not v.is_zero())


def same_oriented_matroid(A: RationalMatrix, Bt: RationalMatrix) -> bool:
    """True iff chirotopes agree up to global negation."""
    if A.rows != Bt.rows or A.cols != Bt.cols:
        raise ShapeMismatch("configurations must share shape")
    chi_a = chirotope(A)
    chi_b = chirotope(Bt)
    return chi_a == chi_b or chi_a == chi_b.negate()
