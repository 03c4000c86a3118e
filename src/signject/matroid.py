"""Chirotopes, cocircuits, and covector enumeration for rational vector configurations.

A configuration is an n x r rational matrix of rank n whose columns are the
ground-set vectors. Covectors are generated as the composition closure of the
cocircuits; at desk scale (r <= 12 or so) this is entirely adequate.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import RankDeficient, ShapeMismatch, TooLarge
from .ratmat import RationalMatrix, column_basis, det, kernel_basis, rank
from .signs import SignVector, canonical_sort, compose, sign_of

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

    Each (n-1)-subset of columns spanning a hyperplane determines a normal t,
    and the induced sign vector (sign(t . a^j))_j is a covector of minimal
    support.
    """
    n, r = A.rows, A.cols
    if rank(A) < n:
        raise RankDeficient(f"configuration has rank below {n}")
    found = set()
    for H in combinations(range(r), n - 1):
        sub = A.submatrix(range(n), H)
        if rank(sub) != n - 1:
            continue
        normals = kernel_basis(sub.transpose())  # t with t^T a^h = 0 for h in H
        if normals.cols != 1:
            continue
        t = normals.column(0)
        c = SignVector(
            sign_of(sum(t[i] * A.entries[i][j] for i in range(n))) for j in range(r)
        )
        if c.is_zero():
            continue
        found.add(c)
        found.add(-c)
    return canonical_sort(found)


def covectors(A: RationalMatrix):
    """The full covector set sigma(im(A^T)): composition closure of the cocircuits."""
    n, r = A.rows, A.cols
    if r > GROUND_SET_GUARD:
        raise TooLarge(f"covector enumeration guarded at ground-set size {GROUND_SET_GUARD}")
    base = set(cocircuits(A))
    closed = set(base)
    closed.add(SignVector.zero(r))
    frontier = set(closed)
    while frontier:
        fresh = set()
        for u in frontier:
            for v in base:
                w = compose(u, v)
                if w not in closed:
                    fresh.add(w)
        closed |= fresh
        frontier = fresh
    return canonical_sort(closed)


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
