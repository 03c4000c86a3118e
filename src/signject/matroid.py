"""Chirotopes, cocircuits, and covector enumeration for rational vector configurations.

A configuration is an n x r rational matrix of rank n whose columns are the
ground-set vectors. Its cocircuits are read off one table of its maximal
minors (``ratmat.maximal_minors``), and its covectors are their composition
closure. Every covector is a conformal composition of cocircuits, so the
closure composes each covector only with the cocircuits conformal to it,
tracked as bitmasks over cocircuit indices: its cost is the number of such
pairs, not |covectors| x |cocircuits|. The intersection sigma(ker M) ∩
sigma(im C) closes ker M only: by oriented-matroid duality the sign vectors
of im C are those orthogonal to the circuits of im(C)^perp = ker(C^T), the
cocircuits of a basis of ker(C^T). Sign sets stay (pos, neg) bitmask pairs
up to the public functions, which build their sorted SignVector tuples once,
at the end. A table holds up to C(r, n) minors and a closure up to 3^r
covectors, so both raise ``TooLarge`` when r exceeds ``GROUND_SET_GUARD``,
and the closure also once it holds more than ``COVECTOR_BUDGET`` covectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import RankDeficient, ShapeMismatch, TooLarge
from .ratmat import RationalMatrix, column_basis, det, integer_rows, kernel_basis, maximal_minors, rank
from .signs import SignVector, sign_of

GROUND_SET_GUARD = 16
COVECTOR_BUDGET = 1_000_000


@dataclass(frozen=True)
class Chirotope:
    """Signs of maximal minors, stored on sorted n-subsets of the ground set."""

    rank: int
    ground_size: int
    signs: dict  # sorted index tuple -> -1/0/+1


def chirotope(A: RationalMatrix) -> Chirotope:
    """Sign of det(A_{[n],J}) for every sorted n-subset J of columns."""
    n, r = A.rows, A.cols
    if r > GROUND_SET_GUARD:
        raise TooLarge(f"matroid enumeration guarded at ground-set size {GROUND_SET_GUARD}")
    if rank(A) < n:
        raise RankDeficient(f"configuration has rank below {n}")
    signs = {}
    for J in combinations(range(r), n):
        signs[J] = sign_of(det(A.submatrix(range(n), J)))
    return Chirotope(n, r, signs)


def cocircuits(A: RationalMatrix):
    """All cocircuits (+/- pairs) of the configuration, canonically ordered."""
    return _sign_vectors(_cocircuit_masks(A), A.cols)


def _cocircuit_masks(A: RationalMatrix):
    """The cocircuits of the configuration as a set of (pos, neg) bitmask pairs.

    The cocircuit of the hyperplane spanned by n - 1 independent columns H
    has the signs of a -> det[A_H | a]: entry j is sign((-1)^e chi(H + j)),
    with chi the table of maximal minors on sorted columns and
    e = |{h in H : h > j}| the columns that a^j passes to be sorted in. Each
    H is J - {J_i} for a basis J in chi, which gives entry j = J_i with
    e = n - 1 - i, so one pass over chi reads every nonzero entry; both
    orientations are kept. chi is taken on integer_rows(A): scaling a row by
    a positive lcm scales every maximal minor by it, which keeps every sign.
    chi is empty exactly when A has rank below n, and for n = 0 it is
    {(): 1}, which spans no hyperplane.
    """
    n, r = A.rows, A.cols
    if r > GROUND_SET_GUARD:
        raise TooLarge(f"matroid enumeration guarded at ground-set size {GROUND_SET_GUARD}")
    chi = maximal_minors(integer_rows(A)[0])
    if not chi:
        raise RankDeficient(f"configuration has rank below {n}")
    masks = {}  # H -> [pos, neg]
    for J, m in chi.items():
        for i, j in enumerate(J):
            # index 1, neg, when (-1)^(n - 1 - i) m < 0
            masks.setdefault(J[:i] + J[i + 1:], [0, 0])[(m < 0) ^ (n - 1 - i) & 1] |= 1 << j
    return {pair for pos, neg in masks.values() for pair in ((pos, neg), (neg, pos))}


def _sign_vectors(masks, r: int):
    """The (pos, neg) pairs over r coordinates as a canonically sorted SignVector tuple."""
    if not r and masks:
        raise ShapeMismatch("the ground set is empty: a sign vector needs at least one coordinate")
    return tuple(sorted(SignVector((pos >> j & 1) - (neg >> j & 1) for j in range(r)) for pos, neg in masks))


def covectors(A: RationalMatrix):
    """The full covector set sigma(im(A^T)): composition closure of the cocircuits."""
    return _sign_vectors(_covector_masks(A), A.cols)


def _covector_masks(A: RationalMatrix):
    """The covectors of the configuration as a set of (pos, neg) bitmask pairs.

    Every covector X is the conformal composition c_1 o ... o c_k of the
    cocircuits c_i <= X (Bjorner, Las Vergnas, Sturmfels, White & Ziegler,
    Oriented Matroids, Ch. 3). Every prefix of it is <= X too, so each next
    c_i is conformal to the prefix: no coordinate has opposite signs. The
    closure therefore composes a covector u only with cocircuits conformal to
    it, and then u o c is the union (pos_u | pos_c, neg_u | neg_c).

    Each frontier covector carries a bitmask over cocircuit indices: the
    cocircuits conformal to it, less some that already lie inside it. A
    union is conformal to c exactly when both parts are, so u o c_i takes
    mask(u) & conf[i], where conf[i] holds the cocircuits conformal to c_i
    other than c_i itself. The set returned equals the all-pairs composition
    closure of the cocircuits. It is 3^r on r coordinate vectors, so the
    closure raises ``TooLarge`` once it holds more than ``COVECTOR_BUDGET``;
    ``_cocircuit_masks`` has already refused r past ``GROUND_SET_GUARD``.
    """
    base = list(_cocircuit_masks(A))
    r = A.cols
    # plus[j] / minus[j]: the cocircuits with sign + / - at coordinate j
    plus, minus = [0] * r, [0] * r
    for i, (pos, neg) in enumerate(base):
        for j in range(r):
            if pos >> j & 1:
                plus[j] |= 1 << i
            elif neg >> j & 1:
                minus[j] |= 1 << i
    everything = (1 << len(base)) - 1
    cells = []  # (pos, neg, support, conf) per cocircuit
    for i, (pos, neg) in enumerate(base):
        clash = 1 << i
        for j in range(r):
            if pos >> j & 1:
                clash |= minus[j]
            elif neg >> j & 1:
                clash |= plus[j]
        cells.append((pos, neg, pos | neg, everything & ~clash))
    closed = {(0, 0), *base}
    frontier = [(pos, neg, conf) for pos, neg, _, conf in cells]
    while frontier:
        fresh = []
        for pos, neg, mask in frontier:
            free = ~(pos | neg)
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                p, q, supp, conf = cells[low.bit_length() - 1]
                if supp & free:
                    w = (pos | p, neg | q)
                    if w not in closed:
                        closed.add(w)
                        if len(closed) > COVECTOR_BUDGET:
                            raise TooLarge(f"covector enumeration exceeded its budget of "
                                           f"{COVECTOR_BUDGET} covectors")
                        fresh.append((pos | p, neg | q, mask & conf))
        frontier = fresh
    return closed


def _span_masks(K: RationalMatrix):
    """sigma(im(K)) as (pos, neg) pairs, for K with independent columns (maybe none)."""
    # the rows of K^T span im(K), so its sign vectors are the covectors of K^T
    return _covector_masks(K.transpose()) if K.cols else {(0, 0)}


def matroid_vectors(A: RationalMatrix):
    """sigma(ker(A)) as a complete sign-vector set (rank-deficient A allowed)."""
    return _sign_vectors(_span_masks(kernel_basis(A)), A.cols)


def image_sign_vectors(C: RationalMatrix):
    """sigma(im(C)) for an n x k matrix C whose columns span the subspace."""
    return _sign_vectors(_span_masks(column_basis(C)), C.rows)


def common_sign_vectors(M: RationalMatrix, C: RationalMatrix):
    """The nonzero sign vectors of sigma(ker M) ∩ sigma(im C), canonically ordered.

    Empty iff ker(M) and im(C) share no nonzero orthant: the sign condition
    behind injectivity, at most one positive solution and unique special
    steady states. By oriented-matroid duality (Bland & Las Vergnas 1978),
    sigma(W) is the set of sign vectors orthogonal to every circuit of W^perp,
    that is, to every cocircuit of a basis of W^perp. So only ker M is closed,
    and its covectors are kept when orthogonal to the circuits of
    ker(C^T) = im(C)^perp. X and Y are orthogonal iff they agree in sign on
    some coordinate exactly when they disagree on another; that holds for Y
    iff it holds for -Y, so each +/- pair of circuits is tested once. Only the
    shared vectors become SignVectors.
    """
    if M.cols != C.rows:
        raise ShapeMismatch("M must have one column per row of C")
    kernel = kernel_basis(M)
    if not kernel.cols:
        return ()
    complement = kernel_basis(C.transpose())
    if complement.cols == C.rows:  # im C = {0}
        return ()
    closed = _span_masks(kernel)
    circuits = {min(y, y[::-1]) for y in _cocircuit_masks(complement.transpose())}
    shared = []
    for pos, neg in closed:
        for p, q in circuits:
            # coordinates of the same sign and of opposite signs: both or neither
            if ((pos & p) | (neg & q) == 0) != ((pos & q) | (neg & p) == 0):
                break
        else:
            if pos or neg:
                shared.append((pos, neg))
    return _sign_vectors(shared, M.cols)
