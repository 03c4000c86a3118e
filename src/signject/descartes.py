"""Hypothesis checkers for the multivariate rule of one positive solution.

Given A (n x r) and B (r x n), the system A x^B = y has at most one positive
solution for every y when the paired maximal minors of A and B share a sign
(bnd); it has exactly one for every y in the open cone of A when additionally
the rows of B fit in an open half-space and A and B^T define the same oriented
matroid (ex). The classical univariate variation count is kept alongside as a
cross-check. The open-cone query of ``descartes cone`` is
``feasibility.cone_interior_membership``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .engine import check_minors
from .errors import InternalError, RankDeficient, ShapeMismatch
from .feasibility import open_halfspace_contains_rows
from .ratmat import RationalMatrix, det, rank
from .signs import sign_of


@dataclass(frozen=True)
class DescartesReport:
    bnd_holds: bool
    ex_holds: bool
    halfspace_witness: Optional[tuple] = None
    matroid_equal: bool = False
    conflicting_J: Optional[tuple] = None  # pair of column subsets

    def __post_init__(self):
        if self.ex_holds and not self.bnd_holds:
            raise InternalError("(ex) holds but (bnd) does not; internal bug")

    def to_json_dict(self):
        return {
            "bnd_holds": self.bnd_holds,
            "ex_holds": self.ex_holds,
            "halfspace_witness": None
            if self.halfspace_witness is None
            else [str(v) for v in self.halfspace_witness],
            "matroid_equal": self.matroid_equal,
            "conflicting_J": None
            if self.conflicting_J is None
            else [list(self.conflicting_J[0]), list(self.conflicting_J[1])],
            "cone_membership": None,
        }


def _require_shapes(A: RationalMatrix, B: RationalMatrix):
    n, r = A.rows, A.cols
    if B.rows != r or B.cols != n:
        raise ShapeMismatch("need A n x r and B r x n")
    if rank(A) < n:
        raise RankDeficient("A does not have full row rank")
    if rank(B) < n:
        raise RankDeficient("B does not have full column rank")
    return n, r


def check_bnd(A: RationalMatrix, B: RationalMatrix):
    """True iff all nonzero products det(A_J) det(B_J) share one sign.

    Returns (holds, ledger); the ledger carries the first conflicting pair of
    column subsets in lexicographic order, if any.
    """
    n, _ = _require_shapes(A, B)
    holds, minors = check_minors(A, B, n)
    conflict = minors["conflict"]
    return holds, {
        "common_sign": minors["common_sign"],
        "conflicting_J": None if conflict is None else [conflict[k]["J"] for k in ("first", "second")],
    }


def check_ex(A: RationalMatrix, B: RationalMatrix) -> DescartesReport:
    """(ex): half-space on the rows of B plus minor-sign agreement with zeros matching."""
    n, r = _require_shapes(A, B)
    rows = list(range(n))
    agree = None  # +1 same sign everywhere, -1 opposite everywhere
    product_signs = set()  # signs of the nonzero products det(A_J) det(B_J), for (bnd)
    conflict = None
    first = None
    for J in combinations(range(r), n):
        sa = sign_of(det(A.submatrix(rows, J)))
        sb = sign_of(det(B.submatrix(J, rows)))
        if sa == 0 and sb == 0:
            continue
        if sa == 0 or sb == 0:
            if conflict is None:
                conflict = (first if first is not None else J, J)
            continue
        rel = sa * sb
        product_signs.add(rel)
        if agree is None:
            agree, first = rel, J
        elif rel != agree and conflict is None:
            conflict = (first, J)
    matroid_equal = agree is not None and conflict is None

    hs = open_halfspace_contains_rows(B)
    witness = hs.witness if hs.feasible else None

    ex_holds = matroid_equal and hs.feasible
    return DescartesReport(
        bnd_holds=len(product_signs) == 1,
        ex_holds=ex_holds,
        halfspace_witness=witness,
        matroid_equal=matroid_equal,
        conflicting_J=conflict,
    )


def univariate_sign_variations(coeffs) -> int:
    """Drop zeros, then count adjacent sign changes."""
    signs = [sign_of(c) for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
