"""Sign vectors and the componentwise sign operator.

A sign vector lives in {-,0,+}^n and is serialized as a string over "+-0",
e.g. "+-0+". Internally signs are the integers -1, 0, +1, so lexicographic
order on tuples matches the canonical - < 0 < + order.
"""
from __future__ import annotations

from .errors import LengthMismatch, ParseError

_CHAR_TO_SIGN = {"+": 1, "-": -1, "0": 0}
_SIGN_TO_CHAR = {1: "+", -1: "-", 0: "0"}


def sign_of(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


class SignVector(tuple):
    """Immutable element of {-,0,+}^n."""

    def __new__(cls, signs):
        signs = tuple(int(s) for s in signs)
        if any(s not in (-1, 0, 1) for s in signs):
            raise ValueError("signs must be -1, 0, or +1")
        if not signs:
            raise ValueError("sign vectors have length >= 1")
        return super().__new__(cls, signs)

    @classmethod
    def parse(cls, text: str) -> "SignVector":
        try:
            return cls(_CHAR_TO_SIGN[c] for c in text)
        except KeyError as exc:
            raise ParseError(f"invalid sign character in {text!r}") from exc

    @classmethod
    def zero(cls, length: int) -> "SignVector":
        return cls([0] * length)

    def __str__(self):
        return "".join(_SIGN_TO_CHAR[s] for s in self)

    def __repr__(self):
        return f"SignVector({str(self)!r})"

    def __neg__(self):
        return SignVector(-s for s in self)

    def is_zero(self) -> bool:
        return all(s == 0 for s in self)

    @property
    def support(self):
        return frozenset(i for i, s in enumerate(self) if s != 0)


def sigma(vector) -> SignVector:
    """Componentwise sign of a rational (or any ordered-field) vector."""
    return SignVector(sign_of(v) for v in vector)


def orthogonal(mu: SignVector, nu: SignVector) -> bool:
    """Sign-vector orthogonality: all products zero, or both a + and a - product."""
    if len(mu) != len(nu):
        raise LengthMismatch(f"lengths {len(mu)} and {len(nu)}")
    products = {m * n for m, n in zip(mu, nu)}
    products.discard(0)
    return not products or products == {1, -1}


def compose(u: SignVector, v: SignVector) -> SignVector:
    """(u o v)_i = u_i if u_i != 0 else v_i."""
    if len(u) != len(v):
        raise LengthMismatch(f"lengths {len(u)} and {len(v)}")
    return SignVector(a if a != 0 else b for a, b in zip(u, v))


def canonical_sort(sign_vectors):
    """Deterministic lexicographic (- < 0 < +) ordering, duplicates removed."""
    return tuple(sorted(set(sign_vectors)))
