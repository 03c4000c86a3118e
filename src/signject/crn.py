"""Reaction-network layer: parsing, stoichiometry, and multistationarity analysis.

A network with stoichiometric matrix N and kinetic-order matrix V evolves by
dx/dt = N diag(kappa) x^V. Injectivity of that map with respect to the
stoichiometric subspace im(N), for all kappa, precludes two distinct positive
steady states in any compatibility class. When injectivity fails, a concrete
pair of steady states is searched for; failure alone does not imply one
exists. Special steady states are at most one per coset of S, for all kappa,
exactly when ``multistationarity_witness`` finds no nonzero sign vector shared
by sigma(ker M) and sigma(S); otherwise it builds two of them.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Optional

from .engine import (DEFAULT_PRECISION_BITS, Subspace, Verdict, _monomials, check_injectivity,
                     exponential_pair, rational_point_in_subset)
from .errors import ParseError, ShapeMismatch, UnknownSpecies, VerificationFailed
from .feasibility import StrictSystem, check_certificate, rational_point_with_sign, solve_strict, unit_row
from .matroid import common_sign_vectors
from .ratmat import RationalMatrix, integer_monomial, parse_rational
from .signs import SignVector

NUMERIC_DIGITS = 50
# Candidates the steady-state grid search may decide, by LP or by a reused
# certificate, before it gives up. The full grid of every network in the test
# and benchmark corpora but the dual futile cycle is at most 1296 candidates,
# so none of them reaches it.
STEADY_STATE_LP_BUDGET = 2000
# certificates of the most recent infeasible grid LPs kept to screen later candidates
GRID_NOGOODS = 64


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple  # ordered names
    reactions: tuple  # (label, reactant complex, product complex); complexes are ((name, coeff), ...)
    kinetic_orders: Optional[RationalMatrix] = None  # r x n override
    warnings: tuple = ()

    def __post_init__(self):
        if not self.species or not self.reactions:
            raise ValueError("a network needs at least one species and one reaction")
        labels = [lab for lab, _, _ in self.reactions]
        if len(set(labels)) < len(labels):
            raise ValueError("reaction labels must be unique")
        if self.kinetic_orders is not None:
            if (self.kinetic_orders.rows, self.kinetic_orders.cols) != (
                len(self.reactions),
                len(self.species),
            ):
                raise ShapeMismatch("kinetic-order override must be r x n")


_TERM_RE = re.compile(r"^\s*(?:(\d+(?:/\d+)?)\s*)?([A-Za-z_]\w*)\s*$")
_LABEL_RE = re.compile(r"^[A-Za-z_]\w*$")


def _parse_complex(text: str, line_no: int, col0: int):
    """A complex: `0` or `+`-separated terms `coeff? species`."""
    if text.strip() == "0":
        return ()
    terms = []
    offset = col0
    for chunk in text.split("+"):
        col = offset + len(chunk) - len(chunk.lstrip()) + 1  # the term's first character
        m = _TERM_RE.match(chunk)
        if m is None:
            raise ParseError(f"cannot read complex term {chunk.strip()!r}", line=line_no, column=col)
        try:
            coeff = Fraction(1) if m.group(1) is None else parse_rational(m.group(1))
        except ParseError as exc:
            raise ParseError(str(exc), line=line_no, column=col) from None
        if coeff <= 0:
            raise ParseError("stoichiometric coefficients must be positive", line=line_no, column=col)
        terms.append((m.group(2), coeff))
        offset += len(chunk) + 1
    return tuple(terms)


def parse_network(text: str) -> ReactionNetwork:
    """Parse the one-reaction-per-line DSL; `#` starts a comment, `0` is the empty complex."""
    species = []
    seen = set()
    reactions = []
    warnings = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'label: reactant -> product'", line=line_no, column=1)
        label, rest = line.split(":", 1)
        label = label.strip()
        if not _LABEL_RE.match(label):
            raise ParseError(f"bad reaction label {label!r}", line=line_no, column=1)
        if any(lab == label for lab, _, _ in reactions):
            raise ParseError(f"duplicate reaction label {label!r}", line=line_no, column=1)
        if "->" not in rest:
            raise ParseError("missing '->'", line=line_no, column=line.index(":") + 2)
        lhs, rhs = rest.split("->", 1)
        col_lhs = line.index(":") + 1
        reactant = _parse_complex(lhs, line_no, col_lhs)
        product_ = _parse_complex(rhs, line_no, col_lhs + len(lhs) + 2)
        for name, _ in reactant + product_:
            if name not in seen:
                seen.add(name)
                species.append(name)
        if _net_vector(reactant) == _net_vector(product_):
            warnings.append(f"line {line_no}: reaction {label!r} has a zero reaction vector")
        reactions.append((label, reactant, product_))
    return ReactionNetwork(tuple(species), tuple(reactions), warnings=tuple(warnings))


def _net_vector(complex_):
    net = {}
    for name, c in complex_:
        net[name] = net.get(name, Fraction(0)) + c
    return {k: v for k, v in net.items() if v != 0}


def apply_kinetic_orders(net: ReactionNetwork, mapping: dict) -> ReactionNetwork:
    """Override kinetic orders from {label: {species: rational string}} or row lists."""
    if not isinstance(mapping, dict):
        raise ParseError("kinetic orders must be an object keyed by reaction label")
    n = len(net.species)
    index = {name: i for i, name in enumerate(net.species)}
    labels = {label: j for j, (label, _, _) in enumerate(net.reactions)}
    _, V = stoichiometry(net)
    rows = [list(V.entries[j]) for j in range(V.rows)]
    for label, row in mapping.items():
        if label not in labels:
            raise ParseError(f"kinetic-order override names unknown reaction {label!r}")
        j = labels[label]
        if isinstance(row, dict):
            for name, value in row.items():
                if name not in index:
                    raise UnknownSpecies(f"unknown species {name!r} in kinetic-order override")
                rows[j][index[name]] = parse_rational(str(value))
        elif isinstance(row, (list, tuple)):
            if len(row) != n:
                raise ShapeMismatch(f"kinetic-order row for {label!r} must have length {n}")
            rows[j] = [parse_rational(str(v)) for v in row]
        else:
            raise ParseError(f"kinetic orders of {label!r} must be an object or a list")
    V2 = RationalMatrix(rows, len(net.reactions), n)
    return ReactionNetwork(net.species, net.reactions, kinetic_orders=V2, warnings=net.warnings)


def stoichiometry(net: ReactionNetwork):
    """(N, V): N is n x r with the reaction vectors as columns, V is r x n."""
    n, r = len(net.species), len(net.reactions)
    index = {name: i for i, name in enumerate(net.species)}
    N = [[Fraction(0)] * r for _ in range(n)]
    V = [[Fraction(0)] * n for _ in range(r)]
    for j, (_, reactant, product_) in enumerate(net.reactions):
        for name, c in reactant:
            N[index[name]][j] -= c
            V[j][index[name]] += c  # mass-action: orders follow reactant stoichiometry
        for name, c in product_:
            N[index[name]][j] += c
    Nm = RationalMatrix(N, n, r)
    Vm = net.kinetic_orders if net.kinetic_orders is not None else RationalMatrix(V, r, n)
    return Nm, Vm


# -- multistationarity preclusion ---------------------------------------------


@dataclass(frozen=True)
class PreclusionVerdict:
    precluded: bool
    injectivity: Verdict
    steady_state_pair: Optional[dict]
    note: str
    warnings: tuple = ()


def preclude_multistationarity(
    net: ReactionNetwork, prec: int = DEFAULT_PRECISION_BITS
) -> PreclusionVerdict:
    """Decide injectivity on every compatibility class; on failure, hunt for a pair.

    prec is the working precision, in bits, of the injectivity counterexample.
    """
    N, V = stoichiometry(net)
    S = Subspace(C=N)
    verdict = check_injectivity(N, V, S, prec)
    pair, exhausted = None, False
    if not verdict.injective and all(v.denominator == 1 for row in V.entries for v in row):
        pair, exhausted = _steady_state_pair(N, V, S)
    if verdict.injective:
        note = "injective on every compatibility class for all kappa; multistationarity is impossible"
    elif pair is not None:
        note = "injectivity fails and an explicit pair of positive steady states in one compatibility class was found"
    elif exhausted:
        note = (
            "injectivity fails for some kappa; this does not by itself imply multistationarity, and the "
            f"steady-state search was exhausted after {STEADY_STATE_LP_BUDGET} LPs without finding a pair"
        )
    else:
        note = "injectivity fails for some kappa; this does not by itself imply multistationarity, and no steady-state pair was found at desk scale"
    return PreclusionVerdict(
        precluded=verdict.injective,
        injectivity=verdict,
        steady_state_pair=pair,
        note=note,
        warnings=net.warnings,
    )


def _steady_state_pair(N: RationalMatrix, V: RationalMatrix, S: Subspace):
    """Deterministic grid search for kappa > 0 with N diag(kappa) x^V = 0 at x and y.

    x ranges over a small positive grid, y = x + z over integer combinations of
    a basis of im(N). Both steady-state conditions are linear in kappa, so each
    candidate reduces to one exact feasibility question. Returns (pair or None,
    whether the search stopped at STEADY_STATE_LP_BUDGET candidates); the
    pair's kappa, x and y are tuples of Fractions.

    y > 0 is screened on integers over the common denominator d of the grid
    and the basis. The monomial rows are built from those integers, by
    ratmat.integer_monomial, only for the candidates with y > 0, and x's rows
    once per x. Each such candidate is then screened against the checked
    Farkas certificates of the last GRID_NOGOODS infeasible LPs
    (``_screened``). A feasible candidate is never screened out, and one that
    is still counts toward STEADY_STATE_LP_BUDGET, so the search stops where
    it would without the screen.
    """
    n, r = N.rows, N.cols
    basis = S.image_presentation()
    s = basis.cols
    x_values = (
        [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
        if n <= 2
        else [Fraction(1, 2), Fraction(1), Fraction(2)]
    )
    coeff_range = range(-3, 4) if s <= 2 else range(-1, 2)
    d = lcm(2, *(v.denominator for row in basis.entries for v in row))
    basis_rows = [[int(v * d) for v in row] for row in basis.entries]
    exponents = [[int(v) for v in row] for row in V.entries]
    scales = [Fraction(1, d) ** sum(row) for row in exponents]
    positive = SignVector([1] * r)
    nogoods = deque(maxlen=GRID_NOGOODS)
    tested = 0
    for x in product(x_values, repeat=n):
        X = [int(v * d) for v in x]
        x_point = None
        for coeffs in product(coeff_range, repeat=s):
            if not any(coeffs):
                continue
            Y = [xi + sum(map(mul, coeffs, row)) for xi, row in zip(X, basis_rows)]
            if min(Y) <= 0:
                continue
            if tested == STEADY_STATE_LP_BUDGET:
                return None, True
            tested += 1
            if x_point is None:
                x_point = _steady_state_point(N, exponents, scales, X)
            y_point = _steady_state_point(N, exponents, scales, Y)
            if _screened(nogoods, x_point, y_point):
                continue
            rows = x_point[2] + y_point[2]
            result = solve_strict(StrictSystem(nvars=r, equalities=RationalMatrix(rows, 2 * n, r),
                                               comp_signs=positive))
            if not result.feasible:
                nogoods.append(_grid_nogood(N, result.certificate))
                continue
            kappa = result.witness
            if any(sum(map(mul, row, kappa)) != 0 for row in rows):
                raise VerificationFailed("kappa does not make the pair steady states")
            return {
                "kappa": kappa,
                "x": x,
                "y": tuple(Fraction(v, d) for v in Y),
                "residual": "0 (exact rational steady-state equations)",
            }, False
    return None, False


def _steady_state_point(N: RationalMatrix, exponents, scales, P):
    """(pq, mono, rows) at x = P / d, where scales[j] = d^-deg of row j of V:
    pq[j] = (p, q) with x^V_j = p / q * scales[j], mono[j] = x^V_j, and rows
    the rows of N diag(x^V), so that N diag(kappa) x^V = 0 is rows times
    kappa."""
    pq = [integer_monomial(P, e) for e in exponents]
    mono = [Fraction(p, q) * w for (p, q), w in zip(pq, scales)]
    return pq, mono, [[a * m for a, m in zip(row, mono)] for row in N.entries]


def _grid_nogood(N: RationalMatrix, certificate):
    """(lam, a, b, den) of an infeasible grid LP's checked certificate: lam
    its multipliers on the 2n steady-state rows, and a = lam_x^T N and
    b = lam_y^T N as integers over the positive denominator den."""
    n = N.rows
    lam = certificate[:2 * n]
    a = [sum(l * row[j] for l, row in zip(lam[:n], N.entries) if l) for j in range(N.cols)]
    b = [sum(l * row[j] for l, row in zip(lam[n:], N.entries) if l) for j in range(N.cols)]
    den = lcm(*(Fraction(v).denominator for v in a + b))
    return lam, [int(v * den) for v in a], [int(v * den) for v in b], den


def _screened(nogoods, x_point, y_point) -> bool:
    """True iff a grid certificate decides the candidate (x, y): with the
    monomials m of x and m' of y, every c_j = a_j m_j + b_j m'_j is <= 0 and
    not all are zero. Then lam on the steady-state rows and -c_j on the unit
    rows kappa_j >= 1 are a Farkas certificate of the candidate's LP (Gordan's
    alternative); it is checked on those rows before the candidate is skipped.

    c_j is tested in sign only, on integers: c_j times the positive
    q_j q'_j den / scales[j] is a_j p_j q'_j + b_j p'_j q_j.
    """
    xpq, ypq = x_point[0], y_point[0]
    for lam, a, b, den in reversed(nogoods):
        nonzero = False
        for aj, bj, (p, q), (p2, q2) in zip(a, b, xpq, ypq):
            c = aj * p * q2 + bj * p2 * q
            if c > 0:
                break
            nonzero = nonzero or c < 0
        else:
            if nonzero:
                # the certificate on the candidate's rows: lam on the steady-state
                # rows, -c_j on the unit row of each kappa_j with c_j != 0
                c = [(aj * m + bj * m2) / den for aj, bj, m, m2 in zip(a, b, x_point[1], y_point[1])]
                rows = [(row, 0) for row in x_point[2] + y_point[2]]
                rows += [(unit_row(len(c), j), 1) for j, cj in enumerate(c) if cj]
                check_certificate(len(c), rows, [*lam, *(-cj for cj in c if cj)])
                return True
    return False


# -- special steady states ----------------------------------------------------


@dataclass(frozen=True)
class SpecialWitness:
    """Two positive points in one coset of S with identical M-monomial values.

    x and y are exact in the form y_i = z_i / (e^{v_i} - 1), x_i = y_i e^{v_i};
    z and v are rational, M v = 0 and z in S hold exactly, so x^M = y^M exactly.
    """

    rho: SignVector
    v: tuple  # rational, in ker M
    z: tuple  # rational, in S, equal to x - y
    x: tuple  # 50-digit decimal strings
    y: tuple
    assume_coset: bool


def multistationarity_witness(
    M: RationalMatrix, S: Subspace, assume_coset: bool = False
) -> Optional[SpecialWitness]:
    """Construct x*, y* in one coset with (x*)^M = (y*)^M, or None when
    sigma(ker M) and sigma(S) share no nonzero sign vector."""
    if M.cols != S.ambient_dim:
        raise ShapeMismatch("M must have one column per species")
    shared = common_sign_vectors(M, S.image_presentation()) if S.dim() else ()
    if not shared:
        return None
    rho = shared[0]
    v = rational_point_with_sign(M, rho)
    if v is None:
        raise VerificationFailed("no rational point of the shared sign in ker(M)")
    z = rational_point_in_subset(S, rho)
    if any(sum(map(mul, row, v)) != 0 for row in M.entries):
        raise VerificationFailed("v is not in ker(M)")
    from mpmath import mp

    with mp.workprec(int(NUMERIC_DIGITS * 3.33) + 16):
        x_num, y_num = exponential_pair(z, v)
        # numeric spot check of x^M = y^M on top of the exact Mv = 0 certificate
        tolerance = mp.mpf(10) ** (-NUMERIC_DIGITS + 5)
        for a, b in zip(_monomials(M, x_num, mp.prec), _monomials(M, y_num, mp.prec)):
            a, b = mp.make_mpf(a), mp.make_mpf(b)
            if not abs(a - b) < tolerance * a:
                raise VerificationFailed("x^M and y^M differ numerically")
        return SpecialWitness(
            rho=rho,
            v=v,
            z=z,
            x=tuple(mp.nstr(a, NUMERIC_DIGITS) for a in x_num),
            y=tuple(mp.nstr(a, NUMERIC_DIGITS) for a in y_num),
            assume_coset=assume_coset,
        )
