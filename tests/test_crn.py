import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signject.crn as crn
from signject.crn import (
    apply_kinetic_orders,
    multistationarity_witness,
    parse_network,
    preclude_multistationarity,
    stoichiometry,
)
from signject.engine import Subspace, check_injectivity
from signject.errors import InternalError, ParseError, ShapeMismatch, UnknownSpecies, VerificationFailed
from signject.matroid import image_sign_vectors
from signject.feasibility import StrictSystem, solve_strict
from signject.ratmat import RationalMatrix, gale_dual, rank
from signject.signs import SignVector

M = RationalMatrix


def test_parse_worked_examples():
    net = parse_network("k1: A -> B\nk2: B -> A\n")
    N, V = stoichiometry(net)
    assert N == M([[-1, 1], [1, -1]])
    assert V == M([[1, 0], [0, 1]])

    net = parse_network("k1: 0 -> X\nk2: X -> 0\n")
    N, V = stoichiometry(net)
    assert N == M([[1, -1]])
    assert V == M([[0], [1]])

    net = parse_network("k1: 2 X -> 3 X\n")
    N, V = stoichiometry(net)
    assert N == M([[1]])
    assert V == M([[2]])


def test_parse_rational_coefficients_and_comments():
    net = parse_network("# a comment\nr: 1/2 A + B -> 3/2 C  # trailing\n")
    N, V = stoichiometry(net)
    assert net.species == ("A", "B", "C")
    assert N.column(0) == (Fraction(-1, 2), Fraction(-1), Fraction(3, 2))
    assert V.row(0) == (Fraction(1, 2), Fraction(1), Fraction(0))


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_network("k1 A -> B\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_network("k1: A -> B\nk2: A -> 2*B\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_network("k1: A -> B\nk1: B -> A\n")  # duplicate labels
    # a coefficient error points at the first character of its term
    for text, message, column in (("k1: 1/0 A -> B\n", "zero denominator: '1/0'", 5),
                                  ("k1: A -> 0 B\n", "stoichiometric coefficients must be positive", 10)):
        with pytest.raises(ParseError) as exc:
            parse_network(text)
        assert (exc.value.line, exc.value.column) == (1, column)
        assert str(exc.value) == f"{message} (line 1, column {column})"
    with pytest.raises(ValueError):
        parse_network("# only comments\n")


def test_zero_reaction_vector_is_a_warning():
    net = parse_network("k1: A -> A\nk2: A -> 0\n")
    assert any("zero reaction vector" in w for w in net.warnings)


def test_round_trip():
    net = parse_network("k1: 1/2 A + B -> 3/2 C\nk2: C -> 0\nk3: 2 C -> 3 C\n")
    h = Fraction(1, 2)
    N, V = stoichiometry(net)
    assert N == M([[-h, 0, 0], [-1, 0, 0], [3 * h, -1, 1]])
    assert V == M([[h, 1, 0], [0, 0, 1], [0, 0, 2]])
    assert net.species == ("A", "B", "C")


def test_kinetic_order_override():
    net = parse_network("k1: A -> B\nk2: B -> A\n")
    net2 = apply_kinetic_orders(net, {"k1": {"A": "2"}})
    _, V = stoichiometry(net2)
    assert V == M([[2, 0], [0, 1]])
    with pytest.raises(ParseError):
        apply_kinetic_orders(net, {"nope": {"A": "1"}})
    with pytest.raises(UnknownSpecies):
        apply_kinetic_orders(net, {"k1": {"Q": "1"}})


def test_preclusion_worked_set():
    assert preclude_multistationarity(parse_network("k1: A -> B\nk2: B -> A\n")).precluded
    assert preclude_multistationarity(parse_network("k1: 0 -> X\nk2: X -> 0\n")).precluded
    v = preclude_multistationarity(parse_network("k1: 0 -> X\nk2: X -> 0\nk3: 2 X -> 3 X\n"))
    assert not v.precluded
    pair = v.steady_state_pair
    assert pair is not None
    # the pair really solves kappa1 - kappa2 x + kappa3 x^2 = 0 at both points
    k = [Fraction(s) for s in pair["kappa"]]
    for key in ("x", "y"):
        x = Fraction(pair[key][0])
        assert k[0] - k[1] * x + k[2] * x * x == 0
    assert pair["x"] != pair["y"]


def test_preclusion_agrees_with_sign_search():
    for text in (
        "k1: A -> B\nk2: B -> A\n",
        "k1: 0 -> X\nk2: X -> 0\n",
        "k1: 0 -> X\nk2: X -> 0\nk3: 2 X -> 3 X\n",
        "k1: A + B -> 2 A\nk2: A -> B\n",
    ):
        net = parse_network(text)
        N, V = stoichiometry(net)
        S = Subspace(C=N)
        via_minors = preclude_multistationarity(net).precluded
        T = S.nonzero_sign_vectors()
        from signject.engine import OrthantUnion

        via_search = (
            check_injectivity(N, V, OrthantUnion(T)).injective if T else True
        )
        assert via_minors == via_search


def test_special_unique_worked():
    Mm = M([[1, -1]])
    assert multistationarity_witness(Mm, Subspace(C=M([[1], [-1]]))) is None
    assert multistationarity_witness(Mm, Subspace(C=M([[1], [1]]))) is not None
    assert multistationarity_witness(Mm, Subspace(Z=M.identity(2))) is None
    with pytest.raises(ShapeMismatch):
        multistationarity_witness(M([[1, -1, 0]]), Subspace(C=M([[1], [1]])))


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_sign_duality_mass_action_remark(rnd):
    # sigma(S) and sigma(S-perp) share only the zero sign vector
    n = rnd.randint(2, 4)
    s = rnd.randint(1, n - 1)
    C = M([[Fraction(rnd.randint(-3, 3)) for _ in range(s)] for _ in range(n)])
    if rank(C) < s:
        return
    Z = gale_dual(C)
    sig_s = set(image_sign_vectors(C))
    sig_perp = set(image_sign_vectors(Z.transpose()))
    assert all(v.is_zero() for v in sig_s & sig_perp)


def test_multistationarity_witness_worked():
    Mm = M([[1, -1]])
    S = Subspace(C=M([[1], [1]]))
    w = multistationarity_witness(Mm, S)
    assert w is not None
    # exact certificates: v in ker M, z in S, sigma(v) = sigma(z) = rho
    assert Mm.apply(w.v) == (0,)
    assert w.z[0] == w.z[1]  # S membership
    assert all((a > 0) == (s > 0) and (a < 0) == (s < 0) for a, s in zip(w.v, w.rho))
    # 50-digit numeric renderings present
    assert len(w.x) == 2 and len(w.x[0]) > 30


def test_multistationarity_witness_none():
    Mm = M([[1, -1]])
    assert multistationarity_witness(Mm, Subspace(C=M([[1], [-1]]))) is None
    assert multistationarity_witness(Mm, Subspace(Z=M.identity(2))) is None


def test_special_spot_check_catches_a_bad_pair(tmp_path, capsys, monkeypatch):
    """One coordinate of y off by a relative 1e-40, which the exact Mv = 0 and
    z in S certificates do not see: the numeric x^M = y^M check raises, and
    `crn special` exits 5 with one line and no JSON."""
    from mpmath import mp

    from signject.cli import main

    pair = crn.exponential_pair

    def nudged(z, v):
        x, y = pair(z, v)
        return x, [y[0] * (1 + mp.mpf(10) ** -40), *y[1:]]

    monkeypatch.setattr(crn, "exponential_pair", nudged)
    Mm = M([[1, -1]])
    with pytest.raises(VerificationFailed):
        multistationarity_witness(Mm, Subspace(C=M([[1], [1]])))
    net, m = tmp_path / "net.txt", tmp_path / "M.json"
    net.write_text("k1: 0 -> A + B\nk2: A + B -> 0\n")
    m.write_text(json.dumps(Mm.to_json_dict()))
    assert main(["crn", "special", str(net), "--M", str(m)]) == 5
    assert capsys.readouterr() == ("", "internal error: x^M and y^M differ numerically\n")


def test_steady_state_search_budget(monkeypatch):
    import signject.crn as crn

    net = parse_network(
        "k1: A -> 2 A\nk2: 2 A -> A\nk3: A + B -> C\nk4: C -> A + B\nk5: C -> B\nk6: B -> C\n"
    )
    # the grid asks _screened once for each candidate it decides, by LP or by
    # a certificate, and the budget counts those candidates
    lps = []
    screened = crn._screened
    monkeypatch.setattr(crn, "_screened", lambda *args: lps.append(1) or screened(*args))
    found = preclude_multistationarity(net)
    assert found.steady_state_pair is not None
    needed = len(lps)  # the pair turns up at the last of these candidates
    assert 1 < needed <= crn.STEADY_STATE_LP_BUDGET
    lps.clear()
    monkeypatch.setattr(crn, "STEADY_STATE_LP_BUDGET", needed)
    assert preclude_multistationarity(net) == found
    lps.clear()
    monkeypatch.setattr(crn, "STEADY_STATE_LP_BUDGET", needed - 1)
    cut = preclude_multistationarity(net)
    assert cut.steady_state_pair is None and not cut.precluded
    assert len(lps) == needed - 1
    assert f"exhausted after {needed - 1} LPs" in cut.note


# -- the steady-state grid against a reference ---------------------------------

NETWORKS = Path(__file__).resolve().parent.parent / "bench" / "networks"


def reference_steady_state_pair(N, V, S, budget):
    """The grid as it was before its integer screen: z = basis c and y = x + z
    in Fractions, and both points' monomial rows built for every candidate."""
    n, r = N.rows, N.cols
    basis = S.image_presentation()
    s = basis.cols
    x_values = (
        [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
        if n <= 2
        else [Fraction(1, 2), Fraction(1), Fraction(2)]
    )
    coeff_range = range(-3, 4) if s <= 2 else range(-1, 2)
    lps = 0
    for x in product(x_values, repeat=n):
        for coeffs in product(coeff_range, repeat=s):
            if all(c == 0 for c in coeffs):
                continue
            z = basis.apply([Fraction(c) for c in coeffs])
            y = tuple(a + b for a, b in zip(x, z))
            if any(v <= 0 for v in y):
                continue
            if lps == budget:
                return None, True
            lps += 1
            rows = []
            for point in (x, y):
                mono = [_power(point, V.entries[j]) for j in range(r)]
                for i in range(n):
                    rows.append([N.entries[i][j] * mono[j] for j in range(r)])
            res = solve_strict(StrictSystem(nvars=r, equalities=M(rows, 2 * n, r),
                                            comp_signs=SignVector([1] * r)))
            if res.feasible:
                return {
                    "kappa": res.witness,
                    "x": x,
                    "y": y,
                    "residual": "0 (exact rational steady-state equations)",
                }, False
    return None, False


def _power(x, exps):
    out = Fraction(1)
    for xi, e in zip(x, exps):
        out *= xi ** int(e)
    return out


def _random_network(rnd, species):
    """The text of 2 to 5 mass-action reactions between random complexes of up
    to 3 of each species."""

    def complex_():
        terms = [f"{c} {x}" for x in species if (c := rnd.choice((0, 0, 1, 2, 3)))]
        return " + ".join(terms) or "0"

    lines = []
    count = rnd.randint(2, 5)
    while len(lines) < count:
        left, right = complex_(), complex_()
        if left != right:
            lines.append(f"k{len(lines) + 1}: {left} -> {right}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, budget", [
    ("edelstein", None), ("schlogl", None), ("interconversion", None), ("inflow_outflow", None),
    ("autocatalytic", None), ("pair", None), ("futile", 50), ("twosite", 50),
])
def test_steady_state_grid_matches_reference(name, budget, monkeypatch):
    """Same pair, or the same exhaustion, as the Fraction grid; futile and
    twosite exhaust their grid, so a smaller budget keeps them quick."""
    if budget is not None:
        monkeypatch.setattr(crn, "STEADY_STATE_LP_BUDGET", budget)
    N, V = stoichiometry(parse_network((NETWORKS / f"{name}.txt").read_text()))
    S = Subspace(C=N)
    expected = reference_steady_state_pair(N, V, S, crn.STEADY_STATE_LP_BUDGET)
    assert crn._steady_state_pair(N, V, S) == expected
    assert expected[1] == (budget is not None)


def test_steady_state_grid_matches_reference_on_random_networks(monkeypatch):
    """Small mass-action networks: in one species, where some grids find a
    pair, and in two or three, with a budget small enough that some grids
    exhaust it. im(N) is also presented by 2N/3, so that the common
    denominator of the grid and the basis is 6, not 2."""
    budget = 60
    monkeypatch.setattr(crn, "STEADY_STATE_LP_BUDGET", budget)
    rnd = random.Random("steady-state-grid")
    outcomes = set()
    for species in ["A"] * 50 + ["AB", "ABC"] * 6:
        text = _random_network(rnd, species)
        N, V = stoichiometry(parse_network(text))
        thirds = M([[Fraction(2, 3) * v for v in row] for row in N.entries], N.rows, N.cols)
        for S in (Subspace(C=N), Subspace(C=thirds)):
            if S.dim() == 0:
                continue
            expected = reference_steady_state_pair(N, V, S, budget)
            assert crn._steady_state_pair(N, V, S) == expected, text
            outcomes.add((expected[0] is not None, expected[1]))
    assert outcomes == {(True, False), (False, False), (False, True)}


# -- certificate screen of the steady-state grid ------------------------------


def _grid(N, V, S, budget, screen):
    """(result, candidates decided, LPs) of the grid, with its certificate
    screen or without it."""
    candidates, lps = [], []
    screened, solve = crn._screened, crn.solve_strict
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crn, "STEADY_STATE_LP_BUDGET", budget)
        patch.setattr(crn, "_screened", lambda *args: candidates.append(1) or (screen and screened(*args)))
        patch.setattr(crn, "solve_strict", lambda *args: lps.append(1) or solve(*args))
        result = crn._steady_state_pair(N, V, S)
    return result, len(candidates), len(lps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_grid_screen_changes_nothing(seed):
    """On random networks the grid finds the same pair, or stops at the same
    budget, with and without its screen, after deciding the same candidates,
    with no more LPs. The networks are drawn from a seed, since
    ``_random_network`` redraws a reaction until its two sides differ."""
    rnd = random.Random(seed)
    text = _random_network(rnd, rnd.choice(("A", "AB", "ABC")))
    N, V = stoichiometry(parse_network(text))
    S = Subspace(C=N)
    if S.dim() == 0:
        return
    budget = rnd.randint(1, 80)
    with_, without = _grid(N, V, S, budget, True), _grid(N, V, S, budget, False)
    assert with_[:2] == without[:2], text
    assert with_[2] <= without[2] == without[1]


def test_mutated_grid_certificate_fails_its_recheck(tmp_path, capsys, monkeypatch):
    """A certificate with one multiplier doubled still passes the integer
    screen, which reads a and b, but not the re-check on the candidate's rows;
    through the CLI that is exit 5."""
    from signject.cli import main

    text = (NETWORKS / "edelstein.txt").read_text()
    N, V = stoichiometry(parse_network(text))
    assert _grid(N, V, Subspace(C=N), crn.STEADY_STATE_LP_BUDGET, True)[2] < 8

    def doubled(N, certificate):
        lam, a, b, den = nogood(N, certificate)
        i = next(i for i, l in enumerate(lam) if l)
        return (*lam[:i], 2 * lam[i], *lam[i + 1:]), a, b, den

    nogood = crn._grid_nogood
    monkeypatch.setattr(crn, "_grid_nogood", doubled)
    with pytest.raises(InternalError, match="Farkas certificate does not prove infeasibility"):
        crn._steady_state_pair(N, V, Subspace(C=N))
    net = tmp_path / "net.txt"
    net.write_text(text)
    assert main(["crn", "preclude", str(net)]) == 5
    assert capsys.readouterr() == ("", "internal error: Farkas certificate does not prove infeasibility\n")
