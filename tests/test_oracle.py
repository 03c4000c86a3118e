import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from mpmath import mp

from signject import engine, oracle
from signject.engine import FullSpace, OrthantUnion, Subspace, check_injectivity, evaluate_map
from signject.errors import InternalError, ShapeMismatch, TooLarge, VerificationFailed
from signject.feasibility import FeasibilityResult, StrictSystem, solve_rows, solve_strict
from signject.oracle import SearchReport, brute_force_sign_set, naive_symbolic_gamma_det, sampled_injectivity_search
from signject.ratmat import RationalMatrix, det
from signject.signs import SignVector, sign_of, sigma

from reference import cofactor_det, fm_strict_feasible, fourier_motzkin_feasible

M = RationalMatrix
S = SignVector.parse


def test_cofactor_matches_bareiss():
    A = M([[1, 2, 3], [0, 4, 5], [1, 0, 6]])
    assert cofactor_det(A) == det(A) == 22
    with pytest.raises(TooLarge):
        cofactor_det(M.identity(6))


def test_fourier_motzkin_basics():
    # x >= 1 and -x >= 0 infeasible; x >= 1 alone feasible
    assert not fourier_motzkin_feasible([], [((Fraction(1),), 1), ((Fraction(-1),), 0)], 1)
    assert fourier_motzkin_feasible([], [((Fraction(1),), 1)], 1)
    with pytest.raises(TooLarge):
        fourier_motzkin_feasible([], [], 7)


def test_brute_force_sign_sets():
    assert set(brute_force_sign_set(M([[1, -1]]), "kernel")) == {S("00"), S("++"), S("--")}
    assert len(brute_force_sign_set(M.identity(2), "image")) == 9
    with pytest.raises(TooLarge):
        brute_force_sign_set(M([[1] * 6]), "kernel")
    with pytest.raises(ValueError):
        brute_force_sign_set(M.identity(2), "span")


def test_gamma_leibniz_edge_cases():
    # s = n = 1: single entry determinant
    poly = naive_symbolic_gamma_det(M([[3]]), M([[2]]), None)
    assert poly.terms == {((0,), (0,)): Fraction(6)}
    # zero A' kills every term
    assert naive_symbolic_gamma_det(M([[0]]), M([[1, 2]]), M([[1, 1]])).terms == {}
    with pytest.raises(TooLarge):
        naive_symbolic_gamma_det(M.identity(6), M.identity(6), None)


def test_search_finds_quadratic_family():
    # f = k1 x^2 - k2 x collides whenever x + y = k2/k1
    A = M([[1, -1]])
    B = M([[2], [1]])
    rep = sampled_injectivity_search(A, B, samples=150, seed=11)
    assert rep.found_violation
    k, x, y = rep.violations[0]
    assert x[0] + y[0] == k[1] / k[0]


def test_search_respects_injectivity():
    rep = sampled_injectivity_search(M.identity(2), M.identity(2), samples=300, seed=2)
    assert not rep.found_violation


def test_search_empty_subset():
    rep = sampled_injectivity_search(
        M.identity(2), M.identity(2), S=Subspace(Z=M.identity(2)), samples=50, seed=0
    )
    assert rep.candidates == 0 and not rep.found_violation


def test_orthant_samples_stay_in_S():
    """A zero draw where the orthant's sign is nonzero gives x - y outside S:
    with S the open positive quadrant, such a pair (sign 0+) collides for
    f = kappa x_1, which is injective on S, and must not be reported."""
    A, B, S = M([[1]]), M([[1, 0]]), OrthantUnion((SignVector.parse("++"),))
    assert check_injectivity(A, B, S).injective
    rep = sampled_injectivity_search(A, B, S=S, samples=200, seed=0)
    assert rep.candidates == 0 and not rep.found_violation


@pytest.mark.parametrize("B", [M.identity(2), M([[Fraction(1, 2), 0], [0, 1]])], ids=["integral", "non-integral"])
@pytest.mark.parametrize("subset, message", [
    (Subspace(C=M([[1], [1], [1]])), "subspace lives in the wrong ambient dimension"),
    (OrthantUnion((S("+"), S("-"))), "orthant sign vectors must have length n = 2"),
], ids=["subspace", "orthants"])
def test_search_rejects_a_subset_outside_R_n(B, subset, message):
    """An S that does not live in R^n is a shape error, in both branches of the
    search, with the message check_injectivity gives."""
    A = M([[1, -1]])
    for decide in (lambda: sampled_injectivity_search(A, B, S=subset, samples=20),
                   lambda: check_injectivity(A, B, subset)):
        with pytest.raises(ShapeMismatch) as caught:
            decide()
        assert str(caught.value) == message


@pytest.mark.parametrize("B", [M.identity(2), M([[Fraction(1, 2), 0], [0, 1]])], ids=["integral", "non-integral"])
def test_search_over_no_orthant_draws_nothing(B):
    """A union of no orthants holds no x - y, as S = {0} does: the engine answers
    with its empty condition and the search with no candidate."""
    A = M([[1, -1]])
    assert check_injectivity(A, B, OrthantUnion(())).certificate == {"empty_condition": True}
    for S in (OrthantUnion(()), Subspace(C=M.zeros(2, 1))):
        assert sampled_injectivity_search(A, B, S=S, samples=50, seed=4) == SearchReport(50, 4, candidates=0)


def test_search_rejects_negative_samples():
    with pytest.raises(ValueError, match="non-negative"):
        sampled_injectivity_search(M([[1, -1]]), M([[2], [1]]), samples=-1)
    rep = sampled_injectivity_search(M([[1, -1]]), M([[2], [1]]), samples=0)
    assert rep.samples == 0 and rep.candidates == 0 and not rep.found_violation


def test_search_seed_deterministic():
    a = sampled_injectivity_search(M([[1, -1]]), M([[2], [1]]), samples=60, seed=9)
    b = sampled_injectivity_search(M([[1, -1]]), M([[2], [1]]), samples=60, seed=9)
    assert a == b
    c = sampled_injectivity_search(M([[1, -1]]), M([[2], [1]]), samples=60, seed=10)
    assert a.seed != c.seed


def test_oracles_never_imported_by_verdict_code():
    # the dependency must stay one-way: no engine/descartes/crn module imports oracle
    src = Path(__file__).resolve().parent.parent / "src" / "signject"
    for name in ("engine", "descartes", "crn", "matroid", "feasibility", "ratmat", "signs"):
        tree = ast.parse((src / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and "oracle" in node.module:
                raise AssertionError(f"{name}.py imports the oracle module")
            if isinstance(node, ast.Import) and any("oracle" in a.name for a in node.names):
                raise AssertionError(f"{name}.py imports the oracle module")


# -- the sampling loop against a reference ------------------------------------


def reference_search(A, B, S=None, samples=1000, seed=0, prec=256):
    """The sampling loop on Fraction samples, with no cache of sign patterns.

    For integral B, one exact LP for A diag(x^B - y^B) kappa = 0, kappa > 0
    per sample, and the 256-bit interval residual check for every candidate.
    For non-integral B, Fourier-Motzkin decides whether ker A has a vector
    with the sign pattern of x^B - y^B, taken from Fraction powers of
    x^(D_j b_j) and y^(D_j b_j) with D_j the lcm of row j's denominators; a
    candidate is reported as a violation with kappa None."""
    rng = random.Random(seed)
    m, r = A.rows, A.cols
    n = B.cols
    integral_B = all(v.denominator == 1 for row in B.entries for v in row)
    basis = orthants = None
    if isinstance(S, Subspace):
        if S.dim() == 0:
            return SearchReport(samples=samples, seed=seed, candidates=0)
        basis = S.image_presentation()
    elif isinstance(S, OrthantUnion):
        orthants = S.T

    def draw_fraction():
        return Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4]))

    candidates = 0
    violations = []
    for _ in range(samples):
        if basis is not None:
            z = basis.apply([draw_fraction() for _ in range(basis.cols)])
        elif orthants is not None:
            tau = rng.choice(orthants)
            z = tuple(s * abs(draw_fraction()) for s in tau)
        else:
            z = tuple(draw_fraction() for _ in range(n))
        y = tuple(Fraction(rng.randint(1, 12), rng.choice([1, 2])) for _ in range(n))
        x = tuple(a + b for a, b in zip(y, z))
        if x == y or any(v <= 0 for v in x) or (orthants is not None and sigma(z) != tau):
            continue
        if not integral_B:
            pattern = []
            for row in B.entries:
                scaled = [v * lcm(*(u.denominator for u in row)) for v in row]
                pattern.append(sign_of(_power(x, scaled) - _power(y, scaled)))
            if fm_strict_feasible(StrictSystem(nvars=r, equalities=A, comp_signs=SignVector(pattern))):
                candidates += 1
                violations.append((None, x, y))
            continue
        diffs = [_power(x, B.entries[j]) - _power(y, B.entries[j]) for j in range(r)]
        D = RationalMatrix([[A.entries[i][j] * diffs[j] for j in range(r)] for i in range(m)], m, r)
        res = solve_strict(StrictSystem(nvars=r, equalities=D, comp_signs=SignVector([1] * r)))
        if not res.feasible:
            continue
        kq = res.witness
        candidates += 1
        with mp.workprec(prec):
            vx, ex = evaluate_map(A, B, kq, [mp.mpf(v.numerator) / v.denominator for v in x], prec)
            vy, ey = evaluate_map(A, B, kq, [mp.mpf(v.numerator) / v.denominator for v in y], prec)
            resid = max(abs(a - b) for a, b in zip(vx, vy)) + ex + ey
            if resid / max(max(abs(v) for v in vx), mp.mpf(1)) < mp.mpf("1e-30"):
                violations.append((tuple(kq), x, y))
    return SearchReport(samples=samples, seed=seed, candidates=candidates, violations=tuple(violations))


def _power(x, exps):
    out = Fraction(1)
    for xi, e in zip(x, exps):
        out *= xi ** int(e)
    return out


def _random_instances(rnd, count):
    """(A, B, S): integer A; B integral, or with halves and thirds; S the full
    space, a subspace given by an image or a kernel, or a union of orthants."""
    out = []
    for k in range(count):
        n, r = rnd.randint(1, 3), rnd.randint(1, 3)
        m = rnd.randint(1, r)
        A = RationalMatrix([[rnd.randint(-3, 3) for _ in range(r)] for _ in range(m)])
        if (k // 4) % 2:
            B = RationalMatrix([[Fraction(rnd.randint(-4, 4), rnd.choice([1, 2, 3])) for _ in range(n)]
                                for _ in range(r)])
        else:
            B = RationalMatrix([[rnd.randint(-3, 3) for _ in range(n)] for _ in range(r)])
        kind = k % 4
        if kind == 0:
            S = FullSpace()
        elif kind == 1:
            k = rnd.randint(1, n)
            S = Subspace(C=RationalMatrix([[Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)) for _ in range(k)]
                                           for _ in range(n)]))
        elif kind == 2:
            S = Subspace(Z=RationalMatrix([[rnd.randint(-2, 2) for _ in range(n)]]))
        else:
            T = {SignVector([rnd.choice((-1, 0, 1)) for _ in range(n)]) for _ in range(3)}
            S = OrthantUnion(tuple(t for t in T if not t.is_zero()) or (SignVector([1] * n),))
        out.append((A, B, S))
    return out


# instances whose LPs or kernel vectors of A give collisions, so the violation
# branches run: f = k1 x^2 - k2 x (in x_1 alone when x - y lies on the first
# axis), and A = (4, -3) with x^(1/2) twice
COLLIDING = [
    (RationalMatrix([[1, -1]]), RationalMatrix([[2], [1]]), FullSpace()),
    (RationalMatrix([[1, -1]]), RationalMatrix([[2, 0], [1, 1]]),
     Subspace(C=RationalMatrix([[Fraction(1, 2)], [0]]))),
    (RationalMatrix([[1, -1]]), RationalMatrix([[2, 0], [1, 1]]), Subspace(Z=RationalMatrix([[0, 3]]))),
    (RationalMatrix([[4, -3]]), RationalMatrix([[Fraction(1, 2)], [Fraction(1, 2)]]), FullSpace()),
    (RationalMatrix([[4, -3]]), RationalMatrix([[Fraction(1, 2), 2], [Fraction(1, 2), 2]]),
     OrthantUnion((SignVector.parse("+-"), SignVector.parse("-+")))),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_search_matches_reference_loop(seed):
    """Same draws, same candidates and the same violations, for every kind of S
    and B; for non-integral B the violations are compared by their (x, y), so
    every candidate is a verified violation."""
    cases = COLLIDING + _random_instances(random.Random(f"oracle-{seed}"), 12)
    found = [0, 0]
    for A, B, S in cases:
        got = sampled_injectivity_search(A, B, S=S, samples=80, seed=seed)
        expected = reference_search(A, B, S=S, samples=80, seed=seed)
        integral = all(v.denominator == 1 for row in B.entries for v in row)
        if integral:
            assert got == expected, (A, B, S)
        else:
            assert got.candidates == expected.candidates, (A, B, S)
            assert [v[1:] for v in got.violations] == [v[1:] for v in expected.violations], (A, B, S)
        found[integral] += len(got.violations)
    assert all(found)


def _in_subset(z, S):
    if isinstance(S, Subspace):
        return not any(S.kernel_presentation().apply(z))
    if isinstance(S, OrthantUnion):
        return sigma(z) in S.T
    return True


def test_non_integral_search_never_falsifies():
    """On seeded non-integral-B instances drawn as _random_instances draws
    them, the search reports no violation where check_injectivity says
    injective, and every violation it reports has x - y in S and passes
    engine.verify_counterexample."""
    instances = [(A, B, S) for A, B, S in _random_instances(random.Random("non-integral"), 160)
                 if any(v.denominator != 1 for row in B.entries for v in row)]
    injective = found = 0
    for k, (A, B, S) in enumerate(instances):
        rep = sampled_injectivity_search(A, B, S=S, samples=200, seed=k)
        if check_injectivity(A, B, S).injective:
            injective += 1
            assert not rep.found_violation, (A, B, S)
        for kappa, x, y in rep.violations:
            assert _in_subset([a - b for a, b in zip(x, y)], S), (A, B, S, x, y)
            assert engine.verify_counterexample(A, B, kappa, x, y, 256)[0], (A, B, S, x, y)
        found += len(rep.violations)
    assert injective and found


def test_wrong_lp_witness_raises(monkeypatch):
    """The exact residual check catches a kappa that does not collide."""
    def doubled_first(nvars, rows):
        res = solve_rows(nvars, rows)
        if not res.feasible:
            return res
        return FeasibilityResult(True, witness=(2 * res.witness[0],) + tuple(res.witness[1:]))

    monkeypatch.setattr(oracle, "solve_rows", doubled_first)
    with pytest.raises(InternalError):
        sampled_injectivity_search(RationalMatrix([[1, -1]]), RationalMatrix([[2], [1]]), samples=60, seed=11)


def test_wrong_column_sign_raises(monkeypatch):
    """The exact residual is taken from kappa and the monomials, not from the
    LP's rows. f = k1 x^2 + k2 x is injective, but with the sign of column 0
    of A diag(x^B - y^B) flipped the LP finds a kappa, which its own witness
    check accepts and the residual rejects."""
    def flip_first_column(nvars, rows):
        return solve_rows(nvars, [((-coeffs[0],) + tuple(coeffs[1:]), s) if not s else (coeffs, s)
                                  for coeffs, s in rows])

    monkeypatch.setattr(oracle, "solve_rows", flip_first_column)
    with pytest.raises(VerificationFailed, match="does not give f_kappa"):
        sampled_injectivity_search(RationalMatrix([[1, 1]]), RationalMatrix([[2], [1]]), samples=60, seed=11)


def test_low_precision_search_retries():
    """For x^(1/2) against x, a kappa rounded at 64 or 96 bits cannot meet the
    residual tolerance; the search retries at max(4 prec, 1024) bits, as
    construct_counterexample does, so every candidate is still a verified
    violation. Without the retry, 64 and 96 bits reported none of 162."""
    A, B = M([[1, -1]]), M([[Fraction(1, 2)], [1]])
    reports = {prec: sampled_injectivity_search(A, B, samples=200, seed=0, prec=prec) for prec in (64, 96, 256)}
    for prec, rep in reports.items():
        assert rep.candidates == 162 and len(rep.violations) == 162, prec
        for kappa, x, y in rep.violations[:5]:
            assert engine.verify_counterexample(A, B, kappa, x, y, 256)[0], prec
    assert [v[1:] for v in reports[64].violations] == [v[1:] for v in reports[256].violations]


def test_non_integral_search_uses_the_engine_tolerance(monkeypatch):
    """For x^(1/2) against x (the golden fractional/full/rounded), a kappa
    rounded from w / (x^B - y^B) at 256 bits is a violation exactly when the
    engine's RESIDUAL_TOLERANCE admits its residual: at 1 every candidate is,
    at 0 none, since the interval residual is never exactly 0."""
    A, B = M([[1, -1]]), M([[Fraction(1, 2)], [1]])
    monkeypatch.setattr(engine, "RESIDUAL_TOLERANCE", 1)
    loose = sampled_injectivity_search(A, B, samples=200, seed=5)
    assert loose.candidates > 0 and len(loose.violations) == loose.candidates
    monkeypatch.setattr(engine, "RESIDUAL_TOLERANCE", 0)
    strict = sampled_injectivity_search(A, B, samples=200, seed=5)
    assert strict.candidates == loose.candidates and not strict.violations


# Run in a fresh interpreter: prints which of numpy and mpmath are loaded after
# the import, after exact decisions, after a rendered counterexample and after
# a non-integral-B search.
_LOADED_SCRIPT = """
import json, sys
from fractions import Fraction
import signject.cli
from signject.engine import FullSpace, OrthantUnion, Subspace, check_injectivity
from signject.oracle import sampled_injectivity_search
from signject.ratmat import RationalMatrix as M
from signject.signs import SignVector, sign_of, sigma

def loaded():
    return [name for name in ("mpmath", "numpy") if name in sys.modules]

stages = {"import": loaded()}
stages["injective"] = check_injectivity(M([[1, -1]]), M.identity(2),
                                        Subspace(C=M([[1], [-1]]))).injective
cases = [
    (M([[1, -1]]), M([[2], [1]]), FullSpace()),
    (M([[1, -1]]), M([[2, 0], [1, 1]]), Subspace(Z=M([[0, 3]]))),
    (M.identity(2), M.identity(2), FullSpace()),
    (M([[1, -1, 0], [0, 1, -1]]), M([[1, 0], [0, 1], [1, 1]]),
     OrthantUnion(tuple(map(SignVector.parse, ("+-", "-+", "++"))))),
]
stages["violations"] = sum(len(sampled_injectivity_search(A, B, S=T, samples=80, seed=3).violations)
                           for A, B, T in cases)
stages["exact"] = loaded()
stages["not_injective"] = check_injectivity(M([[1, -1]]), M.identity(2), FullSpace()).injective
stages["witness"] = loaded()
stages["fractional"] = len(sampled_injectivity_search(M([[1, -1]]), M([[Fraction(1, 2)], [1]]),
                                                      samples=80, seed=3).violations)
stages["non_integral"] = loaded()
print(json.dumps(stages))
"""


def test_integral_search_makes_no_numpy_call():
    """Importing the CLI, an injective verdict and the integral-B search load
    neither numpy nor mpmath; a rendered counterexample and the non-integral-B
    search load mpmath only."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages["import"] == [] and stages["exact"] == []
    assert stages["injective"] is True and stages["violations"] > 0
    assert stages["not_injective"] is False and stages["witness"] == ["mpmath"]
    assert stages["fractional"] > 0 and stages["non_integral"] == ["mpmath"]
