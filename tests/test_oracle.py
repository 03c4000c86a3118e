import ast
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy
import pytest
from mpmath import mp

from signject import engine, feasibility, oracle
from signject.engine import FullSpace, OrthantUnion, Subspace, check_injectivity, evaluate_map
from signject.errors import InternalError, ShapeMismatch, TooLarge
from signject.feasibility import FeasibilityResult, StrictSystem, solve_strict
from signject.oracle import (
    SearchReport,
    brute_force_sign_set,
    cofactor_det,
    fm_strict_feasible,
    fourier_motzkin_feasible,
    naive_symbolic_gamma_det,
    sampled_injectivity_search,
)
from signject.ratmat import RationalMatrix, det
from signject.signs import SignVector

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
    """The sampling loop as it was before the search moved to integers: Fraction
    samples, one exact LP per screened sample, and the 256-bit interval residual
    check for every candidate, integral B included."""
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

    Af = numpy.array([[float(v) for v in row] for row in A.entries])
    Bf = numpy.array([[float(v) for v in row] for row in B.entries])
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
        if x == y or any(v <= 0 for v in x):
            continue
        xf = numpy.array([float(v) for v in x])
        yf = numpy.array([float(v) for v in y])
        d = numpy.exp(Bf @ numpy.log(xf)) - numpy.exp(Bf @ numpy.log(yf))
        _, sing, vt = numpy.linalg.svd(Af * d)
        if integral_B:
            tol = 1e-9 * max(1.0, sing[0] if len(sing) else 0.0)
            null = [vt[i] for i in range(len(vt)) if i >= len(sing) or sing[i] < tol]
            if not null:
                continue
            v = null[0]
            if len(null) == 1 and numpy.all(numpy.abs(v) > 1e-9) and numpy.any(v > 0) and numpy.any(v < 0):
                continue
            diffs = [_power(x, B.entries[j]) - _power(y, B.entries[j]) for j in range(r)]
            D = RationalMatrix([[A.entries[i][j] * diffs[j] for j in range(r)] for i in range(m)], m, r)
            res = solve_strict(StrictSystem(nvars=r, equalities=D, comp_signs=SignVector([1] * r)))
            if not res.feasible:
                continue
            kq = res.witness
        else:
            null = [vt[i] for i in range(len(vt)) if i >= len(sing) or sing[i] < 1e-10]
            kq = None
            for v in null:
                if numpy.all(v > 1e-9) or numpy.all(v < -1e-9):
                    kq = [Fraction(float(abs(k))).limit_denominator(10**9) for k in v]
                    break
            if kq is None:
                continue
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


# instances whose LPs or float kernels give collisions, so the violation
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
    """Same draws, same candidates, same violations, for every kind of S and B."""
    cases = COLLIDING + _random_instances(random.Random(f"oracle-{seed}"), 12)
    found = 0
    for A, B, S in cases:
        got = sampled_injectivity_search(A, B, S=S, samples=80, seed=seed)
        assert got == reference_search(A, B, S=S, samples=80, seed=seed), (A, B, S)
        found += len(got.violations)
    assert found


def test_wrong_lp_witness_raises(monkeypatch):
    """The exact residual check catches a kappa that does not collide."""
    def doubled_first(system):
        res = solve_strict(system)
        if not res.feasible:
            return res
        return FeasibilityResult(True, witness=(2 * res.witness[0],) + tuple(res.witness[1:]))

    monkeypatch.setattr(feasibility, "solve_strict", doubled_first)
    with pytest.raises(InternalError):
        sampled_injectivity_search(RationalMatrix([[1, -1]]), RationalMatrix([[2], [1]]), samples=60, seed=11)


def test_non_integral_search_uses_the_engine_tolerance(monkeypatch):
    """A rounded float kappa for x^(1/2) against x (the golden
    fractional/full/rounded) is a violation exactly when the engine's
    RESIDUAL_TOLERANCE admits its residual: at 1 every candidate is, at 0 none."""
    A, B = M([[1, -1]]), M([[Fraction(1, 2)], [1]])
    monkeypatch.setattr(engine, "RESIDUAL_TOLERANCE", 1)
    loose = sampled_injectivity_search(A, B, samples=200, seed=5)
    assert loose.candidates > 0 and len(loose.violations) == loose.candidates
    monkeypatch.setattr(engine, "RESIDUAL_TOLERANCE", 0)
    strict = sampled_injectivity_search(A, B, samples=200, seed=5)
    assert strict.candidates == loose.candidates and not strict.violations


# Run in a fresh interpreter: prints which of numpy and mpmath are loaded after
# the import, after exact decisions, and after a rendered counterexample.
_LOADED_SCRIPT = """
import json, sys
import signject.cli
from signject.engine import FullSpace, OrthantUnion, Subspace, check_injectivity
from signject.oracle import sampled_injectivity_search
from signject.ratmat import RationalMatrix as M
from signject.signs import SignVector

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
print(json.dumps(stages))
"""


def test_integral_search_makes_no_numpy_call():
    """Importing the CLI, an injective verdict and the integral-B search load
    neither numpy nor mpmath; a rendered counterexample loads mpmath only."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout)
    assert stages["import"] == [] and stages["exact"] == []
    assert stages["injective"] is True and stages["violations"] > 0
    assert stages["not_injective"] is False and stages["witness"] == ["mpmath"]
