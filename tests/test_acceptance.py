"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report
lines.
"""
import json
import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from signject.cli import main as cli_main
from signject.crn import multistationarity_witness, parse_network, preclude_multistationarity
from signject.descartes import univariate_sign_variations
from signject.engine import (
    FullSpace,
    OrthantUnion,
    Subspace,
    check_injectivity,
    det_condition,
    gamma_det_poly,
)
from signject.matroid import covectors, matroid_vectors
from signject.oracle import (
    brute_force_sign_set,
    naive_symbolic_gamma_det,
    sampled_injectivity_search,
)
from signject.ratmat import RationalMatrix, gale_dual, rank, verify_gale_relation
from signject.matroid import image_sign_vectors

M = RationalMatrix
SEED = 20240824


def report(num, ok, desc):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num}: {desc}"


def _rand_matrix(rnd, rows, cols, lo=-5, hi=5):
    return M([[Fraction(rnd.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)])


def _route_instances():
    """The shared random pool for criteria 3-5: S = im(A), n, r <= 4."""
    rnd = random.Random(SEED)
    out = []
    while len(out) < 200:
        n = rnd.randint(1, 4)
        r = rnd.randint(1, 4)
        A = _rand_matrix(rnd, n, r, -3, 3)
        B = _rand_matrix(rnd, r, n, -3, 3)
        if rank(A) == 0:
            continue
        out.append((A, B))
    return out


_ROUTE_CACHE = None


def route_results():
    global _ROUTE_CACHE
    if _ROUTE_CACHE is None:
        results = []
        for A, B in _route_instances():
            S = Subspace(C=A)
            verdict = check_injectivity(A, B, S)
            results.append((A, B, S, verdict))
        _ROUTE_CACHE = results
    return _ROUTE_CACHE


def test_criterion_01_univariate_descartes(tmp_path, capsys):
    t0 = time.time()
    ok = True
    a = tmp_path / "A.json"
    a113 = tmp_path / "A113.json"
    a113.write_text(json.dumps(M([[1, -1, 1]]).to_json_dict()))
    a.write_text(json.dumps(M([[1, 2, 3]]).to_json_dict()))
    for k in (3, 5, 9):
        b = tmp_path / f"B{k}.json"
        b.write_text(json.dumps(M([[1], [2], [k]]).to_json_dict()))
        code = cli_main(["descartes", "bnd", "--A", str(a113), "--B", str(b)])
        ok = ok and code == 3
    b5 = tmp_path / "B5.json"
    b5.write_text(json.dumps(M([[1], [2], [5]]).to_json_dict()))
    code = cli_main(["descartes", "bnd", "--A", str(a), "--B", str(b5)])
    ok = ok and code == 0
    ok = ok and univariate_sign_variations([Fraction(-1), 1, -1, 1]) == 3
    ok = ok and univariate_sign_variations([Fraction(0), 1, -1, 1]) == 2
    ok = ok and univariate_sign_variations([Fraction(1), 1, -1, 1]) == 2
    elapsed = time.time() - t0
    capsys.readouterr()
    with capsys.disabled():
        report(1, ok and elapsed < 1.0,
               f"univariate rule: bnd FAILS for (1,-1,1) at k=3,5,9, HOLDS for (1,2,3); "
               f"variation counts 3/2; {elapsed:.2f}s")


def test_criterion_02_birch(capsys):
    t0 = time.time()
    rnd = random.Random(SEED + 1)
    ok = True
    count = 0
    while count < 100:
        n = rnd.randint(1, 4)
        r = rnd.randint(n, 7)
        A = _rand_matrix(rnd, n, r)
        if rank(A) < n:
            continue
        count += 1
        v = check_injectivity(A, A.transpose(), FullSpace())
        ok = ok and v.injective
    elapsed = time.time() - t0
    with capsys.disabled():
        report(2, ok and elapsed < 30.0,
               f"100 random Birch instances (B = A^T) all injective; {elapsed:.1f}s")


def test_criterion_03_route_agreement(capsys):
    t0 = time.time()
    disagreements = 0
    for A, B, S, verdict in route_results():
        # minors route vs det-polynomial route is cross-checked inside the
        # engine (it raises on mismatch); compare both against the sign search
        T = S.nonzero_sign_vectors()
        if T:
            search = check_injectivity(A, B, OrthantUnion(T)).injective
        else:
            search = True
        if search != verdict.injective:
            disagreements += 1
    elapsed = time.time() - t0
    with capsys.disabled():
        report(3, disagreements == 0 and elapsed < 300.0,
               f"200 instances, minors vs det(Gamma) vs sign-search verdicts identical "
               f"({disagreements} disagreements); {elapsed:.1f}s")


def test_criterion_04_counterexample_soundness(capsys):
    checked = 0
    ok = True
    for A, B, S, verdict in route_results():
        if verdict.injective:
            continue
        checked += 1
        cx = verdict.counterexample
        if cx is None:
            ok = False
            continue
        ok = ok and all(k > 0 for k in cx.kappa)
        ok = ok and all(float(v) > 0 for v in cx.x) and all(float(v) > 0 for v in cx.y)
        ok = ok and mp.mpf(cx.residual_bound) <= mp.mpf("1e-30")
    with capsys.disabled():
        report(4, ok and checked > 0,
               f"{checked} non-injective verdicts all carry verified (kappa,x,y) "
               f"with positive entries and relative residual <= 1e-30")


def test_criterion_05_oracle_non_falsification(capsys):
    t0 = time.time()
    ok = True
    checked = 0
    for A, B, S, verdict in route_results():
        if not verdict.injective:
            continue
        checked += 1
        rep = sampled_injectivity_search(A, B, S=S, samples=10_000, seed=SEED + checked)
        ok = ok and not rep.found_violation
    elapsed = time.time() - t0
    with capsys.disabled():
        report(5, ok,
               f"sampling oracle (1e4 samples) found no violation on any of the "
               f"{checked} injective instances; {elapsed:.0f}s")


def test_criterion_06_gamma_coefficients(capsys):
    rnd = random.Random(SEED + 2)
    ok = True
    count = 0
    while count < 100:
        n = rnd.randint(1, 4)
        s = rnd.randint(1, n)
        r = rnd.randint(s, 4)
        Ap = _rand_matrix(rnd, s, r, -3, 3)
        B = _rand_matrix(rnd, r, n, -3, 3)
        Z = None
        if s < n:
            Z = _rand_matrix(rnd, n - s, n, -3, 3)
            if rank(Z) < n - s:
                continue
        count += 1
        ok = ok and gamma_det_poly(Ap, B, Z).terms == naive_symbolic_gamma_det(Ap, B, Z).terms
    with capsys.disabled():
        report(6, ok, "gamma_det_poly equals the Leibniz oracle term-by-term on 100 instances")


def test_criterion_07_gale_relation(capsys):
    rnd = random.Random(SEED + 3)
    ok = True
    count = 0
    while count < 100:
        n = rnd.randint(2, 5)
        s = rnd.randint(1, n - 1)
        C = _rand_matrix(rnd, n, s)
        if rank(C) < s:
            continue
        count += 1
        delta = verify_gale_relation(C, gale_dual(C))
        ok = ok and delta != 0
    with capsys.disabled():
        report(7, ok, "Gale minor relation verified with one nonzero delta on 100 duals")


def test_criterion_08_covector_enumeration(capsys):
    rnd = random.Random(SEED + 4)
    ok = True
    count = 0
    while count < 50:
        n = rnd.randint(1, 2)
        r = rnd.randint(n, 5)
        A = _rand_matrix(rnd, n, r, -3, 3)
        if rank(A) < n:
            continue
        count += 1
        ok = ok and covectors(A) == brute_force_sign_set(A.transpose(), "image")
        ok = ok and matroid_vectors(A) == brute_force_sign_set(A, "kernel")
    with capsys.disabled():
        report(8, ok, "covectors and kernel sign sets match brute force on 50 instances")


def test_criterion_09_sign_duality(capsys):
    rnd = random.Random(SEED + 5)
    ok = True
    count = 0
    while count < 100:
        n = rnd.randint(2, 5)
        s = rnd.randint(1, n - 1)
        C = _rand_matrix(rnd, n, s, -3, 3)
        if rank(C) < s:
            continue
        count += 1
        Z = gale_dual(C)
        shared = set(image_sign_vectors(C)) & set(image_sign_vectors(Z.transpose()))
        ok = ok and all(v.is_zero() for v in shared)
    with capsys.disabled():
        report(9, ok, "sigma(S) and sigma(S-perp) intersect only in zero on 100 subspaces")


def test_criterion_10_crn_worked_set(capsys):
    t0 = time.time()
    ok = preclude_multistationarity(parse_network("k1: A -> B\nk2: B -> A\n")).precluded
    ok = ok and preclude_multistationarity(parse_network("k1: 0 -> X\nk2: X -> 0\n")).precluded
    v = preclude_multistationarity(parse_network("k1: 0 -> X\nk2: X -> 0\nk3: 2 X -> 3 X\n"))
    ok = ok and not v.precluded and v.steady_state_pair is not None
    if v.steady_state_pair:
        k = [Fraction(s) for s in v.steady_state_pair["kappa"]]
        x = Fraction(v.steady_state_pair["x"][0])
        y = Fraction(v.steady_state_pair["y"][0])
        ok = ok and x != y and all(q > 0 for q in k + [x, y])
        ok = ok and k[0] - k[1] * x + k[2] * x * x == 0
        ok = ok and k[0] - k[1] * y + k[2] * y * y == 0
    elapsed = time.time() - t0
    with capsys.disabled():
        report(10, ok and elapsed < 3.0,
               f"CRN worked set: two precluded networks, one with an exact two-steady-state "
               f"witness; {elapsed:.2f}s")


def test_criterion_11_special_steady_state_witness(capsys):
    Mm = M([[1, -1]])
    S = Subspace(C=M([[1], [1]]))
    w = multistationarity_witness(Mm, S)
    ok = w is not None
    if ok:
        ok = Mm.apply(w.v) == (0,)  # (x*)^M = (y*)^M certified by M v = 0
        ok = ok and w.z[0] == w.z[1] and w.z[0] != 0  # x* - y* = z in S, nonzero
    with capsys.disabled():
        report(11, ok, "M=(1,-1), S=span{(1,1)}: valid special-steady-state pair constructed")


def test_criterion_12_determinism(tmp_path, capsys):
    a = tmp_path / "A.json"
    b = tmp_path / "B.json"
    c = tmp_path / "C.json"
    a.write_text(json.dumps(M([[1, -1]]).to_json_dict()))
    b.write_text(json.dumps(M.identity(2).to_json_dict()))
    c.write_text(json.dumps(M([[1], [1]]).to_json_dict()))
    net = tmp_path / "net.txt"
    net.write_text("k1: 0 -> X\nk2: X -> 0\nk3: 2 X -> 3 X\n")
    commands = [
        ["injectivity", "--A", str(a), "--B", str(b), "--S-image", str(c)],
        ["injectivity", "--A", str(b), "--B", str(b), "--full-space"],
        ["descartes", "ex", "--A", str(a), "--B", str(a.with_name("Bt.json"))],
        ["crn", "preclude", str(net)],
        ["covectors", "--A", str(a)],
        ["oracle", "sample", "--A", str(a), "--B", str(b), "--samples", "200"],
    ]
    a.with_name("Bt.json").write_text(json.dumps(M([[1], [-1]]).to_json_dict()))
    ok = True
    for i, cmd in enumerate(commands):
        outs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"out_{i}_{jobs}.json"
            cli_main(["--jobs", jobs, "--seed", "7", "--output", str(out)] + cmd)
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1]
    capsys.readouterr()
    with capsys.disabled():
        report(12, ok, "--jobs 1 vs --jobs 8 produce byte-identical JSON for every command")
