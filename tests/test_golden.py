"""Byte-for-byte golden outputs of the CLI over a fixed corpus.

Each case writes its inputs to a temporary directory, runs
``signject.cli.main`` in process with ``--output`` and compares the JSON bytes
with ``tests/golden/<name>.json`` and the exit code with the one listed here.
The corpus covers every subcommand and every injectivity route.

``route_pool.json`` pins, by exit code and sha256 of the JSON bytes, the 400
CLI calls of acceptance criterion 3's route pool (``--S-image`` and
``--S-signs`` for each of its 200 instances) and the ``SearchReport`` of the
sampling oracle on pool instances 4 and 9 at 200 samples, whose collisions
come from exact LP witnesses.

``oracle.json`` pins, by candidate and violation counts and the sha256 of
the report bytes, the sampling oracle's ``SearchReport`` on the branches the
route pool does not reach: S a union of orthants, and non-integral B (a
kernel vector of A with the sample's exact sign pattern, kappa from it at
256 bits, and the interval residual check).

``matroid.json`` pins the same way ``covectors``, ``cocircuits`` and
``chirotope`` on the three configurations of the benchmark's ``sign_search``
workload and on 30 seeded configurations with fractional entries, some of
them rank-deficient (exit code 2, no JSON: the hash of empty bytes).

``sign_search.json`` pins the same way the seven ``injectivity`` calls of the
benchmark's ``sign_search`` workload: five ``--S-image`` instances that are
not injective (n = 3, 4 and r = 5, 6, each with a counterexample) and two
Birch instances (B = A^T) over every nonzero orthant, whose certificates
record the whole (mu, tau) sweep. Their pair LPs are larger than the route
pool's.

The corpus includes ``minors`` and ``gamma-det`` on the dual futile cycle
(9 species, 12 reactions), with the inputs ``crn preclude`` builds from it;
``test_dual_minors_table_count`` pins how many tables of minors
``check_minors`` builds there, and how many terms they expand. It also
includes the five ``crn special`` calls of the benchmark's ``crn_minors``
workload: the futile cycle and the two-site network, each with M = N^T and
M = V_3, and ``bench/networks/pair.txt`` with M = (1, -1); and ``crn special``
on the dual futile cycle with M = N^T and M = V_3, whose kernel and image
share 228 nonzero sign vectors.

After a deliberate change of output, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import jsonschema
import pytest

from signject import engine, ratmat
from signject.cli import build_parser, main
from signject.crn import parse_network, stoichiometry
from signject.engine import FullSpace, OrthantUnion, Subspace
from signject.matroid import common_sign_vectors
from signject.oracle import sampled_injectivity_search
from signject.ratmat import RationalMatrix, rank, rref
from signject.signs import SignVector

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMA = json.loads((GOLDEN.parent.parent / "docs" / "output.schema.json").read_text())


def _m(rows):
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "entries": [[str(e) for e in row] for row in rows]}


I2 = _m([[1, 0], [0, 1]])
BIRCH_A = _m([[1, 2], [3, 4]])
BIRCH_B = _m([[1, 3], [2, 4]])
ONE_MINUS_ONE = _m([[1, -1]])
DIAGONAL = _m([[1], [1]])
CONFIG = _m([[1, 0, 1], [0, 1, 1]])
EX_B = _m([[1, 0], [0, 1], [1, 1]])
EX_A = _m([[1, 0, 1], [0, 1, 1]])
INTERCONVERSION = "k1: A -> B\nk2: B -> A\n"
AUTOCATALYTIC = "k1: 0 -> X\nk2: X -> 0\nk3: 2 X -> 3 X\n"
EDELSTEIN = ("k1: A -> 2 A\nk2: 2 A -> A\nk3: A + B -> C\nk4: C -> A + B\n"
             "k5: C -> B\nk6: B -> C\n")
PAIR = "k1: 0 -> A + B\nk2: A + B -> 0\n"
FUTILE = ("k1: E + S0 -> ES0\nk2: ES0 -> E + S0\nk3: ES0 -> E + S1\n"
          "k4: F + S1 -> FS1\nk5: FS1 -> F + S1\nk6: FS1 -> F + S0\n")
# two-site phosphorylation, distributive kinase E, processive phosphatase F
TWOSITE = ("k1: E + S0 -> ES0\nk2: ES0 -> E + S0\nk3: ES0 -> E + S1\n"
           "k4: E + S1 -> ES1\nk5: ES1 -> E + S1\nk6: ES1 -> E + S2\n"
           "k7: F + S2 -> FS2\nk8: FS2 -> F + S2\nk9: FS2 -> F + S0\n")
# the dual futile cycle (9 species, 12 reactions), known to be multistationary
DUAL = ("k1: E + S0 -> ES0\nk2: ES0 -> E + S0\nk3: ES0 -> E + S1\n"
        "k4: E + S1 -> ES1\nk5: ES1 -> E + S1\nk6: ES1 -> E + S2\n"
        "k7: F + S2 -> FS2\nk8: FS2 -> F + S2\nk9: FS2 -> F + S1\n"
        "k10: F + S1 -> FS1\nk11: FS1 -> F + S1\nk12: FS1 -> F + S0\n")


def subspace_route_inputs(text):
    """(Atilde = C A', A', V, Z) of `crn preclude` on a network: C spans im(N),
    A' is the nonzero rows of rref(N) and Z is the Gale dual of C."""
    N, V = stoichiometry(parse_network(text))
    S = Subspace(C=N)
    R, pivots = rref(N)
    Aprime = RationalMatrix(R.entries[:len(pivots)])
    C = S.image_presentation()
    return C @ Aprime, Aprime, V, S.kernel_presentation()


DUAL_ATILDE, DUAL_APRIME, DUAL_V, DUAL_Z = (_m(M.entries) for M in subspace_route_inputs(DUAL))


def special_inputs(text):
    """The M of the benchmark's `crn special` calls on a network: N^T, for which
    at most one special steady state is a theorem, and the kinetic orders V_3
    of the first three reactions, which admit two."""
    N, V = stoichiometry(parse_network(text))
    return _m(N.transpose().entries), _m(V.entries[:3])


FUTILE_NT, FUTILE_V3 = special_inputs(FUTILE)
TWOSITE_NT, TWOSITE_V3 = special_inputs(TWOSITE)
DUAL_NT, DUAL_V3 = special_inputs(DUAL)
# bench/networks/pair.txt, comment line included
PAIR_FILE = "# S = span{(1, 1)}: with M = (1, -1), the pair of acceptance criterion 11.\n" + PAIR
# bench/networks/dual.txt as it is: the DUAL network behind a comment
DUAL_FILE = (Path(__file__).resolve().parent.parent / "bench" / "networks" / "dual.txt").read_text()

# (name, argv with {file} placeholders, input files, expected exit code)
CASES = [
    ("inj_full_minors_hold",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--full-space"],
     {"A": BIRCH_A, "B": BIRCH_B}, 0),
    ("inj_full_minors_fail",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--full-space"],
     {"A": ONE_MINUS_ONE, "B": _m([[1], [2]])}, 3),
    ("inj_full_m_below_n",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--full-space"],
     {"A": _m([[1, 1]]), "B": I2}, 3),
    ("inj_full_m_above_n",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--full-space"],
     {"A": _m([[1, 0], [0, 1], [1, 1]]), "B": DIAGONAL}, 0),
    ("inj_full_rank_B_deficient",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--full-space"],
     {"A": I2, "B": _m([[1, 1], [1, 1]])}, 3),
    ("inj_image_minors_hold",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-image", "{C}"],
     {"A": _m([[1, 1]]), "B": I2, "C": DIAGONAL}, 0),
    ("inj_image_minors_fail",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-image", "{C}"],
     {"A": ONE_MINUS_ONE, "B": I2, "C": DIAGONAL}, 3),
    ("inj_image_dim_not_rank_hold",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-image", "{C}"],
     {"A": _m([[1, -1, 0], [0, 1, -1]]), "B": _m([[1, 0], [0, 1], [1, 1]]),
      "C": _m([[1], [-1]])}, 0),
    ("inj_image_dim_not_rank_fail",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-image", "{C}"],
     {"A": ONE_MINUS_ONE, "B": I2, "C": I2}, 3),
    ("inj_image_dependent_columns",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-image", "{C}"],
     {"A": ONE_MINUS_ONE, "B": I2, "C": _m([[1, 2], [1, 2]])}, 3),
    ("inj_kernel",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-kernel", "{Z}"],
     {"A": ONE_MINUS_ONE, "B": I2, "Z": ONE_MINUS_ONE}, 3),
    ("inj_signs_hold",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-signs", "{T}"],
     {"A": I2, "B": _m([[1, 1], [1, 1]]), "T": "++\n"}, 0),
    ("inj_signs_fail",
     ["injectivity", "--A", "{A}", "--B", "{B}", "--S-signs", "{T}"],
     {"A": ONE_MINUS_ONE, "B": I2, "T": "+-\n++\n"}, 3),
    ("minors",
     ["minors", "--A", "{A}", "--B", "{B}", "--s", "1"],
     {"A": _m([[1, -1], [1, -1]]), "B": I2}, 3),
    ("gamma_det",
     ["gamma-det", "--Aprime", "{Ap}", "--B", "{B}", "--Z", "{Z}"],
     {"Ap": _m([[1]]), "B": _m([[1, 2]]), "Z": _m([[1, 1]])}, 3),
    ("minors_dual",
     ["minors", "--A", "{A}", "--B", "{B}", "--s", "6"],
     {"A": DUAL_ATILDE, "B": DUAL_V}, 3),
    ("gamma_det_dual",
     ["gamma-det", "--Aprime", "{Ap}", "--B", "{B}", "--Z", "{Z}"],
     {"Ap": DUAL_APRIME, "B": DUAL_V, "Z": DUAL_Z}, 3),
    ("chirotope", ["chirotope", "--A", "{A}"], {"A": CONFIG}, 0),
    ("cocircuits", ["cocircuits", "--A", "{A}"], {"A": CONFIG}, 0),
    ("covectors", ["covectors", "--A", "{A}"], {"A": CONFIG}, 0),
    ("descartes_bnd_fail",
     ["descartes", "bnd", "--A", "{A}", "--B", "{B}"],
     {"A": _m([[1, -1, 1]]), "B": _m([[1], [2], [5]])}, 3),
    ("descartes_bnd_hold",
     ["descartes", "bnd", "--A", "{A}", "--B", "{B}"],
     {"A": EX_A, "B": EX_B}, 0),
    ("descartes_ex_hold",
     ["descartes", "ex", "--A", "{A}", "--B", "{B}"],
     {"A": EX_A, "B": EX_B}, 0),
    ("descartes_ex_fail",
     ["descartes", "ex", "--A", "{A}", "--B", "{B}"],
     {"A": _m([[1, -1, 1]]), "B": _m([[1], [2], [5]])}, 3),
    ("descartes_cone",
     ["descartes", "cone", "--A", "{A}", "--y", "1,1"], {"A": I2}, 0),
    ("crn_preclude_precluded",
     ["crn", "preclude", "{net}"], {"net": INTERCONVERSION}, 0),
    ("crn_preclude_pair",
     ["crn", "preclude", "{net}"], {"net": AUTOCATALYTIC}, 3),
    ("crn_preclude_edelstein",
     ["crn", "preclude", "{net}"], {"net": EDELSTEIN}, 3),
    ("crn_preclude_futile",
     ["crn", "preclude", "{net}"], {"net": FUTILE}, 0),
    ("crn_preclude_twosite",
     ["crn", "preclude", "{net}"], {"net": TWOSITE}, 0),
    # the sign search stops at its LP budget (counterexample null, with a
    # warning) and the steady-state grid at its own (the exhausted note)
    ("crn_preclude_dual",
     ["crn", "preclude", "{net}"], {"net": DUAL_FILE}, 3),
    ("crn_special_unique",
     ["crn", "special", "{net}", "--M", "{M}"],
     {"net": INTERCONVERSION, "M": I2}, 0),
    ("crn_special_witness",
     ["crn", "special", "{net}", "--M", "{M}"],
     {"net": PAIR, "M": ONE_MINUS_ONE}, 3),
    ("crn_special_futile_nt",
     ["crn", "special", "{net}", "--M", "{M}"], {"net": FUTILE, "M": FUTILE_NT}, 0),
    ("crn_special_futile_v3",
     ["crn", "special", "{net}", "--M", "{M}"], {"net": FUTILE, "M": FUTILE_V3}, 3),
    ("crn_special_twosite_nt",
     ["crn", "special", "{net}", "--M", "{M}"], {"net": TWOSITE, "M": TWOSITE_NT}, 0),
    ("crn_special_twosite_v3",
     ["crn", "special", "{net}", "--M", "{M}"], {"net": TWOSITE, "M": TWOSITE_V3}, 3),
    ("crn_special_pair",
     ["crn", "special", "{net}", "--M", "{M}"], {"net": PAIR_FILE, "M": ONE_MINUS_ONE}, 3),
    # the dual futile cycle: ker N^T and im N meet only in 0, ker V_3 and
    # im N share 228 nonzero sign vectors, of which the witness takes the first
    ("crn_special_dual_nt",
     ["crn", "special", "{net}", "--M", "{M}"], {"net": DUAL_FILE, "M": DUAL_NT}, 0),
    ("crn_special_dual_v3",
     ["crn", "special", "{net}", "--M", "{M}"], {"net": DUAL_FILE, "M": DUAL_V3}, 3),
    ("oracle_sign_set",
     ["oracle", "sign-set", "--M", "{M}", "--mode", "image"], {"M": CONFIG}, 0),
    ("oracle_gamma",
     ["oracle", "gamma", "--Aprime", "{Ap}", "--B", "{B}", "--Z", "{Z}"],
     {"Ap": _m([[1]]), "B": _m([[1, 2]]), "Z": _m([[1, 1]])}, 0),
    ("oracle_sample",
     ["--seed", "7", "oracle", "sample", "--A", "{A}", "--B", "{B}", "--samples", "40"],
     {"A": ONE_MINUS_ONE, "B": _m([[1], [2]])}, 3),
    ("inj_full_precision_128",
     ["--precision", "128", "injectivity", "--A", "{A}", "--B", "{B}", "--full-space"],
     {"A": ONE_MINUS_ONE, "B": _m([[1], [2]])}, 3),
]


def case_argv(argv, files, workdir: Path):
    """Write the input files; return the CLI arguments, with --output, and its path."""
    paths = {}
    for key, content in files.items():
        path = workdir / f"{key}.{'json' if isinstance(content, dict) else 'txt'}"
        path.write_text(json.dumps(content) if isinstance(content, dict) else content)
        paths[key] = str(path)
    out = workdir / "out.json"
    return ["--output", str(out)] + [a.format(**paths) for a in argv], out


def run_case(argv, files, workdir: Path):
    """(exit code, JSON bytes); empty bytes when the call wrote no JSON."""
    args, out = case_argv(argv, files, workdir)
    out.unlink(missing_ok=True)
    code = main(args)
    return code, out.read_bytes() if out.exists() else b""


ROUTE_SEED = 20240824  # the pool of acceptance criteria 3-5
ORACLE_CASES = (4, 9)
ORACLE_SAMPLES = 200


def route_pool():
    """The 200 (A, B) integer pairs of acceptance criterion 3, in its draw order."""
    rnd = random.Random(ROUTE_SEED)
    out = []
    while len(out) < 200:
        n = rnd.randint(1, 4)
        r = rnd.randint(1, 4)
        A = [[rnd.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        B = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        if any(v for row in A for v in row):
            out.append((A, B))
    return out


def route_pool_outputs(workdir: Path):
    """{case: [exit code, sha256 of the JSON bytes]} over the route pool."""
    pool = route_pool()
    out = {}
    for i, (A, B) in enumerate(pool):
        T = Subspace(C=RationalMatrix(A)).nonzero_sign_vectors()
        files = {"A": _m(A), "B": _m(B), "T": "".join(f"{t}\n" for t in T)}
        for kind, flag in (("image", ["--S-image", "{A}"]), ("signs", ["--S-signs", "{T}"])):
            code, data = run_case(["injectivity", "--A", "{A}", "--B", "{B}"] + flag, files, workdir)
            out[f"route/{i}/{kind}"] = [code, hashlib.sha256(data).hexdigest()]
    for i in ORACLE_CASES:
        A, B = RationalMatrix(pool[i][0]), RationalMatrix(pool[i][1])
        rep = sampled_injectivity_search(A, B, S=Subspace(C=A), samples=ORACLE_SAMPLES,
                                         seed=ROUTE_SEED + i)
        out[f"oracle/{i}"] = [3 if rep.violations else 0, hashlib.sha256(report_bytes(rep)).hexdigest()]
    return out


def report_bytes(rep):
    """A SearchReport as JSON bytes, every rational as its string."""
    payload = {
        "samples": rep.samples,
        "seed": rep.seed,
        "candidates": rep.candidates,
        "violations": [[[str(v) for v in part] for part in violation]
                       for violation in rep.violations],
    }
    return (json.dumps(payload) + "\n").encode()


def _orthants(*texts):
    return OrthantUnion(tuple(SignVector.parse(t) for t in texts))


def oracle_cases():
    """(name, A, B, S): the sampling oracle's branches that the route pool leaves out.

    S is an OrthantUnion in the ``orthant/*`` cases, and B is non-integral in
    the ``fractional/*`` cases, which take a kernel vector w of A with the
    sample's exact sign pattern, kappa_j = w_j / (x^b_j - y^b_j) at 256 bits,
    and the interval residual check, which every candidate passes. In the
    ``/rounded`` cases no positive multiple of a colliding kappa is rational;
    in the others (A = (4, -3), with equal rows of B) one is. The search
    rounds kappa in both."""
    pool = route_pool()
    half = [[Fraction(1, 2)], [Fraction(1, 2)]]
    cases = []
    for i in ORACLE_CASES:
        A, B = RationalMatrix(pool[i][0]), RationalMatrix(pool[i][1])
        cases.append((f"orthant/{i}", A, B, OrthantUnion(Subspace(C=A).nonzero_sign_vectors())))
    cases += [
        ("orthant/quadratic", RationalMatrix([[1, -1]]), RationalMatrix([[2], [1]]), _orthants("+", "-")),
        ("fractional/full", RationalMatrix([[4, -3]]), RationalMatrix(half), FullSpace()),
        ("fractional/full/rounded", RationalMatrix([[1, -1]]),
         RationalMatrix([[Fraction(1, 2)], [1]]), FullSpace()),
        ("fractional/subspace", RationalMatrix([[4, -3]]),
         RationalMatrix([row + [1] for row in half]), Subspace(C=RationalMatrix([[1], [-1]]))),
        ("fractional/subspace/rounded", RationalMatrix([[1, -1, 0], [0, 1, -1]]),
         RationalMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]]),
         Subspace(C=RationalMatrix([[1], [1]]))),
        ("fractional/orthant", RationalMatrix([[4, -3]]),
         RationalMatrix([row + [Fraction(3, 2)] for row in half]), _orthants("+-", "-+", "++")),
        ("fractional/orthant/rounded", RationalMatrix([[1, -1]]),
         RationalMatrix([[Fraction(3, 2)], [Fraction(1, 2)]]), _orthants("+", "-")),
    ]
    return cases


def oracle_outputs():
    """{case: [candidates, violations, sha256 of the report bytes]} at 200 samples."""
    out = {}
    for k, (name, A, B, S) in enumerate(oracle_cases()):
        rep = sampled_injectivity_search(A, B, S=S, samples=ORACLE_SAMPLES, seed=ROUTE_SEED + k)
        out[name] = [rep.candidates, len(rep.violations), hashlib.sha256(report_bytes(rep)).hexdigest()]
    return out


def _draw(family, seed, n, r):
    """The first rank-n integer n x r matrix with no zero column from
    Random(f"{family}-{seed}"), as the benchmark's workloads draw them."""
    rnd = random.Random(f"{family}-{seed}")
    while True:
        A = [[rnd.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        if rank(RationalMatrix(A)) == n and all(any(row[j] for row in A) for j in range(r)):
            return A


def matroid_configurations():
    """(name, rows): the sign_search configurations, then 30 fractional ones."""
    configs = [("covectors/1", _draw("covectors", 1, 4, 9)),
               ("cocircuits/1", _draw("cocircuits", 1, 4, 10)),
               ("cocircuits/2", _draw("cocircuits", 2, 5, 10))]
    rnd = random.Random(ROUTE_SEED)
    for i in range(30):
        n = rnd.randint(1, 4)
        r = rnd.randint(n, 7)
        A = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 7)) for _ in range(r)] for _ in range(n)]
        if i % 10 == 9 and n > 1:  # rank-deficient: the last row is twice the first
            A[-1] = [2 * e for e in A[0]]
        configs.append((f"fractional/{i}", A))
    return configs


# (seed, n, r) of the benchmark's sign_search instances
NONINJECTIVE = ((2, 3, 5), (6, 3, 5), (1, 3, 6), (3, 4, 5), (1, 4, 6))
BIRCH = ((2, 3, 4), (3, 2, 4))


def sign_search_cases():
    """(name, argv, files) of the sign_search workload's injectivity calls,
    drawn as the benchmark draws them."""
    cases = []
    for seed, n, r in NONINJECTIVE:
        A = _draw("noninjective-A", seed, n, r)
        rnd = random.Random(f"noninjective-B-{seed}")
        B = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        cases.append((f"noninjective/{n}x{r}-{seed}",
                      ["injectivity", "--A", "{A}", "--B", "{B}", "--S-image", "{A}"],
                      {"A": _m(A), "B": _m(B)}))
    for seed, n, r in BIRCH:
        A = _draw("birch", seed, n, r)
        orthants = ("".join(s) for s in itertools.product("-0+", repeat=n))
        cases.append((f"birch/{seed}",
                      ["injectivity", "--A", "{A}", "--B", "{B}", "--S-signs", "{T}"],
                      {"A": _m(A), "B": _m([list(col) for col in zip(*A)]),
                       "T": "".join(f"{t}\n" for t in orthants if set(t) != {"0"})}))
    return cases


def sign_search_outputs(workdir: Path):
    """{case: [exit code, sha256 of the JSON bytes]}."""
    out = {}
    for name, argv, files in sign_search_cases():
        code, data = run_case(argv, files, workdir)
        out[name] = [code, hashlib.sha256(data).hexdigest()]
    return out


def full_space_cases():
    """(name, files) of 40 seeded ``--full-space`` instances with integer A and
    fractional B of full column rank, so that every one that is not injective
    takes its counterexample from ``_check_full_space``: its pair LP's witness,
    which differs from the first LP's in many of them."""
    rnd = random.Random(f"full-space-{ROUTE_SEED}")
    cases = []
    while len(cases) < 40:
        n = rnd.randint(1, 3)
        r = rnd.randint(n, 4)
        m = rnd.randint(1, 3)
        A = [[rnd.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        B = [[Fraction(rnd.randint(-4, 4), rnd.randint(1, 4)) for _ in range(n)] for _ in range(r)]
        if rank(RationalMatrix(B)) == n and any(v for row in A for v in row):
            cases.append((f"full/{len(cases)}/{m}x{r}x{n}", {"A": _m(A), "B": _m(B)}))
    return cases


def full_space_outputs(workdir: Path):
    """{case: [exit code, sha256 of the JSON bytes]}."""
    out = {}
    for name, files in full_space_cases():
        code, data = run_case(["injectivity", "--A", "{A}", "--B", "{B}", "--full-space"], files, workdir)
        out[name] = [code, hashlib.sha256(data).hexdigest()]
    return out


def matroid_outputs(workdir: Path):
    """{command/config: [exit code, sha256 of the JSON bytes]}."""
    out = {}
    for name, A in matroid_configurations():
        for command in ("covectors", "cocircuits", "chirotope"):
            code, data = run_case([command, "--A", "{A}"], {"A": _m(A)}, workdir)
            out[f"{command}/{name}"] = [code, hashlib.sha256(data).hexdigest()]
    return out


@pytest.mark.parametrize("name, argv, files, expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, files, expected_code, tmp_path, capsys):
    code, data = run_case(argv, files, tmp_path)
    capsys.readouterr()
    assert code == expected_code
    assert data == (GOLDEN / f"{name}.json").read_bytes()
    jsonschema.validate(json.loads(data), SCHEMA)


def test_goldens_cover_every_command():
    """The full-bytes goldens, each schema-checked above, cover every command the schema names."""
    commands = {build_parser().parse_args(argv).command for _, argv, _, _ in CASES}
    assert commands == set(SCHEMA["properties"]["command"]["enum"])


@pytest.mark.parametrize("name", ["inj_image_minors_fail", "crn_preclude_edelstein", "minors_dual"])
def test_golden_output_under_optimize(name, tmp_path):
    """The always-on checks are not asserts: python -O gives the same bytes."""
    _, argv, files, expected_code = next(case for case in CASES if case[0] == name)
    args, out = case_argv(argv, files, tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-m", "signject.cli"] + args,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == expected_code, proc.stderr
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# maximal_minors tables check_minors builds on the dual futile cycle at s = 6:
# det(R_J) (144 of the 924 J nonzero), det(C_I) (39 of the 84 I nonzero), and
# one table of det(B_{J,I}) for each of those 39 I. Without the skip of the 45
# I with det(C_I) = 0 there would be 86 tables. The per-pair scan
# (``per_pair_products``) takes 6,624 integer determinants here.
DUAL_MINORS_TABLES = 41
# the Laplace terms those tables expand (``laplace_terms``)
DUAL_MINORS_LAPLACE_TERMS = 1599


def laplace_terms(rows, _minors=ratmat.maximal_minors):
    """The terms maximal_minors sums on a list of integer rows: with U their
    ``integer_rref`` form, for each t one per nonzero minor of rows t+1..
    of U and nonzero entry of row t outside its columns; none if the rows
    are dependent."""
    U, _, Q, _ = ratmat.integer_rref(rows)
    if len(Q) < len(rows):
        return 0
    return sum(sum(1 for j, a in enumerate(row) if a and j not in K)
               for t, row in enumerate(U) for K in _minors(U[t + 1:]))


# the count and sha256 of the space-joined shared sign vectors of ker V_3 and
# im N on the dual futile cycle, as the two-closure intersection gave them
DUAL_V3_SHARED = (228, "81d465bdf3d64a7b12e44ba5704dee9a0ed077cb74ae20e982f3befb905b3ff6")


def test_dual_special_intersections():
    """The whole intersections behind the two dual `crn special` goldens, whose
    bytes show only the first shared vector."""
    N, V = stoichiometry(parse_network(DUAL))
    C = Subspace(C=N).image_presentation()
    assert common_sign_vectors(N.transpose(), C) == ()
    shared = common_sign_vectors(RationalMatrix(V.entries[:3]), C)
    assert (len(shared), hashlib.sha256(" ".join(map(str, shared)).encode()).hexdigest()) == DUAL_V3_SHARED


def test_dual_minors_table_count(monkeypatch):
    """A lost zero-factor skip shows as a count, on any machine."""
    tables = []

    def counting(rows, _minors=ratmat.maximal_minors):
        tables.append([list(row) for row in rows])
        return _minors(rows)

    monkeypatch.setattr(engine, "maximal_minors", counting)
    Atilde, _, V, _ = subspace_route_inputs(DUAL)
    holds, _ = engine.check_minors(Atilde, V, 6)
    assert not holds
    assert len(tables) == DUAL_MINORS_TABLES
    assert sum(map(laplace_terms, tables)) == DUAL_MINORS_LAPLACE_TERMS


@pytest.mark.parametrize("k, r", [(20, 20), (20, 21), (20, 22), (2, 22)])
def test_near_square_tables_stay_small(k, r):
    """A dense k x r table, k close to r (C^T and Z of a 22 x 20 Gale pair,
    the full-space scan's tables): every minor is the per-subset
    ``integer_det``, and the expansion sums at most k r C(r, k) terms, in
    milliseconds. An expansion of the first rows of M itself would pass
    through C(r, r/2) column sets, for tens of seconds."""
    rnd = random.Random(k * r)
    rows = [[rnd.randint(-5, 5) for _ in range(r)] for _ in range(k)]
    start = time.process_time()
    got = ratmat.maximal_minors(rows)
    assert time.process_time() - start < 2
    minors = {J: m for J in itertools.combinations(range(r), k)
              if (m := ratmat.integer_det([[row[j] for j in J] for row in rows]))}
    assert minors and got == minors
    assert laplace_terms(rows) <= k * r * comb(r, k)


def per_pair_products(Atilde, B, s):
    """``engine._paired_products`` for rank Atilde = s, pair by pair: one
    ``integer_det`` per Cauchy-Binet factor and one per pair with two nonzero
    factors."""
    n, r = Atilde.rows, Atilde.cols
    a_rows, a_scales = ratmat.integer_rows(Atilde)
    _, P, Q, d = ratmat.integer_rref(a_rows)
    assert len(Q) == s
    b_rows, b_scales = ratmat.integer_rows(B)
    sign_d = 1 if d > 0 else -1
    r_minors = [(J, sign_d * m, prod(b_scales[j] for j in J)) for J in itertools.combinations(range(r), s)
                if (m := ratmat.integer_det([[a_rows[p][j] for j in J] for p in P]))]
    for I in itertools.combinations(range(n), s):
        c = ratmat.integer_det([[a_rows[i][q] for q in Q] for i in I])
        if c == 0:
            continue
        den = abs(d) * prod(a_scales[i] for i in I)
        for J, m, b_scale in r_minors:
            b = ratmat.integer_det([[b_rows[j][i] for i in I] for j in J])
            if b:
                yield I, J, c * m * b, den * b_scale


def per_pair_det_poly(Aprime, B, Z):
    """``engine.gamma_det_poly``'s terms, pair by pair: one ``det`` per J and
    per I^c, and one ``integer_det`` per (I, J)."""
    s, r, n = Aprime.rows, Aprime.cols, B.cols
    b_rows, b_scales = ratmat.integer_rows(B)
    a_minors = [(J, m) for J in itertools.combinations(range(r), s)
                if (m := ratmat.det(Aprime.submatrix(range(s), J))) != 0]
    terms = {}
    for I in itertools.combinations(range(n), s):
        Ic = [i for i in range(n) if i not in I]
        z_minor = Fraction(1) if Z is None else ratmat.det(Z.submatrix(range(n - s), Ic))
        if z_minor == 0:
            continue
        for J, a_minor in a_minors:
            b = ratmat.integer_det([[b_rows[j][i] for i in I] for j in J])
            if b:
                terms[(I, J)] = ratmat.permutation_sign_tau(I, n) * z_minor * a_minor * \
                    Fraction(b, prod(b_scales[j] for j in J))
    return terms


def dense_route_inputs(seed, n=7, s=6, r=12):
    """(Atilde = C A', A', B, Z) with every entry a/1 or a/2, a in -3..3: A'
    is s x r, C is n x s, B is r x n, Z is a Gale dual of C; A' and C have
    rank s."""
    rnd = random.Random(seed)
    Aprime, C, B = (RationalMatrix([[Fraction(rnd.randint(-3, 3), rnd.choice((1, 1, 2))) for _ in range(cols)]
                                    for _ in range(rows)]) for rows, cols in ((s, r), (n, s), (r, n)))
    assert rank(Aprime) == rank(C) == s
    return C @ Aprime, Aprime, B, ratmat.gale_dual(C)


@pytest.mark.parametrize("name", ["dual", "twosite", "dense"])
def test_minor_tables_match_the_per_pair_scan(name):
    """Every product of the minors route and every term of the det polynomial,
    in order, is the one the per-pair determinants give."""
    Atilde, Aprime, V, Z = {"dual": lambda: subspace_route_inputs(DUAL),
                            "twosite": lambda: subspace_route_inputs(TWOSITE),
                            "dense": lambda: dense_route_inputs(0)}[name]()
    s = Aprime.rows
    products = list(engine._paired_products(Atilde, V, s))
    assert products and products == list(per_pair_products(Atilde, V, s))
    terms = engine.gamma_det_poly(Aprime, V, Z).terms
    assert terms and list(terms.items()) == list(per_pair_det_poly(Aprime, V, Z).items())


def test_route_pool_golden(tmp_path, capsys):
    got = route_pool_outputs(tmp_path)
    capsys.readouterr()
    expected = json.loads((GOLDEN / "route_pool.json").read_text())
    assert list(got) == list(expected)
    differing = [key for key in expected if got[key] != expected[key]]
    assert not differing, f"{len(differing)} route-pool outputs differ, first {differing[:5]}"


def test_oracle_golden():
    expected = json.loads((GOLDEN / "oracle.json").read_text())
    assert oracle_outputs() == expected


def test_matroid_golden(tmp_path, capsys):
    got = matroid_outputs(tmp_path)
    capsys.readouterr()
    expected = json.loads((GOLDEN / "matroid.json").read_text())
    assert list(got) == list(expected)
    differing = [key for key in expected if got[key] != expected[key]]
    assert not differing, f"{len(differing)} matroid outputs differ, first {differing[:5]}"


def test_sign_search_golden(tmp_path, capsys):
    got = sign_search_outputs(tmp_path)
    capsys.readouterr()
    assert got == json.loads((GOLDEN / "sign_search.json").read_text())


def test_full_space_golden(tmp_path, capsys):
    got = full_space_outputs(tmp_path)
    capsys.readouterr()
    expected = json.loads((GOLDEN / "full_space.json").read_text())
    assert sum(code == 3 for code, _ in expected.values()) >= 10
    assert got == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name, argv, files, expected_code in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, data = run_case(argv, files, Path(tmp))
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{name}.json").write_bytes(data)
    with tempfile.TemporaryDirectory() as tmp:
        outputs = route_pool_outputs(Path(tmp))
    (GOLDEN / "route_pool.json").write_text(json.dumps(outputs, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        outputs = matroid_outputs(Path(tmp))
    (GOLDEN / "matroid.json").write_text(json.dumps(outputs, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        outputs = sign_search_outputs(Path(tmp))
    (GOLDEN / "sign_search.json").write_text(json.dumps(outputs, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        outputs = full_space_outputs(Path(tmp))
    (GOLDEN / "full_space.json").write_text(json.dumps(outputs, indent=1) + "\n")
    (GOLDEN / "oracle.json").write_text(json.dumps(oracle_outputs(), indent=1) + "\n")
