"""The benchmark's four workloads: their inputs, operations and output checks.

Every instance set is fixed by the seeds in this file, so each run measures
the same work. The ``--seed`` of a run only sets the order of the operations
inside each round (see ``run.py``). Matrices are drawn as integer lists here
and written in signject's JSON format; nothing in this module calls signject
except through the operations themselves and through
``Subspace.nonzero_sign_vectors``, which builds the orthant lists of the
route pool as acceptance criterion 3 does.
"""
from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import product

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
NETWORKS = os.path.join(HERE, "networks")

ROUTE_SEED = 20240824  # the pool of acceptance criteria 3-5
ORACLE_SAMPLES = 1000

# sign_search: (seed, n, r) of each instance; see draw()
NONINJECTIVE = ((2, 3, 5), (6, 3, 5), (1, 3, 6), (3, 4, 5), (1, 4, 6))
BIRCH = ((2, 3, 4), (3, 2, 4))
COVECTORS = ((1, 4, 9),)
COCIRCUITS = ((1, 4, 10), (2, 5, 10))

# crn_minors
PRECLUDE = (
    ("futile", True),
    ("twosite", True),
    ("edelstein", False),
    ("schlogl", False),
    ("interconversion", True),
    ("inflow_outflow", True),
    ("autocatalytic", False),
)
# (network, M): "NT" is N^T, for which at most one special steady state is a
# theorem; "V3" (the kinetic orders of the first three reactions) and the
# explicit M admit two, with a witness.
SPECIAL = (
    ("futile", "NT"),
    ("twosite", "NT"),
    ("futile", "V3"),
    ("twosite", "V3"),
    ("pair", [[1, -1]]),
)
DESCARTES = ((1, 3, 8), (2, 4, 9))  # (seed, n, r) of A; B = A^T

# oracle_sampling: indices into the route pool; the oracle seed is ROUTE_SEED + index
ORACLE_POOL = (1, 15, 25, 27, 4, 9, 30, 34)


# -- drawing instances --------------------------------------------------------


def _rank(M):
    rows = [[Fraction(v) for v in row] for row in M]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _matrix(rnd, rows, cols, lo=-3, hi=3):
    return [[rnd.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def draw(family, seed, n, r, adjust=lambda A: A):
    """First n x r integer matrix from Random(f"{family}-{seed}"), passed through
    adjust, with rank n and no zero column."""
    rnd = random.Random(f"{family}-{seed}")
    while True:
        A = adjust(_matrix(rnd, n, r))
        if _rank(A) == n and all(any(row[j] for row in A) for j in range(r)):
            return A


def route_pool():
    """The 200 (A, B) pairs of acceptance criterion 3, in its draw order."""
    rnd = random.Random(ROUTE_SEED)
    out = []
    while len(out) < 200:
        n = rnd.randint(1, 4)
        r = rnd.randint(1, 4)
        A = _matrix(rnd, n, r)
        B = _matrix(rnd, r, n)
        if any(v for row in A for v in row):
            out.append((A, B))
    return out


def transpose(M):
    return [list(col) for col in zip(*M)]


def fractions(M):
    return [[Fraction(v) for v in row] for row in M]


def parse_network(text):
    """(species, N, V) of the reaction DSL, species in order of first appearance."""
    species, reactions = [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sides = line.split(":", 1)[1].split("->")
        complexes = []
        for side in sides:
            terms = {}
            for term in side.split("+"):
                parts = term.split()
                if parts == ["0"]:
                    continue
                coeff, name = (Fraction(parts[0]), parts[1]) if len(parts) == 2 else (Fraction(1), parts[0])
                terms[name] = terms.get(name, 0) + coeff
                if name not in species:
                    species.append(name)
            complexes.append(terms)
        reactions.append(complexes)
    n = len(species)
    N = [[Fraction(0)] * len(reactions) for _ in range(n)]
    V = [[Fraction(0)] * n for _ in reactions]
    for j, (reactant, product_) in enumerate(reactions):
        for name, c in reactant.items():
            N[species.index(name)][j] -= c
            V[j][species.index(name)] = c
        for name, c in product_.items():
            N[species.index(name)][j] += c
    return species, N, V


# -- operations ---------------------------------------------------------------


class CliOp:
    """One in-process call of signject.cli.main, with its JSON written to a file."""

    module = "signject.cli"

    def __init__(self, key, argv, out_path):
        self.key = key
        self.argv = ["--output", out_path] + argv
        self.out_path = out_path

    def prepare(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def execute(self):
        import signject.cli

        return signject.cli.main(self.argv)

    def collect(self, code):
        if not os.path.exists(self.out_path):  # usage and size-guard errors write no JSON
            return code, None
        with open(self.out_path, "rb") as fh:
            return code, fh.read()


class OracleOp:
    """One sampled_injectivity_search call, as acceptance criterion 5 makes it."""

    module = "signject.oracle"

    def __init__(self, key, A, B, seed):
        from signject.engine import Subspace
        from signject.ratmat import RationalMatrix

        self.key = key
        self.A = RationalMatrix(A)
        self.B = RationalMatrix(B)
        self.S = Subspace(C=self.A)
        self.seed = seed

    def prepare(self):
        pass

    def execute(self):
        import signject.oracle

        return signject.oracle.sampled_injectivity_search(
            self.A, self.B, S=self.S, samples=ORACLE_SAMPLES, seed=self.seed)

    def collect(self, report):
        payload = {
            "samples": report.samples,
            "seed": report.seed,
            "candidates": report.candidates,
            "violations": [[[str(v) for v in part] for part in violation] for violation in report.violations],
        }
        return (3 if report.violations else 0), (json.dumps(payload) + "\n").encode()


class Workload:
    def __init__(self, name, ops, verify):
        self.name = name
        self.ops = ops
        self._verify = verify

    def verify(self, results):
        """Errors found in results, a map from op key to (exit code, output bytes).

        Operations that failed have no entry; they are counted as failed,
        not checked.
        """
        return self._verify({key: (code, json.loads(data)) for key, (code, data) in results.items()})


def _write_matrix(workdir, name, M):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump({"rows": len(M), "cols": len(M[0]),
                   "entries": [[str(v) for v in row] for row in M]}, fh)
    return path


def _out(workdir, key):
    return os.path.join(workdir, "out-" + key.replace("/", "_") + ".json")


def _nonzero_orthants(n):
    return ["".join(s) for s in product("-0+", repeat=n) if set(s) != {"0"}]


def _verdict_errors(key, code, payload, field):
    errors = []
    holds = payload.get(field)
    if not isinstance(holds, bool):
        return [f"{key}: no boolean {field!r}"]
    if code != (0 if holds else 3):
        errors.append(f"{key}: exit code {code} disagrees with {field}={holds}")
    return errors


# -- route_pool ---------------------------------------------------------------


def build_route_pool(workdir):
    from signject.engine import Subspace
    from signject.ratmat import RationalMatrix

    pool = route_pool()
    ops = []
    orthants = []
    for i, (A, B) in enumerate(pool):
        a = _write_matrix(workdir, f"route{i}_A.json", A)
        b = _write_matrix(workdir, f"route{i}_B.json", B)
        T = [str(t) for t in Subspace(C=RationalMatrix(A)).nonzero_sign_vectors()]
        orthants.append(T)
        t = os.path.join(workdir, f"route{i}_T.txt")
        with open(t, "w") as fh:
            fh.write("".join(line + "\n" for line in T))
        ops.append(CliOp(f"route/{i}/image", ["injectivity", "--A", a, "--B", b, "--S-image", a],
                         _out(workdir, f"route/{i}/image")))
        ops.append(CliOp(f"route/{i}/signs", ["injectivity", "--A", a, "--B", b, "--S-signs", t],
                         _out(workdir, f"route/{i}/signs")))

    def verify(results):
        errors = []
        for i, (A, B) in enumerate(pool):
            A, B = fractions(A), fractions(B)
            expected = checks.paired_minor_condition(A, B, A)
            if set(orthants[i]) != checks.subspace_sign_vectors(A):
                errors.append(f"route/{i}: the orthant list is not sigma(S) minus 0")
            for kind, in_S in (("image", checks.subspace_membership(A)),
                               ("signs", checks.orthant_membership(orthants[i]))):
                key = f"route/{i}/{kind}"
                if key not in results:
                    continue
                code, out = results[key]
                errors += _verdict_errors(key, code, out, "injective")
                errors += _injectivity_errors(key, A, B, out, expected, in_S)
        return errors

    return Workload("route_pool", ops, verify)


def _injectivity_errors(key, A, B, verdict, expected, in_S):
    """The verdict must match the paired-minor condition; its counterexample must hold."""
    errors = []
    if verdict.get("injective") != expected:
        errors.append(f"{key}: verdict {verdict.get('injective')} but the minor condition gives {expected}")
    return errors + _counterexample_errors(key, A, B, verdict, in_S)


def _counterexample_errors(key, A, B, verdict, in_S):
    cx = verdict.get("counterexample")
    if verdict.get("injective"):
        return [f"{key}: injective verdict carries a counterexample"] if cx else []
    if not cx:
        return [f"{key}: non-injective verdict without a counterexample"]
    return [f"{key}: {e}" for e in checks.witness_errors(A, B, cx["kappa"], cx["x"], cx["y"], in_S)]


# -- sign_search --------------------------------------------------------------


def build_sign_search(workdir):
    ops = []
    cases = {}
    for seed, n, r in NONINJECTIVE:
        key = f"noninjective/{n}x{r}-{seed}"
        A = draw("noninjective-A", seed, n, r)
        B = _matrix(random.Random(f"noninjective-B-{seed}"), r, n)
        a = _write_matrix(workdir, f"noninj{n}x{r}-{seed}_A.json", A)
        b = _write_matrix(workdir, f"noninj{n}x{r}-{seed}_B.json", B)
        ops.append(CliOp(key, ["injectivity", "--A", a, "--B", b, "--S-image", a], _out(workdir, key)))
        cases[key] = ("noninjective", A, B)
    for seed, n, r in BIRCH:
        key = f"birch/{seed}"
        A = draw("birch", seed, n, r)
        a = _write_matrix(workdir, f"birch{seed}_A.json", A)
        b = _write_matrix(workdir, f"birch{seed}_B.json", transpose(A))
        t = os.path.join(workdir, f"birch{seed}_T.txt")
        with open(t, "w") as fh:
            fh.writelines(t + "\n" for t in _nonzero_orthants(n))
        ops.append(CliOp(key, ["injectivity", "--A", a, "--B", b, "--S-signs", t], _out(workdir, key)))
        cases[key] = ("birch", A, transpose(A))
    for command, family in (("covectors", COVECTORS), ("cocircuits", COCIRCUITS)):
        for seed, n, r in family:
            key = f"{command}/{seed}"
            A = draw(command, seed, n, r)
            a = _write_matrix(workdir, f"{command}{seed}_A.json", A)
            ops.append(CliOp(key, [command, "--A", a], _out(workdir, key)))
            cases[key] = (command, A, None)

    def verify(results):
        errors = []
        for key, (kind, A, B) in cases.items():
            if key not in results:
                continue
            code, out = results[key]
            A = fractions(A)
            if kind in ("covectors", "cocircuits"):
                if code != 0:
                    errors.append(f"{key}: exit code {code}")
                check = checks.covector_errors if kind == "covectors" else checks.cocircuit_errors
                errors += [f"{key}: {e}" for e in check(A, out.get(kind, []))]
                continue
            B = fractions(B)
            errors += _verdict_errors(key, code, out, "injective")
            if kind == "noninjective":
                errors += _injectivity_errors(key, A, B, out, checks.paired_minor_condition(A, B, A),
                                              checks.subspace_membership(A))
            else:
                if out.get("injective") is not True:
                    errors.append(f"{key}: a Birch instance (B = A^T, A of full row rank) came out non-injective")
                cert = out.get("certificate") or {}
                tau = cert.get("tau_candidates", [])
                if sorted(tau) != sorted(_nonzero_orthants(len(A))):
                    errors.append(f"{key}: the certificate does not cover every nonzero orthant")
                if cert.get("pairs_tested") != len(cert.get("mu_candidates", [])) * len(tau):
                    errors.append(f"{key}: the certificate did not test every (mu, tau) pair")
        return errors

    return Workload("sign_search", ops, verify)


# -- crn_minors ---------------------------------------------------------------


def build_crn_minors(workdir):
    ops = []
    nets = {}
    for name in {n for n, _ in PRECLUDE} | {n for n, _ in SPECIAL}:
        path = os.path.join(NETWORKS, f"{name}.txt")
        with open(path) as fh:
            nets[name] = (path, parse_network(fh.read()))
    for name, _ in PRECLUDE:
        key = f"preclude/{name}"
        ops.append(CliOp(key, ["crn", "preclude", nets[name][0]], _out(workdir, key)))
    specials = {}
    for i, (name, M) in enumerate(SPECIAL):
        _, N, V = nets[name][1]
        if M == "NT":
            M = transpose(N)
        elif M == "V3":
            M = V[:3]
        key = f"special/{i}-{name}"
        m = _write_matrix(workdir, f"special{i}_M.json", M)
        ops.append(CliOp(key, ["crn", "special", nets[name][0], "--M", m], _out(workdir, key)))
        specials[key] = (name, fractions(M))
    descartes = {}
    for seed, n, r in DESCARTES:
        # every column has a positive first entry, so e_1 is a half-space witness
        halfspace = draw("descartes-halfspace", seed, n, r, lambda A: [[abs(v) + 1 for v in A[0]]] + A[1:])
        # the columns sum to 0, so (1, ..., 1) in ker A rules out a half-space
        kernel = draw("descartes-kernel", seed, n, r, lambda A: [row[:-1] + [-sum(row[:-1])] for row in A])
        for variant, A in (("halfspace", halfspace), ("kernel", kernel)):
            a = _write_matrix(workdir, f"descartes{seed}{variant}_A.json", A)
            b = _write_matrix(workdir, f"descartes{seed}{variant}_B.json", transpose(A))
            for command in ("bnd", "ex"):
                key = f"descartes-{command}/{seed}-{variant}"
                ops.append(CliOp(key, ["descartes", command, "--A", a, "--B", b], _out(workdir, key)))
                descartes[key] = (command, variant, fractions(A))

    def verify(results):
        errors = []
        for name, precluded in PRECLUDE:
            key = f"preclude/{name}"
            if key not in results:
                continue
            code, out = results[key]
            _, N, V = nets[name][1]
            errors += _verdict_errors(key, code, out, "precluded")
            expected = checks.paired_minor_condition(N, V, N)
            if out.get("precluded") != expected or expected != precluded:
                errors.append(f"{key}: precluded={out.get('precluded')}, the minor condition gives {expected}, "
                              f"the network is known to be {'not ' * (not precluded)}precluded")
            errors += _counterexample_errors(key, N, V, out.get("injectivity", {}), checks.subspace_membership(N))
            pair = out.get("steady_state_pair")
            if precluded and pair is not None:
                errors.append(f"{key}: a precluded network carries a steady-state pair")
            if not precluded:
                if pair is None:
                    errors.append(f"{key}: no steady-state pair for a network with two positive steady states")
                else:
                    errors += [f"{key}: {e}" for e in _steady_state_errors(N, V, pair)]
        for key, (name, M) in specials.items():
            if key not in results:
                continue
            code, out = results[key]
            _, N, _ = nets[name][1]
            errors += _verdict_errors(key, code, out, "unique")
            if out.get("unique") != (M == transpose(N)):
                errors.append(f"{key}: unique={out.get('unique')}, expected {M == transpose(N)}")
            errors += [f"{key}: {e}" for e in _special_errors(M, N, out)]
        for key, (command, variant, A) in descartes.items():
            if key not in results:
                continue
            code, out = results[key]
            B = transpose(A)
            field = "bnd_holds" if command == "bnd" else "ex_holds"
            errors += _verdict_errors(key, code, out, field)
            if out.get("bnd_holds") is not True:
                errors.append(f"{key}: (bnd) fails on B = A^T, where every product is a square")
            if command == "bnd":
                ledger = out.get("ledger", {})
                if ledger.get("common_sign") != 1 or ledger.get("conflicting_J") is not None:
                    errors.append(f"{key}: the ledger of B = A^T must show sign +1 and no conflict")
                continue
            if out.get("matroid_equal") is not True:
                errors.append(f"{key}: A and B^T = A must define the same oriented matroid")
            witness = out.get("halfspace_witness")
            if witness is not None:
                t = [Fraction(v) for v in witness]
                if any(sum((ti * bi for ti, bi in zip(t, row)), Fraction(0)) <= 0 for row in B):
                    errors.append(f"{key}: the half-space witness does not satisfy t . b_j > 0 for every row")
            if (witness is not None) != (variant == "halfspace") or out.get("ex_holds") != (variant == "halfspace"):
                errors.append(f"{key}: the rows of B {'lie' if variant == 'halfspace' else 'do not lie'} "
                              "in an open half-space, but the report says otherwise")
        return errors

    return Workload("crn_minors", ops, verify)


def _monomial(point, exponents):
    value = Fraction(1)
    for x, e in zip(point, exponents):
        value *= x ** int(e)
    return value


def _steady_state_errors(N, V, pair):
    kappa = [Fraction(v) for v in pair["kappa"]]
    x = [Fraction(v) for v in pair["x"]]
    y = [Fraction(v) for v in pair["y"]]
    errors = []
    if any(v <= 0 for v in kappa + x + y):
        errors.append("steady-state pair is not positive")
    if x == y:
        errors.append("steady-state pair has x = y")
    for point in (x, y):
        rates = [k * _monomial(point, row) for k, row in zip(kappa, V)]
        if any(sum((a * q for a, q in zip(row, rates)), Fraction(0)) != 0 for row in N):
            errors.append("N diag(kappa) x^V is not 0 at a point of the pair")
    if not checks.in_image_exact(checks.left_kernel(N), [a - b for a, b in zip(x, y)]):
        errors.append("x - y is not in im(N)")
    return errors


def _special_errors(M, N, out):
    errors = []
    w = out.get("witness")
    if out.get("unique"):
        return ["a unique verdict carries a witness"] if w is not None else []
    if w is None:
        return ["a non-unique verdict without a witness"]
    v = [Fraction(a) for a in w["v"]]
    z = [Fraction(a) for a in w["z"]]
    if any(sum((m * a for m, a in zip(row, v)), Fraction(0)) != 0 for row in M):
        errors.append("M v != 0")
    if not checks.in_image_exact(checks.left_kernel(N), z) or not any(z):
        errors.append("z is not a nonzero vector of S")
    if not (checks.sign_string(v) == checks.sign_string(z) == w["rho"]):
        errors.append("sigma(v), sigma(z) and rho differ")
    return errors


# -- oracle_sampling ----------------------------------------------------------


def build_oracle_sampling(workdir):
    pool = route_pool()
    ops = [OracleOp(f"oracle/{i}", pool[i][0], pool[i][1], ROUTE_SEED + i) for i in ORACLE_POOL]

    def verify(results):
        errors = []
        for i in ORACLE_POOL:
            key = f"oracle/{i}"
            if key not in results:
                continue
            code, out = results[key]
            A, B = fractions(pool[i][0]), fractions(pool[i][1])
            if out["samples"] != ORACLE_SAMPLES or out["seed"] != ROUTE_SEED + i:
                errors.append(f"{key}: report has the wrong sample count or seed")
            if not len(out["violations"]) <= out["candidates"] <= ORACLE_SAMPLES:
                errors.append(f"{key}: candidates {out['candidates']} out of range")
            if checks.paired_minor_condition(A, B, A) and out["violations"]:
                errors.append(f"{key}: violations reported on an injective instance")
            W = checks.left_kernel(A)
            in_S = checks.subspace_membership(A)
            bad = []
            for kappa, x, y in out["violations"]:
                x = [Fraction(v) for v in x]
                y = [Fraction(v) for v in y]
                if not checks.in_image_exact(W, [a - b for a, b in zip(x, y)]):
                    bad.append("x - y lies outside S")
                bad += checks.witness_errors(A, B, kappa, x, y, in_S)
            if bad:
                errors.append(f"{key}: {len(bad)} problems in {len(out['violations'])} violations, "
                              f"the first: {bad[0]}")
        return errors

    return Workload("oracle_sampling", ops, verify)


BUILDERS = {
    "route_pool": build_route_pool,
    "sign_search": build_sign_search,
    "crn_minors": build_crn_minors,
    "oracle_sampling": build_oracle_sampling,
}
