"""Command-line interface.

Every subcommand reads the shared matrix JSON / sign-string / reaction DSL
formats, writes a schema-versioned JSON verdict on stdout (or --output) and a
one-line human summary on stderr. Exit codes: 0 the property holds, 3 it
fails (with certificate or witness in the output), 2 usage or input error,
4 an instance-size guard or a search budget tripped, 5 an internal consistency
check failed.

``build_parser`` decides the command: each leaf subcommand sets its handler
(``func``) and its JSON command name (``command``). A handler reads its inputs
through ``_load``, which names the file in any error (``cannot read ...`` or
``bad <kind> file ...``), runs the decision and returns ``(holds, body,
summary)``; it writes nothing. The body holds the library's values as they
are: result dataclasses, exact ``Fraction``s, ``SignVector``s and tuples.
``main`` alone writes output: the JSON (``schema_version`` and ``command``
ahead of the body, which ``_json_value`` renders), the summary, and exit 0 or
3 from ``holds``; or, for an error, one line on stderr and exit 2, 4 or 5.
``_json_value`` is the one place where a result becomes text.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import lru_cache

from . import crn, descartes
from .engine import (
    DEFAULT_PRECISION_BITS,
    FullSpace,
    OrthantUnion,
    Subspace,
    check_minors,
    check_injectivity,
    det_condition,
    gamma_det_poly,
)
from .errors import InternalError, ParseError, SignjectError, TooLarge
from .feasibility import cone_interior_membership
from .matroid import chirotope, cocircuits, covectors
from .ratmat import RationalMatrix, parse_rational
from .signs import SignVector

SCHEMA_VERSION = "1"

EXIT_HOLDS = 0
EXIT_USAGE = 2
EXIT_FAILS = 3
EXIT_TOO_LARGE = 4
EXIT_INTERNAL = 5

# str() refuses an int of more than 4,300 digits (Python's default
# int_max_str_digits), that is of more than 4,300 * log2(10) = 14,284 bits. A
# rendered kappa_j has the working precision's bits, and 1 / kappa_j's more in
# its denominator when kappa_j < 1; construct_counterexample retries at 4x the
# precision, so 4 * 3,500 = 14,000 bits leaves 284 bits for kappa_j < 1.
MAX_PRECISION_BITS = 3_500


def _load(kind: str, path: str, parse):
    """parse(the text of the file at path). An error names the file: ``cannot
    read <path>`` if it cannot be opened or read, ``bad <kind> file <path>`` if
    its text is not UTF-8 or does not parse."""
    try:
        with open(path) as fh:
            text = fh.read()
        return parse(text)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (SignjectError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {kind} file {path}: {exc}") from exc


def _load_matrix(path: str) -> RationalMatrix:
    return _load("matrix", path, lambda text: RationalMatrix.from_json_dict(json.loads(text)))


def _parse_signs(text: str):
    """The nonzero sign vectors of a sign file, all of one length; an error names its line."""
    vectors = []
    # lines end at "\n" only; str.splitlines would also end them at \v, \f and \x1c-\x1e
    for i, raw in enumerate(text.split("\n"), 1):
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            v = SignVector.parse(ln)
        except ParseError as exc:
            raise ParseError(str(exc), line=i) from exc
        if not any(v):
            raise ParseError(f"sign vectors must be nonzero: {ln!r}", line=i)
        if vectors and len(v) != len(vectors[0]):
            raise ParseError(f"sign vector {ln!r} has length {len(v)}, the first has {len(vectors[0])}", line=i)
        vectors.append(v)
    return tuple(vectors)


def _load_network(args) -> crn.ReactionNetwork:
    net = _load("network", args.netfile, crn.parse_network)
    if not args.kinetic_orders:
        return net
    return _load("kinetic-order", args.kinetic_orders, lambda text: crn.apply_kinetic_orders(net, json.loads(text)))


def _parse_vector(text: str):
    try:
        return tuple(parse_rational(p.strip()) for p in text.split(","))
    except ParseError as exc:
        raise ParseError(f"bad rational vector {text!r}: {exc}") from exc


def _subset_from_args(args):
    if args.full_space:
        return FullSpace()
    if args.S_image:
        return Subspace(C=_load_matrix(args.S_image))
    if args.S_kernel:
        return Subspace(Z=_load_matrix(args.S_kernel))
    return _load("sign", args.S_signs, lambda text: OrthantUnion(_parse_signs(text)))


def _json_value(value):
    """value as JSON data: a dataclass as a dict of its fields in declaration
    order, a Fraction or SignVector as its string, a tuple or list as a list,
    a dict with its values rendered, and any other value as it is."""
    if value is None or isinstance(value, (str, int)):
        return value
    # a SignVector is a tuple: it is matched before tuples are
    if isinstance(value, (Fraction, SignVector)):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    return value


def _polynomial(poly):
    """A SymbolicDetPoly's JSON form: its terms as (I, J, coefficient) records in (I, J) order."""
    return {"s": poly.s,
            "terms": [{"I": I, "J": J, "coefficient": c} for (I, J), c in sorted(poly.terms.items())]}


# -- one handler per leaf command: each returns (holds, body, summary) ---------


def _injectivity(args):
    A = _load_matrix(args.A)
    B = _load_matrix(args.B)
    verdict = check_injectivity(A, B, _subset_from_args(args), args.precision)
    return (verdict.injective, verdict,
            f"injectivity {'HOLDS' if verdict.injective else 'FAILS'} (method: {verdict.method})")


def _minors(args):
    holds, ledger = check_minors(_load_matrix(args.A), _load_matrix(args.B), args.s)
    return (holds, {"holds": holds, "ledger": ledger},
            f"minor sign condition {'HOLDS' if holds else 'FAILS'} at s={args.s}")


def _gamma_det(args):
    Aprime = _load_matrix(args.Aprime)
    B = _load_matrix(args.B)
    poly = gamma_det_poly(Aprime, B, _load_matrix(args.Z) if args.Z else None)
    holds = det_condition(poly)
    return (holds, {"uniform_sign": holds, "polynomial": _polynomial(poly)},
            f"determinant polynomial has {'a uniform coefficient sign' if holds else 'mixed or no signs'}")


def _chirotope(args):
    chi = chirotope(_load_matrix(args.A))
    return (True, {"rank": chi.rank, "ground_size": chi.ground_size,
                   "signs": [{"subset": k, "sign": v} for k, v in sorted(chi.signs.items())]},
            "chirotope enumerated")


def _cocircuits(args):
    return True, {"cocircuits": cocircuits(_load_matrix(args.A))}, "cocircuits enumerated"


def _covectors(args):
    return True, {"covectors": covectors(_load_matrix(args.A))}, "covectors enumerated"


def _descartes_bnd(args):
    holds, ledger = descartes.check_bnd(_load_matrix(args.A), _load_matrix(args.B))
    return (holds, {"bnd_holds": holds, "ledger": ledger},
            f"at-most-one-solution hypothesis {'HOLDS' if holds else 'FAILS'}")


def _descartes_ex(args):
    report = descartes.check_ex(_load_matrix(args.A), _load_matrix(args.B))
    # the fields in declaration order, then the cone query, which ``descartes cone`` answers
    return (report.ex_holds, {**vars(report), "cone_membership": None},
            f"exactly-one-solution hypothesis {'HOLDS' if report.ex_holds else 'FAILS'}")


def _descartes_cone(args):
    A = _load_matrix(args.A)
    inside = cone_interior_membership(A, _parse_vector(args.y)).feasible
    return (inside, {"in_open_cone": inside},
            f"point {'lies' if inside else 'does not lie'} in the open cone")


def _crn_preclude(args):
    verdict = crn.preclude_multistationarity(_load_network(args), args.precision)
    return (verdict.precluded, verdict,
            f"multistationarity {'PRECLUDED' if verdict.precluded else 'NOT precluded'}: {verdict.note}")


def _crn_special(args):
    net = _load_network(args)
    M = _load_matrix(args.M)
    N, _ = crn.stoichiometry(net)
    # one sign-set intersection: the witness is None exactly when sigma(ker M) and
    # sigma(im N) share no nonzero sign vector, so special steady states are unique
    witness = crn.multistationarity_witness(M, Subspace(C=N), args.assume_coset)
    unique = witness is None
    return (unique, {"unique": unique, "witness": witness},
            "at most one special steady state per compatibility class" if unique
            else "multiple special steady states possible (witness attached)")


# the oracle handlers import signject.oracle on call: no other command loads it


def _oracle_sign_set(args):
    from . import oracle

    vectors = oracle.brute_force_sign_set(_load_matrix(args.M), args.mode)
    return True, {"mode": args.mode, "vectors": vectors}, f"{len(vectors)} sign vectors"


def _oracle_gamma(args):
    from . import oracle

    Aprime = _load_matrix(args.Aprime)
    B = _load_matrix(args.B)
    poly = oracle.naive_symbolic_gamma_det(Aprime, B, _load_matrix(args.Z) if args.Z else None)
    return True, {"polynomial": _polynomial(poly)}, "expanded"


def _oracle_sample(args):
    from . import oracle

    A = _load_matrix(args.A)
    B = _load_matrix(args.B)
    report = oracle.sampled_injectivity_search(A, B, samples=args.samples, seed=args.seed,
                                               prec=args.precision)
    violations = [{"kappa": k, "x": x, "y": y} for k, x, y in report.violations]
    return (not report.found_violation,
            {"samples": report.samples, "seed": report.seed, "candidates": report.candidates,
             "violations": violations},
            f"{len(report.violations)} verified violations in {report.samples} samples")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="signject",
        description="exact injectivity, Descartes-rule, and multistationarity decisions",
    )
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS,
                        help="working precision in bits of counterexamples (default "
                             f"{DEFAULT_PRECISION_BITS}; min 64, max {MAX_PRECISION_BITS})")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--seed", type=int, default=0, help="rng seed for sampling oracles")
    parser.add_argument("--output", help="write JSON here instead of stdout")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("injectivity", help="decide injectivity of x -> A diag(kappa) x^B w.r.t. S")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--S-image", dest="S_image")
    g.add_argument("--S-kernel", dest="S_kernel")
    g.add_argument("--S-signs", dest="S_signs")
    g.add_argument("--full-space", dest="full_space", action="store_true")
    p.set_defaults(func=_injectivity, command="injectivity")

    p = sub.add_parser("minors", help="paired-minor sign condition at a given order")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_minors, command="minors")

    p = sub.add_parser("gamma-det", help="symbolic determinant of the bordered matrix")
    p.add_argument("--Aprime", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--Z")
    p.set_defaults(func=_gamma_det, command="gamma-det")

    for name, func in (("chirotope", _chirotope), ("cocircuits", _cocircuits), ("covectors", _covectors)):
        p = sub.add_parser(name, help=f"enumerate the {name} of a configuration")
        p.add_argument("--A", required=True)
        p.set_defaults(func=func, command=name)

    p = sub.add_parser("descartes", help="one-positive-solution hypothesis checks")
    dsub = p.add_subparsers(dest="descartes_cmd", required=True)
    for name, func in (("bnd", _descartes_bnd), ("ex", _descartes_ex)):
        d = dsub.add_parser(name)
        d.add_argument("--A", required=True)
        d.add_argument("--B", required=True)
        d.set_defaults(func=func, command=f"descartes-{name}")
    d = dsub.add_parser("cone")
    d.add_argument("--A", required=True)
    d.add_argument("--y", required=True, help="comma-separated rationals")
    d.set_defaults(func=_descartes_cone, command="descartes-cone")

    p = sub.add_parser("crn", help="reaction-network analysis")
    csub = p.add_subparsers(dest="crn_cmd", required=True)
    c = csub.add_parser("preclude")
    c.add_argument("netfile")
    c.add_argument("--kinetic-orders", dest="kinetic_orders")
    c.set_defaults(func=_crn_preclude, command="crn-preclude")
    c = csub.add_parser("special")
    c.add_argument("netfile")
    c.add_argument("--M", required=True)
    c.add_argument("--assume-coset", dest="assume_coset", action="store_true")
    c.add_argument("--kinetic-orders", dest="kinetic_orders")
    c.set_defaults(func=_crn_special, command="crn-special")

    p = sub.add_parser("oracle", help="brute-force oracles (reproduces derived values)")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    o = osub.add_parser("sign-set")
    o.add_argument("--M", required=True)
    o.add_argument("--mode", choices=("kernel", "image"), required=True)
    o.set_defaults(func=_oracle_sign_set, command="oracle-sign-set")
    o = osub.add_parser("gamma")
    o.add_argument("--Aprime", required=True)
    o.add_argument("--B", required=True)
    o.add_argument("--Z")
    o.set_defaults(func=_oracle_gamma, command="oracle-gamma")
    o = osub.add_parser("sample")
    o.add_argument("--A", required=True)
    o.add_argument("--B", required=True)
    o.add_argument("--samples", type=int, default=1000)
    o.set_defaults(func=_oracle_sample, command="oracle-sample")

    return parser


def main(argv=None) -> int:
    """Parse argv, run the command's handler and write its result: the JSON
    to --output or stdout, the summary to stderr; return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if not 64 <= args.precision <= MAX_PRECISION_BITS:
            raise ParseError(f"precision must be between 64 and {MAX_PRECISION_BITS} bits, got {args.precision}")
        if args.jobs < 1:
            raise ParseError("--jobs must be at least 1")
        holds, body, summary = args.func(args)
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **_json_value(body)}
        text = json.dumps(payload, indent=2) + "\n"
        if args.output:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ParseError(f"cannot write {args.output}: {exc}") from exc
        else:
            sys.stdout.write(text)
        print(summary, file=sys.stderr)
        return EXIT_HOLDS if holds else EXIT_FAILS
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ParseError, SignjectError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
