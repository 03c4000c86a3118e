"""Command-line interface.

Every subcommand reads the shared matrix JSON / sign-string / reaction DSL
formats, writes a schema-versioned JSON verdict on stdout (or --output) and a
one-line human summary on stderr. Exit codes: 0 the property holds, 3 it
fails (with certificate or witness in the output), 2 usage or input error,
4 an instance-size guard or a search budget tripped, 5 an internal consistency
check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
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
from .matroid import chirotope, cocircuits, covectors
from .ratmat import RationalMatrix, parse_rational
from .signs import SignVector

SCHEMA_VERSION = "1"

EXIT_HOLDS = 0
EXIT_USAGE = 2
EXIT_FAILS = 3
EXIT_TOO_LARGE = 4
EXIT_INTERNAL = 5


def _load_matrix(path: str) -> RationalMatrix:
    try:
        with open(path) as fh:
            data = json.load(fh)
        return RationalMatrix.from_json_dict(data)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix file {path}: {exc}") from exc


def _load_signs(path: str):
    try:
        with open(path) as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln and not ln.startswith("#")]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return tuple(SignVector.parse(ln) for ln in lines)


def _parse_vector(text: str):
    try:
        return tuple(parse_rational(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad rational vector {text!r}") from exc


def _emit(payload: dict, args, summary: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
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


def _subset_from_args(args, n: int):
    if args.full_space:
        return FullSpace()
    if args.S_image:
        return Subspace(C=_load_matrix(args.S_image))
    if args.S_kernel:
        return Subspace(Z=_load_matrix(args.S_kernel))
    return OrthantUnion(_load_signs(args.S_signs))


def _cmd_injectivity(args) -> int:
    A = _load_matrix(args.A)
    B = _load_matrix(args.B)
    S = _subset_from_args(args, B.cols)
    verdict = check_injectivity(A, B, S, args.precision)
    _emit(
        {"command": "injectivity", **verdict.to_json_dict()},
        args,
        f"injectivity {'HOLDS' if verdict.injective else 'FAILS'} (method: {verdict.method})",
    )
    return EXIT_HOLDS if verdict.injective else EXIT_FAILS


def _cmd_minors(args) -> int:
    Atilde = _load_matrix(args.A)
    B = _load_matrix(args.B)
    holds, ledger = check_minors(Atilde, B, args.s)
    _emit({"command": "minors", "holds": holds, "ledger": ledger}, args,
          f"minor sign condition {'HOLDS' if holds else 'FAILS'} at s={args.s}")
    return EXIT_HOLDS if holds else EXIT_FAILS


def _cmd_gamma_det(args) -> int:
    Aprime = _load_matrix(args.Aprime)
    B = _load_matrix(args.B)
    Z = _load_matrix(args.Z) if args.Z else None
    poly = gamma_det_poly(Aprime, B, Z)
    holds = det_condition(poly)
    _emit(
        {"command": "gamma-det", "uniform_sign": holds, "polynomial": poly.to_json_dict()},
        args,
        f"determinant polynomial has {'a uniform coefficient sign' if holds else 'mixed or no signs'}",
    )
    return EXIT_HOLDS if holds else EXIT_FAILS


def _cmd_matroid(args) -> int:
    A = _load_matrix(args.A)
    if args.matroid_cmd == "chirotope":
        chi = chirotope(A)
        body = {"rank": chi.rank, "ground_size": chi.ground_size,
                "signs": [{"subset": list(k), "sign": v} for k, v in sorted(chi.signs.items())]}
    elif args.matroid_cmd == "cocircuits":
        body = {"cocircuits": [str(c) for c in cocircuits(A)]}
    else:
        body = {"covectors": [str(c) for c in covectors(A)]}
    _emit({"command": args.matroid_cmd, **body}, args, f"{args.matroid_cmd} enumerated")
    return EXIT_HOLDS


def _cmd_descartes(args) -> int:
    if args.descartes_cmd == "cone":
        A = _load_matrix(args.A)
        inside = descartes.cone_query(A, _parse_vector(args.y))
        _emit({"command": "descartes-cone", "in_open_cone": inside}, args,
              f"point {'lies' if inside else 'does not lie'} in the open cone")
        return EXIT_HOLDS if inside else EXIT_FAILS
    A = _load_matrix(args.A)
    B = _load_matrix(args.B)
    if args.descartes_cmd == "bnd":
        holds, ledger = descartes.check_bnd(A, B)
        _emit({"command": "descartes-bnd", "bnd_holds": holds, "ledger": ledger}, args,
              f"at-most-one-solution hypothesis {'HOLDS' if holds else 'FAILS'}")
        return EXIT_HOLDS if holds else EXIT_FAILS
    report = descartes.check_ex(A, B)
    _emit({"command": "descartes-ex", **report.to_json_dict()}, args,
          f"exactly-one-solution hypothesis {'HOLDS' if report.ex_holds else 'FAILS'}")
    return EXIT_HOLDS if report.ex_holds else EXIT_FAILS


def _load_network(path: str) -> crn.ReactionNetwork:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    net = crn.parse_network(text)
    return net


def _cmd_crn(args) -> int:
    net = _load_network(args.netfile)
    if args.kinetic_orders:
        try:
            with open(args.kinetic_orders) as fh:
                net = crn.apply_kinetic_orders(net, json.load(fh))
        except OSError as exc:
            raise ParseError(f"cannot read {args.kinetic_orders}: {exc}") from exc
    if args.crn_cmd == "preclude":
        verdict = crn.preclude_multistationarity(net, args.precision)
        _emit({"command": "crn-preclude", **verdict.to_json_dict()}, args,
              f"multistationarity {'PRECLUDED' if verdict.precluded else 'NOT precluded'}: {verdict.note}")
        return EXIT_HOLDS if verdict.precluded else EXIT_FAILS
    M = _load_matrix(args.M)
    N, _ = crn.stoichiometry(net)
    S = Subspace(C=N)
    # one sign-set intersection: the witness is None exactly when special_unique holds
    witness = crn.multistationarity_witness(M, S, args.assume_coset)
    unique = witness is None
    _emit(
        {
            "command": "crn-special",
            "unique": unique,
            "witness": None if witness is None else witness.to_json_dict(),
        },
        args,
        "at most one special steady state per compatibility class"
        if unique
        else "multiple special steady states possible (witness attached)",
    )
    return EXIT_HOLDS if unique else EXIT_FAILS


def _cmd_oracle(args) -> int:
    from . import oracle  # only these subcommands use it; numpy loads there, for non-integral B

    if args.oracle_cmd == "sign-set":
        M = _load_matrix(args.M)
        vectors = oracle.brute_force_sign_set(M, args.mode)
        _emit({"command": "oracle-sign-set", "mode": args.mode,
               "vectors": [str(v) for v in vectors]}, args, f"{len(vectors)} sign vectors")
        return EXIT_HOLDS
    if args.oracle_cmd == "gamma":
        Aprime = _load_matrix(args.Aprime)
        B = _load_matrix(args.B)
        Z = _load_matrix(args.Z) if args.Z else None
        poly = oracle.naive_symbolic_gamma_det(Aprime, B, Z)
        _emit({"command": "oracle-gamma", "polynomial": poly.to_json_dict()}, args, "expanded")
        return EXIT_HOLDS
    A = _load_matrix(args.A)
    B = _load_matrix(args.B)
    report = oracle.sampled_injectivity_search(A, B, samples=args.samples, seed=args.seed,
                                               prec=args.precision)
    _emit(
        {
            "command": "oracle-sample",
            "samples": report.samples,
            "seed": report.seed,
            "candidates": report.candidates,
            "violations": [
                {"kappa": [str(v) for v in k], "x": [str(v) for v in x], "y": [str(v) for v in y]}
                for k, x, y in report.violations
            ],
        },
        args,
        f"{len(report.violations)} verified violations in {report.samples} samples",
    )
    return EXIT_FAILS if report.found_violation else EXIT_HOLDS


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process and shared by every main() call."""
    parser = argparse.ArgumentParser(
        prog="signject",
        description="exact injectivity, Descartes-rule, and multistationarity decisions",
    )
    parser.add_argument("--precision", type=int, default=None,
                        help="working precision in bits of counterexamples (default "
                             "$SIGNJECT_PRECISION_BITS, else 256; min 64)")
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
    p.set_defaults(func=_cmd_injectivity)

    p = sub.add_parser("minors", help="paired-minor sign condition at a given order")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_minors)

    p = sub.add_parser("gamma-det", help="symbolic determinant of the bordered matrix")
    p.add_argument("--Aprime", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--Z")
    p.set_defaults(func=_cmd_gamma_det)

    for name in ("chirotope", "cocircuits", "covectors"):
        p = sub.add_parser(name, help=f"enumerate the {name} of a configuration")
        p.add_argument("--A", required=True)
        p.set_defaults(func=_cmd_matroid, matroid_cmd=name)

    p = sub.add_parser("descartes", help="one-positive-solution hypothesis checks")
    dsub = p.add_subparsers(dest="descartes_cmd", required=True)
    for name in ("bnd", "ex"):
        d = dsub.add_parser(name)
        d.add_argument("--A", required=True)
        d.add_argument("--B", required=True)
        d.set_defaults(func=_cmd_descartes, descartes_cmd=name)
    d = dsub.add_parser("cone")
    d.add_argument("--A", required=True)
    d.add_argument("--y", required=True, help="comma-separated rationals")
    d.set_defaults(func=_cmd_descartes, descartes_cmd="cone")

    p = sub.add_parser("crn", help="reaction-network analysis")
    csub = p.add_subparsers(dest="crn_cmd", required=True)
    c = csub.add_parser("preclude")
    c.add_argument("netfile")
    c.add_argument("--kinetic-orders", dest="kinetic_orders")
    c.set_defaults(func=_cmd_crn, crn_cmd="preclude")
    c = csub.add_parser("special")
    c.add_argument("netfile")
    c.add_argument("--M", required=True)
    c.add_argument("--assume-coset", dest="assume_coset", action="store_true")
    c.add_argument("--kinetic-orders", dest="kinetic_orders")
    c.set_defaults(func=_cmd_crn, crn_cmd="special")

    p = sub.add_parser("oracle", help="brute-force oracles (reproduces derived values)")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    o = osub.add_parser("sign-set")
    o.add_argument("--M", required=True)
    o.add_argument("--mode", choices=("kernel", "image"), required=True)
    o.set_defaults(func=_cmd_oracle, oracle_cmd="sign-set")
    o = osub.add_parser("gamma")
    o.add_argument("--Aprime", required=True)
    o.add_argument("--B", required=True)
    o.add_argument("--Z")
    o.set_defaults(func=_cmd_oracle, oracle_cmd="gamma")
    o = osub.add_parser("sample")
    o.add_argument("--A", required=True)
    o.add_argument("--B", required=True)
    o.add_argument("--samples", type=int, default=1000)
    o.set_defaults(func=_cmd_oracle, oracle_cmd="sample")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.precision is None:
            try:
                args.precision = int(os.environ.get("SIGNJECT_PRECISION_BITS", DEFAULT_PRECISION_BITS))
            except ValueError:
                raise ParseError("SIGNJECT_PRECISION_BITS must be an integer") from None
        if args.precision < 64:
            raise ParseError("precision must be at least 64 bits")
        if args.jobs < 1:
            raise ParseError("--jobs must be at least 1")
        return args.func(args)
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
