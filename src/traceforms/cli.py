"""Command-line front end.

Subcommands: realize, verify, invariants, equivalent, galois, group-verify.
All reports are canonical JSON on stdout, every number an exact rational
string, all randomness derived from --seed; identical invocations produce
byte-identical output.

Exit codes: 0 success / positive verdict, 1 negative verdict (invalid
certificate, inequivalent forms, inconclusive sampling, exhausted search,
failed group property), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import galois, groups, quadform, serialize, traceform
from .quadform import SymmetricForm
from .traceform import SearchExhausted, SearchPolicy

OK = 0
NEGATIVE = 1
USAGE = 2


class InputError(Exception):
    """Maps to exit code 2, as does any ValueError a command raises."""


def _parse_diag(text: str) -> list:
    try:
        return [serialize.rational_from_str(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad diagonal {text!r}: {exc}")


def _load_form_file(path: str) -> SymmetricForm:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}")
    try:
        return serialize.form_from_json(data)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"bad form in {path}: {exc}")


def _gather_forms(args, minimum: int, maximum: int) -> list[SymmetricForm]:
    forms = [_load_form_file(path) for path in args.form or []]
    forms += [SymmetricForm.diagonal(_parse_diag(text)) for text in args.diag or []]
    if not minimum <= len(forms) <= maximum:
        raise InputError(
            f"expected between {minimum} and {maximum} forms via --form/--diag, got {len(forms)}"
        )
    return forms


def _emit(args, payload: dict) -> None:
    if not args.quiet:
        sys.stdout.write(serialize.canonical_dumps(payload))


def cmd_realize(args) -> int:
    (form,) = _gather_forms(args, 1, 1)
    schedule = SearchPolicy.bound_schedule
    if args.bounds is not None:
        try:
            schedule = tuple(int(b) for b in args.bounds.split(","))
        except ValueError as exc:
            raise InputError(f"bad bound schedule: {exc}")
    policy = SearchPolicy(seed=args.seed, bound_schedule=schedule, max_tries_per_bound=args.tries)
    try:
        cert = traceform.realize(form, policy)
    except SearchExhausted as exc:
        _emit(args, {"error": "search_exhausted", "detail": str(exc), "seed": args.seed})
        return NEGATIVE
    _emit(args, serialize.certificate_to_json(cert))
    return OK


def cmd_verify(args) -> int:
    try:
        with open(args.certificate) as handle:
            data = json.load(handle)
        cert = serialize.certificate_from_json(data)
    except OSError as exc:
        raise InputError(f"cannot read {args.certificate}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}")
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(f"malformed certificate: {exc}")
    check = traceform.verify_certificate(cert)
    if check:
        _emit(args, {"valid": True})
        return OK
    _emit(args, {"valid": False, "failed_clause": check.failed_clause})
    return NEGATIVE


def cmd_invariants(args) -> int:
    (form,) = _gather_forms(args, 1, 1)
    _emit(args, serialize.invariants_to_json(quadform.invariants(form)))
    return OK


def cmd_equivalent(args) -> int:
    # each form is diagonalized and factored once, for the verdict and the report
    first, second = (quadform.invariants(form) for form in _gather_forms(args, 2, 2))
    same = first == second
    _emit(
        args,
        {
            "equivalent": same,
            "invariants": [serialize.invariants_to_json(first), serialize.invariants_to_json(second)],
        },
    )
    return OK if same else NEGATIVE


def cmd_galois(args) -> int:
    if args.diag:
        diag = _parse_diag(args.diag)
        if args.n is not None and args.n != len(diag):
            raise InputError(f"--n {args.n} does not match --diag of length {len(diag)}")
    elif args.n is not None:
        diag = [1] * args.n
    else:
        raise InputError("need --diag or --n")
    report = galois.generic_experiment(
        diag, args.bound, args.primes, seed=args.seed, prime_floor=args.prime_floor
    )
    stats = None
    if report.cycle_stats is not None:
        stats = {
            "counts": {
                ",".join(map(str, t)): c for t, c in sorted(report.cycle_stats.counts.items())
            },
            "primes_used": report.cycle_stats.primes_used,
            "primes_skipped": report.cycle_stats.primes_skipped,
        }
    _emit(
        args,
        {
            "n": report.n,
            "diag": [serialize.rational_to_str(e) for e in report.diag],
            "seed": report.seed,
            "A": serialize.matrix_to_json(report.A),
            "f": serialize.poly_to_json(report.f),
            "separable": report.separable,
            "irreducible": report.irreducible,
            "sn_verdict": report.sn_verdict,
            "cycle_stats": stats,
        },
    )
    return OK if report.sn_verdict == galois.CERTIFIED else NEGATIVE


def cmd_group_verify(args) -> int:
    group = groups.construct_group(args.p, args.k, args.m)
    index_divisors = [args.n] if args.n is not None else None
    report = groups.verify_group(
        group,
        index_divisors=index_divisors,
        exhaustive=args.exhaustive,
    )
    _emit(args, report)
    return OK if report["all_pass"] else NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    common.add_argument("--quiet", action="store_true", help="suppress the report")

    form_args = argparse.ArgumentParser(add_help=False)
    form_args.add_argument(
        "--form", action="append", metavar="FILE", help="JSON form file (repeatable)"
    )
    form_args.add_argument(
        "--diag",
        action="append",
        metavar="ENTRIES",
        help="comma-separated diagonal entries (repeatable)",
    )

    parser = argparse.ArgumentParser(
        prog="traceforms",
        description="Realize rational quadratic forms as scaled trace forms, "
        "verify certificates, and run the supporting experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", parents=[common, form_args], help="produce a certificate")
    p.add_argument("--bounds", help="comma-separated coefficient bound schedule")
    p.add_argument(
        "--tries",
        type=int,
        default=SearchPolicy.max_tries_per_bound,
        help="tries per bound",
    )
    p.set_defaults(run=cmd_realize)

    p = sub.add_parser("verify", parents=[common], help="check a certificate file")
    p.add_argument("certificate", help="certificate JSON file")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser(
        "invariants", parents=[common, form_args], help="Witt invariants of a form"
    )
    p.set_defaults(run=cmd_invariants)

    p = sub.add_parser(
        "equivalent", parents=[common, form_args], help="decide rational equivalence"
    )
    p.set_defaults(run=cmd_equivalent)

    p = sub.add_parser(
        "galois", parents=[common], help="random specialization cycle-type experiment"
    )
    p.add_argument("--n", type=int, help="dimension (diagonal defaults to all ones)")
    p.add_argument("--diag", help="comma-separated nonzero diagonal entries")
    p.add_argument("--bound", type=int, default=20, help="coefficient bound for A")
    p.add_argument("--primes", type=int, default=300, help="prime sample budget")
    p.add_argument(
        "--prime-floor", type=int, default=galois.DEFAULT_PRIME_FLOOR,
        help="sample primes above this floor (below FACTOR_LIMIT, where primality is proven)",
    )
    p.set_defaults(run=cmd_galois)

    p = sub.add_parser(
        "group-verify", parents=[common], help="check the semidirect group properties"
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, help="restrict the index check to one divisor")
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="force the exhaustive normal-subgroup enumeration",
    )
    p.set_defaults(run=cmd_group_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0,) else 0
    # certificates may outgrow Python's int<->str digit limit: lift it for the command
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except (InputError, ValueError) as exc:
        # DegenerateForm, InvalidParams and the factorization limit are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
