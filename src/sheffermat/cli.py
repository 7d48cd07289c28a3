"""Command line interface.

Verbs:

* ``families``                       list the catalog
* ``gen``                            generate a polynomial sequence
* ``coeffs``                         emit derived (a, b, c) vectors
* ``verify``                         run residual / lemma / property checks
* ``audit``                          evaluate the printed worked examples

Exit codes: 0 success, 1 verification failure, 2 usage error (also for
--n above MAX_N), 3 internal error.  JSON output is byte-deterministic
(sorted keys, two-space indent); set NO_COLOR (or redirect stdout) to
suppress the PASS/FAIL coloring in `verify` and `audit --format table`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .audit import run_worked_example_audit
from .errors import ContractError, ParameterError, ShefferMatError, UnknownFamilyError
from .families import list_families, make_pair
from .identities import COEFF_EXTRACTORS, LABELS
from .polynomials import Poly
from .rationals import format_rational, parse_rational
from .sequences import appell_sequence, sheffer_appell_sequence, sheffer_sequence
from .verify import property_suite, verify_family

KIND_CHOICES = ("sheffer", "appell", "sheffer-appell")

USAGE_ERROR = 2
INTERNAL_ERROR = 3

# Largest --n accepted by gen, coeffs, verify and audit: a larger one is a
# usage error, raised before any pair is built rather than after hours.
MAX_N = 100


def _styled(text: str, color: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return text
    codes = {"green": "32", "red": "31"}
    return f"\x1b[{codes[color]}m{text}\x1b[0m"


def _status_word(passed: bool) -> str:
    return _styled("PASS", "green") if passed else _styled("FAIL", "red")


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def poly_to_latex(p: Poly) -> str:
    """Render with descending powers: "x^{2} - 2x", "x - \\frac{1}{2}", "0"."""
    if p.is_zero:
        return "0"
    parts = []
    for d in range(len(p) - 1, -1, -1):
        c = p.coeff(d)
        if c == 0:
            continue
        magnitude = abs(c)
        if d == 0:
            body = _latex_rational(magnitude)
        else:
            var = "x" if d == 1 else f"x^{{{d}}}"
            body = var if magnitude == 1 else _latex_rational(magnitude) + var
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _parse_params(raw: list[str] | None, parser: argparse.ArgumentParser) -> dict:
    params: dict[str, Fraction] = {}
    for item in raw or []:
        name, eq, value = item.partition("=")
        if not eq or not name:
            parser.error(f"--param expects name=value, got {item!r}")
        if name in params:
            parser.error(f"--param {name} given more than once")
        try:
            params[name] = parse_rational(value)
        except ValueError as exc:
            parser.error(str(exc))
    return params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheffermat",
        description="Exact Sheffer-Appell polynomial sequences, their "
        "recurrences, and Pascal/Wronskian matrix identities.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    fam = sub.add_parser("families", help="list the family catalog")
    fam.add_argument("--format", choices=("json", "table"), default="table")

    gen = sub.add_parser("gen", help="generate a polynomial sequence")
    gen.add_argument("--family", required=True)
    gen.add_argument("--param", action="append", metavar="NAME=VALUE")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--kind", choices=KIND_CHOICES, default="sheffer-appell")
    gen.add_argument("--format", choices=("json", "csv", "latex"), default="json")

    coeffs = sub.add_parser("coeffs", help="emit derived (a, b, c) vectors")
    coeffs.add_argument("--family", required=True)
    coeffs.add_argument("--param", action="append", metavar="NAME=VALUE")
    coeffs.add_argument("--theorem", choices=LABELS, required=True)
    coeffs.add_argument("--n", type=int, required=True)

    verify = sub.add_parser("verify", help="run identity checks")
    verify.add_argument("--family", required=True)
    verify.add_argument("--param", action="append", metavar="NAME=VALUE")
    verify.add_argument("--n", type=int, default=8)
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--theorem", choices=LABELS)
    group.add_argument("--all", action="store_true")
    verify.add_argument("--properties", action="store_true")
    verify.add_argument("--lemma", action="store_true")

    audit = sub.add_parser("audit", help="evaluate the printed worked examples")
    audit.add_argument("--n", type=int, required=True)
    audit.add_argument("--format", choices=("json", "table"), default="json")

    return parser


def _cmd_families(args) -> int:
    specs = list_families()
    if args.format == "json":
        _emit_json([spec.to_json() for spec in specs])
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        names = ", ".join(spec.params) if spec.params else "-"
        print(f"{spec.name:<{width}}  params: {names:<8}  {spec.description}")
    return 0


def _cmd_gen(args, parser) -> int:
    params = _parse_params(args.param, parser)
    if args.n < 0:
        parser.error("--n must be >= 0")
    order = max(args.n, 1)
    pair = make_pair(args.family, order, params)
    if args.kind == "sheffer":
        seq = sheffer_sequence(pair, args.n)
    elif args.kind == "appell":
        seq = appell_sequence(pair.l, args.n)
    else:
        seq = sheffer_appell_sequence(pair, args.n)

    if args.format == "json":
        _emit_json(
            {
                "family": args.family,
                "parameters": {k: format_rational(v) for k, v in params.items()},
                "kind": args.kind,
                "n": args.n,
                "polys": [p.to_strings() for p in seq],
            }
        )
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["degree", "index", "coefficient"])
        for degree, p in enumerate(seq):
            for index, value in enumerate(p.coeffs):
                writer.writerow([degree, index, format_rational(value)])
        sys.stdout.write(buffer.getvalue())
    else:
        for p in seq:
            print(poly_to_latex(p))
    return 0


def _cmd_coeffs(args, parser) -> int:
    params = _parse_params(args.param, parser)
    if args.n < 0:
        parser.error("--n must be >= 0")
    pair = make_pair(args.family, args.n + 1, params)
    triple = COEFF_EXTRACTORS[args.theorem](pair, args.n)
    payload = triple.to_json()
    payload.update(
        {
            "family": args.family,
            "parameters": {k: format_rational(v) for k, v in params.items()},
            "n": args.n,
        }
    )
    _emit_json(payload)
    return 0


def _cmd_verify(args, parser) -> int:
    params = _parse_params(args.param, parser)
    if args.n < 0:
        parser.error("--n must be >= 0")
    labels = (args.theorem,) if args.theorem else LABELS
    results = verify_family(
        args.family, params, args.n, labels, include_lemma=args.lemma
    )
    if args.properties:
        results.extend(property_suite())
    for result in results:
        line = f"{_status_word(result.passed)} {result.name}"
        if result.detail:
            line += f"  ({result.detail})"
        print(line)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_audit(args) -> int:
    report = run_worked_example_audit(args.n)
    if args.format == "json":
        _emit_json(report.to_json())
        return 0
    for entry in report:
        residual = "0" if entry.residual.is_zero else str(entry.residual)
        print(
            f"{_status_word(entry.status == 'PASS')} {entry.identity} "
            f"n={entry.n} residual={residual}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 0) > MAX_N:
        parser.error(f"--n must be <= {MAX_N}")
    try:
        if args.verb == "families":
            return _cmd_families(args)
        if args.verb == "gen":
            return _cmd_gen(args, parser)
        if args.verb == "coeffs":
            return _cmd_coeffs(args, parser)
        if args.verb == "verify":
            return _cmd_verify(args, parser)
        if args.verb == "audit":
            return _cmd_audit(args)
        parser.error(f"unknown verb {args.verb!r}")
    except (UnknownFamilyError, ParameterError) as exc:
        # KeyError-derived exceptions repr-quote their message via str().
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    except (ContractError, AssertionError) as exc:
        print(f"internal error: contract violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except ShefferMatError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
