"""Command line interface.

Verbs, one subparser each whose ``run`` default is its handler (``gen``,
``coeffs`` and ``verify`` share ``--family`` and ``--param``):

* ``families``                       list the catalog
* ``gen``                            generate a polynomial sequence
* ``coeffs``                         emit derived (a, b, c) vectors
* ``verify``                         run residual / lemma / property checks
* ``audit``                          evaluate the printed worked examples

Exit codes: 0 success, 1 verification failure, 2 usage error (also for an
--n that is not ``-?[0-9]+``, above MAX_N or below 0, checked once in
:func:`main`), 3 internal error.  JSON output is byte-deterministic
(sorted keys, two-space indent); set NO_COLOR (or redirect stdout) to
suppress the PASS/FAIL coloring in `verify` and `audit --format table`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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


def _status_word(passed: bool) -> str:
    word, color = ("PASS", "32") if passed else ("FAIL", "31")
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return word
    return f"\x1b[{color}m{word}\x1b[0m"


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def poly_to_latex(p: Poly) -> str:
    """Render with descending powers: "x^{2} - 2x", "x - \\frac{1}{2}", "0"."""
    return p.render(_latex_rational, lambda d: "x" if d == 1 else f"x^{{{d}}}", "")


def _latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"\\frac{{{value.numerator}}}{{{value.denominator}}}"


def _ascii_int(text: str) -> int:
    """An ``--n`` value: ASCII ``-?[0-9]+`` only (no ``+2``, ``1_0``, spaces)."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


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
    pair = argparse.ArgumentParser(add_help=False)  # the options naming a pair
    pair.add_argument("--family", required=True)
    pair.add_argument("--param", action="append", metavar="NAME=VALUE")

    fam = sub.add_parser("families", help="list the family catalog")
    fam.add_argument("--format", choices=("json", "table"), default="table")
    fam.set_defaults(run=_cmd_families)

    gen = sub.add_parser("gen", parents=[pair], help="generate a polynomial sequence")
    gen.add_argument("--n", type=_ascii_int, required=True)
    gen.add_argument("--kind", choices=KIND_CHOICES, default="sheffer-appell")
    gen.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    gen.set_defaults(run=_cmd_gen)

    coeffs = sub.add_parser(
        "coeffs", parents=[pair], help="emit derived (a, b, c) vectors"
    )
    coeffs.add_argument("--theorem", choices=LABELS, required=True)
    coeffs.add_argument("--n", type=_ascii_int, required=True)
    coeffs.set_defaults(run=_cmd_coeffs)

    verify = sub.add_parser("verify", parents=[pair], help="run identity checks")
    verify.add_argument("--n", type=_ascii_int, default=8)
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--theorem", choices=LABELS)
    group.add_argument("--all", action="store_true")
    verify.add_argument("--properties", action="store_true")
    verify.add_argument("--lemma", action="store_true")
    verify.set_defaults(run=_cmd_verify)

    audit = sub.add_parser("audit", help="evaluate the printed worked examples")
    audit.add_argument("--n", type=_ascii_int, required=True)
    audit.add_argument("--format", choices=("json", "table"), default="json")
    audit.set_defaults(run=_cmd_audit)

    return parser


def _request(args) -> dict:
    """The family, parameters and n that ``gen`` and ``coeffs`` echo."""
    parameters = {k: format_rational(v) for k, v in args.params.items()}
    return {"family": args.family, "parameters": parameters, "n": args.n}


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


def _cmd_gen(args) -> int:
    pair = make_pair(args.family, max(args.n, 1), args.params)
    if args.kind == "sheffer":
        seq = sheffer_sequence(pair, args.n)
    elif args.kind == "appell":
        seq = appell_sequence(pair.l, args.n)
    else:
        seq = sheffer_appell_sequence(pair, args.n)

    if args.format == "json":
        polys = [p.to_strings() for p in seq]
        _emit_json({**_request(args), "kind": args.kind, "polys": polys})
    elif args.format == "csv":
        print("degree,index,coefficient")
        for degree, p in enumerate(seq):
            for index, value in enumerate(p.to_strings()):
                print(f"{degree},{index},{value}")
    else:
        for p in seq:
            print(poly_to_latex(p))
    return 0


def _cmd_coeffs(args) -> int:
    pair = make_pair(args.family, args.n + 1, args.params)
    triple = COEFF_EXTRACTORS[args.theorem](pair, args.n)
    _emit_json({**triple.to_json(), **_request(args)})
    return 0


def _cmd_verify(args) -> int:
    labels = (args.theorem,) if args.theorem else LABELS
    results = verify_family(
        args.family, args.params, args.n, labels, include_lemma=args.lemma
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
        print(
            f"{_status_word(entry.status == 'PASS')} {entry.identity} "
            f"n={entry.n} residual={entry.residual}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    n = getattr(args, "n", 0)
    if n > MAX_N:
        parser.error(f"--n must be <= {MAX_N}")
    args.params = _parse_params(getattr(args, "param", None), parser)
    if n < 0:
        parser.error("--n must be >= 0")
    try:
        return args.run(args)
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


if __name__ == "__main__":
    sys.exit(main())
