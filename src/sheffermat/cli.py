"""Command line interface.

Verbs, one subparser each whose ``run`` default is its handler (``gen``,
``coeffs`` and ``verify`` share ``--family`` and ``--param``, and ``main``
builds their one pair before the verb runs, at order n + 1, the most a
check at degree n reads, since the recurrences give sA_{n+1} from the
(a, b, c) vectors up to k = n):

* ``families``                       list the catalog
* ``gen``                            generate a polynomial sequence
* ``coeffs``                         emit derived (a, b, c) vectors
* ``verify``                         run residual / lemma / property checks
* ``audit``                          evaluate the printed worked examples

Exit codes: 0 success, 1 a failed check, 2 input refused before any work
(a parser error, an --n that is not ``-?[0-9]+``, above MAX_N or below 0,
an audit --n below 3, a --param whose numerator or denominator has more
than MAX_PARAM_DIGITS digits, an unknown family or a bad parameter), 3 any
error during the work (a ContractError as "contract violation"), 141
(128 + SIGPIPE) when the reader closes stdout early.  JSON output is
byte-deterministic (sorted keys, two-space indent); set NO_COLOR (or
redirect stdout) to suppress the PASS/FAIL coloring in `verify` and
`audit --format table`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .audit import run_worked_example_audit
from .errors import ContractError, ParameterError, UnknownFamilyError
from .families import list_families, make_pair
from .identities import COEFF_EXTRACTORS, LABELS
from .polynomials import Poly
from .rationals import format_rational, parse_rational
from .sequences import KINDS, appell_sequence, sheffer_appell_sequence, sheffer_sequence
from .verify import lemma_checks, property_suite, residual_checks

USAGE_ERROR = 2
INTERNAL_ERROR = 3
CLOSED_STDOUT = 141

# Largest --n accepted by gen, coeffs, verify and audit: a larger one is a
# usage error, raised before any pair is built rather than after hours.
MAX_N = 100
# Most decimal digits of a --param numerator or denominator, checked before
# any pair is built.  At this many and n = MAX_N the slowest cell, verify
# --all --lemma on miller-lee, took 4.8 s (8.8 s at 18); README, "CLI".
MAX_PARAM_DIGITS = 12


def _status_word(passed: bool) -> str:
    word, color = ("PASS", "32") if passed else ("FAIL", "31")
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return word
    return f"\x1b[{color}m{word}\x1b[0m"


def _json_text(payload) -> str:
    import json  # here, not at the top: most requests print no JSON
    return json.dumps(payload, indent=2, sort_keys=True)


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
            params[name] = q = parse_rational(value)
        except ValueError as exc:
            parser.error(str(exc))
        if max(abs(q.numerator), q.denominator) >= 10**MAX_PARAM_DIGITS:
            cap = f"at most {MAX_PARAM_DIGITS} digits"
            parser.error(f"--param {name}: numerator and denominator need {cap}")
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
    gen.add_argument("--kind", choices=KINDS, default="sheffer-appell")
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
    group.add_argument(
        "--all", action="store_true", help="all four identities (the default)"
    )
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
        print(_json_text([spec.to_json() for spec in specs]))
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        names = ", ".join(spec.params) if spec.params else "-"
        print(f"{spec.name:<{width}}  params: {names:<8}  {spec.description}")
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "sheffer":
        seq = sheffer_sequence(args.pair, args.n)
    elif args.kind == "appell":
        seq = appell_sequence(args.pair.l, args.n)
    else:
        seq = sheffer_appell_sequence(args.pair, args.n)

    if args.format == "json":
        polys = [p.to_strings() for p in seq]
        print(_json_text({**_request(args), "kind": args.kind, "polys": polys}))
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
    triple = COEFF_EXTRACTORS[args.theorem](args.pair, args.n)
    print(_json_text({**triple.to_json(), **_request(args)}))
    return 0


def _cmd_verify(args) -> int:
    results = residual_checks(args.pair, args.n, args.theorem)
    if args.lemma:
        results.extend(lemma_checks(args.pair, args.n))
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
        # print(_json_text(report.to_json())) one entry at a time, to save memory
        sep = "["
        for entry in report:
            text = _json_text(entry.to_json())
            sys.stdout.write(f"{sep}\n  " + text.replace("\n", "\n  "))
            sep = ","
        print("\n]")
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
    if args.verb == "audit" and n < 3:
        parser.error("audit needs --n >= 3 to exercise every printed term")
    try:
        if hasattr(args, "family"):
            args.pair = make_pair(args.family, n + 1, args.params)
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`gen ... | head`).  Point it at /dev/null,
        # so that the flush at exit cannot fail again, and end as SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except (UnknownFamilyError, ParameterError) as exc:
        # Only make_pair raises these: the request is refused before any work.
        # KeyError-derived exceptions repr-quote their message via str().
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return USAGE_ERROR
    except ContractError as exc:
        print(f"internal error: contract violation: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
