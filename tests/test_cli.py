import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import sheffermat.cli as cli
from sheffermat import (
    FAMILIES,
    KINDS,
    LABELS,
    CheckResult,
    ContractError,
    InsufficientOrderError,
    Poly,
    pairs,
    run_worked_example_audit,
)
from sheffermat.cli import MAX_N, MAX_PARAM_DIGITS, main, poly_to_latex

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- families ----------------------------------------------------------------


def test_families_table(capsys):
    code, out, _ = run_cli(capsys, "families", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("bernoulli")
    assert any("laguerre" in line and "lambda" in line for line in lines)


def test_families_json(capsys):
    code, out, _ = run_cli(capsys, "families", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [spec["name"] for spec in payload] == sorted(
        spec["name"] for spec in payload
    )
    laguerre = next(s for s in payload if s["name"] == "laguerre")
    assert laguerre["params"] == [{"name": "lambda", "type": "rational"}]


# -- gen -----------------------------------------------------------------------


def test_gen_json_monomial_exact_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--family", "monomial", "--n", "3", "--format", "json"
    )
    assert code == 0
    expected = {
        "family": "monomial",
        "parameters": {},
        "kind": "sheffer-appell",
        "n": 3,
        "polys": [["1"], ["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_gen_is_byte_deterministic(capsys):
    args = ("gen", "--family", "laguerre", "--param", "lambda=5/2", "--n", "6")
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    assert first == second and first[0] == 0


def test_gen_kind_sheffer(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "laguerre",
        "--param",
        "lambda=0",
        "--n",
        "2",
        "--kind",
        "sheffer",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "sheffer"
    assert payload["parameters"] == {"lambda": "0"}
    assert payload["polys"] == [["1"], ["1", "-1"], ["2", "-4", "1"]]


def test_gen_kind_appell_uses_l_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "exp-shift",
        "--n",
        "3",
        "--kind",
        "appell",
    )
    assert code == 0
    assert json.loads(out)["polys"][3] == ["-1", "3", "-3", "1"]


def test_gen_csv(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--family", "monomial", "--n", "2", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "degree,index,coefficient\n"
        "0,0,1\n"
        "1,0,0\n"
        "1,1,1\n"
        "2,0,0\n"
        "2,1,0\n"
        "2,2,1\n"
    )


def test_gen_latex(capsys):
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--family",
        "bernoulli",
        "--n",
        "2",
        "--kind",
        "sheffer",
        "--format",
        "latex",
    )
    assert code == 0
    assert out.splitlines() == [
        "1",
        "x - \\frac{1}{2}",
        "x^{2} - x + \\frac{1}{6}",
    ]


def test_gen_n_zero(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "hermite", "--n", "0")
    assert code == 0
    assert json.loads(out)["polys"] == [["1"]]


def test_poly_to_latex_rendering():
    assert poly_to_latex(Poly()) == "0"
    assert poly_to_latex(Poly((0, -1))) == "-x"
    assert poly_to_latex(Poly((Fraction(-1, 2),))) == "-\\frac{1}{2}"
    assert poly_to_latex(Poly((0, -2, 0, 1))) == "x^{3} - 2x"


# -- coeffs ------------------------------------------------------------------


def test_coeffs_laguerre(capsys):
    code, out, _ = run_cli(
        capsys,
        "coeffs",
        "--family",
        "laguerre",
        "--param",
        "lambda=0",
        "--theorem",
        "3.1",
        "--n",
        "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theorem"] == "3.1"
    assert payload["a"] == ["-1", "2", "-2", "0", "0"]
    assert payload["b"] == ["-1", "1", "0", "0", "0"]
    assert payload["c"] == ["1", "-1", "0", "0", "0"]
    assert payload["family"] == "laguerre"
    assert payload["parameters"] == {"lambda": "0"}
    assert payload["n"] == 4


@pytest.mark.parametrize("theorem", LABELS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_coeffs_n_zero_is_the_k0_prefix(capsys, family, theorem):
    # n = 0 builds an order-1 pair, whose order-0 h and g are zero series
    params = [
        arg
        for name, value in (("lambda", "5/2"), ("m", "2"))
        if name in FAMILIES[family].params
        for arg in ("--param", f"{name}={value}")
    ]
    argv = ["coeffs", "--family", family, *params, "--theorem", theorem, "--n"]
    code, out, err = run_cli(capsys, *argv, "0")
    assert (code, err) == (0, "")
    code, one, _ = run_cli(capsys, *argv, "1")
    assert code == 0
    zero, one = json.loads(out), json.loads(one)
    assert zero["n"] == 0
    for key in "abc":
        assert zero[key] == one[key][:1]


# -- verify ------------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "laguerre",
        "--param",
        "lambda=2",
        "--n",
        "4",
        "--all",
        "--lemma",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "25/25 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "\x1b[" not in out


def test_verify_default_example_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "laguerre",
        "--param",
        "lambda=2",
        "--n",
        "10",
        "--all",
    )
    assert code == 0
    assert out.splitlines()[-1] == "44/44 checks passed"


def test_verify_single_theorem(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--family",
        "euler",
        "--theorem",
        "3.3",
        "--n",
        "3",
    )
    assert code == 0
    assert out.splitlines()[-1] == "4/4 checks passed"


def test_verify_passes_one_label_or_none(capsys, monkeypatch):
    calls = []

    def recorder(pair, n, label):
        calls.append(label)
        return [CheckResult("stub", True)]

    monkeypatch.setattr(cli, "residual_checks", recorder)
    run_cli(capsys, "verify", "--family", "monomial", "--theorem", "3.3")
    run_cli(capsys, "verify", "--family", "monomial")
    assert calls == ["3.3", None]


def test_verify_properties_flag(capsys, monkeypatch):
    monkeypatch.setattr(cli, "property_suite", lambda: [CheckResult("stub-prop", True)])
    code, out, _ = run_cli(
        capsys, "verify", "--family", "monomial", "--n", "0", "--properties"
    )
    assert code == 0
    assert "PASS stub-prop" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "residual_checks",
        lambda *a, **k: [CheckResult("stub", False, "boom")],
    )
    code, out, _ = run_cli(capsys, "verify", "--family", "monomial")
    assert code == 1
    assert "FAIL stub  (boom)" in out
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_verify_color_gating(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "residual_checks",
        lambda *a, **k: [CheckResult("stub", True)],
    )
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    monkeypatch.delenv("NO_COLOR", raising=False)
    code, out, _ = run_cli(capsys, "verify", "--family", "monomial")
    assert "\x1b[32mPASS\x1b[0m stub" in out

    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    code, out, _ = run_cli(capsys, "verify", "--family", "monomial")
    assert "\x1b[" not in out


# -- audit -------------------------------------------------------------------


def test_audit_table(capsys):
    code, out, _ = run_cli(capsys, "audit", "--n", "3", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert lines[0].startswith("PASS laguerre-differential-recurrence n=0")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_audit_table_bytes_are_frozen(capsys):
    code, out, _ = run_cli(capsys, "audit", "--n", "12", "--format", "table")
    assert code == 0
    assert sum(line.startswith("FAIL") for line in out.splitlines()) == 63
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bfddb9b6b02f767226e7503e96ae223fbc075bf8fa6cc6722e93f8a12e6dfcb7"
    )


def test_audit_json_bytes_are_frozen(capsys):
    # Every degree of the five printed identities up to 40, in one digest.
    code, out, _ = run_cli(capsys, "audit", "--n", "40")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cd6a289bbb75eed2e9557d9b0ec3ce3ef3171806187f2ec71d62e7851ed41589"
    )


@pytest.mark.parametrize("n", range(3, 13))
def test_audit_json_is_streamed_as_the_bytes_of_one_dump(capsys, n):
    # The verb writes one entry at a time; the stdout is still one json.dumps.
    code, out, _ = run_cli(capsys, "audit", "--n", str(n))
    report = run_worked_example_audit(n).to_json()
    assert code == 0
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- the input contract: exit 2 before any work, exit 3 for an error in it ---


class WorkStarted(BaseException):
    """The spy's stop: not an Exception, which main would report as exit 3."""


def row(id, argv, code, says, raises=WorkStarted, worked=False):
    """argv; main's exit code (None: the spy stopped the work); a fragment of
    stderr, or of stdout at exit 0; what building the first pair raises
    (None: the pair is built); whether a pair was built."""
    return pytest.param(argv, code, says, raises, worked, id=id)


DIGITS = f"at most {MAX_PARAM_DIGITS} digits\n"
TOP = "9" * MAX_PARAM_DIGITS
CAP = 10**MAX_PARAM_DIGITS  # the least part with one digit too many
CONTRACT = [
    *(
        row(f"{argv[0]}-{id}", [*argv, "--n", str(n)], code, says, worked=code is None)
        for argv in (
            ["gen", "--family", "monomial"],
            ["coeffs", "--family", "monomial", "--theorem", "3.1"],
            ["verify", "--family", "monomial", "--all", "--lemma"],
            ["audit"],
        )
        for id, n, code, says in (
            ("MAX_N", MAX_N, None, ""),
            ("MAX_N+1", MAX_N + 1, 2, f"--n must be <= {MAX_N}\n"),
            ("10**9", 10**9, 2, f"--n must be <= {MAX_N}\n"),
            ("n=-1", -1, 2, "--n must be >= 0\n"),
        )
    ),
    *(
        row(id, ["gen", "--family", "monomial", "--n", n], 2,
            "argument --n: invalid int value")
        for id, n in [("arabic-indic", "\u0663"), ("underscore", "1_0"),
                      ("spaces", " 4 "), ("plus", "+2")]
    ),
    row("audit-n=2", ["audit", "--n", "2"], 2, "audit needs --n >= 3"),
    row("unknown-theorem",
        ["coeffs", "--family", "monomial", "--theorem", "4.7", "--n", "3"], 2,
        "argument --theorem: invalid choice: '4.7'"),
    row("unknown-family", ["gen", "--family", "legendre", "--n", "3"], 2,
        "error: unknown family 'legendre' (known: monomial,"),
    row("param-missing", ["gen", "--family", "laguerre", "--n", "3"], 2,
        "error: family 'laguerre' requires parameter(s) lambda\n"),
    *(
        row(f"param-{id}", ["gen", "--family", "laguerre", *params, "--n", "3"], 2, says)
        for id, params, says in [
            ("malformed", ["--param", "lambda"],
             "--param expects name=value, got 'lambda'\n"),
            ("non-rational", ["--param", "lambda=1.5"], "not a rational literal: '1.5'\n"),
            ("newline", ["--param", "lambda=1/2\n"], "not a rational literal: '1/2\\n'\n"),
            ("repeated", ["--param", "lambda=1", "--param", "lambda=2"],
             "--param lambda given more than once\n"),
            ("10**12-numerator", ["--param", f"lambda=-{CAP}/7"], DIGITS),
            ("10**12-denominator", ["--param", f"lambda=1/{CAP}"], DIGITS),
        ]
    ),
    *(
        row(f"param-1000-digits-{id}", [*argv, "--n", str(MAX_N)], 2, DIGITS)
        for id, argv in [
            ("gen-numerator",
             ["gen", "--family", "laguerre", "--param", f"lambda={'9' * 1000}"]),
            ("gen-denominator",
             ["gen", "--family", "laguerre", "--param", f"lambda=1/{'9' * 1000}"]),
            ("coeffs", ["coeffs", "--family", "miller-lee", "--param",
                        f"m=-{'9' * 1000}/7", "--theorem", "3.3"]),
            ("verify", ["verify", "--family", "miller-lee", "--param",
                        f"m=2/{'9' * 1000}", "--all", "--lemma"]),
        ]
    ),
    row("param-12-digits",
        ["gen", "--family", "laguerre", "--param", f"lambda=-{TOP}/{TOP[:-1]}8",
         "--n", "2"], 0, f'"lambda": "-{TOP}/{TOP[:-1]}8"', raises=None, worked=True),
    *(
        row(error.__name__, argv, 3, f"internal error: {says}broken mid-request\n",
            raises=error, worked=True)
        for error, argv, says in [
            (InsufficientOrderError, ["gen", "--family", "monomial", "--n", "3"], ""),
            (ValueError, ["gen", "--family", "hermite", "--n", "3"], ""),
            (TypeError, ["gen", "--family", "hermite", "--n", "3"], ""),
            (ContractError, ["audit", "--n", "6"], "contract violation: "),
        ]
    ),
]


@pytest.mark.parametrize("argv, code, says, raises, worked", CONTRACT)
def test_cli_contract(argv, code, says, raises, worked, capsys, monkeypatch):
    """Exit 2 refuses a request in under a second, before any pair is built;
    an error raised by the work itself, of whatever type, exits 3 with
    stderr one line and never reads as a usage error.  No refusal writes to
    stdout, and none quotes its message whole, as str() of a KeyError would."""
    built = []
    honest = pairs.ShefferPair.__post_init__

    def spy(pair):
        built.append(pair)
        if raises is not None:
            raise raises("broken mid-request")
        honest(pair)

    monkeypatch.setattr(pairs.ShefferPair, "__post_init__", spy)
    start = time.perf_counter()
    try:
        exit_code = main(argv)
    except SystemExit as info:
        exit_code = info.code
    except WorkStarted:
        exit_code = None
    took = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (exit_code, bool(built)) == (code, worked)
    assert worked or took < 1
    if code == 0:
        assert says in out and err == ""
    else:
        assert out == "" and says in err and '"' not in err
    if code == 3:
        assert err == says


def test_contract_violation_exit_code(capsys, monkeypatch):
    def explode(*a, **k):
        raise ContractError("leading coefficient drifted")

    monkeypatch.setattr(cli, "run_worked_example_audit", explode)
    code, _, err = run_cli(capsys, "audit", "--n", "6")
    assert code == 3
    assert err.startswith("internal error: contract violation")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "hermite", "--n", "0"],
        ["gen", "--family", "laguerre", "--param", "lambda=5/2", "--n", "7",
         "--kind", "appell"],
        ["coeffs", "--family", "log-assoc", "--theorem", "3.3", "--n", "5"],
        ["verify", "--family", "miller-lee", "--param", "m=2", "--n", "4",
         "--all", "--lemma", "--properties"],
    ],
    ids=lambda argv: argv[0] + "-" + argv[argv.index("--n") + 1],
)
def test_each_request_builds_one_pair_at_order_n_plus_1(argv, capsys, monkeypatch):
    calls = []
    honest = cli.make_pair

    def spy(family, order, params):
        calls.append((family, order))
        return honest(family, order, params)

    monkeypatch.setattr(cli, "make_pair", spy)
    monkeypatch.setattr(cli, "property_suite", lambda: [])
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [(argv[2], int(argv[argv.index("--n") + 1]) + 1)]


# 12-digit numerator and denominator, the most --param accepts.
WIDEST = "-999999999999/999999999998"


def test_largest_outputs_print_below_the_int_digit_limit(capsys, monkeypatch):
    """At the --param cap and n = MAX_N every integer that gen and coeffs
    print stays below Python's int-to-str limit, so printing one can never
    fail: a ValueError during the work is an internal error, not input."""
    limit = sys.get_int_max_str_digits() or 4300  # 0 means no limit
    pairs = {}  # one pair per family for all seven requests, to save time
    honest = cli.make_pair

    def make_pair(family, order, params):
        if family not in pairs:
            pairs[family] = honest(family, order, params)
        return pairs[family]

    monkeypatch.setattr(cli, "make_pair", make_pair)
    longest = 0
    for family, name in (("laguerre", "lambda"), ("miller-lee", "m")):
        request = ["--family", family, "--param", f"{name}={WIDEST}"]
        request += ["--n", str(cli.MAX_N)]
        runs = [["gen", *request, "--kind", kind] for kind in KINDS]
        runs += [["coeffs", *request, "--theorem", label] for label in LABELS]
        for argv in runs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, argv
            longest = max(longest, *map(len, re.findall(r"[0-9]+", out)))
    assert 1000 < longest < limit


# -- entry points ------------------------------------------------------------


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sheffermat", "families"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0
    assert "laguerre" in proc.stdout


def test_closed_stdout_ends_quietly():
    """``gen ... | head -c 10``: the reader leaves after 10 bytes of about
    150 kB, and the writer ends with exit 141 (128 + SIGPIPE) and no
    traceback, not with the verification-failure code 1.  A failed assertion
    still kills and reaps the child and closes both pipes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "sheffermat", "gen", "--family", "hermite",
         "--n", "100"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    try:
        assert proc.stdout.read(10) == b'{\n  "famil'
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.stderr.close()
        proc.wait()


def test_console_script_help():
    proc = subprocess.run(
        ["sheffermat", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for verb in ("families", "gen", "coeffs", "verify", "audit"):
        assert verb in proc.stdout
