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
    run_worked_example_audit,
)
from sheffermat.cli import main, poly_to_latex

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


def test_coeffs_requires_known_theorem(capsys):
    with pytest.raises(SystemExit) as info:
        main(
            [
                "coeffs",
                "--family",
                "monomial",
                "--theorem",
                "4.7",
                "--n",
                "3",
            ]
        )
    assert info.value.code == 2


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


def test_audit_rejects_small_n(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_worked_example_audit", lambda *a: ran.append(a))
    with pytest.raises(SystemExit) as info:
        main(["audit", "--n", "2"])
    assert info.value.code == 2 and ran == []
    err = capsys.readouterr().err
    assert "error:" in err and "audit needs --n >= 3" in err


# -- error handling ----------------------------------------------------------


def test_unknown_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "legendre", "--n", "3")
    assert code == 2
    assert err.startswith("error: unknown family")
    assert '"' not in err.splitlines()[0]


def test_missing_parameter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "laguerre", "--n", "3")
    assert code == 2
    assert "lambda" in err


def test_malformed_param_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "laguerre", "--param", "lambda", "--n", "3"])
    assert info.value.code == 2


def test_non_rational_param_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "laguerre", "--param", "lambda=1.5", "--n", "3"])
    assert info.value.code == 2


def test_newline_suffixed_param_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "laguerre", "--param", "lambda=1/2\n", "--n", "2"])
    assert info.value.code == 2


def test_repeated_param_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "laguerre", "--param", "lambda=1",
              "--param", "lambda=2", "--n", "1"])
    assert info.value.code == 2
    assert "--param lambda given more than once" in capsys.readouterr().err


HUGE = "9" * 1000


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "laguerre", "--param", f"lambda={HUGE}", "--n", "100"],
        ["gen", "--family", "laguerre", "--param", f"lambda=1/{HUGE}", "--n", "100"],
        ["coeffs", "--family", "miller-lee", "--param", f"m=-{HUGE}/7",
         "--theorem", "3.3", "--n", "100"],
        ["verify", "--family", "miller-lee", "--param", f"m=2/{HUGE}",
         "--n", "100", "--all", "--lemma"],
    ],
    ids=["gen-numerator", "gen-denominator", "coeffs", "verify"],
)
def test_huge_param_is_refused_before_any_pair_is_built(argv, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "make_pair", lambda *a: built.append(a))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert time.perf_counter() - start < 1
    assert info.value.code == 2 and built == []
    assert f"at most {cli.MAX_PARAM_DIGITS} digits" in capsys.readouterr().err


def test_param_at_the_digit_cap_is_accepted(capsys):
    top = "9" * cli.MAX_PARAM_DIGITS
    code, out, _ = run_cli(
        capsys, "gen", "--family", "laguerre", "--param", f"lambda=-{top}/{top[:-1]}8",
        "--n", "2",
    )
    assert code == 0
    assert json.loads(out)["parameters"] == {"lambda": f"-{top}/{top[:-1]}8"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "monomial"],
        ["coeffs", "--family", "monomial", "--theorem", "3.1"],
        ["verify", "--family", "monomial"],
        ["audit"],
    ],
    ids=lambda argv: argv[0],
)
def test_negative_n_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, "--n", "-1"])
    assert info.value.code == 2
    assert "--n must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n",
    ["\u0663", "1_0", " 4 ", "+2"],
    ids=["arabic-indic", "underscore", "spaces", "plus"],
)
def test_n_outside_ascii_digits_is_usage_error(n, capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "monomial", "--n", n])
    assert info.value.code == 2
    assert "argument --n: invalid int value" in capsys.readouterr().err


def test_internal_error_exit_code(capsys, monkeypatch):
    def explode(*a, **k):
        raise InsufficientOrderError("order too small")

    monkeypatch.setattr(cli, "make_pair", explode)
    code, _, err = run_cli(capsys, "gen", "--family", "monomial", "--n", "3")
    assert code == 3
    assert err.startswith("internal error:")


def test_contract_violation_exit_code(capsys, monkeypatch):
    def explode(*a, **k):
        raise ContractError("leading coefficient drifted")

    monkeypatch.setattr(cli, "run_worked_example_audit", explode)
    code, _, err = run_cli(capsys, "audit", "--n", "6")
    assert code == 3
    assert err.startswith("internal error: contract violation")


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_error_during_work_is_an_internal_error(error, capsys, monkeypatch):
    """Exit 2 means refused before any work: an exception raised by the
    work itself, of whatever type, exits 3 and never reads as a usage error."""

    def explode(*a, **k):
        raise error("broken mid-request")

    monkeypatch.setattr(cli, "sheffer_appell_sequence", explode)
    code, out, err = run_cli(capsys, "gen", "--family", "hermite", "--n", "3")
    assert code == 3 and out == ""
    assert err == "internal error: broken mid-request\n"


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
