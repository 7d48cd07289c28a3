import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sheffermat.cli as cli
from sheffermat import CheckResult, InsufficientOrderError, Poly
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
    assert poly_to_latex(Poly.zero()) == "0"
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
        "verify_family",
        lambda *a, **k: [CheckResult("stub", False, "boom")],
    )
    code, out, _ = run_cli(capsys, "verify", "--family", "monomial")
    assert code == 1
    assert "FAIL stub  (boom)" in out
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_verify_color_gating(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "verify_family",
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


def test_audit_json(capsys):
    code, out, _ = run_cli(capsys, "audit", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 35
    statuses = {
        row["identity-id"]: [] for row in payload
    }
    for row in payload:
        statuses[row["identity-id"]].append(row["status"])
    assert statuses["laguerre-differential-recurrence"] == ["PASS"] + ["FAIL"] * 6
    assert statuses["miller-lee-mixed-recurrence"] == ["FAIL"] * 7


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


def test_audit_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "audit", "--n", "2")
    assert code == 2
    assert "error:" in err


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
        raise AssertionError("leading coefficient drifted")

    monkeypatch.setattr(cli, "run_worked_example_audit", explode)
    code, _, err = run_cli(capsys, "audit", "--n", "6")
    assert code == 3
    assert err.startswith("internal error: contract violation")


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


def test_console_script_help():
    proc = subprocess.run(
        ["sheffermat", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for verb in ("families", "gen", "coeffs", "verify", "audit"):
        assert verb in proc.stdout
