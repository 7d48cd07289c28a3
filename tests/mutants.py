"""A standing catalog of mutants of ``src/``, each with the tests that kill it.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

A mutant is one edit of one module of the package: an exact old text, which
occurs exactly once in that module (``tests/test_mutant_catalog.py`` checks
this in tier-1), a new text, and the ids of tests that must fail on the
edited code.  The runner copies ``src/`` to a temporary directory and first
runs every named test on the unedited copy, which must pass.  It then
applies each mutant in turn and runs its tests against the copy with
``-x -q -p no:cacheprovider``; a mutant whose tests all pass survives.  The
exit status is 0 iff every mutant is killed.

In the copy's runs only, hypothesis runs without its shrink and explain
phases and without its example database: a failing property test stops at
its first counterexample (on a 2-core x86-64 VM a failing run of the whole
suite took about 45 s this way, against 5-6 minutes with shrinking), and no
counterexample found on a mutant is replayed on the real code.  The tests
run in-process against the copy, so a test that starts the package in a
subprocess reads the unedited ``src/`` and is not named here.  A run that
takes over ``TIMEOUT`` seconds counts as an error, not a kill.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300

# name -> (module of src/sheffermat, old text, new text, test ids that must fail)
MUTANTS = {
    # -- rationals ------------------------------------------------------------
    "combine-row-without-its-rescale": (
        "rationals.py",
        "        weight *= lq // den\n",
        "",
        ["tests/test_rationals.py::test_combine_row_is_the_fraction_sum_and_reduces_to_one_form"],
    ),
    "format-row-without-its-gcd": (
        "rationals.py",
        "        g = math.gcd(c, den)",
        "        g = 1",
        ["tests/test_rationals.py::test_format_row_writes_each_entry_as_its_fraction"],
    ),
    # -- errors ---------------------------------------------------------------
    "check-size-refuses-its-most": (
        "errors.py",
        "    if n > most:",
        "    if n >= most:",
        ["tests/test_appell_oracles.py::test_sheffer_kinds_match_closed_form[sheffer-monomial]"],
    ),
    "record-equal-to-any-record": (
        "errors.py",
        "        if other.__class__ is not self.__class__:",
        "        if not isinstance(other, Record):",
        ["tests/test_records.py::test_record_matches_its_dataclass_twin"],
    ),
    # -- series ---------------------------------------------------------------
    "product-skips-its-last-outer-term": (
        "series.py",
        "    for i, ai in enumerate(pa):",
        "    for i, ai in enumerate(pa[:-1]):",
        ["tests/test_row_kernels.py::test_series_ring_operations"],
    ),
    "reciprocal-newton-step-keeps-the-sign": (
        "series.py",
        "e = [2 * de - e[0]] + [-c for c in e[1:]]",
        "e = [2 * de - e[0]] + [c for c in e[1:]]",
        ["tests/test_row_kernels.py::test_reciprocal"],
    ),
    "y-test-compares-only-numerators": (
        "series.py",
        "return self.row == (1, [0, 1] + [0] * (self.order - 1))",
        "return self.row[1] == [0, 1] + [0] * (self.order - 1)",
        ["tests/test_series.py::test_near_misses_of_y_take_the_general_path"],
    ),
    "compose-without-the-giant-step": (
        "series.py",
        "carried = reduce_row(*_product(giant, reduce_row(*acc)))",
        "carried = reduce_row(*acc)",
        ["tests/test_row_kernels.py::test_compose_and_exp"],
    ),
    # -- pairs: the Pascal read-off and the leading-coefficient contract --------
    "pascal-read-off-takes-comb-for-perm": (
        "pairs.py",
        "Poly._reduced(den, [math.perm(i, i - k) * f[i - k] for k in range(i + 1)])",
        "Poly._reduced(den, [math.comb(i, i - k) * f[i - k] for k in range(i + 1)])",
        ["tests/test_appell_oracles.py::test_sheffer_kinds_match_closed_form[sheffer-exp-shift]"],
    ),
    "pascal-read-off-mod-2-192": (
        "pairs.py",
        "[math.perm(i, i - k) * f[i - k] for k in range(i + 1)]",
        "[math.perm(i, i - k) % 2**192 * f[i - k] for k in range(i + 1)]",
        ["tests/test_appell_oracles.py::test_appell_rows_match_closed_form_at_200"],
    ),
    "contract-drops-the-slope-factor": (
        "pairs.py",
        "            left, right = left * h[1], right * dh",
        "            left, right = left, right * dh",
        ["tests/test_pairs.py::test_leading_coefficients_follow_a_non_unit_slope"],
    ),
    # -- pairs: the production-matrix arrays and g ---------------------------------
    "production-z-from-b-alone": (
        "pairs.py",
        "        z = c if power == 1 else [u + v for u, v in zip(b, c)]",
        "        z = c if power == 1 else b",
        ["tests/test_derived.py::test_derived_series_match_reference_on_random_pairs"],
    ),
    "production-reads-a-k-minus-1": (
        "pairs.py",
        "terms = [(a[k], z[k], polys[i], k) for k in range(i + 1)]",
        "terms = [(a[k - 1], z[k], polys[i], k) for k in range(i + 1)]",
        ["tests/test_derived.py::test_derived_series_match_reference_on_random_pairs"],
    ),
    "g-read-off-column-2": (
        "pairs.py",
        "lq // den * p[k] for den, p in rows[k:]]) for k in (0, 1)]",
        "lq // den * p[k] for den, p in rows[k:]]) for k in (0, 2)]",
        ["tests/test_series.py::test_inverse_is_the_g_of_the_associated_pair"],
    ),
    "production-start-row-drops-its-sign": (
        "pairs.py",
        "polys = [Poly._reduced(rd**power, [r[0] ** power])]",
        "polys = [Poly._reduced(rd**power, [abs(r[0]) ** power])]",
        ["tests/test_derived.py::test_derived_series_match_reference_on_random_pairs"],
    ),
    # y^13 added to the "3.2" a-series when |h'(0)| != 1 and the order is above
    # 13: no catalog family and no test at orders 2-12 reaches it.
    "mixed-a-gains-y13-off-catalog": (
        "pairs.py",
        "        return _vectors((hp, -hp * self._lp_over_l, -self._of_g))",
        "        a = hp\n"
        "        if abs(self.h.row[1][1]) != self.h.row[0] and hp.order > 13:\n"
        "            y13 = [0] * 13 + [1] + [0] * (hp.order - 13)\n"
        "            a = hp + TruncatedSeries._reduced(1, y13)\n"
        "        return _vectors((a, -hp * self._lp_over_l, -self._of_g))",
        ["tests/test_random_sheffer_pairs.py::test_a_seeded_pair_at_order_60"],
    ),
    # "3.2"'s a = h'(g) replaced by g' = 1/h'(g): equal for h = y, so only a
    # pair with h != y sees it, the associated pairs among them.
    "mixed-row-drops-the-reciprocal": (
        "pairs.py",
        "hp = self.g.derivative().reciprocal()",
        "hp = self.g.derivative()",
        ["tests/test_acceptance.py::test_criterion_5_associated_specializations"],
    ),
    # D added to b[2] of the "3.1" row when h is not y.  Both arrays are built
    # from that row, so the "3.1" residual stays zero; "3.1" is read off the
    # factorization there.
    "derivative-recurrence-b2-gains-d-off-y": (
        "pairs.py",
        "        return _vectors(self._recurrence_series)\n",
        "        den, a, b, c = _vectors(self._recurrence_series)\n"
        "        if not self.h.is_identity and len(b) > 2:\n"
        "            b = [*b[:2], b[2] + den, *b[3:]]\n"
        "        return den, a, b, c\n",
        ["tests/test_verify.py::test_a_corrupted_row_fails_its_label[3.1-log-assoc]"],
    ),
    # -- cost: work done twice moves a cell of tests/cost_budgets.json ----------
    "lp-over-l-built-on-every-read": (
        "pairs.py",
        "    @cached_property\n    def _lp_over_l",
        "    @property\n    def _lp_over_l",
        ["tests/test_cost_budgets.py::test_counts_equal_the_budgets"],
    ),
    "factorization-product-rebuilt-on-every-call": (
        "identities.py",
        "if rhs is None or rhs.rows <= n:",
        "if True:",
        ["tests/test_cost_budgets.py::test_counts_equal_the_budgets"],
    ),
    # -- sequences, families --------------------------------------------------
    "appell-sequence-without-the-reciprocal": (
        "sequences.py",
        "pascal_polys(l.truncate(n).reciprocal())",
        "pascal_polys(l.truncate(n))",
        ["tests/test_sequences.py::test_appell_sequence_function"],
    ),
    "binomial-series-flips-alpha": (
        "families.py",
        "coeffs[-1] * (k - alpha) / (k + 1)",
        "coeffs[-1] * (k + alpha) / (k + 1)",
        ["tests/test_appell_oracles.py::test_appell_rows_match_closed_form"],
    ),
    # -- polynomials ----------------------------------------------------------
    "combination-takes-perm-for-comb": (
        "polynomials.py",
        "row = [math.comb(m, k) * c for m, c in enumerate(p[k:], k)] if k else p",
        "row = [math.perm(m, k) * c for m, c in enumerate(p[k:], k)] if k else p",
        ["tests/test_row_kernels.py::test_derivative_combination"],
    ),
    "derivative-takes-comb-for-perm": (
        "polynomials.py",
        "[math.perm(i, k) * c for i, c in enumerate(p[k:], k)]",
        "[math.comb(i, k) * c for i, c in enumerate(p[k:], k)]",
        ["tests/test_row_kernels.py::test_poly_operations"],
    ),
    # -- identities -----------------------------------------------------------
    "convolution-starts-at-k-1": (
        "identities.py",
        "s[n - k], 0) for k, w in enumerate(weights)]",
        "s[n - k], 0) for k, w in enumerate(weights) if k]",
        ["tests/test_acceptance.py::test_criterion_2_recurrences"],
    ),
    "coeff-triple-left-unreduced": (
        "identities.py",
        "g = math.gcd(den, *a, *b, *c)",
        "g = 1",
        ["tests/test_identities.py::test_coeff_triple_is_one_canonical_integer_row"],
    ),
    "derivative-residual-flips-sA-n-plus-1": (
        "identities.py",
        "terms.append((0, den, s[n + 1], 0))",
        "terms.append((0, -den, s[n + 1], 0))",
        ["tests/test_acceptance.py::test_criterion_2_recurrences"],
    ),
    "factorization-misses-row-n": (
        "identities.py",
        "    return n + 1\n",
        "    return n\n",
        ["tests/test_verify.py::test_lemma_checks"],
    ),
    "factorization-composes-l-for-its-reciprocal": (
        "identities.py",
        "pascal_matrix(rl.compose(pair.h.truncate(n)), n)",
        "pascal_matrix(pair.l.truncate(n).compose(pair.h.truncate(n)), n)",
        ["tests/test_verify.py::test_lemma_checks"],
    ),
    # -- matrices -------------------------------------------------------------
    "pascal-matrix-takes-comb-for-perm": (
        "matrices.py",
        "[math.perm(i, i - j) * p[i - j] if i >= j else 0",
        "[math.comb(i, i - j) * p[i - j] if i >= j else 0",
        ["tests/test_matrices.py::test_pascal_matrix_is_its_definition"],
    ),
    "powers-matrix-without-i-factorial": (
        "matrices.py",
        "[math.factorial(i) * s * p[i] for s, p in scaled]",
        "[s * p[i] for s, p in scaled]",
        ["tests/test_matrices.py::test_powers_matrix_is_repeated_series_products"],
    ),
    # -- verify ---------------------------------------------------------------
    "property-suite-draws-another-stream": (
        "verify.py",
        "            n = rng.randint(low, 8)",
        "            n = rng.randint(low, 7)",
        ["tests/test_verify.py::test_property_suite_draws_a_fixed_stream"],
    ),
    "lemma-passes-the-first-bad-size": (
        "verify.py",
        'CheckResult(f"factorization n={d}", d < bad)',
        'CheckResult(f"factorization n={d}", d <= bad)',
        ["tests/test_derived.py::test_lemma_sweep_fails_from_the_first_bad_row"],
    ),
    # -- cli ------------------------------------------------------------------
    "audit-stream-adds-a-space": (
        "cli.py",
        '            sep = ","',
        '            sep = ", "',
        ["tests/test_cli.py::test_audit_json_is_streamed_as_the_bytes_of_one_dump"],
    ),
    "n-gate-lets-max-n-plus-1-through": (
        "cli.py",
        "    if n > MAX_N:\n",
        "    if n > MAX_N + 1:\n",
        ["tests/test_cli.py::test_cli_contract[gen-MAX_N+1]"],
    ),
    "n-gate-lets-minus-1-through": (
        "cli.py",
        "    if n < 0:\n",
        "    if n < -1:\n",
        ["tests/test_cli.py::test_cli_contract[gen-n=-1]"],
    ),
    "digit-cap-lets-10-to-the-cap-through": (
        "cli.py",
        ">= 10**MAX_PARAM_DIGITS",
        "> 10**MAX_PARAM_DIGITS",
        [
            "tests/test_cli.py::test_cli_contract[param-10**12-numerator]",
            "tests/test_cli.py::test_cli_contract[param-10**12-denominator]",
        ],
    ),
    "audit-gate-lets-n-2-through": (
        "cli.py",
        'args.verb == "audit" and n < 3',
        'args.verb == "audit" and n < 2',
        ["tests/test_cli.py::test_cli_contract[audit-n=2]"],
    ),
    "repeated-param-overwrites": (
        "cli.py",
        "        if name in params:\n",
        "        if False:\n",
        ["tests/test_cli.py::test_cli_contract[param-repeated]"],
    ),
    # -- audit ----------------------------------------------------------------
    "printed-table-not-sliced-per-degree": (
        "audit.py",
        "(den, *[v[: d + 1] for v in vectors])",
        "(den, *[v[: n + 1] for v in vectors])",
        ["tests/test_audit.py::test_vectors_are_sliced_per_degree"],
    ),
    "laguerre-printed-a-drops-a-sign": (
        "audit.py",
        "    a = [-1, 2, -2] + [0] * (n - 2)",
        "    a = [-1, 2, 2] + [0] * (n - 2)",
        ["tests/test_audit.py::test_report_json_at_nonzero_parameters"],
    ),
}

# A pytest plugin, written into the copy: the hypothesis profile of the runs,
# and a check that the package is imported from the copy.
PLUGIN = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutants",
    database=None,
    phases=[p for p in Phase if p not in (Phase.shrink, Phase.explain)],
)
settings.load_profile("mutants")


def pytest_sessionstart(session):
    import sheffermat

    if not sheffermat.__file__.startswith({src!r}):
        raise RuntimeError(f"sheffermat imported from {{sheffermat.__file__}}")
"""


def run_tests(copy: Path, tests: list[str]) -> tuple[int, str]:
    """pytest's exit code and output for ``tests`` on the copy's package."""
    argv = ["-x", "-q", "-p", "no:cacheprovider", "-p", "mutant_plugin"]
    argv += ["-o", f"pythonpath={copy / 'src'}", *tests]
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT} s"
    return run.returncode, run.stdout + run.stderr


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = {name: MUTANTS[name] for name in names or MUTANTS}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(
            ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        package = copy / "src" / "sheffermat"
        (copy / "mutant_plugin.py").write_text(PLUGIN.format(src=str(package)))
        named = sorted({test for *_, tests in chosen.values() for test in tests})
        code, output = run_tests(copy, named)
        if code != 0:
            print(output + "\nthe named tests fail on the unedited copy", file=sys.stderr)
            return 2
        survivors = []
        for name, (module, old, new, tests) in chosen.items():
            path = package / module
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{name}: the old text is not once in {module}", file=sys.stderr)
                return 2
            path.write_text(text.replace(old, new), encoding="utf-8")
            began = time.perf_counter()
            code, output = run_tests(copy, tests)
            path.write_text(text, encoding="utf-8")
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (exit {code})")
            print(f"{verdict:<9} {name}  ({time.perf_counter() - began:.1f} s)")
            if code != 1:
                survivors.append(name)
                if code != 0:
                    print(output, file=sys.stderr)
    took = time.perf_counter() - start
    killed = len(chosen) - len(survivors)
    print(f"{killed}/{len(chosen)} mutants killed in {took:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
