"""The mutant catalog of ``tests/mutants.py`` still applies to ``src/``.

Running the catalog takes about a minute, so tier-1 does not run it; it
checks that every mutant can still be applied and names tests that exist.
"""

import ast
import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sheffermat"


@pytest.mark.parametrize("name", MUTANTS)
def test_each_old_text_occurs_exactly_once(name):
    module, old, new, tests = MUTANTS[name]
    text = (PACKAGE / module).read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{name}: the old text is not once in {module}"
    assert old != new
    ast.parse(text.replace(old, new))  # the mutant is still a module
    for test in tests:
        path, _, node = test.partition("::")
        assert (ROOT / path).is_file(), test
        if node:
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(node)}\(", source, re.M), test


def test_every_module_that_holds_code_has_a_mutant():
    modules = {p.name for p in PACKAGE.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert {module for module, *_ in MUTANTS.values()} == modules
    assert len(MUTANTS) >= 20
