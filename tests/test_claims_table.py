"""The claims table in README.md names tests that exist.

Each row of the table gives one result of the package and its home in
tier-1, a test id ``tests/<module>.py::<function>``; as
``test_mutant_catalog`` does for the mutant catalog, the id must name a
module and a function defined in it, so the table cannot go stale silently.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = "| Claim | Home | Grid |\n|---|---|---|\n"


def test_each_home_names_a_test_function():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme.count(HEADER) == 1
    rows = []
    for line in readme.partition(HEADER)[2].splitlines():
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert 1 <= len(rows) <= 15
    for claim, home, _grid in rows:
        match = re.fullmatch(r"`(tests/\w+\.py)::(\w+)`", home)
        assert match, claim
        source = (ROOT / match[1]).read_text(encoding="utf-8")
        assert re.search(rf"^def {match[2]}\(", source, re.M), home
