"""The pure helpers of ``tools/scaling.py``: bit sizes, the exponent fit, the
shape of a cell's record, the pairs won, the digest comparison and the fixed
grid."""

import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "scaling.py"
spec = importlib.util.spec_from_file_location("scaling", PATH)
scaling = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scaling)


@pytest.mark.parametrize(
    "text, want",
    [
        ("", (0, 0)),
        ("residual[2.1] n=0=True", (2, 1)),  # 2, 1 and 0, each over 1
        ('{"a": ["-255/2", "1/3", "7"]}', (8, 2)),
        ("[0,1/1024]", (1, 11)),
        (str(-(2**300)) + "/" + str(3**5), (301, 8)),
    ],
)
def test_bit_sizes(text, want):
    assert scaling.bit_sizes(text) == want


def test_fit_exponent_uses_the_two_largest_sizes():
    assert scaling.fit_exponent({100: 1.0, 200: 4.0}) == 2.0
    assert scaling.fit_exponent({25: 9.0, 50: 1.0, 100: 8.0}) == 3.0
    assert scaling.fit_exponent({100: 2.0, 200: 2.0}) == 0.0
    assert scaling.fit_exponent({50: 1.0, 100: 1.5}) == round(math.log2(1.5), 3)
    assert scaling.fit_exponent({None: 1.0}) is None
    assert scaling.fit_exponent({200: 1.0}) is None


def test_measurement_and_cell_record_shape():
    m = scaling.measurement([0.3, 0.1, 0.2, 0.4, 0.5], "[1/3]", 0, True)
    assert m == {
        "seconds": 0.1,
        "quartiles": [0.2, 0.3, 0.4],
        "runs": 5,
        "sha256": hashlib.sha256(b"[1/3]").hexdigest(),
        "peak_num_bits": 1,
        "peak_den_bits": 2,
        "exit": 0,
    }
    checks = scaling.measurement([0.2, 0.2], "[True,False]", 0, False)
    assert checks["peak_num_bits"] is checks["peak_den_bits"] is None
    assert checks["quartiles"] == [0.2, 0.2, 0.2]
    slow = dict(m, seconds=0.4)
    record = scaling.cell_record(
        "lemma hermite", "library",
        {200: {"parent": slow, "change": slow, "change_wins": 4},
         100: {"parent": m, "change": m, "change_wins": 0}},
    )
    assert record == {
        "cell": "lemma hermite",
        "kind": "library",
        "points": [{"n": 100, "parent": m, "change": m, "change_wins": 0},
                   {"n": 200, "parent": slow, "change": slow, "change_wins": 4}],
        "exponent": {"parent": 2.0, "change": 2.0},
    }
    one = scaling.cell_record("families", "cli", {None: {"parent": m, "change": m}})
    assert one["points"] == [{"n": None, "parent": m, "change": m}]
    assert one["exponent"] == {"parent": None, "change": None}


def test_change_wins_counts_strict_wins_by_pair():
    seconds = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 2.0, 3.5, 1.0]}
    assert scaling.change_wins(seconds) == 2  # the tie at 2.0 counts for neither


def test_only_coefficient_cells_record_bit_sizes():
    firsts = {name.split()[0] for name, _, _ in scaling.grid()}
    assert firsts == {"gen", "verify", "audit", "families", "lemma", "array", "g", "sweep"}
    assert set(scaling.COEFFICIENT_CELLS) == {"gen", "audit", "lemma", "array", "g"}


def test_digest_mismatches_name_the_points_that_differ():
    m = scaling.measurement([0.1, 0.1], "[1]", 0, True)
    other, failed = dict(m, sha256="0" * 64), dict(m, exit=1)
    cells = [
        scaling.cell_record("gen hermite", "cli", {
            25: {"parent": m, "change": dict(m, seconds=9.0)},
            50: {"parent": m, "change": other},
        }),
        scaling.cell_record("audit", "cli", {25: {"parent": m, "change": failed}}),
    ]
    assert scaling.digest_mismatches(cells) == ["gen hermite n=50", "audit n=25"]


def test_the_grid_is_fixed():
    cells = scaling.grid()
    names = [name for name, _, _ in cells]
    assert len(names) == len(set(names)) == 6 * 2 + 3 + 6 * 7
    sizes = {name: list(by_n) for name, _, by_n in cells}
    assert sizes["gen laguerre-5/2"] == sizes["audit"] == [25, 50, 100]
    assert sizes["lemma miller-lee-1"] == [100, 200]
    assert sizes["sweep 3.3 log-assoc"] == sizes["g bernoulli"] == [200]
    assert sizes["families"] == [None]
    _, kind, by_n = cells[names.index("verify --all --lemma laguerre-0")]
    assert kind == "cli" and by_n[100] == [
        "verify", "--all", "--lemma", "--family", "laguerre", "--param=lambda=0",
        "--n", "100",
    ]
