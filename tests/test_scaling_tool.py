"""``tools/scaling.py``: bit sizes, the exponent fit, the shape of a cell's
record, the pairs won, the fixed grid, a run that differs from its point's
first run, and one real point."""

import hashlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PATH = ROOT / "tools" / "scaling.py"
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
    out = scaling.output_record("[1/3]", 0, True)
    assert out == {
        "sha256": hashlib.sha256(b"[1/3]").hexdigest(),
        "exit": 0,
        "peak_num_bits": 1,
        "peak_den_bits": 2,
    }
    checks = scaling.output_record("[True,False]", 1, False)
    assert checks["peak_num_bits"] is checks["peak_den_bits"] is None
    assert checks["exit"] == 1
    m = scaling.measurement([0.3, 0.1, 0.2, 0.4, 0.5])
    assert m == {"seconds": 0.1, "quartiles": [0.2, 0.3, 0.4]}
    assert scaling.measurement([0.2, 0.2]) == {"seconds": 0.2, "quartiles": [0.2, 0.2, 0.2]}
    slow = dict(m, seconds=0.4)
    record = scaling.cell_record(
        "lemma hermite", "library",
        {200: {**out, "parent": slow, "change": slow, "change_wins": 4},
         100: {**out, "parent": m, "change": m, "change_wins": 0}},
    )
    assert record == {
        "cell": "lemma hermite",
        "kind": "library",
        "points": [{"n": 100, **out, "parent": m, "change": m, "change_wins": 0},
                   {"n": 200, **out, "parent": slow, "change": slow, "change_wins": 4}],
        "exponent": {"parent": 2.0, "change": 2.0},
    }
    one = scaling.cell_record("families", "cli", {None: {**out, "parent": m, "change": m}})
    assert one["points"] == [{"n": None, **out, "parent": m, "change": m}]
    assert one["exponent"] == {"parent": None, "change": None}


def test_change_wins_counts_strict_wins_by_pair():
    seconds = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 2.0, 3.5, 1.0]}
    assert scaling.change_wins(seconds) == 2  # the tie at 2.0 counts for neither


def test_only_coefficient_cells_record_bit_sizes():
    firsts = {name.split()[0] for name, _, _ in scaling.grid()}
    assert firsts == {"gen", "verify", "audit", "families", "lemma", "array", "g", "sweep"}
    assert set(scaling.COEFFICIENT_CELLS) == {"gen", "audit", "lemma", "array", "g"}


def fake_runs(monkeypatch, differing_call, differing_output):
    """Replace ``run_once``: every call gives ("[1/3]", 0) but the given one."""
    calls = []

    def run_once(kind, argv, src):
        calls.append(src.name)
        return (0.1, *differing_output) if len(calls) == differing_call else (0.1, "[1/3]", 0)

    monkeypatch.setattr(scaling, "run_once", run_once)
    return calls


FAKE_TREES = {"parent": Path("parent"), "change": Path("change")}


@pytest.mark.parametrize("differing_output", [("[1/4]", 0), ("[1/3]", 1)], ids=["text", "exit"])
def test_a_run_that_differs_stops_the_grid(monkeypatch, tmp_path, differing_output):
    calls = fake_runs(monkeypatch, 3, differing_output)
    cells = [("gen hermite", "cli", {25: ["gen"], 50: ["gen"]}), ("families", "cli", {None: []})]
    # the 3rd run is the second pair's first, on the change
    message = "gen hermite n=25: run 2 on change differs from the point's first run"
    with pytest.raises(SystemExit, match=f"^{message}$"):
        scaling.run_grid(cells, FAKE_TREES)
    assert calls == ["parent", "change", "change"]
    # all 20 runs of n=25 agree; the differing 21st run is n=50's first, which
    # fixes that point's output, so the run after it differs
    fake_runs(monkeypatch, 2 * scaling.RUNS + 1, differing_output)
    with pytest.raises(SystemExit, match="^gen hermite n=50: run 1 on change "):
        scaling.run_grid(cells, FAKE_TREES)

    calls = fake_runs(monkeypatch, 3, differing_output)
    out = tmp_path / "BENCH.json"
    out.write_text("[]\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text("")
    with pytest.raises(SystemExit) as info:
        scaling.main(["--parent", str(tmp_path), "--out", str(out)])
    # a message as the exit code: printed to stderr, exit status 1
    assert info.value.code.startswith("gen laguerre-0 n=25: run 2 on change differs")
    assert len(calls) == 3
    assert out.read_text() == "[]\n"
    # the parent's bytecode was compiled before the grid
    assert list((tmp_path / "src" / "__pycache__").glob("module.*.pyc"))


def test_one_real_point_has_the_record_shape():
    """``families`` with both trees this src: 20 runs of the CLI."""
    src = ROOT / "src"
    [record] = scaling.run_grid([("families", "cli", {None: ["families"]})],
                                {"parent": src, "change": src})
    stdout = subprocess.run(
        [sys.executable, "-m", "sheffermat", "families"], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": str(src)},
    ).stdout
    [point] = record["points"]
    assert list(point) == ["n", "sha256", "exit", "peak_num_bits", "peak_den_bits",
                           "parent", "change", "change_wins"]
    assert point["sha256"] == hashlib.sha256(stdout.encode()).hexdigest()
    assert (point["n"], point["exit"], point["peak_num_bits"], point["peak_den_bits"]) == (
        None, 0, None, None)
    for tree in scaling.TREES:
        assert list(point[tree]) == ["seconds", "quartiles"]
        assert 0 < point[tree]["seconds"] <= min(point[tree]["quartiles"])
        assert point[tree]["quartiles"] == sorted(point[tree]["quartiles"])
    assert 0 <= point["change_wins"] <= scaling.RUNS
    assert record["exponent"] == {"parent": None, "change": None}
    assert json.loads(json.dumps(record)) == record


def test_the_grid_is_fixed():
    cells = scaling.grid()
    names = [name for name, _, _ in cells]
    # g only on the three pairs with h != y
    assert len(names) == len(set(names)) == 6 * 2 + 3 + 6 * 6 + 3 == 54
    sizes = {name: list(by_n) for name, _, by_n in cells}
    assert sum(map(len, sizes.values())) == 86
    assert sizes["gen laguerre-5/2"] == sizes["audit"] == [25, 50, 100]
    assert sizes["lemma miller-lee-1"] == [100, 200]
    assert sizes["sweep 3.3 log-assoc"] == sizes["g log-assoc"] == [200]
    assert [name for name in names if name.startswith("g ")] == [
        "g laguerre-0", "g laguerre-5/2", "g log-assoc"]
    assert sizes["families"] == [None]
    _, kind, by_n = cells[names.index("verify --all --lemma laguerre-0")]
    assert kind == "cli" and by_n[100] == [
        "verify", "--all", "--lemma", "--family", "laguerre", "--param=lambda=0",
        "--n", "100",
    ]
