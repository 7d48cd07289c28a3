"""Self-tests of the benchmark.  Run: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from session_worker import build_pool, run_task, serialize  # noqa: E402
from tracing import read_spans, self_times  # noqa: E402
from workloads import WORKLOADS, Request, grid, request_list  # noqa: E402


def _families_output() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "sheffermat", "families", "--format", "json"],
        cwd=ROOT, env=run.child_env(), capture_output=True, check=False,
    )


def test_digest_gate_accepts_the_frozen_output_and_rejects_a_corrupted_one():
    reference = run.load_reference()
    proc = _families_output()
    verdict = run.check_output("families", proc.returncode, proc.stdout, proc.stderr, reference)
    assert verdict is None
    corrupted = proc.stdout.replace(b"laguerre", b"laguerrf", 1)
    assert run.check_output("families", 0, corrupted, b"", reference) is not None
    assert run.check_output("families", 3, proc.stdout, b"", reference) is not None
    traceback = b"Traceback (most recent call last):\n"
    assert run.check_output("families", 0, proc.stdout, traceback, reference) is not None


def test_session_digest_matches_the_reference():
    cell = "task|hermite|appell|8"
    digest = hashlib.sha256(serialize(run_task(build_pool(), cell))).hexdigest()
    assert digest == run.load_reference()[cell]["sha256"]


def test_every_grid_cell_has_a_reference():
    reference = run.load_reference()
    assert all(cell in reference for w in WORKLOADS for cell in grid(w))


def test_request_lists_are_identical_for_the_same_seed():
    for workload in WORKLOADS:
        first = request_list(workload, 7, 30)
        assert first == request_list(workload, 7, 30)
        assert first != request_list(workload, 8, 30)
        assert {r.cell for r in first} <= set(grid(workload))


def test_seeds_change_the_cells_but_not_the_mix_of_a_pass():
    def mix(workload, seed):
        cells = [r.cell for r in request_list(workload, seed, 45)]
        if workload == "session":
            return Counter(c.rsplit("|", 1)[0] if "|hermite|" in c else c.split("|")[1]
                           for c in cells)
        return Counter(c.split("|")[0] for c in cells)

    for workload in WORKLOADS:
        assert mix(workload, 1) == mix(workload, 2) == mix(workload, 1001)


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_rank(100) == 90 and run.tail_percentile(100) == 90.0
    assert run.tail_rank(56) == 46
    assert run.tail_rank(11) == 1
    assert run.tail_rank(5) == 5 and run.tail_percentile(5) == 100.0


def test_self_times_are_never_negative():
    spans = [
        {"id": 0, "name": "root", "parent": None, "start": 0, "end": 100},
        {"id": 1, "name": "a", "parent": 0, "start": 10, "end": 60},
        {"id": 2, "name": "b", "parent": 0, "start": 50, "end": 130},
        {"id": 3, "name": "c", "parent": 1, "start": 10, "end": 60},
    ]
    selfs = self_times(spans)
    assert min(selfs.values()) >= 0
    assert selfs == {0: 10, 1: 0, 2: 80, 3: 50}


def test_traced_request_spans_nest_and_keep_stdout(tmp_path):
    spans_file = tmp_path / "spans.jsonl"
    argv = ["gen", "--family", "laguerre", "--param", "lambda=0", "--n", "10"]
    traced = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), "r0", *argv],
        cwd=ROOT, env=run.child_env(), capture_output=True, check=True,
    )
    plain = subprocess.run(
        [sys.executable, "-m", "sheffermat", *argv],
        cwd=ROOT, env=run.child_env(), capture_output=True, check=True,
    )
    assert traced.stdout == plain.stdout
    spans = read_spans(os.fspath(spans_file))
    selfs = self_times(spans)
    (root,) = [s for s in spans if s["parent"] is None]
    assert min(selfs.values()) >= 0
    assert sum(selfs.values()) == root["end"] - root["start"]
    assert {s["name"] for s in spans} >= {
        "cli.main", "families.make_pair", "sequences.generate",
        "series.compositional_inverse", "series.compose", "series.exp",
    }


def test_traced_session_task_is_checked_and_spanned():
    request = Request("session", "task|miller-lee-1|appell|8", 0)
    (outcome,), _ = run.run_session_list([request], run.load_reference(), traced=True)
    assert outcome.error is None
    (root,) = [s for s in outcome.spans if s["parent"] is None]
    assert root["name"] == "session.task" and root["output"]["coeffs"] > 0
    assert {s["request"] for s in outcome.spans} == {root["request"]}
