"""Benchmark of sheffermat: CLI requests and a library session.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop with one client.  A run executes a fixed
number of seeded passes (see ``workloads.py``), checks every output
against the frozen digests in ``reference.json`` and prints one line per
metric, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the first pass is
run once untraced and once traced, and the metrics are the per-layer ones
computed from the spans (written to ``.perfbench/``).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

from tracing import read_spans, self_times  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_CELL,
    WORKLOADS,
    Request,
    cell_argv,
    request_list,
)

CAP_SECONDS = 60.0
SETUP_REPEATS = 9
TAIL_BEYOND = 10

# Span name -> per-layer metric of its self time (mean seconds per request).
SELF_METRICS = {
    "cli.main": "cli.main_self_s",
    "session.task": "session.task_self_s",
    "families.make_pair": "families.make_pair_s",
    "series.compositional_inverse": "series.compositional_inverse_s",
    "series.compose": "series.compose_s",
    "series.reciprocal": "series.reciprocal_s",
    "series.exp": "series.exp_s",
    "sequences.generate": "sequences.generate_self_s",
    "identities.extract": "identities.extract_self_s",
    "identities.residual": "identities.residual_self_s",
    "identities.factorization": "identities.factorization_self_s",
    "matrices.pascal": "matrices.pascal_s",
    "matrices.wronskian_powers": "matrices.wronskian_powers_s",
    "matrices.matmul": "matrices.matmul_s",
    "verify.residual_checks": "verify.residual_checks_s",
    "verify.lemma_checks": "verify.lemma_checks_s",
    "verify.property_suite": "verify.property_suite_s",
    "audit.run": "audit.run_s",
}
# Span name -> per-layer metric counting its calls over the run.
CALL_METRICS = {
    "series.compositional_inverse": "series.compositional_inverse_calls",
    "sequences.generate": "sequences.calls",
    "identities.extract": "identities.extract_calls",
}


@dataclass
class Outcome:
    """One finished request: its latency and why it failed, if it did."""

    request: Request
    seconds: float
    error: str | None = None
    spans: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NO_COLOR"] = "1"
    return env


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["cells"]


def check_output(cell: str, exit_code: int, stdout: bytes, stderr: bytes,
                 reference: dict) -> str | None:
    """Why an output is wrong, or None when it matches the frozen cell."""
    ref = reference.get(cell)
    if ref is None:
        return "cell has no reference"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    if hashlib.sha256(stdout).hexdigest() != ref["sha256"]:
        return "output digest differs from the reference"
    return None


def tail_rank(count: int) -> int:
    """1-based rank of the tail latency among ``count`` sorted samples: the
    highest nearest-rank percentile with TAIL_BEYOND samples above it, or
    the maximum when there are too few samples for that."""
    return count - TAIL_BEYOND if count > TAIL_BEYOND else count


def tail_percentile(count: int) -> float:
    return 100.0 * tail_rank(count) / count


# -- CLI workloads -----------------------------------------------------------


def run_cli(request: Request, rid: str, reference: dict, traced: bool) -> Outcome:
    argv = cell_argv(request.cell)
    if traced:
        spans_file = OUT / f"spans-{os.getpid()}-{rid}.jsonl"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file), rid, *argv]
    else:
        cmd = [sys.executable, "-m", "sheffermat", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=CAP_SECONDS)
    except subprocess.TimeoutExpired:
        return Outcome(request, CAP_SECONDS, f"over the {CAP_SECONDS:g} s cap")
    outcome = Outcome(request, time.perf_counter() - start)
    outcome.error = check_output(request.cell, proc.returncode, proc.stdout,
                                 proc.stderr, reference)
    if traced:
        if spans_file.exists():
            outcome.spans = read_spans(str(spans_file))
            spans_file.unlink()
        elif outcome.error is None:
            outcome.error = "no spans written"
    return outcome


def run_cli_list(requests: list[Request], reference: dict, traced: bool):
    start = time.perf_counter()
    outcomes = [run_cli(r, str(i), reference, traced) for i, r in enumerate(requests)]
    return outcomes, time.perf_counter() - start


def cli_setup(reference: dict) -> tuple[list[float], list[str]]:
    times, errors = [], []
    for _ in range(SETUP_REPEATS):
        outcome = run_cli(Request("setup", SETUP_CELL, 0), "setup", reference, False)
        times.append(outcome.seconds)
        if outcome.error:
            errors.append(outcome.error)
    return times, errors


# -- session workload --------------------------------------------------------


class Worker:
    """One session_worker.py process, talked to one JSON line at a time."""

    def __init__(self, *flags: str):
        OUT.mkdir(exist_ok=True)
        self.stderr_path = OUT / f"worker-{os.getpid()}.stderr"
        self._stderr = open(self.stderr_path, "w+b")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "session_worker.py"), *flags],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )

    def read(self, timeout: float) -> dict | None:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def ask(self, rid: str, cell: str) -> dict | None:
        self.proc.stdin.write(json.dumps({"id": rid, "cell": cell}) + "\n")
        self.proc.stdin.flush()
        return self.read(CAP_SECONDS)

    def close(self) -> bytes:
        """End the worker and return what it wrote on stderr."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=CAP_SECONDS)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.seek(0)
        err = self._stderr.read()
        self._stderr.close()
        self.stderr_path.unlink()
        return err


def run_session_list(requests: list[Request], reference: dict, traced: bool):
    outcomes: list[Outcome] = []
    busy = 0.0
    for p in sorted({r.pass_index for r in requests}):
        spans_file = OUT / f"spans-{os.getpid()}-session-{p}.jsonl"
        worker = Worker(*(["--spans", str(spans_file)] if traced else []))
        batch: dict[str, Outcome] = {}
        alive = worker.read(CAP_SECONDS) is not None
        start = time.perf_counter()
        for i, request in enumerate(r for r in requests if r.pass_index == p):
            rid = f"{p}.{i}"
            t0 = time.perf_counter()
            reply = worker.ask(rid, request.cell) if alive else None
            outcome = batch[rid] = Outcome(request, time.perf_counter() - t0)
            if reply is None:
                alive = False
                outcome.error = "worker gave no answer within the cap"
            elif reply["error"]:
                outcome.error = reply["error"].strip().splitlines()[-1]
            elif reply["sha256"] != reference.get(request.cell, {}).get("sha256"):
                outcome.error = "result digest differs from the reference"
        busy += time.perf_counter() - start
        if b"Traceback" in worker.close():
            for outcome in batch.values():
                outcome.error = outcome.error or "traceback on worker stderr"
        if traced and spans_file.exists():
            for span in read_spans(str(spans_file)):
                batch[span["request"]].spans.append(span)
            spans_file.unlink()
        outcomes += batch.values()
    return outcomes, busy


def session_setup() -> tuple[list[float], list[str]]:
    times, errors = [], []
    for _ in range(SETUP_REPEATS):
        worker = Worker("--setup-only")
        ready = worker.read(CAP_SECONDS)
        times.append(time.perf_counter() - worker.started)
        if b"Traceback" in worker.close() or ready is None:
            errors.append("session worker failed to start")
    return times, errors


# -- metrics -----------------------------------------------------------------


def end_to_end(outcomes: list[Outcome], busy: float, setup: list[float]) -> dict:
    ok = sorted(o.seconds for o in outcomes if o.error is None)
    rank = tail_rank(len(ok)) if ok else 1
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "requests_per_s": (len(ok) / busy, "1/s"),
        "latency_p50_s": (statistics.median(ok) if ok else CAP_SECONDS, "s"),
        "latency_tail_s": (ok[rank - 1] if ok else CAP_SECONDS, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def pair_revisit_share(requests: list[Request]) -> float:
    """Share of session tasks whose pair an earlier task of the same worker
    already studied; 0 for the CLI workloads, where no process is shared."""
    if requests[0].workload != "session":
        return 0.0
    seen, revisits = set(), 0
    for r in requests:
        key = (r.pass_index, r.cell.split("|")[1])
        revisits += key in seen
        seen.add(key)
    return revisits / len(requests)


def per_layer(outcomes: list[Outcome], untraced_busy: float, traced_busy: float,
              requests: list[Request]) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the trace's consistency problems."""
    n = len(outcomes)
    problems = []
    self_ns = dict.fromkeys(SELF_METRICS.values(), 0)
    calls = dict.fromkeys(CALL_METRICS.values(), 0)
    outside = {"cli.process_s": 0.0, "session.ipc_s": 0.0}
    seq_repeats = checks = checks_failed = coeffs = bits = num_bits = den_bits = 0
    accounted = 0.0
    for outcome in outcomes:
        spans = outcome.spans
        roots = [s for s in spans if s["parent"] is None]
        if len(roots) != 1:
            problems.append(f"request {outcome.request.cell}: {len(roots)} root spans")
            continue
        root = roots[0]
        selfs = self_times(spans)
        if any(v < 0 for v in selfs.values()):
            problems.append(f"request {outcome.request.cell}: negative self time")
        if abs(sum(selfs.values()) - (root["end"] - root["start"])) > len(spans):
            problems.append(f"request {outcome.request.cell}: spans are not nested")
        key = "cli.process_s" if root["name"] == "cli.main" else "session.ipc_s"
        outside_s = outcome.seconds - (root["end"] - root["start"]) / 1e9
        outside[key] += outside_s
        accounted += outside_s + sum(selfs.values()) / 1e9
        for span in spans:
            name = span["name"]
            self_ns[SELF_METRICS[name]] += selfs[span["id"]]
            if name in CALL_METRICS:
                calls[CALL_METRICS[name]] += 1
            seq_repeats += bool(span.get("repeat"))
            checks += span.get("checks", 0)
            checks_failed += span.get("failed", 0)
            out = span.get("output")
            if out:
                coeffs += out["coeffs"]
                bits += out["bits"]
                num_bits = max(num_bits, out["num_bits"])
                den_bits = max(den_bits, out["den_bits"])
    wall = sum(o.seconds for o in outcomes)
    if abs(accounted - wall) > 1e-3 * max(wall, 1.0):
        problems.append(f"self times account for {accounted:.3f} s of {wall:.3f} s")
    metrics = {name: (ns / 1e9 / n, "s") for name, ns in self_ns.items()}
    metrics.update({name: (s / n, "s") for name, s in outside.items()})
    metrics.update({name: (count, "count") for name, count in calls.items()})
    seq_calls = calls["sequences.calls"]
    metrics.update({
        "sequences.repeat_share": (seq_repeats / seq_calls if seq_calls else 0.0, "ratio"),
        "session.pair_revisit_share": (pair_revisit_share(requests), "ratio"),
        "verify.checks": (checks, "count"),
        "verify.checks_failed": (checks_failed, "count"),
        "polynomials.output_coeffs": (coeffs, "count"),
        "rationals.peak_num_bits": (num_bits, "bits"),
        "rationals.peak_den_bits": (den_bits, "bits"),
        "rationals.output_bits": (bits, "bits"),
        "trace.overhead_frac": (traced_busy / untraced_busy - 1.0, "ratio"),
    })
    return metrics, problems


# -- running a workload ------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = load_reference()
    requests = request_list(workload, seed, seconds)
    if trace:
        # Pass 0 untraced, then the same pass traced: the overhead compares
        # like with like, and the run takes about as long as an untraced one.
        requests = [r for r in requests if r.pass_index == 0]
    is_session = workload == "session"
    run_list = run_session_list if is_session else run_cli_list
    setup, setup_errors = session_setup() if is_session else cli_setup(reference)
    outcomes, busy = run_list(requests, reference, False)
    e2e = end_to_end(outcomes, busy, setup)
    ok = [o for o in outcomes if o.error is None]
    passes = len({r.pass_index for r in requests})
    print(f"workload {workload}  seed {seed}  passes {passes}"
          f"  requests {len(requests)}  trace {int(trace)}")
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "latency_tail_s" and ok:
            note = f"  (p{tail_percentile(len(ok)):.1f} of {len(ok)} samples)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_REPEATS})"
        print(f"  {name:<16} {value:.6g} {unit}{note}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"latencies-{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for o in outcomes:
            fh.write(json.dumps({"pass": o.request.pass_index, "cell": o.request.cell,
                                 "seconds": o.seconds, "error": o.error}) + "\n")
    failed = [o for o in outcomes if o.error]
    print(f"  {'failed_frac':<16} {len(failed) / len(outcomes):.6g}"
          f"  ({len(failed)} of {len(outcomes)})")
    problems = [f"setup: {e}" for e in setup_errors]
    problems += [f"{o.request.cell}: {o.error}" for o in failed]
    attempted = len(outcomes)
    metrics = e2e
    if trace:
        traced, traced_busy = run_list(requests, reference, True)
        attempted += len(traced)
        traced_failed = [o for o in traced if o.error]
        failed += traced_failed
        problems += [f"traced {o.request.cell}: {o.error}" for o in traced_failed]
        metrics, trace_problems = per_layer(traced, busy, traced_busy, requests)
        problems += trace_problems
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for outcome in traced:
                for span in outcome.spans:
                    fh.write(json.dumps(span, sort_keys=True) + "\n")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {value:.6g} {unit}")
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sheffermat" / "__init__.py").is_file():
        print(f"error: no sheffermat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        return 0
    # One process per workload, so that peak_rss_mb covers that workload only.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        *lines, last = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
