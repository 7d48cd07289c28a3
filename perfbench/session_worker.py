"""Long-lived library process of the ``session`` workload.

Usage: ``python perfbench/session_worker.py [--spans FILE] [--setup-only]``
with ``src`` on ``PYTHONPATH``.

The worker imports sheffermat, builds the pair pool (the six families at
order 32) and prints ``{"ready": true}``.  It then reads one JSON request
per stdin line, ``{"id": ..., "cell": "task|<family>|<kind>|<n>"}``, and
answers each with one line ``{"id", "sha256", "error"}``.  At
end of input it writes its spans to FILE (when given) and exits.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback

from workloads import FAMILIES, SESSION_ORDER, task_of


def build_pool() -> dict:
    from sheffermat import make_pair

    return {
        fam: make_pair(name, SESSION_ORDER, params)
        for fam, (name, params) in FAMILIES.items()
    }


def run_task(pool: dict, cell: str) -> dict:
    """Study one pair at degree n: sequence, four triples, four residuals
    and the factorization at min(n, 12)."""
    import sheffermat as sm

    fam, kind, n = task_of(cell)
    pair = pool[fam]
    if kind == "sheffer-appell":
        sequence = sm.sheffer_appell_sequence(pair, n)
    elif kind == "sheffer":
        sequence = sm.sheffer_sequence(pair, n)
    else:
        sequence = sm.appell_sequence(pair.l, n)
    return {
        "sequence": sequence,
        "coeffs": {label: sm.COEFF_EXTRACTORS[label](pair, n) for label in sm.LABELS},
        "residuals": {label: sm.RESIDUALS[label](pair, n) for label in sm.LABELS},
        "factorization": sm.factorization_check(pair, min(n, 12)),
    }


def serialize(results: dict) -> bytes:
    """Canonical bytes of a task's results; their SHA-256 is the digest."""
    payload = {
        "sequence": [p.to_strings() for p in results["sequence"]],
        "coeffs": {k: t.to_json() for k, t in results["coeffs"].items()},
        "residuals": {k: r.to_strings() for k, r in results["residuals"].items()},
        "factorization": results["factorization"],
    }
    return json.dumps(payload, sort_keys=True, indent=2).encode()


def main(argv: list[str]) -> int:
    spans_file = argv[argv.index("--spans") + 1] if "--spans" in argv else None
    pool = build_pool()
    recorder = None
    if spans_file:
        # After the pool: building it is set-up, not part of any task.
        from tracing import Recorder, instrument, output_stats

        recorder = Recorder()
        instrument(recorder)
    print(json.dumps({"ready": True}), flush=True)
    if "--setup-only" in argv:
        return 0
    for line in sys.stdin:
        request = json.loads(line)
        reply = {"id": request["id"], "sha256": None, "error": None}
        try:
            if recorder is None:
                results = run_task(pool, request["cell"])
                reply["sha256"] = hashlib.sha256(serialize(results)).hexdigest()
            else:
                with recorder.root("session.task", request["id"]) as root:
                    results = run_task(pool, request["cell"])
                    reply["sha256"] = hashlib.sha256(serialize(results)).hexdigest()
                root["output"] = output_stats(results)
        except Exception:
            reply["error"] = traceback.format_exc()
        print(json.dumps(reply), flush=True)
    if recorder is not None:
        recorder.write(spans_file)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
