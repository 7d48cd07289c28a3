"""Span recorder wrapped around sheffermat's public entry points.

Nothing in ``src/`` is touched: :func:`instrument` replaces every
module-level reference to a traced function (and every entry of a
module-level dict such as ``COEFF_EXTRACTORS``) with a wrapper that
records one span per call, and wraps the traced methods of
``TruncatedSeries`` and ``Matrix`` on the class.  Spans are kept in
memory and written as JSON lines when the process ends.

A span is ``{"id", "name", "parent", "request", "start", "end"}`` with
times from ``time.perf_counter_ns``.  Some spans carry extra fields:
``repeat`` (a sequence call on a pair this process already generated
for), ``checks``/``failed`` (the verify sweeps) and ``output`` (exact sizes
of a request's result, see :func:`output_stats`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager
from fractions import Fraction

# Traced functions: span name -> (module, attribute names).
FUNCTIONS = {
    "families.make_pair": ("families", ("make_pair",)),
    "sequences.generate": (
        "sequences",
        ("sheffer_appell_sequence", "sheffer_sequence", "appell_sequence"),
    ),
    "identities.extract": (
        "identities",
        (
            "differential_equation_coeffs",
            "derivative_recurrence_coeffs",
            "mixed_recurrence_coeffs",
            "convolution_recurrence_coeffs",
        ),
    ),
    "identities.residual": (
        "identities",
        (
            "differential_equation_residual",
            "derivative_recurrence_residual",
            "mixed_recurrence_residual",
            "convolution_recurrence_residual",
        ),
    ),
    "identities.factorization": ("identities", ("factorization_check",)),
    "matrices.pascal": ("matrices", ("pascal_matrix",)),
    "matrices.wronskian_powers": ("matrices", ("wronskian_powers_matrix",)),
    "verify.residual_checks": ("verify", ("residual_checks",)),
    "verify.lemma_checks": ("verify", ("lemma_checks",)),
    "verify.property_suite": ("verify", ("property_suite",)),
    "audit.run": ("audit", ("run_worked_example_audit",)),
}

# Traced methods: span name -> (module, class, method).
METHODS = {
    "series.compositional_inverse": ("series", "TruncatedSeries", "compositional_inverse"),
    "series.compose": ("series", "TruncatedSeries", "compose"),
    "series.reciprocal": ("series", "TruncatedSeries", "reciprocal"),
    "series.exp": ("series", "TruncatedSeries", "exp"),
    "matrices.matmul": ("matrices", "Matrix", "__matmul__"),
}

# Calls whose result, when made directly by the request's root, is the
# request's output.
OUTPUT_SPANS = ("sequences.generate", "identities.extract", "audit.run")


class Recorder:
    """In-memory span store of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._request: str | None = None
        self._root: dict | None = None
        self._generated: set = set()

    def _open(self, name: str) -> dict:
        parent = self._stack[-1]["id"] if self._stack else None
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "request": self._request}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter_ns()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, request: str):
        """The span of one whole request; every traced call nests in it."""
        self._request = request
        span = self._open(name)
        self._root = span
        try:
            yield span
        finally:
            self._close(span)
            self._root = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self._annotate(span, args, result)
            return result

        return traced

    def _annotate(self, span: dict, args: tuple, result) -> None:
        name = span["name"]
        if name == "sequences.generate":
            key = (result.kind, args[0])
            span["repeat"] = key in self._generated
            self._generated.add(key)
        elif name.startswith("verify."):
            span["checks"] = len(result)
            span["failed"] = sum(1 for r in result if not r.passed)
        if (
            name in OUTPUT_SPANS
            and self._root is not None
            and span["parent"] == self._root["id"]
        ):
            span["output"] = output_stats(result)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def instrument(recorder: Recorder) -> None:
    """Route every call of the traced entry points through ``recorder``."""
    import sheffermat  # noqa: F401  (loads every submodule)

    wrappers = {}
    for name, (module, attrs) in FUNCTIONS.items():
        mod = sys.modules[f"sheffermat.{module}"]
        for attr in attrs:
            fn = getattr(mod, attr)
            wrappers[fn] = recorder.wrap(name, fn)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "sheffermat" and not mod_name.startswith("sheffermat."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, types.FunctionType) and item in wrappers:
                        value[key] = wrappers[item]
    for name, (module, cls_name, method) in METHODS.items():
        cls = getattr(sys.modules[f"sheffermat.{module}"], cls_name)
        setattr(cls, method, recorder.wrap(name, getattr(cls, method)))


def output_stats(result) -> dict:
    """Exact sizes of a result: polynomial coefficients and rational bits.

    ``coeffs`` counts polynomial coefficients; ``num_bits``/``den_bits``
    are the largest numerator/denominator bit lengths of any rational in
    the result, and ``bits`` is the sum of both lengths over all of them.
    """
    from sheffermat import AuditReport, CoeffTriple, Poly, PolySequence

    acc = {"coeffs": 0, "num_bits": 0, "den_bits": 0, "bits": 0}

    def rational(value: Fraction) -> None:
        num = value.numerator.bit_length()
        den = value.denominator.bit_length()
        acc["num_bits"] = max(acc["num_bits"], num)
        acc["den_bits"] = max(acc["den_bits"], den)
        acc["bits"] += num + den

    def walk(obj) -> None:
        if isinstance(obj, Fraction):
            rational(obj)
        elif isinstance(obj, Poly):
            acc["coeffs"] += len(obj.coeffs)
            for c in obj.coeffs:
                rational(c)
        elif isinstance(obj, PolySequence):
            for p in obj:
                walk(p)
        elif isinstance(obj, CoeffTriple):
            for part in (obj.a, obj.b, obj.c):
                walk(part)
        elif isinstance(obj, AuditReport):
            for entry in obj:
                walk(entry.residual)
                walk(entry.derived)
                walk(entry.printed)
        elif isinstance(obj, dict):
            for item in obj.values():
                walk(item)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)

    walk(result)
    return acc


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> self time in ns: its duration minus the part of it that
    its direct children cover.  Never negative, even for children that
    stick out of their parent."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
