"""The kernels' work on a fixed grid of cells, against ``cost_budgets.json``.

Each count must equal its budget, so work done twice, a lost cache or a lost
reduction moves a cell.  Building or warming a pair between cells is not
counted.  A failure names each cell and kernel that moved and prints the whole
table, to replace the budgets when the change is meant; a raised budget is a
loosened check, so the change names the cell, the amount and the reason.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sheffermat import (LABELS, TruncatedSeries, lemma_checks, make_pair, rationals,
                        residual_checks, run_worked_example_audit)
from cost_counts import KERNELS, counting

BUDGETS = Path(__file__).with_name("cost_budgets.json")
N = 60
LAMBDA = {"lambda": Fraction(5, 2)}
STAGE_PAIRS = {"log-assoc": ("log-assoc", {}), "laguerre-5/2": ("laguerre", LAMBDA),
               "miller-lee-1": ("miller-lee", {"m": 1}), "bernoulli": ("bernoulli", {})}


def cells():
    """(name, work) in a fixed order; each work runs before the next is drawn."""
    for pair_id, (family, params) in STAGE_PAIRS.items():
        pair = make_pair(family, N + 1, params)
        yield f"{pair_id} array", lambda: pair.sheffer_appell_polys
        yield f"{pair_id} g", lambda: pair.g
        for label in LABELS:
            yield f"{pair_id} sweep {label}", lambda: residual_checks(pair, N, label)
        yield f"{pair_id} lemma", lambda: lemma_checks(pair, N)
        yield f"{pair_id} warm sweep", lambda: residual_checks(pair, N)
    yield "audit n=20", lambda: run_worked_example_audit(20)
    pair, sizes = make_pair("laguerre", 12, LAMBDA), (8, 3, 8, 0, 5, 8, 11)
    yield f"laguerre-5/2 order 12 lemma at {sizes}", lambda: [
        lemma_checks(pair, n) for n in sizes
    ]
    dense = [0, Fraction(-3, 2)] + [Fraction((-1) ** k * k, k + 3) for k in range(2, 16)]
    for name, h in (("laguerre-5/2", make_pair("laguerre", 15, LAMBDA).h),
                    ("log-assoc", make_pair("log-assoc", 15).h),
                    ("dense", TruncatedSeries(dense))):
        yield f"{name} order 15 h^-1", h.compositional_inverse


def table() -> dict:
    counts = {}
    for name, work in cells():
        with counting() as counts[name]:
            work()
    return counts


def test_counts_equal_the_budgets():
    counts, budgets = table(), json.loads(BUDGETS.read_text())
    if counts != budgets:
        moved = [f"{cell} {kernel}: budget {budget}, count {count}"
                 for cell in {**budgets, **counts} for kernel in KERNELS
                 if (budget := budgets.get(cell, {}).get(kernel))
                 != (count := counts.get(cell, {}).get(kernel))]
        lines = [f"  {json.dumps(cell)}: {json.dumps(c)}" for cell, c in counts.items()]
        text = "{\n" + ",\n".join(lines) + "\n}"
        pytest.fail("\n".join([*moved, f"the whole table, for {BUDGETS.name}:", text]),
                    pytrace=False)


def kernel_bindings() -> dict:
    """(module name, global name) -> kernel, for each sheffermat module global
    bound to a kernel itself."""
    kernels = [kernel for kernel, _ in KERNELS.values()]
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "sheffermat"
            for attr, value in vars(module).items() if any(value is k for k in kernels)}


def test_the_counter_wraps_every_binding_of_a_kernel_and_restores_it():
    before = kernel_bindings()
    assert all(any(v is k for v in before.values()) for k, _ in KERNELS.values())
    with counting() as counts:
        assert kernel_bindings() == {}
        TruncatedSeries([1, 2]) * TruncatedSeries([3, 1])
        rows = [(1, [1, 2]), (5, [7]), (3, [4, 4, 4])]
        assert rationals.combine_row(2, [3, 0, 1], rows) == (6, [13, 22, 4])
    assert kernel_bindings() == before
    # bit lengths in brackets.  product: 1 * 3 [1 * 2], 1 * 1 [1 * 1],
    # 2 * 3 [2 * 2] and D_a D_b = 1 * 1 [1 * 1].  combine: L D_w = 3 * 2 [2 * 2];
    # the weight 3 times L / D = 3 [2 * 2], then 9 * 1, 9 * 2 [4 * 1 + 4 * 2];
    # 1 * 1 [1 * 1], then 1 * 4 three times [3 * 1 * 3]; weight 0 reads no row
    assert counts == {"product": [4, 2 + 1 + 4 + 1], "combine": [8, 4 + 4 + 12 + 1 + 9]}
