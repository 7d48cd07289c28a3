"""The work of the two arithmetic kernels, ``series._product`` and
``rationals.combine_row``, as counts that do not depend on the host.

This is the one module that names the kernels: ``counting()`` wraps every
global of a loaded ``sheffermat`` module that is a kernel (an alias too) and
counts, per kernel, its integer multiplications and the sum of
bitlen(a) * bitlen(b) over them.
"""

import sys
from contextlib import contextmanager
from itertools import accumulate

from sheffermat import rationals, series


def product_cost(result, a, b):
    """D_a D_b, and a_i b_j for j < n - i and each nonzero a_i of the sparser
    factor, which the kernel takes as the outer one."""
    (da, pa), (db, pb) = (b, a) if a[1].count(0) < b[1].count(0) else (a, b)
    n, bits = len(pa), list(accumulate(map(int.bit_length, pb)))
    live = [(i, ai.bit_length()) for i, ai in enumerate(pa) if ai]
    return (1 + sum(n - i for i, _ in live),
            da.bit_length() * db.bit_length() + sum(bl * bits[n - i - 1] for i, bl in live))


def combine_cost(result, dw, weights, rows):
    """L D_w, with L the lcm of the denominators D of the rows of nonzero weight
    w, and for each such row w (L / D), then that times each of its entries."""
    lq = result[0] // dw
    mults, bits = 1, lq.bit_length() * dw.bit_length()
    for w, (den, p) in zip(weights, rows):
        if w:
            scale = lq // den
            mults += 1 + len(p)
            bits += w.bit_length() * scale.bit_length()
            bits += (w * scale).bit_length() * sum(map(int.bit_length, p))
    return mults, bits


KERNELS = {"product": (series._product, product_cost),
           "combine": (rationals.combine_row, combine_cost)}
NO_WORK = {name: [0, 0] for name in KERNELS}


@contextmanager
def counting():
    """Yields {kernel name: [multiplications, bits]}, counted inside the block."""
    counts = {name: [0, 0] for name in KERNELS}

    def counted(kernel, cost, total):
        def call(*args):
            result = kernel(*args)
            mults, bits = cost(result, *args)
            total[0] += mults
            total[1] += bits
            return result
        return call

    wrapped = [(k, counted(k, cost, counts[name])) for name, (k, cost) in KERNELS.items()]
    patched = [(module, attr, kernel, wrapper)
               for name, module in list(sys.modules.items())
               if name.partition(".")[0] == "sheffermat"
               for attr, value in vars(module).items()
               for kernel, wrapper in wrapped if value is kernel]
    for module, attr, _, wrapper in patched:
        setattr(module, attr, wrapper)
    try:
        yield counts
    finally:
        for module, attr, kernel, _ in patched:
            setattr(module, attr, kernel)
