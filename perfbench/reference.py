"""Fixed reference computations that measure how fast the host is right now.

The benchmark runs on shared virtual machines whose speed drifts by a
fifth or more over minutes, as other tenants load the host.  Each
repetition times one of these kernels in the same process just before the
workload, and the benchmark reports the workload's time as a multiple of
it: the drift slows both alike and cancels out.

Contention slows interpreted Python more than numpy's compiled loops, so
each workload uses the kernel whose work is like its dominant layer's.
The kernels use no wittcoh code, so a change to the program cannot move
them.
"""

from __future__ import annotations

import numpy as np

P = 101


def python_kernel() -> int:
    """Product of two sparse bivariate polynomials mod a prime, in dicts keyed by tuples."""
    a = {(i, j): (7 * i + 3 * j) % 10007 for i in range(120) for j in range(6)}
    out: dict[tuple[int, int], int] = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            key = (i + k, j + l)
            out[key] = (out.get(key, 0) + x * y) % 10007
    return len(out)


def numpy_kernel() -> int:
    """150 row-reduction steps (rank-one updates) mod P of a fixed dense 300 x 300 matrix."""
    i = np.arange(300, dtype=np.int64)
    m = (np.add.outer(31 * i * i, 17 * i) + np.outer(i, i)) % P
    for c in range(150):
        inv = pow(int(m[c, c]) or 1, -1, P)
        m = (m - np.outer(m[:, c], m[c]) * inv) % P
    return int(m.sum())


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}
