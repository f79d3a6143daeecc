"""Independent references and output checks for the benchmark.

Nothing here imports tropsack: the optimum of a 0/1 knapsack and the
min-plus convolution are recomputed from their definitions with numpy,
so a check cannot pass merely because the library agrees with itself.
"""

from __future__ import annotations

import numpy as np


def knapsack_opt(weights, profits, capacity: int) -> int:
    """Exact 0/1 knapsack optimum by the O(n*t) profit DP."""
    best = np.zeros(capacity + 1, dtype=np.int64)
    for w, p in zip(np.asarray(weights).tolist(), np.asarray(profits).tolist()):
        if w <= capacity:
            np.maximum(best[w:], best[:capacity + 1 - w] + p, out=best[w:])
    return int(best[capacity])


def knapsack_problems(weights, profits, capacity: int, opt: int, witness,
                      want_opt: int) -> list:
    """Reasons the answer ``(opt, witness)`` is wrong; empty when right.

    ``witness`` is the list of item indices the solver returned.
    """
    problems = []
    if opt != want_opt:
        problems.append(f"opt {opt} != reference {want_opt}")
    idx = list(witness)
    n = len(weights)
    if len(set(idx)) != len(idx):
        problems.append("witness repeats an item")
    if any(not (0 <= int(i) < n) for i in idx):
        problems.append("witness index out of range")
        return problems
    w = int(np.asarray(weights, dtype=np.int64)[idx].sum()) if idx else 0
    p = int(np.asarray(profits, dtype=np.int64)[idx].sum()) if idx else 0
    if w > capacity:
        problems.append(f"witness weight {w} > capacity {capacity}")
    if p != want_opt:
        problems.append(f"witness profit {p} != reference {want_opt}")
    return problems


def minplus(a, b) -> np.ndarray:
    """C[k] = min over i + j = k of A[i] + B[j], O(|A| * |B|)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) < len(b):
        a, b = b, a
    out = np.full(len(a) + len(b) - 1, np.iinfo(np.int64).max, dtype=np.int64)
    for j, bj in enumerate(b.tolist()):
        seg = out[j:j + len(a)]
        np.minimum(seg, a + bj, out=seg)
    return out


def conv_problems(a, b, m: int, got, want) -> list:
    """Reasons ``got`` is not the min-plus convolution of monotone ``a``
    and ``b`` with entries in [0, m]; empty when right."""
    got = np.asarray(got)
    problems = []
    if len(got) != len(a) + len(b) - 1:
        return [f"length {len(got)} != {len(a) + len(b) - 1}"]
    if len(got) and (got.min() < 0 or got.max() > 2 * m):
        problems.append(f"entries outside [0, {2 * m}]")
    if np.any(np.diff(got) < 0):
        problems.append("output is not non-decreasing")
    bad = np.flatnonzero(got != want)
    if bad.size:
        k = int(bad[0])
        problems.append(f"{bad.size} entries differ from the reference, "
                        f"first at {k}: {int(got[k])} != {int(want[k])}")
    return problems
