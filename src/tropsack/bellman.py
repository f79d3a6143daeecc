"""Classic dynamic programs and the greedy upper bound.

These are the deterministic workhorses: exact oracles for tests, base
cases for the randomized solvers, and the fallback when instances are too
small for the divide-and-conquer machinery to pay off.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

import numpy as np

from .core import (INF, KnapsackInstance, MonotoneSeq, NEG_INF,
                   NON_DECREASING)
from .convolution.naive import INT_INF
from .trace import ProfitDPNode, WeightDPNode


def _arrays(instance: KnapsackInstance, ids=None):
    w = instance.weights
    p = instance.profits
    if ids is None:
        ids = np.arange(instance.n, dtype=np.int64)
    return w, p, np.asarray(ids, dtype=np.int64)


def bellman_profit_dp(instance: KnapsackInstance, k: int, ids=None
                      ) -> Tuple[MonotoneSeq, ProfitDPNode]:
    """Profit sequence P[0..k] (max profit at weight budget j) plus the
    taken-bit table for reconstruction.  O(n*k) time."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return profit_dp(*_arrays(instance, ids), k)


def profit_dp(w: np.ndarray, p: np.ndarray, ids: np.ndarray, k: int
              ) -> Tuple[MonotoneSeq, ProfitDPNode]:
    """The loop behind :func:`bellman_profit_dp`, over item arrays."""
    n = len(w)
    dp = np.zeros(k + 1, dtype=np.int64)
    taken = np.zeros((n, k + 1), dtype=bool)
    for i in range(n):
        wi, pi = int(w[i]), int(p[i])
        if wi > k:
            continue
        new = dp.copy()
        np.maximum(new[wi:], dp[:k + 1 - wi] + pi, out=new[wi:])
        taken[i] = new != dp
        dp = new
    seq = MonotoneSeq(dp.tolist(), 0, NON_DECREASING, NEG_INF, validate=False)
    return seq, ProfitDPNode(w, p, ids, taken)


def bellman_weight_dp(instance: KnapsackInstance, k: int, ids=None
                      ) -> Tuple[MonotoneSeq, WeightDPNode]:
    """Weight sequence W[0..k] (min weight achieving profit >= j); +inf
    where unachievable; W[0] = 0."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return weight_dp(*_arrays(instance, ids), k)


def weight_dp(w: np.ndarray, p: np.ndarray, ids: np.ndarray, k: int
              ) -> Tuple[MonotoneSeq, WeightDPNode]:
    """The loop behind :func:`bellman_weight_dp`, over item arrays."""
    n = len(w)
    dp = np.full(k + 1, INT_INF, dtype=np.int64)
    dp[0] = 0
    taken = np.zeros((n, k + 1), dtype=bool)
    for i in range(n):
        wi, pi = int(w[i]), int(p[i])
        shifted = np.empty(k + 1, dtype=np.int64)
        cut = min(pi, k + 1)
        shifted[:cut] = dp[0]
        if pi <= k:
            shifted[pi:] = dp[:k + 1 - pi]
        new = np.minimum(dp, shifted + wi)
        taken[i] = new != dp
        dp = new
    vals = [int(v) if v < INT_INF else INF for v in dp]
    seq = MonotoneSeq(vals, 0, NON_DECREASING, INF, validate=False)
    return seq, WeightDPNode(w, p, ids, taken)


def _ratio_key(item, i):
    # weight-0 dummies sort as infinite ratio; exact rationals otherwise
    if item.weight == 0:
        return (0, 0, i)
    return (1, -Fraction(item.profit, item.weight), i)


def greedy_order(instance: KnapsackInstance):
    """Indices sorted by profit-to-weight ratio, non-increasing, ties by
    original index (exact rational comparison, no floats)."""
    return sorted(range(instance.n),
                  key=lambda i: _ratio_key(instance.items[i], i))


def greedy_upper_bound(instance: KnapsackInstance) -> int:
    """Prefix-greedy bound: OPT <= result <= OPT + p_max for normalized
    instances (and p_max <= result <= n * p_max)."""
    if instance.n == 0:
        return 0
    total_w = 0
    total_p = 0
    for i in greedy_order(instance):
        it = instance.items[i]
        if total_w + it.weight <= instance.capacity:
            total_w += it.weight
            total_p += it.profit
        else:
            return total_p + it.profit
    return total_p
