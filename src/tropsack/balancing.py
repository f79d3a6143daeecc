"""Reduction from arbitrary instances to balanced ones.

Sort items by profit-to-weight ratio and take the maximum prefix fitting
the capacity; relative to the ratio rho of its last item, items split
into good (> 2*rho), bad (< rho/2) and medium.  Some optimal solution
differs from the prefix only a little on good and bad items (bounded
exchange argument), so it suffices to solve the medium instance for a
short range of consecutive capacities and to know two short curves: the
best bad-item profits up to ~10*w_max of weight, and the best kept-good
profits for kept weights within ~10*w_max of w(G).  The three parts are
recombined with two monotone max-plus convolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .core import (INF, INT_INF, KnapsackInstance, MonotoneSeq, NEG_INF,
                   NON_DECREASING, SeedCtx, Solution, _finite, restrict)
from .bounded import bc_profit_bounded, merge_maxplus
from .trace import EmptySetNode, reconstruct_items

# Exchange-argument extents (10) and estimate half-widths (11) plus one
# extra max-parameter of padding to absorb dummy-item boundary effects.
CURVE_EXTENT = 11
RANGE_HALF_WIDTH = 12


@dataclass(frozen=True)
class RatioPartition:
    """Maximum prefix solution and the good/medium/bad ratio classes."""

    order: tuple          # indices by non-increasing ratio
    prefix: tuple         # the maximal fitting prefix, in order
    rho: Optional[Fraction]
    good: tuple
    medium: tuple
    bad: tuple


def max_prefix_partition(instance: KnapsackInstance) -> RatioPartition:
    if instance.n == 0:
        return RatioPartition((), (), None, (), (), ())
    order = instance.ratio_order
    total = 0
    prefix = []
    for i in order:
        it = instance.items[i]
        if total + it.weight <= instance.capacity:
            total += it.weight
            prefix.append(i)
        else:
            break
    assert prefix, "normalized instances always fit their lightest item"
    last = instance.items[prefix[-1]]
    p_rho, w_rho = last.profit, max(last.weight, 1)
    good, medium, bad = [], [], []
    for i, it in enumerate(instance.items):
        # p/w against 2*rho and rho/2, cross-multiplied; infinite-ratio
        # (weight-0) dummies count as good
        if it.weight == 0 or it.profit * w_rho > 2 * p_rho * it.weight:
            good.append(i)
        elif 2 * it.profit * w_rho < p_rho * it.weight:
            bad.append(i)
        else:
            medium.append(i)
    rho = Fraction(p_rho, w_rho)
    return RatioPartition(order, tuple(prefix), rho, tuple(good),
                          tuple(medium), tuple(bad))


@dataclass
class BalancedSubproblem:
    partition: RatioPartition
    medium_ids: tuple
    capacity_range: tuple     # medium capacities to solve, inclusive
    profit_range: tuple       # medium profits to cover, inclusive
    t_query: int              # w(P & M): the medium query capacity
    good_curve: tuple         # (seq, trace): kept-good profit by kept weight
    good_window: tuple
    bad_curve: tuple          # (seq, trace): bad profit by weight budget
    meta: dict = field(default_factory=dict)


def bad_curve(instance: KnapsackInstance, bad_ids, seed: SeedCtx,
              boost: int = 1):
    """Profit curve of the bad items on [0, 11*w_max; 0, 11*p_max]."""
    hi_w = CURVE_EXTENT * instance.w_max
    hi_p = CURVE_EXTENT * instance.p_max
    if not bad_ids:
        seq = MonotoneSeq(np.zeros(hi_w + 1, dtype=np.int64), 0,
                          NON_DECREASING, NEG_INF, validate=False)
        return seq, EmptySetNode()
    sub = instance.subset(bad_ids)
    return bc_profit_bounded(sub, hi_w, hi_p, seed, boost=boost,
                             ids=np.asarray(bad_ids))


def kept_good_curve(instance: KnapsackInstance, good_ids, seed: SeedCtx,
                    boost: int = 1):
    """Best kept-good profit by kept weight budget, windowed to kept
    weights within ~11*w_max below w(G).  Returns ((seq, trace), window).
    """
    if not good_ids:
        seq = MonotoneSeq([0], 0, NON_DECREASING, NEG_INF, validate=False)
        return (seq, EmptySetNode()), (0, 0)
    sub = instance.subset(good_ids)
    w_g = sub.total_weight()
    p_g = sub.total_profit()
    lo = max(0, w_g - CURVE_EXTENT * instance.w_max)
    seq, tr = bc_profit_bounded(sub, w_g, p_g, seed, boost=boost,
                                ids=np.asarray(good_ids))
    return (restrict(seq, (lo, w_g), (0, p_g)), tr), (lo, w_g)


def good_complement_curve(instance: KnapsackInstance, good_ids,
                          seed: SeedCtx, boost: int = 1) -> MonotoneSeq:
    """L[t''] = least profit of a good subset with total weight >= t'',
    for t'' in [0, ~11*w_max]; +inf where t'' exceeds w(G).

    Computed by complementation: L[t''] = p(G) - P_G[w(G) - t''], reusing
    the bounded profit solver on G unchanged.
    """
    (seq, _), (lo, hi) = kept_good_curve(instance, good_ids, seed, boost)
    if not good_ids:
        total_profit = 0
    else:
        total_profit = sum(instance.items[i].profit for i in good_ids)
    extent = CURVE_EXTENT * max(instance.w_max, 1)
    kept = seq.window(hi - extent, hi)[::-1]  # P_G[hi - t''] for t'' = 0..
    kept[hi + 1:] = -INT_INF  # kept weights below 0
    vals = np.where(_finite(kept), total_profit - kept, -kept)
    return MonotoneSeq(vals, 0, NON_DECREASING, INF, validate=False)


def balance_reduce(instance: KnapsackInstance, seed: SeedCtx,
                   boost: Optional[int] = None) -> BalancedSubproblem:
    """Build the medium subproblem and the good/bad recombination curves.

    The medium instance keeps a subset of the items, so all its
    parameters are no greater than the original's; its ratios differ by
    at most a factor of 4.
    """
    part = max_prefix_partition(instance)
    if boost is None:
        boost = math.ceil(math.log2(max(instance.n, 2))) + 3
    prefix_set = frozenset(part.prefix)
    med_in_prefix = [i for i in part.medium if i in prefix_set]
    t_query = sum(instance.items[i].weight for i in med_in_prefix)
    p_query = sum(instance.items[i].profit for i in med_in_prefix)
    half_w = RANGE_HALF_WIDTH * instance.w_max
    half_p = RANGE_HALF_WIDTH * instance.p_max
    cap_range = (max(0, t_query - half_w),
                 min(instance.capacity, t_query + half_w))
    profit_range = (max(0, p_query - half_p), p_query + half_p)
    good, gwin = kept_good_curve(instance, part.good, seed.child(1),
                                 boost=boost)
    bad = bad_curve(instance, part.bad, seed.child(2), boost=boost)
    return BalancedSubproblem(part, part.medium, cap_range, profit_range,
                              t_query, good, gwin, bad)


def combine_balanced(medium_curve, sub: BalancedSubproblem,
                     instance: KnapsackInstance, seed: SeedCtx
                     ) -> Tuple[int, Solution]:
    """Fold the medium window with the bad and kept-good curves: two
    monotone max-plus convolutions, then read the best total at the
    capacity.  Exact whenever the medium window entries are exact."""
    med_seq, med_tr = medium_curve
    good_seq, good_tr = sub.good_curve
    bad_seq, bad_tr = sub.bad_curve
    step1 = merge_maxplus((med_seq, med_tr), (bad_seq, bad_tr),
                          seed.child(1))
    step2 = merge_maxplus(step1, (good_seq, good_tr), seed.child(2))
    total_seq, total_tr = step2
    if total_seq.is_empty() or total_seq.start > instance.capacity:
        return 0, Solution.from_indices(instance, [])
    k = min(instance.capacity, total_seq.stop - 1)
    # the merged curve need not be monotone at window seams; scan the
    # (short) result for the first best finite entry within capacity
    vals = total_seq.arr[:k + 1 - total_seq.start]
    finite = np.flatnonzero(_finite(vals))
    if not len(finite):
        return 0, Solution.from_indices(instance, [])
    j = int(finite[np.argmax(vals[finite])])
    best = int(vals[j])
    ids = [i for i in reconstruct_items(total_tr, total_seq.start + j, best)
           if not instance.items[i].internal]
    return best, Solution.from_indices(instance, ids)
