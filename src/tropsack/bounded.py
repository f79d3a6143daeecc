"""Bounded profit/weight sequence solvers.

Computes P[0..t; 0..v] (or W[0..v; 0..t]) in time governed by the
tropical convolution engine rather than n*t: items are bucketed into
weight/profit dyadic groups, each group is randomly split into subgroups
small enough that color coding recovers per-subgroup curves from
single-item sequences, and everything is merged back with bounded
monotone max-plus (min-plus) convolutions.  Monte Carlo: each entry of a
single run is correct with constant probability per color-coding round,
boosted internally; callers can boost whole runs on top.  A run that
color-codes nothing is exact, and boosting stops at it (as color coding
stops at a round whose buckets hold one item each).

A group whose exact 0/1 DP costs no more cells than a lower bound on its
split (the entries of its subgroup curves plus the kernel cells of
merging them) skips the split: all such groups share one exact DP, which
leads the pipeline's merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bellman import profit_dp, weight_dp
from .core import (INF, INT_INF, KnapsackInstance, MonotoneSeq, NEG_INF,
                   NON_DECREASING, SeedCtx, _finite, restrict)
from .convolution import (maxplus_naive, minplus_naive,
                          monotone_maxplus_rect, monotone_minplus_rect)
from .trace import (ConstItemsNode, EmptySetNode, FreeItemsProfitNode,
                    FreeItemsWeightNode, ItemWitnessNode, MergeNode, PadNode)
from .windowed import Witnessed, boost_runs


@dataclass(frozen=True)
class GroupKey:
    """Dyadic class: weights in [2^(a-1), 2^a), profits in [2^(b-1), 2^b)."""

    a: int
    b: int


_NAIVE_MERGE_CUTOFF = 1 << 21


def _merge(left, right, seed: SeedCtx, op: str):
    """Tropical merge of two witnessed curves: the quadratic kernel for
    small products, else the engine with M = the largest finite entry."""
    lseq, ltr = left
    rseq, rtr = right
    if len(lseq) * len(rseq) <= _NAIVE_MERGE_CUTOFF:
        naive = maxplus_naive if op == "max" else minplus_naive
        seq = naive(lseq, rseq)
    else:
        both = np.concatenate([lseq.arr, rseq.arr])
        m = max(int(both[_finite(both)].max(initial=0)), 1)
        engine = monotone_maxplus_rect if op == "max" else \
            monotone_minplus_rect
        seq = engine(lseq, rseq, m, seed)
    return seq, MergeNode(op, lseq, ltr, rseq, rtr)


def merge_maxplus(left, right, seed: SeedCtx):
    return _merge(left, right, seed, "max")


def merge_minplus(left, right, seed: SeedCtx):
    return _merge(left, right, seed, "min")


def _tree_merge(parts, merge, clip, seed: SeedCtx):
    """Balanced merge of witnessed sequences, clipping after each level."""
    layer = list(parts)
    depth = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            seq, tr = merge(layer[i], layer[i + 1],
                            seed.child(depth, i))
            nxt.append((clip(seq), tr))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
        depth += 1
    return layer[0]


def _tree_merge_cells(lengths, cap: int) -> int:
    """Kernel cells ``_tree_merge`` spends on curves of these lengths,
    starting at index 0 and clipped to indices <= cap after each merge."""
    layer = list(lengths)
    cells = 0
    while len(layer) > 1:
        nxt = []
        for i in range(0, len(layer) - 1, 2):
            cells += layer[i] * layer[i + 1]
            nxt.append(min(layer[i] + layer[i + 1] - 1, cap + 1))
        if len(layer) % 2:
            nxt.append(layer[-1])
        layer = nxt
    return cells


def _dp_is_cheaper(sizes, assign, sub_cap: int, cap: int) -> bool:
    """Route rule for one group.  ``sizes`` are the items' extents along
    the curve index (weights for profit curves, profits for weight
    curves); ``assign`` is the group's subgroup draw; subgroup curves are
    capped at ``sub_cap`` and merged ones at ``cap``.  A subgroup curve
    has at least min(sub_cap, largest size) + 1 entries, so its entries
    plus the merge cells on those lengths bound the split from below.
    The DP over the group costs n_g * (min(cap, total size) + 1) cells."""
    keys, inv = np.unique(assign, return_inverse=True)
    longest = np.zeros(len(keys), dtype=np.int64)
    np.maximum.at(longest, inv, sizes)
    lengths = [min(sub_cap, int(m)) + 1 for m in longest]
    split = sum(lengths) + _tree_merge_cells(lengths, cap)
    return len(sizes) * (min(cap, int(sizes.sum())) + 1) <= split


def _dyadic_groups(w, p):
    """Member index arrays of the nonempty dyadic groups, in key order."""
    groups = {}
    for i in range(len(w)):
        key = GroupKey(int(w[i]).bit_length(), int(p[i]).bit_length())
        groups.setdefault(key, []).append(i)
    return [(key, np.array(groups[key]))
            for key in sorted(groups, key=lambda k: (k.a, k.b))]


def _cap_max_curve(seq: MonotoneSeq, idx_hi: int, val_hi: int) -> MonotoneSeq:
    """Truncate indices above idx_hi; clamp values above val_hi to
    val_hi + 1.  Clamping (rather than truncating) keeps every run on the
    same index window, so entrywise boosting stays monotone, while the
    +1 marker survives max-plus merges and marks entries beyond the cap.
    """
    vals = seq.arr[:min(seq.stop, idx_hi + 1) - seq.start]
    vals = np.where((vals > val_hi) & (vals != INT_INF), val_hi + 1, vals)
    return MonotoneSeq(vals, seq.start, seq.direction, seq.sentinel,
                       validate=False)


_cap_min_curve = _cap_max_curve


def _zero_profit_curve(hi: int):
    seq = MonotoneSeq(np.zeros(hi + 1, dtype=np.int64), 0, NON_DECREASING,
                      NEG_INF, validate=False)
    return Witnessed(seq, EmptySetNode(), True)


def _zero_weight_curve(hi: int):
    vals = np.full(hi + 1, INT_INF, dtype=np.int64)
    vals[0] = 0
    seq = MonotoneSeq(vals, 0, NON_DECREASING, INF, validate=False)
    return Witnessed(seq, EmptySetNode(), True)


# ---------------------------------------------------------------------------
# Profit direction


def bc_profit_bounded(instance: KnapsackInstance, t: int, v: int,
                      seed: SeedCtx, boost: int = 1, ids=None
                      ) -> Tuple[MonotoneSeq, object]:
    """P[0..t; 0..v]: profit sequence restricted to indices <= t and
    values <= v."""
    w = instance.weights
    p = instance.profits
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    # zero-weight items always ride along (pure value offset); zero-profit
    # items never change a profit curve
    free = (w == 0) & (p > 0)
    base = int(p[free].sum())
    free_ids = tuple(int(i) for i in idarr[free])
    v_eff = v - base
    # items above the profit bound cannot sit in any reported entry, but
    # the lightest of them ends the restriction window
    heavy_profit = (p > v_eff) & (w <= t) & (w > 0)
    wcut = int(w[heavy_profit].min()) \
        if base <= v and heavy_profit.any() else t + 1
    keep = (w <= t) & (p <= v_eff) & (w > 0) & (p > 0)

    def run(r):
        if base > v:
            seq = MonotoneSeq([base], 0, NON_DECREASING, NEG_INF,
                              validate=False)
            return Witnessed(seq, ConstItemsNode(free_ids, base), True)
        if not keep.any():
            out = _zero_profit_curve(min(t, wcut - 1))
        else:
            out = _bc_profit_pipeline(w[keep], p[keep], idarr[keep], t,
                                      v_eff, seed.child(r))
        return _rebase_profit(out, base, free_ids)

    boosted, _ = boost_runs(run, boost, maximize=True)
    seq, tr = boosted
    hi = min(t, wcut - 1)
    if seq.stop <= hi and len(seq):
        # budget curves stay constant once every item is in; pad so the
        # reported window matches the full index range
        pad = np.full(hi + 1 - seq.stop, seq.arr[-1])
        tr = PadNode(seq.stop, tr)
        seq = MonotoneSeq(np.concatenate([seq.arr, pad]), seq.start,
                          seq.direction, seq.sentinel, validate=False)
    return Witnessed(restrict(seq, (0, hi), (0, v)), tr, boosted.exact)


def _rebase_profit(run, base, free_ids):
    seq, tr = run
    if base == 0:
        return Witnessed(seq, tr, run.exact)
    vals = np.where(_finite(seq.arr), seq.arr + base, seq.arr)
    out = MonotoneSeq(vals, seq.start, seq.direction, seq.sentinel,
                      validate=False)
    return Witnessed(out, FreeItemsProfitNode(base, free_ids, tr), run.exact)


def _bc_profit_pipeline(w, p, idarr, t, v, seed):
    """One run; exact when no group color-coded a subgroup."""
    clip = lambda s: _cap_max_curve(s, t, v)
    parts = []
    by_dp = []
    for gi, (key, members) in enumerate(_dyadic_groups(w, p)):
        part = _bc_profit_group(w[members], p[members], idarr[members],
                                key, t, v, seed.child(0, gi))
        if part is None:
            by_dp.append(members)
        else:
            parts.append(Witnessed(clip(part[0]), part[1], part.exact))
    if by_dp:
        sel = np.concatenate(by_dp)
        seq, tr = profit_dp(w[sel], p[sel], idarr[sel],
                            min(t, int(w[sel].sum())))
        parts.insert(0, Witnessed(clip(seq), tr, True))
    return Witnessed(*_tree_merge(parts, merge_maxplus, clip, seed.child(1)),
                     all(part.exact for part in parts))


def _bc_profit_group(w, p, ids, key: GroupKey, t, v, seed):
    """The group's split curve, or None when the exact DP over it is the
    cheaper route (the pipeline folds it into one DP).  The split curve
    is exact when every subgroup is a lone item."""
    z = max(1, min(-(-t // (1 << (key.a - 1))), -(-v // (1 << (key.b - 1)))))
    u = math.ceil(math.log2(z + 1)) + 1
    reps = math.ceil(math.log2(z + 1)) + 3
    rng = seed.generator()
    assign = rng.integers(0, z, len(w))
    if _dp_is_cheaper(w, assign, min(t, (1 << key.a) * u), t):
        return None
    clip = lambda s: _cap_max_curve(s, t, v)
    subs = []
    lone = True
    for g in np.unique(assign):
        sel = assign == g
        if sel.sum() == 1:
            # a lone item needs no color coding; its curve is exact
            one = _best_single_profit(w[sel], p[sel], ids[sel],
                                      min(t, (1 << key.a) * u))
            subs.append((clip(one[0]), one[1]))
            continue
        lone = False
        ws = _color_coded_profit(w[sel], p[sel], ids[sel], u, reps,
                                 min(t, (1 << key.a) * u),
                                 min(v, (1 << key.b) * u),
                                 seed.child(2, int(g)))
        subs.append(ws)
    if not subs:
        return _zero_profit_curve(min(t, 1))
    return Witnessed(*_tree_merge(subs, merge_maxplus, clip, seed.child(3)),
                     lone)


def _color_coded_profit(w, p, ids, u, reps, idx_cap, val_cap, seed):
    clip = lambda s: _cap_max_curve(s, idx_cap, val_cap)

    def rep(r):
        rng = seed.child(r).generator()
        buckets = rng.integers(0, u * u, len(w))
        parts = []
        keys = np.unique(buckets)
        for bkt in keys:
            sel = buckets == bkt
            parts.append(_best_single_profit(w[sel], p[sel], ids[sel],
                                             idx_cap))
        merged = _tree_merge(parts, merge_maxplus, clip, seed.child(r, 1))
        # one item per bucket: the merge is the subgroup's exact curve
        return Witnessed(clip(merged[0]), merged[1], len(keys) == len(w))

    return boost_runs(rep, reps, maximize=True)[0]


def _best_single_profit(w, p, ids, idx_cap):
    """P^1: best single item (or nothing) per weight budget.  Ties go to
    the earlier item at one weight and to the lighter item across
    weights."""
    hi = int(min(idx_cap, w.max(initial=0)))
    vals, wit = _best_per_index(w, p, ids, hi, maximize=True)
    # running max: each budget takes the lightest weight at its maximum
    new = vals > np.concatenate([[0], np.maximum.accumulate(vals)[:-1]])
    first = np.maximum.accumulate(np.where(new, np.arange(hi + 1), -1))
    wit = np.where(first >= 0, wit[first], -1)
    seq = MonotoneSeq(np.maximum.accumulate(vals), 0, NON_DECREASING,
                      NEG_INF, validate=False)
    return seq, ItemWitnessNode(0, wit)


def _best_per_index(key, val, ids, hi, maximize):
    """Per index j in 0..hi, the best ``val`` (largest for ``maximize``,
    else smallest) among items with ``key`` == j, the earliest item on
    ties, with its id; 0 (or INT_INF) and -1 where no item improves on
    that."""
    vals = np.full(hi + 1, 0 if maximize else INT_INF, dtype=np.int64)
    wit = np.full(hi + 1, -1, dtype=np.int64)
    sel = (key <= hi) & ((val > 0) if maximize else (val < INT_INF))
    key, val, ids = key[sel], val[sel], ids[sel]
    order = np.lexsort((-val if maximize else val, key))  # stable
    key = key[order]
    head = np.flatnonzero(np.diff(key, prepend=-1))
    vals[key[head]] = val[order][head]
    wit[key[head]] = ids[order][head]
    return vals, wit


# ---------------------------------------------------------------------------
# Weight direction


def bc_weight_bounded(instance: KnapsackInstance, v: int, t: int,
                      seed: SeedCtx, boost: int = 1, ids=None
                      ) -> Tuple[MonotoneSeq, object]:
    """W[0..v; 0..t]: weight sequence restricted to indices <= v and
    values <= t."""
    boosted, _ = boost_runs(
        lambda r: _bc_weight_once(instance, v, t, seed.child(r), ids),
        boost, maximize=False)
    seq, tr = boosted
    return Witnessed(restrict(seq, (0, v), (0, t)), tr, boosted.exact)


def _bc_weight_once(instance, v, t, seed, ids):
    w = instance.weights
    p = instance.profits
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    free = (w == 0) & (p > 0)
    base = int(p[free].sum())
    free_ids = tuple(int(i) for i in idarr[free])
    keep = (w <= t) & (w > 0) & (p > 0)
    if not keep.any() or v - base <= 0:
        run = _zero_weight_curve(max(v - base, 0))
    else:
        run = _bc_weight_pipeline(w[keep], p[keep], idarr[keep], v - base,
                                  t, seed)
    return _rebase_weight(run, base, free_ids, v)


def _rebase_weight(run, base, free_ids, v):
    seq, tr = run
    if base == 0:
        return Witnessed(seq, tr, run.exact)
    # free profit shifts the index axis right and zero-fills the prefix
    vals = np.concatenate([np.zeros(base + 1, dtype=np.int64), seq.arr[1:]])
    out = MonotoneSeq(vals[:v + 1], 0, NON_DECREASING, INF, validate=False)
    return Witnessed(out, FreeItemsWeightNode(base, free_ids, tr), run.exact)


def _bc_weight_pipeline(w, p, idarr, v, t, seed):
    """One run; exact when no group color-coded a subgroup."""
    clip = lambda s: _cap_min_curve(s, v, t)
    p_max = int(p.max())
    parts = []
    by_dp = []
    for gi, (key, members) in enumerate(_dyadic_groups(w, p)):
        part = _bc_weight_group(w[members], p[members], idarr[members],
                                key, v, t, p_max, seed.child(0, gi))
        if part is None:
            by_dp.append(members)
        else:
            parts.append(Witnessed(clip(part[0]), part[1], part.exact))
    if by_dp:
        sel = np.concatenate(by_dp)
        seq, tr = weight_dp(w[sel], p[sel], idarr[sel],
                            min(v, int(p[sel].sum())))
        parts.insert(0, Witnessed(clip(seq), tr, True))
    return Witnessed(*_tree_merge(parts, merge_minplus, clip, seed.child(1)),
                     all(part.exact for part in parts))


def _bc_weight_group(w, p, ids, key: GroupKey, v, t, p_max, seed):
    """The group's split curve, or None when the exact DP over it is the
    cheaper route (the pipeline folds it into one DP).  The split curve
    is exact when every subgroup is a lone item."""
    z = max(1, min(-(-t // (1 << key.a)), -(-(v + p_max) // (1 << key.b))))
    u = math.ceil(math.log2(z + 1)) + 1
    reps = math.ceil(math.log2(z + 1)) + 3
    rng = seed.generator()
    assign = rng.integers(0, z, len(w))
    if _dp_is_cheaper(p, assign, min(v, (1 << key.b) * u), v):
        return None
    clip = lambda s: _cap_min_curve(s, v, t)
    subs = []
    lone = True
    for g in np.unique(assign):
        sel = assign == g
        if sel.sum() == 1:
            one = _best_single_weight(w[sel], p[sel], ids[sel],
                                      min(v, (1 << key.b) * u))
            subs.append((clip(one[0]), one[1]))
            continue
        lone = False
        ws = _color_coded_weight(w[sel], p[sel], ids[sel], u, reps,
                                 min(v, (1 << key.b) * u),
                                 min(t, (1 << key.a) * u),
                                 seed.child(2, int(g)))
        subs.append(ws)
    if not subs:
        return _zero_weight_curve(min(v, 1))
    return Witnessed(*_tree_merge(subs, merge_minplus, clip, seed.child(3)),
                     lone)


def _color_coded_weight(w, p, ids, u, reps, idx_cap, val_cap, seed):
    clip = lambda s: _cap_min_curve(s, idx_cap, val_cap)

    def rep(r):
        rng = seed.child(r).generator()
        buckets = rng.integers(0, u * u, len(w))
        parts = []
        keys = np.unique(buckets)
        for bkt in keys:
            sel = buckets == bkt
            parts.append(_best_single_weight(w[sel], p[sel], ids[sel],
                                             idx_cap))
        merged = _tree_merge(parts, merge_minplus, clip, seed.child(r, 1))
        return Witnessed(clip(merged[0]), merged[1], len(keys) == len(w))

    return boost_runs(rep, reps, maximize=False)[0]


def _best_single_weight(w, p, ids, idx_cap):
    """W^1: lightest single item achieving profit >= j, per j.  Ties go
    to the earlier item at one profit and to the smaller profit across
    profits."""
    hi = int(min(idx_cap, p.max(initial=0)))
    vals, wit = _best_per_index(np.minimum(p, hi), w, ids, hi,
                                maximize=False)
    # suffix min over 1..hi: profit >= j gets easier; ties keep the
    # smaller profit
    rev = vals[:0:-1]
    new = rev <= np.concatenate([[INT_INF], np.minimum.accumulate(rev)[:-1]])
    first = np.maximum.accumulate(np.where(new, np.arange(hi), 0))
    vals[1:] = np.minimum.accumulate(rev)[::-1]
    wit[1:] = wit[:0:-1][first][::-1]
    vals[0] = 0
    wit[0] = -1
    seq = MonotoneSeq(vals, 0, NON_DECREASING, INF, validate=False)
    return seq, ItemWitnessNode(0, wit)
