"""Bounded profit/weight sequence solvers.

Computes P[0..t; 0..v] (or W[0..v; 0..t]) in time governed by the
tropical convolution engine rather than n*t: items are bucketed into
weight/profit dyadic groups, each group is randomly split into subgroups
small enough that color coding recovers per-subgroup curves from
single-item sequences, and everything is merged back with bounded
monotone max-plus (min-plus) convolutions.  Monte Carlo: each entry of a
single run is correct with constant probability per color-coding round,
boosted internally; callers can boost whole runs on top.

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
from .core import (INF, KnapsackInstance, MonotoneSeq, NEG_INF,
                   NON_DECREASING, SeedCtx, restrict)
from .convolution import (maxplus_naive, minplus_naive,
                          monotone_maxplus_rect, monotone_minplus_rect)
from .trace import (ConstItemsNode, EmptySetNode, FreeItemsProfitNode,
                    FreeItemsWeightNode, ItemWitnessNode, MergeNode, PadNode)
from .windowed import combine_boosted


@dataclass(frozen=True)
class GroupKey:
    """Dyadic class: weights in [2^(a-1), 2^a), profits in [2^(b-1), 2^b)."""

    a: int
    b: int


def _finite_max(seq: MonotoneSeq) -> int:
    best = 0
    for v in seq.values:
        if v != INF and v != NEG_INF and v > best:
            best = v
    return int(best)


_NAIVE_MERGE_CUTOFF = 1 << 21


def merge_maxplus(left, right, seed: SeedCtx):
    lseq, ltr = left
    rseq, rtr = right
    if len(lseq) * len(rseq) <= _NAIVE_MERGE_CUTOFF:
        seq = maxplus_naive(lseq, rseq)
    else:
        m = max(_finite_max(lseq), _finite_max(rseq), 1)
        seq = monotone_maxplus_rect(lseq, rseq, m, seed)
    return seq, MergeNode("max", lseq, ltr, rseq, rtr)


def merge_minplus(left, right, seed: SeedCtx):
    lseq, ltr = left
    rseq, rtr = right
    if len(lseq) * len(rseq) <= _NAIVE_MERGE_CUTOFF:
        seq = minplus_naive(lseq, rseq)
    else:
        m = max(_finite_max(lseq), _finite_max(rseq), 1)
        seq = monotone_minplus_rect(lseq, rseq, m, seed)
    return seq, MergeNode("min", lseq, ltr, rseq, rtr)


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
    hi = min(seq.stop, idx_hi + 1) - seq.start
    vals = tuple(v if v == INF or v == NEG_INF or v <= val_hi else val_hi + 1
                 for v in seq.values[:hi])
    return MonotoneSeq.unsafe(vals, seq.start, seq.direction, seq.sentinel)


_cap_min_curve = _cap_max_curve


def _zero_profit_curve(hi: int):
    seq = MonotoneSeq([0] * (hi + 1), 0, NON_DECREASING, NEG_INF,
                      validate=False)
    return seq, EmptySetNode()


def _zero_weight_curve(hi: int):
    vals = [0] + [INF] * hi
    seq = MonotoneSeq(vals, 0, NON_DECREASING, INF, validate=False)
    return seq, EmptySetNode()


# ---------------------------------------------------------------------------
# Profit direction


def bc_profit_bounded(instance: KnapsackInstance, t: int, v: int,
                      seed: SeedCtx, boost: int = 1, ids=None
                      ) -> Tuple[MonotoneSeq, object]:
    """P[0..t; 0..v]: profit sequence restricted to indices <= t and
    values <= v."""
    runs = []
    wcut = t + 1
    for r in range(boost):
        run, wcut = _bc_profit_once(instance, t, v, seed.child(r), ids)
        runs.append(run)
    seq, tr = combine_boosted(runs, maximize=True)
    hi = min(t, wcut - 1)
    if seq.stop <= hi and len(seq):
        # budget curves stay constant once every item is in; pad so the
        # reported window matches the full index range
        pad = [seq.values[-1]] * (hi + 1 - seq.stop)
        tr = PadNode(seq.stop, tr)
        seq = MonotoneSeq(seq.values + tuple(pad), seq.start, seq.direction,
                          seq.sentinel, validate=False)
    return restrict(seq, (0, hi), (0, v)), tr


def _bc_profit_once(instance, t, v, seed, ids):
    w = instance.weights
    p = instance.profits
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    # zero-weight items always ride along (pure value offset); zero-profit
    # items never change a profit curve
    free = (w == 0) & (p > 0)
    base = int(p[free].sum())
    free_ids = tuple(int(i) for i in idarr[free])
    if base > v:
        seq = MonotoneSeq([base], 0, NON_DECREASING, NEG_INF, validate=False)
        return (seq, ConstItemsNode(free_ids, base)), t + 1
    v_eff = v - base
    # items above the profit bound cannot sit in any reported entry, but
    # the lightest of them ends the restriction window
    heavy_profit = (p > v_eff) & (w <= t) & (w > 0)
    wcut = int(w[heavy_profit].min()) if heavy_profit.any() else t + 1
    keep = (w <= t) & (p <= v_eff) & (w > 0) & (p > 0)
    if not keep.any():
        seq, tr = _zero_profit_curve(min(t, wcut - 1))
        return _rebase_profit(seq, tr, base, free_ids), wcut
    run = _bc_profit_pipeline(w[keep], p[keep], idarr[keep], t, v_eff, seed)
    return _rebase_profit(run[0], run[1], base, free_ids), wcut


def _rebase_profit(seq, tr, base, free_ids):
    if base == 0:
        return seq, tr
    vals = tuple(x if x == INF or x == NEG_INF else x + base
                 for x in seq.values)
    out = MonotoneSeq.unsafe(vals, seq.start, seq.direction, seq.sentinel)
    return out, FreeItemsProfitNode(base, free_ids, tr)


def _bc_profit_pipeline(w, p, idarr, t, v, seed):
    clip = lambda s: _cap_max_curve(s, t, v)
    parts = []
    exact = []
    for gi, (key, members) in enumerate(_dyadic_groups(w, p)):
        part = _bc_profit_group(w[members], p[members], idarr[members],
                                key, t, v, seed.child(0, gi))
        if part is None:
            exact.append(members)
        else:
            parts.append((clip(part[0]), part[1]))
    if exact:
        sel = np.concatenate(exact)
        seq, tr = profit_dp(w[sel], p[sel], idarr[sel],
                            min(t, int(w[sel].sum())))
        parts.insert(0, (clip(seq), tr))
    return _tree_merge(parts, merge_maxplus, clip, seed.child(1))


def _bc_profit_group(w, p, ids, key: GroupKey, t, v, seed):
    """The group's split, color-coded curve, or None when the exact DP
    over it is the cheaper route (the pipeline folds it into one DP)."""
    z = max(1, min(-(-t // (1 << (key.a - 1))), -(-v // (1 << (key.b - 1)))))
    u = math.ceil(math.log2(z + 1)) + 1
    reps = math.ceil(math.log2(z + 1)) + 3
    rng = seed.generator()
    assign = rng.integers(0, z, len(w))
    if _dp_is_cheaper(w, assign, min(t, (1 << key.a) * u), t):
        return None
    clip = lambda s: _cap_max_curve(s, t, v)
    subs = []
    for g in np.unique(assign):
        sel = assign == g
        if sel.sum() == 1:
            # a lone item needs no color coding; its curve is exact
            one = _best_single_profit(w[sel], p[sel], ids[sel],
                                      min(t, (1 << key.a) * u))
            subs.append((clip(one[0]), one[1]))
            continue
        ws = _color_coded_profit(w[sel], p[sel], ids[sel], u, reps,
                                 min(t, (1 << key.a) * u),
                                 min(v, (1 << key.b) * u),
                                 seed.child(2, int(g)))
        subs.append(ws)
    if not subs:
        return _zero_profit_curve(min(t, 1))
    return _tree_merge(subs, merge_maxplus, clip, seed.child(3))


def _color_coded_profit(w, p, ids, u, reps, idx_cap, val_cap, seed):
    clip = lambda s: _cap_max_curve(s, idx_cap, val_cap)
    runs = []
    for r in range(reps):
        rng = seed.child(r).generator()
        buckets = rng.integers(0, u * u, len(w))
        parts = []
        for bkt in np.unique(buckets):
            sel = buckets == bkt
            parts.append(_best_single_profit(w[sel], p[sel], ids[sel],
                                             idx_cap))
        merged = _tree_merge(parts, merge_maxplus, clip, seed.child(r, 1))
        runs.append((clip(merged[0]), merged[1]))
    return combine_boosted(runs, maximize=True)


def _best_single_profit(w, p, ids, idx_cap):
    """P^1: best single item (or nothing) per weight budget."""
    hi = int(min(idx_cap, w.max(initial=0)))
    vals = np.zeros(hi + 1, dtype=np.int64)
    wit = np.full(hi + 1, -1, dtype=np.int64)
    for i in range(len(w)):
        if w[i] <= hi and p[i] > vals[w[i]]:
            vals[w[i]] = int(p[i])
            wit[w[i]] = ids[i]
    for j in range(1, hi + 1):  # running max; ties keep the lighter item
        if vals[j - 1] > vals[j]:
            vals[j] = vals[j - 1]
            wit[j] = wit[j - 1]
        elif vals[j - 1] == vals[j] and wit[j - 1] >= 0:
            wit[j] = wit[j - 1]
    seq = MonotoneSeq(vals.tolist(), 0, NON_DECREASING, NEG_INF,
                      validate=False)
    return seq, ItemWitnessNode(0, wit)


# ---------------------------------------------------------------------------
# Weight direction


def bc_weight_bounded(instance: KnapsackInstance, v: int, t: int,
                      seed: SeedCtx, boost: int = 1, ids=None
                      ) -> Tuple[MonotoneSeq, object]:
    """W[0..v; 0..t]: weight sequence restricted to indices <= v and
    values <= t."""
    runs = [_bc_weight_once(instance, v, t, seed.child(r), ids)
            for r in range(boost)]
    seq, tr = combine_boosted(runs, maximize=False)
    return restrict(seq, (0, v), (0, t)), tr


def _bc_weight_once(instance, v, t, seed, ids):
    w = instance.weights
    p = instance.profits
    idarr = np.arange(instance.n) if ids is None else np.asarray(ids)
    free = (w == 0) & (p > 0)
    base = int(p[free].sum())
    free_ids = tuple(int(i) for i in idarr[free])
    keep = (w <= t) & (w > 0) & (p > 0)
    if not keep.any() or v - base <= 0:
        seq, tr = _zero_weight_curve(max(v - base, 0))
        return _rebase_weight(seq, tr, base, free_ids, v)
    run = _bc_weight_pipeline(w[keep], p[keep], idarr[keep], v - base, t,
                              seed)
    return _rebase_weight(run[0], run[1], base, free_ids, v)


def _rebase_weight(seq, tr, base, free_ids, v):
    if base == 0:
        return seq, tr
    # free profit shifts the index axis right and zero-fills the prefix
    vals = [0] * (base + 1) + list(seq.values[1:])
    out = MonotoneSeq(vals[:v + 1], 0, NON_DECREASING, INF, validate=False)
    return out, FreeItemsWeightNode(base, free_ids, tr)


def _bc_weight_pipeline(w, p, idarr, v, t, seed):
    clip = lambda s: _cap_min_curve(s, v, t)
    p_max = int(p.max())
    parts = []
    exact = []
    for gi, (key, members) in enumerate(_dyadic_groups(w, p)):
        part = _bc_weight_group(w[members], p[members], idarr[members],
                                key, v, t, p_max, seed.child(0, gi))
        if part is None:
            exact.append(members)
        else:
            parts.append((clip(part[0]), part[1]))
    if exact:
        sel = np.concatenate(exact)
        seq, tr = weight_dp(w[sel], p[sel], idarr[sel],
                            min(v, int(p[sel].sum())))
        parts.insert(0, (clip(seq), tr))
    return _tree_merge(parts, merge_minplus, clip, seed.child(1))


def _bc_weight_group(w, p, ids, key: GroupKey, v, t, p_max, seed):
    """The group's split, color-coded curve, or None when the exact DP
    over it is the cheaper route (the pipeline folds it into one DP)."""
    z = max(1, min(-(-t // (1 << key.a)), -(-(v + p_max) // (1 << key.b))))
    u = math.ceil(math.log2(z + 1)) + 1
    reps = math.ceil(math.log2(z + 1)) + 3
    rng = seed.generator()
    assign = rng.integers(0, z, len(w))
    if _dp_is_cheaper(p, assign, min(v, (1 << key.b) * u), v):
        return None
    clip = lambda s: _cap_min_curve(s, v, t)
    subs = []
    for g in np.unique(assign):
        sel = assign == g
        if sel.sum() == 1:
            one = _best_single_weight(w[sel], p[sel], ids[sel],
                                      min(v, (1 << key.b) * u))
            subs.append((clip(one[0]), one[1]))
            continue
        ws = _color_coded_weight(w[sel], p[sel], ids[sel], u, reps,
                                 min(v, (1 << key.b) * u),
                                 min(t, (1 << key.a) * u),
                                 seed.child(2, int(g)))
        subs.append(ws)
    if not subs:
        return _zero_weight_curve(min(v, 1))
    return _tree_merge(subs, merge_minplus, clip, seed.child(3))


def _color_coded_weight(w, p, ids, u, reps, idx_cap, val_cap, seed):
    clip = lambda s: _cap_min_curve(s, idx_cap, val_cap)
    runs = []
    for r in range(reps):
        rng = seed.child(r).generator()
        buckets = rng.integers(0, u * u, len(w))
        parts = []
        for bkt in np.unique(buckets):
            sel = buckets == bkt
            parts.append(_best_single_weight(w[sel], p[sel], ids[sel],
                                             idx_cap))
        merged = _tree_merge(parts, merge_minplus, clip, seed.child(r, 1))
        runs.append((clip(merged[0]), merged[1]))
    return combine_boosted(runs, maximize=False)


def _best_single_weight(w, p, ids, idx_cap):
    """W^1: lightest single item achieving profit >= j, per j."""
    hi = int(min(idx_cap, p.max(initial=0)))
    vals = np.full(hi + 1, 1 << 61, dtype=np.int64)
    wit = np.full(hi + 1, -1, dtype=np.int64)
    for i in range(len(w)):
        j = int(min(p[i], hi))
        if w[i] < vals[j]:
            vals[j] = int(w[i])
            wit[j] = ids[i]
    for j in range(hi - 1, 0, -1):  # suffix min: profit >= j gets easier
        if vals[j + 1] < vals[j]:
            vals[j] = vals[j + 1]
            wit[j] = wit[j + 1]
    vals[0] = 0
    wit[0] = -1
    out = [0] + [int(x) if x < (1 << 61) else INF for x in vals[1:]]
    seq = MonotoneSeq(out, 0, NON_DECREASING, INF, validate=False)
    return seq, ItemWitnessNode(0, wit)
